"""Parity guard: pinned sha256 digests of exact series the library computes.

Each digest covers the variables, the truncation degree and, per stored
term, the exponents, the coefficient's type name and its ``str``.  A change
to the series representation must leave every value and every coefficient
type alone, so these digests may only change together with a deliberate,
documented change of the mathematics.
"""

import hashlib
from fractions import Fraction

import pytest

from crjet import (ExactComplex, FormalMap, TruncatedSeries, build_upsilon,
                   compute_D, extract_jet, family_b0, family_mc, family_nb,
                   reconstruct, validate)
from crjet.hypersurface import THETA_VARS
from crjet.series import compose
from crjet.upsilon import SYMBOLIC

EPS_UNIT = ExactComplex(Fraction(3, 5), Fraction(4, 5))

FAMILIES = {
    "mc": lambda: family_mc(1, 1, 14),
    "nb": lambda: family_nb(ExactComplex(1, 1), 2, 12),
    "b0": lambda: family_b0(14),
}

HYPERSURFACE_DIGESTS = {
    "mc": "38cdc10d2c5db714fb750dfec274a3eebfa7c0de6c647533f04936842d0fe9c3",
    "nb": "70a8430fc2182f8f7157a52640ec8c195a8aa8c432f8e7d1cf99fe0e4f91eee8",
    "b0": "a75b765a3015e41616792d6487ffba62c940027a77fbfae0060634509b39dcf5",
}

UPSILON_DIGESTS = {
    "mc": "5e130ef7ca9d8133586038ac1312dc0ef0bc98c6018a1c63e45484c0b5a9326d",
    "nb": "796782fe190b68cc1b2063bbaf0dd1abe8dbfceef614a86ac9f149f1143418b1",
    "b0": "a4ed29cc17593208313f349dc63d6b296f9efa13d24d5bf39d3622f46143247b",
}

RECONSTRUCTION_DIGEST = "b5c9e5e133eb89fbe2ef774f42c68bccdcbc422084cb83fe2a893fbdbdd83659"


def digest(series) -> str:
    h = hashlib.sha256()
    for s in series:
        terms = sorted((e, type(c).__name__, str(c)) for e, c in s.coeffs.items())
        h.update(repr((s.variables, s.degree, terms)).encode())
    return h.hexdigest()


def linear_map(eps, r, degree):
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex.coerce(eps)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex.coerce(r)})
    return FormalMap([f0], [g0])


def criterion_08_cases(degree):
    """The (M, Mhat, A) round trips of acceptance criterion 08."""
    cases = []
    M1 = family_mc(1, 1, degree)
    M4 = family_mc(4, 1, degree)
    for eps, r in ((ExactComplex(0, 1), 2), (EPS_UNIT, 3),
                   (ExactComplex(-1), Fraction(1, 2)), (ExactComplex(0, -1), -1)):
        cases.append((M1, M1, linear_map(eps, r, degree)))
    cases.append((M1, M4, linear_map(Fraction(1, 2), 1, degree)))
    cases.append((M4, M1, linear_map(2, Fraction(1, 3), degree)))
    B = family_b0(degree)
    for eps, r in ((EPS_UNIT, 3), (ExactComplex(0, 1), -1),
                   (-EPS_UNIT, Fraction(1, 2))):
        cases.append((B, B, linear_map(eps, r, degree)))
    Mhat = family_mc(1, 1, degree)
    f0zc = TruncatedSeries(("z", "chi"), degree, {(1, 0): ExactComplex(1),
                                                  (2, 0): ExactComplex(1)})
    f0bar = TruncatedSeries(("z", "chi"), degree, {(0, 1): ExactComplex(1),
                                                   (0, 2): ExactComplex(1)})
    theta = compose(Mhat.theta.truncate(degree), {"z": f0zc, "chi": f0bar})
    Msrc = validate(TruncatedSeries(
        THETA_VARS, degree, {(a, b, 1): c for (a, b), c in theta.coeffs.items()}))
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex(1),
                                          (2,): ExactComplex(1)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex(1)})
    cases.append((Msrc, Mhat, FormalMap([f0], [g0])))
    return cases


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_hypersurface_series(name):
    M = FAMILIES[name]()
    assert digest([M.Q, M.S, M.theta]) == HYPERSURFACE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_symbolic_upsilon(name):
    U = build_upsilon(FAMILIES[name](), SYMBOLIC)
    assert digest(U.components) == UPSILON_DIGESTS[name]


def test_criterion_08_reconstructions():
    parts = []
    analyses = {}
    for M, Mhat, A in criterion_08_cases(22):
        if id(M) not in analyses:
            analyses[id(M)] = compute_D(M)
        D = analyses[id(M)].D
        H = reconstruct(M, Mhat, extract_jet(A, D), 8, D=D)
        parts += H.f_components + H.g_components
    assert digest(parts) == RECONSTRUCTION_DIGEST
