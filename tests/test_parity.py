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
                   compute_D, extract_jet, f0_from_jet, family_b0, family_mc,
                   family_nb, reconstruct, validate)
from crjet.hypersurface import THETA_VARS
from crjet.scalars import EC_I, NPoly
from crjet.series import (compose, divide, implicit_solve, inverse_unit,
                          kth_root_unit)
from crjet.upsilon import SYMBOLIC, pn_series
from conftest import linear_map

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

FIXED_N_DIGESTS = {
    ("b0", 0): "05b2ea4be713796a71626f2ecf3dbbdaa468c3aba2bc195a6aaceae398c99b4a",
    ("b0", 1): "e63cd23e7e06a1d3ea1875b992bd99c53af41355b711b3085bc014ae6d9297fe",
    ("b0", 2): "15b0abe216ff7d051130c8242ccaa59b33530265462d4a45761b0a3f9cd62dce",
    ("b0", 5): "852433d15389dc88c2529d615b754a7a582514d2ecaa8f519253eb79d08aba7a",
    ("mc", 0): "f95811dbf1298c9bcc127c3a3241978ca818c2e08d7783e85ce53bd11f7ae98a",
    ("mc", 1): "552b7e01528dade1ab47b28f615e7900c6114d0f1ce09937ca63bd097f4d5153",
    ("mc", 2): "8b7ffe340baf69d0d041a9a528aaa1fe0bfadf17a38aad22cdcb729a6854ffba",
    ("mc", 5): "562e90eceefc5df5620f7ec5306f528b03ab4309dda43eb1cbcefdd1ff43bb92",
    ("nb", 0): "bc1dc62b766a352e79b032b70389ea3a26782df37b9d26b925931354ec79c056",
    ("nb", 1): "79b5f0db97f8851f35b70fd6d767fa6faba2d85ef4d59d89ab337b5aa0d8d7f8",
    ("nb", 2): "cf054f05c3f290839ed9fb9b25a625b02c91856d9fda6eed0827a77988ae739e",
    ("nb", 5): "ea45e85a741e705277c5fc911e5fcc4125a5048a4f9bc0f2eb265f8c83edc76c",
}

S_DIGESTS = {
    "mc": "dc6eb54bf9cdf7db9f33d9bb0047db70e0c5f27b6ee76ba7fa203098e0a0ff2e",
    "nb": "f504c35e83b7c5ef3f599211db61931fcc0ae2e0b6d6790019663fa769c68c74",
    "b0": "04e247e85ba031d6d756dbb0fcbeb2d3d7aca33dcf1ff089d9b30680e897a211",
}

PN_DIGESTS = {
    "mc": "7e16fe4bcfeefb4231d362374527ac4545bf36290dd0c3368a5784c53d6c8724",
    "nb": "3812886e0846cf8e48f9c919f228dfaf75c64f92290d91c8aadd3398aa1c4ee7",
    "b0": "66a8f14da8f985ac573168aa7b4e5848071774947884421690e2cb143ce8d448",
}

DERIVED_DIGESTS = {
    "inverse_unit-exact": "f8f5aaddf935c7b23e6a90f588f5e2655a85134e4700255a9c7b62b7ba0c937a",
    "inverse_unit-mixed": "199b3303e1a95f261678b8e258ff32932f1ee897ee9abf1c0fc2c9c9c1eb7de3",
    "kth_root_unit-1-exact": "4a917d4466bcd8be8fcf10f4e7c5af49d111a3d811dfd31f8a7942dade131381",
    "kth_root_unit-2-exact": "2dc8cd05573801192e3b965d2c1ca47b5fd9f6f979b2521ccc7d91d7f3ef246e",
    "kth_root_unit-3-exact": "820eda9158ec7bd01fad0d24f725a70a39fafee737470fcf2b0942ce01ceba73",
    "kth_root_unit-1-mixed": "4c2d417a64030c55a32ce1fb63f50ee8312e4f3a53aaa65efa3bba784626c9c5",
    "kth_root_unit-2-mixed": "51ab2b261dbeadcf14f01742fa5feebe5f22dfd7e9332a5e7e612e88efa915e2",
    "kth_root_unit-3-mixed": "aad9e03114cc1de533a20ea9a79d5adccca034132191065bdea413e3b062902a",
    "divide-exact": "df008219049a309a1077d32f228b2a24b34ff0351afa2d64aee8cbc952096874",
    "divide-mixed": "f0a4a591e1ca657935dbb4ce85e70d3e275a07336903e0e7e84bbd8c384e6398",
}

GRAPH_DIGESTS = {
    16: "1d2ef82dacf6142c77532830b54f78bb08e5e236d7476026cfed6aacb9002a83",
    24: "b6d1880471f84740298e9a03cd8461896b4fd6be3429a6127d66d737f945ae9b",
    32: "c2355269bfc950384e1952a4b42f222e24938e09475b3fb53d0813fe699287e3",
}

CURVED_F0_DIGEST = "5e19bafa66dc7d18648ad01a5b52a1a2ad6a312101ca89f1ee58411c0fc613a1"

IMPLICIT_DIGESTS = {
    "two-variables": "1a1865813155da3ccdae3bf77ed66e42481f229f87136fd342e6011991067d2e",
    "three-variables": "9e0e7bc2489f0a22ae45cb41a468e71491b1e8644a13b46de85494573c299273",
    "complex-slope": "452941409c5936249086eb85f39b072149d2f649ea8fe3c8ac1375570466967e",
}

RECONSTRUCTION_DIGEST = "b5c9e5e133eb89fbe2ef774f42c68bccdcbc422084cb83fe2a893fbdbdd83659"


def digest(series) -> str:
    h = hashlib.sha256()
    for s in series:
        terms = sorted((e, type(c).__name__, str(c)) for e, c in s.coeffs.items())
        h.update(repr((s.variables, s.degree, terms)).encode())
    return h.hexdigest()


def units():
    """Units in (z, chi) with constant term 1, from the slices theta of b0
    and nb: 1 + theta_b0 + theta_nb, all ExactComplex, and
    1 + theta_b0 + (1 + n) theta_nb, which mixes ExactComplex and NPoly."""
    b0, nb = FAMILIES["b0"]().theta, FAMILIES["nb"]().theta
    one = TruncatedSeries.const(b0.variables, b0.degree, 1)
    return {"exact": one + b0 + nb, "mixed": one + b0 + nb * NPoly([1, 1])}


def derived_series(name):
    """The series ``DERIVED_DIGESTS`` pins under ``name``."""
    op, *k, kind = name.split("-")
    u = units()[kind]
    if op == "inverse_unit":
        return inverse_unit(u + u)
    if op == "kth_root_unit":
        return kth_root_unit(u, int(k[0]))
    # (u - 1) / (z chi (2 + theta_b0 + theta_nb)): a monomial times a unit
    z, chi = (TruncatedSeries.var(v, u.variables, u.degree) for v in u.variables)
    return divide(u - 1, z * chi * (units()["exact"] + 1))


def rich_theta(degree):
    """Theta = z chi s + i z chi^2 s - i z^2 chi s + 1/3 z^2 chi^2 s^2
    + 2 z chi s^3 - 1/2 z^3 chi^3 s^2: s^2 and s^3 terms, so Q is far from
    the plain tau + 2i theta tau."""
    return TruncatedSeries(THETA_VARS, degree, {
        (1, 1, 1): ExactComplex(1), (1, 2, 1): EC_I, (2, 1, 1): -EC_I,
        (2, 2, 2): ExactComplex(Fraction(1, 3)), (1, 1, 3): ExactComplex(2),
        (3, 3, 2): ExactComplex(Fraction(-1, 2))})


def curved_b0_pullback(degree):
    """(M, b0, a_0^1) with theta of M = theta of b0 at (f0(z), conj f0(chi)),
    f0 = eps z + z^2 + (1/2 + i/3) z^3 for the unit eps = 3/5 + 4/5 i."""
    B = family_b0(degree)
    f0 = {1: EPS_UNIT, 2: ExactComplex(1), 3: ExactComplex(Fraction(1, 2), Fraction(1, 3))}
    f0zc = TruncatedSeries(("z", "chi"), degree, {(k, 0): c for k, c in f0.items()})
    f0bar = TruncatedSeries(("z", "chi"), degree, {(0, k): c.conj() for k, c in f0.items()})
    theta = compose(B.theta.truncate(degree), {"z": f0zc, "chi": f0bar})
    M = validate(TruncatedSeries(
        THETA_VARS, degree, {(a, b, 1): c for (a, b), c in theta.coeffs.items()}))
    return M, B, EPS_UNIT.conj()


def implicit_rho(name):
    """The rho(w, ...) whose root ``IMPLICIT_DIGESTS`` pins under ``name``;
    each has a w^2 or w x term, so d rho/dw is not constant."""
    if name == "two-variables":
        V = ("w", "x", "y")
        w, x, y = (TruncatedSeries.var(v, V, 14) for v in V)
        return w - x - y * w * w - x * y * w ** 3 + w * x * Fraction(1, 2), "w"
    if name == "three-variables":
        V = ("x", "w", "y", "t")
        x, w, y, t = (TruncatedSeries.var(v, V, 10) for v in V)
        return (w * 3 - x * y + t * t * EC_I - w * w * (x + t) * 2
                + w ** 3 * Fraction(1, 3) - w * y * EC_I), "w"
    V = ("u", "a", "b")
    u, a, b = (TruncatedSeries.var(v, V, 16) for v in V)
    return (u * ExactComplex(2, 1) - a - b * EC_I + u * u * ExactComplex(1, -1)
            - u * a * b * 3 + u ** 4 * Fraction(1, 5)), "u"


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
def test_graph_quotient(name):
    assert digest([FAMILIES[name]().S]) == S_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pn_series(name):
    assert digest([pn_series(FAMILIES[name]().theta)]) == PN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DERIVED_DIGESTS))
def test_derived_series(name):
    assert digest([derived_series(name)]) == DERIVED_DIGESTS[name]


@pytest.mark.parametrize("degree", sorted(GRAPH_DIGESTS))
def test_rich_graph_function(degree):
    assert digest([validate(rich_theta(degree)).Q]) == GRAPH_DIGESTS[degree]


def test_curved_f0():
    f0, _ = f0_from_jet(*curved_b0_pullback(16))
    assert digest([f0]) == CURVED_F0_DIGEST


@pytest.mark.parametrize("name", sorted(IMPLICIT_DIGESTS))
def test_implicit_solve(name):
    assert digest([implicit_solve(*implicit_rho(name))]) == IMPLICIT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_symbolic_upsilon(name):
    U = build_upsilon(FAMILIES[name](), SYMBOLIC)
    assert digest(U.components) == UPSILON_DIGESTS[name]


@pytest.mark.parametrize("name, n", sorted(FIXED_N_DIGESTS))
def test_fixed_n_upsilon(name, n):
    U = build_upsilon(FAMILIES[name](), n)
    assert digest(U.components) == FIXED_N_DIGESTS[name, n]


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
