"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they print).  Every check is exact — no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from crjet import (ExactComplex, FormalMap, TruncatedSeries, build_upsilon,
                   compute_D, extract_jet, family_b0, family_mc, family_nb,
                   finite_determination_check, reconstruct, validate,
                   verify_map, xi_determinants)
from crjet.equivalence import shat_jet_table
from crjet.hypersurface import THETA_VARS
from crjet.scalars import EC_I, factorial
from crjet.series import compose
from crjet.upsilon import SYMBOLIC

from conftest import rand_complex, random_hypersurface, random_series
from faadibruno_oracle import PnData, chain_derivative, universal_pn
import upsilon_oracle

EPS_UNIT = ExactComplex(Fraction(3, 5), Fraction(4, 5))   # rational, |eps| = 1


def criterion(number, label):
    """Print a single PASS/FAIL line for the wrapped criterion body."""
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number:2d} [{label}]: FAIL")
                raise
            print(f"CRITERION {number:2d} [{label}]: PASS")
        run.__name__ = fn.__name__
        return run
    return wrap


def linear_map(eps, r, degree):
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex.coerce(eps)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex.coerce(r)})
    return FormalMap([f0], [g0])


@criterion(1, "invariant tuples")
def test_criterion_01_invariant_tuples():
    for j in (1, 2, 3):
        inv = family_mc(1, j, 4 * j + 6).invariants
        assert (inv.m, inv.L, inv.K, inv.T) == (1, j, j, 1)
        inv = family_nb(ExactComplex(1, 1), j, 4 * j + 6).invariants
        assert (inv.m, inv.L, inv.K) == (1, 1, j)
    inv = family_b0(12).invariants
    assert (inv.L, inv.K) == (1, 1)


@criterion(2, "m cross-check")
def test_criterion_02_m_cross_check():
    def m_from_graph(M):
        """Vanishing order in tau of Q(z,chi,tau) - tau."""
        ti = M.Q.variables.index("tau")
        diff = M.Q - TruncatedSeries.var("tau", M.Q.variables, M.Q.degree)
        return min(exps[ti] for exps in diff.coeffs)

    def check(M):
        assert m_from_graph(M) == M.invariants.m
        if M.invariants.m == 1:
            # Q_tau(z,chi,0) (1 - i theta) = 1 + i theta, coefficient-exact
            qt = M.Q.differentiate("tau").slice("tau", 0)
            theta = M.theta.truncate(qt.degree)
            one = TruncatedSeries.const(theta.variables, qt.degree, 1)
            assert (qt * (one - theta * EC_I) - (one + theta * EC_I)).is_zero()

    for M in (family_mc(1, 1, 12), family_mc(2, 2, 12),
              family_nb(ExactComplex(1, 1), 2, 12), family_b0(12)):
        check(M)
    rng = random.Random(90210)
    for _ in range(20):
        check(random_hypersurface(rng, degree=10))


@criterion(3, "jet-family structure")
def test_criterion_03_upsilon_structure():
    rng = random.Random(5150)
    for M in (family_mc(1, 1, 12), family_nb(ExactComplex(2), 2, 12),
              family_b0(16), random_hypersurface(rng, degree=9)):
        assert build_upsilon(M, 0).components[1].is_zero()
    B = family_b0(16)
    U1 = build_upsilon(B, 1)
    assert U1.degree >= 12 and U1.components[3].is_zero()
    U2 = build_upsilon(B, 2)
    assert U2.degree >= 12
    assert (U2.components[0] * (EC_I * 2) - U2.components[1]).is_zero()


@criterion(4, "exceptional set and jet order")
def test_criterion_04_d_and_k():
    for j in (1, 2):
        degree = 12 if j == 1 else 18
        a = compute_D(family_mc(1, j, degree))
        assert (a.D, a.k) == ([0], 1) and a.scan_bound >= 8
        a = compute_D(family_nb(ExactComplex(1, 1), j, 14))
        assert (a.D, a.k) == ([0], 1) and a.scan_bound >= 8
    a = compute_D(family_b0(14))
    assert (a.D, a.k) == ([0, 1, 2], 4) and a.scan_bound >= 8


@criterion(5, "xi determinant leading terms")
def test_criterion_05_determinant_leading_terms():
    dets = xi_determinants(build_upsilon(family_b0(14), SYMBOLIC))
    assert dets[4].degree() == 8
    assert dets[4].leading() == ExactComplex(110592)

    b = Fraction(1)
    K = 2
    dets = xi_determinants(build_upsilon(family_nb(ExactComplex(b), K, 16),
                                         SYMBOLIC))
    alpha = b * factorial(K)
    expected = Fraction(64 * K * factorial(2 * K) * factorial(3 * K) ** 2,
                        factorial(K) ** 8) * alpha ** 8
    assert dets[3].leading() == ExactComplex(expected)

    c = Fraction(1)
    L = K = 2
    dets = xi_determinants(build_upsilon(family_mc(c, 2, 18), SYMBOLIC))
    alpha = c * factorial(L) * factorial(K)
    expected = (Fraction(-4, 3) * K * factorial(2 * L) * factorial(3 * L)
                * factorial(2 * K) * factorial(3 * K)
                / (factorial(L) * factorial(K)) ** 5 * alpha ** 5)
    assert dets[2].leading() == ExactComplex(expected)


@criterion(6, "bounds |D| <= 2 gamma and 0 in D")
def test_criterion_06_bound_properties():
    rng = random.Random(60606)

    def perturb(M, trials):
        for _ in range(trials):
            terms = dict(M.Theta.coeffs)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            c = rand_complex(rng)
            # a Hermitian pair at s-order 2 keeps normality and reality
            terms[(a, b, 2)] = terms.get((a, b, 2), ExactComplex(0)) + c
            if a != b:
                terms[(b, a, 2)] = terms.get((b, a, 2), ExactComplex(0)) + c.conj()
            else:
                terms[(a, b, 2)] = ExactComplex(c.re + c.re)
            analysis = compute_D(validate(
                TruncatedSeries(THETA_VARS, M.Theta.degree, terms)))
            assert 0 in analysis.D
            assert len(analysis.D) <= 2 * analysis.gamma

    for M in (family_mc(1, 1, 14), family_nb(ExactComplex(1), 1, 14),
              family_nb(ExactComplex(1, 2), 2, 14), family_b0(14)):
        analysis = compute_D(M)
        assert 0 in analysis.D and len(analysis.D) <= 2 * analysis.gamma
        perturb(M, 5)


@criterion(7, "automorphism verification suite")
def test_criterion_07_verification_suite():
    # Aut(M_c^j): (eps z, r w) for any unit eps and real r != 0
    for j in (1, 2, 3):
        M = family_mc(1, j, 14)
        for eps, r in ((EPS_UNIT, 2), (ExactComplex(0, 1), Fraction(-1, 2)),
                       (-EPS_UNIT, 1)):
            rep = verify_map(M, M, linear_map(eps, r, 14))
            assert rep.is_zero and rep.certified_to_degree >= 12
    # Aut(N_b^j): eps^(j-1) = 1
    for j, eps_choices in ((1, (EPS_UNIT, ExactComplex(0, 1))),
                           (2, (ExactComplex(1),)),
                           (3, (ExactComplex(-1),))):
        N = family_nb(ExactComplex(1), j, 14)
        for eps in eps_choices:
            rep = verify_map(N, N, linear_map(eps, 3, 14))
            assert rep.is_zero and rep.certified_to_degree >= 12
    # perturbed non-maps fail with a located residual
    for M in (family_mc(1, 1, 14), family_nb(ExactComplex(1), 2, 14)):
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1),
                                          (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        rep = verify_map(M, M, FormalMap([f0], [g0]))
        assert not rep.is_zero and rep.first_offending is not None


@criterion(8, "reconstruction round-trips at order 8")
def test_criterion_08_reconstruction_round_trips():
    degree, order = 22, 8
    cases = []

    # automorphisms and scalings of the L = K = 1 power family
    M1 = family_mc(1, 1, degree)
    M4 = family_mc(4, 1, degree)
    for eps, r in ((ExactComplex(0, 1), 2), (EPS_UNIT, 3),
                   (ExactComplex(-1), Fraction(1, 2)), (ExactComplex(0, -1), -1)):
        cases.append((M1, M1, linear_map(eps, r, degree)))
    cases.append((M1, M4, linear_map(Fraction(1, 2), 1, degree)))
    cases.append((M4, M1, linear_map(2, Fraction(1, 3), degree)))

    # automorphisms of the Catalan-coefficient input (nontrivial D)
    B = family_b0(degree)
    for eps, r in ((EPS_UNIT, 3), (ExactComplex(0, 1), -1),
                   (-EPS_UNIT, Fraction(1, 2))):
        cases.append((B, B, linear_map(eps, r, degree)))

    # a curved equivalence: theta(z,chi) = thetahat(f0(z), conj f0(chi))
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

    assert len(cases) >= 10
    analyses = {}
    for M, Mhat_, A in cases:
        assert verify_map(M, Mhat_, A).is_zero
        key = id(M)
        if key not in analyses:
            analyses[key] = compute_D(M)
        analysis = analyses[key]
        jet = extract_jet(A, analysis.D)
        H = reconstruct(M, Mhat_, jet, order, D=analysis.D)
        assert H == A                      # coefficient-exact equality
        result = finite_determination_check(M, Mhat_, H, A, analysis.k)
        assert result["status"] == "equal"


@criterion(9, "chain-rule and source-term oracles")
def test_criterion_09_oracle_equivalence():
    rng = random.Random(424242)
    cases = 0
    while cases < 50:
        nvars = rng.randint(1, 3)
        inner_vars = ("z",) if rng.random() < 0.7 else ("z", "w")
        deg = rng.randint(4, 7)
        hvars = tuple(f"u{i}" for i in range(nvars))
        h = random_series(rng, hvars, deg, 4)
        fs = [random_series(rng, inner_vars, deg, 3, min_order=1)
              for _ in range(nvars)]
        v = rng.randint(1, 4)
        direct = chain_derivative(h, fs, v)
        expected = compose(h, dict(zip(hvars, fs))).differentiate(inner_vars[0], v)
        assert direct == expected.truncate(direct.degree)
        cases += 1

    # degenerate source term: components (f0, const g0, 0, 0, ...)
    i = EC_I
    M = validate(TruncatedSeries(THETA_VARS, 12, {
        (1, 1, 1): ExactComplex(1), (1, 2, 1): i, (2, 1, 1): i * (-1),
        (1, 1, 2): ExactComplex(Fraction(1, 2)), (2, 2, 2): ExactComplex(3),
        (1, 2, 2): ExactComplex(1, 1), (2, 1, 2): ExactComplex(1, -1),
        (1, 1, 3): ExactComplex(-2)}))
    Mhat = validate(TruncatedSeries(THETA_VARS, 12, {
        (1, 1, 1): ExactComplex(2), (2, 2, 1): ExactComplex(-1),
        (1, 1, 2): ExactComplex(1), (2, 1, 2): i, (1, 2, 2): i * (-1)}))
    f0 = random_series(rng, ("z",), 12, 3, min_order=1, allow_zero=False)
    g0c = rand_complex(rng)
    zero = TruncatedSeries(("z",), 12, {})
    for n in (1, 2, 3, 4):
        f = [f0] + [zero] * n
        g = [TruncatedSeries.const(("z",), 12, g0c)] + [zero] * n
        fbar = [s.conjugate(rename={"z": "chi"}) for s in f]
        gbar = [s.conjugate(rename={"z": "chi"}) for s in g]
        shat = shat_jet_table(Mhat, f0, n)
        s_jets = [M.s_tau_jet(j) for j in range(n + 1)]
        Pn = universal_pn(n, PnData(f[:n], g[:n], fbar[:n], gbar[:n],
                                    s_jets, shat))
        gpow = ExactComplex(1)
        for _ in range(n + 1):
            gpow = gpow * g0c.conj()
        closed = s_jets[n] * g0c - shat[(0, 0, n)] * gpow
        assert (Pn - closed.truncate(Pn.degree)).is_zero()


@criterion(10, "symbolic/numeric consistency")
def test_criterion_10_symbolic_numeric_consistency():
    for M in (family_mc(1, 1, 10), family_mc(Fraction(2, 3), 2, 12),
              family_nb(ExactComplex(1), 1, 10),
              family_nb(ExactComplex(1, 1), 2, 12), family_b0(10)):
        sym = build_upsilon(M, SYMBOLIC)
        for n0 in range(7):
            fixed = upsilon_oracle.build_upsilon(M, n0)
            at_n0 = sym.eval_n(n0)
            for a, b in zip(at_n0.components, fixed.components):
                assert (a - b.truncate(a.degree)).is_zero()
