"""The order-n source term, checked against a brute force and an oracle.

``crjet.faadibruno.universal_pn`` collects everything of order n in the
mapping identity that is already known from orders < n.  It is checked
three ways:

* against a brute force that expands T = S g(z, tau S) - gbar Shat(f(z, tau
  S), fbar, tau gbar) in tau directly and compares the tau^n slice with the
  assembled identity, for arbitrary (not map-like) components on
  tau-dependent hypersurfaces;
* against the closed form for components (f_0, constant g_0, 0, ...);
* against the partition-sum oracle in ``faadibruno_oracle``, which must give
  the same coefficients, truncation degree and coefficient types, on random
  components and on those of an automorphism of ``family_b0``.

The oracle's chain-rule partition sum is itself checked against ``compose``.
"""

import random
from fractions import Fraction

import pytest

from crjet.equivalence import shat_jet_table
from crjet.faadibruno import universal_pn
from crjet.hypersurface import THETA_VARS, family_b0, validate
from crjet.scalars import EC_I, ExactComplex, factorial
from crjet.series import TruncatedSeries, compose

from conftest import rand_complex, random_series
from faadibruno_oracle import PnData, chain_derivative
from faadibruno_oracle import universal_pn as partition_pn

ZC = ("z", "chi")


class TestChainDerivative:
    def test_fifty_randomized_cases_match_compose(self):
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
            expected = compose(h, dict(zip(hvars, fs))).differentiate(
                inner_vars[0], v)
            assert direct == expected.truncate(direct.degree)
            cases += 1

    def test_single_variable_classic(self):
        # (h o f)'' = h''(f) f'^2 + h'(f) f''
        rng = random.Random(3)
        h = random_series(rng, ("u",), 6, 4)
        f = random_series(rng, ("z",), 6, 4, min_order=1)
        d2 = chain_derivative(h, [f], 2)
        hp = h.differentiate("u")
        hpp = hp.differentiate("u")
        fp = f.differentiate("z")
        expect = (compose(hpp, {"u": f}) * fp * fp
                  + compose(hp, {"u": f}) * f.differentiate("z", 2))
        assert d2 == expect.truncate(d2.degree)


def tau_dependent_pair(degree=12):
    """Two valid inputs whose graph series genuinely depend on tau."""
    i = EC_I
    M = validate(TruncatedSeries(THETA_VARS, degree, {
        (1, 1, 1): ExactComplex(1), (1, 2, 1): i, (2, 1, 1): i * (-1),
        (1, 1, 2): ExactComplex(Fraction(1, 2)), (2, 2, 2): ExactComplex(3),
        (1, 2, 2): ExactComplex(1, 1), (2, 1, 2): ExactComplex(1, -1),
        (1, 1, 3): ExactComplex(-2)}))
    Mhat = validate(TruncatedSeries(THETA_VARS, degree, {
        (1, 1, 1): ExactComplex(2), (2, 2, 1): ExactComplex(-1),
        (1, 1, 2): ExactComplex(1), (2, 1, 2): i, (1, 2, 2): i * (-1)}))
    return M, Mhat


def random_components(rng, n, degree):
    """Arbitrary f_j, g_j (j <= n) with f_0(0) = 0, except that, as in a map,
    f_0 has a linear term and g_0 a constant one: without them most of the
    tau-dependence of the identity lies above the certified degree."""
    f = [random_series(rng, ("z",), degree, 3, min_order=1, allow_zero=False)]
    g = [random_series(rng, ("z",), degree, 3)]
    for _ in range(n):
        f.append(random_series(rng, ("z",), degree, 3))
        g.append(random_series(rng, ("z",), degree, 3))
    f[0] = f[0] + TruncatedSeries.var("z", ("z",), degree)
    g[0] = g[0] + 1
    assert not f[0].coeff((1,)).is_zero() and not g[0].coeff((0,)).is_zero()
    return f, g


def assemble_order_n(M, Mhat, f, g, n):
    """n! [tau^n] T and the identity's right side, both as (z,chi) series."""
    deg = M.Q.degree
    V3 = ("z", "chi", "tau")
    z = TruncatedSeries.var("z", V3, deg)
    chi = TruncatedSeries.var("chi", V3, deg)
    tau = TruncatedSeries.var("tau", V3, deg)
    S = M.S
    tauS = tau * S
    fbar = [s.conjugate(rename={"z": "chi"}) for s in f]
    gbar = [s.conjugate(rename={"z": "chi"}) for s in g]

    def series_at(parts, arg):
        acc = None
        pw = TruncatedSeries.const(V3, deg, 1)
        for j, part in enumerate(parts):
            v0 = part.variables[0]
            term = compose(part, {v0: z if v0 == "z" else chi})
            term = term * pw * Fraction(1, factorial(j))
            acc = term if acc is None else acc + term
            pw = pw * arg
        return acc

    f_at = series_at(f, tauS)
    g_at = series_at(g, tauS)
    fbar_at = series_at(fbar, tau)
    gbar_at = series_at(gbar, tau)
    shat_full = compose(Mhat.S.truncate(deg),
                        {"z": f_at, "chi": fbar_at, "tau": tau * gbar_at})
    T = S * g_at - gbar_at * shat_full
    lhs = T.slice("tau", n) * factorial(n)

    shat = shat_jet_table(Mhat, f[0], n)
    s_slices = [M.S.slice("tau", j) for j in range(n + 1)]
    Pn = universal_pn(n, f[:n], g[:n], s_slices, shat)
    S0 = M.S.slice("tau", 0)
    gbar0 = gbar[0].embed(ZC)
    rhs = ((S0 ** (n + 1)) * g[n].embed(ZC)
           - shat[(0, 0, 0)] * gbar[n].embed(ZC)
           - gbar0 * shat[(1, 0, 0)] * (S0 ** n) * f[n].embed(ZC)
           - gbar0 * shat[(0, 1, 0)] * fbar[n].embed(ZC)
           + Pn)
    return lhs, rhs


class TestUniversalPn:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_brute_force_identity(self, n):
        M, Mhat = tau_dependent_pair()
        rng = random.Random(1000 + n)
        for _ in range(2):
            f, g = random_components(rng, n, M.Q.degree)
            lhs, rhs = assemble_order_n(M, Mhat, f, g, n)
            diff = lhs - rhs.truncate(lhs.degree)
            assert diff.is_zero(), f"order-{n} identity fails: {diff.min_term()}"

    def test_tau_dependence_is_exercised(self):
        # guard against a vacuous oracle: the S jets above order 0 must not vanish
        M, _ = tau_dependent_pair()
        assert not M.s_tau_jet(1).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_degenerate_closed_form(self, n):
        # components (f0, g0 const, 0, ...): P_n = g0 S_n - gbar0^(n+1) Shat_n
        M, Mhat = tau_dependent_pair()
        rng = random.Random(77)
        f0 = random_series(rng, ("z",), M.Q.degree, 3, min_order=1,
                           allow_zero=False)
        g0c = rand_complex(rng)
        zero = TruncatedSeries(("z",), M.Q.degree, {})
        f = [f0] + [zero] * n
        g = [TruncatedSeries.const(("z",), M.Q.degree, g0c)] + [zero] * n
        shat = shat_jet_table(Mhat, f0, n)
        s_jets = [M.s_tau_jet(j) for j in range(n + 1)]
        Pn = universal_pn(n, f[:n], g[:n], [M.S.slice("tau", j) for j in range(n + 1)], shat)
        gbar0 = g0c.conj()
        gpow = ExactComplex(1)
        for _ in range(n + 1):
            gpow = gpow * gbar0
        closed = s_jets[n] * g0c - shat[(0, 0, n)] * gpow
        assert (Pn - closed.truncate(Pn.degree)).is_zero()


def pn_both_ways(M, Mhat, f, g, n):
    """P_n from the library and from the partition-sum oracle, which takes
    the conjugates of f and g as inputs."""
    fbar = [s.conjugate(rename={"z": "chi"}) for s in f[:n]]
    gbar = [s.conjugate(rename={"z": "chi"}) for s in g[:n]]
    shat = shat_jet_table(Mhat, f[0], n)
    s_jets = [M.s_tau_jet(j) for j in range(n + 1)]
    return (universal_pn(n, f[:n], g[:n], [M.S.slice("tau", j) for j in range(n + 1)], shat),
            partition_pn(n, PnData(f[:n], g[:n], fbar, gbar, s_jets, shat)))


def assert_identical(a, b):
    assert a.variables == b.variables
    assert a.degree == b.degree
    assert a.coeffs == b.coeffs
    assert ({e: type(c) for e, c in a.coeffs.items()}
            == {e: type(c) for e, c in b.coeffs.items()})


class TestPartitionSumOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_components(self, n):
        M, Mhat = tau_dependent_pair(14)
        f, g = random_components(random.Random(2000 + n), n, M.Q.degree)
        assert_identical(*pn_both_ways(M, Mhat, f, g, n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_b0_automorphism(self, n):
        # (i z, -w) maps family_b0 to itself and its components above order
        # 0 vanish, so every P_n vanishes too, to its certified degree
        B = family_b0(14)
        zero = TruncatedSeries(("z",), 14, {})
        f = [TruncatedSeries(("z",), 14, {(1,): EC_I})] + [zero] * n
        g = [TruncatedSeries.const(("z",), 14, -1)] + [zero] * n
        new, old = pn_both_ways(B, B, f, g, n)
        assert new.is_zero()
        assert_identical(new, old)
