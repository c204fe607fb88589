import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crjet import io as cio, upsilon
from crjet.hypersurface import (THETA_VARS, Hypersurface, InvariantTuple, family_b0,
                                family_mc, family_nb, validate)
from crjet.scalars import EC_I, ExactComplex, NPoly, factorial, integer_roots
from crjet.series import TruncatedSeries
from crjet.upsilon import (SYMBOLIC, UpsilonError, _mirror, build_upsilon,
                           compute_D, dim_Vn, gamma_threshold, pn_series,
                           xi_determinants)

import upsilon_oracle
from upsilon_oracle import xi_rows
from conftest import (assert_same_series, falling_binomial, random_hypersurface,
                      rising_binomial)


def leading(p: NPoly):
    return p.leading(), p.degree()


class TestStructuralIdentities:
    def test_second_component_vanishes_at_n0(self):
        # the weight-0 member of the second family is identically zero
        rng = random.Random(31)
        for M in (family_mc(1, 1, 12), family_nb(ExactComplex(2), 2, 12),
                  family_b0(12), random_hypersurface(rng, degree=9)):
            U = build_upsilon(M, 0)
            assert U.components[1].is_zero()

    def test_b0_weight1_fourth_component_vanishes(self):
        U = build_upsilon(family_b0(14), 1)
        assert U.components[3].is_zero()

    def test_b0_weight2_relation(self):
        # 2i * first component == second component at weight 2
        U = build_upsilon(family_b0(14), 2)
        lhs = U.components[0] * (EC_I * 2)
        assert (lhs - U.components[1]).is_zero()


hypersurfaces = st.randoms(use_true_random=False).map(random_hypersurface)
# theta = z^4 chi + z chi^4 + z^2 chi^2: L = 1, K = 4, T = 0
L1_K4_T0 = validate(TruncatedSeries(THETA_VARS, 12, {
    (4, 1, 1): ExactComplex(1), (1, 4, 1): ExactComplex(1),
    (2, 2, 1): ExactComplex(1)}))


class TestMirroredConstruction:
    """The chi side got by mirroring equals the chi side built directly."""

    @settings(max_examples=30, deadline=None)
    @given(hypersurfaces)
    @example(family_b0(12))                              # K = 1, so L = T = 1
    @example(family_mc(1, 2, 14))                        # L = K = 2
    @example(family_nb(ExactComplex(1, 2), 2, 12))      # K = 2, T = 1
    @example(L1_K4_T0)                                   # L = 1, K = 4, T = 0
    def test_matches_direct_construction(self, M):
        for mode in (SYMBOLIC, 0, 1, 3):
            got = build_upsilon(M, mode).components
            want = upsilon_oracle.build_upsilon(M, mode).components
            for a, b in zip(got, want, strict=True):
                assert_same_series(a, b)

    @settings(max_examples=30, deadline=None)
    @given(hypersurfaces)
    def test_mirror_is_an_involution_fixing_theta(self, M):
        assert_same_series(_mirror(M.theta), M.theta)
        for c in build_upsilon(M, SYMBOLIC).components:
            assert_same_series(_mirror(_mirror(c)), c)


class TestSymbolicNumericConsistency:
    @pytest.mark.parametrize("make", [
        lambda: family_mc(1, 1, 10),
        lambda: family_mc(Fraction(2, 3), 2, 12),
        lambda: family_nb(ExactComplex(1, 1), 2, 12),
        lambda: family_b0(10),
    ])
    def test_eval_matches_fixed_n(self, make):
        M = make()
        sym = build_upsilon(M, SYMBOLIC)
        for n0 in range(7):
            fixed = upsilon_oracle.build_upsilon(M, n0)
            at_n0 = sym.eval_n(n0)
            for a, b in zip(at_n0.components, fixed.components):
                assert (a - b.truncate(a.degree)).is_zero()


def pn_by_binomials(theta):
    """((1 + i theta)/(1 - i theta))^n as the product of the binomial series
    of (1 + i theta)^n and (1 - i theta)^(-n), coefficients NPoly in n."""
    it = theta * EC_I
    one = TruncatedSeries.const(theta.variables, theta.degree, 1)
    rising = one * NPoly.const(1)
    falling = rising
    power = one
    for k in range(1, theta.degree // theta.order() + 1):
        power = power * it
        falling = falling + power * falling_binomial(k)
        rising = rising + power * rising_binomial(k)
    return falling * rising


class TestSymbolicPn:
    def test_recurrence_matches_binomial_convolution(self):
        # theta = -i z makes x = i theta = z, so P = sum_k g_k(n) z^k
        deg = 12
        theta = TruncatedSeries(("z",), deg, {(1,): -EC_I})
        P = pn_series(theta)
        for k in range(deg + 1):
            via = NPoly()
            for j in range(k + 1):
                via = via + falling_binomial(j) * rising_binomial(k - j)
            assert isinstance(P.coeff((k,)), NPoly)
            assert P.coeff((k,)) == via, k

    @pytest.mark.parametrize("make", [
        lambda: family_b0(14),
        lambda: family_mc(Fraction(2, 3), 1, 12),
        lambda: family_mc(1, 2, 19),
        lambda: family_nb(ExactComplex(1, 2), 2, 15),
    ])
    def test_matches_binomial_product(self, make):
        theta = make().theta
        assert_same_series(pn_series(theta), pn_by_binomials(theta))


class TestRankScan:
    """The rank scan of compute_D is the scan of the directly built fixed-n family."""

    def test_matches_fixed_n_family(self):
        rng = random.Random(47)
        inputs = [family_b0(14), family_mc(1, 1, 14), family_mc(3, 2, 19),
                  family_nb(ExactComplex(1, 2), 2, 15)]
        inputs += [random_hypersurface(rng, degree=14, max_e=2) for _ in range(6)]
        for M in inputs:
            inv = M.invariants
            bound = 3 * inv.K + 3 * inv.L + 2
            dims = compute_D(M, scan_bound=bound).vn_dims
            for n0 in sorted(set(range(7)) | set(dims)):
                want = dim_Vn(upsilon_oracle.build_upsilon(M, n0), bound)
                assert dim_Vn(build_upsilon(M, n0), bound) == want, n0
                if n0 in dims:
                    assert dims[n0] == want[0], n0

    def test_scans_only_a_fixed_n_family(self):
        with pytest.raises(UpsilonError):
            dim_Vn(build_upsilon(family_b0(12), SYMBOLIC), 8)

    def test_negative_n_is_refused(self):
        with pytest.raises(UpsilonError, match="nonnegative"):
            build_upsilon(family_b0(12), -1)


GOLDEN = Path(__file__).parent / "data" / "golden"

ORACLE_INPUTS = {
    "mc1": lambda: family_mc(1, 1, 14),
    "mc2": lambda: family_mc(1, 2, 19),
    "nb1": lambda: family_nb(ExactComplex(1), 1, 14),
    "nb2": lambda: family_nb(ExactComplex(1, 2), 2, 15),
    "b0": lambda: family_b0(14),
    "excluded": lambda: cio.parse_hypersurface(
        json.loads((GOLDEN / "excluded.json").read_text(encoding="utf-8"))),
}


class TestAgainstExactOracle:
    """The determinants and the rank scan over the Gaussian integers give
    what the oracle's NPoly expansion and ExactComplex scan give."""

    def check(self, U):
        dets = xi_determinants(U)
        want = upsilon_oracle.xi_determinants(U)
        for j in (2, 3, 4):
            assert dets[j].coefficients == want[j].coefficients, j
        # every candidate of compute_D, and values that scan until rank 4
        det_gamma = dets[gamma_threshold(U.L, U.K, U.T)]
        n0s = {0, 1, 3, 5}
        if not det_gamma.is_zero():
            n0s |= integer_roots(det_gamma)
        bound = 3 * U.K + 3 * U.L + 2
        for n0 in sorted(n0s):
            fixed = U.eval_n(n0)
            assert dim_Vn(fixed, bound) == upsilon_oracle.dim_Vn(fixed, bound), n0

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_named_inputs(self, name):
        self.check(build_upsilon(ORACLE_INPUTS[name](), SYMBOLIC))

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False).map(
        lambda r: random_hypersurface(r, degree=14, max_e=2)))
    def test_random_inputs(self, M):
        U = build_upsilon(M, SYMBOLIC)
        assume(3 * (U.K + U.L) <= U.degree)       # the xi rows are certified
        self.check(U)


def counter(monkeypatch, cls, names, counts=lambda *args: True):
    """Wrap the methods ``names`` of ``cls``; returns the list of the
    argument tuples of the calls that ``counts`` accepts."""
    calls = []
    for name in names:
        original = getattr(cls, name)

        def wrapped(*args, original=original):
            if counts(*args):
                calls.append(args)
            return original(*args)

        monkeypatch.setattr(cls, name, wrapped)
    return calls


def has_npoly(x):
    if isinstance(x, TruncatedSeries):
        return any(type(c) is NPoly for c in x.coeffs.values())
    return isinstance(x, NPoly)


class TestWorkOnIntegerRows:
    """compute_D's heavy stages run on integer rows: the rank scan and the
    determinants read no coefficient object, the determinants multiply no
    NPoly, and P^n takes no series product with an NPoly operand."""

    def test_dim_vn_reads_no_coefficient(self, monkeypatch):
        U = build_upsilon(family_b0(14), SYMBOLIC)
        fixed = [U.eval_n(n0) for n0 in (0, 1, 2, 3)]
        calls = counter(monkeypatch, TruncatedSeries, ("coeff",))
        assert [dim_Vn(F, 8)[0] for F in fixed] == [2, 2, 3, 4]
        assert calls == []

    def test_xi_determinants_read_no_coefficient(self, monkeypatch):
        for M in (family_b0(14), family_nb(ExactComplex(1, 2), 2, 15)):
            U = build_upsilon(M, SYMBOLIC)
            calls = counter(monkeypatch, TruncatedSeries, ("coeff",))
            xi_determinants(U)
            assert calls == []

    def test_xi_determinants_multiply_no_npoly(self, monkeypatch):
        for M in (family_b0(14), family_nb(ExactComplex(1, 2), 2, 15)):
            U = build_upsilon(M, SYMBOLIC)
            calls = counter(monkeypatch, NPoly, ("__mul__", "__rmul__"))
            xi_determinants(U)
            assert calls == []

    def test_pn_series_takes_no_npoly_product(self, monkeypatch):
        calls = counter(monkeypatch, TruncatedSeries, ("__mul__", "__rmul__"),
                        lambda a, b: has_npoly(a) or has_npoly(b))
        for M in (family_b0(14), family_mc(1, 2, 19)):
            assert any(type(c) is NPoly for c in pn_series(M.theta).coeffs.values())
        assert calls == []


class TestXiDeterminants:
    def test_b0_exact_polynomials(self):
        U = build_upsilon(family_b0(14), SYMBOLIC)
        dets = xi_determinants(U)
        assert dets[2] == NPoly([0, 0, 768, 0, -192])
        assert dets[3] == NPoly([0, 0, 18432, 0, -23040, 0, 4608])
        assert dets[4] == NPoly([0, 0, -442368, 0, 995328, 0, -663552, 0, 110592])

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        n = sympy.Symbol("n")

        def expr(c):
            c = NPoly.coerce(c)
            return sum((sympy.Rational(x.re.numerator, x.re.denominator)
                        + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)) * n ** k
                       for k, x in enumerate(c.coefficients))

        rng = random.Random(53)
        inputs = [family_b0(14), family_mc(1, 2, 19),
                  family_nb(ExactComplex(1, 2), 2, 15)]
        while len(inputs) < 13:
            M = random_hypersurface(rng, degree=14, max_e=2)
            U = build_upsilon(M, SYMBOLIC)
            if 3 * (U.K + U.L) <= U.degree:
                inputs.append(M)
        for M in inputs:
            U = build_upsilon(M, SYMBOLIC)
            xi = sympy.Matrix([[expr(c) for c in row] for row in xi_rows(U)])
            dets = xi_determinants(U)
            for j in (2, 3, 4):
                want = sympy.expand(xi[:j, :j].det(method="berkowitz"))
                assert sympy.expand(expr(dets[j]) - want) == 0, j

    def test_degree_bounds(self):
        for M in (family_b0(14), family_mc(1, 1, 12),
                  family_nb(ExactComplex(3), 2, 14)):
            dets = xi_determinants(build_upsilon(M, SYMBOLIC))
            assert dets[4].degree() <= 8
            assert dets[3].degree() <= 6
            assert dets[2].degree() <= 4

    def test_case1_leading_coefficient(self):
        # K = L = 1, alpha = 1: det of the 4x4 block has leading term 110592 n^8
        dets = xi_determinants(build_upsilon(family_b0(14), SYMBOLIC))
        lead, deg = leading(dets[4])
        assert (lead, deg) == (ExactComplex(110592), 8)

    def test_case2_leading_coefficient(self):
        # L = 1 < K: 64 K (2K)! ((3K)!)^2 / (K!)^8 * alpha^8 n^6, here K = 2, alpha real
        b = Fraction(3, 2)
        dets = xi_determinants(build_upsilon(family_nb(ExactComplex(b), 2, 16),
                                             SYMBOLIC))
        K = 2
        alpha = b * factorial(K)  # theta_1 = b z^2 => theta_1^(2)(0) = 2b
        expected = Fraction(64 * K * factorial(2 * K) * factorial(3 * K) ** 2,
                            factorial(K) ** 8) * alpha ** 8
        lead, deg = leading(dets[3])
        assert (lead, deg) == (ExactComplex(expected), 6)

    def test_case3_leading_coefficient(self):
        # 1 < L <= K: -(4/3) K (2L)!(3L)!(2K)!(3K)!/(L! K!)^5 * alpha^5 n^4
        c = Fraction(2)
        K = L = 2
        dets = xi_determinants(build_upsilon(family_mc(c, 2, 18), SYMBOLIC))
        alpha = c * factorial(L) * factorial(K)  # theta_L^(K)(0) for theta = c z^2 chi^2
        expected = (Fraction(-4, 3) * K * factorial(2 * L) * factorial(3 * L)
                    * factorial(2 * K) * factorial(3 * K)
                    / (factorial(L) * factorial(K)) ** 5 * alpha ** 5)
        lead, deg = leading(dets[2])
        assert (lead, deg) == (ExactComplex(expected), 4)


class TestExceptionalSet:
    def test_families_have_trivial_D(self):
        for M, gamma in ((family_mc(1, 1, 12), 4), (family_mc(1, 2, 18), 2),
                         (family_nb(ExactComplex(1), 2, 14), 3)):
            analysis = compute_D(M)
            assert analysis.D == [0]
            assert analysis.k == 1
            assert analysis.gamma == gamma

    def test_b0_exceptional_set(self):
        analysis = compute_D(family_b0(14))
        assert analysis.D == [0, 1, 2]
        assert analysis.k == 4
        assert analysis.gamma == 4
        assert analysis.scan_bound >= 8
        assert analysis.vn_dims == {0: 2, 1: 2, 2: 3}

    @pytest.mark.parametrize("degree", [11, 14, 20])
    def test_root_excluded_by_rank_certificate(self, degree):
        # Theta = s (z chi - i z^2 chi^3 + i z^3 chi^2): det_4 vanishes at
        # n = 1, but the jets at n = 1 span C^4, so 1 is not in D
        Theta = TruncatedSeries(THETA_VARS, degree, {(1, 1, 1): ExactComplex(1),
                                                     (2, 3, 1): -EC_I,
                                                     (3, 2, 1): EC_I})
        analysis = compute_D(validate(Theta))
        assert analysis.xi_dets[4](1).is_zero()
        assert analysis.D == [0]
        assert analysis.k == 1
        assert analysis.vn_dims == {0: 3, 1: 4}
        assert analysis.certificates[1] == {
            "status": "excluded, rank certificate", "rank": 4,
            "pivots": [[2, 2], [2, 3], [3, 2], [2, 5]]}

    def test_bounds_on_randomized_inputs(self, rng):
        for _ in range(20):
            M = random_hypersurface(rng, degree=18, max_e=2)
            analysis = compute_D(M)
            gamma = gamma_threshold(M.invariants.L, M.invariants.K,
                                    M.invariants.T)
            assert 0 in analysis.D
            assert len(analysis.D) <= 2 * gamma

    def test_dilation_invariance_of_dims(self):
        # z -> 2z sends the j=1 diagonal family with c to the one with 4c;
        # the jet-space dimensions must agree for n <= 6
        M = family_mc(1, 1, 14)
        Ms = family_mc(4, 1, 14)
        for n0 in range(7):
            U = build_upsilon(M, n0)
            Us = build_upsilon(Ms, n0)
            assert dim_Vn(U, 8)[0] == dim_Vn(Us, 8)[0]


class TestQuotientsByThetaLPrime:
    def test_theta_L_unit_is_inverted_once_per_build(self, monkeypatch):
        M = family_b0(14)
        calls = []
        original = upsilon.inverse_unit

        def counted(a):
            calls.append(a)
            return original(a)

        # every quotient by theta_L' = z^(K-1) * unit shares one inverse
        monkeypatch.setattr(upsilon, "inverse_unit", counted)
        build_upsilon(M, SYMBOLIC)
        assert len(calls) == 1

    def test_non_series_quotient_is_refused(self):
        # theta = z^3 chi + z chi^2: L = 1, K = 3, and T = 1 is declared, so
        # theta_2 = 2z, of z-order 1 < K - 1, is divided by theta_1' = 3z^2;
        # build_upsilon reads only theta and the invariants
        theta = TruncatedSeries(("z", "chi"), 10, {(3, 1): ExactComplex(1),
                                                   (1, 2): ExactComplex(1)})
        M = Hypersurface(None, theta, InvariantTuple(1, 2, 1, 3, 1, 10))
        with pytest.raises(UpsilonError, match="non-series quotient"):
            build_upsilon(M, SYMBOLIC)


class TestGammaThreshold:
    @pytest.mark.parametrize("L,K,T,expected", [
        (1, 1, 1, 4), (1, 1, 0, 3), (1, 2, 1, 3), (1, 2, 0, 2),
        (2, 2, 1, 2), (2, 3, 0, 2), (3, 3, 1, 2),
    ])
    def test_values(self, L, K, T, expected):
        assert gamma_threshold(L, K, T) == expected
