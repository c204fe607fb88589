import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crjet import hypersurface
from crjet import io as cio
from crjet import series
from crjet.cli import EXIT_INVALID, EXIT_OK, main
from crjet.hypersurface import (THETA_VARS, ValidationError, family_b0,
                                family_mc, family_nb, validate)
from crjet.scalars import EC_I, ExactComplex, NPoly, factorial
from crjet.series import TruncatedSeries, compose, implicit_solve
from crjet.upsilon import compute_D

from conftest import assert_same_series, rand_complex, random_hypersurface
from scan_oracle import invariants_by_support_scan
from solver_oracle import staged_graph_function

ZC = ("z", "chi")
GOLDEN = Path(__file__).parent / "data" / "golden"


def theta_input(coeffs, degree=10):
    return TruncatedSeries(THETA_VARS, degree, coeffs)


class TestValidation:
    def test_flat_rejected(self):
        with pytest.raises(ValidationError, match="flat"):
            validate(theta_input({}))

    def test_finite_type_rejected(self):
        with pytest.raises(ValidationError, match="finite type"):
            validate(theta_input({(1, 1, 0): ExactComplex(1)}))

    def test_normality_rejected_with_location(self):
        with pytest.raises(ValidationError, match="normality"):
            validate(theta_input({(1, 0, 1): ExactComplex(1),
                                  (1, 1, 1): ExactComplex(1)}))

    def test_reality_rejected_with_location(self):
        with pytest.raises(ValidationError, match="reality"):
            validate(theta_input({(1, 2, 1): ExactComplex(1),
                                  (2, 1, 1): ExactComplex(2),
                                  (1, 1, 1): ExactComplex(1)}))

    def test_diagonal_terms_must_be_real(self):
        with pytest.raises(ValidationError, match="reality"):
            validate(theta_input({(1, 1, 1): EC_I}))

    def test_valid_theta_builds_no_coefficient(self, monkeypatch):
        mixed = cio.parse_hypersurface(
            json.loads((GOLDEN / "mixed.json").read_text(encoding="utf-8")))
        # a product keeps its summed rows as lists, not tuples
        z, chi, s = (TruncatedSeries.var(v, THETA_VARS, 10) for v in THETA_VARS)
        product = z * chi * s * (z * chi + (z - chi) * EC_I + 3)
        inputs = [family_b0(14).Theta, mixed.Theta, product]
        calls = []
        original = series.from_numerators

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(series, "from_numerators", counted)
        for Theta in inputs:
            assert validate(Theta).invariants.m == 1
        assert calls == []

    def test_normality_reported_before_an_earlier_reality_violation(self):
        # the non-real pair comes first in row order; normality is checked
        # over every row before reality
        with pytest.raises(ValidationError) as exc:
            validate(theta_input({(1, 2, 1): ExactComplex(1),
                                  (2, 1, 1): ExactComplex(2),
                                  (1, 0, 1): ExactComplex(Fraction(1, 2), -3)}))
        assert str(exc.value) == (
            "normality violation: term {'z': 1, 'chi': 0, 's': 1} has coefficient "
            "(1/2 + -3*i), but Theta(z,0,s) = Theta(0,chi,s) = 0 is required")

    def test_reality_violation_names_a_missing_mirror(self):
        with pytest.raises(ValidationError) as exc:
            validate(theta_input({(1, 1, 1): ExactComplex(Fraction(1, 2)),
                                  (1, 2, 1): ExactComplex(Fraction(1, 3), 2)}))
        assert str(exc.value) == (
            "reality violation at exponents (z^1 chi^2 s^1) vs (z^2 chi^1 s^1): "
            "(1/3 + 2*i) != conj(0)")

    def test_reality_violation_in_a_power_of_n_names_the_first_term(self):
        # (1, 2, 1) matches its mirror's n^0 row and has no n^1 row
        with pytest.raises(ValidationError) as exc:
            validate(theta_input({(1, 2, 1): NPoly([1]), (1, 1, 1): ExactComplex(1),
                                  (2, 1, 1): NPoly([1, 1])}))
        assert str(exc.value) == (
            "reality violation at exponents (z^1 chi^2 s^1) vs (z^2 chi^1 s^1): "
            "1 != conj(1 + 1*n)")

    def test_higher_m_reported_not_analyzed(self):
        M = validate(theta_input({(1, 1, 2): ExactComplex(1)}))
        assert M.invariants.m == 2
        assert M.invariants.L is None


class TestFamilies:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_mc_invariants(self, j):
        M = family_mc(1, j, degree=4 * j + 6)
        inv = M.invariants
        assert (inv.m, inv.r, inv.L, inv.K, inv.T) == (1, 2 * j, j, j, 1)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_nb_invariants(self, j):
        M = family_nb(ExactComplex(1, 1), j, degree=4 * j + 6)
        inv = M.invariants
        assert (inv.m, inv.L, inv.K) == (1, 1, j)

    def test_b0_invariants(self):
        M = family_b0(degree=12)
        inv = M.invariants
        assert (inv.m, inv.r, inv.L, inv.K, inv.T) == (1, 2, 1, 1, 1)

    def test_b0_theta_is_catalan(self):
        M = family_b0(degree=20)
        # theta = u + u^3 + 2 u^5 + 5 u^7 + ..., u = z chi (Catalan numbers)
        for k, cat in enumerate([1, 1, 2, 5, 14]):
            e = 2 * k + 1
            assert M.theta.coeff((e, e)) == ExactComplex(cat)
        assert M.theta.coeff((2, 2)).is_zero()

    def test_b0_theta_functional_equation(self):
        # theta satisfies theta = u (1 + theta^2) with u = z chi
        M = family_b0(degree=14)
        th = M.theta
        u = TruncatedSeries(ZC, th.degree, {(1, 1): ExactComplex(1)})
        one = TruncatedSeries.const(ZC, th.degree, 1)
        assert (th - u * (one + th * th)).is_zero()


class TestGraphSeries:
    def test_q_solves_defining_equation(self):
        # (Q - tau)/2i = Theta(z, chi, (Q + tau)/2) exactly
        M = random_hypersurface(random.Random(5), degree=9)
        V3 = ("z", "chi", "tau")
        z = TruncatedSeries.var("z", V3, M.Q.degree)
        chi = TruncatedSeries.var("chi", V3, M.Q.degree)
        tau = TruncatedSeries.var("tau", V3, M.Q.degree)
        half = Fraction(1, 2)
        lhs = (M.Q - tau) * (EC_I.inverse() * half)
        rhs = compose(M.Theta, {"z": z, "chi": chi, "s": (M.Q + tau) * half})
        assert (lhs - rhs.truncate(lhs.degree)).is_zero()

    def test_s_slices(self):
        rng = random.Random(11)
        for _ in range(5):
            M = random_hypersurface(rng, degree=9)
            L = M.invariants.L
            s0 = M.S.slice("tau", 0)
            # chi^0 slice of S(z,chi,0) is 1; slices between 1 and L-1 vanish
            for exps, c in s0.coeffs.items():
                cidx = s0.variables.index("chi")
                zidx = s0.variables.index("z")
                if exps[cidx] == 0:
                    assert exps[zidx] == 0 and c == ExactComplex(1)
                elif exps[cidx] < L:
                    raise AssertionError(f"unexpected low chi-order term {exps}")
            # chi^L slice is 2i theta_L(z), up to L!
            sliceL = {e[zidx]: c * factorial(L) for e, c in s0.coeffs.items()
                      if e[cidx] == L}
            target = M.theta_j(L) * (EC_I * 2)
            for (k,), c in target.coeffs.items():
                if k + L <= s0.degree:
                    assert sliceL.get(k, ExactComplex(0)) == c

    def test_m_cross_check_randomized(self, rng):
        # reading Q raises if the two characterizations of m disagree
        for _ in range(20):
            M = random_hypersurface(rng, degree=8)
            M.Q
            assert M.invariants.m == 1

    def test_tau_slice(self):
        s = TruncatedSeries(("z", "tau"), 6, {(1, 2): ExactComplex(5)})
        sl = s.slice("tau", 2)
        assert sl.coeff((1,)) == ExactComplex(5)
        assert s.slice("tau", 1).is_zero()


@pytest.fixture
def solves(monkeypatch):
    """The calls that deriving Q makes to implicit_solve."""
    calls = []
    original = hypersurface.implicit_solve

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hypersurface, "implicit_solve", counted)
    return calls


class TestDerivedOnFirstRead:
    """validate and compute_D never solve for Q; the first read of Q or S
    solves once and cross-checks before returning either."""

    def test_compute_d_makes_no_solve(self, solves):
        random_input = random_hypersurface(random.Random(5), degree=10)
        for M in (family_b0(14),
                  cio.parse_hypersurface(cio.hypersurface_dict(random_input))):
            compute_D(M)
        assert solves == []

    def test_first_read_solves_once(self, solves):
        M = family_b0(14)
        assert solves == []
        S = M.S
        assert len(solves) == 1
        assert M.Q is M.Q and M.S is S
        assert len(solves) == 1

    def test_cli_validate_solves_and_dset_does_not(self, solves):
        assert main(["dset", "--family", "b0"]) == EXIT_OK
        assert solves == []
        assert main(["validate", "--family", "b0"]) == EXIT_OK
        assert len(solves) == 1

    def test_cross_check_runs_on_first_read(self, monkeypatch, capsys):
        message = "S(z,chi,0) does not match (1+i theta)/(1-i theta)"

        def refuse(*args):
            raise ValidationError(message)

        monkeypatch.setattr(hypersurface, "_cross_check", refuse)
        M = family_mc(1, 1, 14)
        with pytest.raises(ValidationError) as exc:
            M.S
        assert str(exc.value) == message
        assert main(["validate", "--family", "mc"]) == EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["error"] == message
        assert main(["dset", "--family", "mc"]) == EXIT_OK


def q_by_implicit_solve(Theta):
    """Q as the root w of rho(w, z, chi, tau) = (w - tau)/2i - Theta(z, chi, (w + tau)/2)."""
    WV = ("w", "z", "chi", "tau")
    w, z, chi, tau = (TruncatedSeries.var(v, WV, Theta.degree) for v in WV)
    half = Fraction(1, 2)
    rho = (w - tau) * (EC_I.inverse() * half) - compose(
        Theta, {"z": z, "chi": chi, "s": (w + tau) * half})
    return implicit_solve(rho, "w").embed(("z", "chi", "tau"))


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def normal_real_thetas(draw):
    """A normal, real Theta of degree 3..14 and type m = 1 or 2, whose
    lowest s-order term is z chi s^m."""
    D = draw(st.integers(3, 14))
    m = draw(st.sampled_from((1, 2))) if D > 3 else 1
    coeffs = {(1, 1, m): ExactComplex(draw(fracs.filter(bool)))}
    exps = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(m, 5))
    for a, b, c in draw(st.lists(exps, max_size=5)):
        if a + b + c > D or (a, b, c) in coeffs:
            continue
        v = ExactComplex(draw(fracs), draw(fracs) if a != b else 0)
        coeffs[(a, b, c)] = v
        coeffs[(b, a, c)] = v.conj()
    return TruncatedSeries(THETA_VARS, D, coeffs)


GRAPH_EXAMPLES = [
    theta_input({(1, 1, 1): ExactComplex(1)}, degree=3),
    theta_input({(1, 1, 1): ExactComplex(2), (1, 2, 1): EC_I, (2, 1, 1): -EC_I}, degree=4),
    theta_input({(1, 1, 1): ExactComplex(1), (2, 3, 2): ExactComplex(1, 1),
                 (3, 2, 2): ExactComplex(1, -1)}, degree=13),
    theta_input({(1, 1, 2): ExactComplex(-3), (2, 2, 3): ExactComplex(1)}, degree=14),
]


def graph_cases(test):
    """Run ``test`` on the GRAPH_EXAMPLES and 60 drawn normal real Thetas."""
    for Theta in reversed(GRAPH_EXAMPLES):
        test = example(Theta)(test)
    return settings(max_examples=60, deadline=None)(given(normal_real_thetas())(test))


class TestGraphFunction:
    """validate's Q, the Newton root in s = (w + tau)/2, is the root in w of
    rho and the staged fixed point it replaced."""

    @graph_cases
    def test_matches_implicit_solve(self, Theta):
        Q = validate(Theta).Q
        assert Q.degree == Theta.degree
        assert_same_series(Q, q_by_implicit_solve(Theta))

    @graph_cases
    def test_matches_staged_fixed_point(self, Theta):
        assert_same_series(validate(Theta).Q, staged_graph_function(Theta))


class TestInvariantEdgeCases:
    def test_K1_forces_L1_T1(self):
        rng = random.Random(23)
        for _ in range(10):
            M = random_hypersurface(rng, degree=8)
            inv = M.invariants
            assert inv.K >= inv.L >= 1
            if inv.K == 1:
                assert inv.L == 1 and inv.T == 1

    def test_T_detects_low_order_term(self):
        M = validate(theta_input({(2, 2, 1): ExactComplex(1)}))
        assert (M.invariants.L, M.invariants.K, M.invariants.T) == (2, 2, 1)
        # theta = z^4 chi + z chi^4 + z^2 chi^2: L = 1, K = 4; theta_2 = 2z^2
        # has z-order 2 < K - 1 = 3 -> T = 0
        M2 = validate(theta_input({(4, 1, 1): ExactComplex(1),
                                   (1, 4, 1): ExactComplex(1),
                                   (2, 2, 1): ExactComplex(1)}))
        assert (M2.invariants.L, M2.invariants.K, M2.invariants.T) == (1, 4, 0)

    def test_matches_support_scan(self, rng):
        cases = [random_hypersurface(rng, degree=rng.randint(6, 12), nterms=rng.randint(1, 8),
                                     max_e=rng.randint(1, 4)) for _ in range(30)]
        for m in (2, 3):
            c = rand_complex(rng)
            cases.append(validate(theta_input({(1, 1, m): ExactComplex(1), (2, 1, m + 1): c,
                                               (1, 2, m + 1): c.conj()})))
        for M in cases:
            inv = M.invariants
            assert (inv.m, inv.r, inv.L, inv.K, inv.T) == invariants_by_support_scan(M.Theta)
        assert {M.invariants.T for M in cases} == {0, 1, None}
