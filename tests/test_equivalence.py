"""Equivalence verification, jet extraction, and reconstruction from jets."""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import crjet.equivalence as equivalence
import crjet.series as series

from crjet import (EquivalenceError, ExactComplex, FormalMap, JetData,
                   JetRealizationError, compose_maps, compute_D, extract_jet,
                   f0_from_jet, family_b0, family_mc, family_nb,
                   finite_determination_check, forced_mu_sq, reconstruct,
                   validate, verify_map)
from crjet.equivalence import shat_jet_table
from crjet.io import formal_map_dict, parse_hypersurface, parse_jet_data, series_dict
from crjet.linalg import InconsistentSystem, solve_rational
from crjet.scalars import EC_I, factorial
from crjet.series import TruncatedSeries, compose, divide, implicit_solve, kth_root_unit
from conftest import (assert_same_series, inconsistent_pair, linear_map, rand_complex,
                      random_series)
from scan_oracle import jet_by_exponent_loop
from shat_oracle import shat_table_by_entry

EPS = ExactComplex(Fraction(3, 5), Fraction(4, 5))  # a rational point on |z| = 1
GOLDEN = Path(__file__).parent / "data" / "golden"


def pushed_forward(Mhat, f0_coeffs, degree):
    """The source hypersurface with theta(z,chi) = thetahat(f0(z), conj f0(chi))."""
    V = ("z", "chi")
    fd = {(k, 0): ExactComplex.coerce(c) for k, c in f0_coeffs.items()}
    fbd = {(0, k): ExactComplex.coerce(c).conj() for k, c in f0_coeffs.items()}
    theta = compose(Mhat.theta.truncate(degree),
                    {"z": TruncatedSeries(V, degree, fd),
                     "chi": TruncatedSeries(V, degree, fbd)})
    terms = {(a, b, 1): c for (a, b), c in theta.coeffs.items()}
    return validate(TruncatedSeries(("z", "chi", "s"), degree, terms))


def pulled_back_by_shear(Mhat, a, degree):
    """The source hypersurface of H = (z + a z w, w) onto Mhat.

    H maps Im w = Theta(z, zbar, Re w) into Mhat exactly when
    Im w = Thetahat(z(1 + a w), zbar(1 + abar wbar), Re w); with w = s + i t
    this is solved for t = Theta(z, chi, s).  Thetahat is normal, so Theta is.
    """
    V = ("t", "z", "chi", "s")
    t, z, chi, s = (TruncatedSeries.var(v, V, degree) for v in V)
    a = ExactComplex.coerce(a)
    rho = t - compose(Mhat.Theta.truncate(degree),
                      {"z": z + z * (s + t * EC_I) * a,
                       "chi": chi + chi * (s - t * EC_I) * a.conj(), "s": s})
    return validate(implicit_solve(rho, "t"))


def random_map(rng, n_f, n_g):
    """A FormalMap with n_f f and n_g g components of random degrees up to 6:
    f_0 = eps z + (order >= 2), g_0 = r + (order >= 1), eps and r nonzero."""
    def part(min_order=0):
        return random_series(rng, ("z",), rng.randint(max(min_order, 1), 6),
                             rng.randint(0, 4), min_order)

    def nonzero():
        c = rand_complex(rng)
        return c if not c.is_zero() else ExactComplex(1)

    f0 = part(2)
    f0 = f0 + TruncatedSeries(("z",), f0.degree, {(1,): nonzero()})
    g0 = part(1)
    g0 = g0 + TruncatedSeries(("z",), g0.degree, {(0,): nonzero()})
    return FormalMap([f0] + [part() for _ in range(1, n_f)],
                     [g0] + [part() for _ in range(1, n_g)])


def top_degree(H):
    """The highest total degree in (z, w) at which f or G = w*g can carry a term."""
    return max([s.degree + n for n, s in enumerate(H.f_components)]
               + [s.degree + n + 1 for n, s in enumerate(H.g_components)])


class TestFormalMap:
    def test_rejects_degenerate_jets(self):
        zero = TruncatedSeries(("z",), 8, {})
        z = TruncatedSeries(("z",), 8, {(1,): ExactComplex(1)})
        one = TruncatedSeries(("z",), 8, {(0,): ExactComplex(1)})
        with pytest.raises(EquivalenceError):
            FormalMap([zero], [one])          # f_z(0,0) = 0
        with pytest.raises(EquivalenceError):
            FormalMap([z], [zero])            # g(0,0) = 0
        with pytest.raises(EquivalenceError):
            FormalMap([one], [one])           # f(0,0) != 0

    def test_jet_coefficients(self):
        H = linear_map(EPS, 2, 10)
        assert H.a(0, 1) == EPS.conj()
        assert H.b(0, 0) == ExactComplex(2)
        jet = H.jet(2)
        assert jet[("f", 1, 0)] == EPS
        assert jet[("g", 0, 1)] == ExactComplex(2)
        assert ("f", 0, 0) not in jet

    def test_jet_matches_exponent_loop(self, rng):
        for _ in range(25):
            H = random_map(rng, rng.randint(1, 4), rng.randint(1, 4))
            top = top_degree(H)
            for k in sorted({0, 1, 2, rng.randint(0, top), top, top + 3}):
                assert H.jet(k) == jet_by_exponent_loop(H, k)

    def test_large_k_jet_is_the_jet_at_the_top_degree(self):
        H = random_map(random.Random(5), 2, 2)
        start = time.perf_counter()
        jet = H.jet(10 ** 6)
        assert time.perf_counter() - start < 1.0
        assert jet == H.jet(top_degree(H))
        assert jet

    def test_equality_pads_the_shorter_lists_with_zero(self, rng):
        A = linear_map(EPS, 2, 10)
        zero = TruncatedSeries.zero(("z",), 10)
        z = TruncatedSeries.var("z", ("z",), 10)
        for longer in (FormalMap(A.f_components + [z], A.g_components + [zero]),
                       FormalMap(A.f_components + [zero], A.g_components + [z])):
            assert A != longer and longer != A
        flat = FormalMap(A.f_components + [zero], A.g_components + [zero])
        assert A == flat and flat == A
        # f and g lists of different lengths, as random_map builds them
        for _ in range(25):
            H = random_map(rng, rng.randint(1, 4), rng.randint(1, 4))
            n = rng.randint(1, 3)
            same = FormalMap(H.f_components + [zero] * n, H.g_components)
            assert H == same and same == H
            for other in (FormalMap(H.f_components + [z], H.g_components),
                          FormalMap(H.f_components, H.g_components + [zero] * n + [z])):
                assert H != other and other != H

    def test_composition_of_linear_maps(self):
        # H(z,w) = (eps z, 3w) after A(z,w) = (conj(eps) z, 2w)
        H = linear_map(EPS, 3, 10)
        A = linear_map(EPS.conj(), 2, 10)
        C = compose_maps(H, A, 10)
        assert C == linear_map(1, 6, 10)

    def test_composition_closure_on_a_hypersurface(self):
        M = family_mc(1, 1, 14)
        H = linear_map(EPS, 2, 14)
        A = linear_map(ExactComplex(0, 1), Fraction(1, 2), 14)
        assert verify_map(M, M, H).is_zero
        assert verify_map(M, M, A).is_zero
        assert verify_map(M, M, compose_maps(H, A, 14)).is_zero


class TestVerifyMap:
    def test_self_map_of_mc(self):
        M = family_mc(1, 1, 14)
        report = verify_map(M, M, linear_map(ExactComplex(0, 1), 2, 14))
        assert report.is_zero
        assert report.first_offending is None

    def test_scaling_between_mc_targets(self):
        # (z/2, w) carries M_1^1 onto M_4^1
        M1 = family_mc(1, 1, 14)
        M4 = family_mc(4, 1, 14)
        assert verify_map(M1, M4, linear_map(Fraction(1, 2), 1, 14)).is_zero

    def test_nonmap_gets_a_located_residual(self):
        M = family_mc(1, 1, 14)
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1), (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        report = verify_map(M, M, FormalMap([f0], [g0]))
        assert not report.is_zero
        exps, coeff = report.first_offending
        assert exps == (1, 2, 1)
        assert coeff == ExactComplex(0, -2)

    def test_order_truncates_the_certificate(self):
        M = family_mc(1, 1, 14)
        report = verify_map(M, M, linear_map(1, 1, 14), order=5)
        assert report.is_zero
        assert report.certified_to_degree == 5

    def test_f_and_g_share_one_substitution(self, monkeypatch):
        # w -> Q goes into f and g through one Substitution; Qhat at
        # (f, fbar, tau gbar) is the other
        M = family_mc(1, 1, 14)
        M.Q                                # derived on first read, not counted
        built = []

        class Counted(series.Substitution):
            def __init__(self, variables, args, degree):
                built.append(tuple(args))
                super().__init__(variables, args, degree)

        monkeypatch.setattr(series, "Substitution", Counted)
        monkeypatch.setattr(equivalence, "Substitution", Counted)
        assert verify_map(M, M, linear_map(ExactComplex(0, 1), 2, 14)).is_zero
        assert sorted(built) == [("w",), ("z", "chi", "tau")]


class TestJetData:
    def test_rejects_singular_or_nonreal_data(self):
        with pytest.raises(EquivalenceError):
            JetData(0, 1)
        with pytest.raises(EquivalenceError):
            JetData(1, 0)
        with pytest.raises(EquivalenceError):
            JetData(1, ExactComplex(1, 1))    # b_0^0 must be real

    @pytest.mark.parametrize("tup", [(1, 2), (), (0, 0, 0, 0, 0)])
    def test_rejects_a_lambda_that_is_not_four_values(self, tup):
        with pytest.raises(EquivalenceError, match="four values"):
            JetData(1, 1, {1: tup})

    @pytest.mark.parametrize("key", [1.5, True, "2", 2.0, -1])
    def test_rejects_an_order_that_is_not_a_nonnegative_int(self, key):
        with pytest.raises(EquivalenceError, match=f"lambda order {key!r} "):
            JetData(1, 1, {key: (0, 0, 0, 0)})

    def test_delta_and_mu(self):
        jet = JetData(EPS, 2)
        assert jet.mu_sq == Fraction(1)
        assert jet.delta == (EPS * ExactComplex(2)).inverse()

    def test_extract_jet_reads_the_map(self):
        H = linear_map(EPS, 3, 10)
        jet = extract_jet(H, [0, 1, 2])
        assert jet.a01 == EPS.conj()
        assert jet.b00 == ExactComplex(3)
        assert set(jet.lambdas) == {1, 2}
        assert all(all(c.is_zero() for c in tup) for tup in jet.lambdas.values())

    def test_extract_jet_reads_b_n_L(self):
        # g_1 = (1+i) z + (2-i) z^2: g_1'(0) = 1+i and g_1''(0) = 4-2i, so the
        # last slot is b_1^1 = 1-i for L = 1 and b_1^2 = 4+2i for L = 2
        Z = ("z",)
        f0 = TruncatedSeries(Z, 10, {(1,): ExactComplex(1)})
        f1 = TruncatedSeries(Z, 10, {(0,): ExactComplex(3), (1,): ExactComplex(0, 5)})
        g0 = TruncatedSeries(Z, 10, {(0,): ExactComplex(2)})
        g1 = TruncatedSeries(Z, 10, {(0,): ExactComplex(7),
                                     (1,): ExactComplex(1, 1), (2,): ExactComplex(2, -1)})
        H = FormalMap([f0, f1], [g0, g1])
        head = (ExactComplex(3), ExactComplex(7), ExactComplex(0, -5))
        assert extract_jet(H, [0, 1]).lambdas[1] == head + (ExactComplex(1, -1),)
        assert extract_jet(H, [0, 1], L=1).lambdas[1] == head + (ExactComplex(1, -1),)
        assert extract_jet(H, [0, 1], L=2).lambdas[1] == head + (ExactComplex(4, 2),)


def f0_over_three_variables(M, Mhat, a01):
    """f_0 as f0_from_jet built it before it solved in (zh, z): U(X, Y) from
    zh uhat(zh) = mu^2 Y u(X), then f_0(z) = U(z, z/a_0^1)."""
    a01 = ExactComplex.coerce(a01)
    mu_sq = forced_mu_sq(M, Mhat)
    L, K = M.invariants.L, M.invariants.K
    thL = M.theta_j(L)
    thLhat = Mhat.theta_j(L)
    alpha = thL.jet_coeff((K,))
    alphahat = thLhat.jet_coeff((K,))

    def unit_root(th, const):
        mono = TruncatedSeries(("z",), th.degree, {(K,): const * Fraction(1, factorial(K))})
        return kth_root_unit(divide(th, mono), K)

    u = unit_root(thL, alpha)             # theta_L = alpha z^K u(z)^K / K!
    uhat = unit_root(thLhat, alphahat).rename({"z": "zh"})

    deg = min(u.degree, uhat.degree) + 1
    VI = ("zh", "X", "Y")
    zh = TruncatedSeries.var("zh", VI, deg)
    Y = TruncatedSeries.var("Y", VI, deg)
    iota = zh * uhat.embed(VI) - Y * u.rename({"z": "X"}).embed(VI) * mu_sq
    U = implicit_solve(iota, "zh")        # U(X, Y)
    zser = TruncatedSeries.var("z", ("z",), U.degree)
    return compose(U, {"X": zser, "Y": zser * a01.inverse()})


class TestF0FromJet:
    @pytest.mark.parametrize("source, target, a01", [
        (lambda: family_mc(1, 1, 14), lambda: family_mc(4, 1, 14), Fraction(1, 2)),
        (lambda: family_mc(4, 1, 14), lambda: family_mc(1, 1, 14), 2),
        (lambda: family_mc(4, 1, 14), lambda: family_mc(1, 1, 14), EPS * 2),
        (lambda: pushed_forward(family_mc(1, 2, 16), {1: EPS, 2: 1}, 16),
         lambda: family_mc(1, 2, 16), EPS.conj()),
        (lambda: pushed_forward(family_nb(ExactComplex(1, 2), 2, 15), {1: EPS, 3: EC_I}, 15),
         lambda: family_nb(ExactComplex(1, 2), 2, 15), EPS.conj()),
        (lambda: pushed_forward(family_b0(14), {1: EPS, 2: 1}, 14),
         lambda: family_b0(14), EPS.conj()),
    ], ids=["mc1-mc4", "mc4-mc1", "mc4-mc1-rotated", "mc2-curved", "nb2-curved",
            "b0-curved"])
    def test_matches_three_variable_construction(self, source, target, a01):
        M, Mhat = source(), target()
        f0, _ = f0_from_jet(M, Mhat, a01)
        assert_same_series(f0, f0_over_three_variables(M, Mhat, a01))

    def test_scaling_case(self):
        M1 = family_mc(1, 1, 14)
        M4 = family_mc(4, 1, 14)
        assert forced_mu_sq(M1, M4) == Fraction(1, 4)
        f0, _ = f0_from_jet(M1, M4, Fraction(1, 2))
        assert f0 == TruncatedSeries(("z",), f0.degree,
                                     {(1,): ExactComplex(Fraction(1, 2))})

    def test_modulus_is_forced(self):
        M1 = family_mc(1, 1, 14)
        M4 = family_mc(4, 1, 14)
        with pytest.raises(JetRealizationError, match="modulus"):
            f0_from_jet(M1, M4, 1)

    def test_irrational_modulus_is_out_of_scope(self):
        # |alpha/alphahat|^2 = 1/4 has no rational fourth root at L+K=4
        M1 = family_mc(1, 2, 14)
        M2 = family_mc(2, 2, 14)
        with pytest.raises(JetRealizationError, match="algebraic extension"):
            forced_mu_sq(M1, M2)

    def test_mismatched_invariants_rejected(self):
        M = family_mc(1, 1, 14)
        N = family_mc(1, 2, 14)
        with pytest.raises(JetRealizationError, match="invariants differ"):
            forced_mu_sq(M, N)

    def test_nonlinear_f0_is_recovered(self):
        Mhat = family_mc(1, 1, 16)
        M = pushed_forward(Mhat, {1: 1, 2: 1}, 16)
        f0, _ = f0_from_jet(M, Mhat, 1)
        assert forced_mu_sq(M, Mhat) == Fraction(1)
        assert f0.coeff((1,)) == ExactComplex(1)
        assert f0.coeff((2,)) == ExactComplex(1)

    def test_unrealizable_one_jet(self):
        # same invariants and rational modulus, but theta profiles differ
        Mhat = family_mc(1, 1, 16)
        M = pushed_forward(Mhat, {1: 1, 2: 1}, 16)
        bad = validate(TruncatedSeries(("z", "chi", "s"), 16, {
            (1, 1, 1): ExactComplex(1), (3, 3, 1): ExactComplex(1)}))
        with pytest.raises(JetRealizationError, match="not realizable"):
            f0_from_jet(M, bad, 1)


class TestReconstruct:
    def test_mc_rotation_round_trip(self):
        M = family_mc(1, 1, 18)
        A = linear_map(EPS, 2, 18)
        D = compute_D(M).D
        assert D == [0]
        H = reconstruct(M, M, extract_jet(A, D), 6, D=D)
        assert H == A
        assert verify_map(M, M, H).is_zero

    def test_b0_round_trip_with_exceptional_pins(self):
        B = family_b0(20)
        analysis = compute_D(B)
        assert analysis.D == [0, 1, 2]
        A = linear_map(EPS, 3, 20)
        assert verify_map(B, B, A).is_zero
        H = reconstruct(B, B, extract_jet(A, analysis.D), 6, D=analysis.D)
        assert H == A

    def test_nonlinear_f0_round_trip(self):
        Mhat = family_mc(1, 1, 18)
        M = pushed_forward(Mhat, {1: 1, 2: 1}, 18)
        f0 = TruncatedSeries(("z",), 18, {(1,): ExactComplex(1), (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 18, {(0,): ExactComplex(1)})
        A = FormalMap([f0], [g0])
        assert verify_map(M, Mhat, A).is_zero
        D = compute_D(M).D
        H = reconstruct(M, Mhat, extract_jet(A, D), 5, D=D)
        assert H == A

    def test_w_dependent_map_round_trip(self):
        # f_1 = a z != 0: the order-1 scalars are nonzero and forced
        a = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
        Mhat = family_mc(1, 1, 14)
        M = pulled_back_by_shear(Mhat, a, 14)
        A = FormalMap([TruncatedSeries(("z",), 14, {(1,): ExactComplex(1)}),
                       TruncatedSeries(("z",), 14, {(1,): a})],
                      [TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})])
        assert verify_map(M, Mhat, A).is_zero
        D = compute_D(M).D
        assert D == [0]
        H = reconstruct(M, Mhat, extract_jet(A, D), 3, D=D)
        assert H.order == 3
        assert H == A

    def test_w_curved_b0_automorphism_from_nonzero_pins(self):
        # the order-2 pins bend the map in w; extract_jet reads them back
        B = family_b0(26)
        D = [0, 1, 2]
        jet = JetData(EPS, 3, lambdas={
            1: (0, 0, 0, 0),
            2: (0, Fraction(15, 4), ExactComplex(Fraction(3, 4), 1), 0)})
        H = reconstruct(B, B, jet, 6, D=D)
        nonzero = [n for n in range(1, 7)
                   if not (H.f_components[n].is_zero() and H.g_components[n].is_zero())]
        assert nonzero == [2, 4, 6]
        assert verify_map(B, B, H, order=9).is_zero
        assert reconstruct(B, B, extract_jet(H, D), 6, D=D) == H

    def test_unrealizable_exceptional_pin_is_rejected(self):
        # B0 admits this order-1 exceptional data (see
        # test_exceptional_pins_with_nonzero_f_n_at_0), but no equivalence
        # with it has zero order-2 data
        B = family_b0(20)
        jet = JetData(1, 1, lambdas={
            1: (ExactComplex(0, Fraction(-1, 2)), 0, 0, 1), 2: (0, 0, 0, 0)})
        with pytest.raises(JetRealizationError):
            reconstruct(B, B, jet, 2, D=[0, 1, 2])

    def test_starved_truncation_is_reported(self):
        # at degree 12 the order-4 identity cannot force the scalars
        M = family_mc(1, 1, 12)
        A = linear_map(1, 1, 12)
        with pytest.raises(EquivalenceError, match="truncation degree"):
            reconstruct(M, M, extract_jet(A, [0]), 6, D=[0])

    def test_order_zero_is_f0_and_b00(self):
        M = family_mc(1, 1, 14)
        A = linear_map(EPS, 2, 14)
        H = reconstruct(M, M, extract_jet(A, [0]), 0, D=[0])
        assert H.order == 0 and H == A

    @pytest.mark.parametrize("source, a01", [
        (lambda: family_mc(1, 2, 6), EPS),
        (lambda: family_nb(ExactComplex(1, 2), 3, 6), 1),
    ], ids=["mc2", "nb3"])
    def test_order_zero_needs_no_order_n_frame(self, source, a01):
        # at degree 6 the quotient by (Shat_z)_chi^L cannot be formed; order 0
        # reads nothing of it
        M = source()
        f0, _ = f0_from_jet(M, M, a01)
        g0 = TruncatedSeries(("z",), f0.degree, {(0,): ExactComplex(2)})
        H = reconstruct(M, M, JetData(a01, 2), 0, D=[0])
        assert H.order == 0 and H == FormalMap([f0], [g0])

    def test_inconsistent_order_system_is_reported(self):
        M, Mhat = inconsistent_pair()
        with pytest.raises(JetRealizationError) as info:
            reconstruct(M, Mhat, JetData(1, 1), 1, D=[0])
        assert str(info.value) == "jet not realizable: order-1 system inconsistent"
        assert isinstance(info.value.__cause__, InconsistentSystem)

    def test_negative_order_is_rejected(self):
        M = family_mc(1, 1, 12)
        A = linear_map(1, 1, 12)
        with pytest.raises(EquivalenceError, match="got -2"):
            reconstruct(M, M, extract_jet(A, [0]), -2, D=[0])

    def test_inconsistent_pin_message(self):
        # the exact text a CLI report carries for this input
        B = family_b0(20)
        jet = JetData(1, 1, lambdas={
            1: (ExactComplex(0, Fraction(-1, 2)), 0, 0, 1), 2: (0, 0, 0, 0)})
        with pytest.raises(JetRealizationError) as info:
            reconstruct(B, B, jet, 2, D=[0, 1, 2])
        assert str(info.value) == "jet not realizable: order-2 system inconsistent"

    def test_exceptional_pins_with_nonzero_f_n_at_0(self):
        # the order-1 data of test_inconsistent_pin_message, with order-2
        # data that B0 does admit: a_1^0 = conj f_1(0) != 0, so from order 2
        # on the slice (Rn)_chi^0 is nonzero and its sign matters
        B = family_b0(26)
        half_i = ExactComplex(0, Fraction(1, 2))
        D = [0, 1, 2]
        jet = JetData(1, 1, lambdas={1: (-half_i, 0, 0, 1),
                                     2: (0, -half_i, -3 * half_i, 0)})
        for order in (2, 4):
            assert reconstruct(B, B, jet, order, D=D).order == order
        H = reconstruct(B, B, jet, 6, D=D)
        assert [H.a(n, 0) for n in (1, 3, 5)] == [
            -half_i, ExactComplex(Fraction(-3, 4)), ExactComplex(0, Fraction(45, 8))]
        assert reconstruct(B, B, extract_jet(H, D), 6, D=D) == H
        # the identity S g(z, tau S) = gbar Shat(f(z, tau S), fbar, tau gbar)
        # over (z, chi, tau), here with Shat = S, composed directly: H solves
        # it through tau^6 and, being cut at order 6, not at tau^7
        deg = 14
        V3 = ("z", "chi", "tau")
        S = B.S.truncate(deg)
        fzw, gzw = H.as_two_variable(deg)
        conj = {"z": "chi", "w": "tau"}
        fbar = fzw.conjugate(rename=conj).embed(V3)
        gbar = gzw.conjugate(rename=conj).embed(V3)
        tau = TruncatedSeries.var("tau", V3, deg)
        w = tau * S
        identity = (S * compose(gzw, {"w": w})
                    - gbar * compose(S, {"z": compose(fzw, {"w": w}), "chi": fbar,
                                         "tau": tau * gbar}))
        assert all(identity.slice("tau", j).is_zero() for j in range(7))
        assert not identity.slice("tau", 7).is_zero()

    def test_starved_truncation_message(self):
        M = family_mc(1, 1, 12)
        A = linear_map(1, 1, 12)
        with pytest.raises(EquivalenceError) as info:
            reconstruct(M, M, extract_jet(A, [0]), 6, D=[0])
        assert str(info.value) == (
            "order-4 scalars not forced although 4 is not in D: the order-4 "
            "identity is only certified to degree 5, which can starve the rank; "
            "rebuild the hypersurfaces with a larger truncation degree "
            "(free directions [4])")


def _constraint_vector(resid, low, consistency, keys):
    vals = []
    for key in keys:
        vals.append(resid.coeff(key))
    vals.extend(low)
    vals.extend(consistency)
    out = []
    for v in vals:
        v = ExactComplex.coerce(v)
        out.append(v.re)
        out.append(v.im)
    return out


def probe_system(solver):
    """The order-n system by nine runs of the solver: x = 0 and each of the
    eight real unit directions, differenced against x = 0."""
    zero4 = tuple(ExactComplex(0) for _ in range(4))
    probes = [zero4]
    for j in range(4):
        for unit in (ExactComplex(1), EC_I):
            x = list(zero4)
            x[j] = unit
            probes.append(tuple(x))
    outs = [solver.run(*x) for x in probes]

    keys = set()
    for _, _, resid, _, _ in outs:
        keys.update(resid.coeffs)
    keys = sorted(keys)
    base = _constraint_vector(outs[0][2], outs[0][3], outs[0][4], keys)
    cols = [_constraint_vector(o[2], o[3], o[4], keys) for o in outs[1:]]
    rows = []
    rhs = []
    for r in range(len(base)):
        rows.append([cols[c][r] - base[r] for c in range(8)])
        rhs.append(-base[r])
    return rows, rhs


def primitive(row):
    """A rational row as integers without common factor, its sign kept."""
    d = math.lcm(*(Fraction(e).denominator for e in row))
    ints = [int(Fraction(e) * d) for e in row]
    g = math.gcd(*ints)
    return [e // g for e in ints] if g else ints


class TestOrderSystem:
    """Each order's system equals the one nine probe runs assemble, row for
    row up to a positive factor, with the same solution and free columns."""

    def check_orders(self, monkeypatch, M, Mhat, A, D, order=3):
        seen, reached = [], []
        order_system = equivalence._order_system
        universal_pn = equivalence.universal_pn

        def source_term(n, *args):
            reached.append(n)
            return universal_pn(n, *args)

        def checked(solver, base):
            rows, rhs = order_system(solver, base)
            want_rows, want_rhs = probe_system(solver)
            assert all(type(e) is int for r in rows for e in r)
            assert ([primitive(r + [b]) for r, b in zip(rows, rhs)]
                    == [primitive(r + [b]) for r, b in zip(want_rows, want_rhs)])
            assert solve_rational(rows, rhs) == solve_rational(want_rows, want_rhs)
            seen.append(reached[-1])
            return rows, rhs

        monkeypatch.setattr(equivalence, "universal_pn", source_term)
        monkeypatch.setattr(equivalence, "_order_system", checked)
        H = reconstruct(M, Mhat, extract_jet(A, D), order, D=D)
        assert H == A
        # orders in D take the jet's scalars and build no system
        assert seen == [n for n in range(1, order + 1) if n not in D]

    def test_b0(self, monkeypatch):
        B = family_b0(20)
        self.check_orders(monkeypatch, B, B, linear_map(EPS, 3, 20), [0, 1, 2])

    def test_mc(self, monkeypatch):
        M = family_mc(1, 1, 18)
        self.check_orders(monkeypatch, M, M, linear_map(EPS, 2, 18), [0])

    def test_nb(self, monkeypatch):
        N = family_nb(ExactComplex(1, 1), 2, 18)
        self.check_orders(monkeypatch, N, N, linear_map(1, 2, 18), compute_D(N).D)

    def test_shear(self, monkeypatch):
        a = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
        Mhat = family_mc(1, 1, 14)
        M = pulled_back_by_shear(Mhat, a, 14)
        A = FormalMap([TruncatedSeries(("z",), 14, {(1,): ExactComplex(1)}),
                       TruncatedSeries(("z",), 14, {(1,): a})],
                      [TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})])
        self.check_orders(monkeypatch, M, Mhat, A, [0])

    # L = K = 2: the candidate's chi^(L-1) term and b_n^L / L! with L >= 2
    def test_mc2(self, monkeypatch):
        M = family_mc(1, 2, 32)
        self.check_orders(monkeypatch, M, M, linear_map(EPS, 2, 32), [0], order=4)

    def test_mc2_curved(self, monkeypatch):
        Mhat = family_mc(1, 2, 32)
        M = pushed_forward(Mhat, {1: EPS, 2: 1}, 32)
        f0 = TruncatedSeries(("z",), 32, {(1,): EPS, (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 32, {(0,): ExactComplex(3)})
        self.check_orders(monkeypatch, M, Mhat, FormalMap([f0], [g0]), [0], order=4)


# curved f_0 = a z + b z^2 (+ c z^3), as the benchmark's pull-backs draw
# them, onto targets with (L, K) = (1, 1), (1, 2) and (2, 2)
CURVED_F0 = [{1: EPS, 2: ExactComplex(1, -2)},
             {1: ExactComplex(-2, 1), 2: ExactComplex(Fraction(1, 2)),
              3: ExactComplex(0, Fraction(-1, 3))}]
SHAT_TARGETS = {"mc1": lambda: family_mc(1, 1, 14),
                "nb2": lambda: family_nb(ExactComplex(1, 2), 2, 15),
                "b0": lambda: family_b0(14),
                "mc2": lambda: family_mc(1, 2, 19)}


def curved_f0(coeffs, degree):
    return TruncatedSeries(("z",), degree, {(k,): c for k, c in coeffs.items()})


def series_key(s):
    return json.dumps(series_dict(s), sort_keys=True)


class TestShatTable:
    @pytest.mark.parametrize("target", sorted(SHAT_TARGETS))
    @pytest.mark.parametrize("coeffs", CURVED_F0)
    def test_matches_the_entry_by_entry_oracle(self, target, coeffs):
        # f_0 is certified below Shat, so entries with few derivatives stop
        # at f_0's degree and the others at their own
        Mhat = SHAT_TARGETS[target]()
        f0 = curved_f0(coeffs, Mhat.S.degree - 3)
        table = shat_jet_table(Mhat, f0, 5)
        oracle = shat_table_by_entry(Mhat, f0, 5)
        assert table.keys() == oracle.keys() and len(table) == 56
        for key, entry in oracle.items():
            assert series_dict(table[key]) == series_dict(entry), key
        assert {s.degree for s in table.values()} != {f0.degree}

    def test_each_power_and_image_is_built_once(self, monkeypatch):
        # every product of two series without constant term inside the
        # table is a power of f_0 or conj f_0, or the image of a substituted
        # monomial (a product of powers): each is built once for the table
        Mhat = family_mc(1, 1, 14)
        f0 = curved_f0(CURVED_F0[1], 12)
        Mhat.S                              # derived on first read
        pairs = []
        original = TruncatedSeries.__mul__

        def counted(a, b):
            if isinstance(b, TruncatedSeries) and a.order() and b.order():
                pairs.append((series_key(a), series_key(b)))
            return original(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
        shat_jet_table(Mhat, f0, 4)
        assert len(pairs) > 10
        assert len(set(pairs)) == len(pairs)


class TestOrderIndependentWork:
    def test_theta_L_unit_is_inverted_once_per_reconstruction(self, monkeypatch):
        # every order divides by (Shat_z)_chi^L = 2i theta_L' / (f_0' L!), which
        # is z^(K-1) times a unit; reconstruct inverts that unit once,
        # whatever the order
        calls = []
        original = equivalence.inverse_unit

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(equivalence, "inverse_unit", counted)
        M = family_mc(1, 1, 18)
        A = linear_map(EPS, 2, 18)
        D = compute_D(M).D
        for order in (2, 5):
            calls.clear()
            H = reconstruct(M, M, extract_jet(A, D), order, D=D)
            assert H == A
            assert len(calls) == 1

    def test_slot_directions_are_kept_across_orders(self, monkeypatch):
        # each order outside D runs the candidate at x = 0, at its solution,
        # and once per slot of x that depends on n (a_n^0, b_n^0); the a_n^1
        # and b_n^L directions are built at the first order only:
        # 6 + 4 + 4 candidates for mc1 to order 3 with D = {0}, not 6 per order
        calls = []
        original = equivalence._OrderSolver._candidate

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(equivalence._OrderSolver, "_candidate", counted)
        M = family_mc(1, 1, 18)
        A = linear_map(EPS, 2, 18)
        assert compute_D(M).D == [0]
        assert reconstruct(M, M, extract_jet(A, [0]), 3, D=[0]) == A
        assert len(calls) == 14

    def test_shat_table_grows_with_the_orders_reached(self, monkeypatch):
        # the golden mc pair, at degree 14, stops at order 6 with unforced
        # scalars; reconstruct composes only the Shat layers j + k + l <= 6
        # (84 entries, slicing each tau-jet of Shat once) and f_0's
        # postcondition (one more entry), all through the one substitution
        # f0_from_jet built, whatever order was asked for
        built, entries, composed, sliced = [], [], [], []

        class Counted(equivalence.Substitution):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

            def __call__(self, h):
                entries.append(h)
                return super().__call__(h)

        original = equivalence.compose

        def counted(h, args):
            composed.append(h)
            return original(h, args)

        monkeypatch.setattr(equivalence, "Substitution", Counted)
        monkeypatch.setattr(equivalence, "compose", counted)
        golden = Path(__file__).parent / "data" / "golden"
        M = parse_hypersurface(json.loads((golden / "mc.json").read_text()))
        jet = parse_jet_data(json.loads((golden / "mc_jet.json").read_text()))
        s_tau_jet = M.s_tau_jet

        def counted_jet(l):
            sliced.append(l)
            return s_tau_jet(l)

        monkeypatch.setattr(M, "s_tau_jet", counted_jet)
        for order in (6, 40):
            for calls in (built, entries, composed, sliced):
                calls.clear()
            with pytest.raises(EquivalenceError, match="order-6 scalars not forced"):
                reconstruct(M, M, jet, order, D=[0])
            assert (len(built), len(entries), len(composed)) == (1, 85, 0)
            assert sliced == list(range(7))


class TestFiniteDetermination:
    def test_equal_maps_agree(self):
        M = family_mc(1, 1, 18)
        D = compute_D(M).D
        A = linear_map(ExactComplex(0, 1), 2, 18)
        H = reconstruct(M, M, extract_jet(A, D), 6, D=D)
        result = finite_determination_check(M, M, H, A, compute_D(M).k)
        assert result["status"] == "equal"

    def test_differing_jets_is_a_precondition_failure(self):
        M = family_mc(1, 1, 14)
        H1 = linear_map(1, 1, 14)
        H2 = linear_map(ExactComplex(0, 1), 1, 14)
        result = finite_determination_check(M, M, H1, H2, 2)
        assert result["status"] == "precondition"

    def test_equal_jets_with_differing_maps_fail(self):
        # (z, w) and (iz, w) are both self-maps; their 0-jets are both empty,
        # so k = 0 is below the jet order and the check names f_0
        M = family_mc(1, 1, 14)
        H1 = linear_map(1, 1, 14)
        H2 = linear_map(ExactComplex(0, 1), 1, 14)
        result = finite_determination_check(M, M, H1, H2, 0)
        assert result["status"] == "fail"
        assert result["component"] == ("f", 0)
        result = finite_determination_check(M, M, H1, H2, 1)
        assert result == {"status": "precondition", "reason": "1-jets differ"}

    def test_unverified_map_is_a_precondition_failure(self):
        M = family_mc(1, 1, 14)
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1), (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        bad = FormalMap([f0], [g0])
        result = finite_determination_check(M, M, bad, linear_map(1, 1, 14), 2)
        assert result["status"] == "precondition"

    @staticmethod
    def counted_verify_map(monkeypatch):
        """Count the calls the check makes through the module-level name."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return verify_map(*args, **kwargs)

        monkeypatch.setattr(equivalence, "verify_map", counted)
        return calls

    def test_identical_pair_is_verified_once(self, monkeypatch):
        M = family_mc(1, 1, 18)
        analysis = compute_D(M)
        A = linear_map(ExactComplex(0, 1), 2, 18)
        H = reconstruct(M, M, extract_jet(A, analysis.D), 6, D=analysis.D)
        assert H is not A
        calls = self.counted_verify_map(monkeypatch)
        result = finite_determination_check(M, M, H, A, analysis.k)
        assert result == {"status": "equal", "order": 0}
        assert calls == [H]

    def test_different_pair_is_verified_twice(self, monkeypatch):
        M = family_mc(1, 1, 14)
        H1, H2 = linear_map(1, 1, 14), linear_map(ExactComplex(0, 1), 1, 14)
        calls = self.counted_verify_map(monkeypatch)
        result = finite_determination_check(M, M, H1, H2, 2)
        assert result == {"status": "precondition", "reason": "2-jets differ"}
        assert calls == [H1, H2]

    def test_pair_equal_below_the_verification_degree_is_verified_twice(self, monkeypatch):
        # f_0 = z certified to 11 and f_0 = z + z^12 at degree 14 are equal
        # as maps, since components compare to the lower certified degree,
        # but verify_map reads both to degree 14, where the z^12 term leaves
        # -2i z chi^12 tau in the residual: only the first verifies
        M = family_mc(1, 1, 14)
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        H1 = FormalMap([TruncatedSeries(("z",), 11, {(1,): ExactComplex(1)})], [g0])
        H2 = FormalMap([TruncatedSeries(("z",), 14, {(1,): ExactComplex(1),
                                                     (12,): ExactComplex(1)})], [g0])
        assert H1 == H2
        assert verify_map(M, M, H1).is_zero and not verify_map(M, M, H2).is_zero
        calls = self.counted_verify_map(monkeypatch)
        result = finite_determination_check(M, M, H1, H2, 1)
        assert result["status"] == "precondition"
        assert result["reason"] == "a map fails verification"
        assert calls == [H1, H2]
        r1, r2 = result["residuals"]
        assert r1.is_zero and not r2.is_zero


def parsed_twice(name):
    """Two Hypersurface objects parsed from one golden JSON file."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    return parse_hypersurface(json.loads(text)), parse_hypersurface(json.loads(text))


class TestSelfMap:
    """A target whose Theta is the source's is read through the source."""

    def test_copy_derives_no_graph(self, monkeypatch):
        M, copy = parsed_twice("b0.json")
        jet = parse_jet_data(json.loads((GOLDEN / "b0_jet.json").read_text(encoding="utf-8")))
        analysis = compute_D(M)
        roots = []

        def counted_root(a, k):
            roots.append(k)
            return kth_root_unit(a, k)

        monkeypatch.setattr(equivalence, "kth_root_unit", counted_root)
        H = reconstruct(M, copy, jet, 2, D=analysis.D)
        assert roots == [1]                  # f_0's unit root, built once
        assert verify_map(M, copy, H).is_zero
        assert finite_determination_check(M, copy, H, H, analysis.k)["status"] == "equal"
        assert "_graph" not in copy.__dict__
        expected = reconstruct(M, M, jet, 2, D=analysis.D)
        assert formal_map_dict(H) == formal_map_dict(expected)

    @pytest.mark.parametrize("change", ["degree", "term"])
    def test_near_miss_derives_its_own_graph(self, change):
        M = family_mc(1, 1, 14)
        Theta = M.Theta
        if change == "degree":
            # the same Theta value, certified to another degree
            target = validate(TruncatedSeries(Theta.variables, 15, Theta.coeffs))
        else:
            target = validate(Theta + TruncatedSeries(Theta.variables, 14,
                                                      {(3, 3, 1): ExactComplex(1)}))
        assert "_graph" not in target.__dict__
        A = linear_map(ExactComplex(0, 1), 2, 14)
        report = verify_map(M, target, A)
        assert "_graph" in target.__dict__
        assert report.is_zero == (change == "degree")


class TestStructure:
    def test_g0_is_a_real_constant_for_verified_maps(self):
        # every verified self-map here has g = const with real value
        M = family_mc(1, 1, 14)
        for eps, r in ((1, 3), (ExactComplex(0, 1), Fraction(1, 2)), (EPS, -1)):
            H = linear_map(eps, r, 14)
            assert verify_map(M, M, H).is_zero
            g0 = H.g_components[0]
            assert g0.coeff((0,)).is_real()
            assert all(k == (0,) for k in g0.coeffs)

    def test_nb_family_self_map(self):
        N = family_nb(ExactComplex(1, 1), 2, 18)
        A = linear_map(1, 2, 18)    # eps^(j-1) = 1 is forced for this family
        assert verify_map(N, N, A).is_zero
        D = compute_D(N).D
        H = reconstruct(N, N, extract_jet(A, D), 4, D=D)
        assert H == A
