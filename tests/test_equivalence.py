"""Equivalence verification, jet extraction, and reconstruction from jets."""

import math
from fractions import Fraction

import pytest

import crjet.equivalence as equivalence

from crjet import (EquivalenceError, ExactComplex, FormalMap, JetData,
                   JetRealizationError, compose_maps, compute_D, extract_jet,
                   f0_from_jet, family_b0, family_mc, family_nb,
                   finite_determination_check, forced_mu_sq, reconstruct,
                   validate, verify_map)
from crjet.linalg import solve_rational
from crjet.scalars import EC_I, factorial
from crjet.series import TruncatedSeries, compose, divide, implicit_solve, kth_root_unit
from conftest import assert_same_series

EPS = ExactComplex(Fraction(3, 5), Fraction(4, 5))  # a rational point on |z| = 1


def linear_map(eps, r, degree):
    """H = (eps*z, r*w) as a FormalMap."""
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex.coerce(eps)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex.coerce(r)})
    return FormalMap([f0], [g0])


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


class TestJetData:
    def test_rejects_singular_or_nonreal_data(self):
        with pytest.raises(EquivalenceError):
            JetData(0, 1)
        with pytest.raises(EquivalenceError):
            JetData(1, 0)
        with pytest.raises(EquivalenceError):
            JetData(1, ExactComplex(1, 1))    # b_0^0 must be real

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
        f0, mu_sq = f0_from_jet(M1, M4, Fraction(1, 2))
        assert mu_sq == Fraction(1, 4)
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
        f0, mu_sq = f0_from_jet(M, Mhat, 1)
        assert mu_sq == Fraction(1)
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

    def test_unrealizable_exceptional_pin_is_rejected(self):
        # B0 admits no equivalence whose order-1 exceptional data is this value
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


def probe_system(solver, pin):
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
    if pin is not None:
        for j, val in enumerate(pin):
            val = ExactComplex.coerce(val)
            for part, target in ((0, val.re), (1, val.im)):
                row = [Fraction(0)] * 8
                row[2 * j + part] = Fraction(1)
                rows.append(row)
                rhs.append(target)
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
        seen = []
        order_system = equivalence._order_system

        def checked(solver, base, pin):
            rows, rhs = order_system(solver, base, pin)
            want_rows, want_rhs = probe_system(solver, pin)
            assert all(type(e) is int for r in rows[:len(rows) - 8 * (pin is not None)]
                       for e in r)
            assert ([primitive(r + [b]) for r, b in zip(rows, rhs)]
                    == [primitive(r + [b]) for r, b in zip(want_rows, want_rhs)])
            assert solve_rational(rows, rhs) == solve_rational(want_rows, want_rhs)
            seen.append(solver.n)
            return rows, rhs

        monkeypatch.setattr(equivalence, "_order_system", checked)
        H = reconstruct(M, Mhat, extract_jet(A, D), order, D=D)
        assert H == A
        assert seen == list(range(1, order + 1))

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

    def test_unverified_map_is_a_precondition_failure(self):
        M = family_mc(1, 1, 14)
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1), (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        bad = FormalMap([f0], [g0])
        result = finite_determination_check(M, M, bad, linear_map(1, 1, 14), 2)
        assert result["status"] == "precondition"


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
