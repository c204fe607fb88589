"""Formal equivalences: verification, jet data, and reconstruction from jets.

A formal map between 1-infinite-type hypersurfaces in normal coordinates has
the shape H = (f(z,w), w*g(z,w)) with f_z(0,0)*g(0,0) != 0.  Writing
f = sum f_n(z) w^n/n! and g likewise, the mapping identity

    S(z,chi,tau) g(z, tau S) = gbar(chi,tau) Shat(f(z,tau S), fbar(chi,tau), tau gbar)

determines (f_n, g_n) order by order from the k-jet of H: at each n the
identity is affine in the four scalars (a_n^0, b_n^0, a_n^1, b_n^L), so the
order-n equation is solved exactly over the rationals; for n in the
exceptional set D the scalars are free and must be supplied as jet data.

Each order takes one run of the order-n step at zero scalars and four
complex-linear directions, one per scalar; together they give the real
system, which a fraction-free elimination solves.  A final run at the
solution is the proof: its residual and side conditions must vanish.
"""

from __future__ import annotations

from fractions import Fraction

from .faadibruno import universal_pn
from .hypersurface import Hypersurface
from .linalg import InconsistentSystem, solve_rational
from .scalars import (EC_I, EC_ONE, EC_ZERO, ExactComplex, factorial,
                      rational_nth_root, split_parts)
from .series import (TruncatedSeries, compose, divide, implicit_solve,
                     kth_root_unit)

ZC = ("z", "chi")


class EquivalenceError(ArithmeticError):
    pass


class JetRealizationError(EquivalenceError):
    pass


class FormalMap:
    """H = (f(z,w), w*g(z,w)) stored through the components f_n, g_n."""

    def __init__(self, f_components, g_components):
        if not f_components or not g_components:
            raise EquivalenceError("a formal map needs at least the order-0 components")
        self.f_components = [s.embed(("z",)) for s in f_components]
        self.g_components = [s.embed(("z",)) for s in g_components]
        f0, g0 = self.f_components[0], self.g_components[0]
        if not f0.coeff((0,)).is_zero():
            raise EquivalenceError("f(0,0) must vanish")
        if f0.coeff((1,)).is_zero() or g0.coeff((0,)).is_zero():
            raise EquivalenceError("invertibility requires f_z(0,0) != 0 and g(0,0) != 0")

    @property
    def order(self) -> int:
        return min(len(self.f_components), len(self.g_components)) - 1

    # -- jets -------------------------------------------------------------------
    def a(self, n: int, k: int) -> ExactComplex:
        """a_n^k, i.e. conj of the k-th derivative of f_n at 0."""
        return self.f_components[n].jet_coeff((k,)).conj()

    def b(self, n: int, k: int) -> ExactComplex:
        return self.g_components[n].jet_coeff((k,)).conj()

    def jet(self, k: int):
        """The k-jet: coefficients of z^a w^b, a+b <= k, of both components."""
        out = {}
        for comp, parts in (("f", self.f_components), ("g", self.g_components)):
            for b, series in enumerate(parts):
                wexp = b + (1 if comp == "g" else 0)  # G = w*g
                if wexp > k:
                    continue
                for a in range(k - wexp + 1):
                    c = series.coeff((a,)) * Fraction(1, factorial(b))
                    if not c.is_zero():
                        out[(comp, a, wexp)] = c
        return out

    def as_two_variable(self, degree: int):
        """(f(z,w), g(z,w)) as series in (z, w)."""
        return (_from_components(self.f_components, "w", degree),
                _from_components(self.g_components, "w", degree))

    def conjugate_components(self):
        fbar = [s.conjugate(rename={"z": "chi"}) for s in self.f_components]
        gbar = [s.conjugate(rename={"z": "chi"}) for s in self.g_components]
        return fbar, gbar

    def __eq__(self, other):
        if not isinstance(other, FormalMap):
            return NotImplemented
        n = min(self.order, other.order)
        return (all(self.f_components[j] == other.f_components[j] for j in range(n + 1))
                and all(self.g_components[j] == other.g_components[j] for j in range(n + 1)))

    def __repr__(self):
        return f"FormalMap(order={self.order})"


def _from_components(parts, var: str, degree: int) -> TruncatedSeries:
    """sum_n parts[n] var^n / n!, with ``var`` appended as the last variable."""
    return TruncatedSeries.from_slices(
        var, [s * Fraction(1, factorial(n)) for n, s in enumerate(parts)], degree)


def _components(series: TruncatedSeries, var: str) -> list[TruncatedSeries]:
    """The parts n! * (var^n slice) of ``series``, up to its top var-exponent."""
    idx = series.variables.index(var)
    top = max((e[idx] for e in series.coeffs), default=0)
    return [series.slice(var, n) * factorial(n) for n in range(top + 1)]


class JetData:
    """The k-jet content driving reconstruction.

    a01, b00 pin the 1-jet; lambdas[n] = (a_n^0, b_n^0, a_n^1, b_n^L) for the
    exceptional orders n in D.
    """

    def __init__(self, a01, b00, lambdas=None):
        self.a01 = ExactComplex.coerce(a01)
        self.b00 = ExactComplex.coerce(b00)
        if self.a01.is_zero() or self.b00.is_zero():
            raise EquivalenceError("jet data requires a_0^1 != 0 and b_0^0 != 0")
        if not self.b00.is_real():
            raise EquivalenceError("b_0^0 must be real for an equivalence")
        self.lambdas = {int(n): tuple(ExactComplex.coerce(c) for c in tup)
                        for n, tup in (lambdas or {}).items()}

    @property
    def delta(self) -> ExactComplex:
        return (self.a01 * self.b00).inverse()

    @property
    def mu_sq(self) -> Fraction:
        return self.a01.norm_sq()


def extract_jet(H: FormalMap, D) -> JetData:
    """Read the reconstruction data of H for exceptional set D."""
    lambdas = {}
    for n in D:
        if n == 0:
            continue
        if n <= H.order:
            lambdas[n] = (H.a(n, 0), H.b(n, 0), H.a(n, 1), H.b(n, 1))
        else:
            lambdas[n] = (ExactComplex(0),) * 4
    return JetData(H.a(0, 1), H.b(0, 0), lambdas)


class ResidualReport:
    def __init__(self, residual: TruncatedSeries):
        self.residual = residual
        self.is_zero = residual.is_zero()
        self.first_offending = None if self.is_zero else residual.min_term()
        self.certified_to_degree = residual.degree

    def __repr__(self):
        if self.is_zero:
            return f"ResidualReport(zero to degree {self.certified_to_degree})"
        exps, c = self.first_offending
        return (f"ResidualReport(nonzero; first offending monomial "
                f"{dict(zip(self.residual.variables, exps))} -> {c})")


def verify_map(M: Hypersurface, Mhat: Hypersurface, H: FormalMap,
               order: int | None = None) -> ResidualReport:
    """Residual of Q g(z,Q) - Qhat(f(z,Q), fbar(chi,tau), tau gbar(chi,tau))."""
    degree = min(M.Q.degree, Mhat.Q.degree)
    if order is not None:
        degree = min(degree, order)
    V3 = ("z", "chi", "tau")
    Q = M.Q.truncate(degree)
    fzw, gzw = H.as_two_variable(degree)
    fbar, gbar = H.conjugate_components()
    fb_at = _from_components(fbar, "tau", degree).embed(V3)
    gb_at = _from_components(gbar, "tau", degree).embed(V3)
    g_at = compose(gzw, {"w": Q})
    f_at = compose(fzw, {"w": Q})
    tau = TruncatedSeries.var("tau", V3, degree)
    Qhat_at = compose(Mhat.Q.truncate(degree),
                      {"z": f_at, "chi": fb_at, "tau": tau * gb_at})
    return ResidualReport(Q * g_at - Qhat_at)


# ---------------------------------------------------------------------------
# f0 from the 1-jet
# ---------------------------------------------------------------------------

def forced_mu_sq(M: Hypersurface, Mhat: Hypersurface) -> Fraction:
    """The forced squared modulus of a_0^1 for any equivalence M -> Mhat."""
    inv, invh = M.invariants, Mhat.invariants
    if (inv.L, inv.K) != (invh.L, invh.K):
        raise JetRealizationError(
            f"invariants differ: (L,K)={(inv.L, inv.K)} vs {(invh.L, invh.K)}; "
            "no equivalence exists")
    L, K = inv.L, inv.K
    alpha = M.theta_j(L).jet_coeff((K,))
    alphahat = Mhat.theta_j(L).jet_coeff((K,))
    ratio = alpha.norm_sq() / alphahat.norm_sq()
    mu_sq = rational_nth_root(ratio, L + K)
    if mu_sq is None:
        raise JetRealizationError(
            "target pair requires algebraic extension: out of scope "
            f"(|alpha/alphahat|^2 = {ratio} has no rational {L + K}-th root)")
    return mu_sq


def f0_from_jet(M: Hypersurface, Mhat: Hypersurface, a01) -> tuple[TruncatedSeries, Fraction]:
    """The order-0 component f_0(z), plus mu^2 = |a_0^1|^2: zh = f_0(z) solves
    zh uhat(zh) = (mu^2/a_0^1) z u(z) = conj(a_0^1) z u(z), where
    theta_L = alpha z^K u(z)^K / K! and thetahat_L likewise through uhat."""
    a01 = ExactComplex.coerce(a01)
    mu_sq = forced_mu_sq(M, Mhat)
    if a01.norm_sq() != mu_sq:
        raise JetRealizationError(
            f"modulus forced by the invariant ratio: need |a_0^1|^2 = {mu_sq}, "
            f"got {a01.norm_sq()}")
    L, K = M.invariants.L, M.invariants.K
    thL = M.theta_j(L)
    thLhat = Mhat.theta_j(L)
    alpha = thL.jet_coeff((K,))
    alphahat = thLhat.jet_coeff((K,))

    def unit_root(th, const):
        mono = TruncatedSeries(("z",), th.degree, {(K,): const * Fraction(1, factorial(K))})
        return kth_root_unit(divide(th, mono), K)

    u = unit_root(thL, alpha)
    uhat = unit_root(thLhat, alphahat).rename({"z": "zh"})

    deg = min(u.degree, uhat.degree) + 1
    V = ("zh", "z")
    zh = TruncatedSeries.var("zh", V, deg)
    z = TruncatedSeries.var("z", V, deg)
    f0 = implicit_solve(zh * uhat.embed(V) - z * u.embed(V) * a01.conj(), "zh")

    # postcondition: theta(z,chi) = thetahat(f0(z), conj f0(chi))
    f0zc = f0.embed(ZC)
    f0bar = f0.conjugate(rename={"z": "chi"}).embed(ZC)
    pushed = compose(Mhat.theta.truncate(f0.degree), {"z": f0zc, "chi": f0bar})
    if not (pushed - M.theta.truncate(pushed.degree)).is_zero():
        raise JetRealizationError(
            "jet not realizable: theta does not match thetahat(f0, conj f0)")
    return f0, mu_sq


# ---------------------------------------------------------------------------
# order-by-order reconstruction
# ---------------------------------------------------------------------------

def shat_jet_table(Mhat, f0, n_max):
    """(j,k,l) -> Shat_{z^j chi^k tau^l}(f0(z), conj f0(chi), 0) for j+k+l <= n_max."""
    f0zc = f0.embed(ZC)
    f0bar = f0.conjugate(rename={"z": "chi"}).embed(ZC)
    table = {}
    for j in range(n_max + 1):
        dz = Mhat.S.differentiate("z", j)
        for k in range(n_max + 1 - j):
            dzk = dz.differentiate("chi", k)
            for l in range(n_max + 1 - j - k):
                d = dzk.differentiate("tau", l)
                table[(j, k, l)] = compose(d.slice("tau", 0),
                                           {"z": f0zc, "chi": f0bar})
    return table


class _OrderSolver:
    """The order-n step, affine in x = (a_n^0, b_n^0, a_n^1, b_n^L).

    ``run`` evaluates the candidate (f_n, g_n) and every order-n constraint
    at one x.  Without ``Rn`` the candidate, its peeled low part and the
    terms -S0^(n+1) g_n + Shat_z S0^n f_n b00 of the residual are
    complex-linear in x; only the terms Shat gbar_n + Shat_chi fbar_n b00 are
    antilinear.  ``direction`` computes these parts once per slot of x, at
    the unit 1, so that the constraints at x = u e_j are those at x = 0
    moved by the linear part times u and the antilinear part times conj(u).
    """

    def __init__(self, M, n, Rn, f0, b00, a01, a02, shat, S0_n, S0_n1):
        """``S0_n`` and ``S0_n1`` are S(z,chi,0)^n and S(z,chi,0)^(n+1)."""
        inv = M.invariants
        self.L, self.K = inv.L, inv.K
        self.n = n
        self.Rn = Rn
        self.b00 = b00
        self.a01 = a01
        self.a02 = a02
        self.theta1 = M.theta_j(1)
        self.thetaL = M.theta_j(self.L)
        self.thetaL1 = M.theta_j(self.L + 1)
        self.thetaL_prime = self.thetaL.differentiate("z")
        self.f0_prime = f0.differentiate("z")
        self.shat = shat
        self.neg_S0_n1 = -S0_n1
        self.shat_S0_n = shat[(1, 0, 0)] * S0_n
        self.Rn_chi0 = Rn.slice("chi", 0)
        self.RnL = Rn.slice("chi", self.L) * factorial(self.L)

    def _candidate(self, Rn_chi0, RnL, a_n0, b_n0, a_n1, b_nL):
        """(f_n, g_n, low) from the given chi^0 and chi^L slices of Rn."""
        L, K, n = self.L, self.K, self.n
        b00, a01, a02 = self.b00, self.a01, self.a02
        two_i = EC_I * 2
        one_z = TruncatedSeries.const(("z",), RnL.degree, 1)

        g_n = Rn_chi0 + one_z * b_n0 + self.theta1 * (two_i * b00 * a01.inverse() * a_n0)

        d1L = 1 if L == 1 else 0
        h1 = (a_n1 * a01 - a_n0 * a02) * (a01 * a01).inverse()
        E = (RnL
             + self.thetaL * g_n * (two_i * (n + 1))
             - one_z * b_nL
             - self.thetaL * (two_i * b_n0)
             - self.thetaL * (two_i * L * b00 * h1)
             - (self.thetaL1 * two_i - self.theta1 * self.theta1 * (4 * d1L))
             * (b00 * a_n0 * a01.inverse()))
        rhs_f = E * (two_i * b00).inverse()

        # divisibility by theta_L' needs z-order >= K-1: peel the low part
        low = []
        peeled = rhs_f
        for j in range(K - 1):
            c = rhs_f.coeff((j,))
            low.append(c)
            if not c.is_zero():
                peeled = peeled - TruncatedSeries(("z",), rhs_f.degree, {(j,): c})
        F = divide(peeled, self.thetaL_prime)      # f_n / f_0'
        return self.f0_prime * F, g_n, low

    def _linear(self, f_n, g_n):
        return self.neg_S0_n1 * g_n.embed(ZC) + self.shat_S0_n * f_n.embed(ZC) * self.b00

    def _antilinear(self, f_n, g_n):
        fbar_n = f_n.conjugate(rename={"z": "chi"}).embed(ZC)
        gbar_n = g_n.conjugate(rename={"z": "chi"}).embed(ZC)
        return self.shat[(0, 0, 0)] * gbar_n + self.shat[(0, 1, 0)] * fbar_n * self.b00

    def jets(self, f_n, g_n):
        """f_n(0), f_n'(0), g_n(0) and g_n^(L)(0), in this order."""
        return [f_n.coeff((0,)), f_n.jet_coeff((1,)), g_n.coeff((0,)),
                g_n.jet_coeff((self.L,))]

    def run(self, a_n0, b_n0, a_n1, b_nL):
        """Candidate (f_n, g_n) plus all order-n constraint values."""
        f_n, g_n, low = self._candidate(self.Rn_chi0, self.RnL, a_n0, b_n0, a_n1, b_nL)
        resid = self._linear(f_n, g_n) + self._antilinear(f_n, g_n) - self.Rn
        # self-consistency of the scalars with the candidate's jets
        consistency = [c - v.conj() for c, v in
                       zip(self.jets(f_n, g_n), (a_n0, a_n1, b_n0, b_nL))]
        return f_n, g_n, resid, low, consistency

    def direction(self, j):
        """(f, g, low, P, Q) for x = e_j without Rn: the x-linear part of the
        candidate and of ``low``, and the linear and antilinear residual parts."""
        x = [EC_ZERO] * 4
        x[j] = EC_ONE
        zero_chi0 = TruncatedSeries.zero(("z",), self.Rn_chi0.degree)
        zero_L = TruncatedSeries.zero(("z",), self.RnL.degree)
        f, g, low = self._candidate(zero_chi0, zero_L, *x)
        return f, g, low, self._linear(f, g), self._antilinear(f, g)


# the consistency entry that compares with conj(x_j): x is ordered
# (a^0, b^0, a^1, b^L), the consistency list (a^0, a^1, b^0, b^L)
_CONSISTENCY_SLOT = (0, 2, 1, 3)


def _order_system(solver, base, pin):
    """The real system (rows, rhs) for x at one order.

    ``base`` is ``solver.run`` at x = 0.  Column 2j + p belongs to the unit
    u = i^p in slot j, and holds the change u*P_j + conj(u)*Q_j of every
    residual coefficient, u times the ``low`` entries, and u times the jets
    minus conj(u) at the slot's own consistency entry.  Each complex
    constraint gives a real and an imaginary row, cleared to integers by one
    lcm; ``pin`` (the jet's values, for orders in D) adds x = pin.
    """
    _, _, resid0, low0, cons0 = base
    cols = []
    for j in range(4):
        f, g, low, P, Q = solver.direction(j)
        jets = solver.jets(f, g)
        for u, resid in ((EC_ONE, P + Q), (EC_I, (P - Q) * EC_I)):
            cons = [u * c for c in jets]
            cons[_CONSISTENCY_SLOT[j]] -= u.conj()
            # the residual also carries -Rn: it is certified no further
            cols.append((resid.truncate(resid0.degree), [u * c for c in low], cons))
    keys = sorted(set(resid0.coeffs).union(*(col[0].coeffs for col in cols)))
    complex_rows = [[col[0].coeff(k) for col in cols] + [resid0.coeff(k)] for k in keys]
    complex_rows += [[col[1][i] for col in cols] + [c] for i, c in enumerate(low0)]
    complex_rows += [[col[2][i] for col in cols] + [c] for i, c in enumerate(cons0)]
    rows, rhs = [], []
    for values in complex_rows:
        for part in split_parts(values):
            rows.append(part[:-1])
            rhs.append(-part[-1])
    if pin is not None:
        for j, val in enumerate(pin):
            for p, target in enumerate((val.re, val.im)):
                row = [0] * 8
                row[2 * j + p] = 1
                rows.append(row)
                rhs.append(target)
    return rows, rhs


def reconstruct(M: Hypersurface, Mhat: Hypersurface, jet: JetData,
                order: int, D) -> FormalMap:
    """Rebuild an equivalence M -> Mhat from its jet data, to w-order `order`.

    For n not in D the order-n scalars are forced: the mapping identity at
    order n, together with divisibility and jet self-consistency, gives an
    exact linear system with a unique solution.  For n in the exceptional
    set D the jet supplies them: its pins fix every unknown, and the same
    system checks realizability.  Each order takes one run of the solver at
    x = 0 and four complex-linear directions, one per slot of x; a
    fraction-free solve gives x, and a final run at x proves it: its
    residual, low part and consistency entries must all vanish.
    """
    if order < 0:
        raise EquivalenceError(f"reconstruction order must be nonnegative, got {order}")
    f0, _ = f0_from_jet(M, Mhat, jet.a01)
    b00 = jet.b00
    a01 = jet.a01
    a02 = f0.jet_coeff((2,)).conj()
    g0 = TruncatedSeries(("z",), f0.degree, {(0,): b00})

    f_parts = [f0]
    g_parts = [g0]
    fbar_parts = [f0.conjugate(rename={"z": "chi"})]
    gbar_parts = [g0.conjugate(rename={"z": "chi"})]
    shat = shat_jet_table(Mhat, f0, order)
    S0 = M.S0()
    if not (shat[(0, 0, 0)] - S0.truncate(shat[(0, 0, 0)].degree)).is_zero():
        raise JetRealizationError("Shat(f0, conj f0, 0) != S(z,chi,0): jet not realizable")
    s_jets = [M.s_tau_jet(j) for j in range(order + 1)]
    S0_pow = [None, S0]                    # S0_pow[j] = S(z,chi,0)^j
    for _ in range(order):
        S0_pow.append(S0_pow[-1] * S0)

    zero4 = (EC_ZERO,) * 4
    for n in range(1, order + 1):
        Rn = universal_pn(n, f_parts, g_parts, fbar_parts, gbar_parts, s_jets, shat)
        solver = _OrderSolver(M, n, Rn, f0, b00, a01, a02, shat,
                              S0_pow[n], S0_pow[n + 1])
        base = solver.run(*zero4)
        pin = jet.lambdas.get(n, zero4) if n in D else None
        rows, rhs = _order_system(solver, base, pin)
        try:
            sol, free = solve_rational(rows, rhs)
        except InconsistentSystem as exc:
            raise JetRealizationError(
                f"jet not realizable: order-{n} system inconsistent") from exc
        # for n in D a unit row pins each unknown, so nothing is free
        if free:
            raise EquivalenceError(
                f"order-{n} scalars not forced although {n} is not in D: the "
                f"order-{n} identity is only certified to degree "
                f"{base[2].degree}, which can starve the rank; rebuild the "
                "hypersurfaces with a larger truncation degree "
                f"(free directions {free})")
        x = tuple(ExactComplex(sol[2 * j], sol[2 * j + 1]) for j in range(4))
        f_n, g_n, resid, low, consistency = solver.run(*x)
        if (not resid.is_zero() or any(not ExactComplex.coerce(c).is_zero() for c in low)
                or any(not c.is_zero() for c in consistency)):
            raise JetRealizationError(
                f"jet not realizable: order-{n} identity fails after solving")
        f_parts.append(f_n)
        g_parts.append(g_n)
        fbar_parts.append(f_n.conjugate(rename={"z": "chi"}))
        gbar_parts.append(g_n.conjugate(rename={"z": "chi"}))
    return FormalMap(f_parts, g_parts)


def finite_determination_check(M, Mhat, H1: FormalMap, H2: FormalMap, k: int):
    """Two verified equivalences with equal k-jets must agree entirely."""
    r1 = verify_map(M, Mhat, H1)
    r2 = verify_map(M, Mhat, H2)
    if not r1.is_zero or not r2.is_zero:
        return {"status": "precondition", "reason": "a map fails verification",
                "residuals": (r1, r2)}
    if H1.jet(k) != H2.jet(k):
        return {"status": "precondition", "reason": f"{k}-jets differ"}
    order = min(H1.order, H2.order)
    for n in range(order + 1):
        for tag, s1, s2 in (("f", H1.f_components[n], H2.f_components[n]),
                            ("g", H1.g_components[n], H2.g_components[n])):
            d = s1 - s2
            if not d.is_zero():
                return {"status": "fail", "component": (tag, n),
                        "first_difference": d.min_term()}
    return {"status": "equal", "order": order}


def compose_maps(H: FormalMap, A: FormalMap, degree: int) -> FormalMap:
    """H after A, as a formal map (both in (f, w g) shape)."""
    fH, gH = H.as_two_variable(degree)
    fA, gA = A.as_two_variable(degree)
    w = TruncatedSeries.var("w", ("z", "w"), degree)
    inner_w = w * gA
    first = compose(fH, {"z": fA, "w": inner_w})
    second = gA * compose(gH, {"z": fA, "w": inner_w})
    return FormalMap(_components(first, "w"), _components(second, "w"))
