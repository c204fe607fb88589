"""Formal equivalences: verification, jet data, and reconstruction from jets.

A formal map between 1-infinite-type hypersurfaces in normal coordinates has
the shape H = (f(z,w), w*g(z,w)) with f_z(0,0)*g(0,0) != 0.  Writing
f = sum f_n(z) w^n/n! and g likewise, the mapping identity

    S(z,chi,tau) g(z, tau S) = gbar(chi,tau) Shat(f(z,tau S), fbar(chi,tau), tau gbar)

determines (f_n, g_n) order by order from the k-jet of H: at each n the
identity is affine in the four scalars (a_n^0, b_n^0, a_n^1, b_n^L), so the
order-n equation is solved exactly over the rationals; for n in the
exceptional set D the scalars are free and the jet data supplies them.

An order outside D takes one run of the order-n step at zero scalars and
four complex-linear directions, one per scalar; the directions of a_n^1 and
b_n^L do not depend on n, so all but their linear residual part is built
once per reconstruction.  Together they give the real system, its residual
rows read as integers off the series' numerators, which a fraction-free
elimination solves, stopping at full rank.  A final run at the scalars,
solved or supplied, is the proof: its residual and side conditions must
vanish.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import EquivalenceError
from .faadibruno import universal_pn
from .hypersurface import Hypersurface
from .linalg import InconsistentSystem, solve_rational
from .scalars import (EC_I, EC_ONE, EC_ZERO, ExactComplex, factorial,
                      rational_nth_root, split_parts)
from .series import (Substitution, TruncatedSeries, compose, implicit_solve, inverse_unit,
                     kth_root_unit)

ZC = ("z", "chi")


class JetRealizationError(EquivalenceError):
    pass


class FormalMap:
    """H = (f(z,w), w*g(z,w)) stored through the components f_n, g_n.  Maps are
    equal when all their f_n and g_n are, a component past a list's end being 0."""

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
        """The k-jet: coefficients of z^a w^b, a+b <= k, of f and of G = w*g."""
        fzw, gzw = self.as_two_variable(k)
        out = {("f", a, b): c for (a, b), c in fzw.coeffs.items()}
        out.update((("g", a, b + 1), c) for (a, b), c in gzw.coeffs.items() if a + b < k)
        return out

    def as_two_variable(self, degree: int):
        """(f(z,w), g(z,w)) as series in (z, w)."""
        return (_from_components(self.f_components, "w", degree),
                _from_components(self.g_components, "w", degree))

    def __eq__(self, other):
        if not isinstance(other, FormalMap):
            return NotImplemented
        pairs = (*zip_longest(self.f_components, other.f_components),
                 *zip_longest(self.g_components, other.g_components))
        return all(b.is_zero() if a is None else a.is_zero() if b is None else a == b
                   for a, b in pairs)

    def __repr__(self):
        return f"FormalMap(order={self.order})"


def _from_components(parts, var: str, degree: int) -> TruncatedSeries:
    """sum_n parts[n] var^n / n!, with ``var`` appended as the last variable."""
    return TruncatedSeries.from_slices(
        var, [s * Fraction(1, factorial(n)) for n, s in enumerate(parts)], degree)


def _components(series: TruncatedSeries, var: str) -> list[TruncatedSeries]:
    """The parts n! * (var^n slice) of ``series``, up to its top var-exponent."""
    idx = series.variables.index(var)
    top = max((key[idx] for key in series.numerators()[1]), default=0)
    return [series.slice(var, n) * factorial(n) for n in range(top + 1)]


class JetData:
    """The k-jet content driving reconstruction.

    a01, b00 pin the 1-jet; lambdas[n] = (a_n^0, b_n^0, a_n^1, b_n^L) for the
    exceptional orders n in D, L the source's invariant, as ``extract_jet``
    reads them off a map.
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
        if any(len(tup) != 4 for tup in self.lambdas.values()):
            raise EquivalenceError("each lambda_n needs four values")

    @property
    def delta(self) -> ExactComplex:
        return (self.a01 * self.b00).inverse()

    @property
    def mu_sq(self) -> Fraction:
        return self.a01.norm_sq()


def extract_jet(H: FormalMap, D, L: int = 1) -> JetData:
    """Read the reconstruction data of H for exceptional set D.

    ``L`` is the source's invariant L: the last slot of lambdas[n] is b_n^L,
    the conjugate of g_n^(L)(0), as JetData and the order-n solver read it.
    An order of D beyond H's gets four zeros.
    """
    lambdas = {}
    for n in D:
        if n == 0:
            continue
        if n <= H.order:
            lambdas[n] = (H.a(n, 0), H.b(n, 0), H.a(n, 1), H.b(n, L))
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


def _same_series(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Whether a and b are one truncated series: the same variables and the
    same truncation degree, checked first, then equal coefficients."""
    return a.variables == b.variables and a.degree == b.degree and a == b


def _one_surface(M: Hypersurface, Mhat: Hypersurface) -> Hypersurface:
    """The target to read for a map M -> Mhat: M itself when Mhat's Theta is
    M's (``_same_series``), else Mhat.  theta, the invariants, Q and S all
    follow from Theta, so a self-map derives its graph once, through M."""
    return M if Mhat is M or _same_series(M.Theta, Mhat.Theta) else Mhat


def verify_map(M: Hypersurface, Mhat: Hypersurface, H: FormalMap,
               order: int | None = None) -> ResidualReport:
    """Residual of Q g(z,Q) - Qhat(f(z,Q), fbar(chi,tau), tau gbar(chi,tau)).

    It reads H only through (f(z,w), g(z,w)) at the verification degree
    (``_verification_degree``).  When Mhat's Theta is M's (same
    variables, same truncation degree, equal coefficients) Qhat is read
    through M, so Q comes from one solve."""
    Mhat = _one_surface(M, Mhat)
    degree = _verification_degree(M, Mhat, order)
    V3 = ("z", "chi", "tau")
    Q = M.Q.truncate(degree)
    fzw, gzw = H.as_two_variable(degree)
    conj = {"z": "chi", "w": "tau"}
    fb_at = fzw.conjugate(rename=conj).embed(V3)
    gb_at = gzw.conjugate(rename=conj).embed(V3)
    at_Q = Substitution(("z", "w"), {"w": Q}, degree)
    g_at, f_at = at_Q(gzw), at_Q(fzw)
    tau = TruncatedSeries.var("tau", V3, degree)
    Qhat_at = compose(Mhat.Q.truncate(degree),
                      {"z": f_at, "chi": fb_at, "tau": tau * gb_at})
    return ResidualReport(Q * g_at - Qhat_at)


def _verification_degree(M, Mhat, order=None) -> int:
    """The degree ``verify_map`` checks to: the least of Q's, Qhat's and ``order``."""
    degree = min(M.Q.degree, Mhat.Q.degree)
    return degree if order is None else min(degree, order)


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
    # theta's z^K chi^L coefficients are alpha and alphahat over K! L!
    ratio = M.theta.coeff((K, L)).norm_sq() / Mhat.theta.coeff((K, L)).norm_sq()
    mu_sq = rational_nth_root(ratio, L + K)
    if mu_sq is None:
        raise JetRealizationError(
            "target pair requires algebraic extension: out of scope "
            f"(|alpha/alphahat|^2 = {ratio} has no rational {L + K}-th root)")
    return mu_sq


def f0_from_jet(M: Hypersurface, Mhat: Hypersurface, a01) -> tuple[TruncatedSeries, Substitution]:
    """(f_0(z), the ``_at_f0`` its postcondition ran through), |a_0^1|^2 the
    ``forced_mu_sq``: zh = f_0(z) solves zh uhat(zh) = conj(a_0^1) z u(z), theta's
    chi^L slice being c z^K u(z)^K, c its z^K chi^L coefficient; uhat likewise.
    When Mhat's Theta is M's (same variables, same truncation degree, equal
    coefficients) uhat is u: the unit root is built once."""
    a01 = ExactComplex.coerce(a01)
    Mhat = _one_surface(M, Mhat)
    mu_sq = forced_mu_sq(M, Mhat)
    if a01.norm_sq() != mu_sq:
        raise JetRealizationError(
            f"modulus forced by the invariant ratio: need |a_0^1|^2 = {mu_sq}, "
            f"got {a01.norm_sq()}")
    L, K = M.invariants.L, M.invariants.K

    def unit_root(theta):
        return kth_root_unit(theta.slice("chi", L).shift("z", K)
                             * theta.coeff((K, L)).inverse(), K)

    u = unit_root(M.theta)
    uhat = (u if Mhat is M else unit_root(Mhat.theta)).rename({"z": "zh"})

    deg = min(u.degree, uhat.degree)
    V = ("zh", "z")
    zh = TruncatedSeries.var("zh", V, deg)
    z = TruncatedSeries.var("z", V, deg)
    f0 = implicit_solve(zh * uhat.embed(V) - z * u.embed(V) * a01.conj(), "zh")

    # postcondition: theta(z,chi) = thetahat(f0(z), conj f0(chi))
    at_f0 = _at_f0(f0)
    pushed = at_f0(Mhat.theta)
    if not (pushed - M.theta.truncate(pushed.degree)).is_zero():
        raise JetRealizationError(
            "jet not realizable: theta does not match thetahat(f0, conj f0)")
    return f0, at_f0


# ---------------------------------------------------------------------------
# order-by-order reconstruction
# ---------------------------------------------------------------------------

def shat_jet_table(Mhat, f0, n_max):
    """(j,k,l) -> Shat_{z^j chi^k tau^l}(f0(z), conj f0(chi), 0) for j+k+l <= n_max."""
    at_f0 = _at_f0(f0)
    table, s_jets = {}, []
    for _ in range(n_max + 1):
        _add_shat_layer(table, s_jets, Mhat, at_f0)
    return table


def _at_f0(f0):
    """The substitution (z, chi) -> (f0(z), conj f0(chi)), the one place that
    builds f0 and conj f0 over (z, chi): f0's postcondition runs through it, and
    ``reconstruct`` composes every entry of its Shat table through that same one."""
    f0zc = f0.embed(ZC)
    f0bar = f0.conjugate(rename={"z": "chi"}).embed(ZC)
    return Substitution(ZC, {"z": f0zc, "chi": f0bar}, f0.degree)


def _add_shat_layer(table, s_jets, Mhat, at_f0):
    """Add the entries of ``shat_jet_table`` with j + k + l = n, for n the
    number of layers already added, composed through the shared
    substitution ``at_f0``.  ``s_jets`` holds Shat_{tau^l}(z, chi, 0) for
    l < n, kept by the caller across layers; this layer appends l = n, so
    each tau-jet is sliced once per table."""
    n = len(s_jets)
    s_jets.append(Mhat.s_tau_jet(n))
    for l, s_l in enumerate(s_jets):
        for j in range(n + 1 - l):
            k = n - l - j
            table[(j, k, l)] = at_f0(s_l.differentiate("z", j).differentiate("chi", k))


class _Frame:
    """What every order step shares, none of it depending on n: b_0^0, the
    Shat table at (f_0(z), conj f_0(chi), 0), and the slices of it that the
    candidate reads.  In normal coordinates S(z,chi,0) - 1, Shat - 1 and
    Shat_z have chi-order >= L and Shat_chi has chi-order >= L - 1 (Baouendi,
    Ebenfelt and Rothschild 1999, Ch. IV).  b00 (Shat_z)_chi^L, which is
    2i b00 theta_L' / (f_0' L!), is z^(K-1) times a unit; ``inv_unit`` is the
    inverse of that unit.  ``kept`` maps the slots a_n^1 and b_n^L to their
    direction's (f, g, low, Q), built at the first order that needs them
    (see ``_OrderSolver.direction``)."""

    def __init__(self, L, K, b00, shat):
        self.L, self.K = L, K
        self.b00 = b00
        self.shat = shat
        shat_chi = shat[(0, 1, 0)]
        self.shat_chi_0 = shat_chi.slice("chi", 0)
        self.shat_chi_L = shat_chi.slice("chi", L)
        self.shat_chi_L1 = shat_chi.slice("chi", L - 1)
        self.shat_L = shat[(0, 0, 0)].slice("chi", L)
        self.inv_unit = inverse_unit((shat[(1, 0, 0)].slice("chi", L) * b00).shift("z", K - 1))
        self.kept = {}


class _OrderSolver:
    """The order-n step, affine in x = (a_n^0, b_n^0, a_n^1, b_n^L).

    The order-n identity is -S0^(n+1) g_n + Shat_z S0^n f_n b00
    + Shat gbar_n + Shat_chi fbar_n b00 = Rn, with S0 = S(z,chi,0).  By the
    chi-orders in ``_Frame`` its chi^0 and chi^L slices (coefficients, no
    factorials) give the candidate:

        g_n = b_n^0 + b00 (Shat_chi)_chi^0 a_n^0 - (Rn)_chi^0,
        b00 (Shat_z)_chi^L f_n = (Rn)_chi^L + (S0^(n+1))_chi^L g_n
            - (Shat)_chi^L b_n^0 - b_n^L / L!
            - b00 [(Shat_chi)_chi^L a_n^0 + (Shat_chi)_chi^(L-1) a_n^1].

    ``run`` evaluates the candidate (f_n, g_n) and every order-n constraint
    at one x.  Without ``Rn`` the candidate, its low part and the
    terms -S0^(n+1) g_n + Shat_z S0^n f_n b00 of the residual are
    complex-linear in x; only the terms Shat gbar_n + Shat_chi fbar_n b00 are
    antilinear.  ``direction`` computes these parts once per slot of x, at
    the unit 1, so that the constraints at x = u e_j are those at x = 0
    moved by the linear part times u and the antilinear part times conj(u).
    """

    def __init__(self, frame, Rn, S0_n, S0_n1):
        """``S0_n`` and ``S0_n1`` are S(z,chi,0)^n and S(z,chi,0)^(n+1)."""
        self.frame = frame
        self.Rn = Rn
        self.neg_S0_n1 = -S0_n1
        self.S0_n1_L = S0_n1.slice("chi", frame.L)
        self.shat_S0_n = frame.shat[(1, 0, 0)] * S0_n
        self.Rn_chi0 = Rn.slice("chi", 0)
        self.RnL = Rn.slice("chi", frame.L)

    def _candidate(self, Rn_chi0, RnL, a_n0, b_n0, a_n1, b_nL):
        """(f_n, g_n, low) from the given chi^0 and chi^L slices of Rn."""
        fr = self.frame
        one_z = TruncatedSeries.const(("z",), RnL.degree, 1)
        g_n = one_z * b_n0 + fr.shat_chi_0 * (fr.b00 * a_n0) - Rn_chi0
        rhs = (RnL + self.S0_n1_L * g_n - fr.shat_L * b_n0
               - one_z * (b_nL * Fraction(1, factorial(fr.L)))
               - (fr.shat_chi_L * a_n0 + fr.shat_chi_L1 * a_n1) * fr.b00)
        # divisibility by (Shat_z)_chi^L needs z-order >= K-1: ``low`` must vanish
        low = [rhs.coeff((j,)) for j in range(fr.K - 1)]
        return rhs.shift("z", fr.K - 1) * fr.inv_unit, g_n, low

    def _linear(self, f_n, g_n):
        return self.neg_S0_n1 * g_n.embed(ZC) + self.shat_S0_n * f_n.embed(ZC) * self.frame.b00

    def _antilinear(self, f_n, g_n):
        fbar_n = f_n.conjugate(rename={"z": "chi"}).embed(ZC)
        gbar_n = g_n.conjugate(rename={"z": "chi"}).embed(ZC)
        shat = self.frame.shat
        return shat[(0, 0, 0)] * gbar_n + shat[(0, 1, 0)] * fbar_n * self.frame.b00

    def jets(self, f_n, g_n):
        """f_n(0), g_n(0), f_n'(0) and g_n^(L)(0), in the order of x."""
        return [f_n.coeff((0,)), g_n.coeff((0,)), f_n.jet_coeff((1,)),
                g_n.jet_coeff((self.frame.L,))]

    def run(self, a_n0, b_n0, a_n1, b_nL):
        """Candidate (f_n, g_n) plus all order-n constraint values."""
        f_n, g_n, low = self._candidate(self.Rn_chi0, self.RnL, a_n0, b_n0, a_n1, b_nL)
        resid = self._linear(f_n, g_n) + self._antilinear(f_n, g_n) - self.Rn
        # self-consistency of the scalars with the candidate's jets
        consistency = [c - v.conj() for c, v in
                       zip(self.jets(f_n, g_n), (a_n0, b_n0, a_n1, b_nL))]
        return f_n, g_n, resid, low, consistency

    def direction(self, j, f_degree, g_degree):
        """(f, g, low, P, Q) for x = e_j without Rn: the x-linear part of the
        candidate, certified to the given degrees (those of the candidate at
        x = 0), and of ``low``, and the linear and antilinear residual parts.

        In the slots a_n^1 and b_n^L, g is zero and f, ``low`` and Q depend
        on n only through their degrees, which never exceed those at x = 0:
        the frame keeps them from the first order that builds them, and each
        later order cuts f and g to its own degrees and rebuilds only P."""
        kept = self.frame.kept.get(j)
        if kept is None or kept[0].degree < f_degree or kept[1].degree < g_degree:
            x = [EC_ZERO] * 4
            x[j] = EC_ONE
            zero_chi0 = TruncatedSeries.zero(("z",), self.Rn_chi0.degree)
            zero_L = TruncatedSeries.zero(("z",), self.RnL.degree)
            f, g, low = self._candidate(zero_chi0, zero_L, *x)
            kept = (f, g, low, self._antilinear(f, g))
            if j >= 2:
                self.frame.kept[j] = kept
        f, g, low, Q = kept
        f, g = f.truncate(f_degree), g.truncate(g_degree)
        return f, g, low, self._linear(f, g), Q


def _order_system(solver, base):
    """The real system (rows, rhs) for x at one order outside D.

    ``base`` is ``solver.run`` at x = 0.  Column 2j + p belongs to the unit
    u = i^p in slot j, and holds the change u*P_j + conj(u)*Q_j of every
    residual coefficient, u times the ``low`` entries, and u times the jets
    minus conj(u) at the slot's own consistency entry.  Each complex
    constraint gives a real and an imaginary row.  The residual rows are
    read off the integer numerators of P_j, Q_j and the residual at x = 0,
    over one lcm for the whole system: the u = 1 entry is P + Q and the
    u = i entry i(P - Q), written straight into integers.  The few ``low``
    and consistency rows are cleared to integers one lcm per row.
    """
    f_n, g_n, resid0, low0, cons0 = base
    parts, lows, conss = [], [], []
    for j in range(4):
        f, g, low, P, Q = solver.direction(j, f_n.degree, g_n.degree)
        parts.append((P.numerators(), Q.numerators()))
        jets = solver.jets(f, g)
        for u in (EC_ONE, EC_I):
            cons = [u * c for c in jets]
            cons[j] -= u.conj()
            lows.append([u * c for c in low])
            conss.append(cons)
    d0, r0 = resid0.numerators()
    d = math.lcm(d0, *(dv for pq in parts for dv, _ in pq))
    scaled = [(d // dp, P, d // dq, Q) for (dp, P), (dq, Q) in parts]
    # keys are exps + (0,), no coefficient here being an NPoly; the residual
    # also carries -Rn and is certified no further, so P and Q are cut there
    keys = sorted(r0.keys() | {k for pq in parts for _, num in pq for k in num
                               if sum(k[:-1]) <= resid0.degree})
    rows, rhs = [], []
    m0 = d // d0
    for k in keys:
        re, im = [], []
        for mp, P, mq, Q in scaled:
            pa, pb = P.get(k, (0, 0))
            qa, qb = Q.get(k, (0, 0))
            pa, pb, qa, qb = pa * mp, pb * mp, qa * mq, qb * mq
            re += (pa + qa, qb - pb)
            im += (pb + qb, pa - qa)
        a0, b0 = r0.get(k, (0, 0))
        rows += (re, im)
        rhs += (-a0 * m0, -b0 * m0)
    complex_rows = [[col[i] for col in lows] + [c] for i, c in enumerate(low0)]
    complex_rows += [[col[i] for col in conss] + [c] for i, c in enumerate(cons0)]
    for values in complex_rows:
        for part in split_parts(values)[1:]:
            rows.append(part[:-1])
            rhs.append(-part[-1])
    return rows, rhs


def reconstruct(M: Hypersurface, Mhat: Hypersurface, jet: JetData,
                order: int, D) -> FormalMap:
    """Rebuild an equivalence M -> Mhat from its jet data, to w-order `order`.

    For n not in D the order-n scalars are forced: the mapping identity at
    order n, together with divisibility and jet self-consistency, gives an
    exact linear system with a unique solution: one run of the solver at
    x = 0 and four complex-linear directions, one per slot of x, build it,
    and a fraction-free solve gives x.  For n in the exceptional set D the
    jet supplies x.  Either way a final run at x proves it: its residual,
    low part and consistency entries must all vanish.

    When Mhat's Theta is M's (same variables, same truncation degree, equal
    coefficients) the target is read through M: Q and S come from one solve
    and one cross-check, and f_0's unit root is built once.
    """
    if order < 0:
        raise EquivalenceError(f"reconstruction order must be nonnegative, got {order}")
    Mhat = _one_surface(M, Mhat)
    f0, at_f0 = f0_from_jet(M, Mhat, jet.a01)
    f_parts = [f0]
    g_parts = [TruncatedSeries(("z",), f0.degree, {(0,): jet.b00})]
    if order == 0:
        return FormalMap(f_parts, g_parts)
    # the Shat table, the tau-slices of S and the powers of S(z,chi,0) grow
    # with the orders reached, so a large ``order`` costs nothing up front
    shat, shat_jets = {}, []
    for _ in range(2):
        _add_shat_layer(shat, shat_jets, Mhat, at_f0)
    frame = _Frame(M.invariants.L, M.invariants.K, jet.b00, shat)
    s_slices = [M.S.slice("tau", 0)]
    S0 = S0_n = s_slices[0]                # S0_n = S(z,chi,0)^n
    zero4 = (EC_ZERO,) * 4
    for n in range(1, order + 1):
        if n > 1:
            _add_shat_layer(shat, shat_jets, Mhat, at_f0)
        s_slices.append(M.S.slice("tau", n))
        S0_n1 = S0_n * S0
        Rn = universal_pn(n, f_parts, g_parts, s_slices, shat)
        solver = _OrderSolver(frame, Rn, S0_n, S0_n1)
        inconsistent = f"jet not realizable: order-{n} system inconsistent"
        if n in D:
            x = jet.lambdas.get(n, zero4)
        else:
            base = solver.run(*zero4)
            try:
                sol, free = solve_rational(*_order_system(solver, base))
            except InconsistentSystem as exc:
                raise JetRealizationError(inconsistent) from exc
            if free:
                raise EquivalenceError(
                    f"order-{n} scalars not forced although {n} is not in D: the "
                    f"order-{n} identity is only certified to degree "
                    f"{base[2].degree}, which can starve the rank; rebuild the "
                    "hypersurfaces with a larger truncation degree "
                    f"(free directions {free})")
            x = tuple(ExactComplex(sol[2 * j], sol[2 * j + 1]) for j in range(4))
        f_n, g_n, resid, low, consistency = solver.run(*x)
        if not resid.is_zero() or any(not c.is_zero() for c in low + consistency):
            raise JetRealizationError(inconsistent)
        f_parts.append(f_n)
        g_parts.append(g_n)
        S0_n = S0_n1
    return FormalMap(f_parts, g_parts)


def finite_determination_check(M, Mhat, H1: FormalMap, H2: FormalMap, k: int):
    """Two verified equivalences with equal k-jets must agree entirely.

    H2 is verified only when its (f(z,w), g(z,w)) at the verification degree
    differ from H1's (``_same_series``), since ``verify_map`` reads nothing
    else of a map; an identical pair shares one residual.  A self-map's
    target is read through M, as in ``verify_map``."""
    Mhat = _one_surface(M, Mhat)
    r1 = verify_map(M, Mhat, H1)
    degree = _verification_degree(M, Mhat)
    same = all(map(_same_series, H1.as_two_variable(degree), H2.as_two_variable(degree)))
    r2 = r1 if same else verify_map(M, Mhat, H2)
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
    at_A = Substitution(("z", "w"), {"z": fA, "w": w * gA}, degree)
    first = at_A(fH)
    second = gA * at_A(gH)
    return FormalMap(_components(first, "w"), _components(second, "w"))
