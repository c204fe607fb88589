"""Normal-form hypersurface ingestion, derived series, and invariants.

A hypersurface germ in C^2 is given in normal coordinates as

    Im w = Theta(z, zbar, Re w),    Theta(z,0,s) = Theta(0,chi,s) = 0,

with Theta a real truncated series in (z, chi, s).  ``validate`` checks it
and derives the slice theta = Theta_s(z,chi,0), with chi-components
theta_j(z), and the invariant tuple (m, r, L, K, T).  The graph form
w = Q(z, chi, tau) and its 1-infinite-type factor S = Q/tau are derived on
first read: Q = 2 s - tau for the root s = (Q + tau)/2 of
-i(s - tau) - Theta(z, chi, s), which ``series.implicit_solve`` finds by
Newton iteration.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import ValidationError
from .scalars import EC_I, ExactComplex, factorial
from .series import TruncatedSeries, implicit_solve, kth_root_unit

THETA_VARS = ("z", "chi", "s")
ZC = ("z", "chi")


class InvariantTuple(namedtuple("InvariantTuple", "m r L K T certified_to_degree")):
    __slots__ = ()

    def as_dict(self):
        return self._asdict()


class Hypersurface(namedtuple("Hypersurface", "Theta theta invariants")):
    """Validated normal-form data plus everything derived from it.

    Q and S are derived on first read: one ``implicit_solve`` whose result
    ``_cross_check`` proves before either is returned, then kept.
    """

    @cached_property
    def _graph(self):
        """(Q, S): with s = (w + tau)/2 the graph equation (w - tau)/2i =
        Theta(z, chi, s) reads -i(s - tau) - Theta(z, chi, s) = 0, a plain
        series over (z, chi, s, tau) whose root s(z, chi, tau)
        ``implicit_solve`` gives.  Then Q = 2s - tau, with tau over
        (z, chi, tau) as the s^0 slice of the variable tau, and S = Q/tau."""
        Theta, V = self.Theta, THETA_VARS + ("tau",)
        s, tau = (TruncatedSeries.var(v, V, Theta.degree) for v in ("s", "tau"))
        Q = implicit_solve((tau - s) * EC_I - Theta.embed(V), "s") * 2 - tau.slice("s", 0)
        S = Q.shift("tau", 1)
        _cross_check(Q, S, self.theta, self.invariants.m)
        return Q, S

    @property
    def Q(self) -> TruncatedSeries:
        return self._graph[0]

    @property
    def S(self) -> TruncatedSeries:
        return self._graph[1]

    # convenient views -----------------------------------------------------------
    def theta_j(self, j: int) -> TruncatedSeries:
        """theta_j(z) with theta(z,chi) = sum theta_j(z) chi^j / j!."""
        return self.theta.slice("chi", j) * factorial(j)

    def s_tau_jet(self, j: int) -> TruncatedSeries:
        """S_{tau^j}(z,chi,0) = j! * (tau^j slice of S)."""
        return self.S.slice("tau", j) * factorial(j)


def validate(Theta: TruncatedSeries) -> Hypersurface:
    """Check flatness, normality, reality and type; compute theta and the
    invariants.  Normality, then reality, is checked on Theta's integer
    rows (``numerators``); a coefficient is built only for a message.  Q
    and S are not solved for here: the returned Hypersurface derives and
    cross-checks them on first read, so compute_D and everything else that
    reads only theta and the invariants never runs the solve."""
    Theta = Theta.embed(THETA_VARS)

    if Theta.is_zero():
        raise ValidationError("flat: out of scope (Theta is identically zero)")

    # normality: no pure (z,s) or pure (chi,s) terms
    _, num = Theta.numerators()
    for a, b, c, _ in num:
        if a == 0 or b == 0:
            raise ValidationError(
                f"normality violation: term {dict(zip(THETA_VARS, (a, b, c)))} has coefficient "
                f"{Theta.coeff((a, b, c))}, but Theta(z,0,s) = Theta(0,chi,s) = 0 is required")

    # reality: coeff(z^a chi^b s^c) = conj(coeff(z^b chi^a s^c)), rows over one d;
    # a term fails when a row of it or of its mirror has no conjugate row
    bad = {(a, b, c) for (a, b, c, k), (re, im) in num.items()
           if num.get((b, a, c, k), (0, 0)) != (re, -im)}
    for a, b, c, _ in num:
        if (a, b, c) in bad or (b, a, c) in bad:
            raise ValidationError(
                f"reality violation at exponents (z^{a} chi^{b} s^{c}) vs (z^{b} chi^{a} s^{c}): "
                f"{Theta.coeff((a, b, c))} != conj({Theta.coeff((b, a, c))})")

    # type: m = least s-order with a nonzero slice
    m = Theta.var_order("s")
    if m == 0:
        raise ValidationError("finite type: out of scope (Theta(z,chi,0) != 0)")

    theta = Theta.slice("s", 1)  # Theta_s(z,chi,0); for m = 1 this is theta
    return Hypersurface(Theta, theta, _invariants(theta, m, Theta.degree))


def _invariants(theta, m, D) -> InvariantTuple:
    if m != 1:
        # in-scope inputs are 1-infinite type; higher m is reported, not analyzed
        return InvariantTuple(m, None, None, None, None, D)
    L = theta.var_order("chi")
    K = theta.slice("chi", L).order()
    # T = 1 iff theta_{L+1}(z) has z-order >= K - 1 (or vanishes)
    next_order = theta.slice("chi", L + 1).order()
    T = 0 if next_order is not None and next_order < K - 1 else 1
    return InvariantTuple(m, theta.order(), L, K, T, D)


def _cross_check(Q, S, theta, m):
    """Two characterizations of m must agree; for m = 1, S(z,chi,0) =
    (1 + i theta)/(1 - i theta) to theta's degree.  That also gives S's chi^L
    slice as 2i times theta's: theta has chi-order L, so every theta^k with
    k >= 2 starts at chi^(2L)."""
    Qtau = Q - TruncatedSeries.var("tau", Q.variables, Q.degree)
    m_from_q = Qtau.var_order("tau")
    if m_from_q is None:
        raise ValidationError("flat: out of scope (Q = tau identically)")
    if m_from_q != m:
        raise ValidationError(
            f"inconsistent type: m={m} from Theta but tau-order {m_from_q} of Q - tau")
    if m == 1:
        # S(z,chi,0) = Q_tau(z,chi,0) = (1 + i theta)/(1 - i theta)
        # compare S(z,chi,0)*(1-i theta) with (1+i theta): avoids inversion
        s0 = S.slice("tau", 0)
        one = TruncatedSeries.const(ZC, theta.degree, 1)
        if not (s0 * (one - theta * EC_I) - (one + theta * EC_I)).is_zero():
            raise ValidationError("S(z,chi,0) does not match (1+i theta)/(1-i theta)")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def family_mc(c, j: int, degree: int) -> Hypersurface:
    """Theta = c * s * z^j chi^j  (Im w = c Re w |z|^(2j)), c rational != 0."""
    c = Fraction(c)
    if c == 0 or j < 1:
        raise ValidationError("family mc needs rational c != 0 and j >= 1")
    Theta = TruncatedSeries(THETA_VARS, degree, {(j, j, 1): c})
    return validate(Theta)


def family_nb(b, j: int, degree: int) -> Hypersurface:
    """theta = b z chi^j + conj(b) z^j chi  (Im w = 2 Re w Re(b z zbar^j))."""
    b = ExactComplex.coerce(b)
    if b.is_zero() or j < 1:
        raise ValidationError("family nb needs b != 0 and j >= 1")
    terms = {(1, j, 1): b}
    if j == 1:
        terms[(1, 1, 1)] = b + b.conj()   # the two displays coincide
    else:
        terms[(j, 1, 1)] = b.conj()
    if any(c.is_zero() for c in terms.values()):
        raise ValidationError("family nb with j = 1 needs Re b != 0")
    Theta = TruncatedSeries(THETA_VARS, degree, terms)
    return validate(Theta)


def family_b0(degree: int) -> Hypersurface:
    """theta = (1 - sqrt(1 - 4 z^2 chi^2)) / (2 z chi), Catalan coefficients."""
    z = TruncatedSeries.var("z", ZC, degree + 2)
    chi = TruncatedSeries.var("chi", ZC, degree + 2)
    root = kth_root_unit(1 - (z * chi) ** 2 * 4, 2)
    theta = (1 - root).shift("z", 1).shift("chi", 1) * Fraction(1, 2)
    Theta = TruncatedSeries.from_slices("s", [TruncatedSeries.zero(ZC, degree), theta], degree)
    return validate(Theta)
