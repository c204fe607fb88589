"""Normal-form hypersurface ingestion, derived series, and invariants.

A hypersurface germ in C^2 is given in normal coordinates as

    Im w = Theta(z, zbar, Re w),    Theta(z,0,s) = Theta(0,chi,s) = 0,

with Theta a real truncated series in (z, chi, s).  From it we derive the
graph form w = Q(z, chi, tau), its 1-infinite-type factor S = Q/tau, the
slice theta = Theta_s(z,chi,0) with chi-components theta_j(z), and the
invariant tuple (m, r, L, K, T).

Q is the fixed point of Q <- tau + 2i Theta(z, chi, (Q + tau)/2), iterated
with staged precision: normality makes each pass gain two degrees, so pass
k only needs to work to degree min(D, 2 + 2k).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EC_I, ExactComplex, factorial
from .series import TruncatedSeries, compose, divide, kth_root_unit

THETA_VARS = ("z", "chi", "s")
ZC = ("z", "chi")
GRAPH_VARS = ("z", "chi", "tau")


class ValidationError(ValueError):
    """Input rejected: not a valid in-scope normal-form hypersurface."""


class InvariantTuple:
    __slots__ = ("m", "r", "L", "K", "T", "certified_to_degree")

    def __init__(self, m, r, L, K, T, certified_to_degree):
        self.m = m
        self.r = r
        self.L = L
        self.K = K
        self.T = T
        self.certified_to_degree = certified_to_degree

    def as_dict(self):
        return {"m": self.m, "r": self.r, "L": self.L, "K": self.K, "T": self.T,
                "certified_to_degree": self.certified_to_degree}

    def __repr__(self):
        return (f"InvariantTuple(m={self.m}, r={self.r}, L={self.L}, K={self.K}, "
                f"T={self.T}, certified_to_degree={self.certified_to_degree})")


class Hypersurface:
    """Validated normal-form data plus everything derived from it."""

    def __init__(self, Theta, Q, S, theta, invariants):
        self.Theta = Theta
        self.Q = Q
        self.S = S
        self.theta = theta
        self.invariants = invariants

    # convenient views -----------------------------------------------------------
    def theta_j(self, j: int) -> TruncatedSeries:
        """theta_j(z) with theta(z,chi) = sum theta_j(z) chi^j / j!."""
        return self.theta.slice("chi", j) * factorial(j)

    def S0(self) -> TruncatedSeries:
        """S(z,chi,0) as a series in (z,chi)."""
        return self.S.slice("tau", 0)

    def s_tau_jet(self, j: int) -> TruncatedSeries:
        """S_{tau^j}(z,chi,0) = j! * (tau^j slice of S)."""
        return self.S.slice("tau", j) * factorial(j)


def validate(Theta: TruncatedSeries) -> Hypersurface:
    """Check normality/reality, derive Q and S, compute invariants.

    Q comes from the staged fixed point of ``_graph_function`` (one
    ``compose`` of Theta at s = (Q + tau)/2 per pass, two degrees gained per
    pass), S = Q/tau.
    """
    if tuple(Theta.variables) != THETA_VARS:
        Theta = Theta.embed(THETA_VARS)
    D = Theta.degree

    if Theta.is_zero():
        raise ValidationError("flat: out of scope (Theta is identically zero)")

    # normality: no pure (z,s) or pure (chi,s) terms
    for exps, c in Theta.coeffs.items():
        a, b, _ = exps
        if a == 0 or b == 0:
            raise ValidationError(
                f"normality violation: term {dict(zip(THETA_VARS, exps))} has "
                f"coefficient {c}, but Theta(z,0,s) = Theta(0,chi,s) = 0 is required")

    # reality: coeff(z^a chi^b s^c) = conj(coeff(z^b chi^a s^c))
    for (a, b, c), coeff in Theta.coeffs.items():
        mirror = Theta.coeff((b, a, c))
        if not (coeff - mirror.conj()).is_zero():
            raise ValidationError(
                f"reality violation at exponents (z^{a} chi^{b} s^{c}) vs (z^{b} chi^{a} s^{c}): "
                f"{coeff} != conj({mirror})")

    # type: m = least s-order with a nonzero slice
    m = min(e[2] for e in Theta.coeffs)
    if m == 0:
        raise ValidationError("finite type: out of scope (Theta(z,chi,0) != 0)")

    Q = _graph_function(Theta)
    S = divide(Q, TruncatedSeries.var("tau", GRAPH_VARS, Q.degree))

    theta = Theta.slice("s", 1)  # Theta_s(z,chi,0); for m = 1 this is theta

    invariants = _invariants(Theta, theta, m, D)
    M = Hypersurface(Theta, Q, S, theta, invariants)
    _cross_check(M)
    return M


def _graph_function(Theta: TruncatedSeries) -> TruncatedSeries:
    """Q(z, chi, tau), the solution w of (w - tau)/2i = Theta(z, chi, (w + tau)/2).

    Q is the fixed point of Q <- tau + 2i Theta(z, chi, (Q + tau)/2), and
    each pass gains two degrees: normality gives every term z^a chi^b s^c
    of Theta a >= 1 and b >= 1, so an error of order >= p - 1 in s moves
    Theta(z, chi, s) only in orders >= (p - 1) + 2 = p + 1.  Hence a Q exact
    through degree p - 2 maps to one exact through degree p.  Q = tau is
    exact through degree 2 (Theta has order >= 3), and pass k runs at
    precision p = min(D, 2 + 2k), with Theta and Q truncated or lifted to
    p, so only the last pass works at the full degree D (the cheap half of
    Brent-Kung precision doubling).  ``compose`` keeps z and chi and puts
    the variables of its argument in place of s, so each pass gives Q over
    (z, chi, tau).
    """
    D = Theta.degree
    Q = TruncatedSeries.var("tau", GRAPH_VARS, 2)
    half = Fraction(1, 2)
    two_i = EC_I * 2
    p = 2
    while p < D:
        p = min(D, p + 2)
        # truncate never raises a degree: lift Q to p through the constructor
        tau = TruncatedSeries.var("tau", GRAPH_VARS, p)
        Q = TruncatedSeries(GRAPH_VARS, p, Q.coeffs)
        Q = tau + compose(Theta.truncate(p), {"s": (Q + tau) * half}) * two_i
    return Q


def _invariants(Theta, theta, m, D) -> InvariantTuple:
    if m != 1:
        # in-scope inputs are 1-infinite type; higher m is reported, not analyzed
        return InvariantTuple(m, None, None, None, None, D)
    support = list(theta.coeffs)
    r = min(a + b for a, b in support)
    L = min(b for _, b in support)
    K = min(a for a, b in support if b == L)
    # T = 1 iff theta_{L+1}(z) has z-order >= K - 1
    T = 1
    for a, b in support:
        if b == L + 1 and a < K - 1:
            T = 0
            break
    return InvariantTuple(m, r, L, K, T, D)


def _cross_check(M: Hypersurface):
    """Independent characterizations of m and the S slices must agree."""
    inv = M.invariants
    Qtau = M.Q - TruncatedSeries.var("tau", M.Q.variables, M.Q.degree)
    m_from_q = Qtau.var_order("tau")
    if m_from_q is None:
        raise ValidationError("flat: out of scope (Q = tau identically)")
    if m_from_q != inv.m:
        raise ValidationError(
            f"inconsistent type: m={inv.m} from Theta but tau-order {m_from_q} of Q - tau")
    if inv.m == 1:
        # Q_tau(z,chi,0) = (1 + i theta)/(1 - i theta)
        # compare Q_tau(z,chi,0)*(1-i theta) with (1+i theta): avoids inversion
        one = TruncatedSeries.const(ZC, M.theta.degree, 1)
        lhs = M.Q.slice("tau", 1) * (one - M.theta * EC_I)
        if not (lhs - (one + M.theta * EC_I)).is_zero():
            raise ValidationError("S(z,chi,0) does not match (1+i theta)/(1-i theta)")
        # S_{chi^L}(z,0,0) = 2i theta_L(z)
        L = inv.L
        s0 = M.S0()
        slice_L = s0.slice("chi", L) * factorial(L)
        if not (slice_L - M.theta_j(L) * (EC_I * 2)).is_zero():
            raise ValidationError("S_(chi^L)(z,0,0) != 2i theta_L(z)")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def family_mc(c, j: int, degree: int) -> Hypersurface:
    """Theta = c * s * z^j chi^j  (Im w = c Re w |z|^(2j)), c rational != 0."""
    c = Fraction(c)
    if c == 0 or j < 1:
        raise ValidationError("family mc needs rational c != 0 and j >= 1")
    Theta = TruncatedSeries(THETA_VARS, degree, {(j, j, 1): ExactComplex(c)})
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
    one = TruncatedSeries.const(ZC, degree + 2, 1)
    z = TruncatedSeries.var("z", ZC, degree + 2)
    chi = TruncatedSeries.var("chi", ZC, degree + 2)
    root = kth_root_unit(one - (z * chi) ** 2 * 4, 2)
    theta = divide(one - root, z * chi * 2)
    Theta = TruncatedSeries(THETA_VARS, degree,
                            {(a, b, 1): c for (a, b), c in theta.coeffs.items()})
    return validate(Theta)
