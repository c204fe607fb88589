"""The Upsilon family, jet-span dimensions, the exceptional set D, and jet order k.

For a validated 1-infinite-type hypersurface with slice invariants (L, K, T)
we build four series Upsilon^n_1..4 in (z, chi), symbolically in n: every
coefficient is a polynomial in n (NPoly).  The span V^n of the jet vectors

    upsilon^n_{s,t} = (Upsilon^n)_{z^s chi^t}(0, 0)  in C^4

has dimension < gamma := 2 + d1K + d1L*d1T exactly for n in the exceptional
set D, which is finite; the jet order k is read off from D.

The family is built from P^n = ((1 + i theta)/(1 - i theta))^n, written as
exp(n a) with a = 2 artanh(i theta): the n^m part of P is a^m / m!, so only
products of series with ``ExactComplex`` coefficients are taken.  The family
at a fixed n, asked for directly or by the rank scan that settles each
candidate n, is the symbolic family evaluated there (``eval_n``).  theta is
real, so every chi-side factor of Upsilon is the mirror of a z-side one (z
and chi swapped, coefficients conjugated), and only the z side is divided.

Both integer readers take the components' rows from ``numerators``, keyed
(s, t, k) for n^k, without building a coefficient object: the leading
minors of the xi matrix come from one shared-minor expansion over Z[i][n],
each minor summing its signed terms in one pass, and the rank scan reduces
over Z[i] (``RankTracker``).  Both are exact and give what the same steps
over the Gaussian rationals give.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, count

from .errors import UpsilonError
from .linalg import RankTracker
from .scalars import EC_I, NPoly, factorial, from_numerators, integer_roots
from .series import TruncatedSeries, inverse_unit, n_graded, power_series

ZC = ("z", "chi")

SYMBOLIC = "symbolic"


def _delta1(x) -> int:
    return 1 if x == 1 else 0


class UpsilonFamily:
    __slots__ = ("n_mode", "components", "L", "K", "T")

    def __init__(self, n_mode, components, L, K, T):
        self.n_mode = n_mode
        self.components = components
        self.L = L
        self.K = K
        self.T = T

    @property
    def degree(self) -> int:
        return min(c.degree for c in self.components)

    def eval_n(self, n0: int) -> "UpsilonFamily":
        """Specialize a symbolic family at an integer value of n."""
        if self.n_mode != SYMBOLIC:
            raise UpsilonError("eval_n requires a symbolic family")
        return UpsilonFamily(n0, [c.eval_n(n0) for c in self.components],
                             self.L, self.K, self.T)


def pn_series(theta: TruncatedSeries) -> TruncatedSeries:
    """((1 + i theta)/(1 - i theta))^n as a series in (z, chi), symbolic in n.

    Write x = i theta.  Then P = exp(n a) with a = log((1 + x)/(1 - x)) =
    sum over odd k of 2 x^k / k, the ``power_series`` of these coefficients
    at x.  a^m has order m * ord(x), so P = sum_m n^m a^m / m! over
    m <= D // ord(x), where D is theta's degree.  ``n_graded`` assembles
    the sum in one pass.  Every coefficient of P is an ``NPoly``, and every
    product on the way has ``ExactComplex`` coefficients.
    """
    if theta.is_zero():
        raise UpsilonError("theta vanishes identically")
    x = theta * EC_I
    a = power_series(x, (Fraction(2, k) if k % 2 else 0 for k in count()))
    parts = [TruncatedSeries.const(x.variables, x.degree, 1)]
    for m in range(1, x.degree // x.order() + 1):
        parts.append(parts[-1] * a * Fraction(1, m))      # a^m / m!
    return n_graded(parts)


def _mirror(s: TruncatedSeries) -> TruncatedSeries:
    """The chi-side twin of a series in (z, chi): swap z and chi, conjugate
    every coefficient (``NPoly.conj`` keeps the real n fixed)."""
    return s.conjugate(rename={"z": "chi", "chi": "z"}).embed(ZC)


def build_upsilon(M, n_mode) -> UpsilonFamily:
    """Construct (Upsilon^n_1, ..., Upsilon^n_4), for ``n_mode`` SYMBOLIC or
    a nonnegative integer n; the family at n is the symbolic one's ``eval_n``.

    theta is real, so each chi-side factor is the ``_mirror`` of a z-side one
    built by the same operations in the same order, which keeps every value
    and coefficient type.  Only z-side numerators are divided by theta_L':
    theta_L, theta_(L+1), theta_1^2 and, for K = 1, theta_z.  K = 1 forces
    L = T = 1, so theta_1 = theta_L and Upsilon_4's quotients are these or
    their mirrors.  theta_L' = z^(K-1) * unit: each quotient shifts by
    z^(K-1), after a check that it is a series, and multiplies by the
    unit's inverse, built once per build.
    """
    if n_mode != SYMBOLIC:
        n = int(n_mode)
        if n < 0:
            raise UpsilonError("n must be a nonnegative integer")
        return build_upsilon(M, SYMBOLIC).eval_n(n)
    inv = M.invariants
    if inv.m != 1:
        raise UpsilonError("Upsilon family requires a 1-infinite-type hypersurface")
    L, K, T = inv.L, inv.K, inv.T
    theta = M.theta
    D = theta.degree
    two_i_n = NPoly.n() * (EC_I * 2)

    one = TruncatedSeries.const(ZC, D, 1)
    P = pn_series(theta)
    theta_z = theta.differentiate("z")
    theta_chi = theta.differentiate("chi")
    one_plus_theta2 = one + theta * theta

    thL = M.theta_j(L)                       # series in z, order exactly K
    d1K, d1L, d1T = _delta1(K), _delta1(L), _delta1(T)

    inv_unit = inverse_unit(thL.differentiate("z").shift("z", K - 1))

    def over_thL_prime(num):
        if not num.is_zero() and num.var_order("z") < K - 1:
            raise UpsilonError("Upsilon construction: non-series quotient by theta_L'")
        return (num.shift("z", K - 1) * inv_unit).embed(ZC)

    ratio_z = over_thL_prime(thL)            # theta_L / theta_L'
    ratio_chi = _mirror(ratio_z)
    ratio_theta_chi = ratio_chi * theta_chi

    U1 = ratio_z * theta_z * K * P - ratio_theta_chi * L
    U2 = one_plus_theta2 * (P - one) - ratio_theta_chi * two_i_n

    alpha = thL.jet_coeff((K,))              # theta_L^(K)(0) != 0

    zero = TruncatedSeries.zero(ZC, D)
    if d1T:
        th1 = M.theta_j(1)
        thL1 = M.theta_j(L + 1)
        beta = thL1.jet_coeff((K - 1,))      # theta_{L+1}^(K-1)(0)
        c2 = (alpha * thL1.jet_coeff((K,))
              - thL.jet_coeff((K + 1,)) * beta) * L * (alpha * alpha * K).inverse()
        t1 = zero
        if d1K:
            q_theta_z = over_thL_prime(theta_z)     # theta_z / theta_1'
            t1 = _mirror(q_theta_z) * th1.jet_coeff((L,))
        t2 = ratio_theta_chi * c2
        q_L1 = over_thL_prime(thL1)
        q_11 = over_thL_prime(th1 * th1)
        th1_sum = th1.embed(ZC) * one_plus_theta2
        bracket = th1_sum + (q_L1 - q_11 * two_i_n) * theta_z
        t3 = -(P * bracket)
        t4 = _mirror(bracket) * (beta * alpha.inverse())
        tilde3 = t1 + t2 + t3 + t4
    else:
        tilde3 = zero
    U3 = tilde3 * d1L

    if d1K:
        # K = 1 forces L = T = 1: th1, q_theta_z, q_L1 and q_11 are in hand
        a2 = th1.jet_coeff((2,))             # theta_1''(0)
        inv_a1 = alpha.inverse()             # theta_1'(0) = alpha
        U4 = (_mirror(th1_sum) * inv_a1
              - q_theta_z * P
              + theta_chi * inv_a1
              * (_mirror(q_11) * two_i_n
                 + _mirror(q_L1)
                 - ratio_chi * (a2 * inv_a1)))
    else:
        U4 = zero

    return UpsilonFamily(SYMBOLIC, [U1, U2, U3, U4], L, K, T)


def gamma_threshold(L: int, K: int, T: int) -> int:
    return 2 + _delta1(K) + _delta1(L) * _delta1(T)


def dim_Vn(U: UpsilonFamily, scan_bound: int):
    """(rank, pivot (s,t) list) of the jet vectors with s, t <= scan_bound,
    for a family at a fixed n.

    Row (s, t) holds the integer numerators of the components at (s, t),
    read by ``numerators`` at the power n^0: entry c is d_c times the
    coefficient of component c, where d_c is that component's denominator,
    and the s! t! of the jet convention is left out.  Scaling a row by a
    nonzero constant, or column c by d_c, changes neither the rank of any
    set of rows nor which rows add rank, so the rank and the pivot labels
    are those of the jet vectors.
    """
    if U.n_mode == SYMBOLIC:
        raise UpsilonError("dim_Vn scans a fixed-n family; evaluate it with eval_n")
    columns = [c.numerators()[1] for c in U.components]
    tracker = RankTracker()
    deg = U.degree
    for total in range(0, min(2 * scan_bound, deg) + 1):
        for s in range(max(0, total - scan_bound), min(total, scan_bound) + 1):
            key = (s, total - s)
            tracker.add_row([col.get(key + (0,), (0, 0)) for col in columns], label=key)
        if tracker.rank == 4:
            break
    return tracker.rank, list(tracker.labels)


def _xi_keys(U: UpsilonFamily):
    """The (s, t) of the xi rows, each checked to lie within U's degree."""
    L, K = U.L, U.K
    keys = [(2 * K, 2 * L), (3 * K, 3 * L), (3 * K, 2 * L), (2 * K, 3 * L)]
    for s, t in keys:
        if s + t > U.degree:
            raise UpsilonError(
                f"xi matrix needs jets to order {s + t}, certified only to {U.degree}")
    return keys


def xi_determinants(U: UpsilonFamily):
    """det of the upper-left j x j submatrix of xi(n), j = 2, 3, 4, as NPoly.

    Row r of xi is s_r! t_r! times the coefficients at its (s_r, t_r).
    ``numerators`` reads each component once: entry (r, c) is d_c times
    component c's polynomial in n at (s_r, t_r), over Z[i] and listed to
    its own top power, d_c the component's denominator.  So det_j is the
    integer determinant times prod_{r<j} s_r! t_r! / prod_{c<j} d_c.  One
    Laplace expansion along the rows shares every minor: the minor on rows
    0..r and a column set S of size r + 1 expands along row r, with sign
    (-1)^(r+q) at the q-th column of S, into minors on rows 0..r-1; its
    signed terms go in one pass into one pair of integer lists, zero entries
    skipped.  The 15 minors over the column subsets of {0, 1, 2, 3} give
    det_2, det_3 and det_4 together, each an ``NPoly`` once, at the end.
    """
    if U.n_mode != SYMBOLIC:
        raise UpsilonError("xi_determinants requires a symbolic family")
    keys = _xi_keys(U)
    dens, nums = zip(*(comp.numerators() for comp in U.components))
    rows = []
    for key in keys:
        tops = [max((k[-1] for k in num if k[:-1] == key), default=-1) for num in nums]
        rows.append([[num.get(key + (k,), (0, 0)) for k in range(top + 1)]
                     for num, top in zip(nums, tops)])
    minor = {(c,): rows[0][c] for c in range(4)}
    for r in range(1, 4):
        for cols in combinations(range(4), r + 1):
            terms = [((-1) ** (r + q), rows[r][c], minor[cols[:q] + cols[q + 1:]])
                     for q, c in enumerate(cols)]
            size = max((len(p) + len(m) - 1 for _, p, m in terms if p and m), default=0)
            re, im = [0] * size, [0] * size
            for sign, p, m in terms:
                for j, (a, b) in enumerate(p):
                    if a or b:
                        a, b = sign * a, sign * b
                        for k, (c, e) in enumerate(m, j):
                            re[k] += a * c - b * e
                            im[k] += a * e + b * c
            minor[cols] = list(zip(re, im))
    dets = {}
    f = den = 1
    for j, (key, d) in enumerate(zip(keys, dens), 1):
        f *= math.prod(map(factorial, key))
        den *= d
        if j > 1:
            # one gcd a coefficient; the zero ones share EC_ZERO, not copies
            rows = {(k, 1): (a * f, b * f)
                    for k, (a, b) in enumerate(minor[tuple(range(j))]) if a or b}
            dets[j] = from_numerators(rows, den).get((), NPoly())
    return dets


class JetAnalysis:
    __slots__ = ("gamma", "D", "k", "vn_dims", "certificates", "xi_dets",
                 "scan_bound")

    def __init__(self, gamma, D, k, vn_dims, certificates, xi_dets, scan_bound):
        self.gamma = gamma
        self.D = D
        self.k = k
        self.vn_dims = vn_dims
        self.certificates = certificates
        self.xi_dets = xi_dets
        self.scan_bound = scan_bound

    def as_dict(self):
        return {
            "gamma": self.gamma,
            "D": sorted(self.D),
            "k": self.k,
            "dims": {str(n): d for n, d in sorted(self.vn_dims.items())},
            "certificates": self.certificates,
            "scan_bound": self.scan_bound,
            "xi_dets": {str(j): str(p) for j, p in sorted(self.xi_dets.items())},
        }

    def __repr__(self):
        return f"JetAnalysis(gamma={self.gamma}, D={sorted(self.D)}, k={self.k})"


def compute_D(M, scan_bound: int | None = None) -> JetAnalysis:
    """Exceptional set D and jet order k.

    The symbolic determinant of the gamma x gamma corner of xi(n) restricts
    the candidates to its integer roots (plus 0, which always belongs); each
    candidate is then settled by an exact rank scan at that fixed n.
    """
    inv = M.invariants
    if inv.m != 1:
        raise UpsilonError("exceptional set requires a 1-infinite-type hypersurface")
    L, K, T = inv.L, inv.K, inv.T
    gamma = gamma_threshold(L, K, T)
    if scan_bound is None:
        scan_bound = 3 * K + 3 * L + 2

    U = build_upsilon(M, SYMBOLIC)
    dets = xi_determinants(U)
    det_gamma = dets[gamma]
    if det_gamma.is_zero():
        raise UpsilonError(
            "corner determinant vanishes identically; truncation too small or "
            "input outside the analyzed cases")
    candidates = integer_roots(det_gamma) | {0}

    D, vn_dims, certificates = [], {}, {}
    for n0 in sorted(candidates):
        rank, pivots = dim_Vn(U.eval_n(n0), scan_bound)
        vn_dims[n0] = rank
        if rank < gamma:
            D.append(n0)
            certificates[n0] = {"status": "in D, certified to scan bound",
                                "rank": rank, "scan_bound": scan_bound}
        else:
            certificates[n0] = {"status": "excluded, rank certificate",
                                "rank": rank,
                                "pivots": [list(p) for p in pivots[:gamma]]}

    if 0 not in D:
        raise UpsilonError("0 must belong to D; rank scan disagrees (bug)")
    if len(D) > 2 * gamma:
        raise UpsilonError(
            f"|D| = {len(D)} exceeds the bound {2 * gamma}; implementation bug")

    if D == [0]:
        k = 1
    else:
        k = 1 + _delta1(K) + max(D)
    return JetAnalysis(gamma, D, k, vn_dims, certificates, dets, scan_bound)
