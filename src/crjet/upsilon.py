"""The Upsilon family, jet-span dimensions, the exceptional set D, and jet order k.

For a validated 1-infinite-type hypersurface with slice invariants (L, K, T)
we build four series Upsilon^n_1..4 in (z, chi), symbolically in n: every
coefficient is a polynomial in n (NPoly).  The span V^n of the jet vectors

    upsilon^n_{s,t} = (Upsilon^n)_{z^s chi^t}(0, 0)  in C^4

has dimension < gamma := 2 + d1K + d1L*d1T exactly for n in the exceptional
set D, which is finite; the jet order k is read off from D.

The family is built from P^n = ((1 + i theta)/(1 - i theta))^n, which
solves (1 - x^2) P' = 2n P in x = i theta: its x^j coefficients follow a
three-term recurrence over Z[n] (``pn_series``).  So every series product
has ``ExactComplex`` coefficients except those with P, at most four, and
each component is one weighted sum (``combine``), n entering through
weights such as -2in.  The family at a fixed n, a nonnegative ``int``, is the
symbolic family evaluated there (``eval_n``).  theta is real, so every
chi-side factor of Upsilon is the mirror of a z-side one (z and chi
swapped, coefficients conjugated), and only the z side is divided.

Both integer readers read one jet view per family (``UpsilonFamily.jets``):
the components' ``numerators`` grouped by (s, t) into Z[i] lists by power
of n, built without a coefficient object.  The leading minors of the xi
matrix come from one shared-minor expansion over Z[i][n], each minor
summing its signed terms in one pass.  The rank scan that settles each
candidate n0 evaluates the view's jets at n0 by Horner's rule, so no
fixed-n family is built, and reduces over Z[i] (``RankTracker``).  Both are
exact and give what the same steps over the Gaussian rationals give.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, zip_longest

from .errors import UpsilonError
from .linalg import RankTracker
from .scalars import EC_I, NPoly, factorial, from_numerators, integer_roots
from .series import TruncatedSeries, combine, inverse_unit

ZC = ("z", "chi")

SYMBOLIC = "symbolic"


def _delta1(x) -> int:
    return 1 if x == 1 else 0


def _order_n(n) -> int:
    """n, refused unless a nonnegative ``int`` (``bool`` is not one)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise UpsilonError(f"n must be a nonnegative integer, got {n!r}")
    return n


class UpsilonFamily(namedtuple("UpsilonFamily", "n_mode components L K T")):
    @cached_property
    def jets(self):
        """``(dens, {(s, t): rows})``, the components' integer jets, read off
        ``numerators`` once per family: rows[c] lists the Z[i] numerators of
        component c at z^s chi^t by power of n, up to its top power (empty
        where c has no term), over c's denominator dens[c].  The keys are
        the (s, t) some component holds, in (s + t, s) order."""
        dens, nums = zip(*(c.numerators() for c in self.components))
        jets = defaultdict(lambda: [[] for _ in nums])
        for c, num in enumerate(nums):
            for (s, t, k), v in num.items():
                row = jets[s, t][c]
                row.extend([(0, 0)] * (k + 1 - len(row)))
                row[k] = v
        return dens, dict(sorted(jets.items(), key=lambda j: (sum(j[0]), j[0])))

    @property
    def degree(self) -> int:
        return min(c.degree for c in self.components)

    def eval_n(self, n0: int) -> "UpsilonFamily":
        """Specialize a symbolic family at a nonnegative integer n0."""
        if self.n_mode != SYMBOLIC:
            raise UpsilonError("eval_n requires a symbolic family")
        return UpsilonFamily(_order_n(n0), [c.eval_n(n0) for c in self.components],
                             self.L, self.K, self.T)


def pn_series(theta: TruncatedSeries) -> TruncatedSeries:
    """((1 + i theta)/(1 - i theta))^n as a series in (z, chi), symbolic in n.

    With x = i theta, P = sum_j p_j(n) x^j solves (1 - x^2) P' = 2n P, whose
    x^j coefficient reads (j + 1) p_(j+1) = 2n p_j + (j - 1) p_(j-1).  So
    q_j = j! p_j lies in Z[n]: q_0 = 1, q_1 = 2n and q_(j+1) = 2n q_j +
    j (j - 1) q_(j-1).  x^j has order j * ord(x), so P is one ``combine`` of
    the x^j, j <= D // ord(x) for theta's degree D, weighted q_j / j!: each
    product is n-free, and every coefficient of P is an ``NPoly``.
    """
    if theta.is_zero():
        raise UpsilonError("theta vanishes identically")
    x = theta * EC_I
    powers = [TruncatedSeries.const(x.variables, x.degree, 1), x]
    q = [[1], [0, 2]]
    for j in range(1, x.degree // x.order()):
        powers.append(powers[-1] * x)
        q.append([j * (j - 1) * a + 2 * b
                  for a, b in zip_longest(q[-2], [0] + q[-1], fillvalue=0)])
    return combine([(NPoly([Fraction(c, factorial(j)) for c in qj]), xj)
                    for j, (qj, xj) in enumerate(zip(q, powers))])


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
        _order_n(n_mode)
        return build_upsilon(M, SYMBOLIC).eval_n(n_mode)
    inv = M.invariants
    if inv.m != 1:
        raise UpsilonError("Upsilon family requires a 1-infinite-type hypersurface")
    L, K, T = inv.L, inv.K, inv.T
    theta = M.theta
    D = theta.degree
    two_i_n = NPoly([0, EC_I * 2])

    P = pn_series(theta)
    theta_z = theta.differentiate("z")
    theta_chi = theta.differentiate("chi")
    one_plus_theta2 = theta * theta + 1

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

    U1 = combine([(K, ratio_z * theta_z * P), (-L, ratio_theta_chi)])
    U2 = combine([(1, one_plus_theta2 * P), (-1, one_plus_theta2),
                  (-two_i_n, ratio_theta_chi)])

    alpha = thL.jet_coeff((K,))              # theta_L^(K)(0) != 0

    U3 = U4 = TruncatedSeries.zero(ZC, D)
    if d1T:
        th1 = M.theta_j(1)
        thL1 = M.theta_j(L + 1)
        beta = thL1.jet_coeff((K - 1,))      # theta_{L+1}^(K-1)(0)
        c2 = (alpha * thL1.jet_coeff((K,))
              - thL.jet_coeff((K + 1,)) * beta) * L * (alpha * alpha * K).inverse()
        q_L1 = over_thL_prime(thL1)
        q_11 = over_thL_prime(th1 * th1)
        th1_sum = th1.embed(ZC) * one_plus_theta2
        bracket = combine([(1, th1_sum), (1, q_L1 * theta_z), (-two_i_n, q_11 * theta_z)])
        terms = [(c2, ratio_theta_chi), (-1, P * bracket),
                 (beta * alpha.inverse(), _mirror(bracket))]
        if d1K:
            q_theta_z = over_thL_prime(theta_z)     # theta_z / theta_1'
            terms.append((th1.jet_coeff((L,)), _mirror(q_theta_z)))
        U3 = combine([(w * d1L, s) for w, s in terms])

    if d1K:
        # K = 1 forces L = T = 1: theta_1 = theta_L and alpha = theta_1'(0)
        a2 = th1.jet_coeff((2,))             # theta_1''(0)
        inv_a1 = alpha.inverse()
        U4 = combine([(inv_a1, _mirror(bracket)), (-1, q_theta_z * P),
                      (-a2 * inv_a1 * inv_a1, ratio_theta_chi)])

    return UpsilonFamily(SYMBOLIC, [U1, U2, U3, U4], L, K, T)


def gamma_threshold(L: int, K: int, T: int) -> int:
    return 2 + _delta1(K) + _delta1(L) * _delta1(T)


def _at(row, n0: int):
    """The Z[i] numerator at n = n0 of one list by power of n (Horner)."""
    a = b = 0
    for x, y in reversed(row):
        a, b = a * n0 + x, b * n0 + y
    return a, b


def dim_Vn(U: UpsilonFamily, scan_bound: int, n0: int | None = None):
    """(rank, pivot (s,t) list) of the jet vectors with s, t <= scan_bound,
    for a fixed-n family, or for a symbolic family at the integer n0.

    Row (s, t) is ``U.jets`` there at n0: entry c is d_c times component
    c's coefficient, d_c its denominator, the s! t! of the jet convention
    left out.  Scaling a row by a nonzero constant, or column c by d_c,
    changes neither the rank of any set of rows nor which rows add rank.
    Only the (s, t) some component holds are visited, in the dense scan's
    (s + t, s) order; a row zero at n0, which adds no rank and no pivot, is
    skipped, and the scan stops at rank 4.
    """
    if (n0 is None) == (U.n_mode == SYMBOLIC):
        raise UpsilonError("dim_Vn scans a fixed-n family, or a symbolic one at n0")
    x = 0 if n0 is None else _order_n(n0)      # a fixed-n family holds n^0 only
    _, jets = U.jets
    deg = U.degree
    tracker = RankTracker()
    for (s, t), rows in jets.items():
        if s + t > deg:
            break
        if s <= scan_bound and t <= scan_bound:
            vec = [_at(row, x) for row in rows]
            if any(a or b for a, b in vec):
                tracker.add_row(vec, label=(s, t))
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
    Entry (r, c) is ``U.jets``'s list at (s_r, t_r) for component c:
    d_c times component c's polynomial in n there, over Z[i] and listed to
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
    dens, jets = U.jets
    rows = [jets.get(key, [[]] * 4) for key in keys]
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


class JetAnalysis(namedtuple("JetAnalysis",
                              "gamma D k vn_dims certificates xi_dets scan_bound")):
    __slots__ = ()

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
    candidate n0 is then settled by an exact rank scan of the symbolic
    family's jets at n0 (``dim_Vn(U, scan_bound, n0)``).
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
        rank, pivots = dim_Vn(U, scan_bound, n0)
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
