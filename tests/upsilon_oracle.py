"""Direct construction of the Upsilon family, kept as an oracle.

``build_upsilon`` here builds every chi-side factor from scratch, with its own
conjugations and divisions by conj(theta_L)', as the family was first
written.  ``crjet.upsilon.build_upsilon`` gets the chi side by mirroring the
z side instead; ``test_upsilon.py`` checks that both give the same four
components, coefficient types included.

At a fixed integer n this oracle builds the family directly over
``ExactComplex``, with P^n the n-th power of (1 + i theta)/(1 - i theta),
while ``crjet`` evaluates its symbolic family at n: the independent fixed-n
reference of acceptance criterion 10 and of the rank-scan tests.  For
symbolic n it builds P as exp(n a), a the logarithm of the quotient, while
``crjet`` sums the powers of i theta with the weights of P's integer
recurrence.

``xi_determinants`` and ``dim_Vn`` here are the determinants and the rank
scan over ``ExactComplex`` and ``NPoly`` coefficients, as they were first
written, the xi matrix read by ``xi_rows`` through ``jet_coeff``.  This
``dim_Vn`` scans a fixed-n family densely: every (s, t) with s, t within
the bound, zero rows included, in (s + t, s) order, by ``coeff``.
``crjet`` runs both over the Gaussian integers, from one jet view of the
symbolic family: its scan evaluates the jets at n0, visits only the (s, t)
some component holds and skips the rows that are zero there.
``test_upsilon.py`` checks that the ranks, the pivots and the determinants
agree, and that ``compute_D`` reports them at every candidate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count

from crjet.scalars import EC_I, ExactComplex, NPoly
from crjet.series import SeriesError, TruncatedSeries, divide, inverse_unit, power_series
from crjet.upsilon import SYMBOLIC, UpsilonError, UpsilonFamily, _xi_keys

ZC = ("z", "chi")


def _delta1(x) -> int:
    return 1 if x == 1 else 0


def pn_series(theta, n_mode):
    """((1 + i theta)/(1 - i theta))^n, the n-th power of the quotient for an
    integer n.

    For symbolic n, exp(n a) with a = log((1 + x)/(1 - x)) = sum over odd k
    of 2 x^k / k at x = i theta, one ``power_series``: a^m has order
    m * ord(x), so the n^m coefficient of P is a^m / m! for m <= D // ord(x).
    ``crjet`` reads P off the integer recurrence of its coefficients in x
    instead.
    """
    x = theta * EC_I
    one = TruncatedSeries.const(theta.variables, theta.degree, 1)
    if n_mode == SYMBOLIC:
        a = power_series(x, (Fraction(2, k) if k % 2 else 0 for k in count()))
        parts = [one]
        for m in range(1, x.degree // x.order() + 1):
            parts.append(parts[-1] * a * Fraction(1, m))      # a^m / m!
        keys = set().union(*(part.coeffs for part in parts))
        return TruncatedSeries(theta.variables, theta.degree,
                               {e: NPoly([part.coeff(e) for part in parts]) for e in keys})
    n = int(n_mode)
    if n < 0:
        raise UpsilonError("n must be a nonnegative integer")
    base = (one + x) * inverse_unit(one - x)
    return base ** n


def build_upsilon(M, n_mode):
    """(Upsilon^n_1, ..., Upsilon^n_4), each side derived and divided on its own."""
    inv = M.invariants
    if inv.m != 1:
        raise UpsilonError("Upsilon family requires a 1-infinite-type hypersurface")
    L, K, T = inv.L, inv.K, inv.T
    theta = M.theta
    D = theta.degree

    if n_mode == SYMBOLIC:
        n_scalar = NPoly.n()
    else:
        n_scalar = ExactComplex.coerce(int(n_mode))
    two_i_n = n_scalar * (EC_I * 2)

    one = TruncatedSeries.const(ZC, D, 1)
    P = pn_series(theta, n_mode)
    theta_z = theta.differentiate("z")
    theta_chi = theta.differentiate("chi")
    one_plus_theta2 = one + theta * theta

    thL = M.theta_j(L)                       # series in z, order exactly K
    thL_prime = thL.differentiate("z")
    thL_bar = thL.conjugate(rename={"z": "chi"})
    thL_bar_prime = thL_bar.differentiate("chi")

    def emb(s):
        return s.embed(ZC)

    try:
        ratio_z = emb(divide(thL, thL_prime))          # theta_L / theta_L'
        ratio_chi = emb(divide(thL_bar, thL_bar_prime))
    except SeriesError as exc:
        raise UpsilonError(f"Upsilon construction: non-series quotient ({exc})") from exc

    U1 = ratio_z * P * theta_z * K - ratio_chi * theta_chi * L
    U2 = one_plus_theta2 * (P - one) - ratio_chi * theta_chi * two_i_n

    d1K, d1L, d1T = _delta1(K), _delta1(L), _delta1(T)
    alpha = thL.jet_coeff((K,))              # theta_L^(K)(0) != 0

    zero = TruncatedSeries.zero(ZC, D)
    if d1T:
        th1 = M.theta_j(1)
        th1_bar = th1.conjugate(rename={"z": "chi"})
        thL1 = M.theta_j(L + 1)
        thL1_bar = thL1.conjugate(rename={"z": "chi"})
        beta = thL1.jet_coeff((K - 1,))      # theta_{L+1}^(K-1)(0)
        c2 = (thL.jet_coeff((K,)) * thL1.jet_coeff((K,))
              - thL.jet_coeff((K + 1,)) * thL1.jet_coeff((K - 1,))) \
            * L * (alpha * alpha * K).inverse()
        if d1K:
            t1 = divide(theta_chi, thL_bar_prime.embed(ZC)) * th1.jet_coeff((L,))
        else:
            t1 = zero
        t2 = ratio_chi * theta_chi * c2
        q_L1_z = emb(divide(thL1, thL_prime))
        q_11_z = emb(divide(th1 * th1, thL_prime))
        q_L1_chi = emb(divide(thL1_bar, thL_bar_prime))
        q_11_chi = emb(divide(th1_bar * th1_bar, thL_bar_prime))
        t3 = -(P * (emb(th1) * one_plus_theta2
                    + (q_L1_z - q_11_z * two_i_n) * theta_z))
        t4 = (emb(th1_bar) * one_plus_theta2
              + (q_L1_chi + q_11_chi * two_i_n) * theta_chi) \
            * (beta * alpha.inverse())
        tilde3 = t1 + t2 + t3 + t4
    else:
        tilde3 = zero
    U3 = tilde3 * d1L

    if d1K:
        # K = 1 forces L = T = 1; theta_1' is a unit
        th1 = M.theta_j(1)
        th1_bar = th1.conjugate(rename={"z": "chi"})
        th1_prime = th1.differentiate("z")
        th1_bar_prime = th1_bar.differentiate("chi")
        a1 = th1.jet_coeff((1,))             # theta_1'(0) = alpha
        a2 = th1.jet_coeff((2,))             # theta_1''(0)
        inv_a1 = a1.inverse()
        U4 = (emb(th1_bar) * one_plus_theta2 * inv_a1
              - emb(divide(theta_z, th1_prime.embed(ZC))) * P
              + theta_chi * inv_a1
              * (emb(divide(th1_bar * th1_bar, th1_bar_prime)) * two_i_n
                 + emb(divide(M.theta_j(2).conjugate(rename={"z": "chi"}),
                              th1_bar_prime))
                 - emb(divide(th1_bar, th1_bar_prime)) * (a2 * inv_a1)))
    else:
        U4 = zero

    return UpsilonFamily(n_mode, [U1, U2, U3, U4], L, K, T)


def xi_rows(U):
    """Rows upsilon_{2K,2L}, upsilon_{3K,3L}, upsilon_{3K,2L}, upsilon_{2K,3L}."""
    return [[c.jet_coeff(key) for c in U.components] for key in _xi_keys(U)]


def xi_determinants(U):
    """det of the upper-left j x j submatrix of xi(n), j = 2, 3, 4, by the
    shared-minor Laplace expansion on ``NPoly`` entries."""
    if U.n_mode != SYMBOLIC:
        raise UpsilonError("xi_determinants requires a symbolic family")
    rows = [[NPoly.coerce(c) for c in r] for r in xi_rows(U)]
    minor = {(c,): rows[0][c] for c in range(4)}
    for r in range(1, 4):
        for cols in combinations(range(4), r + 1):
            acc = NPoly()
            for q, c in enumerate(cols):
                term = rows[r][c] * minor[cols[:q] + cols[q + 1:]]
                acc = acc - term if (r + q) % 2 else acc + term
            minor[cols] = acc
    return {j: minor[tuple(range(j))] for j in (2, 3, 4)}


class ExactRankTracker:
    """Incremental row reduction over ExactComplex, each stored row scaled
    to pivot 1."""

    def __init__(self):
        self.rows = []      # echelon rows: (pivot_col, row)
        self.labels = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, vec, label=None) -> bool:
        vec = list(ExactComplex.coerce(c) for c in vec)
        for pivot_col, row in self.rows:
            c = vec[pivot_col]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        for j, c in enumerate(vec):
            if not c.is_zero():
                inv = c.inverse()
                self.rows.append((j, [a * inv for a in vec]))
                self.labels.append(label)
                return True
        return False


def dim_Vn(U, scan_bound: int):
    """(rank, pivot (s,t) list) of the coefficient vectors with
    s, t <= scan_bound of a fixed-n family, read coefficient by coefficient
    and reduced over ExactComplex."""
    if U.n_mode == SYMBOLIC:
        raise UpsilonError("dim_Vn scans a fixed-n family; evaluate it with eval_n")
    tracker = ExactRankTracker()
    deg = U.degree
    for total in range(0, min(2 * scan_bound, deg) + 1):
        for s in range(max(0, total - scan_bound), min(total, scan_bound) + 1):
            key = (s, total - s)
            tracker.add_row([c.coeff(key) for c in U.components], label=key)
        if tracker.rank == 4:
            break
    return tracker.rank, list(tracker.labels)
