"""Partition-sum oracles for the higher-order chain rule and the source term.

These are explicit Faa di Bruno sums, kept as independent checks on the
library (criterion 09 and ``test_faadibruno.py``):

* ``chain_derivative`` -- the v-th derivative of h(f_1(z), ..., f_l(z)) as an
  explicit partition sum (no intermediate composition).
* ``universal_pn`` -- the degree-n "knowns" series P_n of the mapping-equation
  recursion: the n-th tau-derivative at 0 of

      S(z,chi,tau) g(z, tau S)  -  gbar(chi,tau) Shat(f(z, tau S), fbar(chi,tau), tau gbar)

  computed from map components of order < n only, one term per tuple of
  multi-indices.  ``crjet.faadibruno.universal_pn`` computes the same series
  by a tau-graded Taylor expansion.

Conventions for a multi-index a = (a_1, ..., a_v):
weighted degree [a] = sum q*a_q, size |a| = sum a_q, a! = prod a_q!.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from crjet.scalars import factorial as _factorial
from crjet.series import SeriesError, TruncatedSeries, compose


@lru_cache(maxsize=None)
def weighted_indices(w: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices a (length w, entries a_q for q = 1..w) with [a] = w."""
    if w == 0:
        return ((),)
    out = []

    def build(q, remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix) + (0,) * (w - len(prefix)))
            return
        if q > w:
            return
        for a in range(remaining // q + 1):
            build(q + 1, remaining - q * a, prefix + [a])

    build(1, w, [])
    return tuple(out)


def index_size(alpha) -> int:
    return sum(alpha)


def index_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= _factorial(a)
    return out


def compositions(total: int, parts: int):
    """All ways to split ``total`` into ``parts`` ordered nonnegative summands."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def chain_derivative(h: TruncatedSeries, fs, v: int) -> TruncatedSeries:
    """d^v/dz^v of h(f_1(z), ..., f_l(z)) by the explicit partition sum."""
    if v < 1:
        raise SeriesError("derivative order must be >= 1")
    for f in fs:
        if not f.constant_term().is_zero():
            raise SeriesError("chain_derivative arguments must vanish at 0")
    ell = len(h.variables)
    if len(fs) != ell:
        raise SeriesError(f"need {ell} inner series, got {len(fs)}")
    zvars = fs[0].variables
    args = {var: f for var, f in zip(h.variables, fs)}

    hderiv_cache: dict[tuple[int, ...], TruncatedSeries] = {}

    def h_partial_at_f(orders):
        got = hderiv_cache.get(orders)
        if got is None:
            hd = h
            for var, d in zip(h.variables, orders):
                if d:
                    hd = hd.differentiate(var, d)
            got = compose(hd, args)
            hderiv_cache[orders] = got
        return got

    fderiv_cache: dict[tuple[int, int], TruncatedSeries] = {}

    def f_deriv(p, q):
        got = fderiv_cache.get((p, q))
        if got is None:
            got = fs[p].differentiate(zvars[0], q)
            fderiv_cache[(p, q)] = got
        return got

    acc = None
    v_fact = _factorial(v)
    for split in compositions(v, ell):
        for alphas in _product_weighted(split):
            denom = 1
            orders = []
            prod = None
            for p, alpha in enumerate(alphas):
                denom *= index_factorial(alpha)
                orders.append(index_size(alpha))
                for q, a in enumerate(alpha, start=1):
                    if a == 0:
                        continue
                    factor = f_deriv(p, q) * Fraction(1, _factorial(q))
                    piece = factor ** a
                    prod = piece if prod is None else prod * piece
            term = h_partial_at_f(tuple(orders))
            if prod is not None:
                term = term * prod
            term = term * Fraction(v_fact, denom)
            acc = term if acc is None else acc + term
    return acc


def _product_weighted(split):
    """Cartesian product of weighted_indices(w) over the entries of split."""
    if not split:
        yield ()
        return
    head, tail = split[0], split[1:]
    for alpha in weighted_indices(head):
        for rest in _product_weighted(tail):
            yield (alpha,) + rest


class PnData:
    """Lower-order inputs for universal_pn.

    f, g: map components f_j(z), g_j(z) for 0 <= j < n (series in z);
    fbar, gbar: their conjugates as series in chi;
    s_jets[j]: S_{tau^j}(z,chi,0) for 0 <= j <= n;
    shat_jets[(j,k,l)]: the (j,k,l) partial of Shat in (zhat,chihat,tauhat),
    evaluated at (f_0(z), fbar_0(chi), 0), for all j+k+l <= n.
    """

    def __init__(self, f, g, fbar, gbar, s_jets, shat_jets):
        self.f = list(f)
        self.g = list(g)
        self.fbar = list(fbar)
        self.gbar = list(gbar)
        self.s_jets = list(s_jets)
        self.shat_jets = dict(shat_jets)

    def check(self, n: int):
        gaps = []
        if len(self.f) < n or len(self.g) < n:
            gaps.append(f"map components f_j, g_j for j < {n}")
        if len(self.fbar) < n or len(self.gbar) < n:
            gaps.append(f"conjugate components for j < {n}")
        if len(self.s_jets) < n + 1:
            gaps.append(f"S jets S_(tau^j) for j <= {n}")
        for j in range(n + 1):
            for k in range(n + 1 - j):
                for l in range(n + 1 - j - k):
                    if (j, k, l) not in self.shat_jets:
                        gaps.append(f"Shat jet {(j, k, l)}")
        if gaps:
            raise SeriesError("universal_pn missing inputs: " + "; ".join(gaps))


def universal_pn(n: int, data: PnData) -> TruncatedSeries:
    """The series P_n(z,chi) of known (order < n) contributions at order n."""
    data.check(n)
    n_fact = _factorial(n)
    S = data.s_jets
    V = S[0].variables
    # the factor series of the sums below, indexed by q and built once:
    # the tau-derivative of tau*S at order q, divided by q!; fbar_q / q!;
    # and the tau-derivative of tau*gbar at order q, divided by q!
    s_factor = [None] + [S[q - 1] * Fraction(1, _factorial(q - 1))
                         for q in range(1, n + 1)]
    fbar_factor = [None] + [data.fbar[q].embed(V) * Fraction(1, _factorial(q))
                            for q in range(1, n)]
    gbar_factor = [None] + [data.gbar[q - 1].embed(V) * Fraction(1, _factorial(q - 1))
                            for q in range(1, n + 1)]

    # ---- first sum: tau-expansion of S * g(z, tau S) -------------------------
    acc = None
    for w in range(n + 1):
        k = n - w
        for alpha in weighted_indices(w):
            size = index_size(alpha)
            if size >= n:
                continue  # would touch the unknown g_n
            term = data.g[size].embed(V) * S[k]
            for q, a in enumerate(alpha, start=1):
                for _ in range(a):
                    term = term * s_factor[q]
            term = term * Fraction(n_fact, _factorial(k) * index_factorial(alpha))
            acc = term if acc is None else acc + term

    # ---- inner sums A_q: tau-derivatives of f(z, tau S) ----------------------
    a_cache: dict[int, TruncatedSeries] = {}

    def A(q):
        got = a_cache.get(q)
        if got is None:
            total = None
            for xi in weighted_indices(q):
                size = index_size(xi)
                if size >= n:
                    continue  # unknown f_n
                piece = data.f[size].embed(V) * Fraction(1, index_factorial(xi))
                for r, x in enumerate(xi, start=1):
                    for _ in range(x):
                        piece = piece * s_factor[r]
                total = piece if total is None else total + piece
            got = total if total is not None else TruncatedSeries.zero(V, S[0].degree)
            a_cache[q] = got
        return got

    # ---- second sum: tau-expansion of gbar * Shat(f, fbar, tau gbar) ---------
    hat = None
    for k in range(n):  # k = n excluded: unknown gbar_n
        rem = n - k
        for wa, wb, wc in compositions(rem, 3):
            for alpha in weighted_indices(wa):
                for beta in weighted_indices(wb):
                    if len(beta) == n and beta[n - 1] > 0:
                        continue  # unknown fbar_n
                    for gamma in weighted_indices(wc):
                        jkl = (index_size(alpha), index_size(beta), index_size(gamma))
                        term = data.gbar[k].embed(V) * data.shat_jets[jkl]
                        for q, a in enumerate(alpha, start=1):
                            for _ in range(a):
                                term = term * A(q)
                        for q, b in enumerate(beta, start=1):
                            for _ in range(b):
                                term = term * fbar_factor[q]
                        for q, c in enumerate(gamma, start=1):
                            for _ in range(c):
                                term = term * gbar_factor[q]
                        denom = (_factorial(k) * index_factorial(alpha)
                                 * index_factorial(beta) * index_factorial(gamma))
                        term = term * Fraction(n_fact, denom)
                        hat = term if hat is None else hat + term

    if hat is None:
        return acc
    return acc - hat if acc is not None else -hat
