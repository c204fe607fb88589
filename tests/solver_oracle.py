"""The two fixed-point iterations Newton's method replaced, kept as oracles.

``contraction_solve`` is the first ``implicit_solve``: the contraction
w -> w - rho(w, x)/c with c = d rho/dw (0), one correct order per pass,
every pass at the full degree.  ``staged_graph_function`` is the first Q of
``hypersurface.validate``: the fixed point Q <- tau + 2i Theta(z, chi,
(Q + tau)/2), two degrees per pass.  ``crjet.series.implicit_solve`` and
``validate`` must give the same series, degree and coefficient types
included.
"""

from __future__ import annotations

from fractions import Fraction

from crjet.scalars import EC_I
from crjet.series import SeriesError, TruncatedSeries, compose


def contraction_solve(rho: TruncatedSeries, wvar: str) -> TruncatedSeries:
    """The root w(x), w(0) = 0, of rho(w, x) = 0, one order per pass."""
    if not rho.constant_term().is_zero():
        raise SeriesError("implicit function theorem hypothesis fails: rho(0) != 0")
    c = rho.differentiate(wvar).constant_term()
    if c.is_zero():
        raise SeriesError("implicit function theorem hypothesis fails: d rho/dw (0) is not a unit")
    cinv = c.inverse()
    w = TruncatedSeries.zero([v for v in rho.variables if v != wvar], rho.degree)
    for _ in range(rho.degree):
        residual = compose(rho, {wvar: w})
        if residual.is_zero():
            break
        w = w - residual * cinv
    return w


def staged_graph_function(Theta: TruncatedSeries) -> TruncatedSeries:
    """Q(z, chi, tau) as the fixed point of Q <- tau + 2i Theta(z, chi, (Q + tau)/2).

    Normality gives every term z^a chi^b s^c of Theta a, b >= 1, so an error
    of order >= p - 1 in s moves Theta only in orders >= p + 1: a Q exact
    through p - 2 maps to one exact through p.  Q = tau is exact through 2,
    and pass k runs at precision min(D, 2 + 2k).
    """
    D = Theta.degree
    Q = TruncatedSeries.var("tau", ("z", "chi", "tau"), 2)
    half = Fraction(1, 2)
    p = 2
    while p < D:
        p = min(D, p + 2)
        tau = TruncatedSeries.var("tau", Q.variables, p)
        Q = Q.lift(p)
        Q = tau + compose(Theta.truncate(p), {"s": (Q + tau) * half}) * (EC_I * 2)
    return Q
