"""The order-n source term of the mapping identity.

A formal map H = (f(z,w), w g(z,w)), with f = sum_m f_m(z) w^m/m! and g
likewise, sends M to Mhat exactly when

    S(z,chi,tau) g(z, tau S) = gbar(chi,tau) Shat(f(z, tau S), fbar(chi,tau), tau gbar).

Reconstruction solves this identity one tau-order at a time.  At order n its
n-th tau-derivative at tau = 0 is affine in the order-n components, and
``universal_pn`` computes the part already known from the orders below,

    P_n = n! [tau^n] (S g(z, tau S) - gbar Shat(f(z, tau S), fbar, tau gbar)),

from the components f_m, g_m with m < n only.  The terms it leaves out are
exactly those that hold f_n, g_n or their conjugates.

The expansion is tau-graded: every factor is a list, indexed by the power
of tau from 0 to n, of series in (z, chi), and None marks a power at which
the factor has no term.  With

    tau S    = sum_{1<=q<=n} S_(q-1) tau^q,     S_k = [tau^k] S,
    F        = f(z, tau S) - f_0       = sum_{1<=m<n} f_m (tau S)^m / m!,
    Fbar     = fbar(chi, tau) - fbar_0 = sum_{1<=q<n} fbar_q tau^q / q!,
    tau Gbar = sum_{1<=q<=n} gbar_(q-1) tau^q / (q-1)!,

Shat is the Taylor series around (f_0(z), fbar_0(chi), 0),

    Shat(f, fbar, tau gbar) = sum_{j+k+l<=n} Shat_jkl F^j Fbar^k (tau Gbar)^l / (j! k! l!),

where Shat_jkl is the table of ``equivalence.shat_jet_table``.  F, Fbar and
tau Gbar have no tau^0 term, so j + k + l <= n is all that reaches tau^n,
and nested power chains build only those products.

Why lists and not tau as a third series variable: total-degree truncation
certifies the tau^l slice of a series in (z, chi, tau) only to D - l, so P_n
would be certified to fewer degrees than its inputs carry.  A list keeps
each slice at the degree of the factors it was built from.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import factorial


def _acc(out, a, c, shift=0):
    """out += tau^shift * a * c, for tau-graded lists out and a and a series
    c in (z, chi); powers beyond the end of ``out`` are dropped."""
    for t in range(len(out) - shift):
        x = a[t]
        if x is not None:
            x = x * c
            cur = out[t + shift]
            out[t + shift] = x if cur is None else cur + x


def _mul(a, b, n):
    """The Cauchy product of two tau-graded lists, modulo tau^(n+1)."""
    out = [None] * (n + 1)
    for i, x in enumerate(a):
        if x is not None:
            _acc(out, b, x, i)
    return out


def _powers(a, x, n, count):
    """a, a x, a x^2, ..., a x^count modulo tau^(n+1), each built when it is
    asked for; a = None stands for the factor 1."""
    yield a
    for _ in range(count):
        a = x if a is None else _mul(a, x, n)
        yield a


def universal_pn(n, f, g, s_slices, shat):
    """The series P_n(z,chi) of known (order < n) contributions at order n.

    f, g: map components f_m, g_m (m < n) as series in z, whose conjugates
    fbar_m, gbar_m in chi are taken here; s_slices[k] = S_k(z,chi), the
    tau^k coefficient of S, for k <= n; shat[(j,k,l)]: the (j,k,l) partial of
    Shat in (zhat,chihat,tauhat) at (f_0(z), fbar_0(chi), 0), for j+k+l <= n.
    """
    V = s_slices[0].variables
    tau_s = [None] + s_slices[:n]
    G = [g[0].embed(V)] + [None] * n
    F = [None] * (n + 1)
    for m, power in enumerate(_powers(None, tau_s, n, n - 1)):   # (tau S)^m
        if m:
            c = Fraction(1, factorial(m))
            _acc(G, power, g[m].embed(V) * c)
            _acc(F, power, f[m].embed(V) * c)

    def bar(parts, q):
        """conj(parts[q]) in chi, over q!"""
        return parts[q].conjugate(rename={"z": "chi"}).embed(V) * Fraction(1, factorial(q))

    # P_n meets only gbar_0 .. gbar_(n-1) and fbar_1 .. fbar_(n-1)
    Gbar = [bar(g, k) for k in range(n)] + [None]
    tau_gbar = [None] + Gbar[:n]
    Fbar = [None] + [bar(f, q) for q in range(1, n)] + [None]

    # the tau-expansion of Shat(f, fbar, tau gbar) minus its constant term,
    # which meets only the unknown gbar_n
    hat = [None] * (n + 1)
    for j, X in enumerate(_powers(None, F, n, n)):
        for k, Y in enumerate(_powers(X, Fbar, n, n - j)):
            for l, Z in enumerate(_powers(Y, tau_gbar, n, n - j - k)):
                if Z is not None:
                    denom = factorial(j) * factorial(k) * factorial(l)
                    _acc(hat, Z, shat[(j, k, l)] * Fraction(1, denom))

    # [tau^n] of S G and of Gbar hat; Gbar stops below the unknown gbar_n
    left = [s_slices[k] * G[n - k] for k in range(n + 1) if G[n - k] is not None]
    right = [Gbar[k] * hat[n - k] for k in range(n) if hat[n - k] is not None]
    return (sum(left[1:], left[0]) - sum(right[1:], right[0])) * factorial(n)
