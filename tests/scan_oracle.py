"""The hand-rolled scans that series primitives replaced, kept as oracles.

``jet_by_exponent_loop`` reads the k-jet of a formal map one z-exponent at a
time from its components, as ``FormalMap.jet`` did before it read the
two-variable form.  ``invariants_by_support_scan`` reads (m, r, L, K, T) off
the support of Theta and of its s^1 slice, as ``validate`` did before it
asked ``order``, ``var_order`` and ``slice``.
"""

from fractions import Fraction

from crjet.scalars import factorial


def jet_by_exponent_loop(H, k):
    """Coefficients of z^a w^b, a + b <= k, of f and of G = w*g."""
    out = {}
    for comp, parts in (("f", H.f_components), ("g", H.g_components)):
        for b, series in enumerate(parts):
            wexp = b + (1 if comp == "g" else 0)  # G = w*g
            if wexp > k:
                continue
            for a in range(k - wexp + 1):
                c = series.coeff((a,)) * Fraction(1, factorial(b))
                if not c.is_zero():
                    out[(comp, a, wexp)] = c
    return out


def invariants_by_support_scan(Theta):
    """(m, r, L, K, T) of a validated Theta, None past m for m != 1."""
    m = min(e[2] for e in Theta.coeffs)
    if m != 1:
        return m, None, None, None, None
    support = list(Theta.slice("s", 1).coeffs)
    r = min(a + b for a, b in support)
    L = min(b for _, b in support)
    K = min(a for a, b in support if b == L)
    # T = 1 iff theta_{L+1}(z) has z-order >= K - 1
    T = 1
    for a, b in support:
        if b == L + 1 and a < K - 1:
            T = 0
            break
    return m, r, L, K, T
