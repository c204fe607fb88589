"""Seeded input generation for the benchmark, independent of crjet.

Every input is built here with plain ``fractions`` arithmetic and handed to
crjet only as a JSON payload, so the expected answers below come from the
construction and not from the library under test.

A Gaussian rational is a pair ``(re, im)`` of Fractions.  A hypersurface is a
dict ``{(a, b, c): coefficient}`` for the monomials z^a chi^b s^c of Theta.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- Gaussian rationals --------------------------------------------------------

def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def conj(x):
    return (x[0], -x[1])


def is_zero(x):
    return x[0] == 0 and x[1] == 0


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rand_frac(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_complex(rng: random.Random, span: int = 4):
    return (rand_frac(rng, span), rand_frac(rng, span))


def rand_nonzero_complex(rng: random.Random, span: int = 4):
    while True:
        c = rand_complex(rng, span)
        if not is_zero(c):
            return c


# -- univariate polynomials (lists of coefficients, index = power) -------------

def poly_mul(p, q, degree):
    out = [ZERO] * (degree + 1)
    for i, a in enumerate(p):
        if is_zero(a) or i > degree:
            continue
        for j, b in enumerate(q):
            if i + j > degree:
                break
            if not is_zero(b):
                out[i + j] = cadd(out[i + j], cmul(a, b))
    return out


def poly_powers(p, top, degree):
    """[p^0, p^1, ..., p^top], each truncated to ``degree``."""
    powers = [[ONE] + [ZERO] * degree]
    for _ in range(top):
        powers.append(poly_mul(powers[-1], p, degree))
    return powers


# -- hypersurfaces -------------------------------------------------------------

def hermitian(terms):
    """Impose coeff(a,b,c) = conj(coeff(b,a,c)), keeping the first of each pair."""
    fixed = {}
    for (a, b, c), v in terms.items():
        if (a, b, c) in fixed or (b, a, c) in fixed:
            continue
        if a == b:
            fixed[(a, b, c)] = (v[0], Fraction(0))
        else:
            fixed[(a, b, c)] = v
            fixed[(b, a, c)] = conj(v)
    return {k: v for k, v in fixed.items() if not is_zero(v)}


def family_mc(c: Fraction, j: int):
    return {(j, j, 1): (Fraction(c), Fraction(0))}


def family_nb(b, j: int):
    if j == 1:
        return {(1, 1, 1): (2 * b[0], Fraction(0))}
    return {(1, j, 1): b, (j, 1, 1): conj(b)}


def family_b0(degree: int):
    """theta = sum_k Catalan(k) (z chi)^(2k+1), times s."""
    terms = {}
    catalan = 1
    k = 0
    while 2 * (2 * k + 1) + 1 <= degree:
        terms[(2 * k + 1, 2 * k + 1, 1)] = (Fraction(catalan), Fraction(0))
        catalan = catalan * 2 * (2 * k + 1) // (k + 2)
        k += 1
    return terms


def random_hypersurface(rng: random.Random):
    """Hermitian, normal, of type m = 1: one s^1 term plus up to five terms
    z^a chi^b s^c with 1 <= a, b <= 2, c in {1, 2} and small rational
    coefficients (tests/conftest.py::random_hypersurface with max_e=2)."""
    terms = {}
    a, b = rng.randint(1, 2), rng.randint(1, 2)
    terms[(a, b, 1)] = (rand_complex(rng) if a != b
                        else (Fraction(rng.randint(1, 3)), Fraction(0)))
    for _ in range(5):
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        terms[(a, b, rng.choice((1, 2)))] = rand_complex(rng)
    terms = hermitian(terms)
    if not any(c == 1 for _, _, c in terms):
        terms[(1, 1, 1)] = ONE
    return terms


def perturb(rng: random.Random, terms, a=None, b=None):
    """Add a random Hermitian pair at z^a chi^b s^2 (keeps normality, reality
    and the s^1 slice, hence D).  Unset exponents are drawn from {1, 2}; a
    given pair gets a nonzero coefficient."""
    out = dict(terms)
    if a is None:
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        c = rand_complex(rng)
    else:
        c = rand_nonzero_complex(rng)
    cur = out.get((a, b, 2), ZERO)
    if a == b:
        out[(a, b, 2)] = (cur[0] + 2 * c[0], Fraction(0))
    else:
        out[(a, b, 2)] = cadd(cur, c)
        out[(b, a, 2)] = cadd(out.get((b, a, 2), ZERO), conj(c))
    return {k: v for k, v in out.items() if not is_zero(v)}


def pullback(target, f0, r: Fraction, degree: int):
    """Theta(z,chi,s) = That(f0(z), conj f0(chi), r s) / r, to ``degree``.

    With f0(0) = 0, f0'(0) != 0 and r real, the map (f0(z), r w) sends the
    result onto the target exactly.
    """
    top = max(max(a, b) for a, b, _ in target)
    fz = poly_powers(f0, top, degree)
    fc = [[conj(x) for x in p] for p in fz]
    out = {}
    for (a, b, c), v in target.items():
        scale = (r ** (c - 1), Fraction(0))
        v = cmul(v, scale)
        for i, x in enumerate(fz[a]):
            if is_zero(x) or i + c > degree:
                continue
            vx = cmul(v, x)
            for j, y in enumerate(fc[b]):
                if i + j + c > degree:
                    break
                if not is_zero(y):
                    key = (i, j, c)
                    out[key] = cadd(out.get(key, ZERO), cmul(vx, y))
    return {k: v for k, v in out.items() if not is_zero(v)}


def invariants(terms):
    """(L, K, T) read off the s^1 slice theta, as crjet defines them."""
    support = [(a, b) for a, b, c in terms if c == 1]
    L = min(b for _, b in support)
    K = min(a for a, b in support if b == L)
    T = 0 if any(b == L + 1 and a < K - 1 for a, b in support) else 1
    return L, K, T


def gamma(L: int, K: int, T: int) -> int:
    return 2 + (K == 1) + (L == 1) * (T == 1)


# -- JSON payloads ---------------------------------------------------------------

def _terms_json(coeffs):
    return [{"exponents": list(e), "re": frac_str(c[0]), "im": frac_str(c[1])}
            for e, c in sorted(coeffs.items())]


def hypersurface_json(terms, degree: int):
    kept = {e: c for e, c in terms.items() if sum(e) <= degree}
    return {"variables": ["z", "chi", "s"], "truncation_degree": degree,
            "terms": _terms_json(kept)}


def z_series_json(coeffs, degree: int):
    return {"variables": ["z"], "truncation_degree": degree,
            "terms": _terms_json({(k,): c for k, c in enumerate(coeffs)
                                  if not is_zero(c)})}


def map_json(f0, r: Fraction, degree: int):
    """The map (f0(z), r w): f = [f0], g = [r]."""
    return {"f": [z_series_json(f0, degree)],
            "g": [z_series_json([(r, Fraction(0))], degree)]}


def jet_json(f0, r: Fraction, D):
    """Jet data of (f0(z), r w) for exceptional set D: a_0^1 = conj f0'(0),
    b_0^0 = r, and zero pins at every n > 0 in D (the map has no w-terms)."""
    zero = {"re": "0", "im": "0"}
    a01 = conj(f0[1])
    return {"a01": {"re": frac_str(a01[0]), "im": frac_str(a01[1])},
            "b00": {"re": frac_str(r), "im": "0"},
            "lambdas": {str(n): [zero] * 4 for n in D if n > 0}}


def random_real(rng: random.Random) -> Fraction:
    while True:
        r = rand_frac(rng, 3)
        if r:
            return r
