import random
from fractions import Fraction

import pytest

from crjet.equivalence import FormalMap
from crjet.hypersurface import THETA_VARS, Hypersurface, validate
from crjet.scalars import EC_I, ExactComplex, NPoly, factorial
from crjet.series import TruncatedSeries


def rand_frac(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rand_complex(rng: random.Random, span: int = 4) -> ExactComplex:
    return ExactComplex(rand_frac(rng, span), rand_frac(rng, span))


def random_series(rng: random.Random, variables, degree, nterms,
                  min_order=0, allow_zero=True) -> TruncatedSeries:
    if min_order > degree:
        raise ValueError(f"no exponent has order {min_order} at degree {degree}")
    coeffs = {}
    for _ in range(nterms):
        while True:
            exps = tuple(rng.randint(0, degree) for _ in variables)
            if min_order <= sum(exps) <= degree:
                break
        c = rand_complex(rng)
        if not c.is_zero():
            coeffs[exps] = c
    if not coeffs and not allow_zero:
        coeffs[(min_order,) + (0,) * (len(variables) - 1)] = ExactComplex(1)
    return TruncatedSeries(tuple(variables), degree, coeffs)


def random_hypersurface(rng: random.Random, degree=10, nterms=5,
                        s_orders=(1, 2), max_e=3) -> Hypersurface:
    """A valid 1-infinite-type input: Hermitian in (z,chi), normal, min s-order 1."""
    coeffs = {}
    # guarantee the type: one s^1 term
    a, b = rng.randint(1, max_e), rng.randint(1, max_e)
    coeffs[(a, b, 1)] = rand_complex(rng) if a != b else ExactComplex(rng.randint(1, 3))
    for _ in range(nterms):
        a = rng.randint(1, max_e)
        b = rng.randint(1, max_e)
        c = rng.choice(s_orders)
        if a + b + c > degree:
            continue
        coeffs[(a, b, c)] = rand_complex(rng)
    # impose reality: coeff(a,b,c) = conj(coeff(b,a,c))
    fixed = {}
    for (a, b, c), v in coeffs.items():
        if (b, a, c) in fixed or (a, b, c) in fixed:
            continue
        if a == b:
            fixed[(a, b, c)] = ExactComplex(v.re)
        else:
            fixed[(a, b, c)] = v
            fixed[(b, a, c)] = v.conj()
    fixed = {k: v for k, v in fixed.items() if not v.is_zero()}
    if not any(c == 1 for _, _, c in fixed):
        fixed[(1, 1, 1)] = ExactComplex(1)
    Theta = TruncatedSeries(THETA_VARS, degree, fixed)
    return validate(Theta)


def inconsistent_pair(degree=12):
    """Theta = z chi s and Thetahat = z chi s + i z chi^2 s^2 - i z^2 chi s^2:
    the same invariants and D = [0], but with a_0^1 = b_0^0 = 1 the order-1
    reconstruction system has no solution."""
    M = validate(TruncatedSeries(THETA_VARS, degree, {(1, 1, 1): ExactComplex(1)}))
    Mhat = validate(TruncatedSeries(THETA_VARS, degree, {
        (1, 1, 1): ExactComplex(1), (1, 2, 2): EC_I, (2, 1, 2): -EC_I}))
    return M, Mhat


def linear_map(eps, r, degree):
    """H = (eps*z, r*w) as a FormalMap."""
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex.coerce(eps)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex.coerce(r)})
    return FormalMap([f0], [g0])


def assert_same_series(a: TruncatedSeries, b: TruncatedSeries):
    """Same variables, degree, keys, values and coefficient types."""
    assert (a.variables, a.degree) == (b.variables, b.degree)
    assert a.coeffs == b.coeffs
    assert {e: type(c) for e, c in a.coeffs.items()} == \
        {e: type(c) for e, c in b.coeffs.items()}


def falling_binomial(k: int) -> NPoly:
    """binom(n, k) = n(n-1)...(n-k+1)/k! as a polynomial in n."""
    p = NPoly.const(1)
    for j in range(k):
        p = p * (NPoly.n() - NPoly.const(j))
    return p * NPoly.const(Fraction(1, factorial(k)))


def rising_binomial(k: int) -> NPoly:
    """binom(n+k-1, k) = (n+k-1)...(n)/k! as a polynomial in n."""
    p = NPoly.const(1)
    for j in range(k):
        p = p * (NPoly.n() + NPoly.const(j))
    return p * NPoly.const(Fraction(1, factorial(k)))


@pytest.fixture
def rng():
    return random.Random(20240817)
