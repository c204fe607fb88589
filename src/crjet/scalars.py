"""Exact scalar arithmetic: Gaussian rationals and polynomials in n over them.

Two coefficient rings are used throughout the package:

* ``ExactComplex`` -- a Gaussian rational stored as three integers
  ``(a, b, d)`` meaning ``(a + b*i)/d``, always canonical: ``d > 0`` and
  ``gcd(a, b, d) = 1``.  Each operation is plain integer arithmetic followed
  by a single gcd reduction (none when the denominator is 1), instead of
  normalising two ``Fraction`` components after every product and sum.
  Canonical form makes equality a comparison of the three integers.
  ``exact_parts`` is the one reader of an operand's ``(a, b, d)``, for an
  ``int`` or ``Fraction`` too, with nothing built; operators and series use it.
* ``NPoly`` -- univariate polynomials in a real indeterminate ``n`` with
  ``ExactComplex`` coefficients (conjugation fixes n and conjugates the
  coefficients).

A truncated series stores integer rows, not these objects: its terms as
numerators over one shared denominator, keyed ``exps + (k, p)`` (power k of
n, p = 1 for the terms of an ``NPoly``).  ``numerator_rows`` turns the
coefficient dict given to the public series constructor into such rows (an
``ExactComplex`` factor already is one: its ``(a, b, d)``), and
``from_numerators`` turns stored rows back into canonical coefficients when
a caller reads them, with one gcd per ``ExactComplex``.

Everything is immutable value semantics; no rounding ever happens.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction


class ScalarError(ArithmeticError):
    pass


def _to_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _int_str(n: int) -> str:
    """``str(n)``, also for an integer longer than the interpreter's limit on
    int-to-str digits (4,300 by default), which ``Decimal`` prints exactly."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rational_str(q: Fraction) -> str:
    """Render ``p/q`` (or just ``p`` when the denominator is 1)."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


class ExactComplex:
    """Gaussian rational (a + b*i)/d, kept canonical: d > 0, gcd(a, b, d) = 1.

    ``re`` and ``im`` are read-only ``Fraction`` views of the components.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _to_fraction(re), _to_fraction(im)
            d = math.lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def coerce(cls, x) -> "ExactComplex":
        if type(x) is ExactComplex:
            return x
        parts = exact_parts(x)
        if parts is None:
            raise TypeError(f"cannot coerce {x!r} to ExactComplex")
        return _raw(*parts)

    # -- predicates ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        parts = exact_parts(other)
        if parts is None:
            return NotImplemented
        a, b, d = parts
        d1 = self._d
        if d1 == d:
            return _canonical(self._a + a, self._b + b, d)
        return _canonical(self._a * d + a * d1, self._b * d + b * d1, d1 * d)

    __radd__ = __add__

    def __sub__(self, other):
        parts = exact_parts(other)
        if parts is None:
            return NotImplemented
        return self + _raw(-parts[0], -parts[1], parts[2])

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        parts = exact_parts(other)
        if parts is None:
            return NotImplemented
        a2, b2, d2 = parts
        a1, b1 = self._a, self._b
        return _canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * d2)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        a, b, d = self._a, self._b, self._d
        if not a and not b:
            raise ScalarError(f"division by zero ExactComplex {self!r}")
        return _canonical(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other):
        return self * ExactComplex.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) * self.inverse()

    def conj(self) -> "ExactComplex":
        return _raw(self._a, -self._b, self._d)

    def norm_sq(self) -> Fraction:
        """|self|^2, always a nonnegative rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    # -- comparisons / hashing -------------------------------------------------
    def __eq__(self, other):
        if type(other) is ExactComplex:
            return self._a == other._a and self._b == other._b and self._d == other._d
        parts = exact_parts(other)
        if parts is None:
            return NotImplemented
        return (self._a, self._b, self._d) == parts

    def __hash__(self):
        # equal values hash alike: a real value equals its Fraction
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_real():
            return rational_str(self.re)
        if not self._a:
            return f"{rational_str(self.im)}*i"
        return f"({rational_str(self.re)} + {rational_str(self.im)}*i)"


_set_a = ExactComplex._a.__set__
_set_b = ExactComplex._b.__set__
_set_d = ExactComplex._d.__set__
_new = object.__new__


def _raw(a: int, b: int, d: int) -> ExactComplex:
    """(a + b*i)/d from components already in canonical form."""
    z = _new(ExactComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _canonical(a: int, b: int, d: int) -> ExactComplex:
    """(a + b*i)/d for d > 0, reduced by one gcd."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


def exact_parts(x):
    """The canonical (a, b, d) of x = (a + b*i)/d for an ``ExactComplex``,
    ``int`` or ``Fraction`` x, built from nothing; None for any other value.
    The exact types go first; a ``bool`` or a subclass takes the isinstance."""
    t = type(x)
    if t is ExactComplex:
        return x._a, x._b, x._d
    if t is int:
        return x, 0, 1
    if t is Fraction:
        return x.numerator, 0, x.denominator
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return q.numerator, 0, q.denominator
    return (x._a, x._b, x._d) if isinstance(x, ExactComplex) else None


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)


class NPoly:
    """Polynomial in the indeterminate n over ExactComplex.

    Stored as a coefficient tuple indexed by the power of n, with no trailing
    zeros.  n models the nonnegative-integer order parameter of the Upsilon
    family, so conjugation keeps n fixed and conjugates coefficients.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [ExactComplex.coerce(c) for c in coefficients]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("NPoly is immutable")

    # -- construction helpers -------------------------------------------------
    @classmethod
    def const(cls, c) -> "NPoly":
        return cls((ExactComplex.coerce(c),))

    @classmethod
    def n(cls) -> "NPoly":
        return cls((EC_ZERO, EC_ONE))

    @classmethod
    def coerce(cls, x) -> "NPoly":
        if isinstance(x, NPoly):
            return x
        return cls.const(ExactComplex.coerce(x))

    # -- structure -------------------------------------------------------------
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading(self) -> ExactComplex:
        if self.is_zero():
            raise ScalarError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, (NPoly, ExactComplex, int, Fraction)):
            return NotImplemented
        other = NPoly.coerce(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return NPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NPoly(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if not isinstance(other, (NPoly, ExactComplex, int, Fraction)):
            return NotImplemented
        other = NPoly.coerce(other)
        if self.is_zero() or other.is_zero():
            return NPoly()
        out = [EC_ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
        for j, a in enumerate(self.coefficients):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coefficients):
                out[j + k] = out[j + k] + a * b
        return NPoly(out)

    __rmul__ = __mul__

    def conj(self) -> "NPoly":
        return NPoly(tuple(c.conj() for c in self.coefficients))

    def __call__(self, n0) -> ExactComplex:
        """Evaluate at an integer (or rational) n0 by Horner's scheme."""
        acc = EC_ZERO
        x = ExactComplex.coerce(n0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    # -- comparisons / hashing -------------------------------------------------
    def __eq__(self, other):
        try:
            other = NPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        # equal values hash alike: a constant equals its coefficient, the
        # zero polynomial equals 0
        if len(self.coefficients) <= 1:
            return hash(self.coefficients[0]) if self.coefficients else 0
        return hash(self.coefficients)

    def __repr__(self):
        return f"NPoly({list(self.coefficients)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*n")
            else:
                parts.append(f"{c}*n^{k}")
        return " + ".join(parts)


def numerator_rows(coeffs):
    """A coefficient dict over one shared denominator, as integer rows.

    Returns ``(d, rows)``, with ``d`` the lcm of the denominators of the
    coefficients.  ``rows`` maps ``exps + (k, p)`` to ``(a, b)``, the term
    (a + b*i)/d * n^k at the exponent tuple ``exps``: an ``ExactComplex``
    gives one row with k = p = 0, an ``NPoly`` one row per nonzero
    coefficient with p = 1.  The rows are canonical: each coefficient is,
    so ``gcd(d, every numerator) = 1``.
    """
    dens = set()
    for c in coeffs.values():
        if type(c) is ExactComplex:
            dens.add(c._d)
        else:
            dens.update(x._d for x in c.coefficients)
    d = math.lcm(*dens)
    rows = {}
    for exps, c in coeffs.items():
        if type(c) is ExactComplex:
            m = d // c._d
            rows[exps + (0, 0)] = (c._a * m, c._b * m)
            continue
        for k, x in enumerate(c.coefficients):
            if x._a or x._b:
                m = d // x._d
                rows[exps + (k, 1)] = (x._a * m, x._b * m)
    return d, rows


def from_numerators(rows, d: int) -> dict:
    """The coefficients of canonical ``numerator_rows`` over the denominator d.

    The rows with p = 1 at one ``exps`` make an ``NPoly``, a row with p = 0
    an ``ExactComplex``; each ``ExactComplex`` costs one gcd.
    """
    out = {}
    for key, (re, im) in rows.items():
        exps = key[:-2]
        if key[-1]:
            parts = out.get(exps)
            if parts is None:
                parts = out[exps] = {}
            parts[key[-2]] = _canonical(re, im, d)
        else:
            out[exps] = _canonical(re, im, d)
    for exps, c in out.items():
        if type(c) is dict:
            out[exps] = NPoly([c.get(k, EC_ZERO) for k in range(max(c) + 1)])
    return out


def split_parts(values):
    """``(d, re, im)``: the real and the imaginary parts of ``ExactComplex``
    values as two integer lists over their shared denominator d, the lcm of
    theirs (1 for no values).

    Each list is d times the parts; no ``Fraction`` is built.
    """
    d = math.lcm(*(v._d for v in values))
    re, im = [], []
    for v in values:
        m = d // v._d
        re.append(v._a * m)
        im.append(v._b * m)
    return d, re, im


factorial = math.factorial


def integer_roots(p: NPoly) -> set[int]:
    """All nonnegative integer roots of p.

    A real root of p is a root of the integer polynomial c built from the
    real (or, when that vanishes, the imaginary) parts of the coefficients
    with denominators cleared, and every integer root x of c satisfies
    |x| <= 1 + max_{i<d} |c_i| // |c_d| (Cauchy bound, exact over the
    integers).  Over the integers c is monotone between the sign changes of
    its forward difference c(x+1) - c(x), found the same way one degree
    down, so one bisection per monotone stretch finds the zeros of c up to
    the bound: O(deg^2 log bound) exact evaluations in all, instead of a
    scan of the whole range.  Each candidate is confirmed on both part lists.
    """
    if p.is_zero():
        raise ScalarError("zero polynomial has all roots")
    if p.degree() == 0:
        return set()
    _, re, im = split_parts(p.coefficients)
    c = re if any(re) else im       # its trailing zeros change no value
    while not c[-1]:
        c.pop()
    bound = 1 + max(map(abs, c[:-1]), default=0) // abs(c[-1])
    return {n0 for n0 in _int_zeros(c, 0, bound) if not (_ev(re, n0) or _ev(im, n0))}


def _ev(c, x: int) -> int:
    acc = 0
    for k in reversed(c):
        acc = acc * x + k
    return acc


def _first(pred, a: int, b: int) -> int:
    """Least x in [a, b] with pred(x), for pred false then true; b + 1 if none."""
    hi = b + 1
    while a < hi:
        mid = (a + hi) // 2
        if pred(mid):
            hi = mid
        else:
            a = mid + 1
    return a


def _monotone_stretches(c, lo: int, hi: int):
    """Consecutive [a, b] covering [lo, hi], c weakly monotone on the integers of each."""
    if len(c) <= 2 or hi - lo <= 1:
        return [(lo, hi)]
    diff = [sum(c[k] * math.comb(k, j) for k in range(j + 1, len(c)))
            for j in range(len(c) - 1)]        # c(x+1) - c(x)
    ts = [lo] + _sign_changes(diff, lo, hi - 1) + [hi]
    return list(zip(ts, ts[1:]))


def _sign_changes(c, lo: int, hi: int) -> list[int]:
    """The x in (lo, hi] with c(x) != 0 whose sign differs from the last
    nonzero value of c on the integers of [lo, x)."""
    out = []
    last = 0
    for a, b in _monotone_stretches(c, lo, hi):
        sa, sb = _ev(c, a), _ev(c, b)
        if sa:
            last = 1 if sa > 0 else -1
        if sb:
            sign = 1 if sb > 0 else -1
            if last == -sign:
                out.append(_first(lambda x: _ev(c, x) * sign > 0, a, b))
            last = sign
    return out


def _int_zeros(c, lo: int, hi: int) -> set[int]:
    """The integers x in [lo, hi] with c(x) = 0, for a nonzero integer polynomial c."""
    out = set()
    for a, b in _monotone_stretches(c, lo, hi):
        ca, cb = _ev(c, a), _ev(c, b)
        if ca * cb > 0:
            continue
        up = 1 if ca <= cb else -1
        x = _first(lambda x: _ev(c, x) * up >= 0, a, b)
        while x <= b and _ev(c, x) == 0:
            out.add(x)
            x += 1
    return out


def rational_nth_root(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a positive rational, or None when irrational."""
    if q <= 0:
        raise ScalarError(f"nth root of non-positive rational {q}")
    num = _int_nth_root(q.numerator, k)
    den = _int_nth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_nth_root(m: int, k: int) -> int | None:
    if m == 0:
        return 0
    lo, hi = 1, 1
    while hi**k < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == m else None
