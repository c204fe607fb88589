"""Dense truncated multivariate power series over the exact coefficient rings.

A ``TruncatedSeries`` stores its terms as integer numerator rows over one
shared denominator ``d``, after FLINT's ``fmpq_poly``: a map from
``exps + (k, p)`` to ``(re, im)``, the term (re + im*i)/d * n^k at the
exponent tuple ``exps``.  The flag ``p`` is 1 for the terms of an ``NPoly``
coefficient and 0 for an ``ExactComplex`` one, so an ``ExactComplex`` takes
one row with k = p = 0 and an ``NPoly`` one row per nonzero coefficient.
The stored form is canonical: no row is zero, ``gcd(d, every numerator)``
is 1, and the rows at one ``exps`` are either a single p = 0 row or p = 1
rows only.  The checked constructor writes these rows in one pass: each
``int``, ``Fraction`` or ``ExactComplex`` coefficient, and each coefficient
of an ``NPoly``, is read by ``scalars.exact_parts``, so it builds no
``ExactComplex``; an exponent must be a tuple of nonnegative ``int`` (not
``bool``) entries.

The coefficient at ``exps`` is an ``NPoly`` exactly when an ``NPoly``
reached it: a product, a sum or a scalar product gives an ``NPoly`` wherever
one of its operands had one at a contributing term, even when the value
that results is a constant, and drops the term only when it is zero.

Arithmetic runs on the rows alone, and each operation tests the exact type
of its operand before any generic work.  An ``int``, ``Fraction`` or
``ExactComplex`` scalar, read by ``scalars.exact_parts``, or a one-row
``ExactComplex`` constant series, scales the rows of the other operand;
operands over the same variables are not re-embedded.  Any other product
sorts each operand's rows by total degree, convolves them and divides out
one gcd at the end; a sum of any number of parts is one pass that adds
integers over the lcm of the denominators and follows the rule above
whatever the order of the parts;
negation, conjugation, ``differentiate``, ``slice``, ``shift``, ``embed``,
``rename`` and ``truncate`` are one pass each.  A zero operand does no work:
a product or scalar product with one is the zero series, and a sum skips its
zero parts, but each still certifies its result only to the least degree,
since a zero series is zero only to its degree.
The rows are the only stored form: ``ExactComplex`` and ``NPoly`` objects
are built from them on each read through ``coeffs``, ``coeff`` or
``jet_coeff``, and never kept.  ``Substitution`` is the one substitution
routine: it keeps every power of its arguments, and every product of powers
that a substituted monomial maps to, for all the series it is applied to,
so each argument set gets one ``Substitution`` however many series it goes
into; a group of terms that is one ``ExactComplex`` constant scales its
image's rows, with no product.  ``compose`` is its one-shot use.  A power
series sum_j c_j x^j of a series x with zero constant term is one
``compose`` of sum_j c_j t^j at x (Brent and Kung, 1978), built by
``power_series``: the geometric series of ``inverse_unit``, the binomial
series of ``kth_root_unit`` and the logarithm of ``upsilon.pn_series``.
``n_graded`` assembles sum_m n^m * parts[m] from series without ``NPoly``
coefficients in one pass.
``numerators`` is the one integer view of any series: its rows keyed
``exps + (k,)``, without building a coefficient object.
``implicit_solve`` finds the root of an implicit series equation by Newton
iteration with precision doubling.  Every operation is exact modulo
truncation; operations that genuinely lose orders (``differentiate``,
``shift``, the quotient by a monomial) shrink the recorded truncation degree
so downstream certificates stay honest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, itemgetter

from .errors import SeriesError
from .scalars import EC_ZERO, NPoly, exact_parts, factorial, from_numerators


class TruncatedSeries:
    __slots__ = ("variables", "degree", "_d", "_num", "_npoly")

    def __init__(self, variables, degree, coeffs=None):
        variables = tuple(variables)
        if degree < 0:
            raise SeriesError("truncation degree must be nonnegative")
        # the (a, b, d) rows of the nonzero terms, in the order given (the
        # order in which validate meets them), then over one lcm
        rows = {}
        npoly = False
        for exps, c in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise SeriesError(f"exponent {exps} does not match variables {variables}")
            for e in exps:
                if type(e) is bool or not isinstance(e, int) or e < 0:
                    raise SeriesError(f"exponent {exps} is not a tuple of nonnegative integers")
            if sum(exps) > degree:
                continue
            parts = exact_parts(c)
            if parts is not None:
                if parts[0] or parts[1]:
                    rows[exps + (0, 0)] = parts
            elif isinstance(c, NPoly):
                for k, x in enumerate(c.coefficients):
                    parts = exact_parts(x)
                    if parts[0] or parts[1]:
                        rows[exps + (k, 1)] = parts
                        npoly = True
            else:
                raise TypeError(f"cannot coerce {c!r} to ExactComplex")
        d = math.lcm(*{e for _, _, e in rows.values()})
        _set_variables(self, variables)
        _set_degree(self, degree)
        _set_d(self, d)
        _set_num(self, {key: (a, b) if e == d else (a * (d // e), b * (d // e))
                        for key, (a, b, e) in rows.items()} or _NO_ROWS)
        _set_npoly(self, npoly)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, variables, degree):
        return cls.const(variables, degree, 0)

    @classmethod
    def const(cls, variables, degree, c):
        variables = tuple(variables)
        parts = exact_parts(c)
        if parts is None:
            return cls(variables, degree, {(0,) * len(variables): c})
        if degree < 0:
            raise SeriesError("truncation degree must be nonnegative")
        a, b, d = parts
        if not a and not b:
            return _zero(variables, degree)
        return _new(variables, degree, d, {(0,) * len(variables) + (0, 0): (a, b)}, False)

    @classmethod
    def var(cls, name, variables, degree):
        variables = tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if sum(exps) != 1:
            raise SeriesError(f"variable {name!r} not in {variables}")
        return cls(variables, degree, {exps: 1})

    # -- inspection ------------------------------------------------------------
    @property
    def coeffs(self):
        """The coefficients as a new dict from exponent tuples to
        ``ExactComplex`` or ``NPoly``, built from the rows on each read."""
        return from_numerators(self._num, self._d)

    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, exps):
        """The stored coefficient, or ``EC_ZERO`` for any missing term."""
        exps = tuple(exps)
        key = exps + (0, 0)
        v = self._num.get(key)
        if v is not None:
            return from_numerators({key: v}, self._d)[exps]
        if not self._npoly:
            return EC_ZERO
        # canonical form: no p = 0 row here, so the p = 1 rows are the NPoly
        rows = {k: v for k, v in self._num.items() if k[:-2] == exps}
        return from_numerators(rows, self._d)[exps] if rows else EC_ZERO

    def numerators(self):
        """``(d, {exps + (k,): (re, im)})``: every stored term as the integer
        numerators of (re + im*i)/d * n^k, read without building a
        coefficient object.  An ``ExactComplex`` coefficient reads as k = 0,
        an ``NPoly`` one as one entry per nonzero power of n."""
        return self._d, {key[:-1]: v for key, v in self._num.items()}

    def constant_term(self):
        return self.coeff((0,) * len(self.variables))

    def order(self):
        """Least total degree present, or None for the zero series."""
        if not self._num:
            return None
        return min(sum(k[:-2]) for k in self._num)

    def var_order(self, name):
        """Least exponent of one variable over the support, or None if zero."""
        idx = self.variables.index(name)
        if not self._num:
            return None
        return min(k[idx] for k in self._num)

    def min_term(self):
        """Lowest-order stored term as (exponents, coeff), grading by total
        degree then lexicographic order; None for the zero series."""
        if not self._num:
            return None
        key = min((k[:-2] for k in self._num), key=lambda e: (sum(e), e))
        return key, self.coeff(key)

    # -- structural conversions -------------------------------------------------
    def truncate(self, degree):
        """Forget orders above ``degree``; never extends the certified range."""
        if degree < 0:
            raise SeriesError("truncation degree must be nonnegative")
        if degree >= self.degree:
            return self
        return _reduced(self.variables, degree, self._d, _upto(self._num, degree),
                        self._npoly)

    def lift(self, degree):
        """The same terms, declared to ``degree`` >= the current degree.

        Only for a caller whose own argument accounts for the terms between
        the two degrees, as the Newton passes of ``implicit_solve`` do: a
        pass to degree q corrects w above its degree p, and the inverse
        slope, a factor of a residual of order >= p + 1, matters only
        through q - p - 1.
        """
        if degree < self.degree:
            raise SeriesError(f"lift to degree {degree} below {self.degree}; use truncate")
        return _new(self.variables, degree, self._d, self._num, self._npoly)

    def embed(self, variables):
        """Reinterpret over a superset (or reordering) of the variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = []
        for v in self.variables:
            if v not in variables:
                raise SeriesError(f"cannot embed: variable {v!r} missing from {variables}")
            pos.append(variables.index(v))
        width = len(variables)
        num = {}
        for key, v in self._num.items():
            new = [0] * width
            for p, e in zip(pos, key):
                new[p] = e
            num[tuple(new) + key[-2:]] = v
        return _new(variables, self.degree, self._d, num, self._npoly)

    def slice(self, var, j):
        """The coefficient of ``var^j`` as a series in the remaining variables.

        Certified to degree max(D - j, 0): a term var^j * m is stored only
        when deg m <= D - j.
        """
        idx = self.variables.index(var)
        return _reduced(self.variables[:idx] + self.variables[idx + 1:],
                        max(self.degree - j, 0), self._d,
                        {k[:idx] + k[idx + 1:]: v
                         for k, v in self._num.items() if k[idx] == j},
                        self._npoly)

    def shift(self, var, k):
        """The terms of ``var``-order >= k divided by var^k, certified to D - k."""
        if k > self.degree:
            raise SeriesError(f"shift by {var}^{k} below truncation degree {self.degree}")
        idx = self.variables.index(var)
        return _reduced(self.variables, self.degree - k, self._d,
                        {key[:idx] + (key[idx] - k,) + key[idx + 1:]: v
                         for key, v in self._num.items() if key[idx] >= k},
                        self._npoly)

    @classmethod
    def from_slices(cls, var, parts, degree):
        """sum_j parts[j] * var^j, with ``var`` appended as the last variable.

        The parts share one variable tuple; the result is truncated at the
        given ``degree``, whatever the degrees of the parts.
        """
        if degree < 0:
            raise SeriesError("truncation degree must be nonnegative")
        rest = parts[0].variables
        d = math.lcm(*(part._d for part in parts))
        num = {}
        for j, part in enumerate(parts):
            if part.variables != rest:
                raise SeriesError(f"slice {j} is over {part.variables}, not {rest}")
            m = d // part._d
            for k, (re, im) in part._num.items():
                if sum(k[:-2]) + j <= degree:
                    num[k[:-2] + (j,) + k[-2:]] = (re * m, im * m)
        return _reduced(rest + (var,), degree, d, num,
                        any(part._npoly for part in parts))

    def rename(self, mapping):
        return _new(tuple(mapping.get(v, v) for v in self.variables), self.degree,
                    self._d, self._num, self._npoly)

    def eval_n(self, n0):
        """Evaluate NPoly coefficients at a rational n0."""
        if not self._npoly:
            return self
        n0 = Fraction(n0)
        p, q = n0.numerator, n0.denominator
        top = max(k[-2] for k in self._num if k[-1])
        num = {}
        for k, (re, im) in self._num.items():
            m = p ** k[-2] * q ** (top - k[-2])
            key = k[:-2] + (0, 0)
            cur = num.get(key)
            num[key] = (re * m, im * m) if cur is None else (cur[0] + re * m,
                                                             cur[1] + im * m)
        return _reduced(self.variables, self.degree, self._d * q ** top,
                        _nonzero(num), False)

    def conjugate(self, rename=None):
        """Coefficient-wise conjugation, optionally renaming variables
        (e.g. a series in z conjugates to a series in chi)."""
        variables = self.variables
        if rename:
            variables = tuple(rename.get(v, v) for v in variables)
        return _new(variables, self.degree, self._d,
                    {k: (re, -im) for k, (re, im) in self._num.items()}, self._npoly)

    # -- arithmetic --------------------------------------------------------------
    def _aligned(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {other!r}")
        union = list(self.variables)
        for v in other.variables:
            if v not in union:
                union.append(v)
        return self.embed(union), other.embed(union), min(self.degree, other.degree)

    def __add__(self, other):
        if type(other) is not TruncatedSeries:
            if type(other) is NPoly or exact_parts(other) is not None:
                other = TruncatedSeries.const(self.variables, self.degree, other)
        if type(other) is TruncatedSeries and other.variables == self.variables:
            return _sum(self.variables, (self, other))
        a, b, _ = self._aligned(other)
        return _sum(a.variables, (a, b))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.variables, self.degree, self._d,
                    {k: (-re, -im) for k, (re, im) in self._num.items()}, self._npoly)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not TruncatedSeries:
            # an int, Fraction or ExactComplex scales the rows; an NPoly
            # becomes a constant series
            parts = exact_parts(other)
            if parts is not None:
                if not self._num or not parts[0] and not parts[1]:
                    return _zero(self.variables, self.degree)
                return _scaled(self, *parts)
            if type(other) is NPoly:
                other = TruncatedSeries.const(self.variables, self.degree, other)
        if type(other) is TruncatedSeries and other.variables == self.variables:
            a, b, degree = self, other, min(self.degree, other.degree)
        else:
            a, b, degree = self._aligned(other)
        # a zero factor gives zero, certified to the least degree
        if not a._num or not b._num:
            return _zero(a.variables, degree)
        # a one-row ExactComplex constant scales the rows of the other factor
        for x, y in ((a, b), (b, a)):
            if len(y._num) == 1:
                (key, c), = y._num.items()
                if not any(key):
                    return _scaled(x.truncate(degree), *c, y._d)
        # otherwise one integer convolution of the operands' rows, each
        # sorted by total degree, so each inner loop stops at the truncation
        # instead of testing every pair
        rows2 = _rows(b)
        acc = {}
        get = acc.get
        for e1, s1, a1, b1 in _rows(a):
            lim = degree - s1
            if lim < 0:
                break
            for e2, s2, a2, b2 in rows2:
                if s2 > lim:
                    break
                key = tuple(map(add, e1, e2))
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                cur = get(key)
                if cur is None:
                    acc[key] = [re, im]
                else:
                    cur[0] += re
                    cur[1] += im
        if a._npoly or b._npoly:
            return _poly_reduced(a.variables, degree, a._d * b._d, acc)
        return _reduced(a.variables, degree, a._d * b._d, _nonzero(acc), False)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise SeriesError("negative powers not supported; use divide")
        result = TruncatedSeries.const(self.variables, self.degree, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------------
    def differentiate(self, name, times=1):
        idx = self.variables.index(name)
        num = {}
        for k, (re, im) in self._num.items():
            e = k[idx]
            if e < times:
                continue
            m = math.perm(e, times)
            num[k[:idx] + (e - times,) + k[idx + 1:]] = (re * m, im * m)
        return _reduced(self.variables, max(self.degree - times, 0), self._d, num,
                        self._npoly)

    def jet_coeff(self, exps):
        """Derivative-at-zero convention: prod(e_i!) times the coefficient."""
        exps = tuple(exps)
        return self.coeff(exps) * math.prod(map(factorial, exps))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self._num:
            return f"<series 0 in {self.variables} deg<={self.degree}>"
        items = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        parts = []
        for exps, c in items[:8]:
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.variables, exps) if e)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(items) > 8 else ""
        return f"<series {' + '.join(parts)}{tail} deg<={self.degree}>"


_set_variables = TruncatedSeries.variables.__set__
_set_degree = TruncatedSeries.degree.__set__
_set_d = TruncatedSeries._d.__set__
_set_num = TruncatedSeries._num.__set__
_set_npoly = TruncatedSeries._npoly.__set__
_object_new = object.__new__


# every zero series shares this empty row dict, which no code writes to, so
# the many zero series stay small
_NO_ROWS = {}


def _new(variables, degree, d, num, npoly) -> TruncatedSeries:
    """A series from rows the caller vouches for: canonical over ``d``,
    keys matching ``variables`` and within ``degree``, and ``npoly`` true
    exactly when some row has p = 1."""
    s = _object_new(TruncatedSeries)
    _set_variables(s, variables)
    _set_degree(s, degree)
    _set_d(s, d)
    _set_num(s, num or _NO_ROWS)
    _set_npoly(s, npoly)
    return s


def _zero(variables, degree) -> TruncatedSeries:
    return _new(variables, degree, 1, _NO_ROWS, False)


def _rows(s):
    """The rows (key, total degree, re, im) of ``s``, sorted by total degree."""
    return sorted(((k, sum(k[:-2]), re, im) for k, (re, im) in s._num.items()),
                  key=itemgetter(1))


def _reduced(variables, degree, d, num, npoly) -> TruncatedSeries:
    """``_new`` for rows with no zero row that may share a factor with
    ``d``: one gcd pass divides it out.  ``npoly`` says whether the rows
    may hold p = 1 ones; the flag is set when some kept row does."""
    if d != 1:
        g = d
        for re, im in num.values():
            g = math.gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            d //= g
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    return _new(variables, degree, d, num, npoly and any(k[-1] for k in num))


def _poly_reduced(variables, degree, d, acc) -> TruncatedSeries:
    """``_reduced`` for summed rows that may mix the flags at one ``exps``.

    The coefficient at ``exps`` is an ``NPoly`` when any of its keys has
    p > 0, zero or not: its rows go to p = 1, the ``ExactComplex`` part to
    power k = 0.  Zero rows are then dropped.
    """
    poly = {k[:-2] for k in acc if k[-1]}
    num = {}
    for k, (re, im) in acc.items():
        exps = k[:-2]
        if exps in poly:
            k = exps + (k[-2], 1)
            cur = num.get(k)
            if cur is not None:
                re += cur[0]
                im += cur[1]
        num[k] = (re, im)
    return _reduced(variables, degree, d, _nonzero(num), True)


def _nonzero(acc):
    """The nonzero rows of ``acc``, each stored as a tuple."""
    return {k: (re, im) for k, (re, im) in acc.items() if re or im}


def _upto(num, degree):
    """The rows of total degree at most ``degree``."""
    return {k: v for k, v in num.items() if sum(k[:-2]) <= degree}


def _scaled(s, a0, b0, d0) -> TruncatedSeries:
    """s * (a0 + b0*i)/d0 for a nonzero scalar."""
    if b0:
        num = {k: (re * a0 - im * b0, re * b0 + im * a0)
               for k, (re, im) in s._num.items()}
    elif a0 != 1:
        num = {k: (re * a0, im * a0) for k, (re, im) in s._num.items()}
    else:
        num = s._num
    return _reduced(s.variables, s.degree, s._d * d0, num, s._npoly)


def _sum(variables, parts) -> TruncatedSeries:
    """The sum of any number of series over ``variables``, added as integers
    over the lcm of their denominators in one pass and certified to the
    least of their degrees.

    The coefficient at ``exps`` is an ``NPoly`` when an ``NPoly`` reached it
    from any part, whatever the order of the parts: a p = 1 row that cancels
    is kept as a zero row until ``_poly_reduced`` has folded the rows at its
    ``exps``, while a cancelled p = 0 row is dropped at once.  Zero parts
    count only for the degree.
    """
    degree = min(p.degree for p in parts)
    parts = [p for p in parts if p._num]
    if len(parts) < 2:
        if parts:
            return parts[0].truncate(degree)
        return _zero(variables, degree)
    npoly = any(p._npoly for p in parts)
    d = math.lcm(*(p._d for p in parts))
    out = None
    for p in parts:
        m = d // p._d
        num = p._num if p.degree <= degree else _upto(p._num, degree)
        if out is None:
            out = dict(num) if m == 1 else {k: (re * m, im * m)
                                            for k, (re, im) in num.items()}
            continue
        get = out.get
        for k, (re, im) in num.items():
            if m != 1:
                re *= m
                im *= m
            cur = get(k)
            if cur is None:
                out[k] = (re, im)
            else:
                re += cur[0]
                im += cur[1]
                if re or im or k[-1]:
                    out[k] = (re, im)
                else:
                    del out[k]
    if npoly:
        return _poly_reduced(variables, degree, d, out)
    return _reduced(variables, degree, d, out, False)


class Substitution:
    """Series with zero constant term substituted for some of ``variables``,
    at most to ``degree``: one object for many series over ``variables``.

    ``args`` maps any subset of the variables to replacement series; the
    other variables pass through unchanged.  A result is over the variables
    in order, each substituted variable replaced by the variables of its
    argument not already present (``union``).  Each power of an argument,
    and each product of powers (the image of one substituted monomial), is
    built once, at the least of ``degree`` and the arguments' degrees, and
    kept for every later call, so a caller builds one ``Substitution`` per
    argument set and applies it to every series that set goes into.  The
    groups of a series' terms are added by ``_sum`` in one pass.
    """

    def __init__(self, variables, args, degree):
        variables = tuple(variables)
        unknown = set(args) - set(variables)
        if unknown:
            raise SeriesError(f"compose: {sorted(unknown)} not among the variables {variables}")
        union = []
        for v in variables:
            if v not in args:
                if v not in union:
                    union.append(v)
                continue
            a = args[v]
            if not a.constant_term().is_zero():
                raise SeriesError(f"compose argument for {v!r} has nonzero constant term")
            degree = min(degree, a.degree)
            union += [u for u in a.variables if u not in union]
        self.variables = variables
        self.degree = degree
        self.union = union = tuple(union)
        self._subbed = [i for i, v in enumerate(variables) if v in args]
        self._kept = [(i, union.index(v)) for i, v in enumerate(variables) if v not in args]
        self._powers = {i: [None, args[variables[i]].embed(union).truncate(degree)]
                        for i in self._subbed}
        self._images = {}

    def _image(self, key):
        """The product, in variable order, of the powers that the substituted
        exponents ``key`` name; None when every exponent is 0."""
        images = self._images
        if key in images:
            return images[key]
        term = None
        for i, e in zip(self._subbed, key):
            if e:
                tab = self._powers[i]
                while len(tab) <= e:
                    tab.append(tab[-1] * tab[1])
                term = tab[e] if term is None else term * tab[e]
        images[key] = term
        return term

    def __call__(self, h: TruncatedSeries) -> TruncatedSeries:
        """h at the arguments, certified to min(h.degree, ``degree``)."""
        if h.variables != self.variables:
            raise SeriesError(f"substitution over {self.variables} applied to a "
                              f"series over {h.variables}")
        union = self.union
        degree = min(h.degree, self.degree)
        subbed, kept = self._subbed, self._kept
        # group the rows of h by their substituted exponents; each group is a
        # polynomial in the kept variables, a constant when every one is given
        groups = {}
        for k, v in h._num.items():
            if sum(k[:-2]) > degree:
                continue
            rest = [0] * len(union)
            for i, p in kept:
                rest[p] = k[i]
            groups.setdefault(tuple(k[i] for i in subbed), {})[tuple(rest) + k[-2:]] = v
        terms = []
        for key, num in groups.items():
            term = self._image(key)
            if term is not None and len(num) == 1:
                # a group that is one ExactComplex constant scales its
                # image's rows; a zero image scales to zero at the least
                # degree
                (rest, (re, im)), = num.items()
                if not any(rest):
                    terms.append(_scaled(term.truncate(degree), re, im, h._d))
                    continue
            part = _reduced(union, degree, h._d, num, h._npoly)
            terms.append(part if term is None else part * term)
        return _sum(union, terms or [_zero(union, degree)])


def compose(h: TruncatedSeries, args) -> TruncatedSeries:
    """Substitute series with zero constant term for some variables of h:
    the one-shot use of a ``Substitution``, certified to the least of the
    degrees of h and the arguments.  Only for arguments that go into h
    alone: a caller that substitutes the same arguments into several series
    builds one ``Substitution`` and shares its powers."""
    return Substitution(h.variables, args, h.degree)(h)


def power_series(x: TruncatedSeries, coeffs) -> TruncatedSeries:
    """sum_j c_j x^j for the c_0, c_1, ... that the iterable ``coeffs``
    yields and x with zero constant term, as one ``compose``; x^j has order
    j * ord(x), so only the powers j <= D // ord(x) survive and only their
    c_j are drawn from ``coeffs``."""
    order = x.order()
    top = x.degree // order if order else 0
    h = TruncatedSeries(("t",), x.degree, {(j,): c for j, c in zip(range(top + 1), coeffs)})
    return compose(h, {"t": x})


def n_graded(parts) -> TruncatedSeries:
    """sum_m n^m * parts[m] for series over one variable tuple without
    ``NPoly`` coefficients, certified to the least of their degrees.

    Every coefficient of the result is an ``NPoly``, its n^m coefficient
    that of parts[m]: one pass puts each row of parts[m] at power m, over
    the lcm of the denominators.
    """
    variables = parts[0].variables
    degree = min(part.degree for part in parts)
    d = math.lcm(*(part._d for part in parts))
    num = {}
    for m, part in enumerate(parts):
        if part.variables != variables:
            raise SeriesError(f"part {m} is over {part.variables}, not {variables}")
        if part._npoly:
            raise SeriesError(f"part {m} has NPoly coefficients")
        f = d // part._d
        for k, (re, im) in part._num.items():
            if sum(k[:-2]) <= degree:
                num[k[:-2] + (m, 1)] = (re * f, im * f)
    return _reduced(variables, degree, d, num, True)


def inverse_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series whose constant term c0 is a unit: 1/c0 times the
    geometric series in 1 - a/c0.  An ``NPoly`` c0 has no inverse in the
    coefficient ring, whatever its value."""
    c0 = a.constant_term()
    if type(c0) is NPoly:
        raise SeriesError(f"inverse_unit: constant term {c0} is a polynomial in n")
    if c0.is_zero():
        raise SeriesError("inverse_unit: constant term is zero")
    inv0 = c0.inverse()
    v = (c0 - a) * inv0
    return power_series(v, repeat(1)) * inv0


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact division when den = (monomial) * (unit): both are ``shift``-ed
    by the monomial and the numerator is multiplied by the unit's inverse.

    The result is certified to degree D - d where d is the monomial's total
    degree; failure of monomial divisibility raises with the offending term.
    """
    if den.is_zero():
        raise SeriesError("division by zero series")
    a, b, _ = num._aligned(den)
    base = tuple(min(k[i] for k in b._num) for i in range(len(a.variables)))
    if b.coeff(base).is_zero():
        raise SeriesError(
            f"denominator is not monomial*unit: no term with exponents {base}")
    for k in a._num:
        if any(e < m for e, m in zip(k, base)):
            raise SeriesError(
                f"not divisible: term {dict(zip(a.variables, k))} of the numerator "
                f"has lower order than the denominator monomial {dict(zip(a.variables, base))}")
    # a monomial above the truncation makes a shift raise
    for v, m in zip(a.variables, base):
        if m:
            a, b = a.shift(v, m), b.shift(v, m)
    return a * inverse_unit(b)


def implicit_solve(rho: TruncatedSeries, wvar: str) -> TruncatedSeries:
    """Solve rho(w, x) = 0 for w = w(x) with w(0) = 0.

    Requires rho(0) = 0 and d rho/dw (0) a unit.  Newton's method with
    precision doubling (Brent and Kung, 1978): a pass from w exact through
    p to precision q <= 2p + 1 sets w <- w - rho(w) / rho_w(w), exact
    through q since the step's error has order >= 2p + 2.  rho(w) has
    order >= p + 1, so 1/rho_w(w) is needed only through q - p - 1 <= p,
    where w is already exact.  The precisions are D, D // 2, ..., 1 taken
    upward, and a pass whose rho(w) vanishes to q keeps w.  Each pass
    substitutes w into rho and rho_w through one ``Substitution``, so the
    solution is over the other variables of rho, in order.
    """
    if not rho.constant_term().is_zero():
        raise SeriesError("implicit function theorem hypothesis fails: rho(0) != 0")
    slope = rho.differentiate(wvar)
    if slope.constant_term().is_zero():
        raise SeriesError("implicit function theorem hypothesis fails: d rho/dw (0) is not a unit")
    precisions = []
    q = rho.degree
    while q:
        precisions.append(q)
        q //= 2
    w = TruncatedSeries.zero([v for v in rho.variables if v != wvar], 0)
    for q in reversed(precisions):
        p = w.degree
        w = w.lift(q)
        at_w = Substitution(rho.variables, {wvar: w}, q)
        residual = at_w(rho)
        if not residual.is_zero():
            inv = inverse_unit(at_w(slope.truncate(q - p - 1)))
            w = w - residual * inv.lift(q)
    return w


def kth_root_unit(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """The unique r with r(0) = 1 and r^k = a, for a(0) = 1: the binomial
    series of exponent 1/k in a - 1."""
    if k <= 0:
        raise SeriesError("root order must be positive")
    if a.constant_term() != 1:
        raise SeriesError("kth_root_unit requires constant term exactly 1")
    alpha = Fraction(1, k)
    coeffs = accumulate(count(1), lambda c, j: c * (alpha - (j - 1)) / j, initial=Fraction(1))
    return power_series(a - 1, coeffs)
