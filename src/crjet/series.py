"""Dense truncated multivariate power series over the exact coefficient rings.

A ``TruncatedSeries`` keeps a dict from exponent tuples to coefficients
(``ExactComplex`` or ``NPoly``) together with an ordered variable tuple and a
truncation degree D.  Every operation is exact modulo truncation; operations
that genuinely lose orders (differentiation, division by a monomial) shrink
the recorded truncation degree so downstream certificates stay honest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .scalars import (EC_ZERO, ExactComplex, NPoly, factorial, from_numerators,
                      numerator_rows)


class SeriesError(ArithmeticError):
    pass


def _coerce_coeff(c):
    if isinstance(c, (ExactComplex, NPoly)):
        return c
    return ExactComplex.coerce(c)


def _is_scalar(c):
    return isinstance(c, (int, Fraction, ExactComplex, NPoly))


class TruncatedSeries:
    __slots__ = ("variables", "degree", "coeffs")

    def __init__(self, variables, degree, coeffs=None):
        variables = tuple(variables)
        if degree < 0:
            raise SeriesError("truncation degree must be nonnegative")
        clean = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise SeriesError(f"exponent {exps} does not match variables {variables}")
            if sum(exps) > degree:
                continue
            c = _coerce_coeff(c)
            if not c.is_zero():
                clean[exps] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, variables, degree):
        return cls(variables, degree, {})

    @classmethod
    def const(cls, variables, degree, c):
        variables = tuple(variables)
        return cls(variables, degree, {(0,) * len(variables): _coerce_coeff(c)})

    @classmethod
    def var(cls, name, variables, degree):
        variables = tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if sum(exps) != 1:
            raise SeriesError(f"variable {name!r} not in {variables}")
        return cls(variables, degree, {exps: ExactComplex(1)})

    # -- inspection ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exps):
        """The stored coefficient, or ``EC_ZERO`` for any missing term."""
        return self.coeffs.get(tuple(exps), EC_ZERO)

    def constant_term(self):
        return self.coeff((0,) * len(self.variables))

    def order(self):
        """Least total degree present, or None for the zero series."""
        if not self.coeffs:
            return None
        return min(sum(e) for e in self.coeffs)

    def var_order(self, name):
        """Least exponent of one variable over the support, or None if zero."""
        idx = self.variables.index(name)
        if not self.coeffs:
            return None
        return min(e[idx] for e in self.coeffs)

    def min_term(self):
        """Lowest-order stored term as (exponents, coeff), grading by total
        degree then lexicographic order; None for the zero series."""
        if not self.coeffs:
            return None
        key = min(self.coeffs, key=lambda e: (sum(e), e))
        return key, self.coeffs[key]

    # -- structural conversions -------------------------------------------------
    def truncate(self, degree):
        """Forget orders above ``degree``; never extends the certified range."""
        if degree >= self.degree:
            return self
        return _series(self.variables, degree, _upto(self.coeffs, degree))

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
        out = {}
        for exps, c in self.coeffs.items():
            new = [0] * len(variables)
            for p, e in zip(pos, exps):
                new[p] = e
            out[tuple(new)] = c
        return _series(variables, self.degree, out)

    def slice(self, var, j):
        """The coefficient of ``var^j`` as a series in the remaining variables.

        Certified to degree max(D - j, 0): a term var^j * m is stored only
        when deg m <= D - j.
        """
        idx = self.variables.index(var)
        return _series(self.variables[:idx] + self.variables[idx + 1:],
                       max(self.degree - j, 0),
                       {e[:idx] + e[idx + 1:]: c
                        for e, c in self.coeffs.items() if e[idx] == j})

    @classmethod
    def from_slices(cls, var, parts, degree):
        """sum_j parts[j] * var^j, with ``var`` appended as the last variable.

        The parts share one variable tuple; the result is truncated at the
        given ``degree``, whatever the degrees of the parts.
        """
        rest = parts[0].variables
        out = {}
        for j, part in enumerate(parts):
            if part.variables != rest:
                raise SeriesError(f"slice {j} is over {part.variables}, not {rest}")
            for e, c in part.coeffs.items():
                out[e + (j,)] = c
        return cls(rest + (var,), degree, out)

    def rename(self, mapping):
        return _series(tuple(mapping.get(v, v) for v in self.variables),
                       self.degree, self.coeffs)

    def map_coeffs(self, fn):
        """Apply ``fn`` (returning ``ExactComplex`` or ``NPoly``) to every
        coefficient."""
        return _series(self.variables, self.degree,
                       {e: fn(c) for e, c in self.coeffs.items()})

    def eval_n(self, n0):
        """Evaluate NPoly coefficients at an integer n0."""
        return self.map_coeffs(lambda c: c(n0) if isinstance(c, NPoly) else c)

    def conjugate(self, rename=None):
        """Coefficient-wise conjugation, optionally renaming variables
        (e.g. a series in z conjugates to a series in chi)."""
        out = self.map_coeffs(lambda c: c.conj())
        if rename:
            out = out.rename(rename)
        return out

    # -- arithmetic --------------------------------------------------------------
    def _aligned(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {other!r}")
        degree = min(self.degree, other.degree)
        if self.variables == other.variables:
            a, b = self, other
        else:
            union = list(self.variables)
            for v in other.variables:
                if v not in union:
                    union.append(v)
            a, b = self.embed(tuple(union)), other.embed(tuple(union))
        return a, b, degree

    def __add__(self, other):
        if _is_scalar(other):
            other = TruncatedSeries.const(self.variables, self.degree, other)
        a, b, degree = self._aligned(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        if degree < max(a.degree, b.degree):
            out = _upto(out, degree)
        return _series(a.variables, degree, out)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        if _is_scalar(other):
            other = TruncatedSeries.const(self.variables, self.degree, other)
        return self + (-other)

    def __mul__(self, other):
        if _is_scalar(other):
            c0 = _coerce_coeff(other)
            return self.map_coeffs(lambda c: c * c0)
        # one integer convolution of the operands' numerator_rows; the right
        # rows are sorted by total degree, so each inner loop stops at the
        # truncation instead of testing every pair
        a, b, degree = self._aligned(other)
        d1, rows1 = numerator_rows(a.coeffs)
        d2, rows2 = numerator_rows(b.coeffs)
        acc = {}
        get = acc.get
        for e1, s1, a1, b1 in rows1:
            lim = degree - s1
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
        return _series(a.variables, degree, from_numerators(acc, d1 * d2))

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
        out = self
        for _ in range(times):
            nxt = {}
            for exps, c in out.coeffs.items():
                e = exps[idx]
                if e == 0:
                    continue
                key = exps[:idx] + (e - 1,) + exps[idx + 1:]
                nxt[key] = c * e
            out = _series(self.variables, max(out.degree - 1, 0), nxt)
        return out

    def jet_coeff(self, exps):
        """Derivative-at-zero convention: prod(e_i!) times the coefficient."""
        exps = tuple(exps)
        return self.coeff(exps) * math.prod(map(factorial, exps))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.coeffs:
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
_set_coeffs = TruncatedSeries.coeffs.__set__


def _series(variables, degree, coeffs) -> TruncatedSeries:
    """A series from parts the caller vouches for: exponent tuples matching
    ``variables`` and within ``degree``, coefficients already ``ExactComplex``
    or ``NPoly``.  Only zero coefficients are dropped."""
    s = object.__new__(TruncatedSeries)
    _set_variables(s, variables)
    _set_degree(s, degree)
    _set_coeffs(s, {e: c for e, c in coeffs.items() if not c.is_zero()})
    return s


def _upto(coeffs, degree):
    """The terms of total degree at most ``degree``."""
    return {e: c for e, c in coeffs.items() if sum(e) <= degree}


def compose(h: TruncatedSeries, args) -> TruncatedSeries:
    """Substitute series with zero constant term for some variables of h.

    ``args`` maps any subset of h's variables to replacement series; the
    other variables pass through unchanged.  The result is over h's
    variables in order, each substituted variable replaced by the variables
    of its argument not already present, and is certified to the least of
    the degrees of h and the arguments.
    """
    unknown = set(args) - set(h.variables)
    if unknown:
        raise SeriesError(f"compose: {sorted(unknown)} not among the variables {h.variables}")
    union = []
    degree = h.degree
    for v in h.variables:
        if v not in args:
            if v not in union:
                union.append(v)
            continue
        a = args[v]
        if not a.constant_term().is_zero():
            raise SeriesError(f"compose argument for {v!r} has nonzero constant term")
        degree = min(degree, a.degree)
        union += [u for u in a.variables if u not in union]
    union = tuple(union)
    subbed = [i for i, v in enumerate(h.variables) if v in args]
    kept = [(i, union.index(v)) for i, v in enumerate(h.variables) if v not in args]
    powers = {i: [None, args[h.variables[i]].embed(union).truncate(degree)]
              for i in subbed}

    def power(i, e):
        tab = powers[i]
        while len(tab) <= e:
            tab.append(tab[-1] * tab[1])
        return tab[e]

    # group the terms of h by their substituted exponents; each group is a
    # polynomial in the kept variables, a constant when every one is given
    groups = {}
    for exps, c in h.coeffs.items():
        if sum(exps) > degree:
            continue
        rest = [0] * len(union)
        for i, p in kept:
            rest[p] = exps[i]
        groups.setdefault(tuple(exps[i] for i in subbed), {})[tuple(rest)] = c
    const = (0,) * len(union)
    acc = TruncatedSeries.zero(union, degree)
    for key, part in groups.items():
        term = None
        for i, e in zip(subbed, key):
            if e:
                term = power(i, e) if term is None else term * power(i, e)
        if term is None:
            acc = acc + _series(union, degree, part)
        elif len(part) == 1 and const in part:
            acc = acc + term * part[const]
        else:
            acc = acc + _series(union, degree, part) * term
    return acc


def inverse_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series whose constant term is a unit (geometric series)."""
    c0 = a.constant_term()
    if c0.is_zero():
        raise SeriesError("inverse_unit: constant term is zero")
    inv0 = c0.inverse()
    v = -((a - TruncatedSeries.const(a.variables, a.degree, c0)) * inv0)
    acc = TruncatedSeries.const(a.variables, a.degree, 1)
    term = acc
    for _ in range(a.degree):
        term = term * v
        if term.is_zero():
            break
        acc = acc + term
    return acc * inv0


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact division when den = (monomial) * (unit).

    The result is certified to degree D - d where d is the monomial's total
    degree; failure of monomial divisibility raises with the offending term.
    """
    if den.is_zero():
        raise SeriesError("division by zero series")
    a, b, degree = num._aligned(den)
    nvars = len(a.variables)
    mins = [min(e[i] for e in b.coeffs) for i in range(nvars)]
    base = tuple(mins)
    if base not in b.coeffs:
        raise SeriesError(
            f"denominator is not monomial*unit: no term with exponents {base}")
    d = sum(base)
    shifted_den = {}
    for exps, c in b.coeffs.items():
        shifted_den[tuple(e - m for e, m in zip(exps, base))] = c
    shifted_num = {}
    for exps, c in a.coeffs.items():
        if any(e < m for e, m in zip(exps, base)):
            raise SeriesError(
                f"not divisible: term {dict(zip(a.variables, exps))} of the numerator "
                f"has lower order than the denominator monomial {dict(zip(a.variables, base))}")
        shifted_num[tuple(e - m for e, m in zip(exps, base))] = c
    new_degree = degree - d
    u = TruncatedSeries(a.variables, new_degree, shifted_den)
    q = TruncatedSeries(a.variables, new_degree, shifted_num)
    return q * inverse_unit(u)


def implicit_solve(rho: TruncatedSeries, wvar: str) -> TruncatedSeries:
    """Solve rho(w, x) = 0 for w = w(x) with w(0) = 0.

    Requires rho(0) = 0 and the pure-w-linear coefficient c to be a unit;
    the solution is found by the contraction w -> w - rho(w, x)/c, which
    gains one correct order per pass.  Each pass is one ``compose`` of rho
    at w, so the solution is over the other variables of rho, in order.
    """
    if not rho.constant_term().is_zero():
        raise SeriesError("implicit function theorem hypothesis fails: rho(0) != 0")
    idx = rho.variables.index(wvar)
    lin = tuple(1 if i == idx else 0 for i in range(len(rho.variables)))
    c = rho.coeff(lin)
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


def kth_root_unit(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """The unique r with r(0) = 1 and r^k = a, for a(0) = 1 (binomial series)."""
    if k <= 0:
        raise SeriesError("root order must be positive")
    one = TruncatedSeries.const(a.variables, a.degree, 1)
    if not (a.constant_term() - _coerce_coeff(1)).is_zero():
        raise SeriesError("kth_root_unit requires constant term exactly 1")
    x = a - one
    acc = one
    term = one
    coeff = Fraction(1)
    alpha = Fraction(1, k)
    for j in range(1, a.degree + 1):
        term = term * x
        if term.is_zero():
            break
        coeff = coeff * (alpha - (j - 1)) / j
        acc = acc + term * coeff
    return acc
