import math
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from crjet import io as cio
from crjet import series
from crjet.hypersurface import family_b0, family_mc, family_nb
from crjet.scalars import EC_I, EC_ONE, EC_ZERO, ExactComplex, NPoly
from crjet.series import (SeriesError, TruncatedSeries, compose, divide,
                          implicit_solve, inverse_unit, kth_root_unit)

from conftest import assert_same_series, rand_complex, random_series
from solver_oracle import contraction_solve

DEG = 8
XY = ("x", "y")


def srs(coeffs, degree=DEG, variables=XY):
    return TruncatedSeries(variables, degree, coeffs)


small_series = st.builds(
    lambda seed, deg: random_series(random.Random(seed), XY, deg, 5),
    st.integers(0, 10 ** 6), st.integers(3, DEG))


class TestArithmetic:
    @given(small_series, small_series)
    def test_mul_commutes_and_degree_is_min(self, a, b):
        assert a * b == b * a
        assert (a * b).degree == min(a.degree, b.degree)

    @given(small_series, small_series, small_series)
    def test_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    def test_power_by_squaring(self):
        x = TruncatedSeries.var("x", XY, DEG)
        one = TruncatedSeries.const(XY, DEG, 1)
        p = (one + x) ** 5
        for k in range(6):
            assert p.coeff((k, 0)) == ExactComplex(
                [1, 5, 10, 10, 5, 1][k])

    def test_truncation_drops_high_terms(self):
        a = srs({(5, 0): ExactComplex(1), (1, 1): ExactComplex(2)})
        t = a.truncate(3)
        assert t.degree == 3
        assert t.coeff((5, 0)).is_zero()
        assert t.coeff((1, 1)) == ExactComplex(2)

    def test_truncation_refuses_a_negative_degree(self):
        a = TruncatedSeries(("z",), 5, {(1,): 1, (3,): 2})
        assert a.truncate(0).is_zero() and a.truncate(0).degree == 0
        with pytest.raises(SeriesError, match="nonnegative"):
            a.truncate(-1)

    def test_sum_drops_terms_above_the_result_degree(self):
        a = srs({(5, 0): ExactComplex(1), (1, 1): ExactComplex(2)})
        b = srs({(0, 1): EC_I}, degree=3)
        for s in (a + b, b + a):
            assert s.degree == 3
            assert all(sum(e) <= 3 for e in s.coeffs)
        assert (a + b).coeffs == {(1, 1): ExactComplex(2), (0, 1): EC_I}


def union_of(a, b):
    return a.variables + tuple(v for v in b.variables if v not in a.variables)


def schoolbook(a, b):
    """The product a * b as variables, degree and coefficients, one scalar
    product c1 * c2 per pair of terms, summed per exponent tuple."""
    variables = union_of(a, b)
    degree = min(a.degree, b.degree)
    out = {}
    for e1, c1 in a.embed(variables).coeffs.items():
        for e2, c2 in b.embed(variables).coeffs.items():
            if sum(e1) + sum(e2) > degree:
                continue
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = c1 * c2 if key not in out else out[key] + c1 * c2
    return variables, degree, {e: c for e, c in out.items() if not c.is_zero()}


exact = st.builds(lambda a, b, d: ExactComplex(Fraction(a, d), Fraction(b, d)),
                  st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12))
npolys = st.lists(exact, min_size=1, max_size=3).map(NPoly)
COEFFS = {"exact": exact, "npoly": npolys, "mixed": st.one_of(exact, npolys)}


@st.composite
def series_of(draw, coeffs, variables=None):
    if variables is None:
        variables = draw(st.sampled_from((("x", "y"), ("y", "x"), ("x",), ("y", "t"))))
    degree = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, degree)] * len(variables))
    return TruncatedSeries(variables, degree, draw(st.dictionaries(exps, coeffs, max_size=8)))


def assert_canonical(s):
    """The stored rows of s: no zero row, every row within the degree, one
    p = 0 row or p = 1 rows only at each exponent tuple, the NPoly flag
    exact, and no factor common to the denominator and every numerator."""
    exps_flags = {}
    for key, (re, im) in s._num.items():
        assert len(key) == len(s.variables) + 2
        assert re or im
        assert sum(key[:-2]) <= s.degree
        assert key[-1] in (0, 1) and (key[-1] or key[-2] == 0)
        exps_flags.setdefault(key[:-2], []).append(key[-1])
    assert all(flags == [0] or all(flags) for flags in exps_flags.values())
    assert s._npoly == any(key[-1] for key in s._num)
    assert math.gcd(s._d, *(x for v in s._num.values() for x in v)) == 1


def assert_matches(s, variables, degree, coeffs):
    """s has these variables, degree, keys, values and coefficient types."""
    assert_canonical(s)
    assert (s.variables, s.degree) == (variables, degree)
    assert s.coeffs == coeffs
    assert {e: type(c) for e, c in s.coeffs.items()} == \
        {e: type(c) for e, c in coeffs.items()}
    # coeff reads the rows at one key: every stored key and one absent one,
    # unless the series has no variables and a constant term
    expected = dict(coeffs)
    for e in product(range(degree + 2), repeat=len(variables)):
        if e not in coeffs:
            expected[e] = EC_ZERO
            break
    for e, c in expected.items():
        got = s.coeff(e)
        assert got == c and type(got) is type(c)


class TestConstructors:
    CONSTANTS = [3, -1, Fraction(-2, 3), ExactComplex(Fraction(1, 2), -3), EC_I,
                 NPoly([1, Fraction(1, 4)]), NPoly([2]), 0, Fraction(0), EC_ZERO, NPoly([0])]

    @pytest.mark.parametrize("variables", [["x", "y"], ("z", "chi", "s"), ()])
    def test_const_and_zero_match_the_checked_constructor(self, variables):
        key = (0,) * len(variables)
        for c, degree in product(self.CONSTANTS, (0, 5)):
            coeff = c if type(c) is NPoly else ExactComplex.coerce(c)
            want = {} if coeff.is_zero() else {key: coeff}
            for s, ref, coeffs in (
                    (TruncatedSeries.const(variables, degree, c),
                     TruncatedSeries(variables, degree, {key: c}), want),
                    (TruncatedSeries.zero(variables, degree),
                     TruncatedSeries(variables, degree, {}), {})):
                assert_matches(s, tuple(variables), degree, coeffs)
                assert (s._d, s._num, s._npoly) == (ref._d, ref._num, ref._npoly)

    def test_a_negative_degree_raises(self):
        for c in self.CONSTANTS:
            with pytest.raises(SeriesError, match="nonnegative"):
                TruncatedSeries.const(XY, -1, c)
        with pytest.raises(SeriesError, match="nonnegative"):
            TruncatedSeries.zero(XY, -1)

    @pytest.mark.parametrize("variables, exps", [
        (("z",), (-1,)), (("z", "w"), (-2, 4)), (("z",), (1.5,)), (("z",), (True,)),
        (("z", "w"), (1, False)), (("z",), ("1",)), (("z", "w"), (-1, 9))])
    def test_an_exponent_that_is_not_a_nonnegative_int_raises(self, variables, exps):
        # refused with any coefficient, zero or above the degree too; a bool
        # is not an int here, as in the JSON format
        for c in (1, 0, NPoly([1, 2])):
            with pytest.raises(SeriesError, match=re.escape(str(exps))):
                TruncatedSeries(variables, 3, {(0,) * len(variables): 1, exps: c})

    def test_the_checked_constructor_builds_no_exact_complex(self, monkeypatch):
        # every coefficient is read through exact_parts: with ExactComplex
        # unbuildable, nothing in series coerces, and the rows keep the order
        # and the values given; an int subclass is an int, as an exponent too
        class Int(int):
            pass
        half, w = Fraction(1, 2), ExactComplex(Fraction(-2, 3), 5)
        p = NPoly([Fraction(1, 3), 0, w])
        given = [
            ({(0, 0): 3, (1, 0): half, (0, 1): True, (Int(2), 1): Int(-4), (1, 1): w,
              (0, 2): p, (3, 0): 0, (2, 0): Fraction(0), (1, 2): EC_ZERO,
              (3, 1): NPoly([0]), (4, 0): 7, (2, 3): p}, 3),
            ({(2, 2): Fraction(5, 6), (1, 0): Fraction(-7, 4), (0, 0): 1}, 6),
            ({(1, 1): p, (0, 1): NPoly([2]), (0, 0): w}, 2),
            ({}, 4)]
        a = family_mc(half, 2, 10).Theta.slice("s", 1) + 1
        makers = [lambda: family_mc(half, 2, 10).Theta, lambda: family_nb(w, 2, 8).Theta,
                  lambda: family_nb(Fraction(3, 2), 1, 8).Theta, lambda: family_b0(8).Theta,
                  lambda: inverse_unit(a), lambda: kth_root_unit(a, 3),
                  lambda: series.power_series(a - 1, [1, half, w, -2, 0, Int(3)])]
        built = [make() for make in makers]
        calls = []
        coerce = ExactComplex.coerce.__func__

        def recording(cls, x):
            calls.append(sys._getframe(1).f_code.co_filename)
            return coerce(cls, x)

        def unbuildable(self, *args):
            raise AssertionError("an ExactComplex was built")

        with monkeypatch.context() as m:
            m.setattr(ExactComplex, "coerce", classmethod(recording))
            m.setattr(ExactComplex, "__init__", unbuildable)
            got = [TruncatedSeries(XY, degree, coeffs) for coeffs, degree in given]
            assert [f for f in calls if f == series.__file__] == []
            var = TruncatedSeries.var("y", XY, 4)
            rebuilt = [make() for make in makers]
            with pytest.raises(TypeError, match=re.escape(
                    "cannot coerce '1/2' to ExactComplex")):
                TruncatedSeries(XY, 3, {(0, 0): 1, (1, 0): "1/2"})
            with pytest.raises(TypeError, match=re.escape(
                    "cannot coerce 0.5 to ExactComplex")):
                TruncatedSeries(XY, 3, {(1, 0): 0.5})
        assert [f for f in calls if f == series.__file__] == []
        for s, (coeffs, degree) in zip(got, given):
            want = {e: c if type(c) is NPoly else ExactComplex.coerce(c)
                    for e, c in coeffs.items() if sum(e) <= degree}
            want = {e: c for e, c in want.items() if not c.is_zero()}
            assert_matches(s, XY, degree, want)
            assert list(dict.fromkeys(k[:-2] for k in s._num)) == list(want)
        assert_matches(var, XY, 4, {(0, 1): EC_ONE})
        assert built[0].coeffs == {(2, 2, 1): half}
        for s, ref in zip(rebuilt, built):
            assert (s.variables, s.degree, s._d, s._num, s._npoly) == \
                (ref.variables, ref.degree, ref._d, ref._num, ref._npoly)


class TestProductKernel:
    @pytest.mark.parametrize("left, right", [("exact", "exact"), ("exact", "npoly"),
                                             ("npoly", "exact"), ("npoly", "npoly"),
                                             ("mixed", "mixed")])
    @given(data=st.data())
    def test_matches_schoolbook_products(self, left, right, data):
        a = data.draw(series_of(COEFFS[left]))
        b = data.draw(series_of(COEFFS[right]))
        assert_matches(a * b, *schoolbook(a, b))

    @pytest.mark.parametrize("unit", [EC_I, NPoly([0, 1])])
    def test_cancelled_terms_are_dropped(self, unit):
        # (u x + y)(u x - y) = u^2 x^2 - y^2: the x y terms cancel
        a = srs({(1, 0): unit, (0, 1): ExactComplex(1)})
        b = srs({(1, 0): unit, (0, 1): ExactComplex(-1)})
        p = a * b
        assert (1, 1) not in p.coeffs
        assert p.coeffs == {(2, 0): unit * unit, (0, 2): ExactComplex(-1)}

    def test_product_rows_are_tuples(self):
        # numerators() hands out the stored rows: a product must store them
        # immutable, as every other path does, or a caller could rewrite it
        V = ("z", "chi")
        z, chi = (TruncatedSeries.var(v, V, DEG) for v in V)
        p = z * chi * (z + 1)
        before = p.coeffs
        _, num = p.numerators()
        assert num and all(type(row) is tuple for row in num.values())
        with pytest.raises(TypeError):
            num[(1, 1, 0)][0] = 7
        assert p.coeffs == before == {(1, 1): ExactComplex(1), (2, 1): ExactComplex(1)}


def nonzero(coeffs, degree):
    return {e: c for e, c in coeffs.items() if sum(e) <= degree and not c.is_zero()}


def naive_add(x, y):
    """x + y one coefficient sum per shared key, zero sums dropped."""
    out = dict(x)
    for e, c in y.items():
        out[e] = c if e not in out else out[e] + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def naive_mul(x, y, degree):
    """x * y by one scalar product c1 * c2 per pair of terms."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            if sum(e1) + sum(e2) > degree:
                continue
            key = tuple(p + q for p, q in zip(e1, e2))
            out[key] = c1 * c2 if key not in out else out[key] + c1 * c2
    return nonzero(out, degree)


def naive_compose(h, args):
    """compose(h, args) from coefficient objects, in the library's order of
    work: power chains p_e = p_(e-1) * p_1 per argument, each group of h's
    terms with the same substituted exponents times the product of its
    powers, and the groups added in one batch whose zero sums are dropped
    only at the end, so an NPoly that reached a term keeps it one."""
    union, degree = [], h.degree
    for v in h.variables:
        new = args[v].variables if v in args else (v,)
        union += [u for u in new if u not in union]
        if v in args:
            degree = min(degree, args[v].degree)
    union = tuple(union)
    one = {(0,) * len(union): ExactComplex(1)}
    chains = {v: [one, nonzero(a.embed(union).coeffs, degree)] for v, a in args.items()}
    groups = {}
    for e, c in h.coeffs.items():
        if sum(e) > degree:
            continue
        rest = [0] * len(union)
        for v, k in zip(h.variables, e):
            if v not in args:
                rest[union.index(v)] = k
        key = tuple(k for v, k in zip(h.variables, e) if v in args)
        groups.setdefault(key, {})[tuple(rest)] = c
    subbed = [v for v in h.variables if v in args]
    total = {}
    for key, part in groups.items():
        term = None
        for v, k in zip(subbed, key):
            if k:
                chain = chains[v]
                while len(chain) <= k:
                    chain.append(naive_mul(chain[-1], chain[1], degree))
                term = chain[k] if term is None else naive_mul(term, chain[k], degree)
        for e, c in (part if term is None else naive_mul(part, term, degree)).items():
            total[e] = c if e not in total else total[e] + c
    return union, degree, nonzero(total, degree)


scalars = st.one_of(exact, npolys, st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


class TestRowOperations:
    """Every row operation against the same operation on coefficient objects."""

    KINDS = pytest.mark.parametrize("kind", ["exact", "npoly", "mixed"])

    @KINDS
    @given(data=st.data())
    def test_sum_difference_and_negation(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        b = data.draw(series_of(COEFFS["mixed"]))
        variables = union_of(a, b)
        degree = min(a.degree, b.degree)
        x = nonzero(a.embed(variables).coeffs, degree)
        y = nonzero(b.embed(variables).coeffs, degree)
        assert_matches(a + b, variables, degree, naive_add(x, y))
        assert_matches(a - b, variables, degree,
                       naive_add(x, {e: -c for e, c in y.items()}))
        assert_matches(-a, a.variables, a.degree, {e: -c for e, c in a.coeffs.items()})

    @KINDS
    @given(data=st.data())
    def test_scalar_products(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        c0 = data.draw(scalars)
        want = nonzero({e: c * c0 for e, c in a.coeffs.items()}, a.degree)
        assert_matches(a * c0, a.variables, a.degree, want)
        c = c0 if type(c0) is NPoly else ExactComplex.coerce(c0)
        const = nonzero({(0,) * len(a.variables): c}, a.degree)
        assert_matches(a + c0, a.variables, a.degree, naive_add(a.coeffs, const))
        assert_matches(a - c0, a.variables, a.degree,
                       naive_add(a.coeffs, {e: -x for e, x in const.items()}))
        # a scalar on the left gives what it gives on the right
        assert_matches(c0 * a, a.variables, a.degree, want)
        assert_matches(c0 + a, a.variables, a.degree, (a + c0).coeffs)
        assert_matches(c0 - a, a.variables, a.degree, (-(a - c0)).coeffs)

    @KINDS
    @given(data=st.data())
    def test_zero_operands(self, kind, data):
        # a zero series is zero only to its degree: every product, sum and
        # difference with one is certified to the least degree, and a zero
        # result carries no NPoly flag
        a = data.draw(series_of(COEFFS[kind]))
        zero = TruncatedSeries.zero(data.draw(st.sampled_from((XY, ("y", "t"), ("x",)))),
                                    data.draw(st.integers(0, 5)))
        for x, y in ((zero, a), (a, zero)):
            variables = union_of(x, y)
            degree = min(x.degree, y.degree)
            xs = nonzero(x.embed(variables).coeffs, degree)
            ys = nonzero(y.embed(variables).coeffs, degree)
            assert_matches(x * y, *schoolbook(x, y))
            assert_matches(x + y, variables, degree, naive_add(xs, ys))
            assert_matches(x - y, variables, degree,
                           naive_add(xs, {e: -c for e, c in ys.items()}))
            assert not (x * y)._npoly
        c0 = data.draw(scalars)
        for p in (zero * c0, c0 * zero, a * 0, 0 * a, a * EC_ZERO, a * NPoly([0])):
            assert p.is_zero() and not p._npoly
        assert_matches(zero * c0, zero.variables, zero.degree, {})
        assert_matches(a * NPoly([0]), a.variables, a.degree, {})

    @KINDS
    @given(data=st.data())
    def test_int_and_fraction_products_build_no_exact_complex(self, kind, data):
        # an int or Fraction scales the rows directly: the canonical form is
        # unique, so the rows are those of the product by the ExactComplex
        # and by the constant series
        a = data.draw(series_of(COEFFS[kind]))
        c = data.draw(st.one_of(st.integers(-3, 3),
                                st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))))

        def refuse(self, *args):
            raise AssertionError("a scalar product built an ExactComplex")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactComplex, "__init__", refuse)
            products = (a * c, c * a)
        for other in (ExactComplex.coerce(c), TruncatedSeries.const(a.variables, a.degree, c)):
            want = a * other
            for p in products:
                assert_canonical(p)
                assert (p.variables, p.degree) == (a.variables, a.degree)
                assert (p._d, p._num, p._npoly) == (want._d, want._num, want._npoly)

    def test_a_zero_factor_sorts_no_rows(self, monkeypatch):
        a = srs({(1, 0): ExactComplex(2), (0, 1): NPoly([0, 1])})
        zero = TruncatedSeries.zero(("y", "t"), 3)

        def unsorted(s):
            raise AssertionError("a product with a zero factor sorted rows")

        monkeypatch.setattr(series, "_rows", unsorted)
        for x, y in ((a, zero), (zero, a), (zero, zero)):
            assert_matches(x * y, union_of(x, y), 3, {})

    @KINDS
    @given(data=st.data())
    def test_shift(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        var = data.draw(st.sampled_from(a.variables))
        k = data.draw(st.integers(0, 6))
        if k > a.degree:
            with pytest.raises(SeriesError):
                a.shift(var, k)
            return
        idx = a.variables.index(var)
        assert_matches(a.shift(var, k), a.variables, a.degree - k,
                       {e[:idx] + (e[idx] - k,) + e[idx + 1:]: c
                        for e, c in a.coeffs.items() if e[idx] >= k})

    @KINDS
    @given(data=st.data())
    def test_conjugate_and_rename(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        want = {e: c.conj() for e, c in a.coeffs.items()}
        assert_matches(a.conjugate(), a.variables, a.degree, want)
        renamed = tuple(v.upper() for v in a.variables)
        assert_matches(a.conjugate(rename={v: v.upper() for v in a.variables}),
                       renamed, a.degree, want)

    @KINDS
    @given(data=st.data())
    def test_differentiate(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        var = data.draw(st.sampled_from(a.variables))
        times = data.draw(st.integers(0, 3))
        idx = a.variables.index(var)
        want, degree = dict(a.coeffs), a.degree
        for _ in range(times):
            want = {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
                    for e, c in want.items() if e[idx]}
            degree = max(degree - 1, 0)
        assert_matches(a.differentiate(var, times), a.variables, degree, want)

    @KINDS
    @given(data=st.data())
    def test_slice_embed_truncate(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        var = data.draw(st.sampled_from(a.variables))
        j = data.draw(st.integers(0, 6))
        idx = a.variables.index(var)
        assert_matches(a.slice(var, j), a.variables[:idx] + a.variables[idx + 1:],
                       max(a.degree - j, 0),
                       {e[:idx] + e[idx + 1:]: c for e, c in a.coeffs.items() if e[idx] == j})
        wider = ("s",) + tuple(reversed(a.variables))
        assert_matches(a.embed(wider), wider, a.degree,
                       {(0,) + tuple(reversed(e)): c for e, c in a.coeffs.items()})
        t = data.draw(st.integers(0, 6))
        assert_matches(a.truncate(t), a.variables, min(t, a.degree),
                       nonzero(a.coeffs, t))

    @KINDS
    @given(data=st.data())
    def test_compose(self, kind, data):
        hvars = data.draw(st.sampled_from((("u",), ("u", "v"), ("v", "u", "w"))))
        degree = data.draw(st.integers(0, 5))
        exps = st.tuples(*[st.integers(0, degree)] * len(hvars))
        h = TruncatedSeries(hvars, degree,
                            data.draw(st.dictionaries(exps, COEFFS[kind], max_size=6)))
        subbed = data.draw(st.lists(st.sampled_from(hvars), min_size=1, unique=True))
        args = {}
        for v in subbed:
            arg = data.draw(series_of(COEFFS["mixed"]))
            args[v] = arg - TruncatedSeries.const(arg.variables, arg.degree,
                                                  arg.constant_term())
        assert_matches(compose(h, args), *naive_compose(h, args))

    @KINDS
    @given(data=st.data())
    def test_eval_n(self, kind, data):
        a = data.draw(series_of(COEFFS[kind]))
        n0 = data.draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
        want = {e: c(n0) if type(c) is NPoly else c for e, c in a.coeffs.items()}
        assert_matches(a.eval_n(n0), a.variables, a.degree, nonzero(want, a.degree))

    def test_npoly_terms_that_cancel_in_a_product_still_make_an_npoly(self):
        # at x y: n * 1 and 1 * (-n) cancel, 2 * 3 remains
        a = srs({(1, 0): NPoly([0, 1]), (0, 1): ExactComplex(1), (0, 0): ExactComplex(2)})
        b = srs({(0, 1): ExactComplex(1), (1, 0): NPoly([0, -1]), (1, 1): ExactComplex(3)})
        p = a * b
        assert p.coeffs[(1, 1)] == NPoly([6])
        assert_matches(p, *schoolbook(a, b))

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0)])
    def test_compose_sums_its_groups_by_the_npoly_rule(self, order):
        # at x^2: 5 from u^2, n from u and -n from v; the NPoly terms cancel
        terms = [((2, 0), ExactComplex(5)), ((1, 0), NPoly([0, 1])), ((0, 1), NPoly([0, -1]))]
        h = TruncatedSeries(("u", "v"), 4, dict(terms[i] for i in order))
        args = {"u": TruncatedSeries(("x",), 4, {(1,): ExactComplex(1), (2,): ExactComplex(1)}),
                "v": TruncatedSeries(("x",), 4, {(2,): ExactComplex(1)})}
        out = compose(h, args)
        assert_matches(out, *naive_compose(h, args))
        # an NPoly reached x^2, so the coefficient there is one, whichever
        # group came first
        assert type(out.coeff((2,))) is NPoly
        assert out.coeff((2,)) == NPoly([5])

    def test_cancelled_npoly_drops_the_term(self):
        c = ExactComplex(Fraction(2, 3), -1)
        s = srs({(1, 0): NPoly([c]), (0, 1): EC_I}) + srs({(1, 0): -c})
        assert_matches(s, XY, DEG, {(0, 1): EC_I})

    def test_npoly_plus_exact_stays_npoly(self):
        s = srs({(1, 0): NPoly([0, 1])}) + srs({(1, 0): ExactComplex(1)})
        assert_matches(s, XY, DEG, {(1, 0): NPoly([1, 1])})

    def test_npoly_times_npoly_is_npoly(self):
        # the p flags of the factors' rows add up to 2 in the product
        p = srs({(1, 0): NPoly([2])}) * srs({(0, 1): NPoly([0, 3])})
        assert_matches(p, XY, DEG, {(1, 1): NPoly([0, 6])})
        assert type(p.coeff((1, 1))) is NPoly

    def test_writing_into_coeffs_changes_no_series(self):
        # coeffs is built from the rows on each read, so a write into the
        # dict it returns reaches neither s nor a series sharing s's rows
        s = srs({(1, 0): ExactComplex(2), (0, 1): NPoly([0, 1])})
        renamed, lifted = s.rename({"x": "chi"}), s.lift(DEG + 2)
        want = {(1, 0): ExactComplex(2), (0, 1): NPoly([0, 1])}
        d = s.coeffs
        d[(1, 0)] = ExactComplex(5)
        d[(0, 1)] = NPoly([7])
        d[(2, 2)] = ExactComplex(1)
        for t in (s, renamed, lifted):
            assert t.coeffs == want
            assert t.coeff((1, 0)) == ExactComplex(2)
            assert t.coeff((0, 1)) == NPoly([0, 1])
            assert t.coeff((2, 2)).is_zero()
        assert cio.series_dict(s)["terms"] == [
            {"exponents": [0, 1], "n_coeffs": [cio.complex_dict(EC_ZERO),
                                               cio.complex_dict(ExactComplex(1))]},
            {"exponents": [1, 0], **cio.complex_dict(ExactComplex(2))}]

    @given(data=st.data())
    def test_combine(self, data):
        # every kind of weight on every kind of part, against the sum of the
        # coefficient-wise products: a term is an NPoly when an NPoly part
        # or weight reached it, and is dropped only when the whole sum is
        # zero; a zero weight or part reaches nothing but counts for the degree
        variables = data.draw(st.sampled_from((XY, ("x",))))
        weights = st.one_of(scalars, st.just(0), st.just(NPoly()),
                            exact.map(lambda c: NPoly([c])))
        parts = st.one_of(series_of(COEFFS["mixed"], variables), st.integers(0, 5).map(
            lambda degree: TruncatedSeries.zero(variables, degree)))
        terms = [(data.draw(weights), data.draw(parts))
                 for _ in range(data.draw(st.integers(1, 4)))]
        degree = min(s.degree for _, s in terms)
        want = {}
        for w, s in terms:
            if w != 0:
                for e, c in nonzero(s.coeffs, degree).items():
                    want[e] = w * c if e not in want else want[e] + w * c
        assert_matches(series.combine(terms), variables, degree,
                       {e: c for e, c in want.items() if not c.is_zero()})

    def test_combine_folds_by_the_npoly_rule(self):
        # at x: n + (2 - n) is the constant NPoly 2; at y: n + (2 - n) - 2
        # cancels and drops the term; at x^2: an NPoly weight reaches an
        # ExactComplex part
        a = srs({(1, 0): NPoly([0, 1]), (0, 1): NPoly([0, 1])})
        b = srs({(1, 0): 1, (0, 1): 1, (2, 0): EC_I}, degree=5)
        zero = TruncatedSeries.zero(XY, 3)
        out = series.combine([(1, a), (NPoly([2, -1]), b), (-2, srs({(0, 1): 1})),
                              (7, zero), (NPoly(), a)])
        assert_matches(out, XY, 3, {(1, 0): NPoly([2]), (2, 0): NPoly([2 * EC_I, -EC_I])})
        # ExactComplex weights on ExactComplex parts keep ExactComplex terms,
        # and a sum that cancels everywhere is the zero series at the least degree
        assert_matches(series.combine([(Fraction(1, 2), b), (EC_I, b)]), XY, 5,
                       {e: c * ExactComplex(Fraction(1, 2), 1) for e, c in b.coeffs.items()})
        assert_matches(series.combine([(2, b), (-2, b), (1, zero)]), XY, 3, {})

    def test_combine_refuses_mismatched_parts_and_weights(self):
        with pytest.raises(SeriesError, match="over"):
            series.combine([(1, srs({(1, 0): 1})), (1, srs({(1,): 1}, variables=("x",)))])
        with pytest.raises(SeriesError, match="over"):
            series.combine([(1, srs({(1, 0): 1})), (1, srs({(1, 0): 1}, variables=("y", "x")))])
        with pytest.raises(TypeError, match="weight"):
            series.combine([(1.5, srs({(1, 0): 1}))])

    @given(data=st.data())
    def test_numerators(self, data):
        # each exps's powers of n rebuild its coefficient as a polynomial in
        # n; an ExactComplex coefficient has only the power 0
        for kind in ("exact", "npoly", "mixed"):
            a = data.draw(series_of(COEFFS[kind]))
            d, num = a.numerators()
            powers = {}
            for key, (re, im) in num.items():
                powers.setdefault(key[:-1], {})[key[-1]] = \
                    ExactComplex(Fraction(re, d), Fraction(im, d))
            assert powers.keys() == a.coeffs.keys()
            for e, c in a.coeffs.items():
                p = powers[e]
                assert NPoly([p.get(k, EC_ZERO) for k in range(max(p) + 1)]) == \
                    NPoly.coerce(c)
                assert type(c) is NPoly or list(p) == [0]

    def test_missing_coefficient_of_an_npoly_product_is_exact_zero(self):
        s = srs({(1, 0): NPoly([0, 1]), (0, 1): ExactComplex(2)})
        p = s * s
        assert type(p.coeff((0, 3))) is ExactComplex
        assert p.coeff((0, 3)).is_zero()
        assert type(p.coeff((0, 2))) is ExactComplex
        assert type(p.coeff((1, 1))) is NPoly


class TestDifferentiationAndJets:
    def test_jet_coeff_includes_factorials(self):
        a = srs({(2, 3): ExactComplex(Fraction(1, 12))})
        assert a.jet_coeff((2, 3)) == ExactComplex(1)  # 2! 3! / 12

    def test_differentiate(self):
        a = srs({(3, 1): ExactComplex(2)})
        d = a.differentiate("x", 2)
        assert d.coeff((1, 1)) == ExactComplex(12)

    @given(small_series)
    def test_conjugate_is_involution(self, a):
        assert a.conjugate().conjugate() == a

    def test_conjugate_rename(self):
        a = TruncatedSeries(("z",), DEG, {(1,): EC_I})
        b = a.conjugate(rename={"z": "chi"})
        assert b.variables == ("chi",)
        assert b.coeff((1,)) == EC_I * (-1)


class TestSlicing:
    @given(st.integers(0, 10 ** 6), st.sampled_from(("x", "y", "t")))
    def test_slices_rebuild_the_series(self, seed, var):
        s = random_series(random.Random(seed), ("x", "y", "t"), DEG, 8)
        parts = [s.slice(var, j) for j in range(s.degree + 1)]
        rebuilt = TruncatedSeries.from_slices(var, parts, s.degree)
        assert rebuilt.degree == s.degree
        assert rebuilt.embed(s.variables).coeffs == s.coeffs

    @given(small_series, st.integers(0, DEG + 2))
    def test_slice_degree_and_variables(self, a, j):
        for var, rest in (("x", ("y",)), ("y", ("x",))):
            sl = a.slice(var, j)
            assert sl.variables == rest
            assert sl.degree == max(a.degree - j, 0)

    def test_slice_picks_one_exponent(self):
        a = srs({(2, 1): ExactComplex(3), (2, 0): ExactComplex(5), (1, 1): EC_I})
        assert a.slice("x", 2).coeffs == {(1,): ExactComplex(3), (0,): ExactComplex(5)}
        assert a.slice("y", 1).coeffs == {(2,): ExactComplex(3), (1,): EC_I}

    def test_from_slices_puts_the_variable_last(self):
        p0 = srs({(1, 0): ExactComplex(2)})
        p1 = srs({(0, 2): ExactComplex(7)})
        out = TruncatedSeries.from_slices("t", [p0, p1], 3)
        assert out.variables == ("x", "y", "t")
        assert out.degree == 3
        assert out.coeffs == {(1, 0, 0): ExactComplex(2), (0, 2, 1): ExactComplex(7)}

    def test_from_slices_rejects_mixed_variables(self):
        with pytest.raises(SeriesError):
            TruncatedSeries.from_slices("t", [srs({}), srs({}, variables=("y", "x"))], 3)


class TestRandomSeries:
    def test_empty_order_range_is_refused_before_drawing(self):
        class NoDraws(random.Random):
            def randint(self, a, b):
                raise AssertionError("drew an exponent for an empty order range")

        with pytest.raises(ValueError, match="no exponent"):
            random_series(NoDraws(0), ("z",), 1, 3, min_order=2)

    def test_order_range_of_one_degree(self):
        s = random_series(random.Random(0), ("z",), 3, 4, min_order=3, allow_zero=False)
        assert set(s.coeffs) == {(3,)}


class TestComposition:
    def test_associativity_on_example(self):
        rng = random.Random(7)
        h = random_series(rng, ("u",), 6, 4)
        f = random_series(rng, ("x",), 6, 4, min_order=1)
        g = random_series(rng, ("x",), 6, 4, min_order=1)
        lhs = compose(compose(h, {"u": f}), {"x": g})
        rhs = compose(h, {"u": compose(f, {"x": g})})
        assert lhs == rhs

    def test_rejects_non_vanishing_argument(self):
        h = random_series(random.Random(1), ("u",), 4, 3)
        bad = TruncatedSeries.const(("x",), 4, 1)
        with pytest.raises(SeriesError):
            compose(h, {"u": bad})

    def test_rejects_an_argument_for_a_missing_variable(self):
        h = random_series(random.Random(2), ("u", "v"), 4, 3)
        x = TruncatedSeries.var("x", ("x",), 4)
        with pytest.raises(SeriesError, match="not among the variables"):
            compose(h, {"u": x, "q": x})

    def test_substituted_variable_gives_way_to_the_new_ones(self):
        h = srs({(1, 1, 1): ExactComplex(2)}, variables=("u", "v", "w"))
        arg = srs({(1, 0): ExactComplex(1), (0, 1): ExactComplex(3)},
                  variables=("x", "u"))
        out = compose(h, {"v": arg})
        assert out.variables == ("u", "x", "w")
        assert out.coeffs == {(1, 1, 1): ExactComplex(2), (2, 0, 1): ExactComplex(6)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kept_variables_act_as_identity_arguments(self, seed):
        rng = random.Random(seed)
        hvars = ("u", "v", "w")[:rng.randint(2, 3)]
        h = random_series(rng, hvars, rng.randint(3, 6), 5)
        subbed = [v for v in hvars if rng.random() < 0.5] or [rng.choice(hvars)]
        kept = [v for v in hvars if v not in subbed]
        pool = ["x", "y"] + kept
        args = {v: random_series(rng, rng.sample(pool, rng.randint(1, 2)),
                                 rng.randint(2, 7), 3, min_order=1)
                for v in subbed}
        full = dict(args)
        for v in kept:
            full[v] = TruncatedSeries.var(v, (v,), h.degree)
        assert_same_series(compose(h, args), compose(h, full))


class TestSubstitution:
    @pytest.mark.parametrize("kind", ["exact", "npoly", "mixed"])
    @given(data=st.data())
    def test_shared_substitution_is_compose(self, kind, data):
        # one Substitution applied to several series of different degrees
        # gives each what compose gives it
        hvars = data.draw(st.sampled_from((("u",), ("u", "v"), ("v", "u", "w"))))
        subbed = data.draw(st.lists(st.sampled_from(hvars), min_size=1, unique=True))
        args = {}
        for v in subbed:
            arg = data.draw(series_of(COEFFS["mixed"]))
            args[v] = arg - TruncatedSeries.const(arg.variables, arg.degree,
                                                  arg.constant_term())
        sub = series.Substitution(hvars, args, data.draw(st.integers(0, 6)))
        for _ in range(3):
            degree = data.draw(st.integers(0, 6))
            exps = st.tuples(*[st.integers(0, degree)] * len(hvars))
            h = TruncatedSeries(hvars, degree,
                                data.draw(st.dictionaries(exps, COEFFS[kind], max_size=6)))
            out = sub(h)
            assert out.degree == min(h.degree, sub.degree)
            assert_matches(out, *naive_compose(h.truncate(sub.degree), args))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_constant_groups_make_no_product_once_images_are_built(self, seed):
        # every variable of h is substituted, so each group of its terms is
        # one constant row that scales its image; a second call finds every
        # image built and makes no series product
        rng = random.Random(seed)
        hvars = ("u", "v")[:rng.randint(1, 2)]
        h = random_series(rng, hvars, rng.randint(2, 6), 6)
        args = {v: random_series(rng, rng.sample(("x", "y"), rng.randint(1, 2)),
                                 rng.randint(2, 7), 3, min_order=1)
                for v in hvars}
        sub = series.Substitution(hvars, args, h.degree)
        first = sub(h)

        def refuse(self, other):
            raise AssertionError("a constant group made a series product")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TruncatedSeries, "__mul__", refuse)
            again = sub(h)
        assert_same_series(again, first)
        assert_matches(again, *naive_compose(h.truncate(sub.degree), args))

    @pytest.mark.parametrize("h_degree, arg_degree", [(4, 4), (6, 4), (4, 7), (3, 5)])
    def test_a_power_that_vanishes_below_the_degree(self, h_degree, arg_degree):
        # u^3 with u -> x^2 is x^6, zero at these degrees: the group adds
        # nothing, and the result keeps the least degree
        x2 = TruncatedSeries(("x",), arg_degree, {(2,): ExactComplex(1)})
        for terms in ({(3,): ExactComplex(Fraction(1, 3))},
                      {(1,): ExactComplex(2, 1), (3,): ExactComplex(Fraction(1, 3))}):
            h = TruncatedSeries(("u",), h_degree, terms)
            out = compose(h, {"u": x2})
            assert out.degree == min(h_degree, arg_degree)
            assert_matches(out, *naive_compose(h, {"u": x2}))

    def test_refuses_a_series_over_other_variables(self):
        x = TruncatedSeries.var("x", ("x",), 4)
        sub = series.Substitution(("u", "v"), {"u": x}, 4)
        with pytest.raises(SeriesError, match="applied to a series over"):
            sub(TruncatedSeries.var("v", ("v", "u"), 4))


class TestUnits:
    @given(small_series)
    def test_inverse_unit(self, a):
        one = TruncatedSeries.const(XY, a.degree, 1)
        u = one + a - TruncatedSeries.const(XY, a.degree, a.coeff((0, 0)))
        assert u * inverse_unit(u) == one.truncate(u.degree)

    def test_inverse_unit_refuses_an_npoly_constant_term(self):
        x = TruncatedSeries.var("x", XY, DEG)
        with pytest.raises(SeriesError, match="polynomial in n"):
            inverse_unit(x + NPoly([1, 1]))

    def test_divide_exact(self):
        x = TruncatedSeries.var("x", XY, DEG)
        y = TruncatedSeries.var("y", XY, DEG)
        one = TruncatedSeries.const(XY, DEG, 1)
        num = (x * x * y) * (one + y * 3)
        q = divide(num, x * x * y)
        assert q == (one + y * 3).truncate(q.degree)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kth_root_unit(self, k):
        rng = random.Random(k)
        a = random_series(rng, XY, DEG, 4, min_order=1)
        one = TruncatedSeries.const(XY, DEG, 1)
        u = one + a
        r = kth_root_unit(u, k)
        assert r ** k == u.truncate(r.degree)


@st.composite
def implicit_equations(draw):
    """rho over w and one to three other variables, w at any position, with
    rho(0) = 0, a unit slope at 0 and random higher terms in w."""
    variables = draw(st.sampled_from([("w", "x"), ("x", "w", "y"), ("x", "y", "t", "w")]))
    degree = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    rho = random_series(rng, variables, degree, draw(st.integers(0, 8)), min_order=1)
    lin = tuple(int(v == "w") for v in variables)
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    c = ExactComplex(draw(parts.filter(bool)), draw(parts))
    return rho + TruncatedSeries(variables, degree, {lin: c - rho.coeff(lin)})


class TestImplicitSolve:
    def test_postcondition(self):
        # rho(w,x) = w - x - w^2: solve w(x); check rho(w(x), x) = 0
        WV = ("w", "x")
        w = TruncatedSeries.var("w", WV, DEG)
        x = TruncatedSeries.var("x", WV, DEG)
        rho = w - x - w * w
        sol = implicit_solve(rho, "w")
        back = compose(rho, {"w": sol.embed(("x",)).embed(("x",)),
                             "x": TruncatedSeries.var("x", ("x",), sol.degree)})
        assert back.is_zero()
        # Catalan coefficients: w = sum C_k x^(k+1)
        for k, cat in enumerate([1, 1, 2, 5, 14]):
            assert sol.coeff((k + 1,)) == ExactComplex(cat)

    def test_requires_unit_linear_part(self):
        WV = ("w", "x")
        w = TruncatedSeries.var("w", WV, DEG)
        x = TruncatedSeries.var("x", WV, DEG)
        with pytest.raises(SeriesError):
            implicit_solve(w * w - x, "w")

    def test_npoly_slope_is_refused(self):
        WV = ("w", "x")
        w = TruncatedSeries.var("w", WV, DEG)
        x = TruncatedSeries.var("x", WV, DEG)
        with pytest.raises(SeriesError, match="polynomial in n"):
            implicit_solve(w * NPoly([1, 1]) + x, "w")

    @settings(max_examples=80, deadline=None)
    @given(implicit_equations())
    def test_matches_contraction(self, rho):
        assert_same_series(implicit_solve(rho, "w"), contraction_solve(rho, "w"))

    def test_newton_passes_double_the_precision(self, monkeypatch):
        # Catalan: w = x + w^2 at degree 32 takes the precisions 1, 2, 4, 8,
        # 16, 32; the contraction took one compose per degree, 32 in all
        WV = ("w", "x")
        w = TruncatedSeries.var("w", WV, 32)
        x = TruncatedSeries.var("x", WV, 32)
        built, composed = [], []
        compose_once = series.compose

        class Counted(series.Substitution):
            def __init__(self, variables, args, degree):
                built.append(tuple(args))
                super().__init__(variables, args, degree)

        def counting(h, args):
            composed.append(tuple(args))
            return compose_once(h, args)

        monkeypatch.setattr(series, "Substitution", Counted)
        monkeypatch.setattr(series, "compose", counting)
        sol = implicit_solve(w - x - w * w, "w")
        passes = math.floor(math.log2(32)) + 1
        # one substitution at w per pass serves rho and d rho/dw; the only
        # compose is the power series of each pass's inverse_unit
        assert built.count(("w",)) == passes
        assert len(composed) <= passes
        assert sol.degree == 32
        assert sol.coeff((32,)) == ExactComplex(math.comb(62, 31) // 32)


class TestEvalN:
    def test_npoly_coefficients_evaluate(self):
        from crjet.scalars import NPoly
        a = TruncatedSeries(XY, 4, {(1, 0): NPoly([0, 1]),        # n
                                    (0, 1): NPoly([1, 0, 2])})    # 1+2n^2
        at3 = a.eval_n(3)
        assert at3.coeff((1, 0)) == ExactComplex(3)
        assert at3.coeff((0, 1)) == ExactComplex(19)

    @pytest.mark.parametrize("npoly_first", [True, False])
    def test_missing_coefficient_of_mixed_series_is_exact_zero(self, npoly_first):
        # the zero's type must not follow the dict order of the stored terms
        terms = [((1, 0), NPoly([0, 1])), ((0, 1), ExactComplex(2))]
        if not npoly_first:
            terms.reverse()
        s = srs(dict(terms))
        assert type(s.coeff((2, 2))) is ExactComplex
        assert s.coeff((2, 2)).is_zero()
