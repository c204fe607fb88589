import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjet.scalars import EC_I, ExactComplex, NPoly
from crjet.series import (SeriesError, TruncatedSeries, compose, divide,
                          implicit_solve, inverse_unit, kth_root_unit)

from conftest import assert_same_series, rand_complex, random_series

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

    def test_sum_drops_terms_above_the_result_degree(self):
        a = srs({(5, 0): ExactComplex(1), (1, 1): ExactComplex(2)})
        b = srs({(0, 1): EC_I}, degree=3)
        for s in (a + b, b + a):
            assert s.degree == 3
            assert all(sum(e) <= 3 for e in s.coeffs)
        assert (a + b).coeffs == {(1, 1): ExactComplex(2), (0, 1): EC_I}


def schoolbook(a, b):
    """The product a * b as variables, degree and coefficients, one scalar
    product c1 * c2 per pair of terms, summed per exponent tuple."""
    variables = a.variables + tuple(v for v in b.variables if v not in a.variables)
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
def series_of(draw, coeffs):
    variables = draw(st.sampled_from((("x", "y"), ("y", "x"), ("x",), ("y", "t"))))
    degree = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, degree)] * len(variables))
    return TruncatedSeries(variables, degree, draw(st.dictionaries(exps, coeffs, max_size=8)))


class TestProductKernel:
    @pytest.mark.parametrize("left, right", [("exact", "exact"), ("exact", "npoly"),
                                             ("npoly", "exact"), ("npoly", "npoly"),
                                             ("mixed", "mixed")])
    @given(data=st.data())
    def test_matches_schoolbook_products(self, left, right, data):
        a = data.draw(series_of(COEFFS[left]))
        b = data.draw(series_of(COEFFS[right]))
        variables, degree, coeffs = schoolbook(a, b)
        p = a * b
        assert (p.variables, p.degree) == (variables, degree)
        assert p.coeffs == coeffs
        assert {e: type(c) for e, c in p.coeffs.items()} == \
            {e: type(c) for e, c in coeffs.items()}

    @pytest.mark.parametrize("unit", [EC_I, NPoly([0, 1])])
    def test_cancelled_terms_are_dropped(self, unit):
        # (u x + y)(u x - y) = u^2 x^2 - y^2: the x y terms cancel
        a = srs({(1, 0): unit, (0, 1): ExactComplex(1)})
        b = srs({(1, 0): unit, (0, 1): ExactComplex(-1)})
        p = a * b
        assert (1, 1) not in p.coeffs
        assert p.coeffs == {(2, 0): unit * unit, (0, 2): ExactComplex(-1)}


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


class TestUnits:
    @given(small_series)
    def test_inverse_unit(self, a):
        one = TruncatedSeries.const(XY, a.degree, 1)
        u = one + a - TruncatedSeries.const(XY, a.degree, a.coeff((0, 0)))
        assert u * inverse_unit(u) == one.truncate(u.degree)

    def test_divide_exact(self):
        x = TruncatedSeries.var("x", XY, DEG)
        y = TruncatedSeries.var("y", XY, DEG)
        one = TruncatedSeries.const(XY, DEG, 1)
        num = (x * x * y) * (one + y * 3)
        q = divide(num, x * x * y)
        assert q == (one + y * 3).truncate(q.degree)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_kth_root_unit(self, k):
        rng = random.Random(k)
        a = random_series(rng, XY, DEG, 4, min_order=1)
        one = TruncatedSeries.const(XY, DEG, 1)
        u = one + a
        r = kth_root_unit(u, k)
        assert r ** k == u.truncate(r.degree)


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
