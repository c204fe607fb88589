import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crjet.scalars import (EC_I, ExactComplex, NPoly, ScalarError, exact_parts,
                           factorial, integer_roots, rational_nth_root,
                           rational_str)
from crjet.series import TruncatedSeries

from conftest import falling_binomial, rising_binomial

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=9)
complexes = st.builds(ExactComplex, fracs, fracs)
rationals = st.one_of(st.integers(-50, 50), fracs)


def assert_canonical(z):
    """The stored (a, b, d) of z = (a + b*i)/d has d > 0 and gcd(a, b, d) = 1."""
    assert isinstance(z, ExactComplex)
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert math.gcd(a, b, d) == 1


class TestExactComplex:
    def test_basic_arithmetic(self):
        a = ExactComplex(Fraction(1, 2), Fraction(-3))
        b = ExactComplex(2, Fraction(1, 3))
        assert a + b == ExactComplex(Fraction(5, 2), Fraction(-8, 3))
        assert a * b == ExactComplex(2, Fraction(-35, 6))
        assert (a - a).is_zero()
        assert EC_I * EC_I == ExactComplex(-1)

    @given(complexes, complexes)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()

    @given(complexes)
    def test_norm_and_inverse(self, a):
        assert a.norm_sq() == (a * a.conj()).re
        if not a.is_zero():
            assert a * a.inverse() == ExactComplex(1)

    @given(complexes, complexes, complexes)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c

    def test_coerce_rejects_garbage(self):
        with pytest.raises((ScalarError, TypeError, ValueError)):
            ExactComplex.coerce("1/2")

    def test_defers_to_operands_it_cannot_coerce(self):
        s = TruncatedSeries(("z", "chi"), 4, {(1, 0): ExactComplex(2), (0, 2): EC_I})
        assert EC_I * s == s * EC_I
        assert (ExactComplex(0) * s).is_zero()
        assert EC_I + s == s + EC_I
        assert EC_I - s == -(s - EC_I)
        with pytest.raises(TypeError):
            EC_I * "1/2"
        for p in (NPoly([0, 1]), NPoly([1])):
            assert p * s == s * p
            assert p + s == s + p
            assert p - s == -(s - p)
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(p, "1/2")

    def test_is_real(self):
        assert ExactComplex(3).is_real()
        assert not ExactComplex(0, 1).is_real()


class SmallInt(int):
    pass


class SmallFraction(Fraction):
    pass


class TestExactParts:
    def test_reads_the_canonical_integers(self):
        assert exact_parts(ExactComplex(Fraction(1, 2), Fraction(-3, 4))) == (2, -3, 4)
        assert exact_parts(-7) == (-7, 0, 1)
        assert exact_parts(Fraction(6, -4)) == (-3, 0, 2)
        for other in (1.5, "1", None, NPoly([1]), 1j):
            assert exact_parts(other) is None

    @given(complexes, rationals)
    def test_int_and_fraction_operands_build_no_exact_complex(self, z, q):
        # the values with the operand made an ExactComplex, computed first
        w = ExactComplex(q)
        ops = (operator.add, operator.sub, operator.mul, operator.eq, operator.ne)
        want = [op(x, y) for op in ops for x, y in ((z, w), (w, z))]
        s = TruncatedSeries(("z", "chi"), 4, {(0, 0): z, (1, 2): w, (2, 1): NPoly([z, w])})
        want_jet = [s.coeff(e) * (factorial(e[0]) * factorial(e[1]))
                    for e in ((0, 0), (1, 2), (2, 1), (3, 0))]

        def refuse(self, *args):
            raise AssertionError("an int or Fraction operand built an ExactComplex")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactComplex, "__init__", refuse)
            got = [op(x, y) for op in ops for x, y in ((z, q), (q, z))]
            coerced = ExactComplex.coerce(q)
            jet = [s.jet_coeff(e) for e in ((0, 0), (1, 2), (2, 1), (3, 0))]
        assert got == want
        assert jet == want_jet
        assert coerced == w
        assert_canonical(coerced)
        for v in got:
            if type(v) is not bool:
                assert_canonical(v)

    @pytest.mark.parametrize("x, value", [(True, 1), (False, 0), (SmallInt(3), 3),
                                          (SmallInt(-2), -2),
                                          (SmallFraction(3, 6), Fraction(1, 2))])
    def test_bool_and_subclass_operands_read_as_their_value(self, x, value):
        z = ExactComplex(Fraction(2, 3), -1)
        assert exact_parts(x) == exact_parts(value)
        assert all(type(v) is int for v in exact_parts(x))
        for op in (operator.add, operator.sub, operator.mul):
            for got, want in ((op(z, x), op(z, value)), (op(x, z), op(value, z))):
                assert_canonical(got)
                assert got == want
        assert (z == x) is (z == value) is False
        assert ExactComplex(value) == x
        assert ExactComplex.coerce(x) == ExactComplex(value)
        assert_canonical(ExactComplex.coerce(x))
        s = TruncatedSeries(("z",), 3, {(0,): z, (2,): EC_I})
        for got, want in ((s * x, s * value), (x * s, s * value), (s + x, s + value)):
            assert (got._d, got._num) == (want._d, want._num)


class TestCanonicalForm:
    @given(complexes, complexes)
    def test_results_are_canonical(self, a, b):
        for z in (a, b, a + b, a - b, a * b, -a, a.conj()):
            assert_canonical(z)
        if not a.is_zero():
            assert_canonical(a.inverse())
            assert_canonical(b / a)

    @given(fracs, fracs)
    def test_components_round_trip(self, re, im):
        z = ExactComplex(re, im)
        assert_canonical(z)
        assert (z.re, z.im) == (re, im)
        assert type(z.re) is Fraction and type(z.im) is Fraction

    @given(complexes, complexes)
    def test_equal_values_agree(self, a, b):
        c = (a + b) - b                    # a, reached through arithmetic
        assert c == a
        assert (c.re, c.im) == (a.re, a.im)
        assert hash(c) == hash(a)
        if a.is_real():                    # equal to its Fraction, so hashed as it
            assert a == a.re and hash(a) == hash(a.re)

    @given(complexes, rationals)
    def test_rational_operands_on_both_sides(self, a, q):
        qc = ExactComplex(q)
        assert a + q == q + a == a + qc
        assert a - q == a - qc
        assert q - a == qc - a
        assert a * q == q * a == a * qc
        for z in (a + q, q + a, a - q, q - a, a * q, q * a):
            assert_canonical(z)
        if q != 0:
            assert a / q == a * qc.inverse()
        if not a.is_zero():
            assert q / a == qc * a.inverse()
        assert qc == q and q == qc
        assert (a == q) == (a.is_real() and a.re == q)

    def test_str_and_repr(self):
        z = ExactComplex(Fraction(3, 5), Fraction(-4, 5))
        assert str(z) == "(3/5 + -4/5*i)"
        assert repr(z) == "ExactComplex(Fraction(3, 5), Fraction(-4, 5))"
        assert str(ExactComplex(Fraction(6, 4))) == "3/2"
        assert str(ExactComplex(0, -2)) == "-2*i"
        assert ExactComplex("1/2", "-3") == ExactComplex(Fraction(1, 2), -3)

    @given(rationals)
    def test_real_values_hash_as_rationals(self, q):
        z = ExactComplex(q)
        assert z == q and hash(z) == hash(q)
        assert q in {z} and z in {q}

    def test_integer_in_a_set_of_exact_complex(self):
        assert 2 in {ExactComplex(2)}
        assert {ExactComplex(2): "two"}[2] == "two"
        assert ExactComplex(0, 2) not in {2}

    def test_immutable(self):
        z = ExactComplex(1, 2)
        with pytest.raises(AttributeError):
            z.re = Fraction(0)
        with pytest.raises(AttributeError):
            z._a = 0


class TestNPoly:
    def test_eval_and_arithmetic(self):
        p = NPoly([1, 0, 2])  # 1 + 2 n^2
        q = NPoly([0, 1])     # n
        assert (p * q)(3) == ExactComplex(3 * (1 + 18))
        assert (p + q)(-2) == ExactComplex(9 - 2)

    @given(st.lists(st.integers(-9, 9), max_size=5),
           st.lists(st.integers(-9, 9), max_size=5),
           st.integers(-6, 6))
    def test_product_evaluation_commutes(self, ca, cb, n):
        p, q = NPoly(ca), NPoly(cb)
        assert (p * q)(n) == p(n) * q(n)


    @given(complexes)
    def test_constant_hashes_as_its_coefficient(self, c):
        p = NPoly([c])
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}

    def test_hash_agrees_with_equality(self):
        assert NPoly([3]) == 3 and 3 in {NPoly([3])}
        assert NPoly() == 0 and hash(NPoly()) == hash(0) == hash(ExactComplex(0))
        assert NPoly([0, 0]) in {0}
        assert NPoly([1, 2]) == NPoly([ExactComplex(1), ExactComplex(2)])
        assert hash(NPoly([1, 2])) == hash(NPoly([ExactComplex(1), ExactComplex(2)]))


class TestBinomialPolynomials:
    @pytest.mark.parametrize("k", range(6))
    def test_falling_matches_binomial(self, k):
        for n in range(k, 10):
            assert falling_binomial(k)(n) == ExactComplex(math.comb(n, k))

    @pytest.mark.parametrize("k", range(6))
    def test_rising_matches_binomial(self, k):
        for n in range(0, 10):
            expected = 1 if k == 0 else math.comb(n + k - 1, k)
            assert rising_binomial(k)(n) == ExactComplex(expected)

    def test_generating_identity(self):
        # (1+x)^n * (1-x)^(-n) coefficients: sum_j C(n,j) C(n+k-j-1, k-j)
        n, deg = 4, 6
        for k in range(deg + 1):
            direct = sum(math.comb(n, j) * math.comb(n + (k - j) - 1, k - j)
                         for j in range(min(k, n) + 1))
            via = sum((falling_binomial(j)(n) * rising_binomial(k - j)(n)).re
                      for j in range(k + 1))
            assert via == direct


class TestIntegerRoots:
    def test_known_roots(self):
        # (n-2)(n+3)n = n^3 + n^2 - 6n; only nonnegative roots are reported
        p = NPoly([0, -6, 1, 1])
        assert integer_roots(p) == {0, 2}

    def test_no_integer_roots(self):
        assert integer_roots(NPoly([1, 0, 1])) == set()  # n^2 + 1

    @given(st.sets(st.integers(-8, 8), min_size=1, max_size=4))
    def test_constructed_roots_recovered(self, roots):
        p = NPoly([1])
        for r in roots:
            p = p * NPoly([-r, 1])
        assert integer_roots(p) == {r for r in roots if r >= 0}

    def test_huge_root_without_scanning_the_bound(self):
        # Cauchy bound ~1e15: a scan of 1..bound would never finish
        p = NPoly([-7 * 10 ** 15, 10 ** 15 + 7, -1]) * ExactComplex(2, 3)
        start = time.perf_counter()
        assert integer_roots(p) == {7, 10 ** 15}
        assert time.perf_counter() - start < 1.0

    def test_bound_from_real_parts_of_lower_degree(self):
        # (n - 5)(1 + i n): the real parts n - 5 lose the degree of p, so the
        # bound comes from them; 5 is confirmed on p, and n - 5 + i n^2 has
        # the same real parts but no root there
        assert integer_roots(NPoly([-5, ExactComplex(1, -5), EC_I])) == {5}
        assert integer_roots(NPoly([-5, 1, EC_I])) == set()

    def test_purely_imaginary_coefficients(self):
        # no real part: the roots come from the imaginary parts
        assert integer_roots(NPoly([10 * EC_I, -7 * EC_I, EC_I])) == {2, 5}
        assert integer_roots(NPoly([3 * EC_I, -EC_I])) == {3}

    @pytest.mark.parametrize("roots", [(9, 10, 57), (9, 10, 11), (3, 4, 5, 6, 40)])
    def test_consecutive_roots(self, roots):
        # a run of consecutive roots can sit inside one monotone stretch
        p = NPoly([1])
        for r in roots:
            p = p * NPoly([-r, 1])
        assert integer_roots(p) == set(roots)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        n = sympy.Symbol("n")

        def over_qq(values):
            return sympy.Poly(sum(sympy.Rational(x.numerator, x.denominator) * n ** k
                                  for k, x in enumerate(values)), n, domain="QQ")

        rng = random.Random(4)
        for _ in range(60):
            p = NPoly([ExactComplex(rng.randint(1, 5), rng.randint(-5, 5))])
            for _ in range(rng.randint(0, 3)):
                r = rng.choice([rng.randint(0, 20), rng.randint(0, 10 ** 9)])
                p = p * NPoly([-r, 1])
            p = p * NPoly([ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                           for _ in range(rng.randint(1, 4))])
            # i p swaps the real and imaginary parts; i Re(p) has no real part
            for q in (p, p * EC_I, NPoly([c.re for c in p.coefficients]) * EC_I):
                if q.is_zero():
                    continue
                re = over_qq([c.re for c in q.coefficients])
                im = over_qq([c.im for c in q.coefficients])
                want = {int(r) for r in re.gcd(im).ground_roots() if r.is_integer and r >= 0}
                assert integer_roots(q) == want


class TestRationalNthRoot:
    def test_exact_roots(self):
        assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
        assert rational_nth_root(Fraction(1, 4), 2) == Fraction(1, 2)
        assert rational_nth_root(Fraction(1), 7) == 1

    def test_irrational_reports_none(self):
        assert rational_nth_root(Fraction(2), 2) is None
        assert rational_nth_root(Fraction(5, 3), 4) is None

    @given(st.fractions(min_value=0, max_value=9, max_denominator=9),
           st.integers(1, 4))
    def test_round_trip(self, q, k):
        if q <= 0:
            return
        assert rational_nth_root(q ** k, k) == q


def test_factorial():
    assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]


def test_rational_str_prints_integers_past_the_int_str_limit():
    # str refuses integers above 4,300 digits by default; these print exactly
    assert rational_str(Fraction(10 ** 5000)) == "1" + "0" * 5000
    assert rational_str(Fraction(-7, 10 ** 5000 + 3)) == "-7/1" + "0" * 4999 + "3"
    assert rational_str(Fraction(-3, 4)) == "-3/4"
