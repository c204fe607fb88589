"""JSON serialization round-trips and malformed-input rejection."""

import re
from fractions import Fraction

import pytest

from crjet import ExactComplex, FormalMap, JetData, NPoly, TruncatedSeries
from crjet import io as cio
from crjet.io import FormatError
from crjet.scalars import rational_str


class TestScalars:
    def test_frac_round_trip(self):
        for q in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
            assert cio.parse_frac(rational_str(q)) == q

    def test_parse_frac_accepts_ints(self):
        assert cio.parse_frac(5) == Fraction(5)

    def test_parse_frac_rejects_junk(self):
        for bad in ("abc", "1/0", True, 1.5, None):
            with pytest.raises(FormatError):
                cio.parse_frac(bad)

    def test_parse_frac_refuses_huge_decimal_exponents(self):
        # Fraction("1e10000000") builds a ten-million-digit integer
        for bad in ("1e10000000", "1E4301", "-2.5e-4301", "1e+0_4301", "1e" + "9" * 10 ** 5):
            with pytest.raises(FormatError, match="decimal exponent"):
                cio.parse_frac(bad)

    def test_parse_frac_keeps_bounded_exponents(self):
        assert cio.parse_frac("1e4300") == 10 ** 4300
        assert cio.parse_frac("1e-4300") == Fraction(1, 10 ** 4300)
        assert cio.parse_frac("1.5e-3") == Fraction(3, 2000)
        assert cio.parse_frac(" 7e00002 ") == 700

    def test_complex_round_trip(self):
        c = ExactComplex(Fraction(-3, 4), Fraction(5, 7))
        assert cio.parse_complex(cio.complex_dict(c)) == c

    def test_parse_complex_defaults_missing_parts_to_zero(self):
        assert cio.parse_complex({"re": "2"}) == ExactComplex(2)

    def test_parse_complex_rejects_non_dict(self):
        with pytest.raises(FormatError):
            cio.parse_complex("1+2i")


class TestSeries:
    def test_round_trip(self, rng):
        from conftest import random_series
        s = random_series(rng, ("z", "chi"), 6, nterms=5)
        back = cio.parse_series(cio.series_dict(s))
        assert back == s
        assert back.degree == s.degree

    def test_npoly_coefficients_round_trip(self):
        p = NPoly([ExactComplex(1), ExactComplex(0, Fraction(-2, 3))])
        s = TruncatedSeries(("z",), 4, {(2,): p})
        back = cio.parse_series(cio.series_dict(s))
        assert back.coeffs[(2,)] == p

    def test_rejects_duplicate_exponents(self):
        obj = {"variables": ["z"], "truncation_degree": 3,
               "terms": [{"exponents": [1], "re": "1", "im": "0"},
                         {"exponents": [1], "re": "2", "im": "0"}]}
        with pytest.raises(FormatError, match="duplicate"):
            cio.parse_series(obj)

    @pytest.mark.parametrize("first", [{"re": "0"}, {"re": "0", "im": "0"}, {"re": "1"}])
    @pytest.mark.parametrize("exponents", [[1, 1, 1], [2, 2, 1]])
    def test_rejects_duplicates_of_dropped_terms(self, first, exponents):
        # a first copy that is zero, or above the truncation degree, is not
        # stored, and the duplicate is refused all the same
        obj = {"variables": ["z", "chi", "s"], "truncation_degree": 3,
               "terms": [{"exponents": exponents, **first},
                         {"exponents": exponents, "re": "5"}]}
        with pytest.raises(FormatError, match="term #1: duplicate"):
            cio.parse_series(obj)

    def test_rejects_negative_exponents(self):
        obj = {"variables": ["z"], "truncation_degree": 3,
               "terms": [{"exponents": [-1], "re": "1", "im": "0"}]}
        with pytest.raises(FormatError, match="exponents"):
            cio.parse_series(obj)

    def test_rejects_wrong_variable_names(self):
        for variables, expect in ((["x"], ("z", "chi")), ("z", ("z",)), ("z", None),
                                  ([1], None)):
            obj = {"variables": variables, "truncation_degree": 3, "terms": []}
            with pytest.raises(FormatError, match="variables"):
                cio.parse_series(obj, expect_variables=expect)

    def test_rejects_missing_fields(self):
        with pytest.raises(FormatError):
            cio.parse_series({"variables": ["z"]})
        with pytest.raises(FormatError):
            cio.parse_series([1, 2, 3])

    def test_terms_above_truncation_degree_are_dropped(self):
        obj = {"variables": ["z"], "truncation_degree": 2,
               "terms": [{"exponents": [5], "re": "1", "im": "0"}]}
        assert cio.parse_series(obj).is_zero()


class TestHypersurface:
    def test_round_trip(self, rng):
        from conftest import random_hypersurface
        M = random_hypersurface(rng, degree=8)
        back = cio.parse_hypersurface(cio.hypersurface_dict(M))
        assert back.Theta == M.Theta
        assert back.invariants.as_dict() == M.invariants.as_dict()


class TestFormalMapAndJet:
    def test_formal_map_round_trip(self):
        f0 = TruncatedSeries(("z",), 6, {(1,): ExactComplex(0, 1),
                                         (2,): ExactComplex(Fraction(1, 2))})
        f1 = TruncatedSeries(("z",), 6, {(0,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 6, {(0,): ExactComplex(2)})
        g1 = TruncatedSeries(("z",), 6, {(1,): ExactComplex(3)})
        H = FormalMap([f0, f1], [g0, g1])
        back = cio.parse_formal_map(cio.formal_map_dict(H))
        assert back == H
        assert back.order == H.order

    def test_jet_data_round_trip(self):
        jet = JetData(ExactComplex(Fraction(3, 5), Fraction(4, 5)), 2,
                      lambdas={1: (ExactComplex(1), ExactComplex(0, 1),
                                   ExactComplex(0), ExactComplex(Fraction(1, 3)))})
        back = cio.parse_jet_data(cio.jet_data_dict(jet))
        assert back.a01 == jet.a01
        assert back.b00 == jet.b00
        assert back.lambdas == jet.lambdas

    @pytest.mark.parametrize("keys", [("1", "01"), ("01", "1"), ("10", "1_0"),
                                      (" 2", "2")])
    def test_two_keys_of_one_order_are_refused(self, keys):
        # whichever key comes last, two keys that name one order are an error
        zero = [{"re": "0"}] * 4
        obj = {"a01": {"re": "1"}, "b00": {"re": "1"},
               "lambdas": {keys[0]: zero, keys[1]: [{"re": "5"}] * 4}}
        with pytest.raises(FormatError, match=re.escape(
                f"lambda keys {keys[0]!r} and {keys[1]!r} both name order {int(keys[0])}")):
            cio.parse_jet_data(obj)

    def test_jet_dict_reports_derived_quantities(self):
        jet = JetData(ExactComplex(Fraction(3, 5), Fraction(4, 5)), 2)
        obj = cio.jet_data_dict(jet)
        assert obj["mu_sq"] == "1"


class TestFiles:
    def test_dump_is_deterministic(self):
        obj = {"b": 1, "a": [2, {"d": 3, "c": 4}]}
        assert cio.dump_json(obj) == cio.dump_json(obj)
        assert cio.dump_json(obj).endswith("\n")

    def test_load_json_bad_syntax(self):
        with pytest.raises(FormatError, match="bad.json: invalid JSON"):
            cio.load_json(b"{not json", "bad.json")
