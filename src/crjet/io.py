"""JSON (de)serialization for series, hypersurfaces, maps, jets, and reports.

All rational numbers travel as strings "p/q" (or "p") so payloads stay exact
and byte-stable.  Series objects carry their variables and truncation degree
explicitly; a reader never has to guess whether an absent monomial is zero or
merely beyond the certified order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from io import BytesIO, TextIOWrapper

from .errors import FormatError
from .hypersurface import THETA_VARS, Hypersurface, validate
from .scalars import ExactComplex, NPoly, rational_str
from .series import TruncatedSeries

# true to type checkers only: the parsers import these when they build one,
# so reading a hypersurface loads no reconstruction code (nor ``typing``)
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .equivalence import FormalMap, JetData


# -- rationals ---------------------------------------------------------------

# the largest decimal exponent a rational string may carry: CPython's default
# limit on the digits of an int read from a string, so that "1e10000000" is
# refused at once instead of building a ten-million-digit integer
_MAX_EXPONENT = 4300


def parse_frac(s) -> Fraction:
    if isinstance(s, bool):
        raise FormatError(f"expected a rational, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        _, e, exp = s.lower().rpartition("e")
        digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
            raise FormatError(f"bad rational {s!r}: decimal exponent beyond "
                              f"{_MAX_EXPONENT} in magnitude")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {s!r}: {exc}") from None
    raise FormatError(f"expected a rational string, got {type(s).__name__}")


def complex_dict(c: ExactComplex) -> dict:
    return {"re": rational_str(c.re), "im": rational_str(c.im)}


def parse_complex(obj) -> ExactComplex:
    if not isinstance(obj, dict):
        raise FormatError(f"expected {{re, im}}, got {type(obj).__name__}")
    return ExactComplex(parse_frac(obj.get("re", 0)), parse_frac(obj.get("im", 0)))


def npoly_dict(p: NPoly) -> dict:
    return {"n_coeffs": [complex_dict(c) for c in p.coefficients]}


# -- series ------------------------------------------------------------------

def series_dict(s: TruncatedSeries) -> dict:
    terms = []
    for exps, c in sorted(s.coeffs.items()):
        entry = {"exponents": list(exps)}
        entry.update(npoly_dict(c) if isinstance(c, NPoly) else complex_dict(c))
        terms.append(entry)
    return {"variables": list(s.variables),
            "truncation_degree": s.degree,
            "terms": terms}


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_series(obj, expect_variables=None) -> TruncatedSeries:
    if not isinstance(obj, dict):
        raise FormatError("series must be a JSON object")
    try:
        variables = tuple(obj["variables"])
        degree = obj["truncation_degree"]
        raw_terms = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"series object malformed: {exc}") from None
    if not isinstance(obj["variables"], list) or not all(isinstance(v, str) for v in variables):
        raise FormatError(f"variables must be a list of strings, got {obj['variables']!r}")
    if expect_variables is not None and variables != tuple(expect_variables):
        raise FormatError(
            f"expected variables {list(expect_variables)}, got {list(variables)}")
    if not _is_int(degree) or degree < 0:
        raise FormatError(f"truncation_degree must be a nonnegative integer, got {degree!r}")
    if not isinstance(raw_terms, list):
        raise FormatError("terms must be a list")
    coeffs = {}
    seen = set()
    for i, term in enumerate(raw_terms):
        if not isinstance(term, dict) or "exponents" not in term:
            raise FormatError(f"term #{i}: missing exponents")
        exps = term["exponents"]
        if not isinstance(exps, list) or len(exps) != len(variables) or any(
                not _is_int(e) or e < 0 for e in exps):
            raise FormatError(f"term #{i}: bad exponents {exps!r}")
        exps = tuple(exps)
        if "n_coeffs" in term:
            if not isinstance(term["n_coeffs"], list):
                raise FormatError(f"term #{i}: n_coeffs must be a list")
            c = NPoly([parse_complex(x) for x in term["n_coeffs"]])
        else:
            c = ExactComplex(parse_frac(term.get("re", 0)),
                             parse_frac(term.get("im", 0)))
        if exps in seen:
            raise FormatError(f"term #{i}: duplicate exponents {list(exps)}")
        seen.add(exps)
        if sum(exps) <= degree and not c.is_zero():
            coeffs[exps] = c
    return TruncatedSeries(variables, degree, coeffs)


def _parse_numeric_series(obj, what, variables) -> TruncatedSeries:
    """``parse_series`` for a series of numbers: a term in n is refused."""
    s = parse_series(obj, expect_variables=variables)
    for i, term in enumerate(obj["terms"]):
        if "n_coeffs" in term:
            raise FormatError(f"{what} term #{i}: n_coeffs belong to series in n only")
    return s


# -- hypersurfaces -----------------------------------------------------------

def hypersurface_dict(M: Hypersurface) -> dict:
    return series_dict(M.Theta)


def parse_hypersurface(obj, degree=None) -> Hypersurface:
    Theta = _parse_numeric_series(obj, "hypersurface", THETA_VARS)
    if degree is not None and degree < Theta.degree:
        Theta = Theta.truncate(degree)
    return validate(Theta)


# -- formal maps -------------------------------------------------------------

def formal_map_dict(H: FormalMap) -> dict:
    return {"order": H.order,
            "f": [series_dict(s) for s in H.f_components],
            "g": [series_dict(s) for s in H.g_components]}


def parse_formal_map(obj) -> FormalMap:
    from .equivalence import FormalMap
    if not isinstance(obj, dict) or not all(
            isinstance(obj.get(k), list) and obj[k] for k in ("f", "g")):
        raise FormatError("formal map must be an object with nonempty f and g lists")
    f = [_parse_numeric_series(s, "map", ("z",)) for s in obj["f"]]
    g = [_parse_numeric_series(s, "map", ("z",)) for s in obj["g"]]
    return FormalMap(f, g)


# -- jets --------------------------------------------------------------------

def jet_data_dict(jet: JetData) -> dict:
    return {"a01": complex_dict(jet.a01),
            "b00": complex_dict(jet.b00),
            "delta": complex_dict(jet.delta),
            "mu_sq": rational_str(jet.mu_sq),
            "lambdas": {str(n): [complex_dict(c) for c in tup]
                        for n, tup in sorted(jet.lambdas.items())}}


def parse_jet_data(obj) -> JetData:
    from .equivalence import JetData
    if not isinstance(obj, dict) or "a01" not in obj or "b00" not in obj:
        raise FormatError("jet data must be an object with a01 and b00")
    raw = obj.get("lambdas")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise FormatError("lambdas must be an object from order to 4 complex values")
    lambdas, keys = {}, {}
    for key, tup in raw.items():
        try:
            n = int(key)
        except ValueError:
            raise FormatError(f"lambda key {key!r} is not an integer") from None
        if n in keys:
            raise FormatError(f"lambda keys {keys[n]!r} and {key!r} both name order {n}")
        keys[n] = key
        if not isinstance(tup, list) or len(tup) != 4:
            raise FormatError(f"lambdas[{key}] must be a list of 4 complex values")
        lambdas[n] = tuple(parse_complex(c) for c in tup)
    return JetData(parse_complex(obj["a01"]), parse_complex(obj["b00"]), lambdas)


# -- top level ---------------------------------------------------------------

def load_json(raw: bytes, path: str):
    """Parse the bytes read from ``path`` as a text-mode read decodes them:
    UTF-8 with universal newlines, so a CRLF counts as one character in
    error positions."""
    try:
        return json.load(TextIOWrapper(BytesIO(raw), encoding="utf-8"))
    except ValueError as exc:      # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
