"""Command-line interface: exit codes, report shape, determinism."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crjet
from crjet import (ExactComplex, FormalMap, JetData, TruncatedSeries,
                   extract_jet, family_b0, family_mc)
from crjet import io as cio
from crjet.cli import _EXIT_CODES, EXIT_INVALID, EXIT_IO, EXIT_MATH, EXIT_OK, main
from conftest import inconsistent_pair, linear_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(cio.dump_json(obj))
    return str(p)


def fresh_interpreter(*args):
    """A fresh interpreter with ``args``, importing the package under test."""
    src = os.path.dirname(os.path.dirname(crjet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_fresh(*argv):
    """crjet in a fresh interpreter, importing the package under test."""
    return fresh_interpreter("-m", "crjet.cli", *argv)


def linear_map_file(tmp_path, name, eps, r, degree):
    return write_json(tmp_path, name, cio.formal_map_dict(linear_map(eps, r, degree)))


def curved_map_file(tmp_path):
    """f_0 = z + z^2, g_0 = 1: not a self-map of family_mc(1, 1, 14)."""
    f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1),
                                      (2,): ExactComplex(1)})
    g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
    return write_json(tmp_path, "bad_map.json",
                      cio.formal_map_dict(FormalMap([f0], [g0])))


GOLDEN = Path(__file__).parent / "data" / "golden"

# a modulus clash: |a01| = 1 is forced for a self-map
UNREALIZABLE_JET = {"a01": {"re": "2", "im": "0"}, "b00": {"re": "1", "im": "0"}}


@pytest.fixture
def mc_file(tmp_path):
    return write_json(tmp_path, "mc.json", cio.hypersurface_dict(family_mc(1, 1, 14)))


class TestValidateAndInvariants:
    def test_family_invariants(self, capsys):
        code, rep = run(capsys, "invariants", "--family", "mc", "--j", "2")
        assert code == EXIT_OK
        assert rep["result"]["invariants"] == {
            "m": 1, "r": 4, "L": 2, "K": 2, "T": 1,
            "certified_to_degree": rep["result"]["invariants"]["certified_to_degree"]}

    def test_validate_from_file(self, capsys, mc_file):
        code, rep = run(capsys, "validate", mc_file)
        assert code == EXIT_OK
        assert rep["result"]["valid"] is True
        assert rep["inputs"]["input"]["path"] == mc_file
        assert len(rep["inputs"]["input"]["sha256"]) == 64

    def test_finite_type_is_rejected(self, capsys, tmp_path):
        # no s-dependence: Theta = |z|^2 is of finite type
        obj = {"variables": ["z", "chi", "s"], "truncation_degree": 8,
               "terms": [{"exponents": [1, 1, 0], "re": "1", "im": "0"}]}
        path = write_json(tmp_path, "bad.json", obj)
        code, rep = run(capsys, "validate", path)
        assert code == EXIT_INVALID
        assert "error" in rep

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, rep = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == EXIT_IO
        assert "error" in rep


M2_TERMS = [{"exponents": [1, 1, 2], "re": "1", "im": "0"}]
OUT_OF_SCOPE = (("flat", []),
                ("finite type", [{"exponents": [1, 1, 0], "re": "1", "im": "0"}]))
# the map and jet files of these subcommands; the input is refused before
# they are read, so they name files that do not exist
UNREAD_FILES = {"verify": 1, "reconstruct": 1, "determination": 2}


class TestTypeTwoInput:
    """Input out of scope ends in one report, with no traceback: a valid m = 2
    input (Theta = z chi s^2), a flat Theta and a finite-type Theta."""

    @pytest.mark.parametrize("terms, command, expected, error", [
        pytest.param(M2_TERMS, command, expected, "1-infinite-type",
                     id=f"{command}-{expected}")
        for command, expected in (
            ("validate", EXIT_OK), ("invariants", EXIT_OK), ("upsilon", EXIT_MATH),
            ("dset", EXIT_MATH), ("jet-order", EXIT_MATH))] + [
        pytest.param(terms, command, EXIT_INVALID, f"{reason}: out of scope",
                     id=f"{reason.replace(' ', '-')}-{command}-{EXIT_INVALID}")
        for reason, terms in OUT_OF_SCOPE
        for command in ("validate", "invariants", "upsilon", "dset", "jet-order",
                        "verify", "reconstruct", "determination")])
    def test_one_report_per_subcommand(self, tmp_path, terms, command, expected,
                                       error):
        path = write_json(tmp_path, "theta.json", {
            "variables": ["z", "chi", "s"], "truncation_degree": 8, "terms": terms})
        files = [path]
        if command in UNREAD_FILES:
            files += [path] + [str(tmp_path / f"unread{i}.json")
                               for i in range(UNREAD_FILES[command])]
        proc = run_fresh(command, *files)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == command
        if expected == EXIT_OK:
            assert rep["result"]["invariants"]["m"] == 2
        else:
            assert error in rep["error"]


class TestFamilyOptions:
    """A malformed family coefficient ends in one FormatError report, exit 1."""

    @pytest.mark.parametrize("value", ["abc", "1/0", ""])
    @pytest.mark.parametrize("family, option", [
        ("mc", "--c"), ("nb", "--b-re"), ("nb", "--b-im")])
    def test_bad_coefficient_is_one_report(self, family, option, value):
        proc = run_fresh("invariants", "--family", family, option, value)
        assert proc.returncode == EXIT_IO
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == "invariants"
        assert "bad rational" in rep["error"]
        assert "result" not in rep

    def test_huge_decimal_exponent_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["validate", "--family", "mc", "--c", "1e10000000"])
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_IO
        rep = json.loads(capsys.readouterr().out)      # exactly one JSON document
        assert rep["command"] == "validate" and "result" not in rep
        assert "decimal exponent" in rep["error"]

    @pytest.mark.parametrize("argv", [
        ["dset", "--family", "mc", "--c", "1e1000", "--degree", "12"],
        ["validate", "--family", "mc", "--c", "1e4300"],
        ["upsilon", "--family", "mc", "--c", "1e-2000", "--degree", "8"]])
    def test_rationals_past_the_int_str_limit_are_reported(self, argv):
        # integers above 4,300 digits reach the report writer, which prints
        # them exactly
        proc = run_fresh(*argv)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == argv[0] and "result" in rep


# a term whose coefficient is written as a polynomial in n
N_COEFFS = [{"re": "1", "im": "0"}]

# (id, subcommand, top-level fields replaced in the "theta", "map" or "jet"
# file, extra argv, exit code, error fragment)
MALFORMED = [
    ("reconstruct-negative-order", "reconstruct", {}, ["--order", "-2"],
     EXIT_INVALID, "--order must be nonnegative, got -2"),
    ("verify-negative-order", "verify", {}, ["--order", "-1"],
     EXIT_INVALID, "--order must be nonnegative, got -1"),
    ("terms-not-a-list", "validate", {"theta": {"terms": 5}}, [],
     EXIT_IO, "terms must be a list"),
    ("exponents-not-a-list", "validate",
     {"theta": {"terms": [{"exponents": 5, "re": "1"}]}}, [],
     EXIT_IO, "bad exponents"),
    ("bool-exponent", "validate",
     {"theta": {"terms": [{"exponents": [True, 1, 1], "re": "1"}]}}, [],
     EXIT_IO, "bad exponents"),
    ("n-coeffs-not-a-list", "validate",
     {"theta": {"terms": [{"exponents": [1, 1, 1], "n_coeffs": 5}]}}, [],
     EXIT_IO, "n_coeffs must be a list"),
    ("fractional-truncation-degree", "validate",
     {"theta": {"truncation_degree": 5.7}}, [],
     EXIT_IO, "truncation_degree must be a nonnegative integer"),
    ("map-f-not-a-list", "verify", {"map": {"f": 5}}, [],
     EXIT_IO, "f and g lists"),
    ("map-g-not-a-list", "verify", {"map": {"g": {"0": 1}}}, [],
     EXIT_IO, "f and g lists"),
    ("lambdas-not-an-object", "reconstruct", {"jet": {"lambdas": [1, 2]}}, [],
     EXIT_IO, "lambdas must be an object"),
    ("upsilon-negative-n", "upsilon", {}, ["--n", "-1"],
     EXIT_INVALID, "--n must be nonnegative, got -1"),
    ("map-empty-lists", "verify", {"map": {"f": [], "g": []}}, [],
     EXIT_IO, "nonempty f and g lists"),
    ("determination-negative-k", "determination", {}, ["--k", "-1"],
     EXIT_INVALID, "--k must be nonnegative, got -1"),
    ("unknown-option", "validate", {}, ["--bogus"],
     EXIT_IO, "unrecognized arguments: --bogus"),
    ("dset-j-not-an-int", "dset", {}, ["--family", "mc", "--j", "abc"],
     EXIT_IO, "argument --j: invalid int value: 'abc'"),
    ("term-missing-exponents", "validate", {"theta": {"terms": [{"re": "1"}]}}, [],
     EXIT_IO, "term #0: missing exponents"),
    ("wrong-theta-variables", "validate", {"theta": {"variables": ["x", "y", "s"]}}, [],
     EXIT_IO, "expected variables"),
    ("float-coefficient", "validate",
     {"theta": {"terms": [{"exponents": [1, 1, 1], "re": 1.5}]}}, [],
     EXIT_IO, "expected a rational string, got float"),
    ("jet-a01-not-an-object", "reconstruct", {"jet": {"a01": 5}}, [],
     EXIT_IO, "expected {re, im}, got int"),
    ("lambda-key-not-an-integer", "reconstruct", {"jet": {"lambdas": {"x": []}}}, [],
     EXIT_IO, "lambda key 'x' is not an integer"),
    ("lambda-three-values", "reconstruct",
     {"jet": {"lambdas": {"1": [{"re": "1", "im": "0"}] * 3}}}, [],
     EXIT_IO, "lambdas[1] must be a list of 4 complex values"),
    ("file-and-family", "validate", {}, ["--family", "mc"],
     EXIT_IO, "give either an input file or --family, not both"),
] + [
    (f"n-coeffs-theta-{command}", command,
     {"theta": {"terms": [{"exponents": [1, 1, 1], "n_coeffs": N_COEFFS}]}}, [],
     EXIT_IO, "hypersurface term #0: n_coeffs")
    for command in ("validate", "dset", "upsilon", "verify")
] + [
    ("n-coeffs-map-g0", "verify", {"map": {"g": [
        {"variables": ["z"], "truncation_degree": 14,
         "terms": [{"exponents": [0], "n_coeffs": N_COEFFS}]}]}}, [],
     EXIT_IO, "map term #0: n_coeffs"),
]
MALFORMED_FILES = {"validate": ("theta",), "upsilon": ("theta",), "dset": ("theta",),
                   "verify": ("theta", "theta", "map"),
                   "reconstruct": ("theta", "theta", "jet"),
                   "determination": ("theta", "theta", "map", "map")}


class TestMalformedInput:
    """A malformed file, option value or command line ends in one report, with
    no traceback."""

    @pytest.mark.parametrize("command, fields, extra, expected, error", [
        pytest.param(*case[1:], id=case[0]) for case in MALFORMED])
    def test_one_report(self, tmp_path, command, fields, extra, expected, error):
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        H = FormalMap([f0], [g0])
        objs = {"theta": cio.hypersurface_dict(family_mc(1, 1, 14)),
                "map": cio.formal_map_dict(H),
                "jet": cio.jet_data_dict(extract_jet(H, [0]))}
        paths = {}
        for role, obj in objs.items():
            paths[role] = write_json(tmp_path, f"{role}.json",
                                     {**obj, **fields.get(role, {})})
        proc = run_fresh(command, *(paths[r] for r in MALFORMED_FILES[command]),
                         *extra)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == command
        assert error in rep["error"]
        assert "result" not in rep

    @pytest.mark.parametrize("argv, command, expected, error", [
        pytest.param([], None, EXIT_IO, "the following arguments are required: command",
                     id="no-command"),
        pytest.param(["bogus"], None, EXIT_IO, "invalid choice: 'bogus'",
                     id="unknown-subcommand"),
        pytest.param(["verify", "a.json", "b.json"], "verify", EXIT_IO,
                     "the following arguments are required: map",
                     id="missing-positional"),
        pytest.param(["validate"], "validate", EXIT_IO,
                     "missing input hypersurface (file path or --family)",
                     id="no-input"),
        pytest.param(["validate", "--family", "nb", "--b-re", "0"], "validate",
                     EXIT_INVALID, "family nb needs a nonzero coefficient b",
                     id="nb-zero-b"),
    ])
    def test_usage_error_is_one_report(self, argv, command, expected, error):
        proc = run_fresh(*argv)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == command
        assert error in rep["error"]
        assert "result" not in rep

    @pytest.mark.parametrize("raw, error", [
        pytest.param(b"\xff\xfa{", "'utf-8' codec can't decode", id="not-utf8"),
        pytest.param(b'{"terms": [' + b"9" * 5000 + b"]}", "Exceeds the limit",
                     id="integer-too-long"),
    ])
    def test_unreadable_json(self, tmp_path, raw, error):
        path = tmp_path / "theta.json"
        path.write_bytes(raw)
        proc = run_fresh("validate", str(path))
        assert proc.returncode == EXIT_IO
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["command"] == "validate"
        assert "invalid JSON" in rep["error"] and error in rep["error"]
        assert "result" not in rep

    def test_crlf_counts_once_in_the_error_position(self, capsys, tmp_path):
        # the position a text-mode read reports: each CRLF is one character
        path = tmp_path / "crlf.json"
        path.write_bytes(b'{\r\n  "a": 1,\r\n  "b": ]\r\n}\r\n')
        code, rep = run(capsys, "validate", str(path))
        assert code == EXIT_IO
        assert rep["error"] == (f"{path}: invalid JSON: Expecting value: "
                                "line 3 column 8 (char 19)")


class TestAnalysis:
    def test_b0_dset(self, capsys):
        code, rep = run(capsys, "dset", "--family", "b0", "--degree", "16")
        assert code == EXIT_OK
        analysis = rep["result"]["analysis"]
        assert analysis["D"] == [0, 1, 2]
        assert analysis["k"] == 4

    def test_jet_order(self, capsys):
        code, rep = run(capsys, "jet-order", "--family", "mc", "--degree", "12")
        assert code == EXIT_OK
        assert rep["result"] == {"k": rep["result"]["k"], "D": [0]}

    def test_upsilon_fixed_n_matches_symbolic_metadata(self, capsys):
        code, rep = run(capsys, "upsilon", "--family", "mc", "--degree", "12",
                        "--n", "3")
        assert code == EXIT_OK
        assert rep["result"]["n"] == 3
        assert len(rep["result"]["components"]) == 4
        code, rep = run(capsys, "upsilon", "--family", "mc", "--degree", "12")
        assert code == EXIT_OK
        assert rep["result"]["n"] == "symbolic"


class TestVerifyReconstruct:
    def test_verify_ok(self, capsys, tmp_path, mc_file):
        mp = linear_map_file(tmp_path, "rot.json", ExactComplex(0, 1), 2, 14)
        code, rep = run(capsys, "verify", mc_file, mc_file, mp)
        assert code == EXIT_OK
        assert rep["result"]["residual_zero"] is True

    def test_verify_nonzero_residual_exits_3(self, capsys, tmp_path, mc_file):
        mp = curved_map_file(tmp_path)
        code, rep = run(capsys, "verify", mc_file, mc_file, mp)
        assert code == EXIT_MATH
        assert rep["result"]["residual_zero"] is False
        assert rep["result"]["first_offending"]["monomial"] == {
            "z": 1, "chi": 2, "tau": 1}

    def test_reconstruct_round_trip(self, capsys, tmp_path):
        degree = 18
        path = write_json(tmp_path, "mc18.json",
                          cio.hypersurface_dict(family_mc(1, 1, degree)))
        eps = ExactComplex(Fraction(3, 5), Fraction(4, 5))
        f0 = TruncatedSeries(("z",), degree, {(1,): eps})
        g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex(2)})
        H = FormalMap([f0], [g0])
        jet_path = write_json(tmp_path, "jet.json",
                              cio.jet_data_dict(extract_jet(H, [0])))
        code, rep = run(capsys, "reconstruct", path, path, jet_path,
                        "--order", "4")
        assert code == EXIT_OK
        assert rep["result"]["order"] == 4
        rebuilt = cio.parse_formal_map(rep["result"]["map"])
        assert rebuilt == H

    def test_unrealizable_jet_exits_3(self, capsys, tmp_path, mc_file):
        jet_path = write_json(tmp_path, "jet.json", UNREALIZABLE_JET)
        code, rep = run(capsys, "reconstruct", mc_file, mc_file, jet_path,
                        "--order", "2")
        assert code == EXIT_MATH
        assert "error" in rep

    def test_inconsistent_order_system_exits_3(self, capsys, tmp_path):
        M, Mhat = inconsistent_pair()
        paths = [write_json(tmp_path, "source.json", cio.hypersurface_dict(M)),
                 write_json(tmp_path, "target.json", cio.hypersurface_dict(Mhat)),
                 write_json(tmp_path, "jet.json", cio.jet_data_dict(JetData(1, 1)))]
        code = main(["reconstruct", *paths, "--order", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_MATH
        assert json.loads(captured.out)["error"] == (
            "jet not realizable: order-1 system inconsistent")
        assert captured.err == ""

    @pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")])
    def test_repeated_jet_order_is_refused(self, capsys, tmp_path, keys):
        # "01" names order 1 like "1" does: refused in either key order,
        # instead of letting the last of the two keys win
        jet = json.loads((GOLDEN / "b0_jet.json").read_text(encoding="utf-8"))
        values = {"1": jet["lambdas"].pop("1"), "01": [{"re": "5", "im": "5"}] * 4}
        jet["lambdas"] = {**{k: values[k] for k in keys}, **jet["lambdas"]}
        jet_path = tmp_path / "jet.json"
        jet_path.write_text(json.dumps(jet), encoding="utf-8")
        b0 = str(GOLDEN / "b0.json")
        code, rep = run(capsys, "reconstruct", b0, b0, str(jet_path), "--order", "2")
        assert code == EXIT_IO
        assert rep["error"] == f"lambda keys {keys[0]!r} and {keys[1]!r} both name order 1"

    def test_determination_equal(self, capsys, tmp_path, mc_file):
        mp = linear_map_file(tmp_path, "rot.json", ExactComplex(0, 1), 2, 14)
        code, rep = run(capsys, "determination", mc_file, mc_file, mp, mp,
                        "--k", "2")
        assert code == EXIT_OK
        assert rep["result"]["status"] == "equal"

    def test_determination_at_a_huge_k_ends_in_its_report(self, capsys, tmp_path, mc_file):
        mp = linear_map_file(tmp_path, "rot.json", ExactComplex(0, 1), 2, 14)
        code, rep = run(capsys, "determination", mc_file, mc_file, mp, mp,
                        "--k", "1000000")
        assert code == EXIT_OK
        assert rep["result"] == {"k": 1000000, "status": "equal", "order": 0}

    def test_determination_fail_exits_3(self, capsys, tmp_path, mc_file):
        # equal (empty) 0-jets, different maps: a report, not a traceback
        m1 = linear_map_file(tmp_path, "id.json", 1, 1, 14)
        m2 = linear_map_file(tmp_path, "rot.json", ExactComplex(0, 1), 1, 14)
        code = main(["determination", mc_file, mc_file, m1, m2, "--k", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_MATH
        rep = json.loads(captured.out)
        assert rep["result"] == {"component": ["f", 0], "k": 0, "status": "fail"}
        assert rep["error"] == "maps with equal jets differ"
        assert captured.err == ""

    def test_determination_precondition(self, capsys, tmp_path, mc_file):
        m1 = linear_map_file(tmp_path, "a.json", 1, 1, 14)
        m2 = linear_map_file(tmp_path, "b.json", ExactComplex(0, 1), 1, 14)
        code, rep = run(capsys, "determination", mc_file, mc_file, m1, m2,
                        "--k", "2")
        assert code == EXIT_OK
        assert rep["result"]["status"] == "precondition"


def imported_crjet(importtime_log):
    """The crjet modules a ``-X importtime`` run imported."""
    names = {line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "crjet"}


# the modules beyond parsing and validating a hypersurface
MATH_MODULES = {"crjet.equivalence", "crjet.faadibruno", "crjet.linalg",
                "crjet.upsilon"}


class TestImportGraph:
    """Each subcommand imports only the modules it runs, as a fresh
    interpreter shows through ``-X importtime``."""

    def test_package_import_loads_no_submodule(self):
        proc = fresh_interpreter("-X", "importtime", "-c", "import crjet")
        assert proc.returncode == 0
        assert imported_crjet(proc.stderr) == {"crjet"}

    @pytest.mark.parametrize("argv, absent", [
        pytest.param(["validate", "--family", "mc"], MATH_MODULES, id="validate"),
        pytest.param(["invariants", "--family", "mc"], MATH_MODULES, id="invariants"),
        pytest.param(["dset", "--family", "b0"],
                     {"crjet.equivalence", "crjet.faadibruno"}, id="dset"),
    ])
    def test_subcommand_skips_what_it_does_not_run(self, argv, absent):
        proc = fresh_interpreter("-X", "importtime", "-m", "crjet.cli", *argv)
        assert proc.returncode == EXIT_OK
        loaded = imported_crjet(proc.stderr)
        assert "crjet.hypersurface" in loaded
        assert loaded & absent == set()

    def test_reconstruct_loads_all_of_them(self, tmp_path, mc_file):
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(Fraction(3, 5),
                                                             Fraction(4, 5))})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(2)})
        jet_path = write_json(tmp_path, "jet.json", cio.jet_data_dict(
            extract_jet(FormalMap([f0], [g0]), [0])))
        proc = fresh_interpreter("-X", "importtime", "-m", "crjet.cli", "reconstruct",
                                 mc_file, mc_file, jet_path, "--order", "1")
        assert proc.returncode == EXIT_OK
        assert MATH_MODULES <= imported_crjet(proc.stderr)

    def test_determination_with_k_skips_upsilon(self, tmp_path, mc_file):
        # a given --k replaces compute_D, so upsilon is never needed
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(Fraction(3, 5),
                                                             Fraction(4, 5))})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(2)})
        map_path = write_json(tmp_path, "map.json",
                              cio.formal_map_dict(FormalMap([f0], [g0])))
        proc = fresh_interpreter("-X", "importtime", "-m", "crjet.cli", "determination",
                                 mc_file, mc_file, map_path, map_path, "--k", "1")
        assert proc.returncode == EXIT_OK
        loaded = imported_crjet(proc.stderr)
        assert "crjet.equivalence" in loaded
        assert "crjet.upsilon" not in loaded


# per class in the exit table: its exit code and a piece of its message
EXIT_CASES = {
    "UpsilonError": (EXIT_MATH, "xi matrix needs jets to order 4"),
    "EquivalenceError": (EXIT_MATH, "modulus forced by the invariant ratio"),
    "ReportedFailure": (EXIT_MATH, "mapping-identity residual is nonzero"),
    "SeriesError": (EXIT_MATH, "shift by z^1 below truncation degree 0"),
    "ValidationError": (EXIT_INVALID, "family mc needs rational c != 0"),
    "FormatError": (EXIT_IO, "invalid JSON"),
    "OSError": (EXIT_IO, "No such file or directory"),
}


def exit_case_argv(raised, tmp_path, mc_file):
    """A command line whose run raises ``raised`` (or a subclass)."""
    if raised == "UpsilonError":
        return ["dset", "--family", "b0", "--degree", "3"]
    if raised == "EquivalenceError":        # a JetRealizationError
        jet_path = write_json(tmp_path, "jet.json", UNREALIZABLE_JET)
        return ["reconstruct", mc_file, mc_file, jet_path, "--order", "2"]
    if raised == "ReportedFailure":
        return ["verify", mc_file, mc_file, curved_map_file(tmp_path)]
    if raised == "SeriesError":             # a target too short for the frame
        target = write_json(tmp_path, "mc2_deg6.json",
                            cio.hypersurface_dict(family_mc(1, 2, 6)))
        jet_path = write_json(tmp_path, "jet.json",
                              {"a01": {"re": "1"}, "b00": {"re": "1"}})
        return ["reconstruct", str(GOLDEN / "mc2.json"), target, jet_path,
                "--order", "1"]
    if raised == "ValidationError":
        return ["validate", "--family", "mc", "--c", "0"]
    if raised == "FormatError":
        path = tmp_path / "malformed.json"
        path.write_text("{")
        return ["validate", str(path)]
    return ["validate", str(tmp_path / "missing.json")]


class TestFreshExitCodes:
    """One case per class in the exit table, each in a fresh interpreter, so
    the table cannot depend on the modules an earlier test imported."""

    def test_every_class_in_the_exit_table_has_a_case(self):
        assert {cls.__name__ for cls in _EXIT_CODES} == set(EXIT_CASES)

    @pytest.mark.parametrize("raised", sorted(EXIT_CASES))
    def test_one_report(self, tmp_path, mc_file, raised):
        expected, error = EXIT_CASES[raised]
        argv = exit_case_argv(raised, tmp_path, mc_file)
        proc = run_fresh(*argv)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)      # exactly one JSON document
        assert rep["command"] == argv[0]
        assert error in rep["error"]


class TestReports:
    def test_reports_are_deterministic(self, capsys):
        argv = ["dset", "--family", "b0", "--degree", "14"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert (code1, code2) == (EXIT_OK, EXIT_OK)
        assert out1 == out2

    def test_parallel_flag_does_not_change_output(self, capsys):
        base = ["invariants", "--family", "nb", "--j", "2", "--degree", "12"]
        main(base)
        out1 = capsys.readouterr().out
        main(["--parallel"] + base)
        out2 = capsys.readouterr().out
        rep1, rep2 = json.loads(out1), json.loads(out2)
        assert rep1["result"] == rep2["result"]
        assert rep1["inputs"] == rep2["inputs"]

    def test_text_mode(self, capsys):
        code = main(["--text", "invariants", "--family", "mc", "--degree", "12"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "invariants" in out

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_nonpositive_degree_is_rejected(self, capsys, mc_file, degree):
        for source in (["--family", "mc"], [mc_file]):
            code, rep = run(capsys, "invariants", *source, f"--degree={degree}")
            assert code == EXIT_INVALID
            assert rep["error"] == f"--degree must be positive, got {degree}"
            assert "result" not in rep


# -- random argv ------------------------------------------------------------------

INPUT_OPTIONS = ("--family", "--c", "--j", "--b-re", "--b-im", "--degree")
# the positional file roles and the options of each subcommand
ARGV_SHAPES = {
    "validate": (("theta",), INPUT_OPTIONS),
    "invariants": (("theta",), INPUT_OPTIONS),
    "upsilon": (("theta",), INPUT_OPTIONS + ("--n",)),
    "dset": (("theta",), INPUT_OPTIONS + ("--scan-bound",)),
    "jet-order": (("theta",), INPUT_OPTIONS + ("--scan-bound",)),
    "verify": (("theta", "theta", "map"), ("--degree", "--order")),
    "reconstruct": (("theta", "theta", "jet"), ("--degree", "--order", "--scan-bound")),
    "determination": (("theta", "theta", "map", "map"),
                      ("--degree", "--k", "--scan-bound")),
}


def _mostly(good, bad):
    """Draws from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from([good] * 3 + [bad]).flatmap(lambda strategy: strategy)


JUNK = st.sampled_from(["abc", "", "1/0", "2.5", "-x", "9" * 5000])
RATIONALS = _mostly(st.sampled_from(["1", "-2/3", "0"]), JUNK)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), JUNK)


# --degree <= 16 and --order <= 4 keep every example fast
OPTION_VALUES = {
    "--family": st.sampled_from(["mc", "nb", "b0", "xx"]),
    "--c": RATIONALS, "--b-re": RATIONALS, "--b-im": RATIONALS,
    "--j": _ints(-1, 2), "--degree": _ints(-1, 16), "--order": _ints(-2, 4),
    "--n": _ints(-2, 5), "--k": _ints(-2, 4), "--scan-bound": _ints(-2, 8),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 16)
    | st.sampled_from(["", "1", "-1/2", "abc", "1/0", "z", 2.5]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["variables", "truncation_degree", "terms", "exponents",
                         "re", "im", "n_coeffs", "f", "g", "a01", "b00",
                         "lambdas", "1"]), kids, max_size=3),
    max_leaves=8)


@functools.lru_cache(maxsize=None)
def _wellformed_files():
    """Files of each role that parse: the identity and z + z^2 as maps, whose
    jets (the second one not realizable) are the jet files."""
    maps = [FormalMap([TruncatedSeries(("z",), 12, f0)],
                      [TruncatedSeries(("z",), 12, {(0,): ExactComplex(1)})])
            for f0 in ({(1,): ExactComplex(1)},
                       {(1,): ExactComplex(1), (2,): ExactComplex(1)})]
    return {"theta": [cio.hypersurface_dict(family_mc(1, 1, 12)),
                      cio.hypersurface_dict(family_b0(12)),
                      {"variables": ["z", "chi", "s"], "truncation_degree": 8,
                       "terms": M2_TERMS}],
            "map": [cio.formal_map_dict(H) for H in maps],
            "jet": [cio.jet_data_dict(extract_jet(H, [0, 1])) for H in maps]}


@st.composite
def _mutated(draw, obj):
    """obj with the value at one drawn path below the top replaced by a drawn
    JSON value."""
    obj = copy.deepcopy(obj)
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    parent[key] = draw(JSON_VALUES)
    return obj


@st.composite
def _file_bytes(draw, role):
    """A well-formed, mutated, garbled or missing (None) file of the role."""
    kind = draw(_mostly(st.just("wellformed"),
                        st.sampled_from(["mutated", "garbled", "missing"])))
    if kind == "garbled":
        return draw(st.binary(max_size=16))
    if kind == "missing":
        return None
    obj = draw(st.sampled_from(_wellformed_files()[role]))
    if kind == "mutated":
        obj = draw(_mutated(obj))
    return cio.dump_json(obj).encode("utf-8")


@st.composite
def _argv(draw):
    """(argv, files): file arguments are bare names, files maps each name to
    its bytes or to None when the file is missing."""
    argv = draw(st.sampled_from([[], ["--parallel"]]))
    command = draw(st.sampled_from([*ARGV_SHAPES, "bogus", None]))
    if command is None:
        return argv, {}
    roles, options = ARGV_SHAPES.get(command, ARGV_SHAPES["validate"])
    count = draw(_mostly(st.just(len(roles)), st.integers(0, len(roles))))
    files, groups = {}, []
    for i, role in enumerate(roles[:count]):
        name = f"{i}-{role}.json"
        files[name] = draw(_file_bytes(role))
        groups.append([name])
    for option in draw(st.lists(st.sampled_from(options), unique=True, max_size=3)):
        groups.append([option, draw(OPTION_VALUES[option])])
    groups += draw(_mostly(st.just([]), st.sampled_from(
        [["--bogus"], ["extra.json"], ["--order"]]).map(lambda t: [t])))
    tokens = [t for group in draw(st.permutations(groups)) for t in group]
    return argv + [command] + tokens, files


class TestRandomArgv:
    """Any argv but -h, over every subcommand and with malformed files and
    option values, ends in one JSON report and a documented exit code."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_argv())
    def test_one_report(self, case):
        argv, files = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in files.items():
                if raw is not None:
                    with open(os.path.join(tmp, name), "wb") as fh:
                        fh.write(raw)
            argv = [os.path.join(tmp, a) if a in files else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    pytest.fail(f"SystemExit({exc.code}) left main for {argv}")
        assert code in {EXIT_OK, EXIT_IO, EXIT_INVALID, EXIT_MATH}
        assert err.getvalue() == ""
        rep = json.loads(out.getvalue())   # exactly one JSON document
        command = next((a for a in argv if not a.startswith("-")), None)
        assert rep["command"] == (command if command in ARGV_SHAPES else None)
        assert ("error" in rep) == (code != EXIT_OK)
        assert "result" in rep or code != EXIT_OK
