"""Command-line interface: exit codes, report shape, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import crjet
from crjet import ExactComplex, FormalMap, TruncatedSeries, extract_jet, family_mc
from crjet import io as cio
from crjet.cli import EXIT_INVALID, EXIT_IO, EXIT_MATH, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(cio.dump_json(obj))
    return str(p)


def run_fresh(*argv):
    """crjet in a fresh interpreter, importing the package under test."""
    src = os.path.dirname(os.path.dirname(crjet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "crjet.cli", *argv],
                          capture_output=True, text=True, env=env)


def linear_map_file(tmp_path, name, eps, r, degree):
    f0 = TruncatedSeries(("z",), degree, {(1,): ExactComplex.coerce(eps)})
    g0 = TruncatedSeries(("z",), degree, {(0,): ExactComplex.coerce(r)})
    return write_json(tmp_path, name, cio.formal_map_dict(FormalMap([f0], [g0])))


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
                   "reconstruct": ("theta", "theta", "jet")}


class TestMalformedInput:
    """A malformed file or option value ends in one report, with no traceback."""

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
        f0 = TruncatedSeries(("z",), 14, {(1,): ExactComplex(1),
                                          (2,): ExactComplex(1)})
        g0 = TruncatedSeries(("z",), 14, {(0,): ExactComplex(1)})
        mp = write_json(tmp_path, "bad_map.json",
                        cio.formal_map_dict(FormalMap([f0], [g0])))
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
        # modulus clash: |a01| = 1 is forced for a self-map
        jet_path = write_json(tmp_path, "jet.json", {
            "a01": {"re": "2", "im": "0"}, "b00": {"re": "1", "im": "0"}})
        code, rep = run(capsys, "reconstruct", mc_file, mc_file, jet_path,
                        "--order", "2")
        assert code == EXIT_MATH
        assert "error" in rep

    def test_determination_equal(self, capsys, tmp_path, mc_file):
        mp = linear_map_file(tmp_path, "rot.json", ExactComplex(0, 1), 2, 14)
        code, rep = run(capsys, "determination", mc_file, mc_file, mp, mp,
                        "--k", "2")
        assert code == EXIT_OK
        assert rep["result"]["status"] == "equal"

    def test_determination_precondition(self, capsys, tmp_path, mc_file):
        m1 = linear_map_file(tmp_path, "a.json", 1, 1, 14)
        m2 = linear_map_file(tmp_path, "b.json", ExactComplex(0, 1), 1, 14)
        code, rep = run(capsys, "determination", mc_file, mc_file, m1, m2,
                        "--k", "2")
        assert code == EXIT_OK
        assert rep["result"]["status"] == "precondition"


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
