"""Batch command-line front end.

Subcommands: validate, invariants, upsilon, dset, jet-order, verify,
reconstruct, determination.  Every report is deterministic JSON (or aligned
text with --text) embedding the resolved options and the sha256 of each
input, so identical jobs produce byte-identical output.

Every run but ``-h`` ends in one report, and ``main`` is its only way out.
Exit codes: 0 success; 1 I/O or parse error, including a command line that
does not parse; 2 validation rejection (flat / finite-type / reality
violations, an out-of-range option value); 3 mathematical inconsistency
(failed verification, unrealizable jet, violated bound, starved truncation).
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import io as cio
from .errors import EquivalenceError, FormatError, SeriesError, UpsilonError, ValidationError
from .hypersurface import Hypersurface, family_b0, family_mc, family_nb
from .scalars import ExactComplex

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_MATH = 3


def _load_hypersurface(args, inputs: dict, role: str = "input") -> Hypersurface:
    """Either a JSON file path or a --family generator."""
    path = getattr(args, role, None)
    family = getattr(args, "family", None) if role == "input" else None
    if family is not None:
        if path is not None:
            raise FormatError("give either an input file or --family, not both")
        j = args.j
        L, K = {"mc": (j, j), "nb": (1, j), "b0": (1, 1)}[family]
        degree = args.degree if args.degree is not None else 4 * L + 4 * K + 3
        if family == "mc":
            M = family_mc(cio.parse_frac(args.c), j, degree=degree)
        elif family == "nb":
            b = ExactComplex(cio.parse_frac(args.b_re), cio.parse_frac(args.b_im))
            if b.is_zero():
                raise ValidationError("family nb needs a nonzero coefficient b")
            M = family_nb(b, j, degree=degree)
        else:
            M = family_b0(degree=degree)
        payload = cio.dump_json(cio.hypersurface_dict(M)).encode("utf-8")
        inputs[role] = {"family": family, "sha256": hashlib.sha256(payload).hexdigest()}
        return M
    if path is None:
        raise FormatError(f"missing {role} hypersurface (file path or --family)")
    return cio.parse_hypersurface(_load_json_input(path, inputs, role),
                                  degree=args.degree)


def _load_json_input(path: str, inputs: dict, role: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    inputs[role] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return cio.load_json(raw, path)


# -- subcommand bodies --------------------------------------------------------
# each imports the mathematics it runs, so a job loads no module it does not use

def _cmd_validate(args, inputs):
    M = _load_hypersurface(args, inputs)
    M.S  # derive Q and S, with their cross-check, before certifying the input
    return {"valid": True, "invariants": M.invariants.as_dict()}


def _cmd_invariants(args, inputs):
    M = _load_hypersurface(args, inputs)
    return {"invariants": M.invariants.as_dict()}


def _cmd_upsilon(args, inputs):
    from .upsilon import SYMBOLIC, build_upsilon
    M = _load_hypersurface(args, inputs)
    mode = SYMBOLIC if args.n is None else args.n
    U = build_upsilon(M, mode)
    return {"n": "symbolic" if args.n is None else args.n,
            "L": U.L, "K": U.K, "T": U.T,
            "components": [cio.series_dict(c) for c in U.components]}


def _cmd_dset(args, inputs):
    from .upsilon import compute_D
    M = _load_hypersurface(args, inputs)
    analysis = compute_D(M, scan_bound=args.scan_bound)
    return {"analysis": analysis.as_dict()}


def _cmd_jet_order(args, inputs):
    from .upsilon import compute_D
    M = _load_hypersurface(args, inputs)
    analysis = compute_D(M, scan_bound=args.scan_bound)
    return {"k": analysis.k, "D": analysis.D}


def _cmd_verify(args, inputs):
    from .equivalence import verify_map
    M = _load_hypersurface(args, inputs, role="source")
    Mhat = _load_hypersurface(args, inputs, role="target")
    H = cio.parse_formal_map(_load_json_input(args.map, inputs, "map"))
    rep = verify_map(M, Mhat, H, order=args.order)
    result = {"residual_zero": rep.is_zero,
              "certified_to_degree": rep.certified_to_degree}
    if not rep.is_zero:
        exps, c = rep.first_offending
        result["first_offending"] = {
            "monomial": dict(zip(rep.residual.variables, exps)),
            **cio.complex_dict(c)}
        raise ReportedFailure(result, "mapping-identity residual is nonzero")
    return result


def _cmd_reconstruct(args, inputs):
    from .equivalence import reconstruct, verify_map
    from .upsilon import compute_D
    M = _load_hypersurface(args, inputs, role="source")
    Mhat = _load_hypersurface(args, inputs, role="target")
    jet = cio.parse_jet_data(_load_json_input(args.jet, inputs, "jet"))
    analysis = compute_D(M, scan_bound=args.scan_bound)
    order = args.order if args.order is not None else analysis.k
    H = reconstruct(M, Mhat, jet, order=order, D=analysis.D)
    rep = verify_map(M, Mhat, H)
    if not rep.is_zero:
        raise EquivalenceError("reconstructed map fails verification")
    return {"D": analysis.D, "k": analysis.k, "order": order,
            "map": cio.formal_map_dict(H),
            "verified_to_degree": rep.certified_to_degree}


def _cmd_determination(args, inputs):
    from .equivalence import finite_determination_check
    M = _load_hypersurface(args, inputs, role="source")
    Mhat = _load_hypersurface(args, inputs, role="target")
    H1 = cio.parse_formal_map(_load_json_input(args.map1, inputs, "map1"))
    H2 = cio.parse_formal_map(_load_json_input(args.map2, inputs, "map2"))
    k = args.k
    if k is None:
        from .upsilon import compute_D
        k = compute_D(M, scan_bound=args.scan_bound).k
    report = finite_determination_check(M, Mhat, H1, H2, k)
    result = {"k": k, "status": report["status"]}
    for key in ("reason", "component", "order"):
        if key in report:
            result[key] = list(report[key]) if isinstance(report[key], tuple) else report[key]
    if report["status"] == "fail":
        raise ReportedFailure(result, "maps with equal jets differ")
    return result


class ReportedFailure(Exception):
    """A mathematically meaningful negative result: report it, exit 3."""

    def __init__(self, result, message):
        super().__init__(message)
        self.result = result


# -- plumbing -----------------------------------------------------------------

def _add_hypersurface_opts(p, roles=("input",)):
    if roles == ("input",):
        p.add_argument("input", nargs="?", help="hypersurface JSON file")
        p.add_argument("--family", choices=("mc", "nb", "b0"),
                       help="use a built-in family instead of a file")
        p.add_argument("--c", default="1", help="coefficient c for --family mc")
        p.add_argument("--j", type=int, default=1, help="index j for --family mc/nb")
        p.add_argument("--b-re", default="1", help="Re b for --family nb")
        p.add_argument("--b-im", default="0", help="Im b for --family nb")
    else:
        for role in roles:
            p.add_argument(role, help=f"{role} hypersurface JSON file")
    p.add_argument("--degree", type=int, default=None,
                   help="truncation degree (default 4L+4K+3 for families)")


class _Parser(argparse.ArgumentParser):
    """A command line that does not parse raises FormatError into main's one
    report instead of exiting; subparsers inherit the class."""

    def error(self, message):
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="crjet",
        description="Exact formal invariants and equivalences of "
                    "1-infinite-type hypersurfaces in C^2")
    ap.add_argument("--text", action="store_true",
                    help="aligned-text report instead of JSON")
    ap.add_argument("--parallel", action="store_true",
                    help="allow parallel fixed-n builds (output is identical)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check normality, reality, 1-infinite type")
    _add_hypersurface_opts(p)

    p = sub.add_parser("invariants", help="compute (m, r, L, K, T)")
    _add_hypersurface_opts(p)

    p = sub.add_parser("upsilon", help="build the 4-component jet family")
    _add_hypersurface_opts(p)
    p.add_argument("--n", type=int, default=None,
                   help="fixed weight (default: symbolic in n)")

    for name, helptext in (("dset", "exceptional set D and jet order k"),
                           ("jet-order", "jet order k only")):
        p = sub.add_parser(name, help=helptext)
        _add_hypersurface_opts(p)
        p.add_argument("--scan-bound", type=int, default=None,
                       help="jet scan bound (default 3K+3L+2)")

    p = sub.add_parser("verify", help="check a formal map against the mapping identity")
    _add_hypersurface_opts(p, roles=("source", "target"))
    p.add_argument("map", help="formal map JSON file")
    p.add_argument("--order", type=int, default=None, help="truncate checking order")

    p = sub.add_parser("reconstruct", help="rebuild an equivalence from jet data")
    _add_hypersurface_opts(p, roles=("source", "target"))
    p.add_argument("jet", help="jet data JSON file")
    p.add_argument("--order", type=int, default=None,
                   help="reconstruction order (default: jet order k)")
    p.add_argument("--scan-bound", type=int, default=None)

    p = sub.add_parser("determination", help="equal k-jets imply equal maps")
    _add_hypersurface_opts(p, roles=("source", "target"))
    p.add_argument("map1")
    p.add_argument("map2")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--scan-bound", type=int, default=None)
    return ap


_BODIES = {
    "validate": _cmd_validate,
    "invariants": _cmd_invariants,
    "upsilon": _cmd_upsilon,
    "dset": _cmd_dset,
    "jet-order": _cmd_jet_order,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "determination": _cmd_determination,
}


def _resolved_options(args) -> dict:
    skip = {"command", "text", "input", "source", "target", "map", "map1",
            "map2", "jet"}
    return {key: val for key, val in sorted(vars(args).items())
            if key not in skip and val is not None}


def _render_text(obj, indent=0, lines=None):
    lines = [] if lines is None else lines
    pad = "  " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_text(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{str(k).ljust(width)}  {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _render_text(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(report, as_text: bool):
    if as_text:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")
    else:
        sys.stdout.write(cio.dump_json(report))


# the least value of each bounded option, checked in this order before dispatch
_LEAST = {"n": 0, "order": 0, "k": 0, "degree": 1}

# the exit code of each reported exception class; the most derived class wins
_EXIT_CODES = {ReportedFailure: EXIT_MATH, ValidationError: EXIT_INVALID,
               EquivalenceError: EXIT_MATH, UpsilonError: EXIT_MATH,
               SeriesError: EXIT_MATH, FormatError: EXIT_IO, OSError: EXIT_IO}


def _check_bounds(args):
    for option, least in _LEAST.items():
        value = getattr(args, option, None)
        if value is not None and value < least:
            word = "positive" if least else "nonnegative"
            raise ValidationError(f"--{option} must be {word}, got {value}")


def main(argv=None) -> int:
    # parsed into an existing namespace, so a command line that does not
    # parse still reports the subcommand it names
    args = argparse.Namespace(command=None, text=False)
    report = {"options": {}, "inputs": {}}
    code = EXIT_OK
    try:
        build_parser().parse_args(argv, args)
        report["options"] = _resolved_options(args)
        _check_bounds(args)
        report["result"] = _BODIES[args.command](args, report["inputs"])
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
        if isinstance(exc, ReportedFailure):
            report["result"] = exc.result
        report["error"] = str(exc)
    report["command"] = args.command
    _emit(report, args.text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
