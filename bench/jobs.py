"""The three workloads: seeded job sets, the job runners and the oracles.

A job set is a list of ``Job``s built from the seed by ``gen`` alone.  Every
job carries what its construction says the answer is (``expect``); the
oracles compare crjet's output with it after the timed region.

Failures are counted, never dropped: a job fails when it runs past its time
limit, raises, exits with an undocumented code, prints a traceback or gives
a result that disagrees with the construction.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import gen

# Per-job time limits.  On the machine of the baseline (metadata.json) a
# dset job at the CLI default degree finishes in under 0.4 s unless
# integer_roots scans a large Cauchy bound; the limit sits above that, so
# only the long scans exceed it.
LIMIT_S = {"reconstruct": 30.0, "dset": 0.5, "cli": 20.0}

# reconstruct: truncation degree and reconstruction order.  Order 3 runs the
# jet-pinned orders 1 and 2 of b0; degree 14 is the least that certifies
# order 3 for these pull-backs.
REC_DEGREE, REC_ORDER = 14, 3
REC_PULLBACKS_PER_FAMILY = 1
# dset: random draws and criterion-06-style perturbations per family.
DSET_DRAWS = 30
DSET_PERTURBATIONS = 32
# cli: truncation degree of the generated files.
CLI_DEGREE = 12

TIMED_OUT = "past the"
EPS_UNIT = (Fraction(3, 5), Fraction(4, 5))
I = (Fraction(0), Fraction(1))


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so that no
    ``except Exception`` in the library can swallow it."""


class WrongResult(Exception):
    pass


class Job:
    __slots__ = ("name", "payload", "expect", "descr")

    def __init__(self, name, payload, expect, descr):
        self.name = name
        self.payload = payload      # JSON text (library) or argv (cli)
        self.expect = expect
        self.descr = descr          # input descriptors from the construction


class Outcome:
    __slots__ = ("job", "seconds", "error", "result")

    def __init__(self, job, seconds, error=None, result=None):
        self.job = job
        self.seconds = seconds
        self.error = error          # None when the job passed its oracle
        self.result = result

    @property
    def timed_out(self):
        return self.error is not None and self.error.startswith(TIMED_OUT)


def _c(x):
    """A rational as a Gaussian rational."""
    return (Fraction(x), Fraction(0))


def _neg(x):
    return (-x[0], -x[1])


def _hyp_descr(terms, degree):
    L, K, T = gen.invariants(terms)
    return {"L": L, "K": K, "T": T, "degree": degree,
            "theta_terms": sum(1 for e in terms if sum(e) <= degree)}


# -- reconstruct -----------------------------------------------------------------

def _reconstruct_job(name, source, target, f0, r, D):
    payload = json.dumps({
        "source": gen.hypersurface_json(source, REC_DEGREE),
        "target": gen.hypersurface_json(target, REC_DEGREE),
        "map": gen.map_json(f0, r, REC_DEGREE), "order": REC_ORDER})
    expect = {"D": D, "f0": f0, "r": r, "order": REC_ORDER}
    return Job(name, payload, expect, _hyp_descr(source, REC_DEGREE))


def reconstruct_jobs(seed: int):
    rng = random.Random(seed)
    deg = REC_DEGREE
    mc1, mc4, b0 = gen.family_mc(1, 1), gen.family_mc(4, 1), gen.family_b0(deg)
    jobs = []
    # criterion-08 automorphisms and scalings, at this workload's degree/order
    for k, (eps, r) in enumerate(((I, 2), (EPS_UNIT, 3), (_c(-1), Fraction(1, 2)),
                                  (_neg(I), -1))):
        jobs.append(_reconstruct_job(f"aut-mc1-{k}", mc1, mc1, [gen.ZERO, eps],
                                     Fraction(r), [0]))
    jobs.append(_reconstruct_job("scale-mc1-mc4", mc1, mc4,
                                 [gen.ZERO, _c(Fraction(1, 2))], Fraction(1), [0]))
    jobs.append(_reconstruct_job("scale-mc4-mc1", mc4, mc1, [gen.ZERO, _c(2)],
                                 Fraction(1, 3), [0]))
    for k, (eps, r) in enumerate(((EPS_UNIT, 3), (I, -1),
                                  (_neg(EPS_UNIT), Fraction(1, 2)))):
        jobs.append(_reconstruct_job(f"aut-b0-{k}", b0, b0, [gen.ZERO, eps],
                                     Fraction(r), [0, 1, 2]))
    # seeded curved pull-backs of the families: random target, f0 and r
    for k in range(REC_PULLBACKS_PER_FAMILY):
        for fam in ("mc", "nb", "b0"):
            if fam == "mc":
                target = gen.family_mc(Fraction(rng.randint(1, 4), rng.randint(1, 3)), 1)
            elif fam == "nb":
                target = gen.family_nb((Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                                        gen.rand_frac(rng, 2)), 1)
            else:
                target = gen.family_b0(deg)
            target = gen.perturb(rng, target, a=1, b=2)
            f0 = [gen.ZERO, gen.rand_nonzero_complex(rng, 2),
                  gen.rand_nonzero_complex(rng, 2)]
            r = gen.random_real(rng)
            source = gen.pullback(target, f0, r, deg)
            jobs.append(_reconstruct_job(f"pullback-{fam}-{k}", source, target, f0, r,
                                         [0, 1, 2] if fam == "b0" else [0]))
    return jobs


def run_reconstruct(crjet, job):
    from crjet import io as cio
    p = json.loads(job.payload)
    M = cio.parse_hypersurface(p["source"])
    Mhat = cio.parse_hypersurface(p["target"])
    A = cio.parse_formal_map(p["map"])
    analysis = crjet.compute_D(M)
    analysis_hat = crjet.compute_D(Mhat)
    jet = crjet.extract_jet(A, analysis.D)
    H = crjet.reconstruct(M, Mhat, jet, p["order"], D=analysis.D)
    residual = crjet.verify_map(M, Mhat, H)
    det = crjet.finite_determination_check(M, Mhat, H, A, analysis.k)
    return {"D": analysis.D, "D_hat": analysis_hat.D, "H": H,
            "residual_zero": residual.is_zero, "determination": det["status"],
            "analysis": analysis}


def _series_matches(series, coeffs, what):
    """Exact equality of a crjet z-series with construction coefficients,
    up to the series' certified degree."""
    want = {k: c for k, c in enumerate(coeffs) if k <= series.degree and not gen.is_zero(c)}
    got = {e[0]: (c.re, c.im) for e, c in series.coeffs.items()}
    if got != want:
        raise WrongResult(f"{what}: got {got}, expected {want}")


def check_reconstruct(result, expect):
    D = expect["D"]
    if result["D"] != D or result["D_hat"] != D:
        raise WrongResult(f"D(source)={result['D']}, D(target)={result['D_hat']}, "
                          f"construction {D}")
    H = result["H"]
    if H.order != expect["order"]:
        raise WrongResult(f"reconstructed to order {H.order}, asked {expect['order']}")
    # H == A coefficient-exact: A = (f0(z), r w) has no w-terms beyond order 0
    _series_matches(H.f_components[0], expect["f0"], "f_0")
    _series_matches(H.g_components[0], [(expect["r"], Fraction(0))], "g_0")
    for n in range(1, H.order + 1):
        _series_matches(H.f_components[n], [], f"f_{n}")
        _series_matches(H.g_components[n], [], f"g_{n}")
    if not result["residual_zero"]:
        raise WrongResult("verify_map residual of the reconstructed map is nonzero")
    if result["determination"] != "equal":
        raise WrongResult(f"finite_determination_check: {result['determination']}")


# -- dset ------------------------------------------------------------------------

# (name, terms, degree, known (D, k) or None); degrees follow criterion 06,
# raised to the CLI default 4L+4K+3 where that is larger.
def _dset_families():
    return [
        ("mc1", gen.family_mc(1, 1), 14, ([0], 1)),
        ("nb1", gen.family_nb((Fraction(1), Fraction(0)), 1), 14, ([0], 1)),
        ("nb2", gen.family_nb((Fraction(1), Fraction(2)), 2), 15, None),
        ("mc2", gen.family_mc(1, 2), 19, None),
        ("b0", gen.family_b0(14), 14, ([0, 1, 2], 4)),
    ]


def dset_jobs(seed: int):
    rng = random.Random(seed)
    jobs = []

    def add(name, terms, degree, known):
        L, K, T = gen.invariants(terms)
        expect = {"gamma": gen.gamma(L, K, T), "K": K, "known": known}
        jobs.append(Job(name, json.dumps(gen.hypersurface_json(terms, degree)),
                        expect, _hyp_descr(terms, degree)))

    families = _dset_families()
    for name, terms, degree, known in families:
        add(f"family-{name}", terms, degree, known)
    # criterion-06-style Hermitian s^2 perturbations: theta, hence D, is kept
    for name, terms, degree, known in families:
        if name == "mc2":
            continue
        for k in range(DSET_PERTURBATIONS):
            add(f"perturb-{name}-{k}", gen.perturb(rng, terms), degree, known)
    # random inputs drawn like tests/conftest.py::random_hypersurface, each at
    # the CLI default truncation degree 4L+4K+3
    for k in range(DSET_DRAWS):
        terms = gen.random_hypersurface(rng)
        L, K, _ = gen.invariants(terms)
        add(f"random-{k}", terms, 4 * L + 4 * K + 3, None)
    return jobs


def run_dset(crjet, job):
    from crjet import io as cio
    M = cio.parse_hypersurface(json.loads(job.payload))
    return {"analysis": crjet.compute_D(M)}


def check_dset(result, expect):
    a = result["analysis"]
    D, k = list(a.D), a.k
    if 0 not in D:
        raise WrongResult(f"0 not in D = {D}")
    if a.gamma != expect["gamma"]:
        raise WrongResult(f"gamma {a.gamma}, construction {expect['gamma']}")
    if len(D) > 2 * a.gamma:
        raise WrongResult(f"|D| = {len(D)} > 2 gamma = {2 * a.gamma}")
    want_k = 1 if D == [0] else 1 + (expect["K"] == 1) + max(D)
    if k != want_k:
        raise WrongResult(f"k = {k} inconsistent with D = {D} (expected {want_k})")
    if expect["known"] is not None and (D, k) != tuple(expect["known"]):
        raise WrongResult(f"(D, k) = {(D, k)}, known {tuple(expect['known'])}")


# -- cli -------------------------------------------------------------------------

def cli_files(seed: int):
    """The input files of the cli workload, as {name: text}, plus the
    construction facts the oracles need."""
    rng = random.Random(seed)
    deg = CLI_DEGREE
    target = gen.perturb(rng, gen.family_mc(Fraction(rng.randint(1, 4), rng.randint(1, 3)), 1),
                         a=1, b=2)
    f0 = [gen.ZERO, gen.rand_nonzero_complex(rng, 2), gen.rand_nonzero_complex(rng, 2)]
    r = gen.random_real(rng)
    source = gen.pullback(target, f0, r, deg)
    bad_f0 = list(f0)
    bad_f0[2] = gen.cadd(bad_f0[2], gen.ONE)
    b0_pert = gen.perturb(rng, gen.family_b0(14))
    dump = lambda obj: json.dumps(obj, indent=2, sort_keys=True) + "\n"
    files = {
        "source.json": dump(gen.hypersurface_json(source, deg)),
        "target.json": dump(gen.hypersurface_json(target, deg)),
        "map.json": dump(gen.map_json(f0, r, deg)),
        "badmap.json": dump(gen.map_json(bad_f0, r, deg)),
        "jet.json": dump(gen.jet_json(f0, r, [0])),
        "b0pert.json": dump(gen.hypersurface_json(b0_pert, 14)),
        "m2.json": dump(gen.hypersurface_json({(1, 1, 2): gen.ONE}, 8)),
        "flat.json": dump(gen.hypersurface_json({}, 8)),
        "finite.json": dump(gen.hypersurface_json({(1, 1, 0): gen.ONE}, 8)),
        "malformed.json": '{"variables": ["z", "chi", "s"], "terms": [\n',
    }
    facts = {"source": source, "target": target, "f0": f0, "r": r}
    return files, facts


def _inv(L, K, T=None, m=1):
    def check(rep):
        inv = rep["result"]["invariants"]
        got = (inv["m"], inv["L"], inv["K"]) + ((inv["T"],) if T is not None else ())
        want = (m, L, K) + ((T,) if T is not None else ())
        if got != want:
            raise WrongResult(f"invariants {got}, construction {want}")
    return check


def _d_and_k(D, k):
    def check(rep):
        res = rep["result"]
        res = res.get("analysis", res)
        if (res["D"], res["k"]) != (D, k):
            raise WrongResult(f"(D, k) = {(res['D'], res['k'])}, known {(D, k)}")
    return check


def _upsilon(n, L, K, T):
    def check(rep):
        res = rep["result"]
        if (res["n"], res["L"], res["K"], res["T"], len(res["components"])) != (n, L, K, T, 4):
            raise WrongResult(f"upsilon report {res['n'], res['L'], res['K'], res['T']}")
    return check


def _field(key, value):
    def check(rep):
        if rep["result"].get(key) != value:
            raise WrongResult(f"{key} = {rep['result'].get(key)!r}, expected {value!r}")
    return check


def _failed_verify(rep):
    if rep["result"].get("residual_zero") is not False or "first_offending" not in rep["result"]:
        raise WrongResult("a map off by z^2 was not reported with a located residual")


def _error_only(rep):
    if "error" not in rep:
        raise WrongResult("no error message in the report")


def _map_matches(f0, r, order):
    def check(rep):
        m = rep["result"]["map"]
        if m["order"] != order:
            raise WrongResult(f"map order {m['order']}, asked {order}")
        want_f = [gen.z_series_json(f0, 0)["terms"]] + [[]] * order
        want_g = [gen.z_series_json([(r, Fraction(0))], 0)["terms"]] + [[]] * order
        got_f = [s["terms"] for s in m["f"]]
        got_g = [s["terms"] for s in m["g"]]
        if got_f != want_f or got_g != want_g:
            raise WrongResult("reconstructed map differs from the construction")
    return check


def cli_jobs(seed: int, workdir: str):
    files, facts = cli_files(seed)
    p = {name: os.path.join(workdir, name) for name in files}
    missing = os.path.join(workdir, "missing.json")
    src, tgt = p["source.json"], p["target.json"]
    Ls, Ks, Ts = gen.invariants(facts["source"])
    Lt, Kt, Tt = gen.invariants(facts["target"])
    specs = [
        # (name, argv, documented exit codes, result check)
        ("validate-family-mc2", ["validate", "--family", "mc", "--j", "2"], {0}, _inv(2, 2, 1)),
        ("validate-file", ["validate", src], {0}, _inv(Ls, Ks, Ts)),
        ("invariants-family-nb2", ["invariants", "--family", "nb", "--j", "2",
                                   "--b-re", "1", "--b-im", "2"], {0}, _inv(1, 2)),
        ("invariants-file", ["invariants", tgt], {0}, _inv(Lt, Kt, Tt)),
        ("upsilon-symbolic", ["upsilon", "--family", "mc", "--degree", "10"], {0},
         _upsilon("symbolic", 1, 1, 1)),
        ("upsilon-fixed-n", ["upsilon", "--family", "b0", "--degree", "12", "--n", "2"],
         {0}, _upsilon(2, 1, 1, 1)),
        ("dset-family-b0", ["dset", "--family", "b0", "--degree", "16"], {0},
         _d_and_k([0, 1, 2], 4)),
        ("dset-file", ["dset", p["b0pert.json"]], {0}, _d_and_k([0, 1, 2], 4)),
        ("jet-order-family-mc", ["jet-order", "--family", "mc", "--degree", "12"], {0},
         _d_and_k([0], 1)),
        ("jet-order-file", ["jet-order", src], {0}, _d_and_k([0], 1)),
        ("verify-pass", ["verify", src, tgt, p["map.json"]], {0}, _field("residual_zero", True)),
        ("verify-fail", ["verify", src, tgt, p["badmap.json"]], {3}, _failed_verify),
        ("reconstruct", ["reconstruct", src, tgt, p["jet.json"], "--order", "1"], {0},
         _map_matches(facts["f0"], facts["r"], 1)),
        ("determination", ["determination", src, tgt, p["map.json"], p["map.json"],
                           "--k", "1"], {0}, _field("status", "equal")),
        ("missing-file", ["validate", missing], {1}, _error_only),
        ("malformed-json", ["validate", p["malformed.json"]], {1}, _error_only),
        ("flat", ["validate", p["flat.json"]], {2}, _error_only),
        ("finite-type", ["validate", p["finite.json"]], {2}, _error_only),
        ("validate-m2", ["validate", p["m2.json"]], {0}, _field("valid", True)),
        ("upsilon-m2", ["upsilon", p["m2.json"]], {3}, _error_only),
        # out of scope for the analysis: a typed refusal (2 or 3) is documented
        ("dset-m2", ["dset", p["m2.json"]], {2, 3}, _error_only),
        ("jet-order-m2", ["jet-order", p["m2.json"]], {2, 3}, _error_only),
        # repeated job: its stdout must be byte-identical to the first run
        ("dset-family-b0-repeat", ["dset", "--family", "b0", "--degree", "16"], {0},
         _d_and_k([0, 1, 2], 4)),
    ]
    jobs = []
    for name, argv, codes, check in specs:
        descr = {"subcommand": argv[0]}
        expect = {"codes": codes, "check": check,
                  "repeat_of": "dset-family-b0" if name.endswith("-repeat") else None}
        jobs.append(Job(name, argv, expect, descr))
    return jobs, files


# -- runners -----------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise JobTimeout()


def run_library_job(crjet, job, run, check, limit):
    """Run one library job under a SIGALRM time limit, then its oracle."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = run(crjet, job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except JobTimeout:
        return Outcome(job, time.perf_counter() - start, f"{TIMED_OUT} {limit} s limit")
    except Exception as exc:  # a library exception is a failed job, not a crash
        return Outcome(job, time.perf_counter() - start,
                       f"raised {type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        check(result, job.expect)
    except WrongResult as exc:
        return Outcome(job, seconds, f"wrong result: {exc}", result)
    return Outcome(job, seconds, None, result)


def cli_env(root: str):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CRJET_DEFAULT_DEGREE", None)
    return env


def check_cli(job, code, stdout: bytes, stderr: bytes, earlier):
    """The oracle of one cli job; returns an error string or None."""
    if code not in job.expect["codes"]:
        return f"exit {code}, documented {sorted(job.expect['codes'])}"
    if b"Traceback" in stderr:
        return "printed a Python traceback"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict) or report.get("command") != job.payload[0]:
        return "stdout is not a report of this command"
    try:
        job.expect["check"](report)
    except (WrongResult, KeyError, TypeError) as exc:
        return f"wrong result: {type(exc).__name__}: {exc}"
    first = job.expect["repeat_of"]
    if first is not None and earlier.get(first) != stdout:
        return f"wrong result: stdout differs from the identical job {first}"
    return None


def run_cli_job(job, root, env, limit, earlier):
    """Run one cli job in a fresh interpreter; ``earlier`` maps job names to
    the stdout of jobs already run in this pass."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "crjet.cli", *job.payload],
                              cwd=root, env=env, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return Outcome(job, time.perf_counter() - start, f"{TIMED_OUT} {limit} s limit")
    seconds = time.perf_counter() - start
    earlier[job.name] = proc.stdout
    return Outcome(job, seconds, check_cli(job, proc.returncode, proc.stdout,
                                           proc.stderr, earlier))


LIBRARY = {"reconstruct": (reconstruct_jobs, run_reconstruct, check_reconstruct),
           "dset": (dset_jobs, run_dset, check_dset)}
