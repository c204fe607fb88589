"""crjet benchmark: one command, three workloads, every metric checked.

    python3 bench/run.py --workload {reconstruct,dset,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; crjet is imported from ``src/``.
Each workload is a fixed job set made from the seed (see ``jobs.py``), run
one job at a time from this process (closed loop, one client).  The set is
run again and again until ``--seconds`` have passed; each figure is the
median over those passes, with job times scaled to a reference machine
speed (see ``calibrate``).  Every job's result is checked against its
construction, and failed jobs are counted, never dropped.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced passes with passes traced by ``tracer.Tracer`` and
reports the per-layer metrics, the tracing overhead, and writes the spans
and per-job input descriptors to ``bench/_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric by name with its unit, the slowest job and every failure.
``correct`` is false when a job returned a result that disagrees with its
construction; ``failed`` also counts jobs that ran past their limit, raised
or exited with an undocumented code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from random import Random

import gen
import jobs as J
from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("reconstruct", "dset", "cli")
SETUP_SAMPLES = 15
# Reported times are scaled to a reference speed at which each calibration
# below takes this long; see calibrate().
CAL_REF_S = {"kernel": 0.008, "spawn": 0.013}
_CAL_RNG = Random(0)
_CAL_POLY = [gen.rand_complex(_CAL_RNG) for _ in range(12)]



def _metric_units():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_crjet():
    """crjet from this checkout's src/, never an installed copy."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import crjet
        import crjet.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import crjet from {os.path.join(ROOT, 'src')}: {exc}")
    where = os.path.dirname(os.path.abspath(crjet.__file__))
    if where != os.path.join(ROOT, "src", "crjet"):
        sys.exit(f"bench: crjet was imported from {where}, not from this checkout")
    return crjet


def calibrate(kind):
    """Seconds for a fixed piece of work that does not involve crjet.

    On the shared 2-vCPU host the baseline was measured on, the CPU speed
    drifts by up to 1.6x in regimes of 5-20 s.  A calibration runs between
    jobs, and each job time is multiplied by CAL_REF_S[kind] over the
    calibration time measured around it.  In-process jobs use the "kernel":
    a truncated product of Gaussian-rational polynomials, the operation
    crjet spends its time on.  Jobs that start an interpreter use "spawn":
    starting a bare interpreter, because process start-up drifts apart from
    arithmetic speed.  Over ten 6-second blocks of one repeated job, the
    quartile spread of the block medians went from 0.20 to 0.02 (dset job,
    kernel) and from 0.07 to 0.04 (cli job, spawn); scaling the cli job by
    the kernel instead made it 0.12.
    """
    start = time.perf_counter()
    if kind == "spawn":
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    else:
        for _ in range(3):
            gen.poly_mul(_CAL_POLY, _CAL_POLY, 20)
    return time.perf_counter() - start


def setup(workload, seed):
    """Generate and serialise the job set; cli inputs go to a fresh work
    directory inside the checkout.  Returns (jobs, workdir or None)."""
    if workload != "cli":
        return J.LIBRARY[workload][0](seed), None
    workdir = os.path.join(BENCH, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    job_list, files = J.cli_jobs(seed, os.path.relpath(workdir, ROOT))
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return job_list, workdir


def measure_setup(workload, seed, samples):
    """Median time from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times, cals = [], [calibrate("spawn")]
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            sys.exit(f"bench: set-up child failed (exit {code})")
        times.append(ready - start)
        cals.append(calibrate("spawn"))
    return statistics.median(times) * CAL_REF_S["spawn"] / statistics.median(cals)


# -- passes ------------------------------------------------------------------------

class Pass:
    """Outcomes of one run of the job set; ``scaled`` holds each job's time
    at the reference speed, ``wall`` the raw time of the whole pass."""

    def __init__(self, outcomes, scaled, wall, stdout):
        self.outcomes = outcomes
        self.scaled = scaled
        self.wall = wall
        self.stdout = stdout

    @property
    def scaled_wall(self):
        return sum(self.scaled)

    @property
    def failed(self):
        return [o for o in self.outcomes if o.error is not None]

    @property
    def wrong(self):
        """Jobs whose output disagreed with the construction (as opposed to
        jobs that crashed, timed out or exited with an undocumented code)."""
        return [o for o in self.failed if o.error.startswith("wrong result")]


def run_cli_inprocess(crjet, job, limit, earlier):
    """A cli job through crjet.cli.main in this process (the traced form)."""
    buf = StringIO()
    previous = signal.signal(signal.SIGALRM, J._on_alarm)
    start = time.perf_counter()
    code, crash = None, None
    try:
        with redirect_stdout(buf):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                code = crjet.cli.main(list(job.payload))
            except SystemExit as exc:
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except J.JobTimeout:
        return J.Outcome(job, time.perf_counter() - start, f"{J.TIMED_OUT} {limit} s limit")
    except Exception as exc:  # an uncaught exception is the traceback case
        crash = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    if crash is not None:
        return J.Outcome(job, seconds, crash)
    stdout = buf.getvalue().encode("utf-8")
    earlier[job.name] = stdout
    return J.Outcome(job, seconds, J.check_cli(job, code, stdout, b"", earlier))


def run_pass(crjet, workload, job_list, tracer=None, inprocess=False):
    limit = J.LIMIT_S[workload]
    outcomes = []
    earlier = {}
    env = J.cli_env(ROOT)
    fresh = workload == "cli" and not inprocess and tracer is None
    kind = "spawn" if fresh else "kernel"
    start = time.perf_counter()
    cals = [calibrate(kind)]
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.start_job(i)
        if fresh:
            out = J.run_cli_job(job, ROOT, env, limit, earlier)
        elif workload == "cli":
            out = run_cli_inprocess(crjet, job, limit, earlier)
        else:
            _, run, check = J.LIBRARY[workload]
            out = J.run_library_job(crjet, job, run, check, limit)
        cals.append(calibrate(kind))
        outcomes.append(out)
    wall = time.perf_counter() - start
    # job i ran between kernel samples i and i+1; scale it by the median of
    # the six samples around it, which damps the kernel's own jitter.  A job
    # stopped at its limit took the limit, whatever the speed: keep it raw.
    ref = CAL_REF_S[kind]
    scaled = [o.seconds if o.timed_out
              else o.seconds * ref / statistics.median(cals[max(0, i - 2):i + 4])
              for i, o in enumerate(outcomes)]
    return Pass(outcomes, scaled, wall, earlier)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


# -- trace descriptors ---------------------------------------------------------------

def _bits(obj):
    """Largest numerator/denominator bit length of the coefficients in a
    crjet result, or in the "p/q" strings of a report's result."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, str):
        num, _, den = obj.partition("/")
        try:
            return max(int(num).bit_length(), int(den or 1).bit_length())
        except ValueError:
            return 0
    if isinstance(obj, dict):
        return max((_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((_bits(v) for v in obj), default=0)
    if hasattr(obj, "re"):                    # ExactComplex
        return max(_bits(obj.re), _bits(obj.im))
    if hasattr(obj, "coefficients"):          # NPoly
        return _bits(obj.coefficients)
    if hasattr(obj, "coeffs"):                # TruncatedSeries
        return _bits(list(obj.coeffs.values()))
    if hasattr(obj, "f_components"):          # FormalMap
        return _bits(obj.f_components + obj.g_components)
    return 0


def cauchy_bound(p):
    """The bound integer_roots scans to, from a public xi determinant."""
    if p.degree() <= 0:
        return 0
    lead = p.leading()
    lead_low = max(abs(lead.re), abs(lead.im))
    top = max(abs(c.re) + abs(c.im) for c in p.coefficients[:-1])
    return int(1 + top / lead_low)


def descriptors(crjet, workload, outcome, earlier_stdout):
    """Input descriptors of one job (run untraced, after the timed passes)."""
    from crjet import io as cio
    d = dict(outcome.job.descr, name=outcome.job.name, seconds=outcome.seconds,
             error=outcome.error)
    if workload == "cli":
        out = earlier_stdout.get(outcome.job.name)
        try:
            d["max_bits"] = _bits(json.loads(out).get("result")) if out else None
        except ValueError:
            d["max_bits"] = None
        return d
    res = outcome.result
    if workload == "reconstruct":
        d["max_bits"] = _bits(res["H"]) if res else None
        analysis = res["analysis"] if res else None
        source = json.loads(outcome.job.payload)["source"]
    else:
        analysis = res["analysis"] if res else None
        d["max_bits"] = _bits(analysis.xi_dets) if analysis else None
        source = json.loads(outcome.job.payload)
    L, K, T = d["L"], d["K"], d["T"]
    g = gen.gamma(L, K, T)
    if analysis is not None:
        dets = analysis.xi_dets
    else:
        try:
            M = cio.parse_hypersurface(source)
            dets = crjet.xi_determinants(crjet.build_upsilon(M, crjet.SYMBOLIC))
        except Exception as exc:  # the descriptor is optional; record why
            d["cauchy_bound"] = f"unavailable: {type(exc).__name__}"
            return d
    d["cauchy_bound"] = cauchy_bound(dets[g])
    return d


# -- main ------------------------------------------------------------------------------

def _room_for_another(start, done, seconds):
    """Whether one more pass, as long as the mean pass so far, still ends
    within the measuring time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _tally(passes):
    """(jobs attempted, jobs failed, jobs with a wrong result)."""
    return (sum(len(p.outcomes) for p in passes), sum(len(p.failed) for p in passes),
            sum(len(p.wrong) for p in passes))


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, seed, seconds, crjet, job_list):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(crjet, workload, job_list))
        if not _room_for_another(start, len(passes), seconds):
            break
    rss = peak_rss_mb(workload)
    setup_s = measure_setup(workload, seed, SETUP_SAMPLES)
    attempted, failed, wrong = _tally(passes)
    metrics = {
        "wall_s": _median([p.scaled_wall for p in passes]),
        "job_p50_s": _median([_median(p.scaled) for p in passes]),
        "job_max_s": _median([max(p.scaled) for p in passes]),
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    first = passes[0]
    slowest = max(range(len(job_list)), key=first.scaled.__getitem__)
    notes = [f"passes {len(passes)}, jobs per pass {len(job_list)}, raw pass walls "
             f"{[round(p.wall, 3) for p in passes]} s",
             f"slowest job {job_list[slowest].name} {first.scaled[slowest]:.4f} s"]
    notes += [f"FAILED {o.job.name}: {o.error}" for o in first.failed]
    return metrics, attempted, failed, wrong, notes


def traced(workload, seed, seconds, crjet, job_list, per_layer):
    untraced, traced_passes, per_pass = [], [], []
    inproc = []
    dump = None
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(crjet, workload, job_list))
        if workload == "cli":
            inproc.append(run_pass(crjet, workload, job_list, inprocess=True))
        tracer = Tracer()
        tracer.install()
        try:
            tp = run_pass(crjet, workload, job_list, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_passes.append(tp)
        per_pass.append(tracer.metrics())
        if dump is None:
            dump = tracer.dump()
        del tracer
        if not _room_for_another(start, len(traced_passes), seconds):
            break
    metrics = {}
    for name in per_layer:
        vals = [m.get(name, 0) for m in per_pass]
        metrics[name] = statistics.median_low(vals)
    base = inproc if workload == "cli" else untraced
    metrics["trace.overhead"] = (_median([p.scaled_wall for p in traced_passes])
                                 / _median([p.scaled_wall for p in base]))
    if workload == "cli":
        # raw times: the fresh and in-process passes are calibrated differently
        fresh = _median([sum(o.seconds for o in p.outcomes) for p in untraced])
        body = _median([sum(o.seconds for o in p.outcomes) for p in inproc])
        metrics["cli.startup_s"] = (fresh - body) / len(job_list)
    first = untraced[0]
    jobs_out = [descriptors(crjet, workload, o, first.stdout) for o in first.outcomes]
    out_dir = os.path.join(BENCH, "_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{workload}-{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs_out,
                   "trace": dump}, fh)
    attempted, failed, wrong = _tally(untraced + inproc + traced_passes)
    notes = [f"passes {len(untraced)} untraced + {len(traced_passes)} traced",
             f"spans written to {os.path.relpath(out_dir, ROOT)}"]
    notes += [f"FAILED {o.job.name}: {o.error}" for o in first.failed]
    return metrics, attempted, failed, wrong, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the inputs, print 'ready' and exit (set-up timing)")
    args = ap.parse_args(argv)

    crjet = import_crjet()
    job_list, workdir = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        end_to_end_units, per_layer = _metric_units()
        if args.trace:
            metrics, attempted, failed, wrong, notes = traced(
                args.workload, args.seed, args.seconds, crjet, job_list, per_layer)
            units = per_layer
        else:
            metrics, attempted, failed, wrong, notes = end_to_end(
                args.workload, args.seed, args.seconds, crjet, job_list)
            units = end_to_end_units
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name:45s} {metrics[name]!r} {unit}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
