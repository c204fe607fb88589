"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that (1) every map the pull-back generator builds verifies exactly
against its source and target, and (2) a job forced past its time limit, a
job that raises and a job with a wrong answer are each counted as failed,
for library jobs and for cli jobs.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import sys
import time

import jobs as J
import run


def expect(cond, message):
    if not cond:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_pullbacks(crjet):
    from crjet import io as cio
    for seed in (0, 1):
        for job in J.reconstruct_jobs(seed):
            p = json.loads(job.payload)
            M = cio.parse_hypersurface(p["source"])
            Mhat = cio.parse_hypersurface(p["target"])
            A = cio.parse_formal_map(p["map"])
            expect(crjet.verify_map(M, Mhat, A).is_zero,
                   f"seed {seed} {job.name}: generated map verifies exactly")
    files, _ = J.cli_files(0)
    M, Mhat = (cio.parse_hypersurface(json.loads(files[n]))
               for n in ("source.json", "target.json"))
    good = cio.parse_formal_map(json.loads(files["map.json"]))
    bad = cio.parse_formal_map(json.loads(files["badmap.json"]))
    expect(crjet.verify_map(M, Mhat, good).is_zero, "cli map.json verifies exactly")
    expect(not crjet.verify_map(M, Mhat, bad).is_zero, "cli badmap.json does not verify")


def _spin(crjet, job):
    while True:
        pass


def _raise(crjet, job):
    raise ValueError("forced")


def check_failures(crjet):
    job = J.dset_jobs(0)[0]
    start = time.perf_counter()
    out = J.run_library_job(crjet, job, _spin, J.check_dset, 0.2)
    took = time.perf_counter() - start
    expect(out.error is not None and "limit" in out.error and took < 2,
           f"library job past its limit is failed ({out.error}, {took:.2f} s)")
    out = J.run_library_job(crjet, job, _raise, J.check_dset, 5)
    expect(out.error is not None and "ValueError" in out.error, "raising job is failed")
    b0 = next(j for j in J.dset_jobs(0) if j.name == "family-b0")
    b0.expect = dict(b0.expect, known=([0], 1))
    out = J.run_library_job(crjet, b0, J.run_dset, J.check_dset, 30)
    expect(out.error is not None and out.error.startswith("wrong result"),
           "a result that disagrees with the construction is failed")

    job_list, workdir = run.setup("cli", 0)
    try:
        env = J.cli_env(run.ROOT)
        slow = next(j for j in job_list if j.name == "dset-family-b0")
        out = J.run_cli_job(slow, run.ROOT, env, 0.05, {})
        expect(out.error is not None and "limit" in out.error,
               f"cli job past its limit is failed ({out.error})")
        m2 = next(j for j in job_list if j.name == "dset-m2")
        out = J.run_cli_job(m2, run.ROOT, env, 60, {})
        print(f"    dset on the m=2 input: {out.error}")
        ok = next(j for j in job_list if j.name == "validate-family-mc2")
        out = J.run_cli_job(ok, run.ROOT, env, 60, {})
        expect(out.error is None, "a correct cli job passes its oracle")
        out = run.run_cli_inprocess(crjet, ok, 60, {})
        expect(out.error is None, "the same job passes in-process")
    finally:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    os.chdir(run.ROOT)
    crjet = run.import_crjet()
    check_pullbacks(crjet)
    check_failures(crjet)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
