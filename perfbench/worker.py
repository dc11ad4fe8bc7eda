"""The workload process: one client in a closed loop.

Started by run.py.  It imports the program, builds the seeded job list, prints
"ready" (run.py times set-up up to that line), then runs whole passes of the
job list, as many as fill --seconds at the workload's nominal pass time, each
job starting when the previous one has returned and been checked.  With
--trace 1 it runs half as many untraced passes and then as many traced ones,
so that the tracing overhead is measured in the same process.
The summary is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import tracer
import workloads


def _environment() -> dict:
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                "openblas configuration", "unknown")
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_passes(jobs, passes, trc, records, first_pass):
    """Run the job list `passes` times; returns the summed job time."""
    busy = 0.0
    for n in range(first_pass, first_pass + passes):
        for job in jobs:
            if trc is not None:
                trc.job = len(records)
                trc.active = True
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a raising job is a failed job, not a crash
                out, err = None, exc
            dt = time.perf_counter() - t0
            if trc is not None:
                trc.active = False
            busy += dt
            if err is not None:
                why = f"raised {type(err).__name__}: {err}"
            else:
                try:
                    why = job.check(out)
                except Exception as exc:
                    why = f"checker raised {type(exc).__name__}: {exc}"
            records.append({"job": job.name, "pass": n, "traced": trc is not None,
                            "seconds": dt, "failure": why, "known": job.known,
                            "stdout_bytes": job.stdout_bytes})
    return busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        records: list[dict] = []
        summary = {"workload": args.workload, "seed": args.seed,
                   "environment": _environment(), "jobs_per_pass": len(jobs)}
        # a fixed pass count keeps the sample count, and with it the tail
        # percentile, the same from run to run
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = max(1, round(budget / workloads.PASS_SECONDS[args.workload]))
        busy = _run_passes(jobs, passes, None, records, 0)
        summary["untraced"] = {"passes": passes, "busy_s": busy}
        if args.trace:
            trc = tracer.Tracer()
            trc.install()
            try:
                tpasses = passes
                tbusy = _run_passes(jobs, tpasses, trc, records, passes)
            finally:
                trc.uninstall()
            traced = [r for r in records if r["traced"]]
            lm = tracer.layer_metrics(trc.spans, tpasses,
                                      sum(r["stdout_bytes"] for r in traced))
            job_s = sum(r["seconds"] for r in traced)
            shares = {layer: tracer.outermost_time(
                          trc.spans, [f"{layer}.{f}" for f in fns]) / job_s
                      for layer, fns in tracer.LAYER_FUNCTIONS.items()}
            intended = workloads.INTENDED[args.workload]
            metrics = lm["metrics"]
            metrics["trace.intended_share"] = (
                tracer.outermost_time(trc.spans, intended) / job_s, "ratio")
            metrics["trace.overhead"] = (
                (tbusy / (tpasses * len(jobs))) / (busy / (passes * len(jobs))) - 1,
                "ratio")
            summary["traced"] = {
                "passes": tpasses, "busy_s": tbusy,
                "bindings": trc.bindings(),
                "intended_layers": intended,
                "layer_share": shares,
                "problems": lm["analysis"]["problems"][:20],
                "problem_count": len(lm["analysis"]["problems"]),
                "span_count": len(trc.spans),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
            with open(args.out + ".spans.json", "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job", "info"],
                           "spans": trc.spans}, fh)
        summary["records"] = records
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with open(args.out, "w") as fh:
            json.dump(summary, fh)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
