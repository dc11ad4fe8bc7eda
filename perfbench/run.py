"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 it times set-up in fresh processes and runs the
workload untraced, printing the end-to-end metrics of BENCHMARK.json; with
--trace 1 it prints the per-layer metrics.  The last line of stdout is the
result object; the full record, with every job and the run environment, goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4     # fresh processes timed for set-up besides the worker
DEADLINE_S = 170.0   # the whole run must end within 180 s
# One BLAS thread per process: the host has 2 cores and the load is one client.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _tail(samples):
    """The highest percentile with at least ten samples above it, as
    (value, percentile, sample count); the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    k = n - 11 if n > 10 else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def _jobs_per_s(records):
    """Jobs of one pass over the pass time, taking each job's median over
    the passes so that one slow pass does not set the figure."""
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r["seconds"])
    return len(by_job) / sum(statistics.median(v) for v in by_job.values())


class _Worker:
    """One worker process; `ready_s` is its time from start to the first job."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def finish(self) -> int:
        try:
            return self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return -1
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return _fail(f"cannot read BENCHMARK.json: {err}")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(root, "src", "ncrat", "__init__.py")):
        return _fail("no src/ncrat here; run from the root of a source checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0", **BLAS_ENV)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = _Worker(argv + ["--workdir", f"{stem}.probe{i}", "--setup-only"],
                            env, deadline)
            code = probe.finish()
            if code != 0 or not probe.ready:
                return _fail(f"set-up probe exited with {code}")
            setups.append(probe.ready_s)
    worker = _Worker(argv + ["--workdir", f"{stem}.work", "--out", f"{stem}.json"],
                     env, deadline)
    code = worker.finish()
    if code != 0 or not worker.ready:
        return _fail(f"workload process exited with {code}")
    setups.append(worker.ready_s)
    with open(f"{stem}.json") as fh:
        summary = json.load(fh)

    records = summary["records"]
    unexpected = [r for r in records if r["failure"] and not r["known"]]
    failed = sum(1 for r in records if r["failure"])
    correct = not unexpected
    if args.trace:
        traced = summary["traced"]
        correct = correct and traced["problem_count"] == 0
        computed = traced["metrics"]
    else:
        seconds = [r["seconds"] for r in records]
        tail, pct, n = _tail(seconds)
        summary["job_s.tail"] = {"percentile": pct, "samples": n}
        computed = {
            "jobs_per_s": {"value": _jobs_per_s(records), "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(seconds), "unit": "s"},
            "job_s.tail": {"value": tail, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    summary["setup_samples_s"] = setups
    summary["attempted"], summary["failed"] = len(records), failed
    summary["fail_ratio"] = failed / len(records)
    summary["unexpected_failures"] = unexpected
    metrics = {}
    for m in wanted:
        got = computed[m["name"]]
        if got["unit"] != m["unit"]:
            return _fail(f"metric {m['name']} is in {got['unit']}, "
                         f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    summary["metrics"] = metrics
    summary["correct"] = correct
    with open(f"{stem}.json", "w") as fh:
        json.dump(summary, fh)

    for r in unexpected[:10]:
        print(f"UNEXPECTED FAILURE {r['job']}: {r['failure']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} jobs, {failed} failed "
          f"({failed - len(unexpected)} recorded as known), record in {stem}.json")
    if not args.trace:
        print(f"job_s.tail is p{summary['job_s.tail']['percentile']:.1f} "
              f"of {summary['job_s.tail']['samples']} samples")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
