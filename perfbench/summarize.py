"""Summarise the records in perfbench/results/.

    python3 perfbench/summarize.py

For each workload: the median and quartile spread (IQR / median) of every
end-to-end metric over the untraced runs, set against its bound.  Over the
traced runs: each layer function's calls per workload, flagging any function
no workload calls, and each workload's share of job time in its intended
layers.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(pattern):
    out = {}
    for path in sorted(glob.glob(os.path.join(HERE, "results", pattern))):
        with open(path) as fh:
            rec = json.load(fh)
        if "metrics" in rec:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload, runs in _load("*-trace0.json").items():
        print(f"{workload}: {len(runs)} untraced runs, seeds "
              f"{sorted(r['seed'] for r in runs)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            flag = ""
            if m["name"] != "setup_s" and not spread < m["bound"] / 3:
                flag = "  <-- spread not below a third of the bound"
                ok = False
            print(f"  {m['name']:12s} median {med:.6g} {m['unit']:5s} "
                  f"spread {spread:.3f} (bound {m['bound']}){flag}")
        failed = sorted({r["failed"] for r in runs})
        print(f"  failed per run {failed}, correct {all(r['correct'] for r in runs)}")

    traced = _load("*-trace1.json")
    if traced:
        calls = {name: {} for name in tracer.SPAN_NAMES}
        print("traced runs: intended-layer share, tracing overhead")
        for workload, runs in traced.items():
            t = [r["traced"] for r in runs]
            share = statistics.median(x["metrics"]["trace.intended_share"]["value"]
                                      for x in t)
            over = statistics.median(x["metrics"]["trace.overhead"]["value"] for x in t)
            print(f"  {workload:14s} {'+'.join(t[0]['intended_layers'])}: "
                  f"{share:.3f}; overhead {over:+.3f}; "
                  f"span problems {sum(x['problem_count'] for x in t)}")
            for name in tracer.SPAN_NAMES:
                calls[name][workload] = t[0]["metrics"][f"{name}.calls"]["value"]
        print("calls per pass by workload")
        for name, by in calls.items():
            used = {w: v for w, v in by.items() if v}
            if not used:
                ok = False
            print(f"  {name:32s} " + (", ".join(f"{w} {v:g}" for w, v in used.items())
                                      or "NOT CALLED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
