"""Layer spans recorded from outside the program.

`Tracer.install` wraps each layer's public functions, listed in LAYER_FUNCTIONS,
at every module binding that holds them: the package modules import names
directly (`from .realization import eval_expr`), so patching only the defining
module would miss most calls.  Spans are kept in memory while the run lasts
and are summarised, checked and written out when it ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

LAYER_FUNCTIONS = {
    "expr": ("parse", "to_str"),
    "numkernel": ("sigma_extremes", "lu_solve", "random_tuple"),
    "realization": ("eval_expr", "build_realization"),
    "pencil": ("is_full", "rank_conditions", "rect_eval"),
    "extension": ("extend_square", "extend_side", "extend_hermitian",
                  "extend_nonhermitian"),
    "domainrep": ("widen_hdom", "schur_inverse_rep"),
    "gnsbasis": ("build_basis", "sample_points"),
    "psatz": ("optimize_eig", "certify_qm", "find_violation"),
    "sdpcore": ("solve", "export_sdpa", "import_sdpa"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
                   for fn in fns)

# span index fields: name, start, end, parent index (-1 for none), job id, info
NAME, START, END, PARENT, JOB, INFO = range(6)


def _count(name, args, out):
    """Counters taken at the layer boundary from the call's arguments and result."""
    if name == "expr.to_str":
        return {"chars": len(out)}
    if name == "gnsbasis.build_basis":
        return {"dim": out.dim, "samples": len(out.ip.samples)}
    if name == "gnsbasis.sample_points":
        return {"admitted": len(out)}
    if name == "sdpcore.solve":
        p = args[0]
        return {"iterations": out.iterations, "m": p.m,
                "block_dim_max": max(p.block_dims, default=0),
                "optimal": out.status == "optimal"}
    if name == "sdpcore.export_sdpa":
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """Nested spans of wrapped layer calls, recorded only while `active`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            # recursion through the module global (expr.to_str) stays one span
            if not self.active or (stack and spans[stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                rec[END] = time.perf_counter()
                rec[INFO] = {"raised": type(err).__name__}
                raise
            finally:
                stack.pop()
            rec[END] = time.perf_counter()
            rec[INFO] = _count(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every listed function in the loaded package."""
        for layer, fns in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(f"ncrat.{layer}")
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mname, m in list(sys.modules.items()):
                    if mname != "ncrat" and not mname.startswith("ncrat."):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patched)


def analyse(spans: list[list]) -> dict:
    """Self times, per-name totals and structural checks of a span list.

    A span's self time is its duration minus the durations of its direct
    children; in one thread children are disjoint, so their sum is the part
    of the parent they cover.
    """
    n = len(spans)
    child_sum = [0.0] * n
    problems: list[str] = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) ends before it starts")
        if p < 0:
            continue
        ps = spans[p]
        if not (ps[START] <= s[START] and s[END] <= ps[END]):
            problems.append(f"span {i} ({s[NAME]}) is not inside its parent {p}")
        if s[JOB] != ps[JOB]:
            problems.append(f"span {i} ({s[NAME]}) has another job than its parent")
        child_sum[p] += s[END] - s[START]
    totals = {name: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "raised": {}}
              for name in SPAN_NAMES}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if child_sum[i] > dur:
            problems.append(f"children of span {i} ({s[NAME]}) cover "
                            f"{child_sum[i]:.6f} s of its {dur:.6f} s")
        t = totals[s[NAME]]
        t["calls"] += 1
        t["self_s"] += dur - child_sum[i]
        if not _nested_in(spans, i, {s[NAME]}):
            t["inclusive_s"] += dur
        if s[INFO] and "raised" in s[INFO]:
            err = s[INFO]["raised"]
            t["raised"][err] = t["raised"].get(err, 0) + 1
    return {"totals": totals, "problems": problems}


def _nested_in(spans, i, names) -> bool:
    """Whether span i has an ancestor named in `names`."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def outermost_time(spans: list[list], names) -> float:
    """Wall time covered by spans named in `names`, a span nested in another
    of them counted once, through the outer one."""
    names = set(names)
    return sum(s[END] - s[START] for i, s in enumerate(spans)
               if s[NAME] in names and not _nested_in(spans, i, names))


def layer_metrics(spans: list[list], passes: int, stdout_bytes: int) -> dict:
    """The per-layer metrics: counts and times per pass of the job list,
    sizes and ratios per call."""
    a = analyse(spans)
    tot = a["totals"]
    per = 1.0 / passes

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO]
                and "raised" not in s[INFO]]

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    solves = infos("sdpcore.solve")
    iters = sum(i["iterations"] for i in solves)
    basis = infos("gnsbasis.build_basis")
    # random_tuple calls made directly by sample_points are its attempts
    sp_ids = {i for i, s in enumerate(spans) if s[NAME] == "gnsbasis.sample_points"}
    attempts = sum(1 for s in spans if s[NAME] == "numkernel.random_tuple"
                   and s[PARENT] in sp_ids)
    admitted = sum(i["admitted"] for i in infos("gnsbasis.sample_points"))
    ext_names = [f"extension.{f}" for f in LAYER_FUNCTIONS["extension"]]
    ext_calls = sum(tot[n]["calls"] for n in ext_names)
    ext_hyp = sum(tot[n]["raised"].get("HypothesisError", 0) for n in ext_names)

    m: dict[str, tuple[float, str]] = {}

    def put(key, value, unit):
        m[key] = (float(value), unit)

    for name in SPAN_NAMES:
        put(f"{name}.calls", tot[name]["calls"] * per, "count")
        put(f"{name}.self_s", tot[name]["self_s"] * per, "s")
    put("expr.to_str.chars",
        sum(i["chars"] for i in infos("expr.to_str")) * per, "count")
    put("realization.eval_expr.domain_errors",
        tot["realization.eval_expr"]["raised"].get("DomainError", 0) * per, "count")
    put("extension.hypothesis_error_ratio",
        ext_hyp / ext_calls if ext_calls else 0.0, "ratio")
    put("gnsbasis.build_basis.dim", mean([i["dim"] for i in basis]), "count")
    put("gnsbasis.build_basis.samples", mean([i["samples"] for i in basis]), "count")
    put("gnsbasis.sample_points.admit_ratio",
        admitted / attempts if attempts else 0.0, "ratio")
    put("sdpcore.solve.iterations", iters / len(solves) if solves else 0.0, "count")
    put("sdpcore.solve.s_per_iter",
        tot["sdpcore.solve"]["inclusive_s"] / iters if iters else 0.0, "s")
    put("sdpcore.solve.m", mean([i["m"] for i in solves]), "count")
    put("sdpcore.solve.block_dim_max",
        max((i["block_dim_max"] for i in solves), default=0), "count")
    put("sdpcore.solve.not_optimal",
        (tot["sdpcore.solve"]["calls"] - sum(i["optimal"] for i in solves)) * per,
        "count")
    put("sdpcore.sdpa_bytes",
        sum(i["bytes"] for i in infos("sdpcore.export_sdpa")) * per, "count")
    put("cli.stdout_bytes", stdout_bytes * per, "count")
    return {"metrics": m, "analysis": a}
