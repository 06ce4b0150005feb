"""Spans recorded from outside the library, by wrapping its public functions.

`Tracer` replaces a function in every `delayham` module namespace that binds
it (so `noether.is_zero`, `noether.D` and `expr.is_zero` all record), and
`numpy.linalg.lstsq` while it is installed.  Each call becomes one span
`(name, start, end, parent, request, info)`; spans stay in memory until the
run writes them out.  The recursive build functions (`partial`, `total_derivative`,
`shift`, `substitute`) record only their outermost call.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy.linalg

BUILD_FUNCTIONS = ("partial", "total_derivative", "shift", "substitute")


def _compile_prepare(tracer, args, kwargs):
    with_magnitude = args[1] if len(args) > 1 else kwargs.get("with_magnitude", False)
    miss = (id(args[0]), with_magnitude) not in tracer.caches["compile"]
    return args, kwargs, miss


def _counting_jets(args, kwargs):
    count = [0]
    jets = args[1] if len(args) > 1 else kwargs.pop("jets")

    def counted():
        for jet in jets:
            count[0] += 1
            yield jet

    return (args[0], counted(), *args[2:]), kwargs, count


def _zero_check(result, jets=None):
    info = {"ok": bool(result.ok), "worst": float(result.worst)}
    if jets is not None:
        info["jets"] = jets[0]
    return info


def _new_nodes(traj) -> dict:
    """Nodes integrated past the two delays of history on the standard grid."""
    return {"nodes": len(traj.t) - 1 - 2 * traj.steps_per_delay}


def _csv_written(args, kwargs) -> dict:
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    info = {"rows": len(args[0].t)}
    if isinstance(stream, str):
        info["bytes"] = os.path.getsize(stream)
    return info


# (module, function, span name, prepare(tracer, args, kwargs), info(args, kwargs, result, state))
TARGETS = [
    ("expr", "random_jet", "expr.random_jet", None, None),
    ("expr", "compiled", "expr.compile", _compile_prepare, lambda a, k, r, miss: {"miss": miss}),
    ("expr", "evaluate", "expr.evaluate", None, None),
    ("expr", "is_zero", "expr.is_zero", None, lambda a, k, r, s: _zero_check(r)),
    ("expr", "is_zero_at", "expr.is_zero_at", lambda t, a, k: _counting_jets(a, k),
     lambda a, k, r, count: _zero_check(r, count)),
    ("expr", "parse", "expr.parse", None, None),
    *[("expr", name, "expr.build", None, None) for name in BUILD_FUNCTIONS],
    ("model", "on_shell_jet", "model.on_shell_jet", None, None),
    ("noether", "fit_total_derivative", "noether.fit", None, lambda a, k, r, s: {"found": r is not None}),
    ("noether", "fit_shift_difference", "noether.fit", None, lambda a, k, r, s: {"found": r is not None}),
    ("noether", "classify_invariance", "noether.classify", None, None),
    ("noether", "verify_hamiltonian_identity", "noether.verify_identity", None, None),
    ("noether", "variational_derivative_identities", "noether.variational_identities", None, None),
    ("noether", "drift", "noether.drift", None, lambda a, k, r, s: {"nodes": r.n_points}),
    ("solver", "step_hamiltonian", "solver.step_hamiltonian", None, lambda a, k, r, s: _new_nodes(r)),
    ("solver", "step_elsgolts", "solver.step_elsgolts", None, lambda a, k, r, s: _new_nodes(r)),
    ("solver", "residual_report", "solver.residual_report", None,
     lambda a, k, r, s: {"nodes": len(r.indices)}),
    ("solver", "write_csv", "solver.write_csv", None, lambda a, k, r, s: _csv_written(a, k)),
    ("solver", "read_csv", "solver.read_csv", None, lambda a, k, r, s: {"rows": len(r.t)}),
    ("recursion", "recurse", "recursion.recurse", None, lambda a, k, r, s: _new_nodes(r)),
    ("recursion", "compare", "recursion.compare", None, None),
    ("cli", "load_config", "cli.load_config", None, None),
    ("cli", "main", "cli.main", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request: object = None
        self.building = False
        expr = sys.modules["delayham.expr"]
        self.caches = {
            "intern": expr._INTERN,
            "partial": expr._PARTIAL_CACHE,
            "total": expr._TOTAL_CACHE,
            "compile": expr._COMPILE_CACHE,
            "symbols": expr._SYMBOLS_CACHE,
        }
        namespaces = [m for n, m in sys.modules.items() if n == "delayham" or n.startswith("delayham.")]
        self.patches: list[tuple[object, str, object, object]] = []
        for module, attr, name, prepare, info in TARGETS:
            original = getattr(sys.modules["delayham." + module], attr)
            wrapper = self._wrap(name, original, prepare, info, build=attr in BUILD_FUNCTIONS)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, key, original, wrapper))
        lstsq = numpy.linalg.lstsq
        self.patches.append((numpy.linalg, "lstsq", lstsq, self._wrap(
            "noether.lstsq", lstsq, None,
            lambda a, k, r, s: {"shape": a[0].shape},
        )))

    def install(self) -> None:
        for ns, key, _, wrapper in self.patches:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in self.patches:
            setattr(ns, key, original)

    def cache_sizes(self) -> dict[str, int]:
        return {name: len(cache) for name, cache in self.caches.items()}

    def _wrap(self, name, fn, prepare, info, build=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if build:
                if self.building:
                    return fn(*args, **kwargs)
                self.building = True
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(self, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                if build:
                    self.building = False
                extra = info(args, kwargs, result, state) if (info is not None and done) else None
                spans[idx] = (name, start, end, parent, self.request, extra)
            return result

        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, extra) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "info": extra,
                }) + "\n")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = metric.rsplit(".", 1)[1]
    if metric.startswith("expr.cache."):
        return "count"
    if "us_per_" in last:
        return "us"
    if last.endswith("ratio"):
        return "ratio"
    if last == "s" or last.endswith("_s"):
        return "s/req"
    if last == "bytes":
        return "B/req"
    return "count/req"


def layer_metrics(spans: list, requests: set) -> dict[str, float]:
    """Per-request layer figures over the spans of `requests`.

    Counts and seconds are per request; `us_per_*` divide a layer's time by
    its own work; `self` time is a span's duration minus its children's.
    """
    child_time: dict[int, float] = defaultdict(float)
    child_jets: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "expr.random_jet":
                child_jets[parent] += 1

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    worst: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, request, info) in enumerate(spans):
        if request not in requests:
            continue
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_time.get(i, 0.0)
        if not info:
            continue
        if name == "expr.compile" and info["miss"]:
            extra["compile.misses"] += 1
            extra["compile.miss_s"] += end - start
        elif name == "noether.fit":
            extra["fit.found"] += info["found"]
        elif name == "expr.is_zero":
            work[name] += child_jets.get(i, 0)
        elif name == "noether.lstsq":
            extra["lstsq.rows"] += info["shape"][0]
            extra["lstsq.cols"] += info["shape"][1]
        extra["csv.bytes"] += info.get("bytes", 0)
        work[name] += info.get("nodes", 0) + info.get("rows", 0) + info.get("jets", 0)
        if info.get("ok"):
            worst[name] = max(worst[name], info["worst"])

    r = max(len(requests), 1)

    def per_unit(name: str, seconds: dict, units: dict) -> float:
        return seconds[name] / units[name] * 1e6 if units[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "expr.random_jet.calls": calls["expr.random_jet"] / r,
        "expr.random_jet.us_per_call": per_unit("expr.random_jet", total, calls),
        "model.on_shell_jet.calls": calls["model.on_shell_jet"] / r,
        "model.on_shell_jet.self_us_per_call": per_unit("model.on_shell_jet", own, calls),
        "noether.fit.calls": calls["noether.fit"] / r,
        "noether.fit.jets": extra["lstsq.rows"] / r,
        "noether.fit.columns": extra["lstsq.cols"] / r,
        "noether.fit.self_s": own["noether.fit"] / r,
        "noether.fit.found_ratio": ratio(extra["fit.found"], calls["noether.fit"]),
        "noether.lstsq.calls": calls["noether.lstsq"] / r,
        "noether.lstsq.s": total["noether.lstsq"] / r,
        "expr.compile.calls": calls["expr.compile"] / r,
        "expr.compile.misses": extra["compile.misses"] / r,
        "expr.compile.miss_s": extra["compile.miss_s"] / r,
        "expr.compile.hit_ratio": 1.0 - ratio(extra["compile.misses"], calls["expr.compile"]),
        "expr.build.calls": calls["expr.build"] / r,
        "expr.build.s": total["expr.build"] / r,
        "expr.parse.s": total["expr.parse"] / r,
        "expr.evaluate.calls": calls["expr.evaluate"] / r,
        "expr.evaluate.s": total["expr.evaluate"] / r,
        "noether.classify.s": total["noether.classify"] / r,
        "noether.verify_identity.s": total["noether.verify_identity"] / r,
        "noether.variational_identities.s": total["noether.variational_identities"] / r,
        "noether.drift.nodes": work["noether.drift"] / r,
        "noether.drift.us_per_node": per_unit("noether.drift", total, work),
        "solver.step_hamiltonian.nodes": work["solver.step_hamiltonian"] / r,
        "solver.step_hamiltonian.us_per_node": per_unit("solver.step_hamiltonian", total, work),
        "solver.step_elsgolts.nodes": work["solver.step_elsgolts"] / r,
        "solver.step_elsgolts.us_per_node": per_unit("solver.step_elsgolts", total, work),
        "solver.residual_report.us_per_node": per_unit("solver.residual_report", total, work),
        "solver.write_csv.rows": work["solver.write_csv"] / r,
        "solver.write_csv.bytes": extra["csv.bytes"] / r,
        "solver.write_csv.us_per_row": per_unit("solver.write_csv", total, work),
        "solver.read_csv.rows": work["solver.read_csv"] / r,
        "solver.read_csv.us_per_row": per_unit("solver.read_csv", total, work),
        "recursion.recurse.us_per_node": per_unit("recursion.recurse", total, work),
        "recursion.compare.s": total["recursion.compare"] / r,
        "cli.load_config.s": total["cli.load_config"] / r,
        "cli.main.self_s": own["cli.main"] / r,
    }
    for name in ("expr.is_zero", "expr.is_zero_at"):
        out[f"{name}.calls"] = calls[name] / r
        out[f"{name}.jets"] = work[name] / r
        out[f"{name}.self_s"] = own[name] / r
        out[f"{name}.worst_ratio"] = worst[name]
    return out
