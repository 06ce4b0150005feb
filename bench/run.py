"""delayham benchmark: seeded workloads through `delayham.cli.main`, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload noether-readme --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run (see bench/README.md).  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment and details.  Spans and results are kept under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: the loop has one client and
# no extra threads.  OpenBLAS threads spin between calls, and with the default
# of one per core a `noether` request slowed about seven-fold whenever another
# process was busy on the same 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import Tracer, layer_metrics, unit_of
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
RSS_AFTER_REQUESTS = 10  # peak RSS is read after the warm-up and this many requests


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if there is none."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_setup(config: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready for a request."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(config)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def run_request(cli, req) -> float:
    """Run every step of `req`; return its wall time.  Stale outputs are removed first."""
    for path in req.outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    rcs = [cli.main(argv) for argv in req.argvs]
    elapsed = time.perf_counter() - start
    if any(rcs):
        raise CheckFailed(f"exit codes {rcs}")
    return elapsed


def warm_up(cli, workload, out: Path) -> int:
    """Run and check the untimed warm-up request; return 1 if it failed."""
    req = workload.request(out)
    try:
        run_request(cli, req)
        req.check()
    except Exception:  # counted like any failed request
        traceback.print_exc()
        return 1
    return 0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it, and its value."""
    ordered = sorted(times)
    rank = max(len(ordered) - 11, 0)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def end_to_end(cli, workload, out: Path, seconds: float, setup: list[float]) -> tuple[dict, dict, int, int]:
    failed = warm_up(cli, workload, out)
    times, errors, attempted, rss_mb = [], [], 1, None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        attempted += 1
        req = workload.request(out)
        try:
            elapsed = run_request(cli, req)
            errors.append(req.check())
            times.append(elapsed)
        except Exception:  # a failed request is counted, and the run goes on
            traceback.print_exc()
            failed += 1
        if attempted == 1 + RSS_AFTER_REQUESTS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct, tail_s = tail(times) if times else (0.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "request_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "work_per_s": (workload.units_per_request * len(times) / sum(times) if times else 0.0, "1/s"),
        "numeric_error": (statistics.median(errors) if errors else 0.0, "1"),
    }
    details = {
        "requests": len(times),
        "tail_percentile": pct,
        "failed_share": failed / attempted,
        "work_unit": workload.unit,
        f"{workload.unit}_per_s": metrics["work_per_s"][0],
        "setup_runs_s": setup,
        "request_times_s": times,
    }
    return metrics, details, attempted, failed


def traced(cli, workload, out: Path, seconds: float, spans_path: Path) -> tuple[dict, dict, int, int]:
    """Traced run.  Request i runs twice, traced and untraced (traced first when i
    is even), and the two runs must write byte-identical outputs.  Layer figures
    come from the traced first runs; the warm-up's spans are kept, tagged."""
    tracer = Tracer()
    tracer.request = "warmup"
    tracer.install()
    try:
        failed = warm_up(cli, workload, out)
    finally:
        tracer.uninstall()

    first = {True: [], False: []}
    measured: set = set()
    attempted = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        i = attempted
        attempted += 1
        req = workload.request(out)
        traced_first = i % 2 == 0
        try:
            outputs = None
            for with_trace in (traced_first, not traced_first):
                keep = len(tracer.spans)
                tracer.request = i
                if with_trace:
                    tracer.install()
                try:
                    elapsed = run_request(cli, req)
                finally:
                    tracer.uninstall()
                if outputs is None:
                    first[with_trace].append(elapsed)
                    req.check()
                    if with_trace:
                        measured.add(i)
                    outputs = {p: p.read_bytes() for p in req.outputs}
                else:
                    del tracer.spans[keep:]  # the repeat is only for the byte comparison
                    changed = [p.name for p in req.outputs if p.read_bytes() != outputs[p]]
                    if changed:
                        raise CheckFailed(f"traced and untraced outputs differ: {changed}")
        except Exception:  # a failed request is counted, and the run goes on
            traceback.print_exc()
            failed += 1
            measured.discard(i)

    metrics = layer_metrics(tracer.spans, measured)
    warm = layer_metrics(tracer.spans, {"warmup"})
    for key in ("expr.compile.misses", "expr.compile.miss_s", "expr.build.s", "expr.random_jet.calls"):
        metrics["warmup." + key] = warm[key]
    for name, size in tracer.cache_sizes().items():
        metrics[f"expr.cache.{name}"] = size
    metrics["trace.overhead_ratio"] = (
        statistics.median(first[True]) / statistics.median(first[False])
        if first[True] and first[False] else 0.0
    )
    tracer.write(spans_path)
    details = {
        "requests": attempted - 1,
        "traced_first": len(first[True]),
        "untraced_first": len(first[False]),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, details, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "delayham" / "__init__.py").is_file():
        print(f"no delayham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_out"
    out = work / "out"
    out.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup = measure_setup(workload.setup_config()) if args.trace == 0 else []
        sys.path.insert(0, str(ROOT / "src"))
        from delayham import cli

        if Path(cli.__file__).resolve().parent != ROOT / "src" / "delayham":
            print(f"imported delayham from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, details, attempted, failed = traced(
                cli, workload, out, args.seconds, results / f"spans-{tag}.jsonl.gz")
        else:
            metrics, details, attempted, failed = end_to_end(cli, workload, out, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": attempted >= 1 and failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workload.why, "env": environment(), "details": details}
    (results / f"result-{tag}.json").write_text(json.dumps(dict(record, result=result), indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
