"""Paired timing of two source trees on one benchmark workload.

Usage, from the root of a checkout:

    python3 tools/duet.py --parent <tree> --workload identity-sweep --requests 600 --seed 1

`<tree>` is the root of a checkout (the directory holding `src/delayham`).
The tree under test is the checkout holding this script; `--parent` naming
that same checkout gives an A/A run.  Each tree gets one warm worker process
that puts the tree's `src` first on `sys.path` and takes the workload, its
requests and its output checks from this checkout's `bench/workloads.py`, so
both sides run the same seeded request stream.  Each worker runs one checked,
untimed warm-up request; then each round times one request on each side,
the parent first in even rounds and the tree first in odd ones.  A request
whose exit code or output check fails on either side ends the run with
exit 1.  The workers use one BLAS thread unless the environment sets
another count, as `bench/run.py` does.  Each worker starts with
`PYTHONPYCACHEPREFIX` set to a new, empty directory of its own, so both
trees compile every module from source, whatever `.pyc` files the checkouts
hold: a tree with stale bytecode otherwise reads a different peak RSS (~1 MB
on `xval-long`) and set-up time than the same code with none.

The tool prints each side's median request time and its tail (the
`bench/run.py` tail: the highest percentile with ten requests beyond it,
here over the fixed request count) and its worker's peak RSS after the
warm-up and 10 requests (the `bench/run.py` rule, read the same way), then
the median of the paired ratios tree/parent with a 95% bootstrap interval
seeded by `--seed`.  The last line is the same figures as one JSON object.

One run can be off by a few percent when the host changes speed during it:
an interval of 1.025 [1.022-1.032] once read 1.000 on a repeat, 0.997 with
the sides swapped and 1.002 on an A/A run.  Confirm an interval that
excludes 1 with a swapped run (this checkout as `--parent`, run from the
other tree) before reporting it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import RSS_AFTER_REQUESTS, run_request, tail  # noqa: E402  (first: it pins one BLAS thread before numpy loads)
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

BOOTSTRAP = 2000  # resamples of the paired ratios
SIDES = ("parent", "tree")


def worker(args) -> int:
    """Serve requests of one tree: a JSON reply line per request line on stdin,
    with the request's time and the worker's peak RSS after it."""
    tree = args.worker.resolve()
    sys.path.insert(0, str(tree / "src"))
    from delayham import cli

    replies, sys.stdout = sys.stdout, sys.stderr  # a command that prints cannot break the protocol
    if Path(cli.__file__).resolve().parent != tree / "src" / "delayham":
        print(json.dumps({"error": f"imported delayham from {cli.__file__}"}), file=replies, flush=True)
        return 2
    out = args.work / "out"
    out.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    for _ in sys.stdin:  # one request per line; the first is the warm-up
        req = workload.request(out)
        try:
            reply = {"s": run_request(cli, req)}
            req.check()
            reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception as err:  # a failed request ends the run, on the controller's side
            traceback.print_exc()
            reply = {"error": f"{type(err).__name__}: {err}"}
        print(json.dumps(reply), file=replies, flush=True)
    return 0


def _spawn(tree: Path, args, work: Path) -> subprocess.Popen:
    """A worker for `tree`, writing under `work`, with its own empty bytecode
    cache `<work>-pycache`."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--work", str(work),
            "--workload", args.workload, "--seed", str(args.seed)]
    pycache = work.with_name(work.name + "-pycache")
    pycache.mkdir(parents=True)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def _request(proc: subprocess.Popen, side: str) -> dict:
    """One timed request on a worker, its reply `{"s", "rss_mb"}`; `RuntimeError`
    naming the side if it failed."""
    try:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
    except BrokenPipeError:  # the worker is gone
        line = ""
    reply = json.loads(line) if line else {"error": f"worker exited with {proc.wait()}"}
    if "error" in reply:
        raise RuntimeError(f"{side}: {reply['error']}")
    return reply


def summary(parent: list[float], tree: list[float], rss_mb: list[float], seed: int) -> dict:
    """Each side's p50, tail and peak RSS (`rss_mb`, parent first), and the
    median paired ratio with its bootstrap interval."""
    ratios = np.array(tree) / np.array(parent)
    picks = np.random.default_rng(seed).integers(0, len(ratios), size=(BOOTSTRAP, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    sides = {}
    for name, times, rss in zip(SIDES, (parent, tree), rss_mb):
        pct, value = tail(times)
        sides[name] = {"p50_s": statistics.median(times), "tail_s": value, "tail_percentile": pct,
                       "total_s": sum(times), "peak_rss_mb": rss}
    return dict(sides, ratio={"median": float(np.median(ratios)), "ci95": [float(low), float(high)],
                              "pairs": len(ratios)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--requests", type=int, default=600, help="timed requests per side")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)
    if args.parent is None:
        parser.error("--parent is required")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.requests < 1:
        parser.error("--requests must be at least 1")
    trees = (args.parent.resolve(), ROOT)
    for tree in trees:
        if not (tree / "src" / "delayham").is_dir():
            parser.error(f"{tree} holds no src/delayham")

    times: tuple[list[float], list[float]] = ([], [])
    rss_mb = [0.0, 0.0]  # each worker's peak RSS after the warm-up and RSS_AFTER_REQUESTS requests
    with tempfile.TemporaryDirectory() as tmp:
        procs = [_spawn(tree, args, Path(tmp) / side) for tree, side in zip(trees, SIDES)]
        try:
            for side, proc in zip(SIDES, procs):
                _request(proc, side + " warm-up")
            for i in range(args.requests):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for k in order:
                    reply = _request(procs[k], SIDES[k])
                    times[k].append(reply["s"])
                    if i < RSS_AFTER_REQUESTS:
                        rss_mb[k] = reply["rss_mb"]
        except RuntimeError as err:
            print(f"duet: request failed on {err}", file=sys.stderr)
            return 1
        finally:
            for proc in procs:
                proc.stdin.close()
                proc.wait()

    result = summary(*times, rss_mb, args.seed)
    print(f"duet {args.workload}, seed {args.seed}, {args.requests} requests per side")
    for name, tree in zip(SIDES, trees):
        side = result[name]
        print(f"{name} {tree}: p50 {side['p50_s']:.4f} s, tail (p{side['tail_percentile']:.1f}) "
              f"{side['tail_s']:.4f} s, total {side['total_s']:.2f} s, "
              f"peak RSS {side['peak_rss_mb']:.2f} MB")
    ratio = result["ratio"]
    print(f"paired ratio tree/parent: median {ratio['median']:.3f} "
          f"[95% CI {ratio['ci95'][0]:.3f}-{ratio['ci95'][1]:.3f}] over {ratio['pairs']} pairs")
    print(json.dumps(dict(result, workload=args.workload, seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
