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
another count, as `bench/run.py` does.

The tool prints each side's median request time and its tail (the
`bench/run.py` tail: the highest percentile with ten requests beyond it,
here over the fixed request count), then the median of the paired ratios
tree/parent with a 95% bootstrap interval seeded by `--seed`.  The last line
is the same figures as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import run_request, tail  # noqa: E402  (first: it pins one BLAS thread before numpy loads)
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

BOOTSTRAP = 2000  # resamples of the paired ratios
SIDES = ("parent", "tree")


def worker(args) -> int:
    """Serve requests of one tree: a JSON reply line per request line on stdin."""
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
        except Exception as err:  # a failed request ends the run, on the controller's side
            traceback.print_exc()
            reply = {"error": f"{type(err).__name__}: {err}"}
        print(json.dumps(reply), file=replies, flush=True)
    return 0


def _spawn(tree: Path, args, work: Path) -> subprocess.Popen:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--work", str(work),
            "--workload", args.workload, "--seed", str(args.seed)]
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def _request(proc: subprocess.Popen, side: str) -> float:
    """One timed request on a worker; `RuntimeError` naming the side if it failed."""
    try:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
    except BrokenPipeError:  # the worker is gone
        line = ""
    reply = json.loads(line) if line else {"error": f"worker exited with {proc.wait()}"}
    if "error" in reply:
        raise RuntimeError(f"{side}: {reply['error']}")
    return reply["s"]


def summary(parent: list[float], tree: list[float], seed: int) -> dict:
    """Each side's p50 and tail, and the median paired ratio with its bootstrap interval."""
    ratios = np.array(tree) / np.array(parent)
    picks = np.random.default_rng(seed).integers(0, len(ratios), size=(BOOTSTRAP, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    sides = {}
    for name, times in zip(SIDES, (parent, tree)):
        pct, value = tail(times)
        sides[name] = {"p50_s": statistics.median(times), "tail_s": value, "tail_percentile": pct,
                       "total_s": sum(times)}
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
    with tempfile.TemporaryDirectory() as tmp:
        procs = [_spawn(tree, args, Path(tmp) / side) for tree, side in zip(trees, SIDES)]
        try:
            for side, proc in zip(SIDES, procs):
                _request(proc, side + " warm-up")
            for i in range(args.requests):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for k in order:
                    times[k].append(_request(procs[k], SIDES[k]))
        except RuntimeError as err:
            print(f"duet: request failed on {err}", file=sys.stderr)
            return 1
        finally:
            for proc in procs:
                proc.stdin.close()
                proc.wait()

    result = summary(*times, args.seed)
    print(f"duet {args.workload}, seed {args.seed}, {args.requests} requests per side")
    for name, tree in zip(SIDES, trees):
        side = result[name]
        print(f"{name} {tree}: p50 {side['p50_s']:.4f} s, tail (p{side['tail_percentile']:.1f}) "
              f"{side['tail_s']:.4f} s, total {side['total_s']:.2f} s")
    ratio = result["ratio"]
    print(f"paired ratio tree/parent: median {ratio['median']:.3f} "
          f"[95% CI {ratio['ci95'][0]:.3f}-{ratio['ci95'][1]:.3f}] over {ratio['pairs']} pairs")
    print(json.dumps(dict(result, workload=args.workload, seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
