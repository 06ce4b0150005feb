"""Write the committed benchmark record `BENCH_<PR>.json` from `tools/duet.py` runs.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr <N> --change "<what the change does>" \
        --claim identity-sweep request_p50_s "<the claimed figure>" \
        duet-identity.txt duet-noether.txt duet-xval.txt --swapped duet-identity-swapped.txt

Each positional file holds the standard output of one `tools/duet.py` run;
its last line, the run's figures as one JSON object, is the one read.  Give
one run per workload; `--swapped` adds the confirming run with the sides
exchanged (started from the parent tree with this tree as `--parent`) to the
workload of the same name.  `--section KEY=FILE` adds the JSON value in FILE
as the top-level field KEY, for figures the tool does not take itself (such
as alternating `bench/run.py` pairs, or an output comparison).

The record has the fields of the earlier `BENCH_*.json` files: `change`,
`command`, `method`, `env`, `claim`, then `workloads`, holding for each
workload `run` (and `swapped`, with a note on its sides) as duet printed it.
`env` is read from the machine the tool runs on, so run it where duet ran.
The file is written to the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

COMMAND = ("python3 tools/duet.py --parent <parent tree> --workload <w> --requests <n> --seed <s> "
           "(swapped: run from the parent tree with --parent <change tree>)")
METHOD = ("tools/duet.py: one warm worker per tree on the same seeded request stream, each started "
          "with an empty bytecode cache of its own, one checked untimed warm-up each, then one timed "
          "request per side per round with the side that goes first alternating; paired ratio "
          "change/parent with a seeded 2,000-resample bootstrap 95% interval")
SWAPPED_NOTE = 'in the swapped run the tools\' sides are exchanged: "parent" is the change and "tree" the parent commit'
RUN_KEYS = {"parent", "tree", "ratio", "workload", "seed"}


class RecordError(Exception):
    pass


def duet_run(path: Path) -> dict:
    """The figures of one duet run: the last line of its output, a JSON object."""
    lines = path.read_text(encoding="utf-8").splitlines()
    try:
        run = json.loads(lines[-1]) if lines else None
    except ValueError:
        run = None
    if not isinstance(run, dict) or not RUN_KEYS <= set(run):
        raise RecordError(f"{path}: its last line is not the JSON summary of a tools/duet.py run")
    return run


def environment() -> dict:
    """The machine and numeric stack, with duet's BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "1")),
    }


def record(runs: list[dict], swapped: list[dict], change: str, claim: list[str] | None,
           method_note: str | None, sections: dict) -> dict:
    workloads: dict = {}
    for run in runs:
        if run["workload"] in workloads:
            raise RecordError(f"two runs of {run['workload']}")
        workloads[run["workload"]] = {"run": run}
    for run in swapped:
        entry = workloads.get(run["workload"])
        if entry is None:
            raise RecordError(f"a swapped run of {run['workload']}, which has no run")
        if "swapped" in entry:
            raise RecordError(f"two swapped runs of {run['workload']}")
        entry.update(swapped=run, note=SWAPPED_NOTE)
    out = {"change": change, "command": COMMAND,
           "method": METHOD + (f"; {method_note}" if method_note else ""), "env": environment()}
    if claim:
        workload, metric, result = claim
        if workload not in workloads:
            raise RecordError(f"the claim names {workload}, which has no run")
        out["claim"] = {"workload": workload, "metric": metric, "result": result}
    out["workloads"] = workloads
    for key, value in sections.items():
        if key in out:
            raise RecordError(f"--section {key} would replace a field of the record")
        out[key] = value
    return out


def _section(text: str) -> tuple[str, object]:
    key, sep, path = text.partition("=")
    if not key or not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=FILE, not {text!r}")
    try:
        return key, json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"{path}: {err}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path, help="tools/duet.py outputs, one per workload")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json")
    parser.add_argument("--change", required=True, help="what the measured change does")
    parser.add_argument("--swapped", type=Path, action="append", default=[],
                        help="a duet output with the sides exchanged")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "RESULT"))
    parser.add_argument("--method-note", help="appended to the method, e.g. the parent and the seeds")
    parser.add_argument("--section", type=_section, action="append", default=[], metavar="KEY=FILE")
    args = parser.parse_args(argv)
    try:
        out = record([duet_run(p) for p in args.runs], [duet_run(p) for p in args.swapped], args.change,
                     args.claim, args.method_note, dict(args.section))
    except (OSError, RecordError) as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 2
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
