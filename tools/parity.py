"""Differential check of two source trees: the same CLI runs, the same bytes.

Usage, from the root of a checkout:

    python3 tools/parity.py --parent <tree> [--start 1000]

`<tree>` is the root of a checkout (the directory holding `src/delayham`).
The tree under test is the checkout holding this script; `--parent` naming
that same checkout gives an A/A run.  Each tree runs the same fixed matrix in
one fresh process whose `PYTHONPATH` is that tree's `src`, all in-process
through `delayham.cli.main`; a worker that imported `delayham` from anywhere
else exits 2, so no run can compare a tree with itself by mistake:

- `check-identity` and `noether` on 40 configs drawn by
  `bench/workloads.random_identity_model` from `random.Random(--start)`
  (they carry no history, so `noether` monitors no drift);
- `noether` on the README config at the 5 seeds from `--start` on, and at
  the same seeds on four configs whose fits take every solver path: the five
  generators of the README's `noether` golden, the degenerate oscillator and
  the cubic potential `p*pm + q*qm + q^3/3` with those five generators, and
  (without a `horizon`, so with no drift monitor) the
  `exp(200*q*p) + p*pm + q*qm` config, whose sampling overflows;
- `simulate` in both formulations, `recurse`, `compare` and `transform` on
  the README config;
- the sha256 of the generated kernel source of the V and W fit dictionaries
  and of the residuals `check-identity` checks on the first model, as it
  hands them to `zero_checks`, and of the solver's generated interval step
  of each formulation (`solver._interval_step`) on the README model;
- three configs whose Lagrangian coefficients or pairing weights overflow a
  double and two whose coefficient products underflow one, on the commands
  they reach;
- `check-identity --classical` on the README config;
- `transform` on a quadratic Hamiltonian (the reverse direction) and on an
  `extended_lagrangian` config; with `--alpha1` 0.5, 3 and 1e-135 on that
  Hamiltonian and on the README config; and with `--alpha1 1e-135` on a
  Lagrangian and a Hamiltonian whose coefficient arithmetic underflows on
  the way (`(alpha1/beta)^2*alpha` with `alpha` 1e300, `beta` 1e30);
- input families that the parent may reject differently: a generator's `V`
  that reads a second derivative or `W` that reads a forward-shifted
  coordinate, expressions nested past the parser's limit or led by 2,000
  minus signs, negative flag values in exponent form (`--alpha1 -1e-135`,
  `--max-diff -1e-5`) with an argparse usage error (`--seed x`), a horizon
  of 1000.0000005 from `t0` -1000 on `simulate`, `recurse` and `noether`,
  `horizon` 1e15 on the same three, `samples` 10**15 on `check-identity`
  and `noether`, the reverse `transform` of `1e308*p^2 + p*pm + q*qm`,
  whose sampled coefficient is inf, `recurse` without a history or without
  a horizon, a history without `p` on `simulate`, `recurse` and `noether`,
  and the README config with a second model section (`hamiltonian`) and
  with all three on `transform`, `simulate` and `noether`.

Every run records its exit code (a raised exception counts as exit 1, with
its type and message, and a `SystemExit` as its code), standard output, standard error, the bytes of its
`--out` file, and `len(_INTERN)` and `len(_PARTIAL_CACHE)` right after it.
Paths in the runs are relative to a fresh directory, so messages that name a
file read the same on both trees.  On any difference the tool prints the
first differing runs field by field, from the first character that differs,
counts the differing runs per field (`166 of 166 runs differ (partial:
166)`), names every differing run and exits 1; otherwise it exits 0.  Either
way it prints one sha256 over the runs that are equal and both trees' cache
counts after the last run.  Pick a `--start` no earlier run has used, so the
seeds were not the ones developed against.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("exit", "stdout", "stderr", "out", "intern", "partial")
MODELS = 40  # random identity models
README_SEEDS = 5
SHOWN = 5  # differing runs printed in full


FIVE_GENERATORS = [
    {"name": "sin", "eta": "sin(t)", "nu": "cos(t)"},
    {"name": "cos", "eta": "cos(t)", "nu": "-sin(t)"},
    {"name": "time", "xi": "1"},
    {"name": "scale", "eta": "q", "nu": "p"},
    {"name": "rotate", "eta": "p", "nu": "-q"},
]


def _without_horizon(config: dict) -> dict:
    """`config` with no end time: `noether` then monitors no drift."""
    return {k: v for k, v in config.items() if k != "horizon"}


def _fit_configs(readme: dict) -> list[tuple[str, dict]]:
    """(name, config) of `noether` runs whose fits take every solver path: the
    normal equations, gelsd on a rank-deficient design, and sampling that
    overflows (with no horizon, as a drift trajectory would overflow first)."""
    hamiltonian = {k: v for k, v in readme.items() if k != "lagrangian"}
    return [
        ("readme", readme),
        ("five", dict(readme, generators=FIVE_GENERATORS)),
        ("degenerate", dict(readme, generators=FIVE_GENERATORS,
                            lagrangian={"alpha": 1, "beta": 1, "gamma": 1, "phi": "(q+qm)^2/2"})),
        ("cubic", dict(hamiltonian, generators=FIVE_GENERATORS,
                       hamiltonian={"H": "p*pm + q*qm + q^3/3", "alphas": [1, 0, 0, 1]})),
        ("exp-overflow", dict(_without_horizon(hamiltonian),
                              hamiltonian={"H": "exp(200*q*p) + p*pm + q*qm", "alphas": [1, 0, 0, 1]})),
    ]


def _families(readme: dict) -> list[tuple[str, dict, list[str]]]:
    """Configs whose coefficient arithmetic overflows or underflows a double, and the commands they reach."""
    steps = ["transform", "simulate", "noether", "check-identity", "recurse"]
    base = {k: v for k, v in readme.items() if k != "lagrangian"}
    base.update(horizon=2, steps_per_delay=16)
    return [
        ("beta-1e200", dict(base, lagrangian=dict(readme["lagrangian"], beta=1e200)), steps),
        ("alpha-1e308", dict(base, lagrangian={"alpha": 1e308, "beta": 2, "gamma": 1, "phi": "q*qm"}),
         steps),
        ("weights-ratio-overflow",
         dict(base, hamiltonian={"H": "p*pm + q*qm", "alphas": [1e-300, 1e300, 1e300, 1e-300]}),
         ["recurse"]),
        ("tiny-1e-300", dict(base, lagrangian={"alpha": 1e-300, "beta": 1e-300, "gamma": 1e-300,
                                               "phi": "q*qm"}), steps),
        ("tiny-mixed", dict(base, lagrangian={"alpha": 1e-300, "beta": 5e-324, "gamma": 1e-300,
                                              "phi": "q*qm"}), steps),
    ]


def _transforms(readme: dict) -> list[tuple[str, dict, list[str]]]:
    """(run id, config, `transform` options) of the Legendre transform runs
    that the README's `readme/transform` run leaves out."""
    base = {k: v for k, v in readme.items() if k != "lagrangian"}
    reverse = dict(base, hamiltonian={"H": "3/2*p^2 + 2*p*pm + pm^2/2 + q*qm", "alphas": [1, 0, 0, 1]})
    extended = {"alpha": "2", "beta": "1 + q^2/4", "gamma": "1/3", "lambda": "sin(q)",
                "mu": "2 + q^2", "phi": "q*qm"}
    runs = [("reverse/transform", reverse, []),
            ("extended/transform", dict(base, extended_lagrangian=extended), [])]
    runs += [(f"{name}/transform-alpha1-{scale}", config, ["--alpha1", scale])
             for name, config in (("readme", readme), ("reverse", reverse))
             for scale in ("0.5", "3", "1e-135")]
    # (alpha1/beta)^2 underflows to 0 on the way to the representable 1e-300*alpha
    underflow = (
        ("forward", {"lagrangian": {"alpha": 1e300, "beta": 1e30, "gamma": 0, "phi": "q*qm"}}),
        ("reverse", {"hamiltonian": {"H": "1e300/2*p^2 + 1e30*p*pm + q*qm", "alphas": [1, 0, 0, 1]}}),
    )
    runs += [(f"underflow-{name}/transform-alpha1-1e-135", dict(base, **model), ["--alpha1", "1e-135"])
             for name, model in underflow]
    return runs


def _input_families(readme: dict) -> list[tuple[str, dict | None, list[str]]]:
    """(run id, config, argv) of the inputs that a generator's potentials,
    deep nesting, negative flag values in exponent form, the grid rule,
    allocation failures and a non-finite coefficient give: last, as a parent
    that fails on them may build other nodes first."""
    base = {k: v for k, v in readme.items() if k != "lagrangian"}
    base.update(horizon=2, steps_per_delay=16)

    def hamiltonian(h: str, **generator) -> dict:
        generators = [dict({"name": "X", "eta": "sin(t)", "nu": "cos(t)"}, **generator)]
        return dict(base, hamiltonian={"H": h, "alphas": [1, 0, 0, 1]}, generators=generators)

    # an argparse usage error builds no node on either tree, so it runs first
    runs = [("flags/transform-seed-x", readme, ["transform", "--seed", "x"])]
    runs += [(f"potential-{key}-{value}/{command}", config(hamiltonian("p*pm + q*qm", **{key: value})),
              [command])
             for key, value in (("V", "qdd"), ("V", "pddp*q"), ("W", "qp"))
             for command, config in (("noether", _without_horizon), ("transform", dict))]
    deep = {"sin-250": "sin(" * 250 + "q" + ")" * 250, "parentheses-250": "(" * 250 + "q" + ")" * 250,
            "divisions-250": "q" + "/q" * 250, "minus-2000": "-" * 2000 + "q"}
    runs += [(f"nesting-{name}/transform", hamiltonian(f"p*pm + {h}"), ["transform"])
             for name, h in deep.items()]
    runs += [
        ("flags/transform-alpha1--1e-135", readme, ["transform", "--alpha1", "-1e-135"]),
        ("flags/compare-max-diff--1e-5", None,
         ["compare", "--a", "ham.csv", "--b", "rec.csv", "--max-diff", "-1e-5"]),
    ]
    # the grid rule measured from t0, arrays numpy cannot allocate, and a
    # sampled reverse-transform coefficient that is not a finite double
    edge = dict(readme, t0=-1000, horizon=1000.0000005, steps_per_delay=8)
    runs += [(f"t0-edge/{command}", edge, [command]) for command in ("simulate", "recurse", "noether")]
    runs += [(f"horizon-1e15/{command}", dict(readme, horizon=1e15, steps_per_delay=8), [command])
             for command in ("simulate", "recurse", "noether")]
    runs += [(f"samples-1e15/{command}", dict(readme, samples=10**15), [command])
             for command in ("check-identity", "noether")]
    runs.append(("reverse-inf-coefficient/transform",
                 dict(base, hamiltonian={"H": "1e308*p^2 + p*pm + q*qm", "alphas": [1, 0, 0, 1]}),
                 ["transform"]))
    # a run's history and end time, a history's momentum, and the one model a config names
    runs += [("no-history/recurse", {k: v for k, v in readme.items() if k != "history"}, ["recurse"]),
             ("no-horizon/recurse", _without_horizon(readme), ["recurse"])]
    q_only = dict(readme, history={"q": "sin(t)"}, horizon=2, steps_per_delay=16)
    runs += [(f"no-momentum/{command}", q_only, [command]) for command in ("simulate", "recurse", "noether")]
    extended = {"alpha": "2", "beta": "1", "gamma": "1/3", "lambda": "q", "mu": "2", "phi": "q*qm"}
    two = dict(readme, hamiltonian={"H": "2*p*pm + q*qm", "alphas": [1, 0, 0, 1]})
    three = dict(two, extended_lagrangian=extended)
    runs += [(f"{name}/{command}", config, [command])
             for name, config in (("two-models", two), ("three-models", three))
             for command in ("transform", "simulate", "noether")]
    return runs


def _matrix(start: int) -> list[tuple[str, dict | None, list[str]]]:
    """(run id, config or None, argv without `--config`) in run order."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import README_CONFIG, random_identity_model

    rng = random.Random(start)
    runs: list[tuple[str, dict | None, list[str]]] = []
    for k in range(MODELS):
        model = random_identity_model(rng)
        runs.append((f"model-{k}/check-identity", model, ["check-identity"]))
        runs.append((f"model-{k}/noether", model, ["noether"]))
    for name, config in _fit_configs(README_CONFIG):
        for seed in range(start, start + README_SEEDS):
            runs.append((f"{name}/noether-seed-{seed}", config, ["noether", "--seed", str(seed)]))
    runs += [
        ("readme/simulate", README_CONFIG, ["simulate", "--out", "ham.csv"]),
        ("readme/simulate-lagrangian", README_CONFIG,
         ["simulate", "--formulation", "lagrangian", "--out", "lag.csv"]),
        ("readme/recurse", README_CONFIG, ["recurse", "--out", "rec.csv"]),
        ("readme/compare", None, ["compare", "--a", "ham.csv", "--b", "rec.csv"]),
        ("readme/transform", README_CONFIG, ["transform"]),
        ("sources", runs[0][1], ["check-identity"]),
        ("interval-sources", README_CONFIG, ["simulate"]),
    ]
    for name, config, commands in _families(README_CONFIG):
        runs += [(f"{name}/{command}", config, [command]) for command in commands]
    runs.append(("readme/check-identity-classical", README_CONFIG, ["check-identity", "--classical"]))
    # last, as the `_INTERN` counts of later runs would differ with theirs
    runs += [(name, config, ["transform", *options]) for name, config, options in _transforms(README_CONFIG)]
    runs += _input_families(README_CONFIG)
    return runs


def _sources(argv: list[str]) -> str:
    """sha256 lines of the kernel source of the fit dictionaries and of the
    residuals that the `check-identity` run `argv` checks."""
    from delayham import noether
    from delayham import expr as ex

    with mock.patch.object(ex, "zero_checks", wraps=ex.zero_checks) as spy:
        _run(argv)
    residuals = spy.call_args.args[0]
    lines = []
    for name, roots, with_magnitude in (
        ("V", sum(noether._v_dictionary(), ()), False),
        ("W", sum(noether._w_dictionary(), ()), False),
        (f"residuals[{len(residuals)}]", tuple(residuals), True),
    ):
        digest = hashlib.sha256(ex._many_source(roots, with_magnitude).encode()).hexdigest()
        lines.append(f"{name} {digest}\n")
    return "".join(lines)


def _interval_sources(argv: list[str]) -> str:
    """sha256 lines of the generated interval step source of each
    formulation, as the `simulate` run `argv` hands it to `compiled_source`."""
    from delayham import expr as ex

    with mock.patch.object(ex, "compiled_source", wraps=ex.compiled_source) as spy:
        for formulation in ("hamiltonian", "lagrangian"):
            _run([*argv, "--formulation", formulation])
    lines = []
    for call in spy.call_args_list:
        key, source = call.args[:2]
        if key[-1] in ("hamiltonian", "elsgolts"):
            lines.append(f"interval[{key[-1]}] {hashlib.sha256(source().encode()).hexdigest()}\n")
    return "".join(lines)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` in this process: exit code, stdout, stderr."""
    from delayham import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught exception exits 1 with a traceback
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        except SystemExit as exc:  # a parent whose argparse ends the process
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SPIES = {"sources": _sources, "interval-sources": _interval_sources}


def worker(args) -> int:
    """Run the matrix in this process on the tree `args.worker` (its `src` on
    `PYTHONPATH`) and write the records to `result.json`; exit 2 if
    `delayham` was imported from anywhere else."""
    tree = Path(args.worker)
    from delayham import expr as ex

    if Path(ex.__file__).resolve().parent != tree / "src" / "delayham":
        print(f"parity: imported delayham from {ex.__file__}, not from {tree}", file=sys.stderr)
        return 2
    records = []
    runs = _matrix(args.start)
    for run_id, config, argv in runs:
        if config is not None:
            Path("config.json").write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
            argv = [argv[0], "--config", "config.json", *argv[1:]]
        if "--out" not in argv:
            argv = [*argv, "--out", "out"]
        target = Path(argv[argv.index("--out") + 1])
        target.unlink(missing_ok=True)
        if run_id in SPIES:
            code, stdout, stderr = 0, SPIES[run_id](argv), ""
        else:
            code, stdout, stderr = _run(argv)
        records.append({
            "run": run_id,
            "exit": code,
            "stdout": stdout,
            "stderr": stderr,
            "out": target.read_text(encoding="utf-8") if target.exists() else None,
            "intern": len(ex._INTERN),
            "partial": len(ex._PARTIAL_CACHE),
        })
    Path("result.json").write_text(json.dumps({"module": ex.__file__, "runs": records}), encoding="utf-8")
    return 0


def _first_difference(a, b) -> str:
    """Where two field values first differ, with up to 60 characters of each from there."""
    if isinstance(a, str) and isinstance(b, str):
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"at char {k}: {a[k:k + 60]!r} vs {b[k:k + 60]!r}"
    return f"{a!r:.60} vs {b!r:.60}"


def _spawn(tree: Path, args, work: Path) -> subprocess.Popen:
    """A worker process running the matrix on `tree` in the fresh directory `work`."""
    work.mkdir()
    tree = tree.resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
            "--start", str(args.start)]
    return subprocess.Popen(argv, cwd=work, env=env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--start", type=int, default=1000, help="first seed of the matrix")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)
    if args.parent is None:
        parser.error("--parent is required")
    trees = (args.parent, ROOT)
    for tree in trees:
        if not (tree / "src" / "delayham").is_dir():
            parser.error(f"{tree} holds no src/delayham")
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "parent", Path(tmp) / "tree"]
        procs = [_spawn(tree, args, work) for tree, work in zip(trees, works)]
        if [p.wait() for p in procs] != [0, 0]:
            print("parity: a worker failed", file=sys.stderr)
            return 2
        results = [json.loads((work / "result.json").read_text(encoding="utf-8")) for work in works]
    for tree, result in zip(trees, results):
        print(f"{tree}: {len(result['runs'])} runs, delayham from {result['module']}")
    differing = [(a, b) for a, b in zip(*(r["runs"] for r in results)) if a != b]
    for a, b in differing[:SHOWN]:
        print(f"DIFF {a['run']}:")
        for field in FIELDS:
            if a[field] != b[field]:
                print(f"  {field}: {_first_difference(a[field], b[field])}")
    if differing:
        per_field = ", ".join(f"{field}: {n}" for field in FIELDS
                              if (n := sum(a[field] != b[field] for a, b in differing)))
        print(f"parity: {len(differing)} of {len(results[0]['runs'])} runs differ ({per_field}): "
              + ", ".join(a["run"] for a, _ in differing))
    equal = [a for a, b in zip(*(r["runs"] for r in results)) if a == b]
    digest = hashlib.sha256(json.dumps(equal, sort_keys=True).encode()).hexdigest()
    last = [r["runs"][-1] for r in results]
    print(f"parity: {'all ' * (not differing)}{len(equal)} runs equal; sha256 {digest} over them; "
          f"_INTERN {last[0]['intern']} -> {last[1]['intern']}, "
          f"_PARTIAL_CACHE {last[0]['partial']} -> {last[1]['partial']} (parent -> tree, after the last run)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
