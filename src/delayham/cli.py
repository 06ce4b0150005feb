"""Batch front door: transform, simulate, noether, recurse, compare, check-identity.

Configuration is a single JSON document; commands read it, run the library,
and emit JSON reports or CSV trajectories.  Outputs are deterministic for a
fixed config and seed.  Exit codes: 0 success, 2 configuration error,
3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Any

from . import expr as ex
from . import legendre, noether, recursion, solver
from .classical import ClassicalHamiltonian, classical_identity_residual
from .expr import Expr, parse, to_source
from .model import DelayHamiltonian, Generator, QuadraticLagrangian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"config error at {pointer}: {message}")
        self.pointer = pointer


def _object(value: Any, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(pointer, ("top level " if pointer == "/" else "") + "must be an object")
    return value


def _expression(value: Any, pointer: str) -> Expr:
    if not isinstance(value, str):
        raise ConfigError(pointer, "expected an expression string")
    try:
        return parse(value)
    except ex.ExprError as err:  # a parse error, or a constant fold such as q/0 or 0^(-1)
        raise ConfigError(pointer, str(err)) from None
    except OverflowError:
        raise ConfigError(pointer, "a constant overflows the double range") from None


def _potential(value: Any, pointer: str, key: str) -> Expr:
    try:
        return noether.check_potential(key, _expression(value, pointer))
    except ValueError as err:
        raise ConfigError(pointer, str(err)) from None


def _number(value: Any, pointer: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, "expected a number")
    # JSON reads Infinity and NaN, and an integer can lie beyond any float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(pointer, "expected a finite number")
    if positive and not value > 0:
        raise ConfigError(pointer, "must be positive")
    return value


def _integer(value: Any, pointer: str, minimum: int, wording: str,
             maximum: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(pointer, f"must be {wording}")
    if value > maximum:
        raise ConfigError(pointer, f"must be at most {maximum}")
    return value


def _alphas(value: Any, pointer: str) -> tuple:
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(pointer, "must be a list of four numbers")
    return tuple(_number(a, f"{pointer}/{i}") for i, a in enumerate(value))


def _build(node: Any, pointer: str, make, rows):
    """Check each (key, value when absent, check) row of the object `node`; return
    the values, or `make(*values)` with its ValueError reported at `pointer`."""
    node = _object(node, pointer)
    values = [
        check(node[key], f"{pointer.rstrip('/')}/{key}") if key in node else absent
        for key, absent, check in rows
    ]
    try:
        return make(*values) if make else values
    except ValueError as err:
        raise ConfigError(pointer, str(err)) from None


def _any(value: Any, pointer: str) -> Any:
    return value


def _generator(name: Any, xi: Expr, eta: Expr, nu: Expr, v: Expr | None, w: Expr | None):
    return str(name), Generator(xi, eta, nu), v, w


def _generators(value: Any, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, "must be a list")
    return [
        _build(node, f"{pointer}/{i}", _generator, (("name", f"X{i + 1}", _any), *_GENERATOR))
        for i, node in enumerate(value)
    ]


# One row per key: (key, value when absent, check).  A section's rows follow
# the arguments of the constructor that builds it.
_SCALARS = (
    ("tau", 1.0, partial(_number, positive=True)),
    ("seed", 0, partial(_integer, minimum=0, wording="a non-negative integer")),
    ("tol", 1e-9, partial(_number, positive=True)),
    # sample k of a seed exists for k < 2**64 // 20 (`expr.random_jets`)
    ("samples", 100, partial(_integer, minimum=1, wording="a positive integer",
                             maximum=ex._SAMPLES_END)),
    ("steps_per_delay", 64, partial(_integer, minimum=8, wording="an integer >= 8")),
    ("horizon", None, lambda value, pointer: None if value is None else _number(value, pointer)),
    ("t0", 0.0, _number),
)
_MODELS = (
    ("lagrangian", None, partial(_build, make=QuadraticLagrangian, rows=(
        ("alpha", 0, _number),
        ("beta", 1, _number),
        ("gamma", 0, _number),
        ("phi", ex.ZERO, _expression),
    ))),
    ("hamiltonian", None, partial(_build, make=DelayHamiltonian, rows=(
        ("H", ex.ZERO, _expression),
        ("alphas", (1, 0, 0, 1), _alphas),
    ))),
    ("extended_lagrangian", None, partial(_build, make=legendre.ExtendedLagrangian, rows=(
        ("alpha", ex.ZERO, _expression),
        ("beta", ex.ONE, _expression),
        ("gamma", ex.ZERO, _expression),
        ("lambda", ex.ZERO, _expression),
        ("mu", ex.ONE, _expression),
        ("phi", ex.ZERO, _expression),
    ))),
)
_HISTORY = (("q", ex.ZERO, _expression), ("p", None, _expression))
_GENERATOR = (
    ("xi", ex.ZERO, _expression),
    ("eta", ex.ZERO, _expression),
    ("nu", ex.ZERO, _expression),
    ("V", None, partial(_potential, key="V")),
    ("W", None, partial(_potential, key="W")),
)
# numeric command-line flags that are no config key, checked the same way
_FLAGS = (
    ("alpha1", _number),
    ("max_diff", _number),
    ("pairs", partial(_integer, minimum=1, wording="a positive integer")),
)


@dataclass
class RunConfig:
    seed: int
    tol: float
    samples: int
    steps_per_delay: int
    t_end: float | None  # t0 + horizon; None without a horizon
    model: QuadraticLagrangian | DelayHamiltonian | legendre.ExtendedLagrangian | None
    history: solver.History | None
    generators: list[tuple[str, Generator, Expr | None, Expr | None]]

    # the model when it is of that kind, else None
    @property
    def lagrangian(self) -> QuadraticLagrangian | None:
        return self.model if isinstance(self.model, QuadraticLagrangian) else None

    @property
    def hamiltonian(self) -> DelayHamiltonian | None:
        return self.model if isinstance(self.model, DelayHamiltonian) else None


def load_config(raw: dict) -> RunConfig:
    tau, seed, tol, samples, steps_per_delay, horizon, t0 = _build(raw, "/", None, _SCALARS)
    t_end = None if horizon is None else t0 + horizon
    if t_end is not None:
        try:  # the solver's grid rule, on the t_end that every command passes
            solver.whole_delays(t0, t_end, tau, steps_per_delay)
        except ValueError as err:
            raise ConfigError("/horizon", str(err)) from None
    check_history = partial(_build, make=partial(solver.History, t0, tau), rows=_HISTORY)
    sections = (*_MODELS, ("history", None, check_history), ("generators", [], _generators))
    *models, history, generators = _build(raw, "/", None, sections)
    named = [key for (key, _, _), model in zip(_MODELS, models) if model is not None]
    if len(named) > 1:
        raise ConfigError("/", "more than one model section: " + ", ".join(named))
    model = next((m for m in models if m is not None), None)
    return RunConfig(seed, tol, samples, steps_per_delay, t_end, model, history, generators)


def _resolved_hamiltonian(cfg: RunConfig) -> DelayHamiltonian:
    if cfg.hamiltonian is not None:
        return cfg.hamiltonian
    if cfg.lagrangian is not None:
        return legendre.legendre_forward(cfg.lagrangian).hamiltonian
    raise ConfigError("/", "needs a 'hamiltonian' or 'lagrangian' section")


def _history_and_end(cfg: RunConfig, command: str) -> tuple[solver.History, float]:
    """The history and end time that `simulate` and `recurse` integrate from and to."""
    if cfg.history is None:
        raise ConfigError("/history", f"{command} needs a history section")
    if cfg.t_end is None:
        raise ConfigError("/horizon", f"{command} needs a horizon")
    return cfg.history, cfg.t_end


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe(e: Expr | None) -> str | None:
    return None if e is None else to_source(e)


def _drift_entry(drift: noether.DriftReport | None) -> dict | None:
    """One `noether` drift entry, or None when that integral was not monitored."""
    if drift is None:
        return None
    return {"max": drift.max_drift, "t_at_max": drift.t_at_max, "reference": drift.reference}


def _check_entry(name: str, chk: ex.ZeroCheck) -> dict:
    """One `check-identity` row; a non-finite worst ratio is written as null."""
    worst = chk.worst if math.isfinite(chk.worst) else None
    return {"name": name, "ok": chk.ok, "worst": worst}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_transform(cfg: RunConfig, args) -> int:
    if isinstance(cfg.model, legendre.ExtendedLagrangian):
        res = legendre.legendre_extended(cfg.model)
        payload = {
            "H": to_source(res.h),
            "alphas": [to_source(a) for a in res.alphas],
            "velocity_map": {
                "qd": to_source(res.velocity_map[0]),
                "qdm": to_source(res.velocity_map[1]),
            },
        }
    elif cfg.lagrangian is not None:
        res = legendre.legendre_forward(cfg.lagrangian, args.alpha1)
        payload = {
            "H": to_source(res.hamiltonian.h),
            "alphas": [float(a) for a in res.hamiltonian.alphas],
            "degenerate": res.degenerate,
            "momentum_map": (
                {"merged_relation": to_source(res.merged_relation)}
                if res.degenerate
                else {
                    "p": to_source(res.momentum_map[0]),
                    "pm": to_source(res.momentum_map[1]),
                    "qd": to_source(res.inverse_map[0]),
                    "qdm": to_source(res.inverse_map[1]),
                }
            ),
        }
    elif cfg.hamiltonian is not None:
        quad = _as_quadratic(cfg.hamiltonian)
        lag, alphas, vel = legendre.legendre_reverse(quad, args.alpha1)
        payload = {
            "L": to_source(lag.expr()),
            "lagrangian": {
                "alpha": float(lag.alpha),
                "beta": float(lag.beta),
                "gamma": float(lag.gamma),
                "phi": to_source(lag.phi),
            },
            "alphas": [float(a) for a in alphas],
            "velocity_map": {"qd": to_source(vel[0]), "qdm": to_source(vel[1])},
        }
    else:
        raise ConfigError("/", "transform needs a model section")
    _emit(payload, args.out)
    return EXIT_OK


def _as_quadratic(h: DelayHamiltonian):
    from .model import QuadraticHamiltonian

    expr_h = h.h
    second = [ex.partial(ex.partial(expr_h, x), y) for x, y in (("p", "p"), ("p", "pm"), ("pm", "pm"))]
    a, b, c = ex.evaluate_many(second, ex.random_jets(1, 1))[:, 0].tolist()
    not_quadratic = "reverse transform needs a quadratic-in-momenta Hamiltonian"
    try:
        phi = ex.substitute(expr_h, {"p": ex.ZERO, "pm": ex.ZERO})
    except (ex.ExprError, OverflowError):  # e.g. q/p folds to a division by zero
        raise ConfigError("/hamiltonian/H", not_quadratic) from None
    try:
        quad = QuadraticHamiltonian(a, b, c, phi)
    except ValueError as err:
        raise ConfigError("/hamiltonian/H", f"reverse transform: {err}") from None
    gap = ex.sub(expr_h, quad.expr())
    if not ex.is_zero(gap, samples=40, tol=1e-9, seed=2).ok:
        raise ConfigError("/hamiltonian/H", not_quadratic)
    return quad


def cmd_simulate(cfg: RunConfig, args) -> int:
    history, t_end = _history_and_end(cfg, "simulate")
    if args.formulation == "lagrangian":
        if cfg.lagrangian is None:
            raise ConfigError("/lagrangian", "lagrangian formulation requested")
        traj = solver.step_elsgolts(cfg.lagrangian, history, t_end, cfg.steps_per_delay)
        residuals = None
    else:
        ham = _resolved_hamiltonian(cfg)
        traj = solver.step_hamiltonian(ham, history, t_end, cfg.steps_per_delay)
        residuals = solver.residual_report(traj, ham)
    solver.write_csv(traj, args.out or sys.stdout, residuals)
    return EXIT_OK


def cmd_noether(cfg: RunConfig, args) -> int:
    ham = _resolved_hamiltonian(cfg)
    traj = None
    if cfg.history is not None and cfg.t_end is not None and ham.solvable:
        traj = solver.step_hamiltonian(ham, cfg.history, cfg.t_end, cfg.steps_per_delay)
    reports = []
    for rep in noether.analyze_generators(
        ham, cfg.generators, traj=traj, samples=cfg.samples, tol=cfg.tol, seed=cfg.seed
    ):
        reports.append(
            {
                "name": rep.name,
                "classification": rep.invariance.classification.value,
                "xi_admissible": rep.xi_admissible,
                "omega": to_source(rep.invariance.omega),
                "V": _maybe(rep.invariance.v),
                "W": _maybe(rep.invariance.w),
                "C": to_source(rep.parts.c),
                "P": to_source(rep.parts.p_quantity),
                "I": _maybe(rep.parts.differential_integral),
                "J": _maybe(rep.parts.difference_integral),
                "identity_ok": rep.identity.ok,
                "notes": rep.notes,
                "drift": {
                    "I": _drift_entry(rep.drift_differential),
                    "J": _drift_entry(rep.drift_difference),
                },
            }
        )
    _emit({"generators": reports}, args.out)
    return EXIT_OK if all(r["identity_ok"] for r in reports) else EXIT_VERIFY


def cmd_recurse(cfg: RunConfig, args) -> int:
    history, t_end = _history_and_end(cfg, "recurse")
    ham = _resolved_hamiltonian(cfg)
    a1, a2, a3, a4 = (float(a) for a in ham.alphas)
    if a1 == 0 or a1 != a4:
        raise ConfigError("/hamiltonian/alphas", "sum-form recursion needs a1 = a4 != 0")
    ratio = (a2 + a3) / a1  # inf when the sum or the quotient overflows
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-12 or round(ratio) not in (0, 2):
        raise ConfigError(
            "/hamiltonian/alphas",
            "only the middle coefficients 0 and 2 are supported",
        )
    rel = recursion.relation_from_history(history, int(round(ratio)))
    traj = recursion.recurse(rel, history, t_end, cfg.steps_per_delay)
    solver.write_csv(traj, args.out or sys.stdout)
    return EXIT_OK


def _unreadable(err: OSError, path: str, pointer: str) -> ConfigError:
    if isinstance(err, FileNotFoundError):
        return ConfigError(pointer, f"file not found: {path}")
    return ConfigError(pointer, f"cannot read {path}: {err.strerror}")


def _read_trajectory(path: str, flag: str) -> solver.CsvTrajectory:
    try:
        return solver.read_csv(path)
    except OSError as err:
        raise _unreadable(err, path, flag) from None


def cmd_compare(cfg: None, args) -> int:
    a = _read_trajectory(args.a, "--a")
    b = _read_trajectory(args.b, "--b")
    report = recursion.compare(a, b)
    payload = {
        name: {"max": stats.max_abs, "l2": stats.l2, "t_at_max": stats.t_at_max}
        for name, stats in report.components.items()
    }
    _emit({"components": payload}, args.out)
    if args.max_diff is not None and report.max_component() > args.max_diff:
        return EXIT_VERIFY
    return EXIT_OK


def identity_residuals(cfg: RunConfig) -> list[tuple[str, Expr]]:
    """(check name, residual) for every identity `check-identity` checks, in its order."""
    ham = _resolved_hamiltonian(cfg)
    residuals = []
    for name, gen, _, _ in cfg.generators:
        residuals.append((f"identity-{name}", noether.hamiltonian_identity_residual(ham, gen)))
        for key, residual in noether.variational_identity_residuals(ham, gen).items():
            residuals.append((f"variation-{key}-{name}", residual))
    return residuals


def cmd_check_identity(cfg: RunConfig, args) -> int:
    checks = []
    if args.classical:
        if cfg.samples + args.pairs > ex._SAMPLES_END:
            raise ConfigError("--pairs", f"must be at most {ex._SAMPLES_END - cfg.samples} with "
                              f"{cfg.samples} samples")
        # pair k's coefficients: six free slots of a jet that no check reads
        # (checks read samples below cfg.samples), scaled from [-2, 2] to [-1.5, 1.5]
        draws = 0.75 * ex.random_jets(cfg.seed, args.pairs, start=cfg.samples)[ex._FREE_SLOTS[:6]]
        for k in range(args.pairs):
            coeffs = draws[:, k]
            h_expr = (
                ex.const(float(coeffs[0])) * ex.p**2
                + ex.const(float(coeffs[1])) * ex.q**2
                + ex.const(float(coeffs[2])) * ex.p * ex.q
                + ex.const(float(coeffs[3])) * ex.sin(ex.t) * ex.q
            )
            gen = Generator(
                ex.const(float(coeffs[4])) * ex.t,
                ex.const(float(coeffs[5])) * ex.q + ex.sin(ex.t),
                ex.const(float(coeffs[0])) * ex.p,
            )
            res = classical_identity_residual(ClassicalHamiltonian(h_expr), gen)
            chk = ex.is_zero(res, samples=cfg.samples, tol=cfg.tol, seed=cfg.seed + k)
            checks.append(_check_entry(f"classical-identity-{k}", chk))
    else:
        # every residual of every generator, checked on the same jets in one kernel
        residuals = identity_residuals(cfg)
        results = ex.zero_checks(
            [residual for _, residual in residuals], ex.random_jets(cfg.seed, cfg.samples), cfg.tol
        )
        checks = [_check_entry(name, chk) for (name, _), chk in zip(residuals, results)]
    _emit({"checks": checks}, args.out)
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="delayham",
        description="Hamiltonian structure, symmetries, and first integrals "
        "for delay differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, config=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p)  # which reports an unrecognized argument, with its own usage
        if config:
            p.add_argument("--config", help="JSON configuration file")
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = command("transform", "Legendre transform of the configured model")
    p.add_argument("--alpha1", type=float, default=None, help="free scale of the pairing weights")

    p = command("simulate", "method-of-steps integration")
    p.add_argument(
        "--formulation",
        choices=["hamiltonian", "lagrangian"],
        default="hamiltonian",
    )

    command("noether", "invariance analysis and first integrals")
    command("recurse", "integration-free propagation")

    p = command("compare", "compare two trajectory CSV files", config=False)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-diff", type=float, default=None, dest="max_diff")

    p = command("check-identity", "off-shell identity suites")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--pairs", type=int, default=10)

    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _object(json.load(fh), "/")
    except OSError as err:
        raise _unreadable(err, path, "/") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError("/", f"invalid JSON: {err}") from None


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _negative_values_joined(argv: list[str]) -> list[str]:
    """`argv` with `--flag VALUE` written `--flag=VALUE` wherever VALUE starts
    with '-' and reads as a float: argparse takes such a token for an option
    unless it is a plain negative number, so `--alpha1 -1e-135` would lose
    its value."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _reads_as_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  First the young
    generations are collected, which frees the command's cyclic garbage,
    and what survives is frozen: the interned nodes, derived caches and
    compiled kernels live as long as the process, so no later collection
    walks them again.  A command that raises skips both steps."""
    code = _command(argv)
    gc.collect(1)
    gc.freeze()
    return code


def _command(argv: list[str] | None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(
            _negative_values_joined(sys.argv[1:] if argv is None else argv))
        if unknown:
            args.parser.error("unrecognized arguments: " + " ".join(unknown))
    except SystemExit as err:  # argparse's usage error (2), or --help (0)
        return err.code
    handlers = {
        "transform": cmd_transform,
        "simulate": cmd_simulate,
        "noether": cmd_noether,
        "recurse": cmd_recurse,
        "compare": cmd_compare,
        "check-identity": cmd_check_identity,
    }
    try:
        cfg = None  # compare reads no config
        if args.command != "compare":
            raw = _load_json(args.config) if args.config else {}
            if args.seed is not None:
                raw["seed"] = args.seed
            cfg = load_config(raw)
        for dest, check in _FLAGS:
            if getattr(args, dest, None) is not None:
                check(getattr(args, dest), "--" + dest.replace("_", "-"))
        folder = os.path.dirname(args.out or "")
        if folder and not os.path.isdir(folder):
            raise ConfigError("--out", f"directory not found: {folder}")
        if args.out and os.path.isdir(args.out):
            raise ConfigError("--out", f"is a directory: {args.out}")
        return handlers[args.command](cfg, args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_CONFIG
    except ex.EvalError as err:
        where = "" if err.jet is None else f" at {err.jet!r}"
        print(f"numeric failure: {err}{where}", file=sys.stderr)
        return EXIT_NUMERIC
    except (solver.SolverError, recursion.RecursionError_, legendre.LegendreError,
            noether.DriftError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:  # e.g. a grid or a block of sampled jets numpy cannot allocate
        print(f"numeric failure: out of memory: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
