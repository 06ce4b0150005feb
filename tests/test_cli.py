import builtins
import contextlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delayham import cli, noether, solver
from delayham import expr as E
from delayham import model as M

OSC_CONFIG = {
    "tau": 1.0,
    "lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*qm"},
    "history": {"q": "sin(t)", "p": "cos(t)"},
    "generators": [
        {"name": "X1", "eta": "sin(t)", "nu": "cos(t)"},
        {"name": "X2", "eta": "cos(t)", "nu": "-sin(t)"},
        {"name": "X3", "xi": "1"},
        {"name": "X4", "eta": "q", "nu": "p"},
        {"name": "X5", "eta": "p", "nu": "-q"},
    ],
    "steps_per_delay": 32,
    "horizon": 4,
    "seed": 20260810,
}


@pytest.fixture()
def osc_config(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(OSC_CONFIG))
    return str(path)


@pytest.fixture()
def osc_config_without_horizon(tmp_path):
    """The oscillator config with no end time, so `noether` monitors no drift."""
    path = tmp_path / "osc-no-horizon.json"
    path.write_text(json.dumps({k: v for k, v in OSC_CONFIG.items() if k != "horizon"}))
    return str(path)


def test_transform_golden(osc_config, capsys):
    rc = cli.main(["transform", "--config", osc_config])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["H"] == "p*pm + q*qm"
    assert payload["alphas"] == [1.0, 0.0, 0.0, 1.0]
    assert payload["degenerate"] is False
    assert payload["momentum_map"]["p"] == "qd"


def test_transform_degenerate(tmp_path, capsys):
    cfg = {"tau": 1.0, "lagrangian": {"alpha": 1, "beta": 1, "gamma": 1, "phi": "(q+qm)^2/2"}}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["transform", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["H"] == "(p + pm)^2/2 + (q + qm)^2/2"
    assert payload["degenerate"] is True
    assert "merged_relation" in payload["momentum_map"]


def test_transform_reverse_from_hamiltonian(tmp_path, capsys):
    cfg = {"tau": 1.0, "hamiltonian": {"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]}}
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["transform", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"] == "qd*qdm - q*qm"


def test_noether_classifications(osc_config_without_horizon, tmp_path):
    out = tmp_path / "noether.json"
    rc = cli.main(["noether", "--config", osc_config_without_horizon, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    got = [g["classification"] for g in payload["generators"]]
    assert got == ["divergence", "divergence", "variational", "none", "divergence"]
    assert all(g["identity_ok"] for g in payload["generators"])
    assert payload["generators"][0]["I"] is not None
    assert payload["generators"][3]["I"] is None


def test_noether_with_drift(osc_config, tmp_path):
    out = tmp_path / "noether.json"
    rc = cli.main(["noether", "--config", osc_config, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    drift = payload["generators"][0]["drift"]["I"]
    assert drift is not None and drift["max"] <= 1e-5


def test_noether_empty_generator_list(tmp_path, capsys):
    cfg = {k: v for k, v in OSC_CONFIG.items() if k != "horizon"}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(cfg, generators=[])))
    rc = cli.main(["noether", "--config", str(path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"generators": []}


def test_simulate_csv_schema(osc_config, tmp_path):
    out = tmp_path / "sim.csv"
    rc = cli.main(["simulate", "--config", osc_config, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,q,p,qdot,pdot,Rp,Rq,Rt"
    assert len(lines) == 1 + (4 + 2) * 32 + 1
    cells = lines[1].split(",")
    assert len(cells) == 8
    assert float(cells[0]) == -2.0


def test_simulate_lagrangian_formulation(osc_config, tmp_path):
    out_h = tmp_path / "h.csv"
    out_l = tmp_path / "l.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(out_h)]) == 0
    assert cli.main([
        "simulate", "--config", osc_config, "--formulation", "lagrangian", "--out", str(out_l)
    ]) == 0
    from delayham.solver import read_csv

    a = read_csv(str(out_h))
    b = read_csv(str(out_l))
    assert np.max(np.abs(a.q - b.q)) <= 1e-6
    assert b.p is None


def test_recurse_and_compare(osc_config, tmp_path):
    sim = tmp_path / "sim.csv"
    rec = tmp_path / "rec.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(sim)]) == 0
    assert cli.main(["recurse", "--config", osc_config, "--out", str(rec)]) == 0
    out = tmp_path / "cmp.json"
    rc = cli.main(["compare", "--a", str(sim), "--b", str(rec), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["components"]["q"]["max"] <= 1e-5
    rc_strict = cli.main(
        ["compare", "--a", str(sim), "--b", str(rec), "--max-diff", "1e-14", "--out", str(out)]
    )
    assert rc_strict == cli.EXIT_VERIFY


def test_check_identity(osc_config, tmp_path):
    out = tmp_path / "chk.json"
    rc = cli.main(["check-identity", "--config", osc_config, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["checks"] and all(c["ok"] for c in payload["checks"])


def test_check_identity_classical(osc_config, tmp_path):
    out = tmp_path / "chk.json"
    rc = cli.main(["check-identity", "--config", osc_config, "--classical", "--pairs", "5",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["checks"]) == 5


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_check_identity_needs_a_positive_pair_count(osc_config, tmp_path, capsys, pairs):
    out = tmp_path / "chk.json"
    rc = cli.main(["check-identity", "--config", osc_config, "--classical", "--pairs", pairs,
                   "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-identity", "noether"])
def test_more_samples_than_sample_indices_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, samples=2**62)))
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at /samples: must be at most {2**64 // 20}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "samples, pairs", [(100, 2**62), (2**64 // 20, 10)], ids=["pairs-too-many", "samples-at-the-end"]
)
def test_classical_pairs_past_the_sample_indices_are_a_config_error(
    tmp_path, capsys, samples, pairs
):
    # pairs are drawn from the sample indices after the checks' own
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, samples=samples)))
    out = tmp_path / "chk.json"
    argv = ["check-identity", "--config", str(path), "--classical", "--pairs", str(pairs)]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error at --pairs: must be at most ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "recurse", "noether"])
@pytest.mark.parametrize(
    "tau, horizon, line",
    [(1e-300, 10, f"needs more than {sys.maxsize // 8} grid nodes"),
     (1e-10, 1e300, f"needs more than {sys.maxsize // 8} grid nodes"),
     (1e-10, -1e300, "must be a positive integer multiple of tau")],
    ids=["too-many-nodes", "delays-overflow", "negative-delays-overflow"],
)
def test_a_grid_beyond_one_numpy_array_is_a_config_error(tmp_path, capsys, command, tau, horizon, line):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, tau=tau, horizon=horizon)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at /horizon: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "simulate", "recurse", "noether"])
def test_a_step_count_beyond_the_float_range_is_a_config_error(tmp_path, capsys, command):
    # the node count (horizon/tau + 2) * steps_per_delay + 1 overflowed
    # converting 10**400 to a float, a traceback with exit 1
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, steps_per_delay=10**400)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    line = f"config error at /horizon: needs more than {sys.maxsize // 8} grid nodes\n"
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "recurse", "noether"])
def test_a_horizon_within_the_tolerance_of_its_span_runs_away_from_t0_0(tmp_path, command):
    # 1000.0000005 is within 1e-9*|horizon| of 1000 delays, but t0 + horizon is
    # 5e-7, so the solver's old tolerance 1e-9*|t_end| was 1e-9: this passed
    # load_config and exited 3 from the solver
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, t0=-1000, horizon=1000.0000005, steps_per_delay=8)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert out.exists()


@pytest.mark.parametrize("command", ["transform", "simulate"])
def test_a_horizon_that_ends_beyond_the_double_range_is_a_config_error(tmp_path, capsys, command):
    # JSON integers: t0 + horizon is an int past the double range, where the
    # grid would end at inf; `simulate` raised a raw OverflowError from the
    # solver's tolerance 1e-9*|t_end|, and `transform` ignored it
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, t0=17 * 10**307, horizon=10**308, tau=1e300)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error at /horizon: must end at a finite double\n"
    assert not out.exists()


@pytest.mark.parametrize("t0, horizon", [(-3e9, 3.5), (1e9, 2.5), (1e9, 0.6), (1e6, 10.0000001)])
def test_a_horizon_off_whole_delays_is_rejected_however_far_t0_is_from_0(tmp_path, capsys, t0, horizon):
    # a tolerance of 1e-9*|t_end| is wider than half a delay at |t0| 3e9 or
    # 1e9, where the solver integrated to t0 + round(horizon) instead
    hist = solver.History(t0, 1.0, E.parse("sin(t)"), E.parse("cos(t)"))
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 0, 1))
    with pytest.raises(solver.SolverError, match="integer multiple of tau"):
        solver.step_hamiltonian(ham, hist, t0 + horizon, 8)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, t0=t0, horizon=horizon, steps_per_delay=8)))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error at /horizon: must be a positive integer multiple of tau\n"


@pytest.mark.parametrize("tau, horizon", [(1e-12, 3.5e-12), (1e-9, 1.5e-9), (0.1, 0.1000000005)])
def test_a_small_tau_rounds_no_horizon_to_whole_delays(tmp_path, capsys, tau, horizon):
    # the tolerance had an absolute floor of 1e-9, so below tau 2e-9 every
    # span was whole delays: 3.5e-12 over tau 1e-12 integrated to 4e-12
    with pytest.raises(ValueError, match="integer multiple of tau"):
        solver.whole_delays(0.0, horizon, tau, 8)
    assert solver.whole_delays(0.0, 4 * tau, tau, 8) == 4
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, tau=tau, horizon=horizon, steps_per_delay=8)))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error at /horizon: must be a positive integer multiple of tau\n"


GRID_T0 = [0.0, -1000.0, 1e6, 2.5, -3e9]
GRID_TAU = [1.0, 0.5, 0.1, 3.0, 1e-300]
GRID_OFFSET = [0.0, 5e-10, -4e-10, 3e-7, -2e-6, 1e-4, 0.5]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(GRID_T0), st.sampled_from(GRID_TAU), st.integers(-1, 6),
       st.sampled_from(GRID_OFFSET), st.sampled_from([8, 9, 16]))
@example(-1000.0, 1.0, 1000, 5e-7, 8)  # horizon 1000.0000005: accepted by both
@example(1e6, 1.0, 10, 1e-7, 8)  # horizon 10.0000001: rejected by both
@example(-3e9, 1.0, 3, 0.5, 8)  # horizon 3.5: rejected by both
def test_load_config_accepts_exactly_the_horizons_the_solver_integrates(t0, tau, delays, offset, n):
    horizon = delays * tau + offset
    t_end = t0 + horizon
    hist = solver.History(t0, tau, E.parse("sin(t)"), E.parse("cos(t)"))
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 0, 1))
    try:
        traj = solver.step_hamiltonian(ham, hist, t_end, n)
    except solver.SolverError as err:
        assert str(err).startswith(f"the span from t0 {t0} to t_end {t_end} ")
        traj = None
    else:  # the grid ends where it was asked to, up to the tolerance and rounding
        assert abs(traj.t[-1] - t_end) <= 1e-8 * max(1.0, abs(horizon)) + 8 * math.ulp(t_end)
    if (t0, tau, delays, offset) == (-3e9, 1.0, 3, 0.5):
        assert traj is None
    raw = {"tau": tau, "t0": t0, "horizon": horizon, "steps_per_delay": n}
    try:
        cli.load_config(raw)
        accepted = True
    except cli.ConfigError as err:
        assert err.pointer == "/horizon"
        accepted = False
    assert accepted is (traj is not None)


@pytest.mark.parametrize(
    "command, key, value, size",
    [("simulate", "horizon", 1e15, "56.8 PiB"), ("recurse", "horizon", 1e15, "56.8 PiB"),
     ("noether", "horizon", 1e15, "56.8 PiB"), ("check-identity", "samples", 10**15, "7.11 PiB"),
     ("noether", "samples", 10**15, "7.11 PiB")],
    ids=["simulate-grid", "recurse-grid", "noether-grid", "check-identity-samples", "noether-samples"],
)
def test_an_array_numpy_cannot_allocate_is_a_numeric_failure(tmp_path, capsys, command, key, value, size):
    # each passes every config rule, and its first array has >= 1e15 elements,
    # which numpy refuses at once; this was a traceback with exit 1
    config = dict(OSC_CONFIG, steps_per_delay=8, **{key: value})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: out of memory: Unable to allocate {size} ")
    assert not out.exists()


def test_a_reverse_transform_whose_sampled_coefficient_overflows_is_a_config_error(tmp_path, capsys):
    # d2H/dp2 = 2e308 is inf as a double: `model._num` rejects the coefficient
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({"tau": 1.0, "hamiltonian": {"H": "1e308*p^2 + p*pm + q*qm"}}))
    assert cli.main(["transform", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error at /hamiltonian/H: reverse transform: coefficients must be finite doubles, got inf\n"
    )


@pytest.mark.parametrize(
    "h", ["p^2/2 + q^2/2", "p*pm + sin(t)*q", "p^3*pm + q*qm"],
    ids=["no-cross-term", "phi-reads-t", "cubic-in-p"],
)
def test_reverse_transform_outside_the_quadratic_family_is_a_config_error(tmp_path, capsys, h):
    # the first two fail the quadratic shape probe: b = 0, or phi reads t;
    # the cubic one passes it and fails the sampled check of H against it
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({"tau": 1.0, "hamiltonian": {"H": h}}))
    assert cli.main(["transform", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "/hamiltonian/H" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["p*pm + q/p", "p*pm + p^(-2)"], ids=["divides-by-p", "inverse-power-of-p"])
def test_reverse_transform_whose_momenta_cannot_be_set_to_zero_is_a_config_error(tmp_path, capsys, h):
    # setting p = pm = 0 folds to a division by zero or 0^(-2)
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({"tau": 1.0, "hamiltonian": {"H": h, "alphas": [1, 0, 0, 1]}}))
    assert cli.main(["transform", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error at /hamiltonian/H: reverse transform needs a quadratic-in-momenta Hamiltonian\n"
    )


FOLDING_FAULTS = [
    ("q/0", "division by the literal zero constant"),
    ("q/(2-2)", "division by the literal zero constant"),
    ("0^(-1)*q", "zero raised to a negative power"),
    ("1e200^2*q", "a constant overflows the double range"),
    ("10^400 + 0.5", "a constant overflows the double range"),
]


@pytest.mark.parametrize(
    "command, pointer",
    [("check-identity", "/hamiltonian/H"), ("noether", "/generators/0/eta"),
     ("simulate", "/lagrangian/phi"), ("simulate", "/history/q")],
    ids=["check-identity-H", "noether-eta", "simulate-phi", "simulate-history"],
)
@pytest.mark.parametrize("source, message", FOLDING_FAULTS, ids=[s for s, _ in FOLDING_FAULTS])
def test_constant_folding_that_fails_is_a_config_error(tmp_path, capsys, command, pointer, source, message):
    path = tmp_path / "fold.json"
    path.write_text(json.dumps(_with_value(FAULT_BASE, pointer, source)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at {pointer}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("horizon", [float("inf"), float("nan")], ids=["json-infinity", "json-nan"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, horizon):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, horizon=horizon)))  # writes Infinity / NaN
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "/horizon" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tau": -1}))
    rc = cli.main(["transform", "--config", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "/tau" in capsys.readouterr().err


def test_config_error_reports_pointer(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lagrangian": {"beta": 1, "phi": "q*undefined"}}))
    rc = cli.main(["transform", "--config", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "/lagrangian/phi" in capsys.readouterr().err


# A config with every section; each single fault below replaces the value at
# one pointer of it.  It names all three model sections, so that every key is
# parsed; a run takes one of them (`_with_models`).
FAULT_BASE = {
    "tau": 1.0,
    "seed": 1,
    "tol": 1e-9,
    "samples": 10,
    "steps_per_delay": 8,
    "horizon": 2,
    "t0": 0.0,
    "lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*qm"},
    "hamiltonian": {"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]},
    "extended_lagrangian": {
        "alpha": "2", "beta": "1", "gamma": "1/3", "lambda": "q", "mu": "2", "phi": "q*qm",
    },
    "history": {"q": "sin(t)", "p": "cos(t)"},
    "generators": [{"name": "X1", "xi": "0", "eta": "sin(t)", "nu": "cos(t)", "V": "0", "W": "0"}],
}
MODEL_KEYS = ("lagrangian", "hamiltonian", "extended_lagrangian")
NAN, INF = float("nan"), float("inf")


def _with_models(*keys):
    """FAULT_BASE with only the model sections `keys`."""
    return {k: v for k, v in FAULT_BASE.items() if k in keys or k not in MODEL_KEYS}

# (pointer, value, stderr line): a type, range, parse or constructor fault for
# each key.  The lines match the loader before it became table-driven, except
# /seed (one message for every fault, and a negative seed is now rejected) and
# a /generators value that is not a list (a traceback, or for "xy" a fault at
# /generators/0).
SINGLE_FAULTS = [
    ("/tau", "1", "/tau: expected a number"),
    ("/tau", INF, "/tau: expected a finite number"),
    ("/tau", 0, "/tau: must be positive"),
    ("/seed", 1.5, "/seed: must be a non-negative integer"),
    ("/seed", True, "/seed: must be a non-negative integer"),
    ("/seed", -1, "/seed: must be a non-negative integer"),
    ("/tol", "x", "/tol: expected a number"),
    ("/tol", NAN, "/tol: expected a finite number"),
    ("/tol", -1e-9, "/tol: must be positive"),
    ("/samples", 2.0, "/samples: must be a positive integer"),
    ("/samples", 0, "/samples: must be a positive integer"),
    ("/steps_per_delay", "8", "/steps_per_delay: must be an integer >= 8"),
    ("/steps_per_delay", 7, "/steps_per_delay: must be an integer >= 8"),
    ("/horizon", "2", "/horizon: expected a number"),
    ("/horizon", 2.5, "/horizon: must be a positive integer multiple of tau"),
    ("/horizon", 0, "/horizon: must be a positive integer multiple of tau"),
    ("/t0", "0", "/t0: expected a number"),
    ("/t0", 10**400, "/t0: expected a finite number"),
    ("/lagrangian", 5, "/lagrangian: must be an object"),
    ("/lagrangian/alpha", "0", "/lagrangian/alpha: expected a number"),
    ("/lagrangian/alpha", -INF, "/lagrangian/alpha: expected a finite number"),
    ("/lagrangian/beta", True, "/lagrangian/beta: expected a number"),
    ("/lagrangian/beta", 0, "/lagrangian: beta must be nonzero"),
    ("/lagrangian/gamma", None, "/lagrangian/gamma: expected a number"),
    ("/lagrangian/phi", 5, "/lagrangian/phi: expected an expression string"),
    ("/lagrangian/phi", "q*", "/lagrangian/phi: unexpected end of input (at offset 2)"),
    ("/lagrangian/phi", "q*p", "/lagrangian: phi must not contain: p"),
    ("/hamiltonian", [], "/hamiltonian: must be an object"),
    ("/hamiltonian/H", 5, "/hamiltonian/H: expected an expression string"),
    ("/hamiltonian/H", "p*pm +", "/hamiltonian/H: unexpected end of input (at offset 6)"),
    ("/hamiltonian/H", "qd*p", "/hamiltonian: a delay Hamiltonian must not contain: qd"),
    ("/hamiltonian/alphas", "1001", "/hamiltonian/alphas: must be a list of four numbers"),
    ("/hamiltonian/alphas", [1, 0, 1], "/hamiltonian/alphas: must be a list of four numbers"),
    ("/hamiltonian/alphas/3", "1", "/hamiltonian/alphas/3: expected a number"),
    ("/hamiltonian/alphas/0", NAN, "/hamiltonian/alphas/0: expected a finite number"),
    ("/extended_lagrangian", "x", "/extended_lagrangian: must be an object"),
    ("/extended_lagrangian/alpha", 2, "/extended_lagrangian/alpha: expected an expression string"),
    ("/extended_lagrangian/alpha", "(q", "/extended_lagrangian/alpha: expected ')' (at offset 2)"),
    ("/extended_lagrangian/alpha", "p", "/extended_lagrangian: alpha must not contain: p"),
    ("/extended_lagrangian/beta", None, "/extended_lagrangian/beta: expected an expression string"),
    ("/extended_lagrangian/beta", "1 +* q",
     "/extended_lagrangian/beta: unexpected token '*' (at offset 3)"),
    ("/extended_lagrangian/beta", "0",
     "/extended_lagrangian: beta vanishes near (q=-2.0, qm=-2.0)"),
    ("/extended_lagrangian/gamma", [], "/extended_lagrangian/gamma: expected an expression string"),
    ("/extended_lagrangian/gamma", "x",
     "/extended_lagrangian/gamma: unknown identifier 'x' (at offset 0)"),
    ("/extended_lagrangian/gamma", "1/2",
     "/extended_lagrangian: alpha*gamma - beta^2 vanishes near (q=-2.0, qm=-2.0)"),
    ("/extended_lagrangian/lambda", 1,
     "/extended_lagrangian/lambda: expected an expression string"),
    ("/extended_lagrangian/lambda", "sin(q",
     "/extended_lagrangian/lambda: expected ')' (at offset 5)"),
    ("/extended_lagrangian/lambda", "qm", "/extended_lagrangian: lam must not contain: qm"),
    ("/extended_lagrangian/mu", True, "/extended_lagrangian/mu: expected an expression string"),
    ("/extended_lagrangian/mu", "2)",
     "/extended_lagrangian/mu: unexpected token ')' (at offset 1)"),
    ("/extended_lagrangian/mu", "q",
     "/extended_lagrangian: mu vanishes near q=0.0 (singular momentum map)"),
    ("/extended_lagrangian/phi", {}, "/extended_lagrangian/phi: expected an expression string"),
    ("/extended_lagrangian/phi", "q^",
     "/extended_lagrangian/phi: exponent must be an integer (at offset 2)"),
    ("/extended_lagrangian/phi", "q*t", "/extended_lagrangian: phi must not contain: t"),
    ("/history", 5, "/history: must be an object"),
    ("/history/q", 5, "/history/q: expected an expression string"),
    ("/history/q", "sin(", "/history/q: unexpected end of input (at offset 4)"),
    ("/history/q", "q", "/history: history expressions may only involve t (got q)"),
    ("/history/p", None, "/history/p: expected an expression string"),
    ("/history/p", ")", "/history/p: unexpected token ')' (at offset 0)"),
    ("/history/p", "t*p", "/history: history expressions may only involve t (got p)"),
    ("/generators", 5, "/generators: must be a list"),
    ("/generators", None, "/generators: must be a list"),
    ("/generators", True, "/generators: must be a list"),
    ("/generators", "xy", "/generators: must be a list"),
    ("/generators/0", 5, "/generators/0: must be an object"),
    ("/generators/0/xi", 1, "/generators/0/xi: expected an expression string"),
    ("/generators/0/xi", "1 1", "/generators/0/xi: unexpected token '1' (at offset 2)"),
    ("/generators/0/xi", "qd", "/generators/0: xi must not contain: qd"),
    ("/generators/0/eta", None, "/generators/0/eta: expected an expression string"),
    ("/generators/0/eta", "sin t", "/generators/0/eta: expected '(' (at offset 4)"),
    ("/generators/0/eta", "qm", "/generators/0: eta must not contain: qm"),
    ("/generators/0/nu", [], "/generators/0/nu: expected an expression string"),
    ("/generators/0/nu", "cos(t", "/generators/0/nu: expected ')' (at offset 5)"),
    ("/generators/0/nu", "pd", "/generators/0: nu must not contain: pd"),
    ("/generators/0/V", 0, "/generators/0/V: expected an expression string"),
    ("/generators/0/V", "+", "/generators/0/V: unexpected token '+' (at offset 0)"),
    ("/generators/0/W", [], "/generators/0/W: expected an expression string"),
    ("/generators/0/W", "*q", "/generators/0/W: unexpected token '*' (at offset 0)"),
    ("/generators/0/V", "pddp*q",
     "/generators/0/V: V must not contain: pddp (its total derivative would need third derivatives)"),
    ("/generators/0/W", "tp + qdp",
     "/generators/0/W: W must not contain: qdp, tp (its forward shift would leave the three points)"),
]


def _with_value(doc, pointer, value):
    doc = json.loads(json.dumps(doc))
    *path, last = [int(k) if k.isdigit() else k for k in pointer.strip("/").split("/")]
    node = doc
    for key in path:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "pointer, value, line", SINGLE_FAULTS, ids=[f"{p}={v!r}" for p, v, _ in SINGLE_FAULTS]
)
def test_single_fault_config_error_names_pointer_and_message(
    tmp_path, capsys, pointer, value, line
):
    for key in MODEL_KEYS:  # the base is valid with any one of its model sections
        cli.load_config(_with_models(key))
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(_with_value(FAULT_BASE, pointer, value)))
    for command in ("check-identity", "simulate"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error at {line}\n"
    assert not (tmp_path / "out").exists()


DIRECTORY = object()  # a document path that names a directory


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simulate", "--config", "[]"], "/: top level must be an object"),
        (["check-identity", "--seed", "-1"], "/seed: must be a non-negative integer"),
        (["transform", "--alpha1", "nan"], "--alpha1: expected a finite number"),
        (["transform", "--alpha1", "inf"], "--alpha1: expected a finite number"),
        (["compare", "--max-diff", "nan"], "--max-diff: expected a finite number"),
        (["simulate", "--config", DIRECTORY], "/: cannot read {tmp}/config.json: Is a directory"),
        (["simulate", "--config", b"\xff{}"],
         "/: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (["noether", "--config", '{"extended_lagrangian": {}}'],
         "/: needs a 'hamiltonian' or 'lagrangian' section"),
        (["transform", "--config", '{"history": {"q": "sin(t)"}}'], "/: transform needs a model section"),
        (["simulate", "--config", '{"horizon": 2, "lagrangian": {}}'],
         "/history: simulate needs a history section"),
        (["simulate", "--config", '{"history": {}, "lagrangian": {}}'], "/horizon: simulate needs a horizon"),
        (["simulate", "--formulation", "lagrangian", "--config",
          '{"horizon": 2, "history": {"q": "sin(t)", "p": "cos(t)"}, "hamiltonian": {}}'],
         "/lagrangian: lagrangian formulation requested"),
        (["recurse", "--config", '{"horizon": 2, "lagrangian": {}}'], "/history: recurse needs a history section"),
        (["recurse", "--config", '{"history": {}, "lagrangian": {}}'],
         "/horizon: recurse needs a horizon"),
        (["recurse", "--config", '{"horizon": 2, "history": {}, "hamiltonian": {"alphas": [1, 0, 0, 2]}}'],
         "/hamiltonian/alphas: sum-form recursion needs a1 = a4 != 0"),
        (["recurse", "--config", '{"horizon": 2, "history": {"q": "sin(t)", "p": "cos(t)"}}'],
         "/: needs a 'hamiltonian' or 'lagrangian' section"),
        (["noether", "--config", '{"hamiltonian": {"H": "p*pm + q*qm"}, "generators": '
          '[{"name": "X", "eta": "sin(t)", "nu": "cos(t)", "V": "qdd"}]}'],
         "/generators/0/V: V must not contain: qdd (its total derivative would need third derivatives)"),
        (["noether", "--config", '{"hamiltonian": {"H": "p*pm + q*qm"}, "generators": '
          '[{"name": "X", "eta": "sin(t)", "nu": "cos(t)", "W": "qp"}]}'],
         "/generators/0/W: W must not contain: qp (its forward shift would leave the three points)"),
        (["transform", "--config", '{"hamiltonian": {"H": "p*pm + ' + "sin(" * 250 + "q" + ")" * 250 + '"}}'],
         "/hamiltonian/H: nesting deeper than 100 levels (at offset 407)"),
    ],
    ids=["config-list-with-override", "negative-seed", "alpha1-nan", "alpha1-inf", "max-diff-nan",
         "config-directory", "config-not-utf-8", "noether-without-model", "transform-without-model",
         "simulate-without-history", "simulate-without-horizon", "lagrangian-formulation-of-hamiltonian",
         "recurse-without-history", "recurse-without-horizon", "recurse-with-unequal-outer-weights",
         "recurse-without-model", "V-reads-a-second-derivative", "W-reads-a-forward-shift", "nesting-250"],
)
def test_malformed_document_or_flag_is_a_config_error(tmp_path, capsys, argv, line):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_with_models("hamiltonian")))
    argv = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg == "--config":
            doc = tmp_path / "config.json"
            if argv[i + 1] is DIRECTORY:
                doc.mkdir()
            elif isinstance(argv[i + 1], bytes):
                doc.write_bytes(argv[i + 1])
            else:
                doc.write_text(argv[i + 1])
            argv[i + 1] = str(doc)
    line = line.format(tmp=tmp_path)
    if argv[0] == "compare":
        run = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(base), "--out", str(run)]) == 0
        argv += ["--a", str(run), "--b", str(run)]
    elif "--config" not in argv:
        argv += ["--config", str(base)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at {line}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("transform", "--alpha1", "-1e-135"), ("transform", "--alpha1", "-2.5E+1"),
     ("compare", "--max-diff", "-1e-5")],
)
def test_a_negative_flag_value_in_exponent_form_is_a_value(tmp_path, capsys, command, flag, value):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_with_models("lagrangian")))
    argv = [command, "--config", str(base)]
    if command == "compare":
        run = tmp_path / "run.csv"
        assert cli.main(["simulate", "--config", str(base), "--out", str(run)]) == 0
        argv = [command, "--a", str(run), "--b", str(run)]
    outcomes = []
    for flag_args in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / "out"
        out.unlink(missing_ok=True)
        code = cli.main([*argv, *flag_args, "--out", str(out)])
        outcomes.append((code, capsys.readouterr(), out.read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (cli.EXIT_VERIFY if command == "compare" else cli.EXIT_OK)


def test_an_argparse_usage_error_is_returned_not_raised(capsys):
    assert cli.main(["transform", "--seed", "x"]) == cli.EXIT_CONFIG
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err


_COMPARE = ["compare", "--a", "a.csv", "--b", "b.csv"]


@pytest.mark.parametrize("argv, unknown", [([*_COMPARE, "--bogus", "1"], "--bogus 1"),
                                           (["noether", "--skip-drft"], "--skip-drft"),
                                           (["noether", "--skip-drift"], "--skip-drift")])
def test_an_unrecognized_argument_is_reported_with_the_subcommands_usage(capsys, argv, unknown):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: delayham {argv[0]} [-h]")
    assert err.endswith(f"\ndelayham {argv[0]}: error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize(
    "argv",
    [*([command, "--tol", "1e-3"] for command in
       ("transform", "simulate", "noether", "recurse", "check-identity")),
     ["simulate", "--tau", "0.5"], ["simulate", "--steps-per-delay", "16"], ["simulate", "--horizon", "3"],
     ["simulate", "--model", "model.json"], ["simulate", "--history", "history.json"],
     ["recurse", "--c-mid", "0"],
     [*_COMPARE, "--config", "config.json"], [*_COMPARE, "--seed", "1"], [*_COMPARE, "--tol", "1e-3"]],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_a_run_value_has_one_source_the_config(tmp_path, capsys, argv):
    # a value the config holds, or the model fixes, has no flag; compare reads no config
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}\n" in capsys.readouterr().err
    assert not out.exists()


def test_extended_lagrangian_that_cannot_be_sampled_is_a_numeric_failure(tmp_path, capsys):
    # mu = 1/q divides by zero on the sample grid of the Legendre checks
    cfg = _with_value(_with_models("extended_lagrangian"), "/extended_lagrangian/mu", "1/q")
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["transform", "--config", str(path)]) == cli.EXIT_NUMERIC
    assert "numeric failure: division by zero at JetPoint(" in capsys.readouterr().err


def test_numeric_failure_exit_code(tmp_path, capsys):
    cfg = {
        "tau": 1.0,
        "hamiltonian": {"H": "p*pm + q*qm", "alphas": [0, 0, 1, 0]},
        "history": {"q": "sin(t)", "p": "cos(t)"},
        "horizon": 3,
    }
    path = tmp_path / "unsolvable.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["simulate", "--config", str(path), "--out", "/dev/null"])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_a_hamiltonian_simulation_without_a_momentum_history_is_a_numeric_failure(tmp_path, capsys):
    path = tmp_path / "q-only.json"
    path.write_text(json.dumps(dict(OSC_HAMILTONIAN, history={"q": "sin(t)"}, horizon=2, steps_per_delay=8)))
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: history carries no momentum expression\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["recurse", "noether"])
def test_every_phase_space_run_of_a_history_without_p_fails_with_the_one_message(tmp_path, capsys, command):
    # `History.fill` is the one check: the recursion and the drift monitor reach it too
    path = tmp_path / "q-only.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, history={"q": "sin(t)"}, horizon=2, steps_per_delay=8)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: history carries no momentum expression\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "simulate", "noether", "recurse", "check-identity"])
@pytest.mark.parametrize("models", [("lagrangian", "hamiltonian"), ("hamiltonian", "extended_lagrangian"),
                                    MODEL_KEYS], ids=["two", "two-without-lagrangian", "three"])
def test_a_config_that_names_more_than_one_model_is_a_config_error(tmp_path, capsys, command, models):
    # once every section parses; the commands would otherwise run different models from one file
    path = tmp_path / "models.json"
    path.write_text(json.dumps(_with_models(*models)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at /: more than one model section: {', '.join(models)}\n"
    assert not out.exists()


def test_noether_monitors_drift_exactly_when_the_config_has_an_end_time(osc_config, osc_config_without_horizon,
                                                                       capsys):
    drifts = []
    for config in (osc_config, osc_config_without_horizon):
        assert cli.main(["noether", "--config", config]) == 0
        drifts.append([g["drift"]["I"] for g in json.loads(capsys.readouterr().out)["generators"]])
    with_end, without_end = drifts
    assert with_end[0] is not None and without_end == [None] * len(OSC_CONFIG["generators"])


def test_noether_whose_identity_check_fails_exits_4(tmp_path):
    # no sampled value of the identity residual is within 1e-300 of its scale
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, tol=1e-300)))
    out = tmp_path / "noether.json"
    argv = ["noether", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VERIFY
    reports = json.loads(out.read_text())["generators"]
    assert len(reports) == 5 and not any(r["identity_ok"] for r in reports)


def test_boolean_samples_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, samples=True)))
    rc = cli.main(["transform", "--config", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "/samples" in capsys.readouterr().err


BLOW_UP_HISTORY = {"q": "3+t", "p": "3+t"}
OSC_HAMILTONIAN = {"hamiltonian": {"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]}}
# exp(-1000*t) overflows on the history interval; 1/(t+1) divides by zero at t = -1
OVERFLOW_HISTORY = {"q": "exp(-1000*t)", "p": "cos(t)"}
POLE_HISTORY = {"q": "1/(t+1)", "p": "cos(t)"}


@pytest.mark.parametrize(
    "model, history, horizon, argv",
    [
        # exp(q*qm) overflows inside the compiled right-hand side
        (
            {"hamiltonian": {"H": "p*pm + exp(q*qm)", "alphas": [1, 0, 0, 1]}},
            BLOW_UP_HISTORY, 30, ["simulate"],
        ),
        # the trajectory turns non-finite without any exception
        (
            {"hamiltonian": {"H": "p*pm + q*q*q*qm*qm*qm", "alphas": [1, 0, 0, 1]}},
            BLOW_UP_HISTORY, 40, ["simulate"],
        ),
        (
            {"lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*q*q*qm*qm*qm"}},
            BLOW_UP_HISTORY, 40, ["simulate", "--formulation", "lagrangian"],
        ),
        # cos of an infinite stage value is a math domain error
        (
            {"hamiltonian": {"H": "p*pm + cos(q*q*q*qm*qm*qm)", "alphas": [1, 0, 0, 1]}},
            BLOW_UP_HISTORY, 40, ["simulate"],
        ),
        # q - qm - 1 vanishes on this history
        (
            {"hamiltonian": {"H": "p*pm + 1/(q - qm - 1)", "alphas": [1, 0, 0, 1]}},
            BLOW_UP_HISTORY, 40, ["simulate"],
        ),
        (OSC_HAMILTONIAN, OVERFLOW_HISTORY, 4, ["simulate"]),
        (OSC_HAMILTONIAN, OVERFLOW_HISTORY, 4, ["recurse"]),
        (OSC_HAMILTONIAN, OVERFLOW_HISTORY, 4, ["noether"]),
        (OSC_HAMILTONIAN, POLE_HISTORY, 4, ["simulate"]),
        (OSC_HAMILTONIAN, POLE_HISTORY, 4, ["recurse"]),
        (OSC_HAMILTONIAN, POLE_HISTORY, 4, ["noether"]),
        # 6e306*t^5 in the horizontal residual overflows on a finite trajectory
        (
            {"hamiltonian": {"H": "p*pm + q*qm + 1e306*t^6", "alphas": [1, 0, 0, 1]}},
            {"q": "sin(t)", "p": "cos(t)"}, 4, ["simulate"],
        ),
    ],
    ids=[
        "overflow", "hamiltonian-nan", "lagrangian-nan", "domain-error", "division-by-zero",
        "history-overflow-simulate", "history-overflow-recurse", "history-overflow-noether",
        "history-pole-simulate", "history-pole-recurse", "history-pole-noether",
        "residual-overflow",
    ],
)
def test_blow_up_is_a_numeric_failure(tmp_path, capsys, model, history, horizon, argv):
    cfg = dict(model, tau=1.0, history=history, steps_per_delay=8, horizon=horizon)
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "blow.out"
    rc = cli.main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
    assert rc == cli.EXIT_NUMERIC
    assert "t=" in capsys.readouterr().err
    assert not out.exists()


def test_check_identity_writes_strict_json(tmp_path):
    # the squared exponential overflows to inf on every sampled jet, so each
    # worst ratio is inf/inf
    cfg = dict(OSC_CONFIG, generators=[{"name": "G", "eta": "exp(350*q)*exp(350*q)", "nu": "0"}])
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "checks.json"
    rc = cli.main(["check-identity", "--config", str(path), "--out", str(out)])
    assert rc == cli.EXIT_VERIFY

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    checks = json.loads(out.read_text(), parse_constant=reject)["checks"]
    assert len(checks) == 5
    assert all(c["ok"] is False and c["worst"] is None for c in checks)


def test_a_new_check_identity_model_compiles_no_kernel(tmp_path, monkeypatch):
    # a model no other test builds: all its checks share one kernel, whose
    # only array use runs as one tape and leaves nothing compiled
    cfg = dict(OSC_CONFIG, lagrangian={"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*qm + q^3*qm/9"},
               generators=[{"name": "G", "eta": "q*sin(t)/7", "nu": "p*cos(t)/7"}])
    path = tmp_path / "new.json"
    path.write_text(json.dumps(cfg))
    before = set(E._COMPILE_CACHE)
    tapes, compiles = [], []
    tape, compile_ = E._tape, builtins.compile
    with monkeypatch.context() as patch:
        patch.setattr(E, "_tape", lambda *args: tapes.append(args[0]) or tape(*args))
        patch.setattr(builtins, "compile", lambda *args, **kw: compiles.append(args) or compile_(*args, **kw))
        rc = cli.main(["check-identity", "--config", str(path), "--out", str(tmp_path / "checks.json")])
    assert rc == 0
    assert [len(roots) for roots in tapes] == [5]
    assert compiles == []
    assert set(E._COMPILE_CACHE) == before


@pytest.mark.parametrize("generators, want_rc", [
    ([{"name": "A", "eta": "sin(t)", "nu": "cos(t)"}, {"name": "B", "eta": "q", "nu": "p"}], cli.EXIT_OK),
    ([{"name": "A", "eta": "sin(t)"}, {"name": "B", "xi": "q"}], cli.EXIT_VERIFY),
    ([{"name": "A", "eta": "q"}, {"name": "B", "eta": "1/(q - q)"}], cli.EXIT_NUMERIC),
])
def test_check_identity_reports_the_per_generator_checks(tmp_path, capsys, generators, want_rc):
    cfg = dict(OSC_CONFIG, generators=generators)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "checks.json"
    rc = cli.main(["check-identity", "--config", str(path), "--out", str(out)])
    assert rc == want_rc
    run = cli.load_config(cfg)
    ham = cli._resolved_hamiltonian(run)
    options = dict(samples=run.samples, tol=run.tol, seed=run.seed)

    def per_generator():
        rows = []
        for name, gen, _, _ in run.generators:
            chk = noether.verify_hamiltonian_identity(ham, gen, **options)
            rows.append(cli._check_entry(f"identity-{name}", chk))
            report = noether.variational_derivative_identities(ham, gen, **options)
            rows += [cli._check_entry(f"variation-{key}-{name}", chk) for key, chk in report.checks.items()]
        return rows

    if want_rc == cli.EXIT_NUMERIC:
        with pytest.raises(E.EvalError) as err:
            per_generator()
        assert capsys.readouterr().err == f"numeric failure: {err.value} at {err.value.jet!r}\n"
        assert not out.exists()
    else:
        assert json.loads(out.read_text()) == {"checks": per_generator()}


def test_reruns_are_byte_identical(osc_config, osc_config_without_horizon, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["noether", "--config", osc_config_without_horizon, "--out", str(a)]) == 0
    assert cli.main(["noether", "--config", osc_config_without_horizon, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(s1)]) == 0
    assert cli.main(["simulate", "--config", osc_config, "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_transform_extended_model(tmp_path, capsys):
    cfg = {
        "tau": 1.0,
        "extended_lagrangian": {
            "alpha": "2", "beta": "1", "gamma": "1/3",
            "lambda": "q", "mu": "2", "phi": "q*qm",
        },
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["transform", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["velocity_map"]["qd"] == "2*p + q"
    assert len(payload["alphas"]) == 4


def test_fit_overflow_is_a_numeric_failure(tmp_path, capsys):
    # exp(200*q*p) overflows on a few of the fit's sampled jets
    cfg = {
        "tau": 1.0,
        "hamiltonian": {"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]},
        "generators": [{"name": "G", "eta": "exp(200*q*p)", "nu": "0"}],
        "samples": 20,
        "seed": 1,
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fit-report.json"
    rc = cli.main(["noether", "--config", str(path), "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric overflow at JetPoint(" in err
    assert not out.exists()


@pytest.mark.parametrize("huge", ["1e400", "10^400"], ids=["float-literal", "exact-rational"])
def test_a_constant_beyond_the_double_range_fails_like_any_non_finite_value(tmp_path, capsys, huge):
    # the constant evaluates as inf, so every value it reaches is inf or nan
    model = {"tau": 1.0, "samples": 20, "seed": 1, "generators": [{"name": "G", "eta": "q"}],
             "hamiltonian": {"H": f"p*pm + {huge}*q*qm", "alphas": [1, 0, 0, 1]}}
    path = tmp_path / "huge.json"
    out = tmp_path / "out"
    path.write_text(json.dumps(model))
    assert cli.main(["noether", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert "numeric failure: design-matrix row is not finite at JetPoint(" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["check-identity", "--config", str(path), "--out", str(out)]) == cli.EXIT_VERIFY
    checks = json.loads(out.read_text())["checks"]
    assert [c["worst"] for c in checks if not c["ok"]] and all(c["worst"] is None for c in checks if not c["ok"])
    out.unlink()
    runs = [
        dict(model, history={"q": "sin(t)", "p": "cos(t)"}),
        dict(model, history={"q": f"{huge}*sin(t)", "p": "cos(t)"}, hamiltonian=OSC_HAMILTONIAN["hamiltonian"]),
    ]
    for cfg in runs:
        path.write_text(json.dumps(dict(cfg, steps_per_delay=8, horizon=2)))
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "t=" in capsys.readouterr().err
        assert not out.exists()


def test_compare_fails_on_a_non_finite_row(osc_config, tmp_path, capsys):
    a = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(a)]) == 0
    lines = a.read_text().splitlines()
    row = lines[5].split(",")
    row[1] = "nan"
    lines[5] = ",".join(row)
    b = tmp_path / "b.csv"
    b.write_text("\n".join(lines) + "\n")
    rc = cli.main(["compare", "--a", str(a), "--b", str(b), "--max-diff", "1e-5"])
    assert rc == cli.EXIT_NUMERIC
    assert f"q is not finite at t={float(row[0])}" in capsys.readouterr().err


def test_compare_fails_on_a_component_that_is_never_finite(osc_config, tmp_path, capsys):
    # only an all-nan column is a component the file does not carry
    a = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(a)]) == 0
    header, *rows = a.read_text().splitlines()
    rows = [",".join([cells[0], cells[1], "inf", *cells[3:]]) for cells in (r.split(",") for r in rows)]
    b = tmp_path / "b.csv"
    b.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "report.json"
    rc = cli.main(["compare", "--a", str(a), "--b", str(b), "--max-diff", "1e-5", "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    # the first row, two delays before t0
    assert capsys.readouterr().err == "numeric failure: component p is not finite at t=-2.0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cells",
    [["1", "2", "3"], None, "x", "\udcff"],
    ids=["short-row", "long-row", "non-numeric-cell", "not-utf-8"],
)
def test_compare_fails_on_a_malformed_row(osc_config, tmp_path, capsys, cells):
    a = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(a)]) == 0
    lines = a.read_text().splitlines()
    row = lines[6].split(",")
    if cells is None:
        cells = row + row
    elif isinstance(cells, str):
        cells = row[:3] + [cells] + row[4:]
    lines[6] = ",".join(cells)
    b = tmp_path / "b.csv"
    # a lone surrogate escape is written as the byte 0xff, which is not UTF-8
    b.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    rc = cli.main(["compare", "--a", str(a), "--b", str(b), "--max-diff", "1e-5"])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure: CSV line 7: " in capsys.readouterr().err


def test_compare_skips_components_a_run_does_not_carry(osc_config, tmp_path, capsys):
    ham = tmp_path / "ham.csv"
    lag = tmp_path / "lag.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(ham)]) == 0
    args = ["simulate", "--config", osc_config, "--formulation", "lagrangian", "--out", str(lag)]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(["compare", "--a", str(ham), "--b", str(lag), "--max-diff", "1e-5"]) == 0
    components = json.loads(capsys.readouterr().out)["components"]
    assert sorted(components) == ["q", "qd"]


def test_compare_of_two_one_row_files_takes_a_unit_step(tmp_path, capsys):
    # one row has no grid step, so the l2 norm weighs it by 1 and equals the difference
    for name, q in (("a.csv", 1), ("b.csv", 1.25)):
        (tmp_path / name).write_text(f"{solver.CSV_HEADER}\n0,{q},nan,nan,nan,nan,nan,nan\n")
    argv = ["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"components": {"q": {"max": 0.25, "l2": 0.25, "t_at_max": 0.0}}}


@pytest.mark.parametrize(
    "flag, directory",
    [("--a", False), ("--b", False), ("--a", True), ("--b", True)],
    ids=["--a", "--b", "--a-directory", "--b-directory"],
)
def test_compare_with_a_missing_input_is_a_config_error(
    osc_config, tmp_path, capsys, flag, directory
):
    run = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(run)]) == 0
    missing = tmp_path / "missing.csv"
    if directory:
        missing.mkdir()
    files = {"--a": str(run), "--b": str(run), flag: str(missing)}
    capsys.readouterr()
    out = tmp_path / "report.json"
    argv = ["compare", "--a", files["--a"], "--b", files["--b"], "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    reason = f"cannot read {missing}: Is a directory" if directory else f"file not found: {missing}"
    assert capsys.readouterr().err == f"config error at {flag}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "model, message",
    [
        ({"hamiltonian": {"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]}},
         "the Lagrangian coefficient beta underflows to 0"),
        ({"lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*qm"}},
         "the Hamiltonian coefficient b underflows to 0"),
    ],
    ids=["reverse", "forward"],
)
def test_alpha1_that_underflows_a_coefficient_is_a_numeric_failure(
    tmp_path, capsys, model, message
):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(model, tau=1.0)))
    out = tmp_path / "transform.json"
    rc = cli.main(["transform", "--config", str(path), "--alpha1", "1e-320", "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert not out.exists()


def _run_model(tmp_path, command: str, **model):
    """Run `command` on the oscillator config with `model`'s sections in place of
    its Lagrangian; return the exit code and the output path."""
    path = tmp_path / "model.json"
    config = {k: v for k, v in OSC_CONFIG.items() if k != "lagrangian"}
    path.write_text(json.dumps(dict(config, **model, steps_per_delay=16, horizon=2)))
    out = tmp_path / f"{command}.out"
    return cli.main([command, "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("command", ["transform", "simulate", "noether", "check-identity", "recurse"])
def test_a_beta_whose_square_overflows_is_an_ordinary_lagrangian(tmp_path, capsys, command):
    # alpha*gamma - beta^2 overflows a double; its exact value decides degeneracy
    lagrangian = {"alpha": 0, "beta": 1e200, "gamma": 0, "phi": "q*qm"}
    rc, out = _run_model(tmp_path, command, lagrangian=lagrangian)
    assert (rc, capsys.readouterr().err) == (cli.EXIT_OK, "")
    if command == "transform":
        payload = json.loads(out.read_text())
        assert (payload["H"], payload["degenerate"]) == ("1e+200*p*pm + q*qm", False)


@pytest.mark.parametrize("command", ["transform", "simulate", "noether", "check-identity", "recurse"])
def test_a_pairing_weight_that_overflows_is_a_numeric_failure(tmp_path, capsys, command):
    # a3 = a1*alpha/beta: a1*alpha = 2e308 overflows before the division
    lagrangian = {"alpha": 1e308, "beta": 2, "gamma": 1, "phi": "q*qm"}
    rc, out = _run_model(tmp_path, command, lagrangian=lagrangian)
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: the pairing weight a3 overflows in double arithmetic\n"
    )
    assert not out.exists()


def test_recurse_with_a_weight_ratio_that_overflows_is_a_config_error(tmp_path, capsys):
    # (a2 + a3)/a1 = 2e300/1e-300 overflows to inf
    hamiltonian = {"H": "p*pm + q*qm", "alphas": [1e-300, 1e300, 1e300, 1e-300]}
    rc, out = _run_model(tmp_path, "recurse", hamiltonian=hamiltonian)
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error at /hamiltonian/alphas: only the middle coefficients 0 and 2 are supported\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, code", [
    ("transform", cli.EXIT_OK), ("simulate", cli.EXIT_NUMERIC), ("noether", cli.EXIT_NUMERIC),
    ("check-identity", cli.EXIT_OK), ("recurse", cli.EXIT_OK),
])
def test_a_lagrangian_with_tiny_coefficients_ends_without_a_traceback(tmp_path, capsys, command, code):
    # a2 = a1*gamma/beta: a1*gamma = 1e-600 underflows to 0 before the
    # division, and so did the degenerate b = a1*a1/beta; both are the exact
    # 1e-300 rounded once.  The degenerate canonical pair then blows up.
    lagrangian = {"alpha": 1e-300, "beta": 1e-300, "gamma": 1e-300, "phi": "q*qm"}
    rc, out = _run_model(tmp_path, command, lagrangian=lagrangian)
    err = "" if code == cli.EXIT_OK else "numeric failure: state or rate is not finite at t=0.0625\n"
    assert (rc, capsys.readouterr().err) == (code, err)
    assert out.exists() is (code == cli.EXIT_OK)
    if command == "transform":
        payload = json.loads(out.read_text())
        assert payload["H"] == "(1e-150*p + 1e-150*pm)^2/2 + q*qm"
        assert payload["alphas"] == [1e-300] * 4


def test_a_degenerate_hamiltonian_whose_alpha1_square_underflows(tmp_path, capsys):
    # the expanded coefficients a1*a1/gamma underflowed to 0 at a1 = 1e-170
    model = {"tau": 1.0, "lagrangian": {"alpha": 1e-100, "beta": 1e-100, "gamma": 1e-100, "phi": "q*qm"}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert cli.main(["transform", "--config", str(path), "--alpha1", "1e-170"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["H"] == "(1e-120*p + 1e-120*pm)^2/2 + q*qm"


_EXTREMES = (0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, 1, -1, 1e200, -1e200, 1e308, -1e308)


@pytest.mark.parametrize("command", ["transform", "simulate", "noether", "check-identity", "recurse"])
def test_no_extreme_lagrangian_coefficients_end_in_a_traceback(tmp_path, capsys, command):
    # transform on every (alpha, beta, gamma) of 12 extreme values; the other
    # commands on alpha and gamma from 5e-324, 1e-300 and 1e-160 with beta
    # from 5e-324 and 1e-300, which holds every triple of the 12 that
    # crashed them by an underflow
    if command == "transform":
        grid = itertools.product(_EXTREMES, repeat=3)
    else:
        tiny = (5e-324, 1e-300, 1e-160)
        grid = itertools.product(tiny, tiny[:2], tiny)
    codes = set()
    for alpha, beta, gamma in grid:
        lagrangian = {"alpha": alpha, "beta": beta, "gamma": gamma, "phi": "q*qm"}
        if command == "transform":
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"tau": 1.0, "lagrangian": lagrangian}))
            rc = cli.main([command, "--config", str(path)])
            if rc == cli.EXIT_OK:
                json.loads(capsys.readouterr().out)
        else:
            rc, _ = _run_model(tmp_path, command, lagrangian=lagrangian)
        codes.add(rc)
    capsys.readouterr()
    assert codes <= {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_VERIFY}


_COMMANDS = {
    "transform": [],
    "simulate": [],
    "noether": [],
    "recurse": [],
    "compare": ["--a", "a.csv", "--b", "b.csv"],
    "check-identity": [],
}


@pytest.mark.parametrize(
    "command, argv, directory",
    [(c, argv, False) for c, argv in _COMMANDS.items()]
    + [(c, argv, True) for c, argv in _COMMANDS.items()],
    ids=[*_COMMANDS, *(f"{c}-out-is-a-directory" for c in _COMMANDS)],
)
def test_out_in_a_missing_directory_is_rejected_before_any_work(
    osc_config, tmp_path, capsys, monkeypatch, command, argv, directory
):
    def no_work(cfg, args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), no_work)
    folder = tmp_path / "missing"
    out = folder / "out"
    if directory:
        out.mkdir(parents=True)
    config = [] if command == "compare" else ["--config", osc_config]
    rc = cli.main([command, *config, *argv, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    if directory:
        assert capsys.readouterr().err == f"config error at --out: is a directory: {out}\n"
        assert not any(out.iterdir())
        return
    assert capsys.readouterr().err == f"config error at --out: directory not found: {folder}\n"
    assert not folder.exists()


def test_check_identity_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    import os
    import subprocess
    import sys

    import delayham

    cfg = dict(OSC_CONFIG, generators=OSC_CONFIG["generators"][:2], samples=40)
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(delayham.__file__))
    outputs = []
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "delayham.cli", "check-identity", "--config", str(path)],
            env=env, capture_output=True, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["noether", "check-identity", "check-identity --classical"])
def test_command_does_not_import_numpy_random(tmp_path, command):
    # jets come from expr's own SplitMix64 hash, so these paths need no numpy.random
    import os
    import subprocess
    import sys

    import delayham

    path = tmp_path / "osc.json"
    path.write_text(json.dumps(OSC_CONFIG))
    script = (
        "import sys; from delayham import cli; "
        "rc = cli.main(sys.argv[1:]); print(rc, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delayham.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", script, *command.split(), "--config", str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, check=True, text=True,
    )
    assert run.stdout == "0 False\n"


# The config printed in the README, and the sha256 of each command's output.
README_CONFIG = {
    "tau": 1.0,
    "lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*qm"},
    "history": {"q": "sin(t)", "p": "cos(t)"},
    "generators": [
        {"name": "X1", "eta": "sin(t)", "nu": "cos(t)"},
        {"name": "X5", "eta": "p", "nu": "-q"},
    ],
    "steps_per_delay": 128,
    "horizon": 10,
    "seed": 20260810,
    "tol": 1e-9,
}
README_OUTPUTS = {
    10: {
        "simulate": "b315e90e01b27fa776f9d54c781e6dc668b7ef1971f65488b052b5d733d657d6",
        "lagrangian": "98651691898c37dbe313b8043806e201257985b954e6a65965a8e488a15e9a89",
        "recurse": "bf16d83f7f5ba1d3b8038d5547caa272b513d28c2ff9706fda13dd5d9b6bab4e",
        "noether": "e811f0d2cb47520c8de4a8e6bbe19226672d517afc281e3edb4fdaca50e34d1b",
    },
    100: {
        "simulate": "56c374af0d61abede15013984f8a2eb02e6999efac14dcbe617ad5e5a103a8f6",
        "lagrangian": "99c9c348de2d214a6678ab30e494748b31750adcbea09ce09d6381d0d271726c",
        "recurse": "ade7bceaeb8100d7888a97588644f19bc8e4d5d7109d6236d7c68ec964f4bbc1",
        "noether": "a6e67bd59a4eea053f94dc6fa9dbb8b66d9b0d670007805c28e561dbaf1cd0e8",
    },
}


@pytest.mark.parametrize("horizon", sorted(README_OUTPUTS))
def test_readme_outputs_are_byte_identical(tmp_path, horizon):
    import hashlib

    path = tmp_path / "readme.json"
    path.write_text(json.dumps(dict(README_CONFIG, horizon=horizon)))
    commands = {
        "simulate": ["simulate"],
        "lagrangian": ["simulate", "--formulation", "lagrangian"],
        "recurse": ["recurse"],
        "noether": ["noether"],
    }
    got = {}
    for name, argv in commands.items():
        out = tmp_path / name
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == README_OUTPUTS[horizon]


# `noether` on the README config with five generators, one of each kind of
# report: a divergence with both fits found (sin, cos), a purely temporal
# generator (time), no invariance (scale) and fits that yield only zero
# quantities (rotate).  The sha256 was taken from the generator-by-generator
# analysis that `noether.analyze_generators` replaced.
FIVE_GENERATORS = [
    {"name": "sin", "eta": "sin(t)", "nu": "cos(t)"},
    {"name": "cos", "eta": "cos(t)", "nu": "-sin(t)"},
    {"name": "time", "xi": "1"},
    {"name": "scale", "eta": "q", "nu": "p"},
    {"name": "rotate", "eta": "p", "nu": "-q"},
]
FIVE_GENERATORS_NOETHER = "acd6579e99314df0f515ef2a4afd76143cf026206f8fc9b312f96f010c0c96da"


def test_noether_on_five_generators_is_byte_identical(tmp_path):
    import hashlib

    path = tmp_path / "five.json"
    path.write_text(json.dumps(dict(README_CONFIG, generators=FIVE_GENERATORS)))
    out = tmp_path / "noether.json"
    assert cli.main(["noether", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIVE_GENERATORS_NOETHER


def test_a_readme_noether_run_factors_each_design_once_and_runs_no_lu(tmp_path):
    # 5 designs, each factored once: 4 pass the condition bound, and the
    # rank-deficient on-shell V design fails Cholesky and is solved by gelsd
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    names = ("eigvalsh", "solve", "cholesky", "lstsq")
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name)))
                 for name in names]
        assert cli.main(["noether", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert dict(zip(names, (spy.call_count for spy in spies))) == {
        "eigvalsh": 0, "solve": 0, "cholesky": 5, "lstsq": 1,
    }


# Classification and integrals of the README `noether` output; the fitted
# coefficients are rounded to small fractions, so these do not depend on the seed.
README_NOETHER = {
    "X1": (
        "divergence",
        "sin(t)*(pp + pm) - (q*cos(tm) + qm*cos(t) - q*cos(tm) + qp*cos(t))",
        None,
    ),
    "X5": ("divergence", None, None),
}


@pytest.mark.parametrize("seed", [11, 222, 3333, 44444, 555555])
def test_readme_noether_verdicts_hold_at_other_seeds(tmp_path, seed):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(dict(README_CONFIG, seed=seed)))
    out = tmp_path / "noether.json"
    assert cli.main(["noether", "--config", str(path), "--out", str(out)]) == 0
    got = {g["name"]: (g["classification"], g["I"], g["J"])
           for g in json.loads(out.read_text())["generators"]}
    assert got == README_NOETHER


# The seeded config fuzz: the README, Hamiltonian and extended-Lagrangian
# configs on a short grid, each mutated by one to three edits.
_FUZZ_RUN = {"steps_per_delay": 8, "horizon": 2, "samples": 20}
FUZZ_BASES = [
    dict(README_CONFIG, **_FUZZ_RUN),
    dict({k: v for k, v in README_CONFIG.items() if k != "lagrangian"}, **_FUZZ_RUN,
         hamiltonian={"H": "p*pm + q*qm", "alphas": [1, 0, 0, 1]},
         generators=[{"name": "X1", "eta": "sin(t)", "nu": "cos(t)", "V": "q*cos(tm) + qm*cos(t)", "W": "0"},
                     README_CONFIG["generators"][1]]),
    _with_models("extended_lagrangian"),
]
DELETE = object()  # an edit that deletes the key
# 10**15 sizes only arrays of >= 1e15 elements, which numpy refuses at once
FUZZ_NUMBERS = [0, -1, 1, 2, 3, 0.5, 2.5, 5e-324, -1e-300, 1e-160, 1e200, 1e308, -1e308, 10**400,
                float("inf"), float("nan"), 10**15]
FUZZ_EXPRESSIONS = ["q*", "sin(", "x", "qd", "q/0", "10^400", "1e400*q", "exp(1000*q)", "exp(q*p)*1e300",
                    "p^3*pm + q*qm", "q*qm + sin(t)", "p^2/2 + p*pm", "1e-300*q", "3*q",
                    "qp", "qdd", "pddp*q",
                    # Hypothesis raises the recursion limit while a test runs: a parser
                    # that recursed per level would exhaust it on 1,000 levels, not on 250
                    "sin(" * 250 + "q" + ")" * 250, "(" * 1000 + "q" + ")" * 1000]
FUZZ_OTHERS = [None, True, [], {}, "1", DELETE]
FUZZ_COMMANDS = [
    ["transform"], ["transform", "--alpha1", "1e-320"], ["transform", "--alpha1", "1e-135"],
    ["transform", "--alpha1=-1e300"], ["transform", "--alpha1", "-1e-135"], ["simulate"],
    ["simulate", "--formulation", "lagrangian"], ["noether"], ["recurse"], ["check-identity"],
    ["check-identity", "--classical", "--pairs", "2"],
]


def _pointers(node, prefix=""):
    """Every JSON pointer into `node`, sections and leaves alike."""
    keys = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in keys:
        yield f"{prefix}/{key}"
        yield from _pointers(child, f"{prefix}/{key}")


def _mutated(seed: int):
    """(config, command) of fuzz draw `seed`."""
    rng = random.Random(seed)
    doc = json.loads(json.dumps(rng.choice(FUZZ_BASES)))
    for _ in range(rng.randint(1, 3)):
        pointers = sorted(_pointers(doc))
        if not pointers:
            break
        *path, last = [int(k) if k.isdigit() else k for k in rng.choice(pointers).strip("/").split("/")]
        node = doc
        for key in path:
            node = node[key]
        # mostly a value of the key's own type, else a wrong type or a deletion
        pool = FUZZ_NUMBERS if isinstance(node[last], (int, float)) else FUZZ_EXPRESSIONS
        value = rng.choice(pool if isinstance(node[last], (int, float, str)) and rng.random() < 0.8
                           else FUZZ_NUMBERS + FUZZ_EXPRESSIONS + FUZZ_OTHERS)
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc, rng.choice(FUZZ_COMMANDS)


def _cli_run(argv, out: Path):
    """(exit code, stdout, stderr, bytes of `out` or None) of one `cli.main` run."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_no_mutated_config_escapes_the_exit_codes(seed):
    doc, command = _mutated(seed)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        argv = [command[0], "--config", str(config), *command[1:]]
        first = _cli_run(argv, out)
        assert _cli_run(argv, out) == first  # a rerun is byte-identical
    code, _, _, written = first
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_VERIFY)
    if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC):
        assert written is None
    elif command[0] in ("simulate", "recurse"):
        assert written.decode().startswith("t,q,p,qdot,pdot,Rp,Rq,Rt\n")
    else:
        json.loads(written.decode(), parse_constant=_refuse)
