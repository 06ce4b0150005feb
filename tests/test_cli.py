import json

import numpy as np
import pytest

from delayham import cli

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


def test_noether_classifications(osc_config, tmp_path):
    out = tmp_path / "noether.json"
    rc = cli.main(["noether", "--config", osc_config, "--skip-drift", "--out", str(out)])
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
    cfg = dict(OSC_CONFIG, generators=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["noether", "--config", str(path), "--skip-drift"])
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


@pytest.mark.parametrize(
    "h", ["p^2/2 + q^2/2", "p*pm + sin(t)*q"], ids=["no-cross-term", "phi-reads-t"]
)
def test_reverse_transform_outside_the_quadratic_family_is_a_config_error(tmp_path, capsys, h):
    # both pass the quadratic shape probe: b = 0, or phi reads t
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({"tau": 1.0, "hamiltonian": {"H": h}}))
    assert cli.main(["transform", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "/hamiltonian/H" in capsys.readouterr().err


@pytest.mark.parametrize(
    "horizon, argv",
    [(float("inf"), []), (float("nan"), []), (4, ["--horizon", "inf"])],
    ids=["json-infinity", "json-nan", "flag-inf"],
)
def test_non_finite_number_is_a_config_error(tmp_path, capsys, horizon, argv):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(OSC_CONFIG, horizon=horizon)))  # writes Infinity / NaN
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out), *argv]) == cli.EXIT_CONFIG
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


def test_reruns_are_byte_identical(osc_config, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["noether", "--config", osc_config, "--skip-drift", "--out", str(a)]) == 0
    assert cli.main(["noether", "--config", osc_config, "--skip-drift", "--out", str(b)]) == 0
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


@pytest.mark.parametrize(
    "cells",
    [["1", "2", "3"], None, "x"],
    ids=["short-row", "long-row", "non-numeric-cell"],
)
def test_compare_fails_on_a_malformed_row(osc_config, tmp_path, capsys, cells):
    a = tmp_path / "a.csv"
    assert cli.main(["simulate", "--config", osc_config, "--out", str(a)]) == 0
    lines = a.read_text().splitlines()
    row = lines[6].split(",")
    if cells is None:
        cells = row + row
    elif cells == "x":
        cells = row[:3] + ["x"] + row[4:]
    lines[6] = ",".join(cells)
    b = tmp_path / "b.csv"
    b.write_text("\n".join(lines) + "\n")
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
