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


@pytest.mark.parametrize(
    "model, horizon, extra",
    [
        # exp(q*qm) overflows inside the compiled right-hand side
        ({"hamiltonian": {"H": "p*pm + exp(q*qm)", "alphas": [1, 0, 0, 1]}}, 30, []),
        # the trajectory turns non-finite without any exception
        ({"hamiltonian": {"H": "p*pm + q*q*q*qm*qm*qm", "alphas": [1, 0, 0, 1]}}, 40, []),
        (
            {"lagrangian": {"alpha": 0, "beta": 1, "gamma": 0, "phi": "q*q*q*qm*qm*qm"}},
            40,
            ["--formulation", "lagrangian"],
        ),
        # cos of an infinite stage value is a math domain error
        ({"hamiltonian": {"H": "p*pm + cos(q*q*q*qm*qm*qm)", "alphas": [1, 0, 0, 1]}}, 40, []),
        # q - qm - 1 vanishes on this history
        ({"hamiltonian": {"H": "p*pm + 1/(q - qm - 1)", "alphas": [1, 0, 0, 1]}}, 40, []),
    ],
    ids=["overflow", "hamiltonian-nan", "lagrangian-nan", "domain-error", "division-by-zero"],
)
def test_blow_up_is_a_numeric_failure(tmp_path, capsys, model, horizon, extra):
    cfg = dict(model, tau=1.0, history=BLOW_UP_HISTORY, steps_per_delay=8, horizon=horizon)
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "blow.csv"
    rc = cli.main(["simulate", "--config", str(path), "--out", str(out), *extra])
    assert rc == cli.EXIT_NUMERIC
    assert "t=" in capsys.readouterr().err
    assert not out.exists()


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
