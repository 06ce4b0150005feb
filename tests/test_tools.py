"""Guards of the two comparison tools under `tools/`: refusals that start no
worker and run no request, and what a parity worker records of each run."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from delayham import expr as E

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_a_parity_worker_refuses_a_tree_it_did_not_import(tmp_path):
    run = _tool("parity.py", "--worker", str(tmp_path), cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr == (f"parity: imported delayham from {ROOT / 'src' / 'delayham' / 'expr.py'}, "
                          f"not from {tmp_path}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_parity_worker_records_each_runs_own_cache_growth(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    # a potential no other test builds: the first run interns it, the second finds it
    config = {"hamiltonian": {"H": "p*pm + q*qm + 7/11*q^13*qm"}, "samples": 4,
              "generators": [{"name": "X", "eta": "sin(t)", "nu": "cos(t)"}]}
    monkeypatch.setattr(parity, "_matrix", lambda start: [("first", config, ["check-identity"]),
                                                          ("again", config, ["check-identity"])])
    monkeypatch.chdir(tmp_path)
    assert parity.worker(argparse.Namespace(worker=str(ROOT), start=0)) == 0
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    first, again = result["runs"]
    assert first["exit"] == again["exit"] == 0
    assert first["intern"] > 0 and first["partial"] > 0
    assert (again["intern"], again["partial"]) == (0, 0)
    assert result["caches"] == {"intern": len(E._INTERN), "partial": len(E._PARTIAL_CACHE)}


def test_duet_refuses_a_run_of_no_requests():
    run = _tool("duet.py", "--workload", "noether-readme", "--seed", "1", "--parent", ".",
                "--requests", "0", cwd=ROOT)
    assert run.returncode == 2
    assert run.stderr.endswith("duet.py: error: --requests must be at least 1\n")
    assert run.stdout == ""
