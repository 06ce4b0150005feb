"""Guards of the two comparison tools under `tools/`, each a refusal that
starts no worker and runs no request."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_duet_refuses_a_run_of_no_requests():
    run = _tool("duet.py", "--workload", "noether-readme", "--seed", "1", "--parent", ".",
                "--requests", "0", cwd=ROOT)
    assert run.returncode == 2
    assert run.stderr.endswith("duet.py: error: --requests must be at least 1\n")
    assert run.stdout == ""
