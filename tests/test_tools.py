"""Guards of the tools under `tools/`: refusals that start no worker and run
no request, what a parity worker records of each run, how duet starts its
workers, and the `BENCH_<PR>.json` writer."""

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


def test_duet_starts_each_worker_with_its_own_empty_bytecode_cache(tmp_path):
    # run in a child process: importing duet pins BLAS threads in its environment
    script = "\n".join([
        "import argparse, json, pathlib, subprocess, sys",
        f"sys.path.insert(0, {str(ROOT / 'tools')!r})",
        "import duet",
        "envs = []",
        "subprocess.Popen = lambda argv, env=None, **kw: envs.append(env)",
        "args = argparse.Namespace(workload='noether-readme', seed=1)",
        f"work = pathlib.Path({str(tmp_path)!r})",
        "for side in duet.SIDES:",
        "    duet._spawn(duet.ROOT, args, work / side)",
        "print(json.dumps([env['PYTHONPYCACHEPREFIX'] for env in envs]))",
    ])
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    prefixes = [Path(p) for p in json.loads(run.stdout)]
    assert prefixes == [tmp_path / "parent-pycache", tmp_path / "tree-pycache"]
    assert all(p.is_dir() and not any(p.iterdir()) for p in prefixes)


def _duet_output(path: Path, workload: str, seed: int, median: float) -> Path:
    """A file shaped like duet's standard output: a text line, then its figures."""
    side = {"p50_s": 0.02, "tail_s": 0.03, "tail_percentile": 95.0, "total_s": 6.0, "peak_rss_mb": 41.5}
    figures = {"parent": side, "tree": dict(side, p50_s=0.02 * median),
               "ratio": {"median": median, "ci95": [median - 0.01, median + 0.01], "pairs": 300},
               "workload": workload, "seed": seed}
    path.write_text(f"duet {workload}, seed {seed}, 300 requests per side\n{json.dumps(figures)}\n")
    return path


def test_bench_record_writes_each_workloads_runs_in_the_bench_layout(tmp_path):
    runs = [_duet_output(tmp_path / f"{w}.txt", w, seed, median)
            for w, seed, median in (("identity-sweep", 1, 0.85), ("noether-readme", 2, 1.0), ("xval-long", 3, 1.0))]
    swapped = _duet_output(tmp_path / "swapped.txt", "identity-sweep", 4, 1.17)
    (tmp_path / "pairs.json").write_text('{"identity-sweep": {"pairs": 5}}')
    run = _tool("bench_record.py", "--pr", "99", "--change", "a change", *map(str, runs),
                "--swapped", str(swapped), "--claim", "identity-sweep", "request_p50_s", "0.85",
                "--method-note", "seeds 1-4", "--section", f"bench_run_pairs={tmp_path / 'pairs.json'}",
                cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "wrote BENCH_99.json\n", "")
    got = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert list(got) == ["change", "command", "method", "env", "claim", "workloads", "bench_run_pairs"]
    assert got["change"] == "a change" and got["method"].endswith("; seeds 1-4")
    assert set(got["env"]) == {"nproc", "python", "numpy", "blas", "blas_threads"}
    assert got["claim"] == {"workload": "identity-sweep", "metric": "request_p50_s", "result": "0.85"}
    assert got["bench_run_pairs"] == {"identity-sweep": {"pairs": 5}}
    lines = {p.stem: json.loads(p.read_text().splitlines()[-1]) for p in runs}
    assert got["workloads"]["identity-sweep"] == {"run": lines["identity-sweep"],
                                                  "swapped": json.loads(swapped.read_text().splitlines()[-1]),
                                                  "note": got["workloads"]["identity-sweep"]["note"]}
    assert got["workloads"]["noether-readme"] == {"run": lines["noether-readme"]}
    assert got["workloads"]["xval-long"] == {"run": lines["xval-long"]}


def test_bench_record_refuses_runs_it_cannot_place(tmp_path):
    one = _duet_output(tmp_path / "one.txt", "xval-long", 1, 1.0)
    other = _duet_output(tmp_path / "other.txt", "noether-readme", 2, 1.0)
    (tmp_path / "failed.txt").write_text("duet: request failed on tree: CheckFailed\n")
    for args, error in [
        ((str(one), "--swapped", str(other)), "a swapped run of noether-readme, which has no run"),
        ((str(one), str(one)), "two runs of xval-long"),
        ((str(one), "--claim", "identity-sweep", "request_p50_s", "x"), "the claim names identity-sweep, which has no run"),
        ((str(tmp_path / "failed.txt"),), f"{tmp_path / 'failed.txt'}: its last line is not the JSON summary of a tools/duet.py run"),
    ]:
        run = _tool("bench_record.py", "--pr", "99", "--change", "c", *args, cwd=tmp_path)
        assert (run.returncode, run.stderr) == (2, f"bench_record: {error}\n")
    assert not (tmp_path / "BENCH_99.json").exists()
