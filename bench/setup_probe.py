"""Set-up probe, run as a fresh process by run.py.

Imports delayham from the given source directory, loads one config, builds
its Hamiltonian and prints "ready": the work a CLI user pays before the first
request.  Usage: python3 bench/setup_probe.py <src-dir> <config.json>
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from delayham import cli, legendre  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    cfg = cli.load_config(json.load(fh))
if cfg.hamiltonian is None:
    legendre.legendre_forward(cfg.lagrangian)
print("ready", flush=True)
