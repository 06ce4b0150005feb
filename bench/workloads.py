"""Seeded inputs, request definitions and output checks for the three workloads.

A workload turns the benchmark seed into generated config files and a stream of
requests.  A request is a list of `delayham` command lines run one after the
other; its `check` reads what they wrote and returns the numeric error it
observed, or raises `CheckFailed`.  The program only ever sees the generated
configs and command lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    pass


@dataclass
class Request:
    argvs: list[list[str]]   # one delayham command line per step; each must exit 0
    outputs: list[Path]      # every file the steps write
    check: Callable[[], float]


# The config printed in the README, exactly as written.
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

# `noether` output for the README config at its own seed: classification and
# the I/J strings of each generator.  Every request seed must reproduce it.
README_REFERENCE = {
    "X1": ("divergence", "sin(t)*(pp + pm) - (q*cos(tm) + qm*cos(t) - q*cos(tm) + qp*cos(t))", None),
    "X5": ("divergence", None, None),
}

CSV_HEADER = "t,q,p,qdot,pdot,Rp,Rq,Rt"
XVAL_HORIZON = 100
XVAL_MAX_DIFF = "1e-5"
IDENTITY_CHECKS = 15  # 3 generators x (1 Hamiltonian identity + 4 variation identities)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckFailed(f"{path.name}: {err}") from None


class Workload:
    """Base class: `name`, `why`, the work unit and how requests are made."""

    name = ""
    why = ""
    unit = ""           # what `units_per_request` counts
    units_per_request = 0

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = random.Random(seed)

    def setup_config(self) -> Path:
        """The config a fresh process loads before its first request."""
        raise NotImplementedError

    def request(self, out: Path) -> Request:
        """The next request, writing into `out`."""
        raise NotImplementedError

    def _write_config(self, name: str, config: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
        return path


class NoetherReadme(Workload):
    name = "noether-readme"
    why = (
        "The README noether command: most of each request is 9 dictionary fits "
        "with identical expressions (random_jet, on_shell_jet, design-matrix "
        "assembly, lstsq); evaluation and sampling gains show here."
    )
    unit = "generators"
    units_per_request = len(README_CONFIG["generators"])

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.config = self._write_config("readme.json", README_CONFIG)

    def setup_config(self) -> Path:
        return self.config

    def request(self, out: Path) -> Request:
        seed = self.rng.randrange(1, 2**31)
        report = out / "noether.json"
        argv = ["noether", "--config", str(self.config), "--seed", str(seed), "--out", str(report)]

        def check() -> float:
            gens = {g["name"]: g for g in _read_json(report)["generators"]}
            if sorted(gens) != sorted(README_REFERENCE):
                raise CheckFailed(f"generators {sorted(gens)}")
            worst = 0.0
            for name, (cls, i_ref, j_ref) in README_REFERENCE.items():
                g = gens[name]
                if (g["classification"], g["I"], g["J"]) != (cls, i_ref, j_ref):
                    raise CheckFailed(f"{name}: {g['classification']} I={g['I']} J={g['J']}")
                for d in g["drift"].values():
                    if d is not None:
                        if not math.isfinite(d["max"]):
                            raise CheckFailed(f"{name}: drift {d['max']}")
                        worst = max(worst, d["max"])
            return worst

        return Request([argv], [report], check)


class XvalLong(Workload):
    name = "xval-long"
    why = (
        "Hamiltonian and Lagrangian simulate, recurse and compare over 12,800 nodes "
        "each: RK4 with Hermite lookups, residuals and CSV I/O, no fits; solver "
        "changes show here and fit or kernel changes must not."
    )
    unit = "nodes"
    units_per_request = 3 * XVAL_HORIZON * README_CONFIG["steps_per_delay"]

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        # simulate and recurse take no seed; the request stream is the same for every seed
        self.config = self._write_config("xval.json", dict(README_CONFIG, horizon=XVAL_HORIZON))

    def setup_config(self) -> Path:
        return self.config

    def request(self, out: Path) -> Request:
        cfg = str(self.config)
        ham, lag, rec = out / "ham.csv", out / "lag.csv", out / "rec.csv"
        cmp_ham, cmp_lag = out / "cmp-ham.json", out / "cmp-lag.json"
        argvs = [
            ["simulate", "--config", cfg, "--out", str(ham)],
            ["simulate", "--config", cfg, "--formulation", "lagrangian", "--out", str(lag)],
            ["recurse", "--config", cfg, "--out", str(rec)],
            ["compare", "--a", str(ham), "--b", str(rec), "--max-diff", XVAL_MAX_DIFF, "--out", str(cmp_ham)],
            ["compare", "--a", str(lag), "--b", str(rec), "--max-diff", XVAL_MAX_DIFF, "--out", str(cmp_lag)],
        ]
        n = README_CONFIG["steps_per_delay"]
        rows = (XVAL_HORIZON // int(README_CONFIG["tau"]) + 2) * n + 1

        def check() -> float:
            for csv in (ham, lag, rec):
                with open(csv, encoding="utf-8") as fh:
                    header = fh.readline().rstrip("\n")
                    count = sum(1 for _ in fh)
                if header != CSV_HEADER or count != rows:
                    raise CheckFailed(f"{csv.name}: header {header!r}, {count} rows (want {rows})")
            return max(
                c["max"]
                for report in (cmp_ham, cmp_lag)
                for c in _read_json(report)["components"].values()
            )

        return Request(argvs, [ham, lag, rec, cmp_ham, cmp_lag], check)


def _nonzero(rng: random.Random, bound: int = 3) -> int:
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v


def _monomial(rng: random.Random, factors: list[tuple[str, int]]) -> str:
    parts = [str(_nonzero(rng))]
    for name, max_degree in factors:
        d = rng.randint(0, max_degree)
        if d:
            parts.append(name if d == 1 else f"{name}^{d}")
    return "*".join(parts)


def random_identity_model(rng: random.Random) -> dict:
    """A delay Hamiltonian with three point generators, all drawn from `rng`.

    H = a/2 p^2 + b p pm + c/2 pm^2 (b != 0) plus three monomials over
    q, qm, sin(t), cos(tm); integer pairing weights; each generator has an
    affine xi and two-monomial eta/nu over t, q, p and sin(t) or cos(t).
    """
    a, b, c = rng.randint(-3, 3), _nonzero(rng), rng.randint(-3, 3)
    potential = " + ".join(
        _monomial(rng, [("q", 2), ("qm", 2), ("sin(t)", 1), ("cos(tm)", 1)]) for _ in range(3)
    )
    generators = []
    for k in range(3):
        point = [("t", 1), ("q", 2), ("p", 2), (rng.choice(["sin(t)", "cos(t)"]), 1)]
        generators.append({
            "name": f"G{k + 1}",
            "xi": f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*t",
            "eta": " + ".join(_monomial(rng, point) for _ in range(2)),
            "nu": " + ".join(_monomial(rng, point) for _ in range(2)),
        })
    return {
        "tau": 1.0,
        "hamiltonian": {
            "H": f"{a}/2*p^2 + {b}*p*pm + {c}/2*pm^2 + {potential}",
            "alphas": [_nonzero(rng) for _ in range(4)],
        },
        "generators": generators,
        "samples": 100,
        "seed": rng.randrange(2**31),
    }


class IdentitySweep(Workload):
    name = "identity-sweep"
    why = (
        "A new random model per request, checked with check-identity (15 checks x "
        "100 samples): cold build and compile on every request, growing caches, "
        "random_jet; compile cost and cache memory show here."
    )
    unit = "checks"
    units_per_request = IDENTITY_CHECKS

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.count = 0
        self.first = self._next_config()
        self.pending: Path | None = self.first

    def _next_config(self) -> Path:
        self.count += 1
        return self._write_config(f"model-{self.count}.json", random_identity_model(self.rng))

    def setup_config(self) -> Path:
        return self.first

    def request(self, out: Path) -> Request:
        config, self.pending = self.pending or self._next_config(), None
        report = out / "checks.json"
        argv = ["check-identity", "--config", str(config), "--out", str(report)]

        def check() -> float:
            checks = _read_json(report)["checks"]
            if len(checks) != IDENTITY_CHECKS:
                raise CheckFailed(f"{len(checks)} checks (want {IDENTITY_CHECKS})")
            failed = [c["name"] for c in checks if c["ok"] is not True]
            if failed:
                raise CheckFailed(f"failed checks {failed}")
            return max(c["worst"] for c in checks)

        return Request([argv], [report], check)


WORKLOADS = {w.name: w for w in (NoetherReadme, XvalLong, IdentitySweep)}
