"""Integration-free propagation from trigonometric first-integral relations.

For the oscillator families the two differential first integrals pin the
combinations q(t+tau) + c*q(t) + q(t-tau) and p(t+tau) + c*p(t) + p(t-tau)
(c = 0 for the nondegenerate kinetic coupling, c = 2 for the degenerate one)
to A,B-weighted sine/cosine data.  Evaluating the relations inside the
starting interval recovers A and B; rewriting them one delay back then
propagates the solution forward by pure algebra, one delay interval at a
time: a new node needs only the nodes one and two delays back, so each delay
block is one array expression over the two blocks before it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr, add, cos, mul, neg, partial, sin
from .solver import History, SolverError, Trajectory, _grid


class RecursionError_(RuntimeError):
    pass


@dataclass(frozen=True)
class SumFormRelation:
    """q(+) + c_mid*q + q(-) = g_q(t) and likewise for p, with trig data."""

    c_mid: int
    g_q: Expr
    g_p: Expr
    a: float
    b: float

    def __post_init__(self):
        if self.c_mid not in (0, 2):
            raise RecursionError_("only the middle coefficients 0 and 2 are supported")


def relation_from_constants(c_mid: int, a: float, b: float) -> SumFormRelation:
    g_q = add(neg(mul(ex.const(float(a)), cos(ex.t))), mul(ex.const(float(b)), sin(ex.t)))
    g_p = add(mul(ex.const(float(a)), sin(ex.t)), mul(ex.const(float(b)), cos(ex.t)))
    return SumFormRelation(c_mid, g_q, g_p, float(a), float(b))


def _seam(hist: History) -> tuple[np.ndarray, np.ndarray]:
    """q and p history at t0, t0 - tau and t0 - 2*tau."""
    ts = (hist.t0, hist.t0 - hist.tau, hist.t0 - 2 * hist.tau)
    hq, hp, _, _ = hist.fill(second_order=False)
    return hist.sample(hq, ts), hist.sample(hp, ts)


def recover_constants(hist: History, c_mid: int) -> tuple[float, float]:
    """Recover the two integral values from the history alone.

    Both relations are evaluated at the single base time inside the history
    where all three sample points are known (one delay before the history
    end); the resulting 2x2 trigonometric system has determinant -1 and is
    solved exactly.
    """
    if c_mid not in (0, 2):
        raise RecursionError_("only the middle coefficients 0 and 2 are supported")
    t0, tau = hist.t0, hist.tau
    q, p = _seam(hist)
    u = float(q[0] + c_mid * q[1] + q[2])
    v = float(p[0] + c_mid * p[1] + p[2])
    s = t0 - tau
    # the system matrix [[-cos s, sin s], [sin s, cos s]] is its own inverse
    a = -math.cos(s) * u + math.sin(s) * v
    b = math.sin(s) * u + math.cos(s) * v
    return a, b


def relation_from_history(hist: History, c_mid: int) -> SumFormRelation:
    a, b = recover_constants(hist, c_mid)
    return relation_from_constants(c_mid, a, b)


def seam_gap(rel: SumFormRelation, hist: History) -> tuple[float, float]:
    """Mismatch between the history end point and the first recursed value.

    Zero (up to round-off) exactly when the history already satisfies the sum
    relations at the seam; a nonzero gap propagates as a genuine jump.
    """
    q, p = _seam(hist)
    base = [hist.t0 - hist.tau]
    gap_q = hist.sample(rel.g_q, base)[0] - rel.c_mid * q[1] - q[2] - q[0]
    gap_p = hist.sample(rel.g_p, base)[0] - rel.c_mid * p[1] - p[2] - p[0]
    return float(abs(gap_q)), float(abs(gap_p))


def recurse(
    rel: SumFormRelation, hist: History, t_end: float, steps_per_delay: int
) -> Trajectory:
    """Propagate the solution on the standard grid without any integration.

    Each new value is the relation right-hand side one delay back minus the
    already-known earlier values; derivatives come from differentiating the
    same closed-form recursion.  A history inconsistent with the relations at
    the seam is allowed (the jump propagates) but triggers a warning.
    """
    n = steps_per_delay
    _, _, t = _grid(hist, t_end, n)
    start = 2 * n + 1
    base = t[start:] - hist.tau
    rhs = (rel.g_q, rel.g_p, partial(rel.g_q, "t"), partial(rel.g_p, "t"))
    state = []
    for e, g in zip(hist.fill(second_order=False), rhs):
        values = np.empty(len(t))
        values[:start] = hist.sample(e, t[:start])
        gv = hist.sample(g, base)
        for lo in range(start, len(t), n):
            hi = lo + n
            back1, back2 = values[lo - n : hi - n], values[lo - 2 * n : hi - 2 * n]
            values[lo:hi] = gv[lo - start : hi - start] - rel.c_mid * back1 - back2
        state.append(values)
    q, p, qd, pd = state

    gq, gp = seam_gap(rel, hist)
    if max(gq, gp) > 1e-9 * (1.0 + abs(q[2 * n]) + abs(p[2 * n])):
        warnings.warn(
            f"history does not satisfy the sum relations at the seam "
            f"(gaps q={gq:.3e}, p={gp:.3e}); the recursed solution jumps there",
            stacklevel=2,
        )
    return Trajectory(hist.tau, n, t, q, p, qd, pd, qd_left=qd.copy(), pd_left=pd.copy())


# ---------------------------------------------------------------------------
# trajectory comparison
# ---------------------------------------------------------------------------


@dataclass
class DiffStats:
    max_abs: float
    l2: float
    t_at_max: float


@dataclass
class ComparisonReport:
    components: dict[str, DiffStats]

    def max_component(self) -> float:
        return max((s.max_abs for s in self.components.values()), default=0.0)


def compare(a, b) -> ComparisonReport:
    """Per-component max and discrete L2 differences on a shared grid.

    A component is skipped when either trajectory does not carry it (None,
    as the momenta of a Lagrangian run or an all-nan CSV column).  A
    non-finite value in a component both carry raises `SolverError` naming
    its t.
    """
    if len(a.t) != len(b.t) or not np.allclose(a.t, b.t, rtol=0, atol=1e-12):
        raise SolverError("trajectories are not on the same grid")
    dt = float(a.t[1] - a.t[0]) if len(a.t) > 1 else 1.0
    out: dict[str, DiffStats] = {}
    for name in ("q", "p", "qd", "pd"):
        xa = getattr(a, name, None)
        xb = getattr(b, name, None)
        if xa is None or xb is None:
            continue
        finite = np.isfinite(xa) & np.isfinite(xb)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise SolverError(f"component {name} is not finite at t={a.t[bad]}")
        diff = np.abs(np.asarray(xa) - np.asarray(xb))
        imax = int(np.argmax(diff))
        out[name] = DiffStats(
            float(diff[imax]),
            float(math.sqrt(dt * float(np.sum(diff**2)))),
            float(a.t[imax]),
        )
    return ComparisonReport(out)
