"""Integration-free propagation from trigonometric first-integral relations.

For the oscillator families the two differential first integrals pin the
combinations q(t+tau) + c*q(t) + q(t-tau) and p(t+tau) + c*p(t) + p(t-tau)
(c = 0 for the nondegenerate kinetic coupling, c = 2 for the degenerate one)
to A,B-weighted sine/cosine data.  Evaluating the relations inside the
starting interval recovers A and B; rewriting them one delay back then
propagates the solution forward by pure algebra, one delay interval at a
time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr, add, cos, mul, neg, partial, sin
from .solver import History, SolverError, Trajectory, _grid, _history


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


def recover_constants(hist: History, c_mid: int) -> tuple[float, float]:
    """Recover the two integral values from the history alone.

    Both relations are evaluated at the single base time inside the history
    where all three sample points are known (one delay before the history
    end); the resulting 2x2 trigonometric system has determinant -1 and is
    solved exactly.
    """
    if c_mid not in (0, 2):
        raise RecursionError_("only the middle coefficients 0 and 2 are supported")
    if hist.p is None:
        raise RecursionError_("constant recovery needs both q and p history")
    t0, tau = hist.t0, hist.tau
    u = hist.q_at(t0) + c_mid * hist.q_at(t0 - tau) + hist.q_at(t0 - 2 * tau)
    v = hist.p_at(t0) + c_mid * hist.p_at(t0 - tau) + hist.p_at(t0 - 2 * tau)
    s = t0 - tau
    if c_mid == 0 and t0 == 0.0:
        # closed forms at base time -tau
        a = -math.cos(tau) * u - math.sin(tau) * v
        b = -math.sin(tau) * u + math.cos(tau) * v
        return a, b
    mat = np.array([[-math.cos(s), math.sin(s)], [math.sin(s), math.cos(s)]])
    sol = np.linalg.solve(mat, np.array([u, v]))
    return float(sol[0]), float(sol[1])


def relation_from_history(hist: History, c_mid: int) -> SumFormRelation:
    a, b = recover_constants(hist, c_mid)
    return relation_from_constants(c_mid, a, b)


def seam_gap(rel: SumFormRelation, hist: History) -> tuple[float, float]:
    """Mismatch between the history end point and the first recursed value.

    Zero (up to round-off) exactly when the history already satisfies the sum
    relations at the seam; a nonzero gap propagates as a genuine jump.
    """
    t0, tau = hist.t0, hist.tau
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = tau
    ti = ex.symbol("t", 0, 0).index

    def g(e, tv):
        slots[ti] = tv
        return ex.compiled(e)(slots)

    q_rec = g(rel.g_q, t0 - tau) - rel.c_mid * hist.q_at(t0 - tau) - hist.q_at(t0 - 2 * tau)
    p_rec = g(rel.g_p, t0 - tau) - rel.c_mid * hist.p_at(t0 - tau) - hist.p_at(t0 - 2 * tau)
    return abs(q_rec - hist.q_at(t0)), abs(p_rec - hist.p_at(t0))


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
    gq, gp = seam_gap(rel, hist)
    scale = 1.0 + abs(hist.q_at(hist.t0)) + abs(hist.p_at(hist.t0))
    if max(gq, gp) > 1e-9 * scale:
        warnings.warn(
            f"history does not satisfy the sum relations at the seam "
            f"(gaps q={gq:.3e}, p={gp:.3e}); the recursed solution jumps there",
            stacklevel=2,
        )

    tl = t.tolist()
    q, p, qd, pd = _history(tl, n, (hist.q_at, hist.p_at, hist.qd_at, hist.pd_at))
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = hist.tau
    ti = ex.symbol("t", 0, 0).index
    fgq = ex.compiled(rel.g_q)
    fgp = ex.compiled(rel.g_p)
    fgq_d = ex.compiled(partial(rel.g_q, "t"))
    fgp_d = ex.compiled(partial(rel.g_p, "t"))
    c = rel.c_mid
    for i in range(2 * n + 1, len(tl)):
        slots[ti] = tl[i] - hist.tau
        q.append(fgq(slots) - c * q[i - n] - q[i - 2 * n])
        p.append(fgp(slots) - c * p[i - n] - p[i - 2 * n])
        qd.append(fgq_d(slots) - c * qd[i - n] - qd[i - 2 * n])
        pd.append(fgp_d(slots) - c * pd[i - n] - pd[i - 2 * n])

    q, p, qd, pd = (np.array(x) for x in (q, p, qd, pd))
    return Trajectory(
        hist.tau, n, t, q, p, qd, pd,
        qd_left=qd.copy(), pd_left=pd.copy(), start_index=2 * n,
    )


def relation_residuals(rel: SumFormRelation, traj: Trajectory) -> tuple[float, float]:
    """Largest violation of the two sum relations on the trajectory grid."""
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = traj.tau
    ti = ex.symbol("t", 0, 0).index
    fgq = ex.compiled(rel.g_q)
    fgp = ex.compiled(rel.g_p)
    worst_q = worst_p = 0.0
    for i in range(n, m - n + 1):
        slots[ti] = traj.t[i]
        rq = traj.q[i + n] + rel.c_mid * traj.q[i] + traj.q[i - n] - fgq(slots)
        rp = traj.p[i + n] + rel.c_mid * traj.p[i] + traj.p[i - n] - fgp(slots)
        worst_q = max(worst_q, abs(rq))
        worst_p = max(worst_p, abs(rp))
    return worst_q, worst_p


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

    A component is skipped when either trajectory lacks it: absent, or not
    finite in any row (as the momenta of a Lagrangian run).  A non-finite
    value in a component both carry raises `SolverError` naming its t.
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
        fa, fb = np.isfinite(xa), np.isfinite(xb)
        if not fa.any() or not fb.any():
            continue
        finite = fa & fb
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
