"""Method-of-steps integration of the advance-delay variational equations.

The canonical pair relates the state at t - tau, t, and t + tau.  Rebasing the
equations one delay back turns them into an explicit ODE for the newest
segment: the unknowns at time t enter only through the shifted slots of the
rebased equation.  Both formulations integrate a two-component state with the
one driver `_method_of_steps`: (q, p) for the canonical pair, (q, q') for the
second-order Lagrangian equation.  Each supplies only its history functions
and a pointwise right-hand side of the state and of the lagged values and
rates one and two delays back.

The driver owns everything else.  The grid step is an exact divisor of the
delay, so shifted values sit on nodes.  It fills the history on
[t0 - 2*tau, t0] (`recursion.recurse` reuses that fill).  It integrates each
delay-length interval with classical fixed-step fourth-order Runge-Kutta, and
takes lagged values at stage midpoints from cubic Hermite interpolation of the
stored (value, rate) pairs.  Rates of the solution jump at the knots
t0 + k*tau (the usual smoothing behaviour of delay equations), so both
one-sided rates are stored at every node, interpolation over a segment uses
the branch belonging to that segment, and integration never steps across a
knot.  A state or rate that is not finite, or an overflow, division by zero or
domain error in the right-hand side, raises `SolverError` naming the first
grid time t where it happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr, partial, symbol, symbols_of
from .model import DelayHamiltonian, QuadraticLagrangian, shifted_pair_partial, variational_residuals

_T_ONLY = frozenset((symbol("t", 0, 0),))


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class History:
    """Smooth starting data on [t0 - 2*tau, t0], given as expressions in t."""

    t0: float
    tau: float
    q: Expr
    p: Expr | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        bad = symbols_of(self.q) - _T_ONLY
        if self.p is not None:
            bad |= symbols_of(self.p) - _T_ONLY
        if bad:
            names = ", ".join(sorted(s.name for s in bad))
            raise ValueError(f"history expressions may only involve t (got {names})")

    def _eval(self, e: Expr, tv: float) -> float:
        slots = [math.nan] * ex.NSLOTS
        slots[ex.TAU_INDEX] = self.tau
        slots[symbol("t", 0, 0).index] = tv
        out = ex.compiled(e)(slots)
        if not math.isfinite(out):
            raise SolverError(f"history expression is not finite at t={tv}")
        return out

    def q_at(self, tv: float) -> float:
        return self._eval(self.q, tv)

    def qd_at(self, tv: float) -> float:
        return self._eval(partial(self.q, "t"), tv)

    def qdd_at(self, tv: float) -> float:
        return self._eval(partial(partial(self.q, "t"), "t"), tv)

    def p_at(self, tv: float) -> float:
        if self.p is None:
            raise SolverError("history carries no momentum expression")
        return self._eval(self.p, tv)

    def pd_at(self, tv: float) -> float:
        if self.p is None:
            raise SolverError("history carries no momentum expression")
        return self._eval(partial(self.p, "t"), tv)


@dataclass
class Trajectory:
    """Uniform-grid samples; the delay is exactly `steps_per_delay` grid steps.

    Node times are t0 + i*h with integer i, so forward/backward delay shifts
    are exact index offsets.  `qd`/`pd` hold the right-limit derivative at
    knots (left limit at the final node); the `*_left` arrays carry the other
    one-sided limit where it differs.
    """

    tau: float
    steps_per_delay: int
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray | None
    qd: np.ndarray | None
    pd: np.ndarray | None
    qd_left: np.ndarray | None = None
    pd_left: np.ndarray | None = None
    qdd: np.ndarray | None = None
    qdd_left: np.ndarray | None = None
    start_index: int = 0

    @property
    def h(self) -> float:
        return self.tau / self.steps_per_delay

    def knot_indices(self) -> list[int]:
        n = self.steps_per_delay
        return list(range(self.start_index, len(self.t), n))


class _Segmented:
    """Lagged lookup over one smooth piece of the solution ending at node hi."""

    def __init__(self, values, d_right, d_left, h):
        self.values = values
        self.d_right = d_right
        self.d_left = d_left
        self.h = h

    def at(self, x: float, hi: int) -> tuple[float, float]:
        """Value and rate at grid position x, by cubic Hermite between nodes.

        A node takes its right rate, except the piece's end node `hi`, which
        takes its left rate.
        """
        j = int(math.floor(x + 1e-9))
        frac = x - j
        if abs(frac) < 1e-9:
            return self.values[j], (self.d_left if j >= hi else self.d_right)[j]
        h = self.h
        y0, d0 = self.values[j], self.d_right[j]
        y1, d1 = self.values[j + 1], self.d_left[j + 1]
        t2 = frac * frac
        t3 = t2 * frac
        value = (
            (2 * t3 - 3 * t2 + 1) * y0
            + (t3 - 2 * t2 + frac) * h * d0
            + (-2 * t3 + 3 * t2) * y1
            + (t3 - t2) * h * d1
        )
        rate = (
            (6 * t2 - 6 * frac) * y0 / h
            + (3 * t2 - 4 * frac + 1) * d0
            + (-6 * t2 + 6 * frac) * y1 / h
            + (3 * t2 - 2 * frac) * d1
        )
        return value, rate


def _grid(hist: History, t_end: float, n: int) -> tuple[int, float, np.ndarray]:
    if n < 8:
        raise SolverError("steps_per_delay must be at least 8")
    span = t_end - hist.t0
    k = round(span / hist.tau)
    if k < 1 or abs(span - k * hist.tau) > 1e-9 * max(1.0, abs(t_end)):
        raise SolverError(
            f"t_end must be t0 + k*tau for an integer k >= 1 (got span {span}, tau {hist.tau})"
        )
    h = hist.tau / n
    m = (k + 2) * n
    t = hist.t0 + (np.arange(m + 1) - 2 * n) * h
    return k, h, t


def _history(t: list[float], n: int, fns) -> list[list[float]]:
    """Sample each history function at the 2n + 1 nodes up to t0, node by node."""
    rows = [[f(tv) for f in fns] for tv in t[: 2 * n + 1]]
    return [list(column) for column in zip(*rows)]


def _method_of_steps(hist: History, t_end: float, n: int, fill, rhs):
    """RK4 method of steps for a rebased two-component state (a, b).

    `fill` gives the history functions of t for a, b, a' and b'.
    `rhs(tv, a, b, a1, da1, b1, db1, a2, da2, b2, db2)` returns (a', b') for
    the state (a, b) at the current time, where tv is the time two delays
    back and the suffixes 1 and 2 mark the lagged values and rates one and
    two delays back.  Returns the grid and the node arrays
    (t, a, b, da_right, da_left, db_right, db_left); the final node's right
    branch holds its left limit.
    """
    k, h, t_arr = _grid(hist, t_end, n)
    t = t_arr.tolist()
    a, b, da_r, db_r = _history(t, n, fill)
    da_l, db_l = da_r[:], db_r[:]
    look_a = _Segmented(a, da_r, da_l, h)
    look_b = _Segmented(b, db_r, db_l, h)
    t0 = hist.t0
    isfinite = math.isfinite

    def rates(x: float, av: float, bv: float, hi: int) -> tuple[float, float]:
        # x is the grid index of the current time; the rebased equation sits
        # one delay back and references two smooth pieces, ending at hi and
        # at hi - n.
        a1, da1 = look_a.at(x - n, hi)
        b1, db1 = look_b.at(x - n, hi)
        a2, da2 = look_a.at(x - 2 * n, hi - n)
        b2, db2 = look_b.at(x - 2 * n, hi - n)
        return rhs(t0 + (x - 2 * n) * h, av, bv, a1, da1, b1, db1, a2, da2, b2, db2)

    try:
        for start in range(2 * n, (k + 2) * n, n):
            node = start
            da, db = rates(start, a[start], b[start], start)
            if not (isfinite(da) and isfinite(db)):
                raise SolverError(f"state or rate is not finite at t={t[node]}")
            da_r[start], db_r[start] = da, db
            for i in range(start, start + n):
                node = i + 1
                av, bv = a[i], b[i]
                k1a, k1b = da_r[i], db_r[i]
                k2a, k2b = rates(i + 0.5, av + h / 2 * k1a, bv + h / 2 * k1b, start)
                k3a, k3b = rates(i + 0.5, av + h / 2 * k2a, bv + h / 2 * k2b, start)
                k4a, k4b = rates(i + 1.0, av + h * k3a, bv + h * k3b, start)
                av = av + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
                bv = bv + h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
                da, db = rates(i + 1.0, av, bv, start)
                if not (isfinite(av) and isfinite(bv) and isfinite(da) and isfinite(db)):
                    raise SolverError(f"state or rate is not finite at t={t[node]}")
                # at the closing knot both branches hold the left limit until
                # the next interval overwrites the right one
                a.append(av)
                b.append(bv)
                da_r.append(da)
                da_l.append(da)
                db_r.append(db)
                db_l.append(db)
    except (OverflowError, ZeroDivisionError, ValueError) as err:
        raise SolverError(f"right-hand side failed at t={t[node]}: {err}") from None
    return (t_arr, *(np.array(x) for x in (a, b, da_r, da_l, db_r, db_l)))


def step_hamiltonian(
    ham: DelayHamiltonian, hist: History, t_end: float, steps_per_delay: int
) -> Trajectory:
    """Integrate the delay canonical pair forward from smooth history.

    Rebasing one delay back requires solving for the newest derivatives, which
    is possible exactly when the outermost pairing weights are nonzero.
    """
    a1, a2, a3, a4 = (float(a) for a in ham.alphas)
    if a1 == 0.0 or a4 == 0.0:
        raise SolverError(
            "cannot rebase the canonical equations: the outermost pairing "
            f"weights must be nonzero (got a1={a1}, a4={a4})"
        )
    a23 = a2 + a3
    if hist.p is None:
        raise SolverError("the canonical equations need a momentum history")
    tau = hist.tau

    phi_p = ex.compiled(shifted_pair_partial(ham.h, "p"))
    phi_q = ex.compiled(shifted_pair_partial(ham.h, "q"))
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = tau
    it, itm, itp, iq, iqm, iqp, ip, ipm, ipp = (
        symbol(name, shift, 0).index for name in "tqp" for shift in (0, -1, 1)
    )

    def rhs(tv, qv, pv, qs, dqs, ps, dps, qs2, dqs2, ps2, dps2):
        slots[it] = tv - tau
        slots[itm] = tv - 2 * tau
        slots[itp] = tv
        slots[iq] = qs
        slots[iqm] = qs2
        slots[iqp] = qv
        slots[ip] = ps
        slots[ipm] = ps2
        slots[ipp] = pv
        qdot = (phi_p(slots) - a23 * dqs - a4 * dqs2) / a1
        pdot = (-phi_q(slots) - a23 * dps - a1 * dps2) / a4
        return qdot, pdot

    fill = (hist.q_at, hist.p_at, hist.qd_at, hist.pd_at)
    t, q, p, qd, qd_l, pd, pd_l = _method_of_steps(hist, t_end, steps_per_delay, fill, rhs)
    return Trajectory(
        tau, steps_per_delay, t, q, p, qd, pd,
        qd_left=qd_l, pd_left=pd_l, start_index=2 * steps_per_delay,
    )


def step_elsgolts(
    lag: QuadraticLagrangian, hist: History, t_end: float, steps_per_delay: int
) -> Trajectory:
    """Integrate the second-order delay variational equation for q alone.

    The state is (q, v) with v = q'; velocities are continuous, so only the
    second derivatives carry jumps at the knots.
    """
    beta = float(lag.beta)
    ag = float(lag.alpha + lag.gamma)

    psi = ex.compiled(shifted_pair_partial(lag.phi, "q"))
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = hist.tau
    qi = symbol("q", 0, 0).index
    qmi = symbol("q", -1, 0).index
    qpi = symbol("q", 1, 0).index

    def rhs(tv, qv, vv, qs, dqs, vs, as1, qs2, dqs2, vs2, as2):
        slots[qi] = qs
        slots[qmi] = qs2
        slots[qpi] = qv
        return vv, -(ag * as1 + beta * as2 + psi(slots)) / beta

    fill = (hist.q_at, hist.qd_at, hist.qd_at, hist.qdd_at)
    t, q, v, _, _, qdd, qdd_l = _method_of_steps(hist, t_end, steps_per_delay, fill, rhs)
    return Trajectory(
        hist.tau, steps_per_delay, t, q, None, v, None,
        qd_left=v.copy(), qdd=qdd, qdd_left=qdd_l, start_index=2 * steps_per_delay,
    )


# ---------------------------------------------------------------------------
# residual evaluation along a trajectory
# ---------------------------------------------------------------------------


@dataclass
class ResidualTable:
    indices: np.ndarray
    t: np.ndarray
    rp: np.ndarray
    rq: np.ndarray
    rt: np.ndarray

    def max_abs(self) -> dict[str, float]:
        def mx(a):
            good = a[np.isfinite(a)]
            return float(np.max(np.abs(good))) if good.size else math.nan

        return {"Rp": mx(self.rp), "Rq": mx(self.rq), "Rt": mx(self.rt)}


def residual_report(traj: Trajectory, ham: DelayHamiltonian) -> ResidualTable:
    """Evaluate the three variational residuals at every interior node.

    First derivatives come from the stored samples (right-limit branch, so
    the check is one-sidedly consistent at knots); second derivatives, needed
    only by the horizontal residual, are centered finite differences.  The
    horizontal residual is reported, not asserted: it does not vanish on
    solutions of the canonical pair.
    """
    if traj.p is None:
        raise SolverError("residual evaluation needs a phase-space trajectory")
    rp_e, rq_e, rt_e = variational_residuals(ham)
    fns = [ex.compiled(e) for e in (rp_e, rq_e, rt_e)]
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    h = traj.h
    slots_template = [math.nan] * ex.NSLOTS
    slots_template[ex.TAU_INDEX] = traj.tau

    def second(arr, j):
        if j - 1 < 0 or j + 1 > m:
            return math.nan
        return (arr[j + 1] - arr[j - 1]) / (2 * h)

    rows = []
    for i in range(n, m - n + 1):
        slots = list(slots_template)
        for sh, j in ((-1, i - n), (0, i), (1, i + n)):
            slots[symbol("t", sh, 0).index] = traj.t[j]
            slots[symbol("q", sh, 0).index] = traj.q[j]
            slots[symbol("p", sh, 0).index] = traj.p[j]
            slots[symbol("q", sh, 1).index] = traj.qd[j]
            slots[symbol("p", sh, 1).index] = traj.pd[j]
            slots[symbol("q", sh, 2).index] = second(traj.qd, j)
            slots[symbol("p", sh, 2).index] = second(traj.pd, j)
        rows.append((i, traj.t[i], fns[0](slots), fns[1](slots), fns[2](slots)))
    arr = np.array(rows)
    return ResidualTable(arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

CSV_HEADER = "t,q,p,qdot,pdot,Rp,Rq,Rt"


def write_csv(traj: Trajectory, stream, residuals: ResidualTable | None = None) -> None:
    """Emit the trajectory in the fixed column schema, 17 significant digits."""
    close = False
    if isinstance(stream, (str,)):
        stream = open(stream, "w", encoding="utf-8", newline="\n")
        close = True
    try:
        stream.write(CSV_HEADER + "\n")
        res = {}
        if residuals is not None:
            for row, tv in enumerate(residuals.indices):
                res[int(tv)] = (residuals.rp[row], residuals.rq[row], residuals.rt[row])
        for i in range(len(traj.t)):
            cells = [
                traj.t[i],
                traj.q[i],
                traj.p[i] if traj.p is not None else math.nan,
                traj.qd[i] if traj.qd is not None else math.nan,
                traj.pd[i] if traj.pd is not None else math.nan,
                *res.get(i, (math.nan, math.nan, math.nan)),
            ]
            stream.write(",".join(f"{c:.17g}" for c in cells) + "\n")
    finally:
        if close:
            stream.close()


@dataclass
class CsvTrajectory:
    tau: float
    steps_per_delay: int
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray | None
    qd: np.ndarray | None
    pd: np.ndarray | None


def read_csv(path_or_stream) -> CsvTrajectory:
    """Read the fixed schema back; delay metadata is left unset (zero)."""
    if isinstance(path_or_stream, str):
        with open(path_or_stream, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path_or_stream.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise SolverError(f"expected header '{CSV_HEADER}'")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    def col(i):
        column = data[:, i]
        return None if np.all(np.isnan(column)) else column
    return CsvTrajectory(0.0, 0, data[:, 0], data[:, 1], col(2), col(3), col(4))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def observed_orders(errors: list[float]) -> list[float]:
    """log2 ratios of consecutive errors for a step-halving sequence."""
    out = []
    for a, b in zip(errors, errors[1:]):
        if b == 0:
            out.append(math.inf)
        else:
            out.append(math.log2(a / b))
    return out


def fitted_order(ns: list[int], errors: list[float]) -> float:
    """Least-squares slope of log2(error) against log2(N)."""
    xs = np.log2(np.array(ns, dtype=float))
    ys = np.log2(np.array(errors, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)
