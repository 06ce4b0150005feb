"""Method-of-steps integration of the advance-delay variational equations.

The canonical pair relates the state at t - tau, t, and t + tau.  Rebasing the
equations one delay back turns them into an explicit ODE for the newest
segment: the unknowns at time t enter only through the shifted slots of the
rebased equation.  Both formulations integrate a two-component state with the
one driver `_method_of_steps`: (q, p) for the canonical pair, (q, q') for the
second-order Lagrangian equation.  Each supplies only its history expressions
(`History.fill`), the expression roots of its right-hand side and two rate
lines that combine them with the lagged values and rates one and two delays
back.

The driver owns everything else.  The grid step is an exact divisor of the
delay, so shifted values sit on nodes, and the grid spans a whole number of
delays from t0 (`whole_delays`, the one grid rule, which the CLI checks
configs with).  It samples the history on
[t0 - 2*tau, t0] with `History.sample`, one array pass per expression (also
used by `recursion`).  It integrates each delay-length interval with
classical fixed-step fourth-order Runge-Kutta, and takes lagged values at
stage midpoints from cubic Hermite interpolation of the stored (value, rate)
pairs.  Rates of the solution jump at the knots t0 + k*tau (the usual
smoothing behaviour of delay equations), so both one-sided rates are stored at
every node, interpolation over a segment uses the branch belonging to that
segment, and integration never steps across a knot.  Every lagged value an
interval reads lies on pieces complete when it starts, so they are computed
once per interval in one numpy pass (`_lagged`); only the right-hand side on
the current state runs point by point, inside one generated Python function
per formulation (`_interval_step`) that holds the interval's whole RK4 loop.
Every stage holds the right-hand side's `expr.kernel_lines` (for the canonical
pair, both partials of H), the same emitter that writes every compiled
expression kernel, with the roots stored to locals.  It is compiled once per
model, and gives the bits of a per-stage kernel call.  A state or rate
that is not finite, or an overflow, division by zero or domain error in the
right-hand side or the history, raises `SolverError` naming the first grid
time t where it happened.  Grid nodes become jet points only in
`Trajectory.slots`, over which `residual_report` and the `noether` drift
monitors evaluate each expression in one array pass.  CSV files are written
and read in row blocks.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr, partial, symbol, symbols_of, to_source
from .model import DelayHamiltonian, QuadraticLagrangian, shifted_pair_partial, variational_residuals


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
        if not abs(self.t0) <= sys.float_info.max:  # inf, nan or an int beyond the double range
            raise ValueError("t0 must be a finite double")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        bad = symbols_of(self.q) - {ex.t}
        if self.p is not None:
            bad |= symbols_of(self.p) - {ex.t}
        if bad:
            names = ", ".join(sorted(s.name for s in bad))
            raise ValueError(f"history expressions may only involve t (got {names})")

    def sample(self, e: Expr, ts) -> np.ndarray:
        """Values of the t-expression `e` at every time in `ts`, in one pass.

        A value that is not finite, or an overflow, division by zero or domain
        error, raises `SolverError` naming the first such t.
        """
        ts = np.asarray(ts, dtype=float)
        try:
            values = ex.evaluate_many((e,), ex.grid_slots(self.tau, {ex.t: ts}))[0]
        except ex.EvalError as err:
            raise SolverError(f"{to_source(e)} failed at t={err.jet.t}: {err}") from None
        bad = ~np.isfinite(values)
        if bad.any():
            raise SolverError(f"{to_source(e)} is not finite at t={float(ts[np.argmax(bad)])}")
        return values

    def fill(self, second_order: bool) -> tuple[Expr, Expr, Expr, Expr]:
        """History of a two-component state and its rates: (q, p, q', p'),
        or (q, q', q', q'') for the second-order equation in q alone."""
        qd = partial(self.q, "t")
        if second_order:
            return self.q, qd, qd, partial(qd, "t")
        if self.p is None:
            raise SolverError("history carries no momentum expression")
        return self.q, self.p, qd, partial(self.p, "t")


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

    @property
    def h(self) -> float:
        return self.tau / self.steps_per_delay

    @property
    def start_index(self) -> int:
        """Index of the node t0: the history fills the two delays before it."""
        return 2 * self.steps_per_delay

    def slots(self, lo: int, hi: int, qdd=None) -> np.ndarray:
        """Slot array whose column i - lo is the jet at grid node i, lo <= i < hi.

        Shifted slots are the same samples one delay (`steps_per_delay` nodes)
        either side; `qdd` is an optional node array for the second
        derivative of q.  Slots the trajectory does not carry, or that fall
        off the grid, are nan.
        """
        rows = [(b, o, v) for b, o, v in (
            ("t", 0, self.t), ("q", 0, self.q), ("q", 1, self.qd), ("q", 2, qdd),
            ("p", 0, self.p), ("p", 1, self.pd),
        ) if v is not None]
        out = ex.grid_slots(self.tau, {symbol(b, 0, o): v[lo:hi] for b, o, v in rows})
        n = self.steps_per_delay
        for sh in (-1, 1):
            first, last = max(lo + sh * n, 0), min(hi + sh * n, len(self.t))
            if first >= last:
                continue
            columns = slice(first - sh * n - lo, last - sh * n - lo)
            for b, o, v in rows:
                out[symbol(b, sh, o).index, columns] = v[first:last]
        return out


def _lagged(y, d_right, d_left, hi: int, n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and rates of one component at the 2n + 1 grid positions hi - n,
    hi - n + 1/2, ..., hi of the smooth piece ending at node hi.  A node takes
    its right rate, except hi its left rate; a half-node takes the cubic
    Hermite interpolant of its two nodes on the branches of this piece."""
    lo = hi - n
    value, rate = np.empty((2, 2 * n + 1))
    value[::2] = y[lo : hi + 1]
    rate[::2] = d_right[lo:hi] + d_left[hi : hi + 1]
    y0, d0 = value[:-1:2], rate[:-1:2]
    y1, d1 = value[2::2], np.array(d_left[lo + 1 : hi + 1])
    # the cubic Hermite basis at frac = 1/2 (exact constants), summed in the
    # order of the pointwise formula so that the bits are the same
    with np.errstate(over="ignore", invalid="ignore"):
        value[1::2] = 0.5 * y0 + 0.125 * h * d0 + 0.5 * y1 - 0.125 * h * d1
        rate[1::2] = -1.5 * y0 / h - 0.25 * d0 + 1.5 * y1 / h - 0.25 * d1
    return value, rate


def whole_delays(t0: float, t_end: float, tau: float, steps_per_delay: int) -> int:
    """The whole number k >= 1 of delays from t0 to t_end: the one grid rule
    of the method of steps.  t_end must be a finite double, t_end - t0 must be
    k*tau to within 1e-9*|t_end - t0| plus the rounding of t_end, and
    the grid of (k + 2)*steps_per_delay + 1 nodes must fit one float64 numpy
    array.  `ValueError` otherwise, worded as a predicate on the span."""
    if not abs(t_end) <= sys.float_info.max:  # inf, nan or an int beyond the double range
        raise ValueError("must end at a finite double")
    span = float(t_end) - t0  # a float, so that a span of two large ints cannot overflow `/`
    delays = span / tau  # inf when the quotient overflows, nan when the span is nan
    most = sys.maxsize // 8  # the most nodes one float64 numpy array can hold
    # min caps a step count that would overflow the float product; past `most` it fails anyway
    if delays > 0 and not (delays + 2) * min(steps_per_delay, most) + 1 <= most:
        raise ValueError(f"needs more than {most} grid nodes")
    k = round(delays) if delays > 0 else 0
    # the tolerance scales with the span and has no absolute floor, so a large |t0| forgives
    # only the rounding of t_end, and a span of a few tiny delays is not rounded to whole ones
    if k < 1 or abs(span - k * tau) > 1e-9 * abs(span) + 4 * math.ulp(t_end):
        raise ValueError("must be a positive integer multiple of tau")
    return k


def _grid(hist: History, t_end: float, n: int) -> tuple[int, float, np.ndarray]:
    if n < 8:
        raise SolverError("steps_per_delay must be at least 8")
    try:
        k = whole_delays(hist.t0, t_end, hist.tau, n)
    except ValueError as err:
        raise SolverError(f"the span from t0 {hist.t0} to t_end {t_end} {err} (tau {hist.tau})") from None
    h = hist.tau / n
    m = (k + 2) * n
    t = hist.t0 + (np.arange(m + 1) - 2 * n) * h
    return k, h, t


# One delay interval of the RK4 method of steps for a rebased two-component
# state (a, b), generated per formulation by `_interval_step`.  `@unpack`
# binds the names of a lagged row, and `@rate` is the right-hand side at the
# stage state (ya, yb) and the row last unpacked: the `kernel_lines` of its
# roots, storing root j to rj, then the formulation's rate lines into (ka, kb).
_INTERVAL = """\
def _f(a, b, da_r, da_l, db_r, db_l, lag, t, start, h, tau, w):
    @weights
    h2, h6 = h / 2, h / 6
    node = start
    rows = iter(lag)
    try:
        row = next(rows)
        @unpack
        ya, yb = a[start], b[start]
        @rate
        if not (isfinite(ka) and isfinite(kb)):
            raise SolverError(f"state or rate is not finite at t={t[node]}")
        da_r[start], db_r[start] = ka, kb
        av, bv = ya, yb
        for row, end in zip(rows, rows):
            node += 1
            k1a, k1b = ka, kb
            @unpack
            ya, yb = av + h2 * k1a, bv + h2 * k1b
            @rate
            k2a, k2b = ka, kb
            ya, yb = av + h2 * k2a, bv + h2 * k2b
            @rate
            k3a, k3b = ka, kb
            row = end
            @unpack
            ya, yb = av + h * k3a, bv + h * k3b
            @rate
            av = av + h6 * (k1a + 2 * k2a + 2 * k3a + ka)
            bv = bv + h6 * (k1b + 2 * k2b + 2 * k3b + kb)
            ya, yb = av, bv
            @rate
            if not (isfinite(av) and isfinite(bv) and isfinite(ka) and isfinite(kb)):
                raise SolverError(f"state or rate is not finite at t={t[node]}")
            # at the closing knot both branches hold the left limit until
            # the next interval overwrites the right one
            a.append(av)
            b.append(bv)
            da_r.append(ka)
            da_l.append(ka)
            db_r.append(kb)
            db_l.append(kb)
    except (OverflowError, ZeroDivisionError, ValueError) as err:
        raise SolverError(f"right-hand side failed at t={t[node]}: {err}") from None
"""


def _interval_step(tag: str, roots: tuple[Expr, ...], row: str, slots: dict, weights: str,
                   rates: tuple[str, str]):
    """The generated interval step of one formulation, compiled once per
    roots and `tag` (which fixes the other arguments).

    `row` names the columns of a lagged row (its time tv first), `slots`
    maps each `Sym` the roots read to its source in terms of the row and the
    stage state ya/yb, `weights` names the entries of the weight tuple, and
    `rates` are the two rate expressions, with {0}, {1}, ... standing for the
    roots' values.
    """
    names = {s.index: name for s, name in slots.items()} | {ex.TAU_INDEX: "tau"}
    stored = [f"r{j}" for j in range(len(roots))]

    def source() -> str:
        blocks = {
            "@weights": [f"{weights} = w"],
            "@unpack": [f"{row} = row"],
            "@rate": [*ex.kernel_lines(roots, names.__getitem__, stored.__getitem__),
                      *(f"{k} = {r.format(*stored)}" for k, r in zip(("ka", "kb"), rates))],
        }
        out = []
        for line in _INTERVAL.splitlines():
            body = line.lstrip()
            indent = line[: len(line) - len(body)]
            out.extend(indent + x for x in blocks.get(body, [body]))
        return "\n".join(out) + "\n"

    env = {"isfinite": math.isfinite, "SolverError": SolverError}
    return ex.compiled_source((*map(id, roots), tag), source, env)


def _method_of_steps(hist: History, t_end: float, n: int, fill, interval, weights: tuple):
    """RK4 method of steps for a rebased two-component state (a, b).

    `fill` gives the history expressions in t for a, b, a' and b', and
    `interval` is the formulation's generated step (`_interval_step`) with
    its `weights`.  Returns the grid and the node arrays
    (t, a, b, da_right, da_left, db_right, db_left); the final node's right
    branch holds its left limit.
    """
    k, h, t_arr = _grid(hist, t_end, n)
    t = t_arr.tolist()
    a, b, da_r, db_r = (hist.sample(e, t_arr[: 2 * n + 1]).tolist() for e in fill)
    da_l, db_l = da_r[:], db_r[:]
    half = np.arange(2 * n + 1) * 0.5

    def piece(hi: int) -> list[np.ndarray]:
        return [*_lagged(a, da_r, da_l, hi, n, h), *_lagged(b, db_r, db_l, hi, n, h)]

    # the rebased equation sits one delay back and references two smooth
    # pieces; every lagged value an interval needs is known when it starts,
    # and its one-delay piece is the next interval's two-delay piece
    two = piece(n)
    for start in range(2 * n, (k + 2) * n, n):
        one = piece(start)
        # row 2j holds the node start + j, row 2j + 1 the half-node after it:
        # its time, then values and rates one and two delays back
        lag = np.vstack((hist.t0 + (start - 2 * n + half) * h, *one, *two)).T.tolist()
        two = one
        interval(a, b, da_r, da_l, db_r, db_l, lag, t, start, h, hist.tau, weights)
    return (t_arr, *(np.array(x) for x in (a, b, da_r, da_l, db_r, db_l)))


def step_hamiltonian(
    ham: DelayHamiltonian, hist: History, t_end: float, steps_per_delay: int
) -> Trajectory:
    """Integrate the delay canonical pair forward from smooth history.

    Rebasing one delay back requires solving for the newest derivatives, which
    is possible exactly when the outermost pairing weights are nonzero.
    """
    a1, a2, a3, a4 = (float(a) for a in ham.alphas)
    if not ham.solvable:
        raise SolverError(
            "cannot rebase the canonical equations: the outermost pairing "
            f"weights must be nonzero (got a1={a1}, a4={a4})"
        )
    fill = hist.fill(second_order=False)
    interval = _interval_step(
        "hamiltonian",
        (shifted_pair_partial(ham.h, "p"), shifted_pair_partial(ham.h, "q")),
        row="tv, qs, dqs, ps, dps, qs2, dqs2, ps2, dps2",
        # the rebased equation sits one delay back of the state
        slots={ex.t: "(tv - tau)", ex.tm: "(tv - 2 * tau)", ex.tp: "tv", ex.q: "qs",
               ex.qm: "qs2", ex.qp: "ya", ex.p: "ps", ex.pm: "ps2", ex.pp: "yb"},
        weights="a1, a23, a4",
        rates=("({0} - a23 * dqs - a4 * dqs2) / a1", "(-{1} - a23 * dps - a1 * dps2) / a4"),
    )
    t, q, p, qd, qd_l, pd, pd_l = _method_of_steps(
        hist, t_end, steps_per_delay, fill, interval, (a1, a2 + a3, a4)
    )
    return Trajectory(hist.tau, steps_per_delay, t, q, p, qd, pd, qd_left=qd_l, pd_left=pd_l)


def step_elsgolts(
    lag: QuadraticLagrangian, hist: History, t_end: float, steps_per_delay: int
) -> Trajectory:
    """Integrate the second-order delay variational equation for q alone.

    The state is (q, v) with v = q'; velocities are continuous, so only the
    second derivatives carry jumps at the knots.
    """
    interval = _interval_step(
        "elsgolts",
        (shifted_pair_partial(lag.phi, "q"),),
        row="tv, qs, dqs, vs, as1, qs2, dqs2, vs2, as2",
        slots={ex.q: "qs", ex.qm: "qs2", ex.qp: "ya"},
        weights="ag, beta",
        rates=("yb", "-(ag * as1 + beta * as2 + {0}) / beta"),
    )
    weights = (float(lag.alpha + lag.gamma), float(lag.beta))
    fill = hist.fill(second_order=True)
    t, q, v, _, _, qdd, qdd_l = _method_of_steps(hist, t_end, steps_per_delay, fill, interval, weights)
    return Trajectory(
        hist.tau, steps_per_delay, t, q, None, v, None, qd_left=v.copy(), qdd=qdd, qdd_left=qdd_l
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


def _centred(values: np.ndarray, h: float) -> np.ndarray:
    """Centred differences of node values; nan at the first and last node."""
    out = np.full(len(values), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    return out


def residual_report(traj: Trajectory, ham: DelayHamiltonian) -> ResidualTable:
    """Evaluate the three variational residuals at every interior node.

    First derivatives come from the stored samples (right-limit branch, so
    the check is one-sidedly consistent at knots).  H reads no derivative, so
    only the horizontal residual reads second derivatives, and of them only
    qdd and qddm: centred finite differences, missing at the first and last
    grid node.  So a residual that reads qddm is nan at the first row; any
    other value that is not finite raises `SolverError` naming the first
    such t.  The horizontal residual is reported, not asserted: it does not
    vanish on solutions of the canonical pair.
    """
    if traj.p is None:
        raise SolverError("residual evaluation needs a phase-space trajectory")
    n = traj.steps_per_delay
    lo, hi = n, len(traj.t) - n
    slots = traj.slots(lo, hi, _centred(traj.qd, traj.h))

    bad = []

    def along(name: str, e: Expr) -> np.ndarray:
        # grid node 0 is reached only from the first row one delay back
        first = 1 if ex.qddm in symbols_of(e) else 0
        out = np.full(hi - lo, math.nan)
        out[first:] = ex.evaluate_many((e,), slots[:, first:])[0]
        finite = np.isfinite(out[first:])
        if not finite.all():
            bad.append((first + int(np.argmin(finite)), name))
        return out

    rp, rq, rt = (along(*pair) for pair in zip(("Rp", "Rq", "Rt"), variational_residuals(ham)))
    if bad:
        row, name = min(bad)
        raise SolverError(f"residual {name} is not finite at t={traj.t[lo + row]}")
    return ResidualTable(np.arange(lo, hi), traj.t[lo:hi], rp, rq, rt)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

CSV_HEADER = "t,q,p,qdot,pdot,Rp,Rq,Rt"
_CSV_CELLS = CSV_HEADER.count(",") + 1
_CSV_ROW = ",".join(["%.17g"] * _CSV_CELLS) + "\n"
_CSV_BLOCK = 1024  # rows formatted or parsed at a time, so memory stays bounded


def write_csv(traj: Trajectory, stream, residuals: ResidualTable | None = None) -> None:
    """Emit the trajectory in the fixed column schema, 17 significant digits."""
    m = len(traj.t)
    table = np.full((m, _CSV_CELLS), math.nan)
    for column, values in enumerate((traj.t, traj.q, traj.p, traj.qd, traj.pd)):
        if values is not None:
            table[:, column] = values
    if residuals is not None:
        table[residuals.indices, 5:] = np.column_stack((residuals.rp, residuals.rq, residuals.rt))
    with (open(stream, "w", encoding="utf-8", newline="\n") if isinstance(stream, str)
          else contextlib.nullcontext(stream)) as out:
        out.write(CSV_HEADER + "\n")
        for lo in range(0, m, _CSV_BLOCK):
            block = table[lo : lo + _CSV_BLOCK]
            out.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


@dataclass
class CsvTrajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray | None
    qd: np.ndarray | None
    pd: np.ndarray | None


def _parse_block(lines: list[str], first: int) -> np.ndarray:
    """Parse CSV lines, numbered from `first`, into a (rows, 8) array."""
    if all(line.count(",") == _CSV_CELLS - 1 for line in lines):
        with contextlib.suppress(ValueError):
            return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), _CSV_CELLS)
    rows = []
    for number, line in enumerate(lines, first):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != _CSV_CELLS:
            raise SolverError(f"CSV line {number}: expected {_CSV_CELLS} cells, got {len(cells)}")
        try:
            rows.append(np.array(cells, dtype=float))
        except ValueError as err:
            raise SolverError(f"CSV line {number}: {err}") from None
    return np.array(rows).reshape(-1, _CSV_CELLS)


def read_csv(path_or_stream) -> CsvTrajectory:
    """Read the fixed schema back: its t, q, p, qdot and pdot columns, each
    of the last three None when it is all nan.

    A malformed row (named by its 1-based line) or a file without rows
    raises `SolverError`; bytes that are not UTF-8 make their row malformed.
    """
    blocks = [np.empty((0, _CSV_CELLS))]
    with (open(path_or_stream, "r", encoding="utf-8", errors="surrogateescape")
          if isinstance(path_or_stream, str)
          else contextlib.nullcontext(path_or_stream)) as stream:
        lines = iter(stream)
        number, header = next(((k, ln) for k, ln in enumerate(lines, 1) if ln.strip()), (0, ""))
        if header.strip() != CSV_HEADER:
            raise SolverError(f"expected header '{CSV_HEADER}'")
        while block := list(itertools.islice(lines, _CSV_BLOCK)):
            blocks.append(_parse_block(block, number + 1))
            number += len(block)
    data = np.concatenate(blocks)
    if not len(data):
        raise SolverError("CSV has no data rows")

    def col(i):
        column = data[:, i]
        return None if np.all(np.isnan(column)) else column

    return CsvTrajectory(data[:, 0], data[:, 1], col(2), col(3), col(4))
