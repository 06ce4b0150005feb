import builtins
import contextlib
import dataclasses
import io
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayham import expr as E
from delayham import model as M
from delayham import recursion as R
from delayham import solver as S

import conftest
from conftest import assert_same_bits, observed_orders


def _max_abs(table: S.ResidualTable) -> dict[str, float]:
    """Largest finite |residual| of each column of a residual table (nan if none)."""

    def mx(a):
        good = a[np.isfinite(a)]
        return float(np.max(np.abs(good))) if good.size else math.nan

    return {"Rp": mx(table.rp), "Rq": mx(table.rq), "Rt": mx(table.rt)}


def test_exact_solution_reproduced(oscillator, sincos_history):
    # sine/cosine history continues the delayed oscillator exactly
    _, ham = oscillator
    traj = S.step_hamiltonian(ham, sincos_history, 10.0, 64)
    assert np.max(np.abs(traj.q - np.sin(traj.t))) < 1e-7
    assert np.max(np.abs(traj.p - np.cos(traj.t))) < 1e-7


def test_residual_self_check(oscillator, sincos_history):
    _, ham = oscillator
    traj = S.step_hamiltonian(ham, sincos_history, 10.0, 64)
    table = S.residual_report(traj, ham)
    stats = _max_abs(table)
    assert stats["Rp"] <= 1e-6
    assert stats["Rq"] <= 1e-6
    # the horizontal residual does not vanish on solutions of the pair
    assert 1e-3 < stats["Rt"] < 1e3


def test_grid_time_shift_is_exact(oscillator, sincos_history):
    _, ham = oscillator
    traj = S.step_hamiltonian(ham, sincos_history, 6.0, 32)
    n = traj.steps_per_delay
    for i in range(0, len(traj.t) - n, 7):
        assert traj.t[i + n] - traj.t[i] == traj.tau


def test_zero_hamiltonian_wave_continuation():
    ham = M.DelayHamiltonian(E.ZERO, (1, 0, 0, 1))
    hist = S.History(0.0, 1.0, E.parse("t^2/8"), E.ZERO)
    traj = S.step_hamiltonian(ham, hist, 4.0, 16)
    n = traj.steps_per_delay
    # the rebased equation forces qd(t) = -qd(t - 2*tau)
    for i in range(2 * n, len(traj.t) - 1, 5):
        assert traj.qd[i] == pytest.approx(-traj.qd[i - 2 * n], abs=1e-9)


def test_zero_hamiltonian_constant_history():
    ham = M.DelayHamiltonian(E.ZERO, (1, 0, 0, 1))
    hist = S.History(0.0, 1.0, E.ONE, E.parse("2"))
    traj = S.step_hamiltonian(ham, hist, 5.0, 16)
    assert np.allclose(traj.q, 1.0)
    assert np.allclose(traj.p, 2.0)
    stats = _max_abs(S.residual_report(traj, ham))
    assert all(v <= 1e-12 for v in stats.values())


def test_elsgolts_matches_hamiltonian_route(oscillator, sincos_history):
    lag, ham = oscillator
    a = S.step_hamiltonian(ham, sincos_history, 10.0, 64)
    b = S.step_elsgolts(lag, sincos_history, 10.0, 64)
    assert np.max(np.abs(a.q - b.q)) <= 1e-6
    # a Lagrangian run carries no momenta, so it has no canonical residuals
    with pytest.raises(S.SolverError, match="needs a phase-space trajectory"):
        S.residual_report(b, ham)


def test_elsgolts_pure_kinetic_second_derivative_wave():
    lag = M.QuadraticLagrangian(0, 1, 0, E.ZERO)
    hist = S.History(0.0, 1.0, E.parse("t^3/48"), None)
    traj = S.step_elsgolts(lag, hist, 4.0, 16)
    n = traj.steps_per_delay
    for i in range(2 * n + 1, len(traj.t) - 1, 5):
        assert traj.qdd[i] == pytest.approx(-traj.qdd[i - 2 * n], abs=1e-9)


def test_degenerate_cross_validation(degenerate_oscillator, sincos_history):
    lag, ham = degenerate_oscillator
    a = S.step_hamiltonian(ham, sincos_history, 10.0, 64)
    b = S.step_elsgolts(lag, sincos_history, 10.0, 64)
    assert np.max(np.abs(a.q - b.q)) <= 1e-6


@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(conftest.lagrangian_models(generators=0))
def test_the_hamiltonian_and_lagrangian_routes_agree_at_fourth_order(model):
    # history p is the momentum map (beta/a1)*qd of history q, so both routes
    # integrate one solution; each is O(h^4), so their gap is too
    lag, res, _ = model
    momentum = E.mul(E.div(lag.beta, res.hamiltonian.alphas[0]), E.cos(E.t))
    hist = S.History(0.0, 1.0, E.sin(E.t), momentum)
    gaps = []
    for n in (16, 32):
        a = S.step_hamiltonian(res.hamiltonian, hist, 2.0, n)
        b = S.step_elsgolts(lag, hist, 2.0, n)
        gaps.append(float(np.max(np.abs(a.q - b.q))))
    assert gaps[0] >= 8 * gaps[1] or max(gaps) < 1e-11, gaps


def test_convergence_with_derivative_jumps(oscillator):
    # a history that is not a solution seeds genuine derivative jumps at the
    # knots; self-convergence must stay at the scheme's order
    _, ham = oscillator
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t) + t/4"))
    errors = []
    for n in (32, 64, 128):
        a = S.step_hamiltonian(ham, hist, 6.0, n)
        b = S.step_hamiltonian(ham, hist, 6.0, 2 * n)
        errors.append(float(np.max(np.abs(a.q - b.q[::2]))))
    for order in observed_orders(errors):
        assert order >= 3.0


def test_first_derivative_jumps_are_represented(oscillator):
    _, ham = oscillator
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t) + t/4"))
    traj = S.step_hamiltonian(ham, hist, 3.0, 32)
    start = traj.start_index
    gap = abs(traj.qd[start] - traj.qd_left[start])
    assert gap > 1e-3  # inconsistent history forces a genuine kink


def test_second_derivative_jumps_are_represented(oscillator):
    lag, _ = oscillator
    hist = S.History(0.0, 1.0, E.parse("sin(t) + t/4"), None)
    traj = S.step_elsgolts(lag, hist, 3.0, 32)
    start = traj.start_index
    assert abs(traj.qdd[start] - traj.qdd_left[start]) > 1e-3


def test_final_node_carries_left_branch(oscillator):
    lag, ham = oscillator
    hist = S.History(0.0, 1.0, E.parse("sin(t) + t/4"), E.parse("cos(t) + t/4"))
    a = S.step_hamiltonian(ham, hist, 3.0, 32)
    assert a.qd[-1] == a.qd_left[-1]
    assert a.pd[-1] == a.pd_left[-1]
    b = S.step_elsgolts(lag, hist, 3.0, 32)
    assert b.qd[-1] == b.qd_left[-1]
    assert b.qdd[-1] == b.qdd_left[-1]


def test_rejects_non_commensurate_horizon(oscillator, sincos_history):
    _, ham = oscillator
    with pytest.raises(S.SolverError):
        S.step_hamiltonian(ham, sincos_history, 2.5, 16)


@pytest.mark.parametrize("integrate", ["hamiltonian", "elsgolts", "recurse"])
@pytest.mark.parametrize(
    "tau, t_end, why",
    [(1.0, math.inf, "finite double"), (1.0, -math.inf, "finite double"),
     (1.0, math.nan, "finite double"), (1.0, 10**400, "finite double"), (1e-300, 1e10, "grid nodes")],
    ids=["inf", "-inf", "nan", "int-10^400", "delays-overflow"],
)
def test_a_span_with_no_grid_is_a_solver_error(oscillator, integrate, tau, t_end, why):
    # these ended in a raw OverflowError or ValueError from round()
    lag, ham = oscillator
    hist = S.History(0.0, tau, E.parse("sin(t)"), E.parse("cos(t)"))
    run = {
        "hamiltonian": lambda: S.step_hamiltonian(ham, hist, t_end, 8),
        "elsgolts": lambda: S.step_elsgolts(lag, hist, t_end, 8),
        "recurse": lambda: R.recurse(R.relation_from_history(hist, 0), hist, t_end, 8),
    }[integrate]
    with pytest.raises(S.SolverError, match=f"^the span from t0 0.0 to t_end .* {why}.* \\(tau {tau}\\)$"):
        run()


@pytest.mark.parametrize("t0", [math.inf, math.nan, -10**400], ids=["inf", "nan", "int--10^400"])
def test_a_history_starts_at_a_finite_double(t0):
    # the span arithmetic of the grid raised a raw OverflowError on the int
    with pytest.raises(ValueError, match="^t0 must be a finite double$"):
        S.History(t0, 1.0, E.parse("sin(t)"))


def test_a_span_of_two_ints_beyond_the_double_range_is_a_solver_error(oscillator):
    # t_end - t0 is the int 2*10**308, whose quotient by tau raised a raw OverflowError
    _, ham = oscillator
    hist = S.History(-(10**308), 1.0, E.parse("sin(t)"), E.parse("cos(t)"))
    with pytest.raises(S.SolverError, match="needs more than .* grid nodes"):
        S.step_hamiltonian(ham, hist, 10**308, 8)


def test_rejects_small_step_count(oscillator, sincos_history):
    _, ham = oscillator
    with pytest.raises(S.SolverError):
        S.step_hamiltonian(ham, sincos_history, 3.0, 4)


def test_rejects_unsolvable_pairing_weights(sincos_history):
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (0, 0, 1, 0))
    with pytest.raises(S.SolverError):
        S.step_hamiltonian(ham, sincos_history, 3.0, 16)


def test_history_validation():
    with pytest.raises(ValueError):
        S.History(0.0, 1.0, E.q, None)
    with pytest.raises(ValueError):
        S.History(0.0, -1.0, E.t, None)
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), None)
    _, qd, _, qdd = hist.fill(second_order=True)
    assert hist.sample(qd, [0.0])[0] == pytest.approx(1.0)
    assert hist.sample(qdd, [0.0])[0] == pytest.approx(0.0)
    with pytest.raises(S.SolverError):
        hist.fill(second_order=False)


def test_csv_round_trip(oscillator, sincos_history):
    _, ham = oscillator
    traj = S.step_hamiltonian(ham, sincos_history, 3.0, 16)
    table = S.residual_report(traj, ham)
    buf = io.StringIO()
    S.write_csv(traj, buf, table)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,q,p,qdot,pdot,Rp,Rq,Rt"
    back = S.read_csv(io.StringIO(text))
    assert np.allclose(back.t, traj.t)
    assert np.allclose(back.q, traj.q)
    assert np.allclose(back.p, traj.p)


def test_csv_rejects_wrong_header():
    with pytest.raises(S.SolverError):
        S.read_csv(io.StringIO("a,b,c\n1,2,3\n"))


def _residual_rows(traj, ham):
    """Residual table evaluated one node at a time (the reference layout)."""
    rp_e, rq_e, rt_e = M.variational_residuals(ham)
    fns = [E.compiled(e) for e in (rp_e, rq_e, rt_e)]
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    h = traj.h
    template = [float("nan")] * E.NSLOTS
    template[E.TAU_INDEX] = traj.tau

    def second(arr, j):
        if j - 1 < 0 or j + 1 > m:
            return float("nan")
        return (arr[j + 1] - arr[j - 1]) / (2 * h)

    rows = []
    for i in range(n, m - n + 1):
        slots = list(template)
        for sh, j in ((-1, i - n), (0, i), (1, i + n)):
            slots[E.symbol("t", sh, 0).index] = traj.t[j]
            slots[E.symbol("q", sh, 0).index] = traj.q[j]
            slots[E.symbol("p", sh, 0).index] = traj.p[j]
            slots[E.symbol("q", sh, 1).index] = traj.qd[j]
            slots[E.symbol("p", sh, 1).index] = traj.pd[j]
            slots[E.symbol("q", sh, 2).index] = second(traj.qd, j)
            slots[E.symbol("p", sh, 2).index] = second(traj.pd, j)
        rows.append((i, traj.t[i], fns[0](slots), fns[1](slots), fns[2](slots)))
    return np.array(rows)


@pytest.mark.parametrize(
    "h_src, hist_q, hist_p",
    [
        ("p*pm + q*qm", "sin(t)", "cos(t)"),
        ("p*pm + q^2*qm/4 + exp(q*qm)/8 + sin(t)*q", "sin(t)/2", "cos(t)/2 + t/5"),
    ],
    ids=["oscillator", "pow-exp-sin"],
)
def test_residual_report_matches_node_loop(h_src, hist_q, hist_p):
    ham = M.DelayHamiltonian(E.parse(h_src), (1, 0, 0, 1))
    hist = S.History(0.0, 1.0, E.parse(hist_q), E.parse(hist_p))
    traj = S.step_hamiltonian(ham, hist, 4.0, 16)
    table = S.residual_report(traj, ham)
    want = _residual_rows(traj, ham)
    assert np.array_equal(table.indices, want[:, 0].astype(int))
    for got, column in ((table.t, 1), (table.rp, 2), (table.rq, 3), (table.rt, 4)):
        assert_same_bits(got, want[:, column])
    # the centred second difference is missing one delay back of the first row
    assert np.isnan(table.rt[0]) and np.isfinite(table.rt[-1])


def _first_non_finite(traj, ham):
    """(t, name) of the first residual value the node loop gives that is not
    finite, leaving out the documented nan row of Rt, and how many of the
    three residuals have such a value."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _residual_rows(traj, ham)
    bad = ~np.isfinite(want[:, 2:])
    bad[0, 2] = False
    row = int(np.argmax(bad.any(axis=1)))
    assert bad[row].any()
    return want[row, 1], ("Rp", "Rq", "Rt")[int(np.argmax(bad[row]))], int(bad.any(axis=0).sum())


@pytest.mark.parametrize("planted", [False, True], ids=["time-term-overflow", "planted-velocity"])
def test_residual_report_rejects_non_finite_values(planted):
    # 6e306*t^5 overflows to inf on both sides of Rt once t > ~1.97, while the
    # right-hand side (the q- and p-partials) stays finite
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm + 1e306*t^6"), (1, 0, 0, 1))
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t)"))
    traj = S.step_hamiltonian(ham, hist, 4.0, 16)
    assert np.isfinite(traj.q).all() and np.isfinite(traj.pd).all()
    if planted:
        # large but finite velocities at nodes 20 and 52: their centred
        # differences overflow in Rt near node 20, and qdp + qdm in Rp one
        # delay later, so the residuals fail first at different rows
        qd = traj.qd.copy()
        qd[[20, 52]] = 1e308
        traj = dataclasses.replace(traj, qd=qd)
    t, name, failing = _first_non_finite(traj, ham)
    assert failing == (2 if planted else 1)
    with pytest.raises(S.SolverError, match=f"residual {name} is not finite at t={t}$"):
        S.residual_report(traj, ham)


def test_lagged_matches_segmented_lookup_on_distinct_branches():
    # random pieces whose right and left rates differ at every node
    rng = np.random.default_rng(7)
    n, h = 8, 0.1
    y, d_right, d_left = (rng.uniform(-3, 3, 3 * n + 1).tolist() for _ in range(3))
    look = _Segmented(y, d_right, d_left, h)
    for hi in (n, 2 * n, 3 * n):
        value, rate = S._lagged(y, d_right, d_left, hi, n, h)
        want = np.array([look.at(hi - n + k / 2, hi) for k in range(2 * n + 1)])
        assert_same_bits(value, want[:, 0])
        assert_same_bits(rate, want[:, 1])


# ---------------------------------------------------------------------------
# per-interval lagged data against a per-position lookup
# ---------------------------------------------------------------------------


class _Segmented:
    """Lagged lookup over one smooth piece of the solution ending at node hi,
    one position at a time: the reference for `solver._lagged`."""

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


@pytest.mark.parametrize("formulation", ["hamiltonian", "lagrangian"])
def test_lagged_pieces_match_segmented_lookup(oscillator, monkeypatch, formulation):
    # a history that is not a solution makes both one-sided rates differ at
    # every knot, so each piece's end nodes pick distinct branches
    lag, ham = oscillator
    hist = S.History(0.0, 1.0, E.parse("sin(t) + t/4"), E.parse("cos(t) + t/4"))
    n, horizon = 16, 4
    seen = []
    lagged = S._lagged

    def checked(y, d_right, d_left, hi, pieces_n, h):
        value, rate = lagged(y, d_right, d_left, hi, pieces_n, h)
        look = _Segmented(list(y), list(d_right), list(d_left), h)
        want = np.array([look.at(hi - n + k / 2, hi) for k in range(2 * n + 1)])
        assert_same_bits(value, want[:, 0])
        assert_same_bits(rate, want[:, 1])
        seen.append((hi, d_right[hi - n] != d_left[hi - n], d_right[hi] != d_left[hi]))
        return value, rate

    monkeypatch.setattr(S, "_lagged", checked)
    if formulation == "hamiltonian":
        traj = S.step_hamiltonian(ham, hist, float(horizon), n)
    else:
        traj = S.step_elsgolts(lag, hist, float(horizon), n)
    # one piece per component for each delay interval, plus the history piece
    # two delays back of the first interval
    his = [hi for hi, _, _ in seen]
    assert sorted(his) == sorted(2 * list(range(n, (horizon + 2) * n, n)))
    assert any(jump for _, start_jump, end_jump in seen for jump in (start_jump, end_jump))
    assert len(traj.t) == (horizon + 2) * n + 1


# ---------------------------------------------------------------------------
# CSV bytes against the row-by-row writer
# ---------------------------------------------------------------------------


def _csv_rows(traj, residuals=None) -> str:
    """The trajectory CSV formatted one cell at a time (the reference layout)."""
    out = [S.CSV_HEADER + "\n"]
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
        out.append(",".join(f"{c:.17g}" for c in cells) + "\n")
    return "".join(out)


SPECIAL_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3]


def _with_special_cells(traj, table):
    """Copies of `traj` and `table` with every special value planted in each
    column at a few rows, the last block of rows included."""
    traj = dataclasses.replace(
        traj, **{name: getattr(traj, name).copy() for name in ("t", "q", "p", "qd", "pd")
                 if getattr(traj, name) is not None}
    )
    columns = [getattr(traj, name) for name in ("t", "q", "p", "qd", "pd")]
    if table is not None:
        table = dataclasses.replace(
            table, rp=table.rp.copy(), rq=table.rq.copy(), rt=table.rt.copy()
        )
        columns += [table.rp, table.rq, table.rt]
    for c, column in enumerate(columns):
        if column is None:
            continue
        for k, value in enumerate(SPECIAL_CELLS):
            column[(37 * c + 101 * k) % len(column)] = value
            column[-1 - k] = value
    return traj, table


@pytest.mark.parametrize(
    "formulation, residuals",
    [("hamiltonian", True), ("hamiltonian", False), ("lagrangian", False)],
    ids=["hamiltonian-residuals", "hamiltonian", "lagrangian"],
)
def test_write_csv_matches_row_loop_and_reads_back_bit_exactly(
    oscillator, sincos_history, formulation, residuals
):
    lag, ham = oscillator
    # 1,633 rows: more than one block of rows
    if formulation == "hamiltonian":
        traj = S.step_hamiltonian(ham, sincos_history, 100.0, 16)
    else:
        traj = S.step_elsgolts(lag, sincos_history, 100.0, 16)
    table = S.residual_report(traj, ham) if residuals else None
    assert len(traj.t) > S._CSV_BLOCK
    for case in (traj, table), _with_special_cells(traj, table):
        buf = io.StringIO()
        S.write_csv(case[0], buf, case[1])
        text = buf.getvalue()
        assert text == _csv_rows(*case)
        back = S.read_csv(io.StringIO(text))
        for name in ("t", "q", "p", "qd", "pd"):
            want = getattr(case[0], name)
            if want is None:
                assert getattr(back, name) is None
            else:
                assert_same_bits(getattr(back, name), want)


def test_read_csv_skips_blank_lines_and_names_bad_ones():
    row = ",".join(["1.5"] * 8)
    back = S.read_csv(io.StringIO(f"\n{S.CSV_HEADER}\n{row}\n\n  \n{row}\n"))
    assert back.t.tolist() == [1.5, 1.5]
    # a block of lines may be blank only; a file needs one row at least
    for text in (f"{S.CSV_HEADER}\n", f"{S.CSV_HEADER}\n\n\n"):
        with pytest.raises(S.SolverError, match="CSV has no data rows$"):
            S.read_csv(io.StringIO(text))
    blank_block = "\n" * S._CSV_BLOCK
    assert len(S.read_csv(io.StringIO(f"{S.CSV_HEADER}\n{row}\n{blank_block}")).t) == 1
    for bad, message in (
        ("1,2,3", "line 4: expected 8 cells, got 3"),
        (",".join(["1"] * 16), "line 4: expected 8 cells, got 16"),
        (",".join(["1"] * 7 + ["x"]), "line 4: could not convert string to float: 'x'"),
        (",".join(["1"] * 7 + [""]), "line 4: could not convert string to float: ''"),
    ):
        with pytest.raises(S.SolverError, match=f"CSV {message}$"):
            S.read_csv(io.StringIO(f"{S.CSV_HEADER}\n{row}\n\n{bad}\n{row}\n"))
    # a short and a long row that together hold a whole number of rows
    long_row = ",".join(["1"] * 13)
    with pytest.raises(S.SolverError, match="CSV line 3: expected 8 cells, got 3$"):
        S.read_csv(io.StringIO(f"{S.CSV_HEADER}\n{row}\n1,2,3\n{long_row}\n{row}\n"))


# ---------------------------------------------------------------------------
# CSV reading against the per-line parser
# ---------------------------------------------------------------------------


def _reference_parse_block(lines, first):
    """The block parser `read_csv` had before numpy's C reader: a
    comma-count check, one float array over every cell, else line by line."""
    if all(line.count(",") == S._CSV_CELLS - 1 for line in lines):
        try:
            return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), S._CSV_CELLS)
        except ValueError:
            pass
    rows = []
    for number, line in enumerate(lines, first):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != S._CSV_CELLS:
            raise S.SolverError(f"CSV line {number}: expected {S._CSV_CELLS} cells, got {len(cells)}")
        try:
            rows.append(np.array(cells, dtype=float))
        except ValueError as err:
            raise S.SolverError(f"CSV line {number}: {err}") from None
    return np.array(rows).reshape(-1, S._CSV_CELLS)


def _reference_read_csv(path_or_stream):
    """`read_csv` with `_reference_parse_block`."""
    blocks = [np.empty((0, S._CSV_CELLS))]
    with (open(path_or_stream, "r", encoding="utf-8", errors="surrogateescape")
          if isinstance(path_or_stream, str) else contextlib.nullcontext(path_or_stream)) as stream:
        lines = iter(stream)
        number, header = next(((k, ln) for k, ln in enumerate(lines, 1) if ln.strip()), (0, ""))
        if header.strip() != S.CSV_HEADER:
            raise S.SolverError(f"expected header '{S.CSV_HEADER}'")
        while block := list(itertools.islice(lines, S._CSV_BLOCK)):
            blocks.append(_reference_parse_block(block, number + 1))
            number += len(block)
    data = np.concatenate(blocks)
    if not len(data):
        raise S.SolverError("CSV has no data rows")
    columns = (None if i > 1 and np.all(np.isnan(data[:, i])) else data[:, i] for i in range(5))
    return S.CsvTrajectory(*columns)


FLOAT_CELL = st.floats(width=64).map(lambda x: "%.17g" % x)
# "\udcff" is the byte 0xff, which is not UTF-8, as a file read by path decodes it
ODD_CELLS = [
    "nan", "-nan", "NaN", "inf", "-inf", "infinity", "-Infinity", "+1", " 1.5 ", "\t2\x0c", "1e400",
    ".5", "5.", "1_0", "2#3", "", " ", "x", "0x10", "1 2", "\"1\"", "\u0661", "\u00a01.5", "1\x00",
    "1\udcff", "\udcff",
]
ODD_CELL = st.sampled_from(ODD_CELLS)
FLOAT_CELLS = st.lists(FLOAT_CELL, min_size=S._CSV_CELLS, max_size=S._CSV_CELLS)
CSV_ROW = FLOAT_CELLS.map(",".join)
CSV_LINE = st.one_of(
    CSV_ROW,
    # a whole row but for one odd cell, where a cell read short or refused shows
    st.tuples(FLOAT_CELLS, st.integers(0, S._CSV_CELLS - 1), ODD_CELL).map(
        lambda row: ",".join([*row[0][:row[1]], row[2], *row[0][row[1] + 1:]])),
    st.lists(st.one_of(FLOAT_CELL, ODD_CELL), max_size=S._CSV_CELLS + 3).map(",".join),
    st.sampled_from(["", "  ", "\t", "\x0c"]),
)


def _read_outcome(read, source):
    """The columns `read` gives, as bits (None for an absent column), or its exception."""
    try:
        back = read(source)
    except Exception as err:  # compared by type and message
        return type(err), str(err)
    return tuple(None if c is None else c.tobytes() for c in (back.t, back.q, back.p, back.qd, back.pd))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    lines=st.lists(CSV_ROW, max_size=12) | st.lists(CSV_LINE, max_size=12),
    block=st.sampled_from([2, 3, S._CSV_BLOCK]),
    blank_block_at=st.none() | st.integers(0, 12),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    last_ending=st.booleans(),
)
def test_read_csv_gives_the_bits_or_the_error_of_the_per_line_parser(
    tmp_path_factory, lines, block, blank_block_at, ending, last_ending
):
    if blank_block_at is not None:
        at = min(blank_block_at, len(lines))
        lines = lines[:at] + [""] * block + lines[at:]
    text = ending.join([S.CSV_HEADER, *lines]) + ending * last_ending
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with mock.patch.object(S, "_CSV_BLOCK", block), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for source in (lambda: io.StringIO(text), lambda: str(path)):
            assert _read_outcome(S.read_csv, source()) == _read_outcome(_reference_read_csv, source())
    assert caught == []


def test_read_csv_gives_the_bits_or_the_error_of_the_per_line_parser_on_each_odd_cell():
    row = ",".join(["1.5"] * S._CSV_CELLS)
    for odd in ODD_CELLS:
        for at in range(S._CSV_CELLS):
            cells = ["0.25"] * S._CSV_CELLS
            cells[at] = odd
            text = f"{S.CSV_HEADER}\n{row}\n{','.join(cells)}\n"
            assert _read_outcome(S.read_csv, io.StringIO(text)) == _read_outcome(
                _reference_read_csv, io.StringIO(text)), (odd, at)


def test_read_csv_raises_no_warning_on_a_block_of_blank_lines():
    row = ",".join(["1.5"] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(S.read_csv(io.StringIO(f"{S.CSV_HEADER}\n{row}\n" + "\n" * S._CSV_BLOCK)).t) == 1
        for blank in ("\n", " \n"):
            with pytest.raises(S.SolverError, match="CSV has no data rows$"):
                S.read_csv(io.StringIO(f"{S.CSV_HEADER}\n" + blank * S._CSV_BLOCK))


# ---------------------------------------------------------------------------
# generated interval step against the per-stage right-hand-side driver
# ---------------------------------------------------------------------------


def _reference_method_of_steps(hist, t_end, n, fill, rhs):
    """RK4 method of steps with one `rhs` call per stage: the reference for
    the generated interval step of `solver._method_of_steps`."""
    k, h, t_arr = S._grid(hist, t_end, n)
    t = t_arr.tolist()
    a, b, da_r, db_r = (hist.sample(e, t_arr[: 2 * n + 1]).tolist() for e in fill)
    da_l, db_l = da_r[:], db_r[:]
    isfinite = math.isfinite
    h2, h6 = h / 2, h / 6
    half = np.arange(2 * n + 1) * 0.5

    def piece(hi):
        return [*S._lagged(a, da_r, da_l, hi, n, h), *S._lagged(b, db_r, db_l, hi, n, h)]

    two = piece(n)
    try:
        for start in range(2 * n, (k + 2) * n, n):
            node = start
            one = piece(start)
            lag = np.vstack((hist.t0 + (start - 2 * n + half) * h, *one, *two)).T.tolist()
            two = one
            da, db = rhs(a[start], b[start], *lag[0])
            if not (isfinite(da) and isfinite(db)):
                raise S.SolverError(f"state or rate is not finite at t={t[node]}")
            da_r[start], db_r[start] = da, db
            for j in range(n):
                i = start + j
                node = i + 1
                mid, end = lag[2 * j + 1], lag[2 * j + 2]
                av, bv = a[i], b[i]
                k1a, k1b = da_r[i], db_r[i]
                k2a, k2b = rhs(av + h2 * k1a, bv + h2 * k1b, *mid)
                k3a, k3b = rhs(av + h2 * k2a, bv + h2 * k2b, *mid)
                k4a, k4b = rhs(av + h * k3a, bv + h * k3b, *end)
                av = av + h6 * (k1a + 2 * k2a + 2 * k3a + k4a)
                bv = bv + h6 * (k1b + 2 * k2b + 2 * k3b + k4b)
                da, db = rhs(av, bv, *end)
                if not (isfinite(av) and isfinite(bv) and isfinite(da) and isfinite(db)):
                    raise S.SolverError(f"state or rate is not finite at t={t[node]}")
                a.append(av)
                b.append(bv)
                da_r.append(da)
                da_l.append(da)
                db_r.append(db)
                db_l.append(db)
    except (OverflowError, ZeroDivisionError, ValueError) as err:
        raise S.SolverError(f"right-hand side failed at t={t[node]}: {err}") from None
    return (t_arr, *(np.array(x) for x in (a, b, da_r, da_l, db_r, db_l)))


def _reference_hamiltonian(ham, hist, t_end, n):
    a1, a2, a3, a4 = (float(a) for a in ham.alphas)
    a23 = a2 + a3
    tau = hist.tau
    phi = E.compiled_many((M.shifted_pair_partial(ham.h, "p"), M.shifted_pair_partial(ham.h, "q")))
    phi_out = [0.0, 0.0]
    slots = [math.nan] * E.NSLOTS
    slots[E.TAU_INDEX] = tau
    it, itm, itp, iq, iqm, iqp, ip, ipm, ipp = (
        E.symbol(name, shift, 0).index for name in "tqp" for shift in (0, -1, 1)
    )

    def rhs(qv, pv, tv, qs, dqs, ps, dps, qs2, dqs2, ps2, dps2):
        slots[it] = tv - tau
        slots[itm] = tv - 2 * tau
        slots[itp] = tv
        slots[iq] = qs
        slots[iqm] = qs2
        slots[iqp] = qv
        slots[ip] = ps
        slots[ipm] = ps2
        slots[ipp] = pv
        phi_p, phi_q = phi(slots, phi_out)
        qdot = (phi_p - a23 * dqs - a4 * dqs2) / a1
        pdot = (-phi_q - a23 * dps - a1 * dps2) / a4
        return qdot, pdot

    fill = hist.fill(second_order=False)
    t, q, p, qd, qd_l, pd, pd_l = _reference_method_of_steps(hist, t_end, n, fill, rhs)
    return S.Trajectory(tau, n, t, q, p, qd, pd, qd_left=qd_l, pd_left=pd_l)


def _reference_elsgolts(lag, hist, t_end, n):
    beta = float(lag.beta)
    ag = float(lag.alpha + lag.gamma)
    psi = E.compiled_many((M.shifted_pair_partial(lag.phi, "q"),))
    psi_out = [0.0]
    slots = [math.nan] * E.NSLOTS
    slots[E.TAU_INDEX] = hist.tau
    qi, qmi, qpi = (E.symbol("q", shift, 0).index for shift in (0, -1, 1))

    def rhs(qv, vv, tv, qs, dqs, vs, as1, qs2, dqs2, vs2, as2):
        slots[qi] = qs
        slots[qmi] = qs2
        slots[qpi] = qv
        return vv, -(ag * as1 + beta * as2 + psi(slots, psi_out)[0]) / beta

    fill = hist.fill(second_order=True)
    t, q, v, _, _, qdd, qdd_l = _reference_method_of_steps(hist, t_end, n, fill, rhs)
    return S.Trajectory(
        hist.tau, n, t, q, None, v, None,
        qd_left=v.copy(), qdd=qdd, qdd_left=qdd_l,
    )


_STEPPERS = {
    "hamiltonian": (S.step_hamiltonian, _reference_hamiltonian),
    "lagrangian": (S.step_elsgolts, _reference_elsgolts),
}


def _outcome(step, model, hist, t_end, n):
    """The trajectory, or the `SolverError` message."""
    try:
        return step(model, hist, t_end, n)
    except S.SolverError as err:
        return str(err)


def _assert_same_outcome(formulation, model, hist, t_end, n):
    """The generated step and the reference give the same bits in every
    trajectory array, or the same error message; returns the trajectory."""
    step, reference = _STEPPERS[formulation]
    got, want = (_outcome(f, model, hist, t_end, n) for f in (step, reference))
    if isinstance(want, str):
        assert got == want
        return None
    for field in dataclasses.fields(S.Trajectory):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert_same_bits(g, w)
        else:
            assert g == w
    return got


@pytest.mark.parametrize("formulation", ["hamiltonian", "lagrangian"])
def test_interval_step_matches_reference_on_readme_oscillator(
    oscillator, sincos_history, formulation
):
    lag, ham = oscillator
    model = ham if formulation == "hamiltonian" else lag
    assert _assert_same_outcome(formulation, model, sincos_history, 10.0, 128) is not None


def _random_sum(rng, atoms):
    return E.add(*(conftest.random_expr(rng, atoms, depth=3, extended=True) for _ in range(3)))


def _random_model(formulation, seed):
    """A tame random model around the oscillator with sin/cos/exp/power terms
    and nonzero a2 + a3 (alpha + gamma), so rates jump at every knot."""
    rng = np.random.default_rng(seed)
    if formulation == "hamiltonian":
        extra = _random_sum(rng, [E.t, E.q, E.p, E.tm, E.qm, E.pm])
        a2, a3 = (int(x) for x in rng.integers(-2, 3, size=2))
        a2 += 1 if a2 + a3 == 0 else 0
        alphas = (int(rng.choice([-2, -1, 1, 2])), a2, a3, int(rng.choice([-2, -1, 1, 2])))
        return M.DelayHamiltonian(E.add(E.parse("p*pm + q*qm"), E.mul(0.1, extra)), alphas)
    extra = _random_sum(rng, [E.q, E.qm])
    alpha, gamma = (int(x) for x in rng.integers(-2, 3, size=2))
    alpha += 1 if alpha + gamma == 0 else 0
    beta = int(rng.choice([-2, -1, 1, 2]))
    return M.QuadraticLagrangian(alpha, beta, gamma, E.add(E.parse("q*qm"), E.mul(0.1, extra)))


@pytest.mark.parametrize("formulation", ["hamiltonian", "lagrangian"])
def test_interval_step_matches_reference_on_random_models(formulation):
    hist = S.History(0.0, 1.0, E.parse("sin(t) + t/4"), E.parse("cos(t) + t/5"))
    finished = 0
    for seed in range(8):
        model = _random_model(formulation, seed)
        traj = _assert_same_outcome(formulation, model, hist, 4.0, 16)
        if traj is None:
            continue
        finished += 1
        start = traj.start_index
        right, left = ((traj.qd, traj.qd_left) if formulation == "hamiltonian"
                       else (traj.qdd, traj.qdd_left))
        assert right[start] != left[start]
    assert finished >= 6


@pytest.mark.parametrize(
    "formulation, source, horizon, message",
    [
        ("hamiltonian", "p*pm + exp(q*qm)", 30.0, "right-hand side failed at t="),
        ("hamiltonian", "p*pm + q*q*q*qm*qm*qm", 40.0, "state or rate is not finite at t="),
        ("lagrangian", "q*q*q*qm*qm*qm", 40.0, "state or rate is not finite at t="),
        ("hamiltonian", "p*pm + cos(q*q*q*qm*qm*qm)", 40.0, "math domain error"),
        ("hamiltonian", "p*pm + 1/(q - qm - 1)", 40.0, "division by zero"),
    ],
    ids=["overflow", "hamiltonian-nan", "lagrangian-nan", "domain-error", "division-by-zero"],
)
def test_interval_step_fails_like_reference(formulation, source, horizon, message):
    # the inputs of the CLI's blow-up cases
    hist = S.History(0.0, 1.0, E.parse("3+t"), E.parse("3+t"))
    if formulation == "hamiltonian":
        model = M.DelayHamiltonian(E.parse(source), (1, 0, 0, 1))
    else:
        model = M.QuadraticLagrangian(0, 1, 0, E.parse(source))
    step, reference = _STEPPERS[formulation]
    with pytest.raises(S.SolverError) as want:
        reference(model, hist, horizon, 8)
    assert message in str(want.value)
    with pytest.raises(S.SolverError) as got:
        step(model, hist, horizon, 8)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("formulation", ["hamiltonian", "lagrangian"])
def test_second_step_on_a_model_compiles_nothing(monkeypatch, sincos_history, formulation):
    # a model no other test builds, so its first step compiles the kernel
    if formulation == "hamiltonian":
        model = M.DelayHamiltonian(E.parse("p*pm + q*qm + q^3*pm/7"), (1, 1, 0, 1))
    else:
        model = M.QuadraticLagrangian(1, 1, 0, E.parse("q*qm + q^3*qm/7"))
    step = _STEPPERS[formulation][0]
    compiles = []
    real = builtins.compile

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return real(*args, **kwargs)

    for expect_compile in (True, False):
        before = set(E._COMPILE_CACHE)
        compiles.clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", counting)
            step(model, sincos_history, 3.0, 16)
        added = set(E._COMPILE_CACHE) - before
        if expect_compile:
            assert any(key[-1] in ("hamiltonian", "elsgolts") for key in added)
            assert any("for row, end in zip(rows, rows):" in src for src in compiles)
        else:
            assert added == set() and compiles == []
