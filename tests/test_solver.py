import io

import numpy as np
import pytest

from delayham import expr as E
from delayham import model as M
from delayham import solver as S


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
    stats = table.max_abs()
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
    stats = S.residual_report(traj, ham).max_abs()
    assert all(v <= 1e-12 for v in stats.values())


def test_elsgolts_matches_hamiltonian_route(oscillator, sincos_history):
    lag, ham = oscillator
    a = S.step_hamiltonian(ham, sincos_history, 10.0, 64)
    b = S.step_elsgolts(lag, sincos_history, 10.0, 64)
    assert np.max(np.abs(a.q - b.q)) <= 1e-6


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
    for order in S.observed_orders(errors):
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
    assert hist.qd_at(0.0) == pytest.approx(1.0)
    assert hist.qdd_at(0.0) == pytest.approx(0.0)
    with pytest.raises(S.SolverError):
        hist.p_at(0.0)


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
