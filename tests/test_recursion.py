import dataclasses
import math
import warnings

import numpy as np
import pytest

from delayham import expr as E
from delayham import model as M
from delayham import noether as N
from delayham import recursion as R
from delayham import solver as S

from conftest import assert_same_bits, relation_residuals


def test_recovered_constants_match_closed_forms(sincos_history):
    a, b = R.recover_constants(sincos_history, 0)
    u = math.sin(0.0) + math.sin(-2.0)
    v = math.cos(0.0) + math.cos(-2.0)
    assert a == pytest.approx(-math.cos(1.0) * u - math.sin(1.0) * v, abs=1e-14)
    assert b == pytest.approx(-math.sin(1.0) * u + math.cos(1.0) * v, abs=1e-14)
    # the sine/cosine history is the exact solution: a = 0, b = 2 cos(tau)
    assert abs(a) < 1e-14
    assert b == pytest.approx(2 * math.cos(1.0), abs=1e-14)


def test_zero_history_gives_zero_constants_and_solution():
    hist = S.History(0.0, 1.0, E.ZERO, E.ZERO)
    a, b = R.recover_constants(hist, 0)
    assert a == 0.0 and b == 0.0
    traj = R.recurse(R.relation_from_constants(0, a, b), hist, 4.0, 16)
    assert np.allclose(traj.q, 0.0)
    assert np.allclose(traj.p, 0.0)


def test_middle_coefficient_constants_match_measured_integrals(sincos_history):
    ham = M.DelayHamiltonian(E.parse("(p+pm)^2/2 + (q+qm)^2/2"), (1, 1, 1, 1))
    a, b = R.recover_constants(sincos_history, 2)
    traj = S.step_hamiltonian(ham, sincos_history, 6.0, 128)
    want_a = N.drift(E.parse("sin(t)*(pp + 2*p + pm) - cos(t)*(qp + 2*q + qm)"), traj, "differential")
    want_b = N.drift(E.parse("cos(t)*(pp + 2*p + pm) + sin(t)*(qp + 2*q + qm)"), traj, "differential")
    assert abs(a - want_a.reference) <= 1e-6
    assert abs(b - want_b.reference) <= 1e-6


def test_first_window_formula(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    traj = R.recurse(rel, sincos_history, 6.0, 64)
    sel = (traj.t >= 0) & (traj.t <= 2.0)
    expected = (
        -np.sin(traj.t[sel] - 2.0)
        - rel.a * np.cos(traj.t[sel] - 1.0)
        + rel.b * np.sin(traj.t[sel] - 1.0)
    )
    assert np.max(np.abs(traj.q[sel] - expected)) <= 1e-13
    expected_p = (
        -np.cos(traj.t[sel] - 2.0)
        + rel.a * np.sin(traj.t[sel] - 1.0)
        + rel.b * np.cos(traj.t[sel] - 1.0)
    )
    assert np.max(np.abs(traj.p[sel] - expected_p)) <= 1e-13


def test_second_window_formula(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    traj = R.recurse(rel, sincos_history, 6.0, 64)
    sel = (traj.t >= 2.0) & (traj.t <= 4.0)
    ts = traj.t[sel]
    expected = (
        np.sin(ts - 4.0)
        + rel.a * np.cos(ts - 3.0)
        - rel.b * np.sin(ts - 3.0)
        - rel.a * np.cos(ts - 1.0)
        + rel.b * np.sin(ts - 1.0)
    )
    assert np.max(np.abs(traj.q[sel] - expected)) <= 1e-13


def test_sum_relations_hold_to_roundoff(sincos_history):
    for c_mid in (0, 2):
        rel = R.relation_from_history(sincos_history, c_mid)
        traj = R.recurse(rel, sincos_history, 6.0, 64)
        worst_q, worst_p = relation_residuals(rel, traj)
        assert worst_q <= 1e-12
        assert worst_p <= 1e-12


def test_recursion_matches_numerical_solution(oscillator, sincos_history):
    _, ham = oscillator
    rel = R.relation_from_history(sincos_history, 0)
    a = S.step_hamiltonian(ham, sincos_history, 6.0, 128)
    b = R.recurse(rel, sincos_history, 6.0, 128)
    report = R.compare(a, b)
    assert report.components["q"].max_abs <= 1e-5
    assert report.components["p"].max_abs <= 1e-5


def test_recursion_integrals_drift_is_roundoff(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    traj = R.recurse(rel, sincos_history, 6.0, 64)
    for integral in (
        E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)"),
        E.parse("cos(t)*(pp + pm) + sin(t)*(qp + qm)"),
    ):
        assert N.drift(integral, traj, "differential").max_drift <= 1e-12


def test_recovered_constants_keep_seam_continuous():
    for t0 in (0.0, 0.7):
        hist = S.History(t0, 1.0, E.parse("sin(t)"), E.parse("cos(t) + t/4"))
        rel = R.relation_from_history(hist, 0)
        gap_q, gap_p = R.seam_gap(rel, hist)
        assert gap_q <= 1e-12 and gap_p <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R.recurse(rel, hist, t0 + 4.0, 16)  # must not warn


def test_inconsistent_constants_warn_and_jump(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    perturbed = R.relation_from_constants(0, rel.a + 1e-2, rel.b)
    gap_q, _ = R.seam_gap(perturbed, sincos_history)
    assert gap_q == pytest.approx(1e-2 * math.cos(1.0), rel=1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = R.recurse(perturbed, sincos_history, 6.0, 64)
    assert len(caught) == 1 and "seam" in str(caught[0].message)
    reference = R.recurse(rel, sincos_history, 6.0, 64)
    deviation = R.compare(reference, traj).components["q"].max_abs
    assert deviation >= 1e-3  # perturbing a constant by 1e-2 is clearly visible


def test_compare_identical_trajectories(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    traj = R.recurse(rel, sincos_history, 4.0, 32)
    report = R.compare(traj, traj)
    assert report.max_component() == 0.0


def test_compare_rejects_grid_mismatch(sincos_history):
    rel = R.relation_from_history(sincos_history, 0)
    a = R.recurse(rel, sincos_history, 4.0, 32)
    b = R.recurse(rel, sincos_history, 4.0, 64)
    with pytest.raises(S.SolverError):
        R.compare(a, b)


def test_compare_rejects_a_grid_of_the_same_length_on_other_nodes(sincos_history):
    # each node of the doubled grid lies within a relative 1 of the original one
    rel = R.relation_from_history(sincos_history, 0)
    a = R.recurse(rel, sincos_history, 4.0, 32)
    b = dataclasses.replace(a, t=2 * a.t)
    with pytest.raises(S.SolverError, match="^trajectories are not on the same grid$"):
        R.compare(a, b)


def test_relation_validation():
    with pytest.raises(R.RecursionError_):
        R.relation_from_constants(1, 0.0, 0.0)
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), None)
    with pytest.raises(S.SolverError, match="history carries no momentum expression"):
        R.recover_constants(hist, 0)
    with pytest.raises(R.RecursionError_, match="only the middle coefficients 0 and 2"):
        R.recover_constants(hist, 1)


def _at(e, t_value, tau=1.0):
    slots = [float("nan")] * E.NSLOTS
    slots[E.TAU_INDEX] = tau
    slots[E.symbol("t", 0, 0).index] = t_value
    return E.compiled(e)(slots)


def _recurse_by_node(rel, hist, t_end, n):
    """The recursion stepped one node at a time (the reference order)."""
    tl = S._grid(hist, t_end, n)[2].tolist()
    exprs = hist.fill(second_order=False)
    q, p, qd, pd = ([_at(e, tv, hist.tau) for tv in tl[: 2 * n + 1]] for e in exprs)
    gs = [rel.g_q, rel.g_p, E.partial(rel.g_q, "t"), E.partial(rel.g_p, "t")]
    c = rel.c_mid
    for i in range(2 * n + 1, len(tl)):
        base = tl[i] - hist.tau
        for values, g in zip((q, p, qd, pd), gs):
            values.append(_at(g, base, hist.tau) - c * values[i - n] - values[i - 2 * n])
    return q, p, qd, pd


def _relation_residuals_by_node(rel, traj):
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    worst_q = worst_p = 0.0
    for i in range(n, m - n + 1):
        rq = traj.q[i + n] + rel.c_mid * traj.q[i] + traj.q[i - n] - _at(rel.g_q, traj.t[i], traj.tau)
        rp = traj.p[i + n] + rel.c_mid * traj.p[i] + traj.p[i - n] - _at(rel.g_p, traj.t[i], traj.tau)
        worst_q = max(worst_q, abs(rq))
        worst_p = max(worst_p, abs(rp))
    return worst_q, worst_p


@pytest.mark.parametrize("c_mid", [0, 2])
def test_recurse_matches_node_loop(c_mid):
    hist = S.History(0.5, 0.75, E.parse("sin(t) + t^2/7"), E.parse("cos(2*t) - exp(t/3)"))
    rel = R.relation_from_history(hist, c_mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = R.recurse(rel, hist, 0.5 + 4 * 0.75, 16)
    want = _recurse_by_node(rel, hist, 0.5 + 4 * 0.75, 16)
    for got, values in zip((traj.q, traj.p, traj.qd, traj.pd), want):
        assert_same_bits(got, values)
    got_q, got_p = relation_residuals(rel, traj)
    want_q, want_p = _relation_residuals_by_node(rel, traj)
    assert (got_q, got_p) == (want_q, want_p)
    assert want_q > 0 or want_p > 0
