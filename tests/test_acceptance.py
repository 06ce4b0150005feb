"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from delayham import classical as C
from delayham import expr as E
from delayham import legendre as L
from delayham import model as M
from delayham import noether as N
from delayham import recursion as R
from delayham import solver as S

from conftest import (
    elsgolts_residual_general,
    extended_elsgolts_display,
    extended_momentum_substitution,
    extended_residuals,
    fitted_order,
    integral_drift,
    integrate_canonical,
    is_zero_on_shell,
    random_generator,
    random_quadratic_hamiltonian,
    relation_residuals,
)

TAU = 1.0

OSC_LAG = M.QuadraticLagrangian(0, 1, 0, E.parse("q*qm"))
OSC_HAM = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 0, 1))
DEG_LAG = M.QuadraticLagrangian(1, 1, 1, E.parse("(q+qm)^2/2"))
DEG_HAM = M.DelayHamiltonian(E.parse("(p+pm)^2/2 + (q+qm)^2/2"), (1, 1, 1, 1))

GEN_SIN = M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)"))
GEN_COS = M.Generator(E.ZERO, E.parse("cos(t)"), E.parse("-sin(t)"))
GEN_TIME = M.Generator(E.ONE, E.ZERO, E.ZERO)
GEN_SCALE = M.Generator(E.ZERO, E.q, E.p)
GEN_ROTATE = M.Generator(E.ZERO, E.p, E.neg(E.q))

HISTORY = S.History(0.0, TAU, E.parse("sin(t)"), E.parse("cos(t)"))


def _report(number: int, text: str):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_offshell_identity_suite():
    started = time.perf_counter()
    for gen in (GEN_SIN, GEN_COS, GEN_SCALE, GEN_ROTATE):
        chk = N.verify_hamiltonian_identity(OSC_HAM, gen, samples=100, tol=1e-9, seed=1)
        assert chk.ok, chk.worst
    for gen in (GEN_SIN, GEN_COS):
        chk = N.verify_hamiltonian_identity(DEG_HAM, gen, samples=100, tol=1e-9, seed=2)
        assert chk.ok, chk.worst
    for k in range(20):
        rng = np.random.default_rng(8100 + k)
        ham = random_quadratic_hamiltonian(rng)
        gen = random_generator(rng)
        chk = N.verify_hamiltonian_identity(ham, gen, samples=100, tol=1e-9, seed=8200 + k)
        assert chk.ok, (k, chk.worst)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"
    _report(1, f"off-shell identity suite (26 systems, 100 jets each) in {elapsed:.2f}s")


def test_criterion_02_classical_baseline():
    started = time.perf_counter()
    for k in range(20):
        rng = np.random.default_rng(8300 + k)
        coeffs = rng.uniform(-1.5, 1.5, size=7)
        h_expr = E.add(
            E.mul(E.const(float(coeffs[0])), E.powi(E.p, 2)),
            E.mul(E.const(float(coeffs[1])), E.powi(E.q, 2)),
            E.mul(E.const(float(coeffs[2])), E.p, E.q),
            E.mul(E.const(float(coeffs[3])), E.sin(E.t), E.q),
        )
        gen = M.Generator(
            E.mul(E.const(float(coeffs[4])), E.t),
            E.add(E.mul(E.const(float(coeffs[5])), E.q), E.cos(E.t)),
            E.mul(E.const(float(coeffs[6])), E.p),
        )
        residual = C.classical_identity_residual(C.ClassicalHamiltonian(h_expr), gen)
        assert E.is_zero(residual, samples=100, tol=1e-9, seed=8400 + k).ok
    oscillator = C.ClassicalHamiltonian(E.parse("(p^2 + q^2)/2"))
    energy = C.classical_first_integral(oscillator, M.Generator(E.ONE, E.ZERO, E.ZERO))
    assert energy is E.neg(oscillator.h)
    ts, qs, ps = integrate_canonical(oscillator, 1.0, 0.0, 0.0, 10.0, 1e-3)
    drift_value = integral_drift(energy, ts, qs, ps)
    assert drift_value <= 1e-8, drift_value
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"classical baseline took {elapsed:.2f}s"
    _report(2, f"classical identity + energy drift {drift_value:.2e} in {elapsed:.2f}s")


def test_criterion_03_legendre_golden():
    res = L.legendre_forward(OSC_LAG, 1)
    assert res.hamiltonian.h is E.parse("p*pm + q*qm")
    assert res.hamiltonian.alphas == (1, 0, 0, 1)
    res_deg = L.legendre_forward(DEG_LAG, 1)
    assert res_deg.hamiltonian.h is E.parse("(p+pm)^2/2 + (q+qm)^2/2")
    assert res_deg.hamiltonian.alphas == (1, 1, 1, 1)

    back, _, _ = L.legendre_reverse(M.QuadraticHamiltonian(0, 1, 0, E.parse("q*qm")), 1)
    assert back.expr() is OSC_LAG.expr()
    back_deg, _, _ = L.legendre_reverse(
        M.QuadraticHamiltonian(1, 1, 1, E.parse("(q+qm)^2/2")), 1
    )
    assert back_deg.expr() is DEG_LAG.expr()

    rng = np.random.default_rng(8500)
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.2, 3.0))
        gamma = float(rng.uniform(-3, 3))
        lag = M.QuadraticLagrangian(alpha, beta, gamma, E.ZERO)
        alt = [float(x) for x in L.alphas_alternative(lag)]
        fwd = [float(x) for x in L.pairing_weights(lag, 1)]
        factor = alt[0] / fwd[0]
        assert all(abs(a - factor * f) <= 1e-12 * max(1.0, abs(a)) for a, f in zip(alt, fwd))
    _report(3, "forward/reverse transforms and alternative weights agree")


def _dynamics_gap(lag, ham, n):
    t_end = 10 * TAU
    a = S.step_hamiltonian(ham, HISTORY, t_end, n)
    b = S.step_elsgolts(lag, HISTORY, t_end, n)
    return float(np.max(np.abs(a.q - b.q)))


def test_criterion_04_dynamics_equivalence():
    summaries = []
    for label, lag, ham in (("plain", OSC_LAG, OSC_HAM), ("degenerate", DEG_LAG, DEG_HAM)):
        gaps = [_dynamics_gap(lag, ham, n) for n in (32, 64, 128, 256)]
        assert gaps[2] <= 1e-5, (label, gaps)
        order = fitted_order([32, 64, 128, 256], gaps)
        assert order >= 3.0, (label, gaps, order)
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (label, gaps)
        summaries.append(f"{label}: gap@128={gaps[2]:.2e}, order={order:.2f}")
    _report(4, "; ".join(summaries))


def test_criterion_05_first_integral_reproduction_and_drift():
    printed = {
        "plain": (
            OSC_HAM,
            E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)"),
            E.parse("cos(t)*(pp + pm) + sin(t)*(qp + qm)"),
        ),
        "degenerate": (
            DEG_HAM,
            E.parse("sin(t)*(pp + 2*p + pm) - cos(t)*(qp + 2*q + qm)"),
            E.parse("cos(t)*(pp + 2*p + pm) + sin(t)*(qp + 2*q + qm)"),
        ),
    }
    summaries = []
    for label, (ham, want_1, want_2) in printed.items():
        rep1 = N.analyze_generator(ham, GEN_SIN, "sin", seed=41)
        rep2 = N.analyze_generator(ham, GEN_COS, "cos", seed=43)
        got_1 = rep1.parts.differential_integral
        got_2 = rep2.parts.differential_integral
        assert got_1 is not None and got_2 is not None, label
        assert E.is_zero(E.sub(got_1, want_1), samples=60, tol=1e-9, seed=45).ok, label
        assert E.is_zero(E.sub(got_2, want_2), samples=60, tol=1e-9, seed=45).ok, label
        drifts = []
        for n in (32, 64, 128, 256):
            traj = S.step_hamiltonian(ham, HISTORY, 10 * TAU, n)
            drifts.append(
                max(
                    N.drift(want_1, traj, "differential").max_drift,
                    N.drift(want_2, traj, "differential").max_drift,
                )
            )
        assert drifts[2] <= 1e-5, (label, drifts)
        order = fitted_order([32, 64, 128, 256], drifts)
        assert order >= 3.0, (label, drifts, order)
        summaries.append(f"{label}: drift@128={drifts[2]:.2e}, order={order:.2f}")
    _report(5, "; ".join(summaries))


def test_criterion_06_recursion_oracle():
    started = time.perf_counter()
    a, b = R.recover_constants(HISTORY, 0)
    u = math.sin(0.0) + math.sin(-2 * TAU)
    v = math.cos(0.0) + math.cos(-2 * TAU)
    assert a == pytest.approx(-math.cos(TAU) * u - math.sin(TAU) * v, abs=1e-14)
    assert b == pytest.approx(-math.sin(TAU) * u + math.cos(TAU) * v, abs=1e-14)
    rel = R.relation_from_constants(0, a, b)
    recursive = R.recurse(rel, HISTORY, 6 * TAU, 128)
    worst_q, worst_p = relation_residuals(rel, recursive)
    assert worst_q <= 1e-12 and worst_p <= 1e-12, (worst_q, worst_p)
    numeric = S.step_hamiltonian(OSC_HAM, HISTORY, 6 * TAU, 128)
    report = R.compare(numeric, recursive)
    assert report.components["q"].max_abs <= 1e-5
    assert report.components["p"].max_abs <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"recursion oracle took {elapsed:.2f}s"
    _report(
        6,
        f"constants ({a:.3e}, {b:.6f}), relations <= 1e-12, "
        f"match {report.components['q'].max_abs:.2e} in {elapsed:.2f}s",
    )


def test_criterion_07_negative_controls():
    # the scaling generator: no divergence form, hence no conserved quantity,
    # yet its residual variations reproduce the canonical equations (times a
    # fixed factor of two), certifying equation invariance
    inv = N.classify_invariance(OSC_HAM, GEN_SCALE, seed=47)
    assert inv.classification is N.Classification.NONE
    assert not E.is_zero(inv.omega, samples=40, tol=1e-9, seed=47).ok
    rep = N.analyze_generator(OSC_HAM, GEN_SCALE, "scale", seed=47)
    assert rep.parts.differential_integral is None
    assert rep.parts.difference_integral is None

    identities = N.variational_derivative_identities(OSC_HAM, GEN_SCALE, 80, 1e-9, 47)
    assert identities.ok
    density = OSC_HAM.action_density()
    omega = N.invariance_residual(OSC_HAM, GEN_SCALE)
    gap_p = E.sub(M.variational_p(omega, extended=True), E.mul(2, M.variational_p(density)))
    gap_q = E.sub(M.variational_q(omega, extended=True), E.mul(2, M.variational_q(density)))
    assert E.is_zero(gap_p, samples=80, tol=1e-9, seed=48).ok
    assert E.is_zero(gap_q, samples=80, tol=1e-9, seed=48).ok
    assert is_zero_on_shell(
        M.variational_p(omega, extended=True), OSC_HAM, samples=40, tol=1e-9, seed=49
    ).ok

    # incompatible pairing weights: the residual is twice the action density,
    # no divergence form exists, and nothing is emitted
    bad = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (0, 0, 1, 0))
    gen = M.Generator(E.ZERO, E.q, E.p)
    inv_bad = N.classify_invariance(bad, gen, seed=53)
    assert inv_bad.classification is N.Classification.NONE
    assert E.is_zero(
        E.sub(inv_bad.omega, E.mul(2, bad.action_density())), samples=60, tol=1e-9, seed=53
    ).ok
    rep_bad = N.analyze_generator(bad, gen, "scale", seed=53)
    assert rep_bad.parts.differential_integral is None
    assert rep_bad.parts.difference_integral is None
    _report(7, "scaling generator and incompatible weights emit no integrals")


def test_criterion_08_variation_identity_suite():
    for label, ham, gens in (
        ("plain", OSC_HAM, (GEN_SIN, GEN_COS, GEN_TIME, GEN_SCALE, GEN_ROTATE)),
        ("degenerate", DEG_HAM, (GEN_SIN, GEN_COS, GEN_SCALE)),
    ):
        for gen in gens:
            rep = N.variational_derivative_identities(ham, gen, 100, 1e-9, 57)
            assert rep.ok, (label, rep.checks)
    for k in range(10):
        rng = np.random.default_rng(8600 + k)
        ham = random_quadratic_hamiltonian(rng)
        gen = random_generator(rng, affine_xi=True)
        rep = N.variational_derivative_identities(ham, gen, 100, 1e-9, 8700 + k)
        assert rep.ok, (k, {name: chk.worst for name, chk in rep.checks.items()})
    _report(8, "variation identities hold for 8 example pairs and 10 random pairs")


def test_criterion_09_extended_transform_equivalence():
    ext = L.ExtendedLagrangian(
        E.const(2), E.const(1), E.const(3), E.q, E.const(2), E.parse("q*qm")
    )
    res = L.legendre_extended(ext)
    rp, rq = extended_residuals(res)
    sub = extended_momentum_substitution(ext)
    display = extended_elsgolts_display(ext)
    assert E.is_zero(E.substitute(rp, sub), samples=30, tol=1e-8, seed=61).ok
    gap = E.sub(E.substitute(rq, sub), display)
    chk = E.is_zero(gap, samples=30, tol=1e-8, seed=61)
    assert chk.ok, chk.worst
    # and the display itself equals the generic vertical variation of L
    oper = elsgolts_residual_general(ext.expr())
    assert E.is_zero(E.sub(display, oper), samples=30, tol=1e-8, seed=61).ok
    _report(9, "extended transform reproduces the second-order equation on 30 jets")
