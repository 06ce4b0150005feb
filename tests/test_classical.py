import warnings

import numpy as np
import pytest

from delayham import classical as C
from delayham import expr as E
from delayham import model as M
from delayham import noether as N

from conftest import (
    assert_same_bits,
    integral_drift,
    integrate_canonical,
    jet_with_values,
    momentum_substitution,
    random_expr,
)


OSC = C.ClassicalHamiltonian(E.parse("(p^2 + q^2)/2"))
TIME = M.Generator(E.ONE, E.ZERO, E.ZERO)

_TQ = frozenset((E.symbol("t", 0, 0), E.symbol("q", 0, 0)))
_LAGR = frozenset((E.symbol("t", 0, 0), E.symbol("q", 0, 0), E.symbol("q", 0, 1)))


def z(e, seed=0, samples=50, tol=1e-10):
    return E.is_zero(e, samples=samples, tol=tol, seed=seed)


def _random_pair(seed):
    rng = np.random.default_rng(seed)
    atoms = [E.t, E.q, E.p]
    h = random_expr(rng, atoms, depth=3)
    g = M.Generator(
        random_expr(rng, atoms, depth=2),
        random_expr(rng, atoms, depth=2),
        random_expr(rng, atoms, depth=2),
    )
    return C.ClassicalHamiltonian(h), g


def test_residuals_oscillator():
    rp, rq, _ = C.classical_residuals(OSC)
    assert z(E.sub(rp, E.parse("qd - p"))).ok
    assert z(E.sub(rq, E.parse("-pd - q"))).ok


def test_residuals_zero_hamiltonian():
    rp, rq, rt = C.classical_residuals(C.ClassicalHamiltonian(E.ZERO))
    assert rp is E.qd and z(rt).ok
    assert z(E.add(rq, E.pd)).ok


def test_horizontal_residual_vanishes_on_shell():
    _, _, rt = C.classical_residuals(C.ClassicalHamiltonian(E.parse("p^2/2 + sin(t)*q")))
    slots = C.classical_on_shell_jets(C.ClassicalHamiltonian(E.parse("p^2/2 + sin(t)*q")), 5, 20)
    for k in range(20):
        jet = E.JetPoint.from_slots(slots[:, k])
        assert abs(E.evaluate(rt, jet)) < 1e-12


def test_invariance_time_translation_autonomous():
    assert z(C.classical_invariance(OSC, TIME)).ok


def test_invariance_scaling_on_kinetic_hamiltonian():
    h = C.ClassicalHamiltonian(E.parse("p^2"))
    g = M.Generator(E.ZERO, E.q, E.p)
    expr = C.classical_invariance(h, g)
    assert z(E.sub(expr, E.parse("2*p*qd - 2*p^2"))).ok
    assert not z(expr).ok


def test_identity_for_random_pairs():
    for k in range(20):
        ch, g = _random_pair(1000 + k)
        residual = C.classical_identity_residual(ch, g)
        assert E.is_zero(residual, samples=100, tol=1e-9, seed=2000 + k).ok


def test_classical_baseline_is_the_delay_machinery_at_weights_0010():
    # with a1 = a2 = a4 = 0 and a3 = 1 nothing reads a shifted slot: the
    # residuals are the same expressions, the invariance and identity
    # residuals the same up to grouping
    for k in range(20):
        ch, g = _random_pair(1000 + k)
        delay = M.DelayHamiltonian(ch.h, (0, 0, 1, 0))
        for classical, shifted in zip(C.classical_residuals(ch), M.variational_residuals(delay)):
            assert classical is shifted
        pairs = (
            (C.classical_invariance(ch, g), N.invariance_residual(delay, g)),
            (C.classical_identity_residual(ch, g), N.hamiltonian_identity_residual(delay, g)),
        )
        for classical, shifted in pairs:
            assert E.is_zero(E.sub(classical, shifted), samples=100, tol=1e-9, seed=2000 + k).ok


def test_first_integral_energy():
    integral = C.classical_first_integral(OSC, TIME)
    assert integral is E.neg(OSC.h)


def test_first_integral_warns_without_invariance():
    g = M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integral = C.classical_first_integral(OSC, g)
    assert integral is E.mul(E.p, E.sin(E.t))
    assert len(caught) == 1
    assert "not an invariance" in str(caught[0].message)
    with pytest.raises(ValueError, match="at least one jet"):
        C.classical_first_integral(OSC, g, samples=0)


def test_energy_drift_along_rk4_solution():
    integral = C.classical_first_integral(OSC, TIME)
    ts, qs, ps = integrate_canonical(OSC, 1.0, 0.0, 0.0, 10.0, 1e-3)
    assert integral_drift(integral, ts, qs, ps) <= 1e-8


def classical_legendre(mass, potential: E.Expr) -> tuple[C.ClassicalHamiltonian, E.Expr]:
    """L = mass/2*qd^2 - potential(t, q)  ->  (H, momentum map p = mass*qd)."""
    mass = M._num(mass)
    if mass == 0:
        raise ValueError("mass must be nonzero")
    M._check_symbols(potential, _TQ, "potential")
    h = E.add(E.div(E.powi(E.p, 2), E.mul(2, mass)), potential)
    return C.ClassicalHamiltonian(h), E.mul(mass, E.qd)


def euler_lagrange_residual(lagrangian: E.Expr) -> E.Expr:
    """dL/dq - D(dL/dqd) for a one-time Lagrangian L(t, q, qd)."""
    M._check_symbols(lagrangian, _LAGR, "a classical Lagrangian")
    return E.sub(E.partial(lagrangian, "q"), E.total_derivative(E.partial(lagrangian, "qd")))


def test_legendre_and_euler_lagrange_equivalence():
    potential = E.parse("q^2/2 + q^4/4")
    ch, momentum = classical_legendre(1, potential)
    assert ch.h is E.parse("p^2/2 + q^2/2 + q^4/4")
    lagrangian = E.sub(E.parse("qd^2/2"), potential)
    el = euler_lagrange_residual(lagrangian)
    _, rq, _ = C.classical_residuals(ch)
    substituted = E.substitute(rq, momentum_substitution(momentum))
    slots = C.classical_on_shell_jets(ch, 7, 30)
    for k in range(30):
        jet = E.JetPoint.from_slots(slots[:, k])
        assert E.evaluate(substituted, jet) == pytest.approx(
            E.evaluate(el, jet), rel=1e-10, abs=1e-10
        )


def test_equation_invariance_conditions_free_particle():
    # Galilean boost is a symmetry of the free particle: both variational
    # derivatives of the invariance expression vanish identically ...
    free = C.ClassicalHamiltonian(E.parse("p^2/2"))
    boost = M.Generator(E.ZERO, E.t, E.ONE)
    inv = C.classical_invariance(free, boost)
    assert z(M.variational_p(inv)).ok
    assert z(M.variational_q(inv)).ok
    # ... while a rotation is not: the p-variation stays nonzero on-shell
    rotate = M.Generator(E.ZERO, E.p, E.neg(E.q))
    inv_rot = C.classical_invariance(free, rotate)
    cond = M.variational_p(inv_rot)
    jet = E.JetPoint.from_slots(C.classical_on_shell_jets(free, 11, 1)[:, 0])
    assert abs(E.evaluate(cond, jet)) > 1e-6


def test_equation_invariance_conditions_oscillator_rotation():
    # rotation is an invariance of the oscillator action
    rotate = M.Generator(E.ZERO, E.p, E.neg(E.q))
    inv = C.classical_invariance(OSC, rotate)
    slots = C.classical_on_shell_jets(OSC, 13, 20)
    for k in range(20):
        jet = E.JetPoint.from_slots(slots[:, k])
        assert abs(E.evaluate(M.variational_p(inv), jet)) < 1e-10
        assert abs(E.evaluate(M.variational_q(inv), jet)) < 1e-10


def _on_shell_jet_by_value(ch, seed, index):
    """One jet built value by value (the reference construction)."""
    jet = E.random_jet(seed, index)
    hp = E.partial(ch.h, "p")
    hq = E.partial(ch.h, "q")
    jet = jet_with_values(jet, {"qd": E.evaluate(hp, jet), "pd": -E.evaluate(hq, jet)})
    return jet_with_values(
        jet,
        {
            "qdd": E.evaluate(E.total_derivative(hp), jet),
            "pdd": -E.evaluate(E.total_derivative(hq), jet),
        },
    )


def test_batched_classical_on_shell_columns_match_single_jets():
    ch = C.ClassicalHamiltonian(E.parse("p^2/2 + exp(q/3)*sin(t) + q^3*p/5"))
    slots = C.classical_on_shell_jets(ch, 23, 12)
    for k in range(12):
        want = _on_shell_jet_by_value(ch, 23, k)
        assert_same_bits(slots[:, k], want.slots())
        assert_same_bits(C.classical_on_shell_jets(ch, 23, k + 1)[:, k], want.slots())
