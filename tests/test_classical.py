import warnings

import numpy as np
import pytest

from delayham import classical as C
from delayham import expr as E
from delayham import model as M

from conftest import assert_same_bits, random_expr


OSC = C.ClassicalHamiltonian(E.parse("(p^2 + q^2)/2"))
TIME = M.Generator(E.ONE, E.ZERO, E.ZERO)


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
    for k in range(20):
        jet = C.classical_on_shell_jet(C.ClassicalHamiltonian(E.parse("p^2/2 + sin(t)*q")), 5, k)
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


def test_energy_drift_along_rk4_solution():
    integral = C.classical_first_integral(OSC, TIME)
    ts, qs, ps = C.integrate_canonical(OSC, 1.0, 0.0, 0.0, 10.0, 1e-3)
    assert C.integral_drift(integral, ts, qs, ps) <= 1e-8


def test_legendre_and_euler_lagrange_equivalence():
    potential = E.parse("q^2/2 + q^4/4")
    ch, momentum = C.classical_legendre(1, potential)
    assert ch.h is E.parse("p^2/2 + q^2/2 + q^4/4")
    lagrangian = E.sub(E.parse("qd^2/2"), potential)
    el = C.euler_lagrange_residual(lagrangian)
    _, rq, _ = C.classical_residuals(ch)
    substituted = E.substitute(rq, M.momentum_substitution(momentum))
    for k in range(30):
        jet = C.classical_on_shell_jet(ch, 7, k)
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
    jet = C.classical_on_shell_jet(free, 11, 0)
    assert abs(E.evaluate(cond, jet)) > 1e-6


def test_equation_invariance_conditions_oscillator_rotation():
    # rotation is an invariance of the oscillator action
    rotate = M.Generator(E.ZERO, E.p, E.neg(E.q))
    inv = C.classical_invariance(OSC, rotate)
    for k in range(20):
        jet = C.classical_on_shell_jet(OSC, 13, k)
        assert abs(E.evaluate(M.variational_p(inv), jet)) < 1e-10
        assert abs(E.evaluate(M.variational_q(inv), jet)) < 1e-10


def _on_shell_jet_by_value(ch, seed, index, second_order):
    """One jet built value by value (the reference construction)."""
    jet = E.random_jet(seed, index)
    hp = E.partial(ch.h, "p")
    hq = E.partial(ch.h, "q")
    jet = jet.with_values({"qd": E.evaluate(hp, jet), "pd": -E.evaluate(hq, jet)})
    if second_order:
        jet = jet.with_values(
            {
                "qdd": E.evaluate(E.total_derivative(hp), jet),
                "pdd": -E.evaluate(E.total_derivative(hq), jet),
            }
        )
    return jet


@pytest.mark.parametrize("second_order", [False, True])
def test_batched_classical_on_shell_columns_match_single_jets(second_order):
    ch = C.ClassicalHamiltonian(E.parse("p^2/2 + exp(q/3)*sin(t) + q^3*p/5"))
    slots = C.classical_on_shell_jets(ch, 23, 12, second_order, start=4)
    for k in range(12):
        want = _on_shell_jet_by_value(ch, 23, 4 + k, second_order)
        assert_same_bits(slots[:, k], want.slots())
        assert_same_bits(C.classical_on_shell_jet(ch, 23, 4 + k, second_order).slots(), want.slots())
