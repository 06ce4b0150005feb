import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayham import expr as E
from delayham import legendre as L
from delayham import model as M

from conftest import (
    elsgolts_residual_general,
    jet_with_values,
    momentum_substitution,
    random_expr,
    random_quadratic_hamiltonian,
)


def z(e, seed=0, samples=40, tol=1e-10):
    return E.is_zero(e, samples=samples, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# structured types
# ---------------------------------------------------------------------------


def test_lagrangian_rejects_zero_beta():
    with pytest.raises(ValueError):
        M.QuadraticLagrangian(1, 0, 1, E.ZERO)


def test_lagrangian_rejects_bad_phi_symbols():
    with pytest.raises(ValueError):
        M.QuadraticLagrangian(0, 1, 0, E.parse("q*qd"))


def test_degeneracy_flag():
    assert M.QuadraticLagrangian(1, 1, 1, E.ZERO).degenerate
    assert not M.QuadraticLagrangian(0, 1, 0, E.ZERO).degenerate


@pytest.mark.parametrize(
    "alpha, beta, gamma, degenerate",
    [(0, 1e200, 0, False), (1e200, 1e200, 1e200, True), (4 * 1e200, 2 * 1e200, 1e200, True),
     (1e300, 1e200, 1e300, False), (10**308, 1, 10**308, False)],
)
def test_degeneracy_of_coefficients_whose_products_overflow(alpha, beta, gamma, degenerate):
    # alpha*gamma or beta^2 overflows a double; the exact values decide
    assert M.QuadraticLagrangian(alpha, beta, gamma, E.ZERO).degenerate is degenerate


# an inf alpha used to reach `degenerate`, and a Fraction(10**400) weight
# `solvable`, which raised a raw OverflowError
NOT_FINITE = [math.inf, -math.inf, math.nan, 10**400, Fraction(10**400)]
# each coercing constructor with the coefficient x in one of its coefficient positions
COERCING = {
    "lagrangian-alpha": lambda x: M.QuadraticLagrangian(x, 1, 0, E.ZERO),
    "lagrangian-beta": lambda x: M.QuadraticLagrangian(0, x, 0, E.ZERO),
    "hamiltonian-c": lambda x: M.QuadraticHamiltonian(0, 1, x, E.ZERO),
    "hamiltonian-b": lambda x: M.QuadraticHamiltonian(0, x, 0, E.ZERO),
    "delay-a1": lambda x: M.DelayHamiltonian(E.parse("p*pm + q*qm"), (x, 0, 0, 1)),
    "delay-a3": lambda x: M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, x, 1)),
    "forward-alpha1": lambda x: L.legendre_forward(M.QuadraticLagrangian(2, 1, 1, E.ZERO), x),
}


@pytest.mark.parametrize("make", COERCING.values(), ids=COERCING.keys())
@pytest.mark.parametrize("x", NOT_FINITE, ids=["inf", "-inf", "nan", "int-10^400", "Fraction-10^400"])
def test_a_coefficient_whose_double_is_not_finite_is_rejected(make, x):
    with pytest.raises(ValueError, match="^coefficients must be finite doubles, got ") as err:
        make(x)
    assert len(str(err.value)) < 80  # never the digits of a huge rational


@pytest.mark.parametrize("make", COERCING.values(), ids=COERCING.keys())
def test_a_rational_below_the_double_range_is_a_valid_coefficient(make):
    make(Fraction(1, 10**400))


@pytest.mark.parametrize(
    "alpha, beta, gamma, degenerate",
    [(1e-300, 5e-324, 1e-300, False), (5e-324, 1e-300, 5e-324, False), (0, 1e-300, 1, False),
     (1e-300, 1e-300, 1e-300, True), (5e-324, 5e-324, 5e-324, True),
     (2.0**-1000, 2.0**-600, 2.0**-200, True), (2.0**-1000, 2.0**-600, 2.0**-201, False)],
)
def test_degeneracy_of_coefficients_whose_products_underflow(alpha, beta, gamma, degenerate):
    # alpha*gamma and beta^2 underflow a double, to 0 or below the normal
    # range; the exact values decide
    assert M.QuadraticLagrangian(alpha, beta, gamma, E.ZERO).degenerate is degenerate


@pytest.mark.parametrize("x", [True, "1"], ids=["bool", "str"])
def test_a_coefficient_that_is_no_number_is_rejected(x):
    with pytest.raises(TypeError, match="coefficients must be numbers"):
        M._num(x)


def test_hamiltonian_takes_four_weights():
    with pytest.raises(ValueError, match="alphas must have exactly four entries"):
        M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 1))


def test_hamiltonian_rejects_derivative_symbols():
    with pytest.raises(ValueError):
        M.DelayHamiltonian(E.parse("p*qd"), (1, 0, 0, 1))
    with pytest.raises(ValueError):
        M.DelayHamiltonian(E.parse("p*pp"), (1, 0, 0, 1))


def test_generator_rejects_shifted_coefficients():
    with pytest.raises(ValueError):
        M.Generator(E.ZERO, E.qm, E.ZERO)


# ---------------------------------------------------------------------------
# action density
# ---------------------------------------------------------------------------


def test_action_density_nondegenerate(oscillator):
    _, ham = oscillator
    expected = E.parse("pm*qd + p*qdm - p*pm - q*qm")
    assert z(E.sub(M.action_density(ham), expected)).ok


def test_action_density_zero():
    ham = M.DelayHamiltonian(E.ZERO, (0, 0, 0, 0))
    assert M.action_density(ham) is E.const(0)


def test_action_density_degenerate(degenerate_oscillator):
    _, ham = degenerate_oscillator
    expected = E.sub(E.parse("pm*(qd + qdm) + p*(qd + qdm)"), ham.h)
    assert z(E.sub(M.action_density(ham), expected)).ok


# ---------------------------------------------------------------------------
# variational residuals
# ---------------------------------------------------------------------------


def test_residuals_nondegenerate(oscillator):
    _, ham = oscillator
    rp, rq, rt = M.variational_residuals(ham)
    assert z(E.sub(rp, E.parse("qdp + qdm - pp - pm"))).ok
    assert z(E.sub(rq, E.parse("-(pdp + pdm + qp + qm)"))).ok
    assert rt is not None


def test_residuals_zero_hamiltonian():
    ham = M.DelayHamiltonian(E.ZERO, (0, 0, 0, 0))
    rp, rq, rt = M.variational_residuals(ham)
    assert rp is E.const(0)
    assert rq is E.const(0)
    assert z(rt).ok


def test_residuals_degenerate(degenerate_oscillator):
    _, ham = degenerate_oscillator
    rp, rq, _ = M.variational_residuals(ham)
    assert z(E.sub(rp, E.parse("qdp + 2*qd + qdm - (pp + 2*p + pm)"))).ok
    assert z(E.sub(rq, E.parse("-(pdp + 2*pd + pdm + qp + 2*q + qm)"))).ok


def test_residuals_agree_with_variational_operators():
    for k in range(8):
        rng = np.random.default_rng(4000 + k)
        ham = random_quadratic_hamiltonian(rng)
        density = M.action_density(ham)
        rp, rq, rt = M.variational_residuals(ham)
        assert z(E.sub(M.variational_p(density), rp), seed=k).ok
        assert z(E.sub(M.variational_q(density), rq), seed=k).ok
        assert z(E.sub(M.variational_t(density), rt), seed=k).ok


# first-order coordinates at shifts -1 and 0: one forward shift stays in the jet space
_BACK_AND_HERE = [E.t, E.tm, E.q, E.qm, E.p, E.pm, E.qd, E.qdm, E.pd, E.pdm]


def three_point_expressions():
    """A first-order expression in the backward and current coordinates plus
    the forward shift of another, so it reaches all three points and each of
    its shifted copies stays in the jet space."""
    def build(seed):
        rng = np.random.default_rng(seed)
        here = random_expr(rng, _BACK_AND_HERE, depth=3)
        return E.add(here, E.shift(random_expr(rng, _BACK_AND_HERE, depth=3), +1))

    return st.integers(0, 2**32 - 1).map(build)


def _copies(piece):
    """The sum over the shifts s of the copy's piece(s), moved back by s."""
    return E.add(*[piece(s) if s == 0 else E.shift(piece(s), -s) for s in (-1, 0, 1)])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(three_point_expressions())
def test_the_variational_operators_sum_over_three_shifted_copies(e):
    def euler(base):
        return lambda s: E.sub(E.partial(e, E.symbol(base, s, 0)),
                               E.total_derivative(E.partial(e, E.symbol(base, s, 1))))

    def horizontal(s):
        rates = [E.mul(E.symbol(b, s, 1), E.partial(e, E.symbol(b, s, 1))) for b in "qp"]
        return E.add(E.partial(e, E.symbol("t", s)), E.total_derivative(E.add(*rates)))

    assert z(E.sub(M.variational_p(e), _copies(euler("p"))), seed=5).ok
    assert z(E.sub(M.variational_q(e), _copies(euler("q"))), seed=5).ok
    assert z(E.sub(M.variational_t(e), E.sub(_copies(horizontal), E.total_derivative(e))), seed=5).ok


# ---------------------------------------------------------------------------
# second-order residual
# ---------------------------------------------------------------------------


def test_elsgolts_nondegenerate(oscillator):
    lag, _ = oscillator
    assert z(E.sub(M.elsgolts_residual(lag), E.parse("-(qddp + qddm + qp + qm)"))).ok


def test_elsgolts_pure_kinetic():
    lag = M.QuadraticLagrangian(0, 1, 0, E.ZERO)
    assert z(E.sub(M.elsgolts_residual(lag), E.parse("-(qddp + qddm)"))).ok


def test_elsgolts_degenerate(degenerate_oscillator):
    lag, _ = degenerate_oscillator
    expected = E.parse("-(qddp + 2*qdd + qddm + qp + 2*q + qm)")
    assert z(E.sub(M.elsgolts_residual(lag), expected)).ok


def test_elsgolts_general_route_agrees(oscillator, degenerate_oscillator):
    for lag, _ in (oscillator, degenerate_oscillator):
        gap = E.sub(elsgolts_residual_general(lag.expr()), M.elsgolts_residual(lag))
        assert z(gap).ok


# ---------------------------------------------------------------------------
# local extremal combination
# ---------------------------------------------------------------------------


def test_local_extremal_zero_generator(oscillator):
    _, ham = oscillator
    g = M.Generator(E.ZERO, E.ZERO, E.ZERO)
    assert M.local_extremal_residual(ham, g) is E.const(0)


def test_local_extremal_selects_rq(oscillator):
    _, ham = oscillator
    g = M.Generator(E.ZERO, E.ONE, E.ZERO)
    _, rq, _ = M.variational_residuals(ham)
    assert M.local_extremal_residual(ham, g) is rq


def test_local_extremal_scaling_combination(oscillator):
    _, ham = oscillator
    g = M.Generator(E.ZERO, E.q, E.p)
    rp, rq, _ = M.variational_residuals(ham)
    combo = M.local_extremal_residual(ham, g)
    for k in range(10):
        jet = E.random_jet(600, k)
        direct = jet.value("q") * E.evaluate(rq, jet) + jet.value("p") * E.evaluate(rp, jet)
        assert E.evaluate(combo, jet) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_local_extremal_linearity(oscillator):
    _, ham = oscillator
    g1 = M.Generator(E.t, E.q, E.ZERO)
    g2 = M.Generator(E.ZERO, E.sin(E.t), E.p)
    g_sum = M.Generator(E.add(g1.xi, g2.xi), E.add(g1.eta, g2.eta), E.add(g1.nu, g2.nu))
    gap = E.sub(
        M.local_extremal_residual(ham, g_sum),
        E.add(M.local_extremal_residual(ham, g1), M.local_extremal_residual(ham, g2)),
    )
    assert z(gap).ok


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


def test_prolong_sincos():
    g = M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)"))
    zeta_eta, zeta_nu = M.prolong(g)
    assert zeta_eta is E.cos(E.t)
    assert zeta_nu is E.neg(E.sin(E.t))


def test_prolong_time_translation():
    g = M.Generator(E.ONE, E.ZERO, E.ZERO)
    zeta_eta, zeta_nu = M.prolong(g)
    assert z(zeta_eta).ok and z(zeta_nu).ok


def test_prolong_dilation_cancels():
    g = M.Generator(E.t, E.q, E.p)
    zeta_eta, zeta_nu = M.prolong(g)
    assert z(zeta_eta).ok and z(zeta_nu).ok


# ---------------------------------------------------------------------------
# admissible time coefficients
# ---------------------------------------------------------------------------


def test_xi_affine_admissible():
    assert M.xi_admissible(M.Generator(E.parse("2*t + 1"), E.ZERO, E.ZERO))


def test_xi_state_dependent_not_admissible():
    assert not M.xi_admissible(M.Generator(E.q, E.ZERO, E.ZERO))


def test_xi_delay_periodic_admissible():
    two_pi = E.const(2 * np.pi)
    periodic = E.sin(E.div(E.mul(two_pi, E.t), E.tau))
    assert M.xi_admissible(M.Generator(periodic, E.ZERO, E.ZERO))
    not_periodic = E.sin(E.div(E.mul(E.const(3.0), E.t), E.tau))
    assert not M.xi_admissible(M.Generator(not_periodic, E.ZERO, E.ZERO))


# ---------------------------------------------------------------------------
# on-shell structure
# ---------------------------------------------------------------------------


def test_momentum_substitution_reduces_to_elsgolts(oscillator):
    lag, ham = oscillator
    rp, rq, _ = M.variational_residuals(ham)
    sub = momentum_substitution(E.qd)  # p = qd for these weights
    assert E.is_zero(E.substitute(rp, sub), samples=50, tol=1e-9, seed=9).ok
    gap = E.sub(E.substitute(rq, sub), M.elsgolts_residual(lag))
    assert E.is_zero(gap, samples=50, tol=1e-9, seed=9).ok


def test_on_shell_jet_satisfies_canonical_pair(oscillator):
    _, ham = oscillator
    rp, rq, rt = M.variational_residuals(ham)
    for k in range(20):
        jet = M.on_shell_jet(ham, 77, k)
        assert abs(E.evaluate(rp, jet)) < 1e-12
        assert abs(E.evaluate(rq, jet)) < 1e-12


def test_horizontal_residual_not_implied(oscillator):
    # a jet satisfying both canonical equations with nonzero horizontal residual
    _, ham = oscillator
    _, _, rt = M.variational_residuals(ham)
    jet = M.on_shell_jet(ham, 78, 0)
    assert abs(E.evaluate(rt, jet)) > 1e-3


def test_on_shell_requires_invertible_weights():
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (0, 0, 1, 0))
    with pytest.raises(ValueError):
        M.on_shell_jet(ham, 1, 0)


def test_identity_dual_route_for_generators(oscillator, oscillator_generators):
    _, ham = oscillator
    density = M.action_density(ham)
    for g in oscillator_generators.values():
        combined = E.add(g.apply(density), E.mul(density, E.total_derivative(g.xi)))
        from delayham import noether as N

        gap = E.sub(N.invariance_residual(ham, g), combined)
        assert E.is_zero(gap, samples=40, tol=1e-10, seed=5).ok


def test_prolonged_apply_handles_second_order():
    g = M.Generator(E.t, E.q, E.p)
    e = E.parse("qdd*p + qddm*sin(t)")
    out = g.apply(e)
    assert any(s.order == 2 for s in E.symbols_of(out))


def _reference_on_shell_slots(h, seed, k, second_order):
    """One on-shell jet solved value by value with the scalar evaluator;
    qddp and pddp are solved only when `second_order` is set."""
    a1, a2, a3, a4 = (float(a) for a in h.alphas)
    jet = E.random_jet(seed, k)
    dp = M.shifted_pair_partial(h.h, "p")
    dq = M.shifted_pair_partial(h.h, "q")
    v = jet.value
    jet = jet_with_values(jet, {
        "qdp": (E.evaluate(dp, jet) - (a2 + a3) * v("qd") - a4 * v("qdm")) / a1,
        "pdp": (-E.evaluate(dq, jet) - (a2 + a3) * v("pd") - a1 * v("pdm")) / a4,
    })
    if second_order:
        v = jet.value
        jet = jet_with_values(jet, {
            "qddp": (E.evaluate(E.total_derivative(dp), jet) - (a2 + a3) * v("qdd") - a4 * v("qddm")) / a1,
            "pddp": (-E.evaluate(E.total_derivative(dq), jet) - (a2 + a3) * v("pdd") - a1 * v("pddm")) / a4,
        })
    return jet.slots()


@pytest.mark.parametrize("second_order", [False, True])
def test_batched_on_shell_columns_match_single_jets(oscillator, second_order):
    # Every on-shell jet carries its second-order slots.  Against the
    # first-order reference, every slot but qddp and pddp must keep its bits:
    # the second solve writes nothing else.
    skip = {E.SYMBOL_BY_NAME[n].index for n in ("qddp", "pddp")} if not second_order else set()
    rng = np.random.default_rng(31)
    hams = [oscillator[1], M.DelayHamiltonian(E.parse("sin(t)*p*pm + q^3*qm + exp(q/4)"), (2, 1, -1, 3))]
    for _ in range(6):
        ham = random_quadratic_hamiltonian(rng)
        if ham.alphas[0] != 0 and ham.alphas[3] != 0:
            hams.append(ham)
    for ham in hams:
        slots = M.on_shell_jets(ham, 55, 12)
        for k in range(12):
            column = slots[:, k].tolist()
            assert column == M.on_shell_jet(ham, 55, k).slots()
            reference = _reference_on_shell_slots(ham, 55, k, second_order)
            assert [x for i, x in enumerate(column) if i not in skip] == [
                x for i, x in enumerate(reference) if i not in skip
            ]


@pytest.mark.parametrize("weights", [(0, 0, 0, 1), (1, 0, 0, 0), (Fraction(1, 10**400), 0, 0, 1),
                                     (1, 0, 0, Fraction(-1, 10**400))])
def test_on_shell_jets_need_outer_weights_that_are_nonzero_doubles(weights):
    # a weight that rounds to 0.0 would be divided by in double arithmetic
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), weights)
    assert not ham.solvable
    with pytest.raises(ValueError, match="on-shell construction needs a1 != 0 and a4 != 0"):
        M.on_shell_jets(ham, 3, 4)
