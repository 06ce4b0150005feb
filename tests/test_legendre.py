import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delayham import cli
from delayham import expr as E
from delayham import legendre as L
from delayham import model as M

from conftest import (
    elsgolts_residual_general,
    extended_elsgolts_display,
    extended_momentum_substitution,
    extended_residuals,
    momentum_substitution,
)


def z(e, seed=0, samples=40, tol=1e-10):
    return E.is_zero(e, samples=samples, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def test_forward_nondegenerate_golden(oscillator):
    lag, _ = oscillator
    res = L.legendre_forward(lag, 1)
    assert res.hamiltonian.h is E.parse("p*pm + q*qm")
    assert res.hamiltonian.alphas == (1, 0, 0, 1)
    assert not res.degenerate
    assert res.momentum_map == (E.qd, E.qdm)
    assert res.inverse_map == (E.p, E.pm)


def test_forward_degenerate_golden(degenerate_oscillator):
    lag, _ = degenerate_oscillator
    res = L.legendre_forward(lag, 1)
    assert res.hamiltonian.h is E.parse("(p+pm)^2/2 + (q+qm)^2/2")
    assert res.hamiltonian.alphas == (1, 1, 1, 1)
    assert res.degenerate
    assert res.momentum_map is None
    assert z(E.sub(res.merged_relation, E.parse("p + pm - (qd + qdm)"))).ok


def test_forward_takes_the_exact_root_of_a_perfect_square():
    # the root of alpha = 4 is the integer 2; a float root would print 2.0*p
    res = L.legendre_forward(M.QuadraticLagrangian(4, 4, 4, E.parse("q*qm")))
    assert E.to_source(res.hamiltonian.h) == "(2*p + 2*pm)^2/2 + q*qm"


def test_forward_mixed_coefficients():
    lag = M.QuadraticLagrangian(2, 1, 0, E.ZERO)
    res = L.legendre_forward(lag, 1)
    assert z(E.sub(res.hamiltonian.h, E.parse("p^2 + p*pm"))).ok
    assert res.hamiltonian.alphas == (1, 0, 2, 1)


def test_forward_default_scale_is_beta():
    lag = M.QuadraticLagrangian(0, 3, 0, E.ZERO)
    res = L.legendre_forward(lag)
    assert res.momentum_map[0] is E.qd


def test_forward_errors():
    lag = M.QuadraticLagrangian(0, 1, 0, E.ZERO)
    with pytest.raises(L.LegendreError):
        L.legendre_forward(lag, 0)
    with pytest.raises(L.DegenerateSignError):
        L.legendre_forward(M.QuadraticLagrangian(-1, 1, -1, E.ZERO), 1)


def test_momentum_and_inverse_maps_are_mutually_inverse():
    lag = M.QuadraticLagrangian(1, 2, 0, E.ZERO)
    res = L.legendre_forward(lag, 3)
    recovered = E.substitute(res.inverse_map[0], {"p": res.momentum_map[0]})
    assert z(E.sub(recovered, E.qd)).ok
    recovered_m = E.substitute(res.momentum_map[1], {"qdm": res.inverse_map[1]})
    assert z(E.sub(recovered_m, E.pm)).ok


def test_shift_compatibility_of_momentum_map():
    for alpha, beta, gamma, a1 in [(0, 1, 0, 1), (2, 1, 0, 3), (1, 2, 1, 2)]:
        res = L.legendre_forward(M.QuadraticLagrangian(alpha, beta, gamma, E.ZERO), a1)
        gap = E.sub(E.shift(res.momentum_map[1], +1), res.momentum_map[0])
        assert z(gap).ok


# ---------------------------------------------------------------------------
# reverse transform and round trips
# ---------------------------------------------------------------------------


def test_reverse_golden(oscillator):
    lag, _ = oscillator
    quad = M.QuadraticHamiltonian(0, 1, 0, E.parse("q*qm"))
    back, alphas, vel = L.legendre_reverse(quad, 1)
    assert back == lag
    assert back.expr() is E.parse("qd*qdm - q*qm")
    assert alphas == (1, 0, 0, 1)
    assert vel[0] is E.p


def test_reverse_degenerate_golden(degenerate_oscillator):
    lag, _ = degenerate_oscillator
    quad = M.QuadraticHamiltonian(1, 1, 1, E.parse("(q+qm)^2/2"))
    back, alphas, _ = L.legendre_reverse(quad, 1)
    assert back == lag
    assert alphas == (1, 1, 1, 1)


def test_round_trips_exact():
    # the reverse scale must match the forward one; the default (beta for the
    # forward, B for the reverse) does exactly that
    for alpha, beta, gamma in [(0, 1, 0), (2, 1, 0), (1, 2, 1), (1, 1, 1)]:
        lag = M.QuadraticLagrangian(alpha, beta, gamma, E.parse("q*qm"))
        res = L.legendre_forward(lag)
        back, _, _ = L.legendre_reverse(res.quadratic)
        # structural equality after constant folding
        assert back.expr() is lag.expr()
        res1 = L.legendre_forward(lag, 1)
        back1, _, _ = L.legendre_reverse(res1.quadratic, 1)
        assert back1.expr() is lag.expr()


def test_reverse_errors():
    quad = M.QuadraticHamiltonian(0, 1, 0, E.ZERO)
    with pytest.raises(L.LegendreError):
        L.legendre_reverse(quad, 0)
    with pytest.raises(ValueError):
        M.QuadraticHamiltonian(1, 0, 1, E.ZERO)


def test_a_weight_in_the_normal_range_keeps_its_double_bits():
    # 1.4*8.5/7.7 rounds twice to 1.5454545454545452; the exact quotient
    # rounds once to 1.5454545454545454
    lag = M.QuadraticLagrangian(1, 7.7, 8.5, E.ZERO)
    assert L.pairing_weights(lag, 1.4)[1] == 1.4 * 8.5 / 7.7 != float(Fraction(14 * 85, 10 * 77))


def test_a_weight_whose_double_arithmetic_underflows_is_the_exact_value():
    # a3 = a1*alpha/beta: a1*alpha = 5e-324*5e-324 underflows to 0 before the division
    lag = M.QuadraticLagrangian(5e-324, 5e-324, 1, E.ZERO)
    assert L.pairing_weights(lag, 5e-324) == (5e-324, 1.0, 5e-324, 5e-324)
    quad = M.QuadraticHamiltonian(5e-324, 5e-324, 1, E.ZERO)
    assert L.legendre_reverse(quad, 5e-324)[1] == (5e-324, 1.0, 5e-324, 5e-324)


def test_a_weight_whose_exact_value_rounds_to_0_is_a_legendre_error():
    # a3 = 5e-324*5e-324/1 is below half the smallest subnormal
    with pytest.raises(L.LegendreError, match="^the pairing weight a3 underflows to 0$"):
        L.pairing_weights(M.QuadraticLagrangian(5e-324, 1, 1, E.ZERO), 5e-324)
    with pytest.raises(L.LegendreError, match="^the pairing weight a3 underflows to 0$"):
        L.legendre_reverse(M.QuadraticHamiltonian(5e-324, 1, 1, E.ZERO), 5e-324)


@pytest.mark.parametrize("a1", [1e10, 10**10], ids=["double", "exact"])
def test_a_derived_coefficient_beyond_the_double_range_is_a_legendre_error(a1):
    # a3 = a1*alpha/beta = 1e310: inf in double arithmetic, and a Fraction
    # beyond the double range in exact arithmetic, which reached
    # `model._num` as a ValueError
    lag = M.QuadraticLagrangian(10**300, 1, 1, E.ZERO)
    with pytest.raises(L.LegendreError, match="^the pairing weight a3 overflows in double arithmetic$"):
        L.legendre_forward(lag, a1)


def test_a_degenerate_hamiltonian_coefficient_whose_square_underflows_is_exact():
    # a1*a1/gamma with a1 = 1e-170: a1*a1 underflows to 0, so b read 0
    lag = M.QuadraticLagrangian(1e-100, 1e-100, 1e-100, E.parse("q*qm"))
    res = L.legendre_forward(lag, 1e-170)
    exact = float(Fraction(1e-170) ** 2 / Fraction(1e-100))
    assert (res.quadratic.a, res.quadratic.b, res.quadratic.c) == (exact, exact, exact)
    assert E.to_source(res.hamiltonian.h) == "(1e-120*p + 1e-120*pm)^2/2 + q*qm"


# magnitudes across the double range: subnormals, the edges of the normal
# range, values whose squares underflow or overflow, and small integers
MAGNITUDES = st.one_of(
    st.integers(1, 9),
    st.sampled_from([5e-324, 3e-320, 1e-310, 2.2e-308, 1e-300, 3e-170, 1e-155, 1e-135, 0.5, 3.0,
                     1e30, 1e135, 1e155, 1e170, 1e300, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)


def coefficients(nonzero: bool = False):
    signed = st.tuples(MAGNITUDES, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])
    return signed if nonzero else st.one_of(st.just(0), signed)


def _outcome(run, names):
    """(coefficients, weights) of one transform direction, or its
    `LegendreError` with the coefficient `names` read as x, y and z."""
    try:
        coeffs, weights = run()
    except L.LegendreError as err:
        return re.sub(rf"(Hamiltonian|Lagrangian) coefficient ({'|'.join(names)})\b",
                      lambda m: "coefficient " + "xyz"[names.index(m.group(2))], str(err))
    return tuple(coeffs), tuple(weights)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(coefficients(), coefficients(nonzero=True), coefficients(), coefficients(nonzero=True))
def test_both_directions_carry_the_quadratic_form_by_one_map(x, y, z, a1):
    lag = M.QuadraticLagrangian(x, y, z, E.ZERO)
    assume(not lag.degenerate)

    def forward():
        res = L.legendre_forward(lag, a1)
        q = res.quadratic
        return (q.a, q.b, q.c), res.hamiltonian.alphas

    def reverse():
        back, weights, _ = L.legendre_reverse(M.QuadraticHamiltonian(x, y, z, E.ZERO), a1)
        return (back.alpha, back.beta, back.gamma), weights

    assert _outcome(forward, ["a", "b", "c"]) == _outcome(reverse, ["alpha", "beta", "gamma"])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9), st.booleans(),
       st.booleans())
def test_reverse_after_forward_gives_back_an_integer_lagrangian(x, y, z, a1, flip_y, flip_a1):
    lag = M.QuadraticLagrangian(x, -y if flip_y else y, z, E.parse("q*qm"))
    assume(not lag.degenerate or (lag.alpha > 0 and lag.beta > 0 and lag.gamma > 0))
    scale = -a1 if flip_a1 else a1
    back, _, _ = L.legendre_reverse(L.legendre_forward(lag, scale).quadratic, scale)
    assert back == lag


@pytest.mark.parametrize(
    "model, want",
    [
        ({"lagrangian": {"alpha": 1e300, "beta": 1e30, "gamma": 0, "phi": "q*qm"}},
         {"H": "5e-31*p^2 + 1e-300*p*pm + q*qm"}),
        ({"hamiltonian": {"H": "1e300/2*p^2 + 1e30*p*pm + q*qm", "alphas": [1, 0, 0, 1]}},
         {"L": "5e-31*qd^2 + 1e-300*qd*qdm - q*qm"}),
    ],
    ids=["forward", "reverse"],
)
def test_a_coefficient_whose_double_arithmetic_underflows_on_the_way_is_exact(tmp_path, capsys, model, want):
    # (alpha1/beta)^2 = 1e-330 underflows to 0 before it scales 1e300 to 1e-30
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(model, tau=1.0)))
    assert cli.main(["transform", "--config", str(path), "--alpha1", "1e-135"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload[key] for key in want} == want


# ---------------------------------------------------------------------------
# dynamics equivalence
# ---------------------------------------------------------------------------


def test_momentum_shell_reproduces_second_order_equation():
    rng = np.random.default_rng(42)
    for _ in range(6):
        alpha = int(rng.integers(-2, 3))
        beta = int(rng.integers(1, 4))
        gamma = int(rng.integers(-2, 3))
        if alpha * gamma == beta * beta:
            continue
        lag = M.QuadraticLagrangian(alpha, beta, gamma, E.parse("q^2*qm"))
        res = L.legendre_forward(lag)
        rp, rq, _ = M.variational_residuals(res.hamiltonian)
        sub = momentum_substitution(res.momentum_map[0])
        assert E.is_zero(E.substitute(rp, sub), samples=50, tol=1e-9, seed=3).ok
        gap = E.sub(E.substitute(rq, sub), M.elsgolts_residual(lag))
        assert E.is_zero(gap, samples=50, tol=1e-9, seed=3).ok


def test_degenerate_canonical_pair_matches_displayed_equations(degenerate_oscillator):
    lag, _ = degenerate_oscillator
    res = L.legendre_forward(lag, 1)
    rp, rq, _ = M.variational_residuals(res.hamiltonian)
    assert z(E.sub(rp, E.parse("qdp + 2*qd + qdm - (pp + 2*p + pm)"))).ok
    dphi = E.add(E.partial(lag.phi, "q"), E.shift(E.partial(lag.phi, "qm"), +1))
    assert z(E.sub(rq, E.neg(E.add(E.parse("pdp + 2*pd + pdm"), dphi)))).ok


# ---------------------------------------------------------------------------
# alternative weight derivation
# ---------------------------------------------------------------------------


def test_alternative_weights_golden(oscillator, degenerate_oscillator):
    assert L.alphas_alternative(oscillator[0]) == (1, 0, 0, 1)
    assert L.alphas_alternative(degenerate_oscillator[0]) == (1, 1, 1, 1)
    lag = M.QuadraticLagrangian(2, 1, 0, E.ZERO)
    assert L.alphas_alternative(lag) == (1, 0, 2, 1)


def test_alternative_weights_proportional_to_forward():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.2, 3))
        gamma = float(rng.uniform(-3, 3))
        lag = M.QuadraticLagrangian(alpha, beta, gamma, E.ZERO)
        alt = L.alphas_alternative(lag)
        fwd = L.pairing_weights(lag, 1)
        factor = float(alt[0]) / float(fwd[0])
        for a, f in zip(alt, fwd):
            assert float(a) == pytest.approx(factor * float(f), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# negative control: weights not from the transform
# ---------------------------------------------------------------------------


def test_incompatible_weights_change_the_equations(oscillator):
    _, ham = oscillator
    bad = M.DelayHamiltonian(ham.h, (0, 0, 1, 0))
    rp_bad, rq_bad, _ = M.variational_residuals(bad)
    assert z(E.sub(rp_bad, E.parse("qd - (pp + pm)"))).ok
    rp, _, _ = M.variational_residuals(ham)
    ratios = []
    for k in range(6):
        jet = E.random_jet(900, k)
        ratios.append(E.evaluate(rp_bad, jet) / E.evaluate(rp, jet))
    assert np.std(ratios) > 1e-3  # not a constant multiple


# ---------------------------------------------------------------------------
# extended transform
# ---------------------------------------------------------------------------


def _extended_constant(third=Fraction(1, 3)):
    return L.ExtendedLagrangian(
        E.const(2), E.const(1), E.const(third), E.q, E.const(2), E.parse("q*qm")
    )


def test_extended_reduces_to_constant_transform():
    ext = L.ExtendedLagrangian(
        E.const(2), E.const(1), E.const(Fraction(1, 3)), E.ZERO, E.ONE, E.parse("q*qm")
    )
    res = L.legendre_extended(ext)
    fwd = L.legendre_forward(M.QuadraticLagrangian(2, 1, Fraction(1, 3), E.parse("q*qm")))
    assert z(E.sub(res.h, fwd.hamiltonian.h)).ok
    for a_ext, a_fwd in zip(res.alphas, fwd.hamiltonian.alphas):
        assert z(E.sub(a_ext, E.const(a_fwd))).ok


def test_extended_oscillator_reduction(oscillator):
    ext = L.ExtendedLagrangian(E.ZERO, E.ONE, E.ZERO, E.ZERO, E.ONE, E.parse("q*qm"))
    res = L.legendre_extended(ext)
    assert res.h is E.parse("p*pm + q*qm")
    assert [E.to_source(a) for a in res.alphas] == ["1", "0", "0", "1"]


def test_extended_display_matches_operator_route():
    mu = E.parse("2 + q^2/4")
    lam = E.parse("q/2 + q^2/8")
    ext = L.ExtendedLagrangian(
        E.parse("2 + q*qm/8"),
        E.parse("1 + q/16"),
        E.parse("1/3 + qm/32"),
        lam,
        mu,
        E.parse("q^2*qm/3"),
    )
    gap = E.sub(extended_elsgolts_display(ext), elsgolts_residual_general(ext.expr()))
    assert E.is_zero(gap, samples=100, tol=1e-10, seed=19).ok


def test_extended_residuals_match_second_order_equation():
    ext = _extended_constant()
    res = L.legendre_extended(ext)
    rp, rq = extended_residuals(res)
    sub = extended_momentum_substitution(ext)
    assert E.is_zero(E.substitute(rp, sub), samples=30, tol=1e-8, seed=17).ok
    gap = E.sub(E.substitute(rq, sub), extended_elsgolts_display(ext))
    assert E.is_zero(gap, samples=30, tol=1e-8, seed=17).ok


def test_extended_velocity_map():
    ext = _extended_constant()
    res = L.legendre_extended(ext)
    assert z(E.sub(res.velocity_map[0], E.parse("2*p + q"))).ok
    assert z(E.sub(res.velocity_map[1], E.parse("2*pm + qm"))).ok


def test_extended_rejects_vanishing_mu():
    with pytest.raises(L.LegendreError):
        L.ExtendedLagrangian(E.const(2), E.ONE, E.const(Fraction(1, 3)), E.ZERO, E.q, E.ZERO)


def test_extended_rejects_degenerate_kinetic_form():
    with pytest.raises(L.LegendreError):
        L.ExtendedLagrangian(E.const(2), E.ONE, E.const(Fraction(1, 2)), E.ZERO, E.ONE, E.ZERO)


def _sweep_failure(alpha, beta, gamma, mu):
    """First failing sample check of a point-by-point sweep over q, then qm."""
    grid = np.linspace(-2.0, 2.0, 17)
    fa, fb, fg, fm = (E.compiled(e) for e in (alpha, beta, gamma, mu))
    slots = [float("nan")] * E.NSLOTS
    for qv in grid:
        slots[E.symbol("q", 0, 0).index] = qv
        if abs(fm(slots)) < 1e-9:
            return f"mu vanishes near q={qv} (singular momentum map)"
        for qmv in grid:
            slots[E.symbol("q", -1, 0).index] = qmv
            b = fb(slots)
            if abs(b) < 1e-12:
                return f"beta vanishes near (q={qv}, qm={qmv})"
            if abs(fa(slots) * fg(slots) - b * b) < 1e-12:
                return f"alpha*gamma - beta^2 vanishes near (q={qv}, qm={qmv})"
    return None


@pytest.mark.parametrize(
    "alpha, beta, gamma, mu",
    [
        ("2", "1", "1/3", "2"),
        ("2", "1", "1/3", "q - 1"),
        ("2", "qm + 1", "1/3", "q - 1"),
        ("2", "q - qm", "1/3", "q + 2"),
        ("q^2 + 1", "q*qm", "qm^2", "exp(q)"),
        ("2 + sin(q)", "1", "1/(2 + sin(q))", "2"),
    ],
)
def test_extended_sample_checks_match_point_sweep(alpha, beta, gamma, mu):
    parts = [E.parse(src) for src in (alpha, beta, gamma, mu)]
    want = _sweep_failure(*parts)
    try:
        L.ExtendedLagrangian(parts[0], parts[1], parts[2], E.ZERO, parts[3], E.ZERO)
        got = None
    except L.LegendreError as err:
        got = str(err)
    assert got == want
