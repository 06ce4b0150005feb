import numpy as np
import pytest

from delayham import expr as E

from conftest import curve_jet, random_expr


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_golden_product_sum():
    e = E.parse("p*pm + q*qm")
    assert isinstance(e, E.Add)
    assert e is E.add(E.mul(E.p, E.pm), E.mul(E.q, E.qm))


def test_parse_zero_literal():
    assert E.parse("0") is E.const(0)


def test_parse_power_roundtrip_modulo_whitespace():
    src = "sin(t)*qd - (q+qm)^2/2"
    e = E.parse(src)
    assert any(isinstance(n, E.Pow) and n.exponent == 2 for n in _walk(e))
    printed = E.to_source(e)
    assert printed.replace(" ", "") == src.replace(" ", "")
    assert E.parse(printed) is e


def _walk(e):
    yield e
    for c in E._children(e):
        yield from _walk(c)


@pytest.mark.parametrize(
    "src",
    [
        "q", "tau", "q + p - 2", "3/4*q", "q/2", "-q*p", "exp(2*t)", "q^(-2)",
        "sin(t)*cos(tm) - exp(q)*p^3", "(qd + qdm)^2/2 - 1.5*q", "t*tau + tp",
    ],
)
def test_print_parse_identity(src):
    e = E.parse(src)
    assert E.parse(E.to_source(e)) is e


def test_print_parse_identity_random_trees():
    atoms = [E.q, E.qm, E.p, E.pm, E.t, E.qd, E.tau]
    for k in range(60):
        rng = np.random.default_rng(900 + k)
        e = random_expr(rng, atoms, depth=4)
        assert E.parse(E.to_source(e)) is e


def test_parse_syntax_error_offset():
    with pytest.raises(E.ParseError) as err:
        E.parse("q + * p")
    assert err.value.offset == 4


def test_parse_unknown_identifier_named():
    with pytest.raises(E.UnknownIdentifierError) as err:
        E.parse("q + speed")
    assert err.value.identifier == "speed"


def test_parse_rejects_trailing_garbage():
    with pytest.raises(E.ParseError):
        E.parse("q q")


def test_parse_rejects_float_exponent():
    with pytest.raises(E.ParseError):
        E.parse("q^2.5")


def test_division_by_literal_zero_rejected():
    with pytest.raises(E.ExprError):
        E.parse("q/0")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_product():
    jet = E.JetPoint(0.7, {"q": 2.0, "qm": 3.0}, t_value=0.0)
    assert E.evaluate(E.parse("q*qm"), jet) == 6.0


def test_eval_time_span_forced_by_delay():
    jet = E.JetPoint(0.7, t_value=1.3)
    assert E.evaluate(E.parse("tp - tm"), jet) == pytest.approx(1.4, abs=1e-15)


def test_eval_divergence_matches_composed_derivative():
    # the invariance residual of the sin/cos generator equals the total
    # derivative of its potential at every jet point
    om = E.parse("cos(tm)*qd + cos(t)*qdm - sin(tm)*q - sin(t)*qm")
    dv = E.total_derivative(E.parse("cos(tm)*q + cos(t)*qm"))
    for k in range(10):
        jet = E.random_jet(42, k)
        assert E.evaluate(om, jet) == pytest.approx(E.evaluate(dv, jet), rel=1e-12, abs=1e-12)


def test_eval_missing_symbol():
    jet = E.JetPoint(1.0, {"q": 1.0}, t_value=0.0)
    with pytest.raises(E.MissingSymbolError) as err:
        E.evaluate(E.parse("q*p"), jet)
    assert err.value.symbol.name == "p"


def test_eval_division_by_zero():
    jet = E.JetPoint(1.0, {"q": 0.0, "p": 1.0}, t_value=0.0)
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("p/q"), jet)


def test_jet_rejects_conflicting_shifted_time():
    with pytest.raises(ValueError):
        E.JetPoint(1.0, {"tm": 5.0}, t_value=0.0)


def test_jet_advanced_matches_shift():
    e = E.parse("q*pm + sin(t)*qdm")
    jet = E.random_jet(7, 0)
    shifted = E.shift(e, +1)
    assert E.evaluate(shifted, jet) == pytest.approx(E.evaluate(e, jet.advanced()), rel=1e-12)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------


def test_partial_golden():
    assert E.partial(E.parse("p*pm + q*qm"), "p") is E.pm
    assert E.partial(E.const(5), "q") is E.const(0)
    assert E.partial(E.parse("sin(t)*qd"), "qd") is E.sin(E.t)


def test_partial_commutes():
    atoms = [E.q, E.qm, E.p, E.pm, E.t, E.qd]
    for k in range(12):
        rng = np.random.default_rng(300 + k)
        e = random_expr(rng, atoms, depth=3)
        d_qp = E.partial(E.partial(e, "q"), "p")
        d_pq = E.partial(E.partial(e, "p"), "q")
        gap = E.sub(d_qp, d_pq)
        assert E.is_zero(gap, samples=50, tol=1e-10, seed=400 + k).ok


# ---------------------------------------------------------------------------
# total derivative
# ---------------------------------------------------------------------------


def test_total_derivative_product_rule():
    d = E.total_derivative(E.parse("q*qm"))
    assert E.is_zero(E.sub(d, E.parse("qd*qm + q*qdm")), samples=20, tol=1e-12, seed=1).ok


def test_total_derivative_unit_time_rate():
    assert E.total_derivative(E.tp) is E.const(1)
    assert E.total_derivative(E.t) is E.const(1)
    assert E.total_derivative(E.tau) is E.const(0)


def test_total_derivative_divergence_golden():
    d = E.total_derivative(E.parse("cos(tm)*q + cos(t)*qm"))
    expected = E.parse("-sin(tm)*q + cos(tm)*qd - sin(t)*qm + cos(t)*qdm")
    assert E.is_zero(E.sub(d, expected), samples=20, tol=1e-12, seed=2).ok


def test_total_derivative_linearity():
    e1 = E.parse("q*pm + sin(t)")
    e2 = E.parse("qd*qm")
    combo = E.add(E.mul(3, e1), E.mul(-2, e2))
    gap = E.sub(
        E.total_derivative(combo),
        E.add(E.mul(3, E.total_derivative(e1)), E.mul(-2, E.total_derivative(e2))),
    )
    assert E.is_zero(gap, samples=30, tol=1e-12, seed=3).ok


def test_total_derivative_rejects_second_order_input():
    with pytest.raises(E.DerivativeOrderError):
        E.total_derivative(E.qdd)


def test_total_derivative_matches_curve_finite_difference():
    atoms = [E.q, E.qm, E.qp, E.p, E.pm, E.t, E.qd, E.pdm]
    h = 1e-5
    tau_value = 0.8
    checked = 0
    for k in range(40):
        rng = np.random.default_rng(500 + k)
        e = random_expr(rng, atoms, depth=3)
        if not E.symbols_of(e):
            continue
        if any(s.order >= 2 for s in E.symbols_of(e)):
            continue
        de = E.total_derivative(e)
        for t0 in (0.3, 1.1):
            plus = E.evaluate(e, curve_jet(t0 + h, tau_value))
            minus = E.evaluate(e, curve_jet(t0 - h, tau_value))
            fd = (plus - minus) / (2 * h)
            exact = E.evaluate(de, curve_jet(t0, tau_value))
            assert fd == pytest.approx(exact, rel=5e-7, abs=5e-7)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_golden():
    assert E.shift(E.parse("pm*qdm"), +1) is E.parse("p*qd")
    assert E.shift(E.parse("p*pm + q*qm"), +1) is E.parse("pp*p + qp*q")


def test_shift_inverse_pair():
    e = E.parse("sin(t)*q + p*qd")
    assert E.shift(E.shift(e, +1), -1) is e


def test_shift_overflow_names_symbol():
    with pytest.raises(E.ShiftRangeError) as err:
        E.shift(E.parse("qp + q"), +1)
    assert err.value.symbol.name == "qp"


def test_shift_advances_time_symbol():
    assert E.shift(E.t, +1) is E.tp
    jet = E.random_jet(11, 0)
    assert E.evaluate(E.shift(E.t, +1), jet) == pytest.approx(jet.t + jet.tau)


# ---------------------------------------------------------------------------
# is_zero
# ---------------------------------------------------------------------------


def test_is_zero_accepts_true_identity():
    gap = E.sub(E.total_derivative(E.q), E.qd)
    assert E.is_zero(gap, samples=50, tol=1e-12, seed=0).ok


def test_is_zero_rejects_with_witness():
    chk = E.is_zero(E.sub(E.q, E.qm), samples=50, tol=1e-9, seed=0)
    assert not chk.ok
    assert chk.witness is not None
    value = E.evaluate(E.sub(E.q, E.qm), chk.witness)
    assert abs(value) > 0


def test_is_zero_validates_arguments():
    with pytest.raises(ValueError):
        E.is_zero(E.q, samples=0)
    with pytest.raises(ValueError):
        E.is_zero(E.q, tol=0.0)


def test_is_zero_deterministic_per_seed():
    a = E.random_jet(123, 5)
    b = E.random_jet(123, 5)
    assert a.slots() == b.slots()
    c = E.random_jet(124, 5)
    assert a.slots() != c.slots()


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------


def test_substitute_momentum_expression():
    e = E.parse("p*pm + q*qm")
    out = E.substitute(e, {"p": E.qd, "pm": E.qdm})
    assert out is E.parse("qd*qdm + q*qm")


def test_fraction_constants_survive_roundtrip():
    e = E.parse("3/4*q")
    assert isinstance(e, E.Mul)
    assert e.factors[0].value == 0.75
    assert E.parse(E.to_source(e)) is e
