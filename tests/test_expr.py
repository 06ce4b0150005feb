import builtins
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from delayham import expr as E
from delayham import model as M

from conftest import (
    array_binding,
    assert_same_bits,
    curve_jet,
    first_exp_overflow,
    random_expr,
    reference_jet_slots,
)


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
    with pytest.raises(E.ParseError, match="unexpected character '\\$'") as err:
        E.parse("q $ p")
    assert err.value.offset == 2


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


@pytest.mark.parametrize(
    "source",
    ["(" * 250 + "q" + ")" * 250, "sin(" * 250 + "q" + ")" * 250, "q^" + "(" * 250 + "2" + ")" * 250,
     "q" + "/q" * 250, "(" * 101 + "q" + ")" * 101, "sin(" * 50 + "(" * 51 + "q" + ")" * 101],
    ids=["parentheses-250", "sin-250", "exponent-250", "divisions-250", "parentheses-101", "mixed-101"],
)
def test_nesting_beyond_the_limit_is_a_parse_error(source):
    with pytest.raises(E.ParseError, match=f"nesting deeper than {E.MAX_NESTING} levels"):
        E.parse(source)


def test_nesting_up_to_the_limit_parses():
    assert E.parse("(" * 100 + "q" + ")" * 100) is E.q
    assert E.parse("q^" + "(" * 100 + "2" + ")" * 100) is E.parse("q^2")
    deep = E.parse("sin(" * 50 + "(" * 50 + "q" + ")" * 100)
    assert E.to_source(deep) == "sin(" * 50 + "q" + ")" * 50
    assert E.to_source(E.parse("q" + "/q" * 100)) == "q" + "/q" * 100


def test_any_run_of_minus_signs_parses():
    assert E.parse("-" * 2000 + "q") is E.q
    assert E.parse("-" * 2001 + "q") is E.neg(E.q)
    assert E.parse("q^" + "-" * 2001 + "2") is E.parse("q^(-2)")
    assert E.parse("-(-(-(q)))") is E.neg(E.q)
    # a negated or negative-constant denominator moves its sign out front
    assert E.parse("q/-p") is E.parse("-(q/p)")
    assert E.parse("q/-2") is E.parse("-(q/2)")
    assert E.parse("-q/-p") is E.parse("q/p")


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


def test_jet_rejects_a_bad_tau_or_value_and_names_a_missing_one():
    with pytest.raises(ValueError, match="tau must be a positive finite number"):
        E.JetPoint(0.0)
    with pytest.raises(ValueError, match="non-finite value for 'q'"):
        E.JetPoint(1.0, {"q": math.inf})
    with pytest.raises(E.MissingSymbolError) as err:
        E.JetPoint(1.0).value("q")
    assert err.value.symbol is E.q


@pytest.mark.parametrize(
    "values, t_value",
    [({"tm": 0.5, "q": 1.0}, 1.5), ({"tp": 2.5}, 1.5), ({"tp": 2.5, "tm": 0.5}, 1.5),
     ({"tm": 0.5, "t": 1.5}, 1.5)],
    ids=["tm", "tp", "tp-then-tm", "tm-then-t"],
)
def test_a_shifted_time_without_t_sets_the_time(values, t_value):
    jet = E.JetPoint(1.0, values)
    assert (jet.value("tm"), jet.t, jet.value("tp")) == (t_value - 1.0, t_value, t_value + 1.0)
    assert jet.slots() == E.JetPoint(1.0, {k: v for k, v in values.items() if k == "q"},
                                     t_value=t_value).slots()


@pytest.mark.parametrize("values", [{"tm": 0.5, "tp": 9.0}, {"tm": 0.5, "t": 9.0}])
def test_a_shifted_time_must_agree_with_the_other_times(values):
    with pytest.raises(ValueError, match="conflicts with t and tau"):
        E.JetPoint(1.0, values)


def _advanced(jet: E.JetPoint) -> E.JetPoint:
    """The jet one delay later, assuming shifted slots describe the same curve."""
    slots = list(E.JetPoint(jet.tau, t_value=jet.t + jet.tau).slots())
    for base in ("q", "p"):
        for order in range(3):
            for sh in (-1, 0):
                slots[E.symbol(base, sh, order).index] = jet.value(E.symbol(base, sh + 1, order))
    return E.JetPoint.from_slots(slots)


def test_jet_advanced_matches_shift():
    e = E.parse("q*pm + sin(t)*qdm")
    jet = E.random_jet(7, 0)
    shifted = E.shift(e, +1)
    assert E.evaluate(shifted, jet) == pytest.approx(E.evaluate(e, _advanced(jet)), rel=1e-12)


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


@pytest.mark.parametrize("source, named", [
    ("pdd*qdd + qddm*pddp", "qddm"), ("pddp + pdd*qddp", "qddp"), ("sin(pddm)*pddp + q", "pddm"),
    ("exp(pddp/qdd)", "qdd"),
])
def test_total_derivative_names_the_second_order_coordinate_in_the_lowest_slot(source, named):
    with pytest.raises(E.DerivativeOrderError, match=f"containing {named} would need"):
        E.total_derivative(E.parse(source))


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


def test_shift_direction_is_one_delay():
    with pytest.raises(ValueError, match="shift direction must be"):
        E.shift(E.q, 2)


def test_shift_overflow_names_symbol():
    e = E.parse("qp + q")
    for _ in range(2):  # the memo keeps no failed shift
        with pytest.raises(E.ShiftRangeError) as err:
            E.shift(e, +1)
        assert err.value.symbol.name == "qp"


def test_a_repeated_shift_returns_the_same_node_and_builds_nothing():
    e = E.parse("sin(tm)*qm^2/(1 + pm*qdm) - exp(q)*pd")
    first = E.shift(e, +1)
    nodes, memo = len(E._INTERN), len(E._SHIFT_CACHE)
    for _ in range(3):
        assert E.shift(e, +1) is first
    assert (len(E._INTERN), len(E._SHIFT_CACHE)) == (nodes, memo)
    assert E.shift(first, -1) is e


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


@pytest.mark.parametrize("block, error", [
    (np.zeros((5, 3)), ValueError),
    (np.zeros((E.NSLOTS, 3, 2)), ValueError),
    (np.zeros(E.NSLOTS), ValueError),
    (np.zeros((E.NSLOTS, 3), dtype=int), TypeError),
    (np.zeros((E.NSLOTS, 3), dtype=np.float32), TypeError),
    ([[0.0] * 3] * E.NSLOTS, TypeError),
], ids=["5-rows", "3-d", "1-d", "int", "float32", "nested-list"])
def test_array_evaluation_takes_only_a_float_slot_block(block, error):
    for call in (lambda r: E.evaluate_many((r,), block), lambda r: E.zero_checks((r,), block)):
        for root in (E.q, E.pdp):
            with pytest.raises(error, match="slot block"):
                call(root)


@pytest.mark.parametrize("call, message", [
    (lambda s: E.is_zero(3), "root 0 is not an Expr (int)"),
    (lambda s: E.evaluate_many([3], s), "root 0 is not an Expr (int)"),
    (lambda s: E.zero_checks([E.q, "x"], s), "root 1 is not an Expr (str)"),
    (lambda s: E.zero_checks([None], s), "root 0 is not an Expr (NoneType)"),
    (lambda s: E.evaluate_many([2.5], s), "root 0 is not an Expr (float)"),
    (lambda s: E.is_zero_at("q", [E.random_jet(3)]), "root 0 is not an Expr (str)"),
], ids=["is_zero-int", "evaluate_many-int", "zero_checks-str", "zero_checks-None",
        "evaluate_many-float", "is_zero_at-str"])
def test_a_root_that_is_not_an_expression_is_a_type_error_naming_its_index(call, message):
    with pytest.raises(TypeError) as err:
        call(E.random_jets(3, 4))
    assert str(err.value) == message


def test_is_zero_validates_arguments():
    with pytest.raises(ValueError):
        E.is_zero(E.q, samples=0)
    with pytest.raises(ValueError):
        E.is_zero(E.q, tol=0.0)
    # every zero check needs at least one jet and a positive tol
    jets = E.random_jets(0, 3)
    for check in (lambda s, tol: E.zero_checks([E.ZERO], s, tol),
                  lambda s, tol: E.is_zero_at(E.ZERO, [E.JetPoint.from_slots(c) for c in s.T], tol)):
        with pytest.raises(ValueError, match="at least one jet"):
            check(jets[:, :0], 1e-9)
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                check(jets, tol)


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


@pytest.mark.parametrize("key", [E.TAU, "tau", "x", E.parse("q*p"), 3], ids=["TAU", "tau", "x", "q*p", "3"])
def test_substitute_takes_only_jet_coordinates(key):
    # every entry that takes a coordinate resolves it the same way
    jet = E.JetPoint(1.0, {"q": 1.0}, t_value=0.0)
    for call in (
        lambda: E.substitute(E.parse("q*tau"), {key: 1}),
        lambda: E.partial(E.parse("q*tau"), key),
        lambda: E.JetPoint(1.0, {key: 1.0}),
        lambda: jet.value(key),
        lambda: E.sym(key),
    ):
        with pytest.raises(TypeError, match="not one of the 21 jet coordinates"):
            call()


def test_fraction_constants_survive_roundtrip():
    e = E.parse("3/4*q")
    assert isinstance(e, E.Mul)
    assert e.factors[0].value == 0.75
    assert E.parse(E.to_source(e)) is e


# ---------------------------------------------------------------------------
# node construction
# ---------------------------------------------------------------------------

NODE_FIELDS = [
    (E.Const, (1.5,)),
    (E.Sym, (E.SYMBOL_BY_NAME["q"],)),
    (E.TauConst, ()),
    (E.Add, ((E.q, E.p),)),
    (E.Mul, ((E.q, E.p),)),
    (E.Neg, (E.q,)),
    (E.Div, (E.q, E.p)),
    (E.Pow, (E.q, 2)),
    (E.Func, ("sin", E.q)),
]


def test_every_node_class_is_covered():
    assert {cls for cls, _ in NODE_FIELDS} == set(E.Expr.__subclasses__())


@pytest.mark.parametrize("cls, fields", NODE_FIELDS, ids=[cls.__name__ for cls, _ in NODE_FIELDS])
def test_a_node_class_cannot_be_called(cls, fields):
    nodes = len(E._INTERN)
    with pytest.raises(TypeError):
        cls(*fields)
    with pytest.raises(TypeError):
        cls()
    assert len(E._INTERN) == nodes


def test_a_node_slot_cannot_be_set_or_deleted():
    cases = [(E.parse("q*qm + pd"), "terms"), (E.ONE, "value"), (E.q, "index"), (E.parse("q^3"), "exponent")]
    for node, name in cases:
        before = getattr(node, name)
        with pytest.raises(AttributeError):
            setattr(node, name, before)
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) is before
    with pytest.raises(AttributeError):
        E.q.extra = 1


JET_NAMES = "t tm tp q qm qp p pm pp qd qdm qdp pd pdm pdp qdd qddm qddp pdd pddm pddp".split()


def test_each_jet_coordinate_is_one_atom():
    assert len(E.SYMBOLS) == len(JET_NAMES) == 21
    for name in JET_NAMES:
        base, order = name[0], name.count("d")
        shift = {"m": -1, "p": 1}.get(name[1 + order:], 0)
        atom = E.SYMBOL_BY_NAME[name]
        assert E.parse(name) is atom is E.symbol(base, shift, order) is E.sym(name) is getattr(E, name)
        assert (atom.name, atom.base, atom.shift, atom.order) == (name, base, shift, order)
    for k, atom in enumerate(E.SYMBOLS):
        assert atom.index == k
    with pytest.raises(ValueError, match="no jet symbol with base='x'"):
        E.symbol("x", 0)
    e = E.parse("q*qm^2 + sin(t)*pd")
    assert E.symbols_of(e) == {E.q, E.qm, E.t, E.pd}
    assert all(s is E.SYMBOL_BY_NAME[s.name] for s in E.symbols_of(e))
    assert E.partial(e, "q") is E.partial(e, E.q) is E.parse("qm^2")
    by_name = E.substitute(e, {"qm": E.q, "pd": 2})
    assert E.substitute(e, {E.qm: E.q, E.pd: 2}) is by_name is E.parse("q*q^2 + 2*sin(t)")
    with pytest.raises(E.MissingSymbolError) as err:
        E.evaluate(e, E.JetPoint(1.0, {"q": 1.0, "qm": 1.0}, t_value=0.0))
    assert err.value.symbol is E.pd
    with pytest.raises(E.ShiftRangeError) as err:
        E.shift(E.qdp, +1)
    assert err.value.symbol is E.qdp


def test_operators_build_the_nodes_of_the_functions():
    q, p = E.q, E.p
    assert 2 + q is E.add(2, q)
    assert q - p is E.sub(q, p)
    assert 2 - q is E.sub(2, q)
    assert 2 * q is E.mul(2, q)
    assert q / p is E.div(q, p)
    assert 2 / q is E.div(2, q)
    assert -q is E.neg(q)
    assert str(q * p + 1) == E.to_source(q * p + 1)


def test_powi_takes_integral_exponents_only():
    assert E.powi(E.q, Fraction(3)) is E.powi(E.q, 3) is E.parse("q^3")
    assert E.powi(E.q, 0) is E.ONE
    with pytest.raises(TypeError, match="exponents must be integers"):
        E.powi(E.q, 1.5)


def test_constants_are_one_node_per_exact_value():
    assert E.const(1) is E.const(Fraction(2, 2)) is E.ONE
    assert E.const(1) is not E.const(1.0)
    assert E.const(0.0) is not E.const(-0.0)
    assert E.const(0.1) is not E.const(math.nextafter(0.1, 1.0))
    assert E.const(float("nan")) is E.const(float("nan"))
    with pytest.raises(TypeError, match="unsupported constant type str"):
        E.const("1")


def test_intern_and_derivative_keys_hold_nodes_not_ids():
    e = E.parse("sin(q)*qm^2/(1 + pm) - exp(tau*q)")
    E.total_derivative(E.shift(e, +1))
    node_ids = {id(n) for n in E._INTERN.values()}

    def holds_no_id(key) -> bool:
        parts = key if type(key) is tuple else (key,)
        return not any(isinstance(x, type) or (type(x) is int and x in node_ids) for x in parts)

    for key, node in E._INTERN.items():
        assert holds_no_id(key), key
        if type(node) in (E.Add, E.Mul):
            assert key[1] is E._children(node)  # the key shares the node's own tuple
        assert node.mask is E._MASKS[node.mask]
    for table in (E._PARTIAL_CACHE, E._SHIFT_CACHE, E._TOTAL_CACHE):
        assert table and all(holds_no_id(key) for key in table)


# ---------------------------------------------------------------------------
# batched sampling and the array binding
# ---------------------------------------------------------------------------

KERNEL_ATOMS = [E.t, E.tm, E.tp, E.q, E.qm, E.qp, E.p, E.pm, E.qd, E.pdp, E.qdd, E.tau]


def _same_bits(a, b) -> bool:
    """Equal as IEEE doubles, bit for bit; every NaN equals every NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


# (seed, start, n): 40 columns from 0 for each seed, then blocks that cross and
# pass sample index 2**32, and a negative start, which is outside the index range.
JET_BLOCKS = [(seed, 0, 40) for seed in [0, 7, 20260810, -3, 2**40 + 5]] + [
    (20260810, 2**32 - 3, 6),
    (7, 2**40, 8),
    (7, -1, 3),
]


@pytest.mark.parametrize(
    "seed, start, n",
    JET_BLOCKS,
    ids=[str(seed) if start == 0 else f"{seed}-from-{start}" for seed, start, _ in JET_BLOCKS],
)
def test_random_jets_columns_match_single_draws(seed, start, n):
    if start < 0:
        with pytest.raises(ValueError):
            E.random_jets(seed, n, start)
        with pytest.raises(ValueError):
            E.random_jet(seed, start)
        return
    slots = E.random_jets(seed, n, start)
    assert slots.shape == (E.NSLOTS, n)
    for k in range(n):
        column = slots[:, k]
        assert _same_bits(column, reference_jet_slots(seed, start + k))
        assert _same_bits(column, E.random_jet(seed, start + k).slots())
    inner = E.random_jets(seed, n // 2, start + n // 3)
    assert _same_bits(inner, slots[:, n // 3 : n // 3 + n // 2])


def test_random_jets_draw_the_reference_splitmix64_stream():
    # the first outputs of the reference splitmix64.c seeded with 0
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    units = E._draw_units(0, 1, 0)[:3, 0]
    assert units.tolist() == [(x >> 11) * 2.0**-53 for x in published]


def test_random_jets_take_integers_only():
    assert _same_bits(E.random_jets(np.int64(5), np.int32(3), np.uint8(2)), E.random_jets(5, 3, 2))
    for args in ((1, 2.5), (1.7, 2), (1, 2, 0.0), (1, 2, "0")):
        with pytest.raises(TypeError):
            E.random_jets(*args)
    with pytest.raises(TypeError):
        E.is_zero(E.q, samples=2.5)
    with pytest.raises(TypeError):
        E.is_zero(E.q, seed=1.7)


def test_random_jets_index_range_edges():
    last = E._SAMPLES_END - 1
    assert E._SAMPLES_END == 2**64 // 20
    slots = E.random_jets(5, 1, last)
    assert _same_bits(slots[:, 0], reference_jet_slots(5, last))
    for n, start in ((1, last + 1), (2, last), (1, -1), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            E.random_jets(5, n, start)
    with pytest.raises(ValueError, match="outside"):
        M.on_shell_jets(M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 0, 1)), 5, -1)
    with pytest.raises(ValueError, match="outside"):
        E.random_jet(5, last + 1)


def test_no_two_32_bit_seeds_share_a_draw_within_2_20_counters():
    # seed s's draw at counter c is a bijection of s + c * gamma (mod 2**64),
    # so seeds s != s' share one only if (c - c') * gamma is within 2**32 of 0
    d = np.arange(1, 2**20, dtype=np.uint64) * E._GAMMA
    assert ((d >= np.uint64(2**32)) & (d <= np.uint64(2**64 - 2**32))).all()


def test_array_binding_matches_scalar_kernel_bit_for_bit():
    rng = np.random.default_rng(4242)
    slots = E.random_jets(99, 24)
    columns = slots.T.tolist()
    compared = 0
    for _ in range(400):
        e = random_expr(rng, KERNEL_ATOMS, depth=4, extended=True)
        scalar = E.compiled(e)
        scalar_mag = E.compiled(e, with_magnitude=True)
        try:
            want = [scalar(c) for c in columns]
            want_mag = [scalar_mag(c) for c in columns]
        except (OverflowError, ZeroDivisionError, ValueError):
            with pytest.raises(E.EvalError):
                E.evaluate_many((e,), slots)[0]
            with np.errstate(**E._ARRAY_ERRSTATE):
                array_binding((e,), slots, with_magnitude=True)
            continue
        with np.errstate(all="ignore"):
            (got,) = array_binding((e,), slots)
            got_value, got_mag = array_binding((e,), slots, with_magnitude=True)
        assert _same_bits(got, want), E.to_source(e)
        assert _same_bits(got_value, [v for v, _ in want_mag]), E.to_source(e)
        finite = np.isfinite(got)
        assert _same_bits(got_mag[finite], [m for (_, m), f in zip(want_mag, finite) if f])
        assert _same_bits(E.evaluate_many((e,), slots)[0], want)
        compared += 1
    assert compared > 300


def test_constant_expression_evaluates_to_every_column():
    e = E.mul(E.const(3), E.sin(E.const(1)))
    values = E.evaluate_many((e,), E.random_jets(1, 5))[0]
    assert values.shape == (5,)
    assert _same_bits(values, [E.evaluate(e, E.random_jet(1, 0))] * 5)


def _loop_zero_check(e, jets, tol):
    """The plain per-jet zero check the batched one must agree with."""
    fn = E.compiled(e, with_magnitude=True)
    worst = 0.0
    for jet in jets:
        value, mag = fn(jet.slots())
        ratio = abs(value) / (1.0 + mag)
        if not (ratio <= tol):
            return False, jet, ratio
        worst = max(worst, ratio)
    return True, None, worst


def test_is_zero_agrees_with_a_per_jet_loop():
    rng = np.random.default_rng(77)
    atoms = [E.t, E.q, E.qm, E.p, E.pm, E.qd]
    outcomes = set()
    for k in range(150):
        a = random_expr(rng, atoms, depth=3)
        b = random_expr(rng, atoms, depth=2)
        # true identities, near misses and plain non-zeros
        e = E.sub(E.total_derivative(E.mul(a, b)),
                  E.add(E.mul(E.total_derivative(a), b), E.mul(a, E.total_derivative(b))))
        if k % 3 == 1:
            e = E.add(e, E.mul(E.const(1e-9), E.q))
        elif k % 3 == 2:
            e = E.add(e, a)
        for tol in (1e-12, 1e-9):
            chk = E.is_zero(e, samples=30, tol=tol, seed=k)
            ok, witness, worst = _loop_zero_check(e, [E.random_jet(k, j) for j in range(30)], tol)
            assert chk.ok is ok
            assert _same_bits(chk.worst, worst)
            if ok:
                assert chk.witness is None
            else:
                assert chk.witness.slots() == witness.slots()
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_is_zero_overflow_is_an_eval_error():
    # zero up to rounding wherever it is finite, so the check reaches the
    # first sample at which exp overflows
    e = E.parse("exp(200*q*qm)*(sin(q)^2 + cos(q)^2 - 1)")
    witness = first_exp_overflow(E.parse("200*q*qm"), E.random_jets(0, 400))
    assert witness is not None
    with pytest.raises(E.EvalError, match="numeric overflow") as err:
        E.is_zero(e, samples=400)
    assert err.value.jet.slots() == E.random_jet(0, witness).slots()


def test_zero_check_stops_at_the_first_witness():
    e = E.parse("exp(200*q*qm) - q - 1")
    fine = E.JetPoint(1.0, {"q": 0.5, "qm": 0.0}, t_value=0.0)
    overflow = E.JetPoint(1.0, {"q": 2.0, "qm": 2.0}, t_value=0.0)
    chk = E.is_zero_at(e, [fine, overflow])
    assert not chk.ok
    assert chk.witness is fine
    assert chk.worst == _loop_zero_check(e, [fine, overflow], 1e-9)[2]
    with pytest.raises(E.EvalError, match="numeric overflow") as err:
        E.is_zero_at(e, [overflow, fine])
    assert err.value.jet is overflow


def test_is_zero_at_missing_symbol_names_it():
    jet = E.JetPoint(1.0, {"q": 1.0}, t_value=0.0)
    with pytest.raises(E.MissingSymbolError) as err:
        E.is_zero_at(E.parse("q*qm"), [jet])
    assert err.value.symbol.name == "qm"
    assert err.value.jet is jet


def test_evaluate_array_names_the_first_failing_jet():
    slots = E.random_jets(3, 6)
    slots[E.SYMBOL_BY_NAME["qm"].index, 2] = slots[E.SYMBOL_BY_NAME["q"].index, 2]
    slots[E.SYMBOL_BY_NAME["qm"].index, 4] = slots[E.SYMBOL_BY_NAME["q"].index, 4]
    with pytest.raises(E.EvalError, match="division by zero") as err:
        E.evaluate_many((E.parse("1/(q - qm)"),), slots)[0]
    assert err.value.jet.slots() == slots[:, 2].tolist()


# ---------------------------------------------------------------------------
# one kernel for many roots
# ---------------------------------------------------------------------------


def _loop_rows(roots, slots):
    """The per-root evaluation `evaluate_many` must agree with."""
    return np.array([E.evaluate_many((r,), slots)[0] for r in roots]).reshape(len(roots), slots.shape[1])


def _roots_with_shared_subtrees(rng, count):
    base = [random_expr(rng, KERNEL_ATOMS, depth=3, extended=True) for _ in range(count)]
    roots = list(base)
    for i in range(count):
        a, b = base[i], base[int(rng.integers(count))]
        roots += [E.add(a, b), E.mul(a, E.sin(b)), E.div(a, E.add(E.const(0.5), E.mul(b, b)))]
    roots += [base[0], roots[-1], E.const(2.5), E.sin(E.const(1)), E.tau]  # repeats and constants
    return roots


def _assert_kernel_matches_per_root(roots, slots):
    """`evaluate_many` against per-root calls; then, on the columns where it is
    finite, the magnitude kernel's rows on both bindings and its tape against
    `compiled(e, True)`."""
    got = E.evaluate_many(roots, slots)
    assert got.shape == (len(roots), slots.shape[1])
    assert_same_bits(got, _loop_rows(roots, slots))
    kernel = E.compiled_many(roots, with_magnitude=True)
    with np.errstate(all="ignore"):
        rows = array_binding(roots, slots, with_magnitude=True)
        magnitudes = [array_binding((r,), slots, with_magnitude=True)[1] for r in roots]
    n = len(roots)
    finite = np.isfinite(rows).all(axis=0)
    assert_same_bits(rows[:n, finite], got[:, finite])
    # root j's magnitude is the largest |value| of any subtree of root j
    assert_same_bits(rows[n:, finite], np.array(magnitudes).reshape(n, -1)[:, finite])
    subtrees = {id(s): s for r in roots for s in _walk(r)}
    values = {key: np.abs(E.evaluate_many((s,), slots[:, finite])[0]) for key, s in subtrees.items()}
    for j, r in enumerate(roots):
        own = {id(s) for s in _walk(r)}
        assert_same_bits(rows[n + j, finite], np.max([values[key] for key in own], axis=0))
    for k in np.flatnonzero(finite):
        assert_same_bits(kernel(slots[:, k].tolist(), [0.0] * len(rows)), rows[:, k])
    return int(finite.sum())


def test_evaluate_many_matches_per_root_calls_bit_for_bit():
    slots = E.random_jets(123, 40)
    compared = finite = 0
    for k in range(12):
        rng = np.random.default_rng(5100 + k)
        roots = []
        for r in _roots_with_shared_subtrees(rng, 8):
            try:
                E.evaluate_many((r,), slots)[0]
            except E.EvalError:
                continue
            roots.append(r)
        finite += _assert_kernel_matches_per_root(roots, slots)
        compared += len(roots)
    assert compared > 300
    assert finite > 200
    # the two-root right-hand side of the canonical pair's RK4 stage
    for h in ("p*pm + q*qm", "p^2/2 + p*pm + exp(q/3)*pm^2 - sin(tm)*q*qm^2"):
        roots = [M.shifted_pair_partial(E.parse(h), x) for x in "pq"]
        assert _assert_kernel_matches_per_root(roots, slots) == 40
    assert E.evaluate_many([], slots).shape == (0, 40)


def _failure(fn):
    with pytest.raises(E.EvalError) as err:
        fn()
    return type(err.value), str(err.value), err.value.jet.slots()


def test_evaluate_many_raises_the_first_failing_root_like_the_loop():
    slots = E.random_jets(8, 12)
    q, qm = E.SYMBOL_BY_NAME["q"].index, E.SYMBOL_BY_NAME["qm"].index
    slots[[q, qm], 3] = 2.0  # exp(200*q*qm) overflows here
    slots[qm, 7] = slots[q, 7]  # 1/(q - qm) divides by zero here
    slots[E.SYMBOL_BY_NAME["qdd"].index, 5] = np.nan  # qdd is missing here only
    overflow = E.parse("exp(200*q*qm)")
    divide = E.parse("1/(q - qm)")
    missing = E.parse("qdd*q")
    inf_row = E.parse("exp(300*q)*exp(300*q)*exp(300*q)")  # inf without an exception
    fine = [E.parse("sin(q)*p + qm^2"), E.parse("p/(1 + q^2)"), E.const(3)]
    # the kernel raises (overflow, divide) or yields a non-finite row (missing)
    for bad in ([overflow, divide], [divide, overflow], [missing, divide], [overflow, missing],
                [missing], [divide]):
        for positions in itertools.combinations(range(len(fine) + len(bad) + 1), len(bad)):
            roots = list(fine) + [inf_row]
            for at, root in zip(positions, bad):
                roots.insert(at, root)
            want = _failure(lambda: _loop_rows(roots, slots))
            got = _failure(lambda: E.evaluate_many(roots, slots))
            assert got[:2] == want[:2]
            assert_same_bits(got[2], want[2])
    roots = fine + [inf_row]
    assert_same_bits(E.evaluate_many(roots, slots), _loop_rows(roots, slots))


def _outcome(fn):
    """`fn()`, or the type, message and jet slots of the `EvalError` it raises."""
    try:
        return fn()
    except E.EvalError as err:
        return type(err), str(err), err.jet.slots()


def _check_outcome(check):
    witness = None if check.witness is None else check.witness.slots()
    return check.ok, witness, np.float64(check.worst).tobytes()


def test_a_raising_kernel_makes_one_array_pass_then_runs_the_scalar_reference(monkeypatch):
    slots = E.random_jets(8, 12)
    q, qm = E.SYMBOL_BY_NAME["q"].index, E.SYMBOL_BY_NAME["qm"].index
    slots[q, 3] = 1.9  # `big` overflows to inf here, without an exception
    slots[qm, 7] = slots[q, 7]  # `divide` divides zero by zero here
    big = E.parse("exp(100*q)*exp(100*q)*exp(100*q)*exp(100*q)")
    inf_minus_inf = E.sub(big, big)  # numpy raises on it; Python floats give nan
    divide = E.parse("(q - q)/(q - qm)")
    fine = [E.parse("sin(q)*p + qm^2"), E.parse("p/(1 + q^2)"), E.const(3)]
    passes = []
    real = E._array_rows

    def counting(*args, **kwargs):
        passes.append(args[0])
        return real(*args, **kwargs)

    for roots in ([fine[0], inf_minus_inf, *fine[1:]], [fine[0], divide, inf_minus_inf, fine[1]]):
        want_rows = _outcome(lambda: _loop_rows(roots, slots))
        want_checks = _outcome(lambda: [_check_outcome(E.zero_checks((r,), slots)[0]) for r in roots])
        with monkeypatch.context() as patch:
            patch.setattr(E, "_array_rows", counting)
            for _ in range(2):  # the tape, then the compiled kernel
                passes.clear()
                got_rows = _outcome(lambda: E.evaluate_many(roots, slots))
                assert passes == [tuple(roots)]
                passes.clear()
                got_checks = _outcome(lambda: [_check_outcome(c) for c in E.zero_checks(roots, slots)])
                assert passes == [tuple(roots)]
                assert got_checks == want_checks
                if divide in roots:
                    assert got_rows == want_rows
                    assert want_checks[:2] == (E.EvalError, "division by zero")
                else:
                    assert np.isnan(want_rows[1]).any() and not want_checks[1][0]
                    assert_same_bits(got_rows, want_rows)


def test_many_kernel_deletes_every_temporary_after_its_last_use():
    rng = np.random.default_rng(6060)
    roots = _roots_with_shared_subtrees(rng, 6)
    names = {s.index: s.name for s in E.SYMBOLS} | {E.TAU_INDEX: "tau"}
    sources = (
        E._many_source(tuple(roots)).splitlines()[1:],
        # the solver's form: slots read from named locals, roots stored to locals
        E.kernel_lines(roots, names.__getitem__, "r{}".format),
    )
    for lines in sources:
        uses = [set(re.findall(r"\bv\d+\b", line)) for line in lines]
        root_names = {line.split("= ")[1] for line in lines if re.match(r"\s*(out\[\d+\]|r\d+) = ", line)}
        assert len(root_names) > len(roots) // 2
        temporaries = set().union(*uses) - root_names
        assert temporaries
        for name in temporaries:
            last = max(i for i, names in enumerate(uses) if name in names and "del " not in lines[i])
            assert lines[last + 1].lstrip().startswith("del ") and name in uses[last + 1], name
            assert all(name not in names for names in uses[last + 2:]), name
    # the tape drops each value right after the step that reads it last
    _, _, operands, frees, _, _ = E._tape(tuple(roots))
    reads = [set(step) for step in operands]
    for v in set().union(*reads):
        last = max(s for s, read in enumerate(reads) if v in read)
        assert [s for s, free in enumerate(frees) if v in free] == [last], v


def test_first_array_use_runs_the_tape_and_the_second_compiles(monkeypatch):
    # trees no other test builds, so their kernel has not run yet
    roots = [E.parse("q*qm^3/11 + sin(p*pm)/13"), E.parse("exp(qd/17)*tm - q*qm^3/11")]
    slots = E.random_jets(17, 9)
    compiles = []
    real = builtins.compile

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return real(*args, **kwargs)

    rows = []
    for expect in (0, 1, 0):
        compiles.clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", counting)
            rows.append(E.evaluate_many(roots, slots))
        assert len(compiles) == expect
    assert_same_bits(rows[1], rows[0])
    assert_same_bits(rows[2], rows[0])


# ---------------------------------------------------------------------------
# the magnitude tape: one max over each root's subtree
# ---------------------------------------------------------------------------


def _special_slots(seed, n):
    """Random jets whose q, p, qm and tm take nan, +-inf, -0.0 and subnormal
    values in some columns."""
    slots = E.random_jets(seed, n)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e-320]
    for name, shift in (("q", 0), ("p", 3), ("qm", 5), ("tm", 1)):
        for k, value in enumerate(special):
            slots[E.SYMBOL_BY_NAME[name].index, (k + shift) % n] = value
    return slots


def _assert_tape_magnitudes(roots, slots):
    """The magnitude tape of `roots` against the compiled array kernel (by
    `array_binding`) at every column, and against `compiled(root, True)` at
    every column where the scalar kernel neither raises nor gives nan (its
    `max` is Python's, which does not pass nan on); the `(2n, N)` rows."""
    with np.errstate(all="ignore"):
        rows = array_binding(roots, slots, with_magnitude=True)
    assert rows is not None
    n = len(roots)
    for j, root in enumerate(roots):
        scalar = E.compiled(root, with_magnitude=True)
        for k, column in enumerate(slots.T.tolist()):
            try:
                value, magnitude = scalar(column)
            except (OverflowError, ZeroDivisionError, ValueError):
                continue
            if not math.isnan(value):
                assert_same_bits(rows[[j, n + j], k], [value, magnitude])
    return rows


def _kept_rows(roots):
    """The tape's magnitude steps of `roots` and its buffer's row count."""
    *_, rows, size = E._tape(tuple(roots), True)
    return sum(type(row) is int for row in rows), size


def test_a_bare_constant_symbol_or_negation_root_has_its_own_magnitude():
    slots = _special_slots(41, 12)
    leaves = [E.const(2.5), E.const(-0.0), E.const(Fraction(-7, 3)), E.q, E.tau, E.neg(E.q)]
    for root in leaves:  # a subtree of one leaf, or a Neg of one: the magnitude is |value|
        value, magnitude = _assert_tape_magnitudes([root], slots)
        assert_same_bits(magnitude, np.abs(value))
    bare = [*leaves, E.neg(E.sin(E.p)), E.neg(E.div(E.q, E.p))]
    _assert_tape_magnitudes(bare, slots)
    _assert_tape_magnitudes(bare[::-1], slots)


def test_a_magnitude_reached_only_below_a_negation():
    slots = E.random_jets(42, 16)
    big = E.mul(E.const(1000), E.q)  # 1000 or |1000*q| exceeds every other |value|
    q = slots[E.SYMBOL_BY_NAME["q"].index]
    for root in (E.sin(E.neg(big)), E.add(E.neg(big), E.mul(E.const(999), E.q)), E.cos(E.neg(big))):
        assert type(root) is not E.Neg and E.neg(big) in E._children(root)
        _, magnitude = _assert_tape_magnitudes([root], slots)
        assert_same_bits(magnitude, np.maximum(np.abs(1000 * q), 1000.0))


def test_magnitudes_pass_nan_inf_signed_zero_and_subnormal_slots_on():
    slots = _special_slots(43, 24)
    rng = np.random.default_rng(4343)
    atoms = [E.q, E.p, E.qm, E.tm, E.pm, E.t]
    roots = [random_expr(rng, atoms, depth=3) for _ in range(40)]
    rows = _assert_tape_magnitudes(roots, slots)
    n = len(roots)
    assert np.isnan(rows[n:]).any() and np.isinf(rows[n:]).any()
    # a root that reads a nan slot has a nan magnitude there, as the compiled kernel's
    q = E.SYMBOL_BY_NAME["q"].index
    for j, root in enumerate(roots):
        if E.q in E.symbols_of(root):
            assert np.isnan(rows[n + j, np.isnan(slots[q])]).all()


def test_roots_that_share_subtrees_get_their_own_magnitudes_in_either_order():
    slots = _special_slots(44, 20)
    rng = np.random.default_rng(4444)
    for _ in range(6):
        roots = _roots_with_shared_subtrees(rng, 4)
        rows = _assert_tape_magnitudes(roots, slots)
        back = _assert_tape_magnitudes(roots[::-1], slots)
        n = len(roots)
        assert_same_bits(back[:n][::-1], rows[:n])
        assert_same_bits(back[n:][::-1], rows[n:])


def test_a_subtree_larger_than_one_gather_takes_its_max_in_several():
    terms = [E.mul(E.const(k), E.sin(E.mul(E.const(k), E.q))) for k in range(1, 200)]
    big = E.add(*terms)
    roots = [big, E.mul(E.const(3), big), E.add(E.p, E.mul(E.const(500), E.q))]
    kept, _ = _kept_rows([big])
    assert kept > 3 * E._GATHER
    slots = _special_slots(45, 10)
    finite = np.isfinite(slots).all(axis=0)
    q = np.abs(slots[E.SYMBOL_BY_NAME["q"].index, finite])
    for order in (roots, roots[::-1]):
        rows = _assert_tape_magnitudes(order, slots)
        magnitude = rows[len(order) + order.index(big), finite]
        assert (magnitude >= np.maximum(199.0, 199 * q)).all()


def test_a_later_roots_own_nodes_reuse_the_rows_an_earlier_root_gave_back():
    slots = E.random_jets(46, 16)
    shared = E.mul(E.const(1000), E.q)  # 1000 or |1000*q| is the magnitude of `first` and `later`
    first = E.sin(shared)
    own = [E.add(E.mul(E.const(k), E.p), E.cos(E.mul(E.const(k), E.qm))) for k in range(2, 40)]
    later = E.add(shared, *own)
    private = E.add(*[E.exp(E.mul(E.const(Fraction(1, k)), E.pm)) for k in range(2, 40)])
    for roots in ([first, later], [first, private, later], [private, first, later]):
        kept, size = _kept_rows(roots)
        assert size < kept  # the later roots' own steps took rows given back
        rows = _assert_tape_magnitudes(roots, slots)
        for j, root in enumerate(roots):
            assert_same_bits(rows[len(roots) + j], array_binding([root], slots, with_magnitude=True)[1])
