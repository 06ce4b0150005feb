"""Seeded property tests: identities that hold by construction, over random trees,
and the batched jet sampler against numpy's per-sample streams.

Hypothesis draws the seeds of `conftest.random_expr`; `derandomize` fixes the
draws, so every run checks the same trees.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayham import expr as E
from delayham import model as M
from delayham import noether as N

from conftest import (
    array_binding, assert_same_bits, identity_models, random_expr, random_generator, random_polynomial,
    random_quadratic_hamiltonian, reference_jet_slots,
)

# shifts -1 and 0 only, so one forward shift stays in range; first order at most
ATOMS = [E.t, E.tm, E.q, E.qm, E.p, E.pm, E.qd, E.qdm, E.pdm, E.tau]
SYMBOLS = [a for a in ATOMS if isinstance(a, E.Sym)]

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def trees(depth: int = 3, extended: bool = False):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_expr(np.random.default_rng(seed), ATOMS, depth, extended)
    )


# constants with no finite double value: they evaluate as +-inf and nan
NON_FINITE = [E.const(math.inf), E.const(-math.inf), E.const(math.nan), E.const(Fraction(-(10**400)))]


def non_finite_trees(depth: int = 3):
    """Trees over ATOMS and NON_FINITE; a draw whose constant folding
    overflows (a float meeting the huge rational) is not a tree and is skipped."""
    def build(seed):
        try:
            return random_expr(np.random.default_rng(seed), ATOMS + NON_FINITE, depth, extended=True)
        except OverflowError:
            return None

    return st.integers(0, 2**32 - 1).map(build).filter(lambda e: e is not None)


def vanishes(e: E.Expr) -> bool:
    return E.is_zero(e, samples=30, tol=1e-9, seed=11).ok


@seeded
@given(trees(depth=4, extended=True))
def test_print_then_parse_is_the_same_tree(e):
    assert E.parse(E.to_source(e)) is e


@seeded
@given(trees(depth=4, extended=True))
def test_forward_then_backward_shift_is_the_identity(e):
    assert E.shift(E.shift(e, +1), -1) is e


@seeded
@given(trees(), st.sampled_from(SYMBOLS))
def test_partial_commutes_with_shift(e, s):
    forward = E.symbol(s.base, s.shift + 1, s.order)
    assert vanishes(E.sub(E.shift(E.partial(e, s), +1), E.partial(E.shift(e, +1), forward)))


@seeded
@given(trees())
def test_total_derivative_commutes_with_shift(e):
    D = E.total_derivative
    assert vanishes(E.sub(E.shift(D(e), +1), D(E.shift(e, +1))))


def _coordinates_read(e: E.Expr) -> set:
    """The coordinates of `e` by a walk over its node fields."""
    if isinstance(e, E.Sym):
        return {e}
    children = {E.Add: ("terms",), E.Mul: ("factors",), E.Neg: ("arg",), E.Func: ("arg",),
                E.Div: ("num", "den"), E.Pow: ("base",)}.get(type(e), ())
    out = set()
    for name in children:
        value = getattr(e, name)
        for c in value if isinstance(value, tuple) else (value,):
            out |= _coordinates_read(c)
    return out


@seeded
@given(st.one_of(trees(depth=4, extended=True), non_finite_trees()))
def test_the_coordinates_of_a_tree_are_those_its_nodes_read(e):
    read = _coordinates_read(e)
    assert E.symbols_of(e) == read
    for s in E.SYMBOLS:
        if s not in read:
            assert E.partial(e, s) is E.ZERO


@seeded
@given(trees(), trees(depth=2))
def test_leibniz_rule(a, b):
    D = E.total_derivative
    assert vanishes(E.sub(D(E.mul(a, b)), E.add(E.mul(D(a), b), E.mul(a, D(b)))))


@seeded
@given(st.lists(trees(extended=True), min_size=1, max_size=6))
def test_evaluate_many_rows_are_evaluate_array(base):
    roots = base + [E.add(a, b) for a, b in zip(base, base[1:])] + base[:1]
    slots = E.random_jets(21, 16)
    with np.errstate(**E._ARRAY_ERRSTATE):
        for with_magnitude in (False, True):
            array_binding(roots, slots, with_magnitude)
    try:
        want = [E.evaluate_many((r,), slots)[0] for r in roots]
    except E.EvalError as err:
        with pytest.raises(type(err), match=re.escape(str(err))) as got:
            E.evaluate_many(roots, slots)
        assert_same_bits(got.value.jet.slots(), err.jet.slots())
        return
    assert_same_bits(E.evaluate_many(roots, slots), np.array(want))


@seeded
@given(st.integers(-(2**40), 2**40), st.integers(0, 2**34), st.integers(0, 8))
def test_random_jets_columns_are_the_per_sample_streams(seed, start, n):
    slots = E.random_jets(seed, n, start)
    assert slots.shape == (E.NSLOTS, n)
    for k in range(n):
        assert_same_bits(slots[:, k], reference_jet_slots(seed, start + k))


def _outcome(fn):
    """`fn()`, or the type, message and jet slots of the `EvalError` it raises."""
    try:
        return fn()
    except E.EvalError as err:
        return type(err), str(err), err.jet.slots()


def _assert_same_checks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.ok is w.ok
        assert_same_bits(g.worst, w.worst)
        assert (g.witness is None) is (w.witness is None)
        if w.witness is not None:
            assert_same_bits(g.witness.slots(), w.witness.slots())


@seeded
@given(st.lists(non_finite_trees(), min_size=1, max_size=4))
def test_a_constant_with_no_finite_double_evaluates_alike_on_every_path(roots):
    slots = E.random_jets(23, 8)
    with np.errstate(**E._ARRAY_ERRSTATE):
        for with_magnitude in (False, True):
            array_binding(roots, slots, with_magnitude)  # the tape against the compiled array binding
    jets = [E.JetPoint.from_slots(slots[:, k]) for k in range(slots.shape[1])]
    values = _outcome(lambda: np.array([[E.evaluate(r, jet) for jet in jets] for r in roots]))
    checks = _outcome(lambda: [E._scalar_zero_check(r, slots, 1e-9, jets.__getitem__) for r in roots])
    for binding in ("tape", "compiled"):
        got_values = _outcome(lambda: E.evaluate_many(roots, slots))
        got_checks = _outcome(lambda: E.zero_checks(roots, slots))
        for got, want in ((got_values, values), (got_checks, checks)):
            assert isinstance(got, tuple) is isinstance(want, tuple)
            if isinstance(want, tuple):
                assert got[:2] == want[:2]
                assert_same_bits(got[2], want[2])
        if not isinstance(values, tuple):
            assert_same_bits(got_values, values)
        if not isinstance(checks, tuple):
            _assert_same_checks(got_checks, checks)


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(identity_models())
def test_zero_checks_equal_the_per_root_checks(model):
    ham, gens = model
    residuals = []
    for g in gens:
        residuals += [N.hamiltonian_identity_residual(ham, g), *N.variational_identity_residuals(ham, g).values()]
    slots = E.random_jets(31, 24)
    q, qm = E.SYMBOL_BY_NAME["q"].index, E.SYMBOL_BY_NAME["qm"].index
    slots[qm, 5] = slots[q, 5]  # `divide` divides zero by zero here
    slots[q, 9] = 1.9  # `big` overflows to inf here, without an exception
    nonzero = E.add(residuals[0], E.mul(E.const(1e-7), E.q))
    big = E.parse("exp(100*q)*exp(100*q)*exp(100*q)*exp(100*q)")
    tiny = E.div(E.q, E.add(1, big))
    zero_with_inf_magnitude = E.sub(tiny, tiny)
    roots = [*residuals[:3], nonzero, *residuals[3:7], zero_with_inf_magnitude, *residuals[7:], big]
    want = [E.zero_checks((r,), slots)[0] for r in roots]
    assert [w.ok for w in want].count(False) >= 2 and want[8].ok
    key = (*map(id, roots), True)
    for binding in ("tape", "compiled"):
        _assert_same_checks(E.zero_checks(roots, slots), want)
        assert (key in E._COMPILE_CACHE) is (binding == "compiled")
    # a root that raises makes the kernel raise: the roots are checked one by
    # one in order, and the first failing one raises
    divide = E.parse("(q - q)/(q - qm)")
    few = [residuals[0], nonzero, zero_with_inf_magnitude, big]
    for at in range(len(few) + 1):
        with_divide = few[:at] + [divide] + few[at:]
        want = _outcome(lambda: [E.zero_checks((r,), slots)[0] for r in with_divide])
        assert want[:2] == (E.EvalError, "division by zero")
        for binding in ("tape", "compiled"):
            got = _outcome(lambda: E.zero_checks(with_divide, slots))
            assert got[:2] == want[:2]
            assert_same_bits(got[2], want[2])
        assert (*map(id, with_divide), True) in E._COMPILE_CACHE


def non_affine_models():
    """Hypothesis strategy: a random quadratic delay Hamiltonian and a generator
    whose xi(t, q, p) is an affine part plus a nonzero multiple of t^k (k >= 2)
    or of q, p, exp(q) or q*p^2 times a monomial in t, q and p; returns the
    Hamiltonian, the generator and whether its xi reads q or p."""
    def build(seed):
        rng = np.random.default_rng(seed)
        ham = random_quadratic_hamiltonian(rng)
        scale = E.const(int(rng.choice([-3, -2, -1, 1, 2, 3])))
        reads_state = bool(rng.integers(2))
        if reads_state:
            reader = [E.q, E.p, E.exp(E.q), E.mul(E.q, E.powi(E.p, 2))][rng.integers(4)]
            monomial = random_polynomial(rng, [E.ONE, E.t, E.q, E.p], terms=1)
            extra = E.mul(scale, reader, monomial)
        else:
            extra = E.mul(scale, E.powi(E.t, int(rng.integers(2, 5))))
        g = random_generator(rng, affine_xi=True)
        return ham, M.Generator(E.add(g.xi, extra), g.eta, g.nu), reads_state

    return st.integers(0, 2**32 - 1).map(build)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(non_affine_models())
def test_a_non_affine_xi_keeps_the_hamiltonian_identity_and_is_not_admissible(model):
    ham, g, reads_state = model
    assert N.verify_hamiltonian_identity(ham, g, samples=40, seed=7).ok
    assert bool(E.symbols_of(g.xi) & {E.q, E.p}) is reads_state
    assert M.xi_admissible(g) is False


@seeded
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_an_affine_xi_plus_a_delay_periodic_term_is_admissible(seed, k):
    periodic = E.sin(E.div(E.mul(E.const(2 * math.pi * k), E.t), E.tau))
    xi = E.add(random_generator(np.random.default_rng(seed), affine_xi=True).xi, periodic)
    assert M.xi_admissible(M.Generator(xi, E.ZERO, E.ZERO)) is True
