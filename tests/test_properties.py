"""Seeded property tests: identities that hold by construction, over random trees,
and the batched jet sampler against numpy's per-sample streams.

Hypothesis draws the seeds of `conftest.random_expr`; `derandomize` fixes the
draws, so every run checks the same trees.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayham import expr as E

from conftest import assert_same_bits, random_expr, reference_jet_slots

# shifts -1 and 0 only, so one forward shift stays in range; first order at most
ATOMS = [E.t, E.tm, E.q, E.qm, E.p, E.pm, E.qd, E.qdm, E.pdm, E.tau]
SYMBOLS = [a.symbol for a in ATOMS if isinstance(a, E.Sym)]

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def trees(depth: int = 3, extended: bool = False):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_expr(np.random.default_rng(seed), ATOMS, depth, extended)
    )


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
    try:
        want = [E.evaluate_array(r, slots) for r in roots]
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
