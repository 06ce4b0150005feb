"""How expression trees are built: the constructors fold constants exactly as
a left fold in `Fraction` arithmetic does, building and checking a model
leaves no reference cycle for the garbage collector, one model's trees are
pinned by their node count and kernel source, and each CLI command frees its
cyclic garbage and freezes what survives it."""

import gc
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delayham import cli
from delayham import expr as E

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=300)


# ---------------------------------------------------------------------------
# constant folding against a Fraction reference
# ---------------------------------------------------------------------------


def _node(op: str, cls: type, parts: list) -> E.Expr:
    children = tuple(parts)
    return E._intern((op, children), cls, children)


def reference_mul(*factors) -> E.Expr:
    """`mul` as a left fold from Fraction(1) over the constants' absolute
    values in order, the sign tracked apart, walking products and negations
    recursively."""
    flat, coeff, negative, zero = [], Fraction(1), False, False

    def push(x):
        nonlocal coeff, negative, zero
        if isinstance(x, E.Mul):
            for f in x.factors:
                push(f)
        elif isinstance(x, E.Neg):
            negative = not negative
            push(x.arg)
        elif isinstance(x, E.Const):
            v = x.value
            if v == 0:
                zero = True
                coeff = coeff * v
                return
            if v < 0:
                negative = not negative
                v = -v
            coeff = coeff * v
        else:
            flat.append(x)

    for f in factors:
        push(E.as_expr(f))
    if zero:
        return E.const(coeff * 0)
    parts = ([E.const(coeff)] if coeff != 1 else []) + flat
    out = E.const(coeff) if not parts else parts[0] if len(parts) == 1 else _node("*", E.Mul, parts)
    return E.neg(out) if negative else out


def reference_add(*terms) -> E.Expr:
    """`add` as a left fold from Fraction(0) over the constants in order."""
    flat, acc, touched = [], Fraction(0), False
    for item in [E.as_expr(t) for t in terms]:
        for p in item.terms if isinstance(item, E.Add) else (item,):
            if isinstance(p, E.Const):
                acc, touched = acc + p.value, True
            else:
                flat.append(p)
    if touched and acc != 0:
        flat.append(E.const(acc))
    if not flat:
        return E.const(acc)
    return flat[0] if len(flat) == 1 else _node("+", E.Add, flat)


_SPECIAL = [0, 1, -1, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324]
NUMBERS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-(10**60), 10**60),  # products of a few overflow a double
    st.fractions(max_denominator=12),
    st.floats(),
)
NODES = [E.q, E.p, E.qm, E.neg(E.q), E.parse("3*q*p"), E.parse("-(2/3*qm*p)"), E.parse("q + 1"),
         E.parse("1.5*p - q"), E.mul(math.nan, E.q), E.mul(math.inf, E.p)]
ITEMS = st.one_of(NUMBERS, NUMBERS.map(E.const), st.sampled_from(NODES))


def _outcome(build, items):
    try:
        return build(*items)
    except (OverflowError, ZeroDivisionError) as err:  # a float meeting a huge rational
        return type(err)


@seeded
@given(st.lists(ITEMS, max_size=6))
def test_add_and_mul_return_the_node_of_the_fraction_fold(items):
    for build, reference in ((E.mul, reference_mul), (E.add, reference_add)):
        assert _outcome(build, items) is _outcome(reference, items)


@pytest.mark.parametrize("build", [E.const, E.mul, E.add])
def test_a_boolean_is_no_constant(build):
    with pytest.raises(TypeError, match="boolean is not a numeric constant"):
        build(True)


# ---------------------------------------------------------------------------
# one fixed model: no cyclic garbage, and its trees pinned
# ---------------------------------------------------------------------------

MODEL = {
    "tau": 1.0,
    "hamiltonian": {
        "H": "5/2*p^2 - 3*p*pm + 1/2*pm^2 - 2*q^2*sin(t) + 3*q*qm^2 + qm*cos(tm)",
        "alphas": [2, -1, 3, 1],
    },
    "generators": [
        {"name": "G1", "xi": "1 - 2*t", "eta": "-3*t*q^2 + 2*p*cos(t)", "nu": "q*p + 2*t^2"},
        {"name": "G2", "xi": "-2 + t", "eta": "2*q*p^2 - sin(t)", "nu": "3*t*p - q^2*sin(t)"},
        {"name": "G3", "xi": "2", "eta": "t*p + 3*q", "nu": "-2*q*cos(t) + t*p^2"},
    ],
}


def residuals(config: dict) -> list:
    """The residuals `check-identity` checks for `config`, in its order."""
    return [r for _, r in cli.identity_residuals(cli.load_config(json.loads(json.dumps(config))))]


def test_building_and_checking_a_model_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        roots = residuals(MODEL)
        checks = E.zero_checks(roots, E.random_jets(5, 100))
        for root in roots:
            E.substitute(root, {"q": E.p, E.pm: 2})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(roots) == 15 and all(checks)


# Nodes a fresh process interns while building MODEL's residuals as
# `check-identity` does, and the sha256 of their zero-check kernel source.  A
# change that builds other trees changes these, and says so.
GOLDEN_NEW_NODES = 2065
GOLDEN_SOURCE_SHA256 = "48125c3ec13792349072e621736197258be29e680f3089e6136d6a810b496c4f"

_GOLDEN_SCRIPT = """
import hashlib, json, sys
from delayham import cli, expr as E
before = len(E._INTERN)
roots = tuple(r for _, r in cli.identity_residuals(cli.load_config(json.loads(sys.argv[1]))))
print(len(E._INTERN) - before, hashlib.sha256(E._many_source(roots, True).encode()).hexdigest())
"""


def test_the_model_residuals_are_the_pinned_trees():
    src = pathlib.Path(E.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _GOLDEN_SCRIPT, json.dumps(MODEL)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    nodes, digest = done.stdout.split()
    assert (int(nodes), digest) == (GOLDEN_NEW_NODES, GOLDEN_SOURCE_SHA256)


# ---------------------------------------------------------------------------
# what a command leaves for the cycle collector
# ---------------------------------------------------------------------------

_FREEZE_SCRIPT = """
import gc, json, random, sys
sys.path.insert(0, sys.argv[1])
from workloads import README_CONFIG, random_identity_model
from delayham import cli

def run(argv, code=0):
    assert cli.main(argv) == code, argv

rng = random.Random(27)
unfrozen = []
for _ in range(8):
    with open("model.json", "w") as fh:
        json.dump(random_identity_model(rng), fh)
    run(["check-identity", "--config", "model.json", "--out", "out.json"])
    unfrozen.append(len(gc.get_objects()))
with open("readme.json", "w") as fh:
    json.dump(dict(README_CONFIG, horizon=2, steps_per_delay=16), fh)
with open("no-horizon.json", "w") as fh:
    json.dump({k: v for k, v in README_CONFIG.items() if k != "horizon"}, fh)
for argv in (["transform", "--out", "out.json"], ["simulate", "--out", "ham.csv"],
             ["simulate", "--formulation", "lagrangian", "--out", "lag.csv"], ["recurse", "--out", "rec.csv"],
             ["noether", "--out", "out.json"], ["check-identity", "--out", "out.json"]):
    config = "no-horizon.json" if argv[0] == "noether" else "readme.json"
    run([argv[0], "--config", config, *argv[1:]])
run(["compare", "--a", "ham.csv", "--b", "rec.csv", "--out", "out.json"])
run(["transform", "--config", "missing.json"], cli.EXIT_CONFIG)
run(["transform", "--config", "readme.json", "--alpha1", "1e-320"], cli.EXIT_NUMERIC)
gc.unfreeze()
print(json.dumps({"unfrozen": unfrozen, "garbage": gc.collect()}))
"""


def test_each_command_frees_its_cyclic_garbage_and_freezes_what_survives(tmp_path):
    # without the freeze the collector tracks ~3,600 more objects after each
    # model, and every full collection walks them all; without the young
    # collection first, the freeze would keep the cycles the JSON encoder leaves
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _FREEZE_SCRIPT, str(root / "bench")], capture_output=True,
                          text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert max(report["unfrozen"]) <= 50 and report["unfrozen"][-1] <= report["unfrozen"][0], report
    assert report["garbage"] == 0
