"""Shared builders for the test-suite: reference systems, random expressions,
jets lying on smooth curves, and oracle routes the library itself does not use.

Reference helpers that only tests call live here rather than in `src/`
(`tests/test_no_test_only_code.py` keeps it that way)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from delayham import classical as C
from delayham import expr as E
from delayham import legendre as L
from delayham import model as M
from delayham import recursion as R
from delayham import solver as S
from delayham.expr import add, div, mul, neg, partial, powi, shift, sub, total_derivative


@pytest.fixture(scope="session")
def oscillator():
    """Nondegenerate delay oscillator: L = qd*qdm - q*qm, H = p*pm + q*qm."""
    lag = M.QuadraticLagrangian(0, 1, 0, E.parse("q*qm"))
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (1, 0, 0, 1))
    return lag, ham


@pytest.fixture(scope="session")
def degenerate_oscillator():
    """Degenerate delay oscillator: L = (qd+qdm)^2/2 - (q+qm)^2/2."""
    lag = M.QuadraticLagrangian(1, 1, 1, E.parse("(q+qm)^2/2"))
    ham = M.DelayHamiltonian(E.parse("(p+pm)^2/2 + (q+qm)^2/2"), (1, 1, 1, 1))
    return lag, ham


@pytest.fixture(scope="session")
def oscillator_generators():
    return {
        "sin": M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)")),
        "cos": M.Generator(E.ZERO, E.parse("cos(t)"), E.parse("-sin(t)")),
        "time": M.Generator(E.ONE, E.ZERO, E.ZERO),
        "scale": M.Generator(E.ZERO, E.q, E.p),
        "rotate": M.Generator(E.ZERO, E.p, E.neg(E.q)),
    }


@pytest.fixture(scope="session")
def sincos_history():
    return S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t)"))


# ---------------------------------------------------------------------------
# random builders
# ---------------------------------------------------------------------------


def random_expr(rng: np.random.Generator, atoms, depth: int = 3, extended: bool = False) -> E.Expr:
    """Random expression over the surface grammar; kept numerically tame.

    With `extended`, `exp` and division nodes are drawn as well (denominators
    are kept away from zero; `exp` arguments are not bounded).
    """
    if depth == 0 or rng.uniform() < 0.25:
        r = rng.uniform()
        if r < 0.35:
            return E.const(round(float(rng.uniform(-2, 2)), 3))
        return atoms[rng.integers(len(atoms))]

    def sub_expr():
        return random_expr(rng, atoms, depth - 1, extended)

    op = rng.integers(9 if extended else 7)
    if op == 0:
        return E.add(sub_expr(), sub_expr())
    if op == 1:
        return E.sub(sub_expr(), sub_expr())
    if op == 2:
        return E.mul(sub_expr(), sub_expr())
    if op == 3:
        return E.neg(sub_expr())
    if op == 4:
        return E.powi(sub_expr(), int(rng.integers(2, 4)))
    if op == 5:
        return E.sin(sub_expr())
    if op == 6:
        return E.cos(sub_expr())
    if op == 7:
        return E.exp(sub_expr())
    den = sub_expr()
    return E.div(sub_expr(), E.add(E.const(0.5), E.mul(den, den)))


def random_polynomial(rng: np.random.Generator, atoms, terms: int = 3) -> E.Expr:
    out = []
    for _ in range(terms):
        coeff = E.const(int(rng.integers(-3, 4)) or 1)
        factors = [atoms[rng.integers(len(atoms))] for _ in range(int(rng.integers(1, 3)))]
        out.append(E.mul(coeff, *factors))
    return E.add(*out)


def random_quadratic_hamiltonian(rng: np.random.Generator) -> M.DelayHamiltonian:
    a = int(rng.integers(-3, 4))
    b = int(rng.integers(1, 4))
    c = int(rng.integers(-3, 4))
    phi = random_polynomial(rng, [E.q, E.qm], terms=2)
    quad = M.QuadraticHamiltonian(a, b, c, phi)
    alphas = tuple(int(x) for x in rng.integers(-2, 3, size=4))
    return M.DelayHamiltonian(quad.expr(), alphas)


def random_generator(rng: np.random.Generator, affine_xi: bool = False) -> M.Generator:
    atoms = [E.t, E.q, E.p]
    if affine_xi:
        xi = E.add(E.mul(E.const(int(rng.integers(-2, 3))), E.t), E.const(int(rng.integers(-2, 3))))
    else:
        xi = random_polynomial(rng, atoms, terms=2)
    eta = random_polynomial(rng, atoms, terms=2)
    nu = random_polynomial(rng, atoms, terms=2)
    return M.Generator(xi, eta, nu)


def identity_models(generators: int = 2):
    """Hypothesis strategy: a random quadratic delay Hamiltonian with
    `generators` random generators whose xi is affine in t, so every residual
    `check-identity` builds for them vanishes identically."""
    def build(seed):
        rng = np.random.default_rng(seed)
        ham = random_quadratic_hamiltonian(rng)
        return ham, [random_generator(rng, affine_xi=True) for _ in range(generators)]

    return st.integers(0, 2**32 - 1).map(build)


def lagrangian_models(generators: int = 3):
    """Hypothesis strategy: a nondegenerate quadratic delay Lagrangian with
    integer coefficients and a random phi(q, qm), its `legendre_forward`
    result at an integer scale alpha1, and `generators` generators as in
    `identity_models`.  Its pairing weights a2 and a3 are nonzero unless gamma
    or alpha is."""
    def build(seed):
        rng = np.random.default_rng(seed)
        while True:
            alpha, gamma = (int(x) for x in rng.integers(-3, 4, size=2))
            beta = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            if alpha * gamma != beta * beta:
                break
        lag = M.QuadraticLagrangian(alpha, beta, gamma, random_polynomial(rng, [E.q, E.qm], terms=2))
        res = L.legendre_forward(lag, int(rng.choice([-2, -1, 1, 2, 3])))
        return lag, res, [random_generator(rng, affine_xi=True) for _ in range(generators)]

    return st.integers(0, 2**32 - 1).map(build)


# ---------------------------------------------------------------------------
# jets on smooth curves
# ---------------------------------------------------------------------------

CURVE_Q = (
    lambda s: math.sin(s) + 0.3 * s,
    lambda s: math.cos(s) + 0.3,
    lambda s: -math.sin(s),
)
CURVE_P = (
    lambda s: math.cos(2 * s) - 0.2 * s * s,
    lambda s: -2 * math.sin(2 * s) - 0.4 * s,
    lambda s: -4 * math.cos(2 * s) - 0.4,
)


def curve_jet(t_value: float, tau_value: float, fq=CURVE_Q, fp=CURVE_P) -> E.JetPoint:
    """Jet sampled from fixed smooth curves respecting the shift structure."""
    values = {}
    for sh in (-1, 0, 1):
        s = t_value + sh * tau_value
        suffix = {-1: "m", 0: "", 1: "p"}[sh]
        values["q" + "d" * 0 + suffix] = fq[0](s)
        values["qd" + suffix] = fq[1](s)
        values["qdd" + suffix] = fq[2](s)
        values["p" + suffix] = fp[0](s)
        values["pd" + suffix] = fp[1](s)
        values["pdd" + suffix] = fp[2](s)
    return E.JetPoint(tau_value, values, t_value=t_value)


def assert_same_bits(got, want):
    """Equal bit for bit where `want` is a number, and nan exactly where it is."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    missing = np.isnan(want)
    assert np.array_equal(np.isnan(got), missing)
    assert got[~missing].tobytes() == want[~missing].tobytes()


def array_binding(roots, slots, with_magnitude=False):
    """`compiled_many(roots, with_magnitude).array` over `slots`: its rows, or
    None when it raised a numeric error.  First checks that the roots' tape
    (`expr._tape`), which runs a kernel's first array use, gives the same
    bits or raises the same error under the caller's errstate."""
    roots = tuple(roots)
    outcomes = []
    for run in (E.compiled_many(roots, with_magnitude).array,
                lambda *args: E._run_tape(E._tape(roots, with_magnitude), *args)):
        try:
            outcomes.append(run(slots, np.empty((len(roots) * (1 + with_magnitude), slots.shape[1]))))
        except (OverflowError, ZeroDivisionError, ValueError, FloatingPointError) as err:
            outcomes.append((type(err), str(err)))
    compiled, tape = outcomes
    assert isinstance(tape, tuple) is isinstance(compiled, tuple), outcomes
    if isinstance(compiled, tuple):
        assert tape == compiled
        return None
    assert_same_bits(tape, compiled)
    return compiled


def splitmix64_unit(seed: int, counter: int) -> float:
    """Unit draw `counter` (from 1) of SplitMix64 seeded with `seed`, on Python ints."""
    z = (seed + counter * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def reference_jet_slots(seed: int, k: int) -> list[float]:
    """Sample k of `E.random_jets(seed, ...)`, drawn value by value and mapped
    to [low, high) as `Generator.uniform` maps: low + (high - low) * u."""
    draws = iter(splitmix64_unit(seed & 0xFFFFFFFF, 20 * k + j) for j in range(1, 21))

    def uniform(low: float, high: float) -> float:
        return low + (high - low) * next(draws)

    tau_value = uniform(0.3, 1.5)
    t_value = uniform(-3.0, 3.0)
    slots = list(E.JetPoint(tau_value, t_value=t_value).slots())
    for s in E.SYMBOLS:
        if s.base != "t":
            slots[s.index] = uniform(-2.0, 2.0)
    return slots


def first_exp_overflow(exponent: E.Expr, slots: np.ndarray) -> int | None:
    """The first column of `slots` at which exp(exponent) overflows a double, or None."""
    for k in range(slots.shape[1]):
        try:
            math.exp(E.evaluate(exponent, E.JetPoint.from_slots(slots[:, k])))
        except OverflowError:
            return k
    return None


def jet_with_values(jet: E.JetPoint, values: dict[str, float]) -> E.JetPoint:
    """A copy of `jet` with the named (non-time) slots set to `values`."""
    slots = list(jet.slots())
    for name, value in values.items():
        slots[E.SYMBOL_BY_NAME[name].index] = float(value)
    return E.JetPoint.from_slots(slots)


# ---------------------------------------------------------------------------
# oracle routes
# ---------------------------------------------------------------------------


def elsgolts_residual_general(lagrangian: E.Expr) -> E.Expr:
    """Vertical variation of an arbitrary L(t, tm, q, qm, qd, qdm)."""
    here = sub(partial(lagrangian, "q"), total_derivative(partial(lagrangian, "qd")))
    lagged = shift(
        sub(partial(lagrangian, "qm"), total_derivative(partial(lagrangian, "qdm"))), +1
    )
    return add(here, lagged)


def extended_elsgolts_display(l: L.ExtendedLagrangian) -> E.Expr:
    """The expanded second-order variational equation of the extended family.

    Written out term by term (coefficient derivatives times velocity
    products); agrees with the operator route `elsgolts_residual_general`
    applied to `l.expr()`, which the test-suite verifies by sampling.
    """
    a, b, g = l.alpha, l.beta, l.gamma
    lam = l.lam
    lam_m = shift(lam, -1)
    lam_p = shift(lam, +1)
    a_q = partial(a, "q")
    a_qm = partial(a, "qm")
    b_q = partial(b, "q")
    b_qm = partial(b, "qm")
    g_q = partial(g, "q")
    g_qm = partial(g, "qm")
    # the dotted gauge terms are derivatives with respect to the argument q
    lam_dot = partial(lam, "q")
    bp = shift(b, +1)
    gp = shift(g, +1)
    return add(
        neg(mul(bp, E.qddp)),
        neg(mul(add(a, gp), E.qdd)),
        neg(mul(b, E.qddm)),
        mul(sub(div(shift(a_qm, +1), 2), shift(b_q, +1)), powi(E.qdp, 2)),
        neg(mul(shift(g_q, +1), E.qdp, E.qd)),
        neg(mul(div(add(a_q, shift(g_qm, +1)), 2), powi(E.qd, 2))),
        neg(mul(a_qm, E.qd, E.qdm)),
        mul(sub(div(g_q, 2), b_qm), powi(E.qdm, 2)),
        mul(
            add(
                mul(bp, sub(shift(lam_dot, +1), lam_dot)),
                mul(sub(shift(b_q, +1), shift(a_qm, +1)), lam_p),
                mul(sub(shift(g_q, +1), shift(b_qm, +1)), lam),
            ),
            E.qdp,
        ),
        mul(
            add(
                mul(b, sub(shift(lam_dot, -1), lam_dot)),
                mul(sub(a_qm, b_q), lam),
                mul(sub(b_qm, g_q), lam_m),
            ),
            E.qdm,
        ),
        neg(partial(l.phi, "q")),
        neg(shift(partial(l.phi, "qm"), +1)),
    )


def is_zero_on_shell(e: E.Expr, h: M.DelayHamiltonian, samples: int = 100,
                     tol: float = 1e-9, seed: int = 0) -> E.ZeroCheck:
    """Sampled vanishing of `e` on jets satisfying the canonical equations."""
    return E.zero_checks((e,), M.on_shell_jets(h, seed, samples), tol)[0]


def momentum_substitution(p_of_qd: E.Expr) -> dict:
    """Symbol map sending every momentum slot to its expression in velocities."""
    pdot = total_derivative(p_of_qd)
    return {
        E.symbol("p", 0, 0): p_of_qd,
        E.symbol("p", -1, 0): shift(p_of_qd, -1),
        E.symbol("p", 1, 0): shift(p_of_qd, +1),
        E.symbol("p", 0, 1): pdot,
        E.symbol("p", -1, 1): shift(pdot, -1),
        E.symbol("p", 1, 1): shift(pdot, +1),
    }


def extended_action_density(res: L.ExtendedLegendreResult) -> E.Expr:
    a1, a2, a3, a4 = res.alphas
    return add(
        mul(E.pm, add(mul(a1, E.qd), mul(a2, E.qdm))),
        mul(E.p, add(mul(a3, E.qd), mul(a4, E.qdm))),
        neg(res.h),
    )


def extended_residuals(res: L.ExtendedLegendreResult) -> tuple[E.Expr, E.Expr]:
    """Vertical variational residuals of the extended phase-space density."""
    density = extended_action_density(res)
    return M.variational_p(density), M.variational_q(density)


def extended_momentum_substitution(l: L.ExtendedLagrangian) -> dict:
    """Symbol map p -> (qd - lam(q)) / mu(q), with shifted and dotted copies."""
    p_of_qd = div(sub(E.qd, l.lam), l.mu)
    return momentum_substitution(p_of_qd)


def relation_residuals(rel: R.SumFormRelation, traj: S.Trajectory) -> tuple[float, float]:
    """Largest violation of the two sum relations on the trajectory grid
    (nan violations are skipped)."""
    n = traj.steps_per_delay
    size = len(traj.t)
    mid = slice(n, size - n)
    worst = []
    for values, g in ((traj.q, rel.g_q), (traj.p, rel.g_p)):
        g_values = E.evaluate_many((g,), E.grid_slots(traj.tau, {E.symbol("t", 0, 0): traj.t[mid]}))[0]
        gap = values[2 * n :] + rel.c_mid * values[mid] + values[: size - 2 * n] - g_values
        worst.append(float(np.fmax.reduce(np.abs(gap), initial=0.0)))
    return worst[0], worst[1]


def integrate_canonical(
    ch: C.ClassicalHamiltonian,
    q0: float,
    p0: float,
    t0: float,
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step fourth-order Runge-Kutta for qd = H_p, pd = -H_q."""
    gradient = E.compiled_many((partial(ch.h, "p"), partial(ch.h, "q")))
    grad = [0.0, 0.0]
    ti = E.symbol("t", 0, 0).index
    qi = E.symbol("q", 0, 0).index
    pi = E.symbol("p", 0, 0).index
    slots = [math.nan] * E.NSLOTS
    slots[E.TAU_INDEX] = 1.0

    def rhs(tv: float, qv: float, pv: float) -> tuple[float, float]:
        slots[ti] = tv
        slots[qi] = qv
        slots[pi] = pv
        hp, hq = gradient(slots, grad)
        return hp, -hq

    n = int(round((t_end - t0) / dt))
    ts = t0 + dt * np.arange(n + 1)
    qs = np.empty(n + 1)
    ps = np.empty(n + 1)
    qs[0], ps[0] = q0, p0
    for i in range(n):
        tv, qv, pv = ts[i], qs[i], ps[i]
        k1q, k1p = rhs(tv, qv, pv)
        k2q, k2p = rhs(tv + dt / 2, qv + dt / 2 * k1q, pv + dt / 2 * k1p)
        k3q, k3p = rhs(tv + dt / 2, qv + dt / 2 * k2q, pv + dt / 2 * k2p)
        k4q, k4p = rhs(tv + dt, qv + dt * k3q, pv + dt * k3p)
        qs[i + 1] = qv + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        ps[i + 1] = pv + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return ts, qs, ps


def integral_drift(
    integral: E.Expr, ts: np.ndarray, qs: np.ndarray, ps: np.ndarray, tau_value: float = 1.0
) -> float:
    """Max |I(t) - I(t0)| along a classical trajectory."""
    ts = np.asarray(ts, dtype=float)
    rows = {E.symbol("t", sh, 0): ts + sh * tau_value for sh in (-1, 1)}
    rows.update({E.symbol("t", 0, 0): ts, E.symbol("q", 0, 0): qs, E.symbol("p", 0, 0): ps})
    values = E.evaluate_many((integral,), E.grid_slots(tau_value, rows))[0]
    # like a running max, fmax passes over a nan deviation
    return float(np.fmax.reduce(np.abs(values[1:] - values[0]), initial=0.0))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def observed_orders(errors: list[float]) -> list[float]:
    """log2 ratios of consecutive errors for a step-halving sequence."""
    out = []
    for a, b in zip(errors, errors[1:]):
        if b == 0:
            out.append(math.inf)
        else:
            out.append(math.log2(a / b))
    return out


def fitted_order(ns: list[int], errors: list[float]) -> float:
    """Least-squares slope of log2(error) against log2(N)."""
    xs = np.log2(np.array(ns, dtype=float))
    ys = np.log2(np.array(errors, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)
