"""Non-delay baseline: canonical equations, invariance, and first integrals.

This mirrors the delay machinery on the ordinary single-time phase space and
serves as a sanity oracle for it.  Expressions live in the same jet space but
are restricted to unshifted symbols.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import (
    Expr,
    JetPoint,
    add,
    div,
    evaluate_array,
    evaluate_many,
    mul,
    neg,
    partial,
    powi,
    random_jets,
    sub,
    symbol,
    total_derivative,
)
from .model import Generator, _check_symbols, _num

_POINT = frozenset((symbol("t", 0, 0), symbol("q", 0, 0), symbol("p", 0, 0)))
_TQ = frozenset((symbol("t", 0, 0), symbol("q", 0, 0)))
_LAGR = frozenset((symbol("t", 0, 0), symbol("q", 0, 0), symbol("q", 0, 1)))


@dataclass(frozen=True)
class ClassicalHamiltonian:
    h: Expr

    def __post_init__(self):
        _check_symbols(self.h, _POINT, "a classical Hamiltonian")


def classical_residuals(ch: ClassicalHamiltonian) -> tuple[Expr, Expr, Expr]:
    """(Rp, Rq, Rt) = (qd - H_p, -pd - H_q, D(H) - H_t)."""
    rp = sub(ex.qd, partial(ch.h, "p"))
    rq = neg(add(ex.pd, partial(ch.h, "q")))
    rt = sub(total_derivative(ch.h), partial(ch.h, "t"))
    return rp, rq, rt


def classical_invariance(ch: ClassicalHamiltonian, g: Generator) -> Expr:
    """nu*qd + p*D(eta) - X(H) - H*D(xi); zero iff the action is invariant."""
    xh = add(
        mul(g.xi, partial(ch.h, "t")),
        mul(g.eta, partial(ch.h, "q")),
        mul(g.nu, partial(ch.h, "p")),
    )
    return add(
        mul(g.nu, ex.qd),
        mul(ex.p, total_derivative(g.eta)),
        neg(xh),
        neg(mul(ch.h, total_derivative(g.xi))),
    )


def classical_first_integral(
    ch: ClassicalHamiltonian,
    g: Generator,
    check: bool = True,
    samples: int = 40,
    tol: float = 1e-7,
    seed: int = 0,
) -> Expr:
    """I = p*eta - xi*H; warns when the invariance test fails on-shell."""
    integral = sub(mul(ex.p, g.eta), mul(g.xi, ch.h))
    if check:
        inv = classical_invariance(ch, g)
        chk = ex.is_zero_on(inv, classical_on_shell_jets(ch, seed, samples), tol=tol)
        if not chk.ok:
            warnings.warn(
                f"generator is not an invariance of this Hamiltonian "
                f"(on-shell residual {chk.worst:.3e}); the returned quantity need "
                "not be conserved",
                stacklevel=2,
            )
    return integral


def classical_identity_residual(ch: ClassicalHamiltonian, g: Generator) -> Expr:
    """Invariance expression minus its variational decomposition.

    Vanishes identically for every smooth Hamiltonian and generator; any
    nonzero sample is an implementation bug.
    """
    rp, rq, rt = classical_residuals(ch)
    decomposition = add(
        mul(g.xi, rt),
        mul(g.eta, rq),
        mul(g.nu, rp),
        total_derivative(sub(mul(ex.p, g.eta), mul(g.xi, ch.h))),
    )
    return sub(classical_invariance(ch, g), decomposition)


def classical_legendre(mass, potential: Expr) -> tuple[ClassicalHamiltonian, Expr]:
    """L = mass/2*qd^2 - potential(t, q)  ->  (H, momentum map p = mass*qd)."""
    mass = _num(mass)
    if mass == 0:
        raise ValueError("mass must be nonzero")
    _check_symbols(potential, _TQ, "potential")
    h = add(div(powi(ex.p, 2), mul(2, mass)), potential)
    return ClassicalHamiltonian(h), mul(mass, ex.qd)


def euler_lagrange_residual(lagrangian: Expr) -> Expr:
    """dL/dq - D(dL/dqd) for a one-time Lagrangian L(t, q, qd)."""
    _check_symbols(lagrangian, _LAGR, "a classical Lagrangian")
    return sub(partial(lagrangian, "q"), total_derivative(partial(lagrangian, "qd")))


_QD, _PD, _QDD, _PDD = (symbol(base, 0, order).index for order in (1, 2) for base in "qp")


def classical_on_shell_jets(
    ch: ClassicalHamiltonian, seed: int, n: int, second_order: bool = True, start: int = 0
) -> np.ndarray:
    """`(NSLOTS, n)` slot array of random jets with qd = H_p, pd = -H_q (and
    consistent second derivatives); column k is sample `start + k`."""
    A = random_jets(seed, n, start)
    hp = partial(ch.h, "p")
    hq = partial(ch.h, "q")
    fp, fq = evaluate_many((hp, hq), A)
    A[_QD], A[_PD] = fp, -fq
    if second_order:
        # D(H_p) and D(H_q) read the rates just set
        fp, fq = evaluate_many((total_derivative(hp), total_derivative(hq)), A)
        A[_QDD], A[_PDD] = fp, -fq
    return A


def classical_on_shell_jet(
    ch: ClassicalHamiltonian, seed: int, index: int = 0, second_order: bool = True
) -> JetPoint:
    """Sample `index` of `classical_on_shell_jets` as a jet point."""
    return JetPoint.from_slots(classical_on_shell_jets(ch, seed, 1, second_order, index)[:, 0])


def integrate_canonical(
    ch: ClassicalHamiltonian,
    q0: float,
    p0: float,
    t0: float,
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step fourth-order Runge-Kutta for qd = H_p, pd = -H_q."""
    gradient = ex.compiled_many((partial(ch.h, "p"), partial(ch.h, "q")))
    grad = [0.0, 0.0]
    ti = symbol("t", 0, 0).index
    qi = symbol("q", 0, 0).index
    pi = symbol("p", 0, 0).index
    slots = [math.nan] * ex.NSLOTS
    slots[ex.TAU_INDEX] = 1.0

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
    integral: Expr, ts: np.ndarray, qs: np.ndarray, ps: np.ndarray, tau_value: float = 1.0
) -> float:
    """Max |I(t) - I(t0)| along a classical trajectory."""
    ts = np.asarray(ts, dtype=float)
    rows = {symbol("t", sh, 0): ts + sh * tau_value for sh in (-1, 1)}
    rows.update({symbol("t", 0, 0): ts, symbol("q", 0, 0): qs, symbol("p", 0, 0): ps})
    values = evaluate_array(integral, ex.grid_slots(tau_value, rows))
    # like a running max, fmax passes over a nan deviation
    return float(np.fmax.reduce(np.abs(values[1:] - values[0]), initial=0.0))
