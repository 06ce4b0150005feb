"""Non-delay baseline: canonical equations, invariance, and first integrals.

This mirrors the delay machinery on the ordinary single-time phase space and
serves as a sanity oracle for it: with pairing weights (0, 0, 1, 0) the delay
residuals are these residuals.  Expressions live in the same jet space but
are restricted to unshifted symbols.  The module keeps only what the CLI's
`check-identity --classical`, the package exports and that cross-check use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import (
    Expr,
    add,
    evaluate_many,
    mul,
    neg,
    partial,
    random_jets,
    sub,
    total_derivative,
)
from .model import _POINT_SYMBOLS, Generator, _check_symbols


@dataclass(frozen=True)
class ClassicalHamiltonian:
    h: Expr

    def __post_init__(self):
        _check_symbols(self.h, _POINT_SYMBOLS, "a classical Hamiltonian")


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
        chk = ex.zero_checks((inv,), classical_on_shell_jets(ch, seed, samples), tol)[0]
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


def classical_on_shell_jets(ch: ClassicalHamiltonian, seed: int, n: int) -> np.ndarray:
    """`(NSLOTS, n)` slot array of random jets with qd = H_p, pd = -H_q and
    consistent second derivatives; column k is sample k."""
    A = random_jets(seed, n)
    hp = partial(ch.h, "p")
    hq = partial(ch.h, "q")
    fp, fq = evaluate_many((hp, hq), A)
    A[ex.qd.index], A[ex.pd.index] = fp, -fq
    # D(H_p) and D(H_q) read the rates just set
    fp, fq = evaluate_many((total_derivative(hp), total_derivative(hq)), A)
    A[ex.qdd.index], A[ex.pdd.index] = fp, -fq
    return A
