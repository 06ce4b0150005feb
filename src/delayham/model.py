"""Structured models: delay Lagrangians, delay Hamiltonians, symmetry generators.

The phase-space density whose variations generate the delay canonical
equations is

    p-(a1*qd + a2*qdm) + p*(a3*qd + a4*qdm) - H(t, tm, q, qm, p, pm)

and the three variational operators (in p, in q, and in the independent
variable) act on it to produce the residuals Rp, Rq, Rt.  Both the spelled-out
residual formulas and the generic operators are provided; they agree
algebraically, which the test-suite checks by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import (
    Expr,
    JetPoint,
    add,
    as_expr,
    div,
    evaluate_many,
    is_zero,
    mul,
    neg,
    partial,
    powi,
    random_jets,
    shift,
    sub,
    symbol,
    symbols_of,
    total_derivative,
)

Number = ex.Number

_H_SYMBOLS = frozenset(
    symbol(b, s, 0) for b in ("t", "q", "p") for s in (-1, 0)
)
_PHI_SYMBOLS = frozenset((symbol("q", 0, 0), symbol("q", -1, 0)))
_POINT_SYMBOLS = frozenset((symbol("t", 0, 0), symbol("q", 0, 0), symbol("p", 0, 0)))


def _check_symbols(e: Expr, allowed: frozenset, what: str):
    extra = symbols_of(e) - allowed
    if extra:
        names = ", ".join(sorted(s.name for s in extra))
        raise ValueError(f"{what} must not contain: {names}")


def _num(x: Number) -> Number:
    if isinstance(x, bool):
        raise TypeError("coefficients must be numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, Fraction)):
        return x
    raise TypeError(f"coefficients must be numbers, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadraticLagrangian:
    """alpha/2*qd^2 + beta*qd*qdm + gamma/2*qdm^2 - phi(q, qm), with beta != 0."""

    alpha: Number
    beta: Number
    gamma: Number
    phi: Expr

    def __post_init__(self):
        object.__setattr__(self, "alpha", _num(self.alpha))
        object.__setattr__(self, "beta", _num(self.beta))
        object.__setattr__(self, "gamma", _num(self.gamma))
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        _check_symbols(self.phi, _PHI_SYMBOLS, "phi")

    @property
    def degenerate(self) -> bool:
        return self.alpha * self.gamma - self.beta**2 == 0

    def expr(self) -> Expr:
        return add(
            mul(div(self.alpha, 2), powi(ex.qd, 2)),
            mul(self.beta, ex.qd, ex.qdm),
            mul(div(self.gamma, 2), powi(ex.qdm, 2)),
            neg(self.phi),
        )


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """a/2*p^2 + b*p*pm + c/2*pm^2 + phi(q, qm), with b != 0."""

    a: Number
    b: Number
    c: Number
    phi: Expr

    def __post_init__(self):
        object.__setattr__(self, "a", _num(self.a))
        object.__setattr__(self, "b", _num(self.b))
        object.__setattr__(self, "c", _num(self.c))
        if self.b == 0:
            raise ValueError("b must be nonzero")
        _check_symbols(self.phi, _PHI_SYMBOLS, "phi")

    def expr(self) -> Expr:
        return add(
            mul(div(self.a, 2), powi(ex.p, 2)),
            mul(self.b, ex.p, ex.pm),
            mul(div(self.c, 2), powi(ex.pm, 2)),
            self.phi,
        )


@dataclass(frozen=True)
class DelayHamiltonian:
    """A delay Hamiltonian H(t, tm, q, qm, p, pm) with its four pairing weights."""

    h: Expr
    alphas: tuple[Number, Number, Number, Number]

    def __post_init__(self):
        _check_symbols(self.h, _H_SYMBOLS, "a delay Hamiltonian")
        if len(self.alphas) != 4:
            raise ValueError("alphas must have exactly four entries")
        object.__setattr__(self, "alphas", tuple(_num(a) for a in self.alphas))

    def action_density(self) -> Expr:
        return action_density(self)


@dataclass(frozen=True)
class Generator:
    """Point symmetry generator with coefficients xi, eta, nu over (t, q, p)."""

    xi: Expr
    eta: Expr
    nu: Expr

    def __post_init__(self):
        object.__setattr__(self, "xi", as_expr(self.xi))
        object.__setattr__(self, "eta", as_expr(self.eta))
        object.__setattr__(self, "nu", as_expr(self.nu))
        for name in ("xi", "eta", "nu"):
            _check_symbols(getattr(self, name), _POINT_SYMBOLS, name)

    def prolong(self) -> tuple[Expr, Expr]:
        return prolong(self)

    def apply(self, e: Expr) -> Expr:
        """Action of the generator prolonged to shifts and derivatives up to order 2."""
        zeta_eta, zeta_nu = prolong(self)
        zeta_eta2 = sub(total_derivative(zeta_eta), mul(ex.qdd, total_derivative(self.xi)))
        zeta_nu2 = sub(total_derivative(zeta_nu), mul(ex.pdd, total_derivative(self.xi)))
        coeff = {
            ("t", 0): self.xi,
            ("q", 0): self.eta,
            ("p", 0): self.nu,
            ("q", 1): zeta_eta,
            ("p", 1): zeta_nu,
            ("q", 2): zeta_eta2,
            ("p", 2): zeta_nu2,
        }
        terms = []
        for s in sorted(symbols_of(e), key=lambda s: s.index):
            base_coeff = coeff.get((s.base, s.order))
            if base_coeff is None:
                continue
            shifted = base_coeff if s.shift == 0 else shift(base_coeff, s.shift)
            terms.append(mul(shifted, partial(e, s)))
        return add(*terms)


def prolong(g: Generator) -> tuple[Expr, Expr]:
    """First-derivative prolongation coefficients of a point generator."""
    dxi = total_derivative(g.xi)
    zeta_eta = sub(total_derivative(g.eta), mul(ex.qd, dxi))
    zeta_nu = sub(total_derivative(g.nu), mul(ex.pd, dxi))
    return zeta_eta, zeta_nu


def action_density(h: DelayHamiltonian) -> Expr:
    """Integrand of the phase-space action for a delay Hamiltonian."""
    a1, a2, a3, a4 = h.alphas
    return add(
        mul(ex.pm, add(mul(a1, ex.qd), mul(a2, ex.qdm))),
        mul(ex.p, add(mul(a3, ex.qd), mul(a4, ex.qdm))),
        neg(h.h),
    )


# ---------------------------------------------------------------------------
# variational operators over three-point expressions
# ---------------------------------------------------------------------------


def _vary_pair(e: Expr, base: str, extended: bool) -> Expr:
    """delta/delta<base> = d/d<x> - D d/d<xdot>, summed over shifted copies."""
    x0 = symbol(base, 0, 0)
    x1 = symbol(base, 0, 1)
    out = sub(partial(e, x0), total_derivative(partial(e, x1)))
    xm0 = symbol(base, -1, 0)
    xm1 = symbol(base, -1, 1)
    out = add(out, shift(sub(partial(e, xm0), total_derivative(partial(e, xm1))), +1))
    if extended:
        xp0 = symbol(base, 1, 0)
        xp1 = symbol(base, 1, 1)
        piece = sub(partial(e, xp0), total_derivative(partial(e, xp1)))
        if not ex._is_const(piece, 0):
            out = add(out, shift(piece, -1))
    return out


def variational_p(e: Expr, extended: bool = False) -> Expr:
    return _vary_pair(e, "p", extended)


def variational_q(e: Expr, extended: bool = False) -> Expr:
    return _vary_pair(e, "q", extended)


def variational_t(e: Expr) -> Expr:
    """Horizontal variation: d/dt + D(qd d/dqd + pd d/dpd) + shifted copy - D."""
    inner = add(
        mul(ex.qd, partial(e, symbol("q", 0, 1))),
        mul(ex.pd, partial(e, symbol("p", 0, 1))),
    )
    out = add(partial(e, symbol("t", 0, 0)), total_derivative(inner))
    inner_m = add(
        mul(ex.qdm, partial(e, symbol("q", -1, 1))),
        mul(ex.pdm, partial(e, symbol("p", -1, 1))),
    )
    out = add(out, shift(add(partial(e, symbol("t", -1, 0)), total_derivative(inner_m)), +1))
    return sub(out, total_derivative(e))


# ---------------------------------------------------------------------------
# residuals of the delay variational equations
# ---------------------------------------------------------------------------


def shifted_pair_partial(h_expr: Expr, base: str) -> Expr:
    """d(H + H+)/d<base> where the shifted copy is differentiated through its
    lagged slot."""
    here = partial(h_expr, symbol(base, 0, 0))
    lagged = shift(partial(h_expr, symbol(base, -1, 0)), +1)
    return add(here, lagged)


def variational_residuals(h: DelayHamiltonian) -> tuple[Expr, Expr, Expr]:
    """Residuals (Rp, Rq, Rt) of the three delay variational equations."""
    a1, a2, a3, a4 = h.alphas
    dp = shifted_pair_partial(h.h, "p")
    dq = shifted_pair_partial(h.h, "q")
    dt = shifted_pair_partial(h.h, "t")
    rp = add(mul(a1, ex.qdp), mul(a2 + a3, ex.qd), mul(a4, ex.qdm), neg(dp))
    rq = neg(add(mul(a4, ex.pdp), mul(a2 + a3, ex.pd), mul(a1, ex.pdm), dq))
    flux = add(
        mul(a2, sub(mul(ex.p, ex.qd), mul(ex.pm, ex.qdm))),
        mul(a4, sub(mul(ex.pp, ex.qd), mul(ex.p, ex.qdm))),
    )
    rt = add(total_derivative(flux), total_derivative(h.h), neg(dt))
    return rp, rq, rt


def elsgolts_residual(l: QuadraticLagrangian) -> Expr:
    """Second-order delay variational residual of a quadratic Lagrangian."""
    dphi = add(partial(l.phi, "q"), shift(partial(l.phi, "qm"), +1))
    return neg(
        add(
            mul(l.beta, ex.qddp),
            mul(l.alpha + l.gamma, ex.qdd),
            mul(l.beta, ex.qddm),
            dphi,
        )
    )


def local_extremal_residual(h: DelayHamiltonian, g: Generator) -> Expr:
    """Variation of the action along the group orbit of `g`."""
    rp, rq, rt = variational_residuals(h)
    return add(mul(g.xi, rt), mul(g.eta, rq), mul(g.nu, rp))


def xi_admissible(g: Generator, samples: int = 60, tol: float = 1e-9, seed: int = 0) -> bool:
    """Whether the time coefficient is compatible with a constant delay.

    Requires xi = xi(t) and D(xi) invariant under the backward shift; affine
    xi always passes, and so does any tau-periodic addition.
    """
    extra = symbols_of(g.xi) - {symbol("t", 0, 0)}
    if extra:
        return False
    dxi = total_derivative(g.xi)
    return bool(is_zero(sub(dxi, shift(dxi, -1)), samples=samples, tol=tol, seed=seed))


# ---------------------------------------------------------------------------
# on-shell jet construction for the delay canonical equations
# ---------------------------------------------------------------------------


_SLOT = {name: ex.SYMBOL_BY_NAME[name].index for name in (
    "qd", "qdm", "qdp", "pd", "pdm", "pdp", "qdd", "qddm", "qddp", "pdd", "pddm", "pddp",
)}


def on_shell_jets(
    h: DelayHamiltonian, seed: int, n: int, second_order: bool = False, start: int = 0
) -> np.ndarray:
    """`(NSLOTS, n)` slot array of random jets constrained by the two delay
    canonical equations; column k is `on_shell_jet(h, seed, start + k, ...)`.

    The forward derivatives qdp and pdp are solved from the equations (this
    needs a1 != 0 and a4 != 0); with `second_order` the forward second
    derivatives are solved from the differentiated equations as well.  The
    horizontal equation is *not* imposed.
    """
    a1, a2, a3, a4 = h.alphas
    if a1 == 0 or a4 == 0:
        raise ValueError("on-shell construction needs a1 != 0 and a4 != 0")
    c1, c23, c4 = float(a1), float(a2 + a3), float(a4)
    A = random_jets(seed, n, start)
    dp = shifted_pair_partial(h.h, "p")
    dq = shifted_pair_partial(h.h, "q")
    fp, fq = evaluate_many((dp, dq), A)
    A[_SLOT["qdp"]] = (fp - c23 * A[_SLOT["qd"]] - c4 * A[_SLOT["qdm"]]) / c1
    A[_SLOT["pdp"]] = (-fq - c23 * A[_SLOT["pd"]] - c1 * A[_SLOT["pdm"]]) / c4
    if second_order:
        # D(dp) and D(dq) read the forward rates just solved for
        fp, fq = evaluate_many((total_derivative(dp), total_derivative(dq)), A)
        A[_SLOT["qddp"]] = (fp - c23 * A[_SLOT["qdd"]] - c4 * A[_SLOT["qddm"]]) / c1
        A[_SLOT["pddp"]] = (-fq - c23 * A[_SLOT["pdd"]] - c1 * A[_SLOT["pddm"]]) / c4
    return A


def on_shell_jet(
    h: DelayHamiltonian, seed: int, index: int = 0, second_order: bool = False
) -> JetPoint:
    """Sample `index` of `on_shell_jets` as a jet point."""
    return JetPoint.from_slots(on_shell_jets(h, seed, 1, second_order, index)[:, 0])
