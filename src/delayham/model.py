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

import math
import sys
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

_H_SYMBOLS = frozenset((ex.t, ex.tm, ex.q, ex.qm, ex.p, ex.pm))
_PHI_SYMBOLS = frozenset((ex.q, ex.qm))
_POINT_SYMBOLS = frozenset((ex.t, ex.q, ex.p))


def _check_symbols(e: Expr, allowed: frozenset, what: str):
    extra = symbols_of(e) - allowed
    if extra:
        names = ", ".join(sorted(s.name for s in extra))
        raise ValueError(f"{what} must not contain: {names}")


def _num(x: Number) -> Number:
    """A model coefficient as a number: an int becomes a `Fraction`, and its
    double must be finite (a rational below the double range reads as 0)."""
    if isinstance(x, bool):
        raise TypeError("coefficients must be numbers")
    if isinstance(x, int):
        x = Fraction(x)
    elif not isinstance(x, (float, Fraction)):
        raise TypeError(f"coefficients must be numbers, got {type(x).__name__}")
    try:
        finite = math.isfinite(x)
    except OverflowError:  # a rational beyond the double range
        finite = False
    if not finite:
        got = repr(x) if isinstance(x, float) else "a rational beyond the double range"
        raise ValueError(f"coefficients must be finite doubles, got {got}")
    return x


def _out_of_range(x: Number, y: Number) -> bool:
    """Whether the product x*y is a double that overflowed, or that underflowed
    below the normal range from two nonzero factors."""
    xy = x * y
    return isinstance(xy, float) and (
        not math.isfinite(xy) or (abs(xy) < sys.float_info.min and x != 0 and y != 0)
    )


def quadratic_form(x, y, z, u, v) -> tuple[Expr, Expr, Expr]:
    """The three terms x/2*u^2, y*u*v and z/2*v^2 of the quadratic kinetic
    form: of L in (qd, qdm), of H in (p, pm), and of the extended family with
    expression coefficients.  Callers splice them into one `add`."""
    return mul(div(x, 2), powi(u, 2)), mul(y, u, v), mul(div(z, 2), powi(v, 2))


def _check_quadratic(model, names) -> None:
    """The coefficient rule of both quadratic models: the coefficients `names`
    of the frozen `model` become numbers (`_num`), the middle one must be
    nonzero, and its phi may read only q and qm."""
    for name in names:
        object.__setattr__(model, name, _num(getattr(model, name)))
    if getattr(model, names[1]) == 0:
        raise ValueError(f"{names[1]} must be nonzero")
    _check_symbols(model.phi, _PHI_SYMBOLS, "phi")


@dataclass(frozen=True)
class QuadraticLagrangian:
    """alpha/2*qd^2 + beta*qd*qdm + gamma/2*qdm^2 - phi(q, qm), with beta != 0."""

    alpha: Number
    beta: Number
    gamma: Number
    phi: Expr

    def __post_init__(self):
        _check_quadratic(self, ("alpha", "beta", "gamma"))

    @property
    def degenerate(self) -> bool:
        if _out_of_range(self.alpha, self.gamma) or _out_of_range(self.beta, self.beta):
            # a float product overflowed or underflowed: decide on the exact values
            alpha, beta, gamma = map(Fraction, (self.alpha, self.beta, self.gamma))
            return alpha * gamma == beta * beta
        return self.alpha * self.gamma == self.beta * self.beta

    def expr(self) -> Expr:
        return add(*quadratic_form(self.alpha, self.beta, self.gamma, ex.qd, ex.qdm), neg(self.phi))


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """a/2*p^2 + b*p*pm + c/2*pm^2 + phi(q, qm), with b != 0."""

    a: Number
    b: Number
    c: Number
    phi: Expr

    def __post_init__(self):
        _check_quadratic(self, "abc")

    def expr(self) -> Expr:
        return add(*quadratic_form(self.a, self.b, self.c, ex.p, ex.pm), self.phi)


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

    @property
    def solvable(self) -> bool:
        """Whether the canonical pair solves for its newest rates qdp and pdp:
        the outer weights a1 and a4 are nonzero as the doubles that the solver
        and `on_shell_jets` divide by."""
        return float(self.alphas[0]) != 0.0 and float(self.alphas[3]) != 0.0


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
            base_coeff = coeff[(s.base, s.order)]
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


def _three_copies(piece) -> Expr:
    """piece(0) + S+ piece(-1) + S- piece(+1): a variation at one point reaches
    three shifted copies of a three-point density, and `piece(s)`, the one
    through the coordinates at shift s, is moved back to the current point."""
    return add(piece(0), shift(piece(-1), +1), shift(piece(+1), -1))


def _vary_pair(e: Expr, base: str) -> Expr:
    return _three_copies(
        lambda s: sub(partial(e, symbol(base, s, 0)), total_derivative(partial(e, symbol(base, s, 1))))
    )


def variational_p(e: Expr) -> Expr:
    """delta/delta p = d/dp - D d/dpd of the three-point expression e, over its copies."""
    return _vary_pair(e, "p")


def variational_q(e: Expr) -> Expr:
    """delta/delta q = d/dq - D d/dqd of the three-point expression e, over its copies."""
    return _vary_pair(e, "q")


def variational_t(e: Expr) -> Expr:
    """Horizontal variation of the three-point expression e: d/dt +
    D(qd d/dqd + pd d/dpd) over its copies, minus D(e)."""

    def piece(s: int) -> Expr:
        qd, pd = symbol("q", s, 1), symbol("p", s, 1)
        inner = add(mul(qd, partial(e, qd)), mul(pd, partial(e, pd)))
        return add(partial(e, symbol("t", s)), total_derivative(inner))

    return sub(_three_copies(piece), total_derivative(e))


# ---------------------------------------------------------------------------
# residuals of the delay variational equations
# ---------------------------------------------------------------------------


def shifted_pair_partial(h_expr: Expr, base: str) -> Expr:
    """d(H + H+)/d<base> where the shifted copy is differentiated through its
    lagged slot."""
    here = partial(h_expr, symbol(base, 0, 0))
    lagged = shift(partial(h_expr, symbol(base, -1, 0)), +1)
    return add(here, lagged)


def flux(h: DelayHamiltonian) -> Expr:
    """a2*(p*qd - pm*qdm) + a4*(pp*qd - p*qdm): the pairing terms that the
    horizontal residual Rt differentiates and that the part C of the Noether
    decomposition (`noether.noether_parts`) carries with -xi."""
    _, a2, _, a4 = h.alphas
    return add(
        mul(a2, sub(mul(ex.p, ex.qd), mul(ex.pm, ex.qdm))),
        mul(a4, sub(mul(ex.pp, ex.qd), mul(ex.p, ex.qdm))),
    )


def variational_residuals(h: DelayHamiltonian) -> tuple[Expr, Expr, Expr]:
    """Residuals (Rp, Rq, Rt) of the three delay variational equations."""
    a1, a2, a3, a4 = h.alphas
    dp = shifted_pair_partial(h.h, "p")
    dq = shifted_pair_partial(h.h, "q")
    dt = shifted_pair_partial(h.h, "t")
    rp = add(mul(a1, ex.qdp), mul(a2 + a3, ex.qd), mul(a4, ex.qdm), neg(dp))
    rq = neg(add(mul(a4, ex.pdp), mul(a2 + a3, ex.pd), mul(a1, ex.pdm), dq))
    rt = add(total_derivative(flux(h)), total_derivative(h.h), neg(dt))
    return rp, rq, rt


def elsgolts_residual(l: QuadraticLagrangian) -> Expr:
    """Second-order delay variational residual of a quadratic Lagrangian."""
    return neg(
        add(
            mul(l.beta, ex.qddp),
            mul(l.alpha + l.gamma, ex.qdd),
            mul(l.beta, ex.qddm),
            shifted_pair_partial(l.phi, "q"),
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
    extra = symbols_of(g.xi) - {ex.t}
    if extra:
        return False
    dxi = total_derivative(g.xi)
    return bool(is_zero(sub(dxi, shift(dxi, -1)), samples=samples, tol=tol, seed=seed))


# ---------------------------------------------------------------------------
# on-shell jet construction for the delay canonical equations
# ---------------------------------------------------------------------------


def on_shell_jets(h: DelayHamiltonian, seed: int, n: int, start: int = 0) -> np.ndarray:
    """`(NSLOTS, n)` slot array of random jets constrained by the two delay
    canonical equations and their total derivatives; column k is
    `on_shell_jet(h, seed, start + k)`.

    The forward derivatives qdp and pdp are solved from the equations, then
    the forward second derivatives qddp and pddp from the differentiated
    equations (this needs a1 != 0 and a4 != 0); the second solve writes no
    other slot.  The horizontal equation is *not* imposed.
    """
    if not h.solvable:
        raise ValueError("on-shell construction needs a1 != 0 and a4 != 0")
    a1, a2, a3, a4 = h.alphas
    c1, c23, c4 = float(a1), float(a2 + a3), float(a4)
    A = random_jets(seed, n, start)
    dp = shifted_pair_partial(h.h, "p")
    dq = shifted_pair_partial(h.h, "q")
    fp, fq = evaluate_many((dp, dq), A)
    A[ex.qdp.index] = (fp - c23 * A[ex.qd.index] - c4 * A[ex.qdm.index]) / c1
    A[ex.pdp.index] = (-fq - c23 * A[ex.pd.index] - c1 * A[ex.pdm.index]) / c4
    # D(dp) and D(dq) read the forward rates just solved for
    fp, fq = evaluate_many((total_derivative(dp), total_derivative(dq)), A)
    A[ex.qddp.index] = (fp - c23 * A[ex.qdd.index] - c4 * A[ex.qddm.index]) / c1
    A[ex.pddp.index] = (-fq - c23 * A[ex.pdd.index] - c1 * A[ex.pddm.index]) / c4
    return A


def on_shell_jet(h: DelayHamiltonian, seed: int, index: int = 0) -> JetPoint:
    """Sample `index` of `on_shell_jets` as a jet point."""
    return JetPoint.from_slots(on_shell_jets(h, seed, 1, index)[:, 0])
