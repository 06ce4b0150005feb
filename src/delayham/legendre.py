"""Delay Legendre transforms between quadratic Lagrangians and Hamiltonians.

Four variants: forward (nondegenerate and degenerate quadratic kinetic part),
reverse (quadratic Hamiltonian back to a Lagrangian), and the extended family
with state-dependent coefficients.  The transform is pinned down by the
compatibility requirement that the momentum defined at the current time is
the forward shift of the momentum defined one delay earlier, which forces the
pairing weights (a1, a2, a3, a4) up to one free scale a1.
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
    add,
    div,
    mul,
    neg,
    powi,
    shift,
    sub,
)
from .model import (
    DelayHamiltonian,
    Number,
    QuadraticHamiltonian,
    QuadraticLagrangian,
    _PHI_SYMBOLS,
    _check_symbols,
    _num,
    quadratic_form,
)


class LegendreError(ValueError):
    pass


class DegenerateSignError(LegendreError):
    """Degenerate kinetic forms are only handled for alpha > 0, gamma > 0,
    beta = +sqrt(alpha*gamma); other sign patterns have no supported closed
    form and are rejected rather than guessed."""


def _sqrt(x: Number) -> Number:
    """Exact square root for perfect-square rationals, float otherwise."""
    if isinstance(x, Fraction):
        ns = math.isqrt(x.numerator)
        ds = math.isqrt(x.denominator)
        if ns * ns == x.numerator and ds * ds == x.denominator:
            return Fraction(ns, ds)
    return math.sqrt(float(x))


@dataclass(frozen=True)
class LegendreResult:
    hamiltonian: DelayHamiltonian
    quadratic: QuadraticHamiltonian
    momentum_map: tuple[Expr, Expr] | None
    inverse_map: tuple[Expr, Expr] | None
    merged_relation: Expr | None
    degenerate: bool


# Largest relative error of three double operations none of which leaves the
# normal range (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., ch. 3: gamma_3 < 2^-51), with a factor 2 to spare.  A derived
# coefficient further than this from its exact value underflowed on the way.
_ROUNDING = 2.0**-50


def _derived(what: str, f, *args: Number) -> Number:
    """f(*args): a coefficient `what` that the transform derives from the
    coefficients `args`, in their own arithmetic.  Where double arithmetic
    underflows on the way, leaving it further from its exact value than
    rounding can, it is the exact value rounded once.  `LegendreError` on
    overflow, in either arithmetic, or when its nonzero exact value rounds to 0."""
    value = f(*args)
    if not abs(value) <= sys.float_info.max:  # a float inf, or a rational beyond the double range
        raise LegendreError(f"{what} overflows in double arithmetic")
    if isinstance(value, float):
        exact = f(*map(Fraction, args))
        if abs(Fraction(value) - exact) > _ROUNDING * abs(exact):
            value = float(exact)
            if value == 0:
                raise LegendreError(f"{what} underflows to 0")
    return value


def _scaled_ratio(a1: Number, x: Number, y: Number) -> Number:
    return a1 * x / y


def _weights(a1: Number, here: Number, lag: Number, scale: Number) -> tuple[Number, ...]:
    """(a1, a1*here/scale, a1*lag/scale, a1), each weight as `_derived`."""
    return (
        a1,
        _derived("the pairing weight a2", _scaled_ratio, a1, here, scale),
        _derived("the pairing weight a3", _scaled_ratio, a1, lag, scale),
        a1,
    )


def pairing_weights(l: QuadraticLagrangian, alpha1: Number) -> tuple[Number, ...]:
    """The four weights fixed by shift compatibility, scaled by alpha1."""
    return _weights(_num(alpha1), l.gamma, l.alpha, l.beta)


def _squared_ratio(a1: Number, x: Number, y: Number) -> Number:
    return a1 / y * (a1 / y) * x


def _carried(a1: Number, x: Number, y: Number, z: Number, model: str, names) -> tuple[Number, ...]:
    """(r^2*x, r*a1, r^2*z) with r = a1/y, each named by `names` of `model` and
    computed as `_derived`: the quadratic form carried across with scale a1,
    a Lagrangian's (alpha, beta, gamma) to a Hamiltonian's (a, b, c) or back."""
    what = [f"the {model} coefficient {name}" for name in names]
    return (
        _derived(what[0], _squared_ratio, a1, x, y),
        _derived(what[1], lambda a1, y: a1 / y * a1, a1, y),
        _derived(what[2], _squared_ratio, a1, z, y),
    )


def legendre_forward(l: QuadraticLagrangian, alpha1: Number | None = None) -> LegendreResult:
    """Quadratic delay Lagrangian -> delay Hamiltonian.

    `alpha1` is the free scale of the pairing weights; it defaults to beta,
    which makes the momentum map the identity p = qd.
    """
    a1 = _num(l.beta if alpha1 is None else alpha1)
    if a1 == 0:
        raise LegendreError("alpha1 must be nonzero")
    alphas = pairing_weights(l, a1)

    if not l.degenerate:
        quad = QuadraticHamiltonian(*_carried(a1, l.alpha, l.beta, l.gamma, "Hamiltonian", "abc"), l.phi)
        ham = DelayHamiltonian(quad.expr(), alphas)
        p_map = mul(div(l.beta, a1), ex.qd)
        pm_map = mul(div(l.beta, a1), ex.qdm)
        inv_q = mul(div(a1, l.beta), ex.p)
        inv_qm = mul(div(a1, l.beta), ex.pm)
        return LegendreResult(ham, quad, (p_map, pm_map), (inv_q, inv_qm), None, False)

    if not (l.alpha > 0 and l.gamma > 0 and l.beta > 0):
        raise DegenerateSignError(
            "degenerate kinetic form supported only for alpha > 0, gamma > 0, "
            "beta = +sqrt(alpha*gamma); got "
            f"alpha={l.alpha}, beta={l.beta}, gamma={l.gamma}"
        )
    ra = _sqrt(l.alpha)
    rg = _sqrt(l.gamma)
    c_here = div(a1, rg)
    c_lag = div(a1, ra)
    combo = add(mul(c_here, ex.p), mul(c_lag, ex.pm))
    h_expr = add(div(powi(combo, 2), 2), l.phi)
    # `_carried` under beta^2 = alpha*gamma, with fewer roundings
    quad = QuadraticHamiltonian(
        *(_derived(f"the Hamiltonian coefficient {name}", _scaled_ratio, a1, a1, x)
          for name, x in zip("abc", (l.gamma, l.beta, l.alpha))),
        l.phi,
    )
    ham = DelayHamiltonian(h_expr, alphas)
    merged = sub(combo, add(mul(ra, ex.qd), mul(rg, ex.qdm)))
    return LegendreResult(ham, quad, None, None, merged, True)


def legendre_reverse(
    h: QuadraticHamiltonian, alpha1: Number | None = None
) -> tuple[QuadraticLagrangian, tuple[Number, ...], tuple[Expr, Expr]]:
    """Quadratic delay Hamiltonian -> Lagrangian, weights, and velocity map."""
    a1 = _num(h.b if alpha1 is None else alpha1)
    if a1 == 0:
        raise LegendreError("alpha1 must be nonzero")
    alphas = _weights(a1, h.c, h.a, h.b)
    lag = QuadraticLagrangian(*_carried(a1, h.a, h.b, h.c, "Lagrangian", ("alpha", "beta", "gamma")), h.phi)
    vel_map = (mul(div(h.b, a1), ex.p), mul(div(h.b, a1), ex.pm))
    return lag, alphas, vel_map


def alphas_alternative(l: QuadraticLagrangian) -> tuple[Number, ...]:
    """Pairing weights from the point-relation route.

    Splitting the momentum relations term by term and imposing shift
    compatibility on each piece yields weights proportional to
    (beta, gamma, alpha, beta); nondegenerate and degenerate kinetic forms are
    covered uniformly.
    """
    return (l.beta, l.gamma, l.alpha, l.beta)


# ---------------------------------------------------------------------------
# extended transform: state-dependent coefficients
# ---------------------------------------------------------------------------

_Q_ONLY = frozenset((ex.q,))


@dataclass(frozen=True)
class ExtendedLagrangian:
    """Kinetic coefficients depending on (q, qm), linear terms generated by a
    gauge function lam(q), and a momentum scale mu(q)."""

    alpha: Expr
    beta: Expr
    gamma: Expr
    lam: Expr
    mu: Expr
    phi: Expr

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "phi"):
            _check_symbols(getattr(self, name), _PHI_SYMBOLS, name)
        _check_symbols(self.lam, _Q_ONLY, "lam")
        _check_symbols(self.mu, _Q_ONLY, "mu")
        self._sample_checks()

    def _sample_checks(self):
        grid = np.linspace(-2.0, 2.0, 17)
        q, qm = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        slots = ex.grid_slots(math.nan, {ex.q: q, ex.qm: qm})
        mu, alpha, beta, gamma = ex.evaluate_many((self.mu, self.alpha, self.beta, self.gamma), slots)
        # one row per (q, qm) point of a sweep over q, then qm; mu depends on
        # q alone, so its failure shows from the first point of its sweep
        failed = np.stack(
            [np.abs(mu) < 1e-9, np.abs(beta) < 1e-12, np.abs(alpha * gamma - beta * beta) < 1e-12],
            axis=1,
        )
        if not failed.any():
            return
        k, check = divmod(int(np.argmax(failed)), 3)
        messages = (
            f"mu vanishes near q={q[k]} (singular momentum map)",
            f"beta vanishes near (q={q[k]}, qm={qm[k]})",
            f"alpha*gamma - beta^2 vanishes near (q={q[k]}, qm={qm[k]})",
        )
        raise LegendreError(messages[check])

    def expr(self) -> Expr:
        lam_m = shift(self.lam, -1)
        return add(
            *quadratic_form(self.alpha, self.beta, self.gamma, ex.qd, ex.qdm),
            neg(mul(add(mul(self.alpha, self.lam), mul(self.beta, lam_m)), ex.qd)),
            neg(mul(add(mul(self.beta, self.lam), mul(self.gamma, lam_m)), ex.qdm)),
            neg(self.phi),
        )


@dataclass(frozen=True)
class ExtendedLegendreResult:
    h: Expr
    alphas: tuple[Expr, Expr, Expr, Expr]
    velocity_map: tuple[Expr, Expr]


def legendre_extended(l: ExtendedLagrangian) -> ExtendedLegendreResult:
    """Extended transform; pairing weights become functions of (q, qm)."""
    mu_m = shift(l.mu, -1)
    lam_m = shift(l.lam, -1)
    r_here = add(mul(l.mu, ex.p), l.lam)
    r_lag = add(mul(mu_m, ex.pm), lam_m)
    h_expr = add(*quadratic_form(l.alpha, l.beta, l.gamma, r_here, r_lag), l.phi)
    alphas = (mul(l.beta, mu_m), mul(l.gamma, mu_m), mul(l.alpha, l.mu), mul(l.beta, l.mu))
    return ExtendedLegendreResult(h_expr, alphas, (r_here, r_lag))
