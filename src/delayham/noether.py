"""Invariance analysis and first integrals for delay Hamiltonian systems.

The invariance residual of a generator acting on the phase-space action
density decomposes, identically in all jet coordinates, into the three
variational residuals plus a total-derivative part C and a shift-difference
part P.  For (divergence-)invariant generators this yields conserved
quantities along solutions: a differential first integral I = C - V when the
difference part telescopes into a total derivative, and a difference first
integral J = P - W in the opposite case.  V and W are found by a linear fit
over a fixed monomial-times-trigonometric dictionary and re-verified by
sampling; user-supplied candidates are always accepted for checking.  Each
dictionary and its images are built once per process.  An on-shell fit
samples jets of the prolonged canonical pair (the equations and their total
derivatives), so one set of jets serves every target of a fit, whatever its
order.  The generators of one run fit on the same seeded jets, so
`analyze_generators` runs each stage across all of them: each fit call
evaluates (one kernel call over the images) and factors one design, shared
by every generator in it, while each fit keeps its own solve, gate and
verification.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from . import expr as ex
from .expr import (
    Expr,
    ZeroCheck,
    add,
    as_expr,
    is_zero,
    mul,
    neg,
    partial,
    shift,
    sub,
    symbols_of,
    to_source,
    total_derivative,
)
from .model import (
    DelayHamiltonian,
    Generator,
    action_density,
    flux,
    on_shell_jets,
    variational_p,
    variational_q,
    variational_residuals,
    variational_t,
    xi_admissible,
)

D = total_derivative


class IntegralVerificationError(RuntimeError):
    def __init__(self, message: str, worst: float):
        super().__init__(f"{message} (max on-shell residual {worst:.3e})")
        self.worst = worst


class DriftError(RuntimeError):
    pass


class Classification(str, Enum):
    VARIATIONAL = "variational"
    DIVERGENCE = "divergence"
    NONE = "none"


@dataclass
class InvarianceResidual:
    omega: Expr
    classification: Classification
    v: Expr | None = None
    w: Expr | None = None


@dataclass
class NoetherQuantities:
    c: Expr
    p_quantity: Expr
    differential_integral: Expr | None = None
    difference_integral: Expr | None = None


# ---------------------------------------------------------------------------
# invariance residual and conserved-quantity parts
# ---------------------------------------------------------------------------


def invariance_residual(h: DelayHamiltonian, g: Generator) -> Expr:
    """Residual of the invariance condition of the delay action functional."""
    a1, a2, a3, a4 = h.alphas
    eta_m = shift(g.eta, -1)
    nu_m = shift(g.nu, -1)
    xi_m = shift(g.xi, -1)
    deta = D(g.eta)
    deta_m = D(eta_m)
    dxi = D(g.xi)
    return add(
        mul(nu_m, add(mul(a1, ex.qd), mul(a2, ex.qdm))),
        mul(ex.pm, add(mul(a1, deta), mul(a2, deta_m))),
        mul(g.nu, add(mul(a3, ex.qd), mul(a4, ex.qdm))),
        mul(ex.p, add(mul(a3, deta), mul(a4, deta_m))),
        mul(add(mul(a2, ex.pm), mul(a4, ex.p)), ex.qdm, D(sub(g.xi, xi_m))),
        neg(mul(g.xi, partial(h.h, "t"))),
        neg(mul(g.eta, partial(h.h, "q"))),
        neg(mul(g.nu, partial(h.h, "p"))),
        neg(mul(xi_m, partial(h.h, "tm"))),
        neg(mul(eta_m, partial(h.h, "qm"))),
        neg(mul(nu_m, partial(h.h, "pm"))),
        neg(mul(h.h, dxi)),
    )


def noether_parts(h: DelayHamiltonian, g: Generator) -> NoetherQuantities:
    """The total-derivative part C and the shift-difference part P."""
    a1, a2, a3, a4 = h.alphas
    eta_m = shift(g.eta, -1)
    nu_m = shift(g.nu, -1)
    xi_m = shift(g.xi, -1)
    mixed = add(mul(a2, ex.pm), mul(a4, ex.p))
    c = sub(
        mul(g.eta, add(mul(a4, ex.pp), mul(a2 + a3, ex.p), mul(a1, ex.pm))),
        mul(g.xi, add(flux(h), h.h)),
    )
    p_quantity = add(
        mul(mixed, D(eta_m)),
        mul(nu_m, add(mul(a1, ex.qd), mul(a2, ex.qdm))),
        neg(mul(mixed, ex.qdm, D(xi_m))),
        neg(mul(xi_m, partial(h.h, "tm"))),
        neg(mul(eta_m, partial(h.h, "qm"))),
        neg(mul(nu_m, partial(h.h, "pm"))),
    )
    return NoetherQuantities(c, p_quantity)


def hamiltonian_identity_residual(h: DelayHamiltonian, g: Generator) -> Expr:
    """Invariance residual minus its variational decomposition.

    Identically zero for every smooth Hamiltonian and generator; checked by
    off-shell sampling rather than symbolic simplification.
    """
    rp, rq, rt = variational_residuals(h)
    parts = noether_parts(h, g)
    decomposition = add(
        mul(g.xi, rt),
        mul(g.eta, rq),
        mul(g.nu, rp),
        D(parts.c),
        parts.p_quantity,
        neg(shift(parts.p_quantity, +1)),
    )
    return sub(invariance_residual(h, g), decomposition)


def verify_hamiltonian_identity(
    h: DelayHamiltonian, g: Generator, samples: int = 100, tol: float = 1e-9, seed: int = 0
) -> ZeroCheck:
    return is_zero(hamiltonian_identity_residual(h, g), samples=samples, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# divergence fitting
# ---------------------------------------------------------------------------


def _trig_factors() -> list[Expr]:
    return [ex.ONE, ex.sin(ex.t), ex.cos(ex.t), ex.sin(ex.tm), ex.cos(ex.tm), ex.t]


_Dictionary = tuple[tuple[Expr, ...], tuple[Expr, ...]]


def _shift_difference(e: Expr) -> Expr:
    """(S+ - 1)e."""
    return sub(shift(e, +1), e)


def _dictionary(columns: list[Expr], image: Callable[[Expr], Expr]) -> _Dictionary:
    """The columns and their images under the fitted operator."""
    return tuple(columns), tuple(image(c) for c in columns)


@functools.cache
def _v_dictionary() -> _Dictionary:
    """Monomials of degree <= 2 in q, p at three points times trig factors, under D."""
    singles = [ex.q, ex.qm, ex.qp, ex.p, ex.pm, ex.pp]
    monos = list(singles)
    for i, a in enumerate(singles):
        for b in singles[i:]:
            monos.append(mul(a, b))
    return _dictionary([mul(m, f) for m in monos for f in _trig_factors()], D)


@functools.cache
def _w_dictionary() -> _Dictionary:
    """Values, rates and their products at two points times trig factors, under S+ - 1."""
    values = [ex.q, ex.qm, ex.p, ex.pm]
    rates = [ex.qd, ex.qdm, ex.pd, ex.pdm]
    monos = list(values) + list(rates)
    for i, a in enumerate(values):
        for b in values[i:]:
            monos.append(mul(a, b))
    for r in rates:
        for v in values:
            monos.append(mul(r, v))
    columns = [mul(m, f) for m in monos for f in _trig_factors()]
    return _dictionary(columns, _shift_difference)


# Largest cond(A^T A) at which the normal equations are solved.  Their forward
# error grows like cond(A^T A) * eps (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 20): at most about 1e-8 here, and about
# 1e-13 on the README fits, whose Gram matrices sit at 1e3-2e4.  A fit is
# proven by its verification, not by the solver.  `_gram_factor` first tries
# the bound ||G||_F * ||L^-1||_F^2 >= cond_2(G) against half this limit, which
# leaves room for rounding, and computes the spectrum only when that bound is
# inconclusive; so its verdict is the spectrum's.
_GRAM_COND_MAX = 1e8

# The bound is trusted only when the largest entry of G (a diagonal one) lies
# in this range: then no square in the norms and no step of the factorisation
# leaves the normal range, so rounding alone separates it from cond_2(G).
_GRAM_SCALE = (2.0**-500, 2.0**500)

# Leaves of the recursive triangular inverse are at most this many rows.
_INVERSE_LEAF = 32

# A fit is kept when its relative design residual is at most _FIT_TOL and its
# rounded coefficients then pass a 120-jet zero check at _VERIFY_TOL.
_FIT_TOL = 1e-6
_VERIFY_TOL = 1e-8


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of the invertible lower-triangular matrix `low`, by 2x2 block
    recursion: inv([[A, 0], [C, B]]) = [[inv(A), 0], [-inv(B) C inv(A), inv(B)]]
    (Higham, ch. 14).  Matrix products do the work; `np.linalg.inv` runs on
    leaves of at most _INVERSE_LEAF rows, whose upper triangle is zeroed."""
    n = len(low)
    if n <= _INVERSE_LEAF:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    top = _lower_inverse(low[:h, :h])
    bottom = _lower_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = top
    out[h:, h:] = bottom
    out[h:, :h] = -(bottom @ low[h:, :h]) @ top
    return out


def _gram_factor(a_mat: np.ndarray) -> np.ndarray | None:
    """Inverse of the lower Cholesky factor L of the Gram matrix
    G = a_mat.T @ a_mat, or None.

    None unless G is finite, its Cholesky factorisation succeeds and its
    condition number is at most _GRAM_COND_MAX.  The condition is settled by
    the bound ||G||_F * ||L^-1||_F^2 when G's scale is within _GRAM_SCALE and
    the bound is at most _GRAM_COND_MAX / 2, and by G's exact extreme
    eigenvalues otherwise, so a design is accepted exactly when its spectrum
    puts it within the limit.  One design is factored and inverted once,
    however many targets `_solve` fits on it.  Never warns."""
    with np.errstate(all="ignore"):
        gram = a_mat.T @ a_mat
        if not np.isfinite(gram).all():
            return None
        try:
            inv_low = _lower_inverse(np.linalg.cholesky(gram))
            low_scale, high_scale = _GRAM_SCALE
            if (low_scale <= gram.diagonal().max() <= high_scale
                    and np.linalg.norm(gram) * np.linalg.norm(inv_low) ** 2 <= _GRAM_COND_MAX / 2):
                return inv_low
            eig = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError:
            return None
        if 0.0 < eig[0] and eig[-1] <= _GRAM_COND_MAX * eig[0]:
            return inv_low
    return None


def _solve(a_mat: np.ndarray, b_vec: np.ndarray, inv_low: np.ndarray | None) -> np.ndarray:
    """Least-squares coefficients of a_mat @ x ~ b_vec, given
    `inv_low = _gram_factor(a_mat)`.

    The normal equations, as the two matrix-vector products
    inv_low.T @ (inv_low @ (a_mat.T @ b_vec)), when there is an inverse factor
    and a_mat.T @ b_vec is finite; otherwise LAPACK gelsd (np.linalg.lstsq),
    which also handles rank-deficient and underdetermined matrices.  Each
    right-hand side is solved on its own, so its coefficients have the bits
    of a one-target solve.  Neither path warns."""
    with np.errstate(all="ignore"):
        rhs = a_mat.T @ b_vec
        if inv_low is not None and np.isfinite(rhs).all():
            return inv_low.T @ (inv_low @ rhs)
    return np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]


def _fit_many(
    targets: list[Expr],
    dictionary: _Dictionary,
    *,
    seed: int,
    on_shell: DelayHamiltonian | None,
) -> list[Expr | None]:
    """Least-squares fit of each target = sum_i c_i * image_i, re-verified
    exactly, with the design evaluated, factored and inverted once.

    Every target samples the same jets: random ones off-shell, `on_shell_jets`
    (second-order slots included) on-shell.  So the targets share the
    sample, the design matrix, its finite check, the inverse factor of its Gram
    matrix and the 120-jet verification block.  Each target is then solved,
    gated, rounded and verified on its own, so its result is the one of its
    own fit.  A design has max(400, 3 * columns) rows; an empty call samples
    nothing."""
    if not targets:
        return []
    columns, images = dictionary

    def sample(at_seed: int, count: int) -> np.ndarray:
        if on_shell is None:
            return ex.random_jets(at_seed, count)
        return on_shell_jets(on_shell, at_seed, count)

    slots = sample(seed, max(400, 3 * len(columns)))
    a_mat = ex.evaluate_many(images, slots).T
    rows_finite = np.isfinite(a_mat).all(axis=1)
    inv_low = _gram_factor(a_mat)
    verify_slots = None
    found: list[Expr | None] = [None] * len(targets)
    for i, target in enumerate(targets):
        b_vec = ex.evaluate_many((target,), slots)[0]
        finite = rows_finite & np.isfinite(b_vec)
        if not finite.all():
            bad = ex.JetPoint.from_slots(slots[:, int(np.argmin(finite))])
            raise ex.EvalError("design-matrix row is not finite", bad)
        coeffs = _solve(a_mat, b_vec, inv_low)
        with np.errstate(all="ignore"):
            rel = np.linalg.norm(a_mat @ coeffs - b_vec) / (1.0 + np.linalg.norm(b_vec))
        if not (rel <= _FIT_TOL):
            continue
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        cleaned: list[tuple[int, object]] = []
        for k, c in enumerate(coeffs):
            if abs(c) < 1e-9 * scale:
                continue
            frac = Fraction(float(c)).limit_denominator(24)
            cleaned.append((k, frac if abs(float(frac) - c) <= 1e-6 * max(1.0, abs(c)) else float(c)))
        candidate = add(*[mul(ex.const(c), columns[k]) for k, c in cleaned])
        residual = sub(target, add(*[mul(ex.const(c), images[k]) for k, c in cleaned]))
        if verify_slots is None:
            verify_slots = sample(seed + 7919, 120)
        if ex.zero_checks((residual,), verify_slots, _VERIFY_TOL)[0].ok:
            found[i] = candidate
    return found


def fit_total_derivative(
    target: Expr, *, seed: int = 0, on_shell: DelayHamiltonian | None = None
) -> Expr | None:
    """Find V in the dictionary span with D(V) = target; None when absent."""
    return _fit_many([target], _v_dictionary(), seed=seed, on_shell=on_shell)[0]


def fit_shift_difference(
    target: Expr, *, seed: int = 0, on_shell: DelayHamiltonian | None = None
) -> Expr | None:
    """Find W in the dictionary span with (S+ - 1)W = target; None when absent."""
    return _fit_many([target], _w_dictionary(), seed=seed, on_shell=on_shell)[0]


# What a supplied potential may not read, and why: classification takes D(V)
# and S+ W, which must stay on the jet of the three points and of derivatives
# up to order two.
_POTENTIAL_LIMITS = {
    "V": (lambda s: s.order == 2, "its total derivative would need third derivatives"),
    "W": (lambda s: s.shift == 1, "its forward shift would leave the three points"),
}


def check_potential(key: str, e: Expr) -> Expr:
    """`e` as the supplied potential `key`: "V" may not read a second
    derivative, and "W" may not read a forward-shifted coordinate.
    ValueError names the coordinates that break the rule."""
    reads, why = _POTENTIAL_LIMITS[key]
    bad = sorted(s.name for s in symbols_of(e) if reads(s))
    if bad:
        raise ValueError(f"{key} must not contain: {', '.join(bad)} ({why})")
    return e


def _classify_many(
    h: DelayHamiltonian,
    cases: list[tuple[Generator, Expr | None, Expr | None]],
    *,
    samples: int,
    tol: float,
    seed: int,
) -> list[InvarianceResidual]:
    """`classify_invariance` of every (g, v, w) case; the cases left to the
    V fit share its design."""
    results = []
    unresolved = []
    for g, v, w in cases:
        om = invariance_residual(h, g)
        result = InvarianceResidual(om, Classification.NONE)
        if is_zero(om, samples=samples, tol=tol, seed=seed).ok:
            result = InvarianceResidual(om, Classification.VARIATIONAL)
        elif v is not None or w is not None:
            vv = as_expr(v if v is not None else 0)
            ww = as_expr(w if w is not None else 0)
            residual = sub(om, add(D(vv), sub(ww, shift(ww, +1))))
            if is_zero(residual, samples=samples, tol=tol, seed=seed).ok:
                result = InvarianceResidual(om, Classification.DIVERGENCE, vv, ww)
        if result.classification is Classification.NONE:
            unresolved.append(len(results))
        results.append(result)
    if unresolved:
        targets = [results[i].omega for i in unresolved]
        for i, fitted in zip(unresolved, _fit_many(targets, _v_dictionary(), seed=seed + 1, on_shell=None)):
            if fitted is not None:
                results[i] = InvarianceResidual(results[i].omega, Classification.DIVERGENCE, fitted, ex.ZERO)
    return results


def classify_invariance(
    h: DelayHamiltonian,
    g: Generator,
    v: Expr | None = None,
    w: Expr | None = None,
    *,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> InvarianceResidual:
    """Variational (residual vanishes), divergence (residual is D(V)+(1-S+)W),
    or none.  User-supplied V/W are checked as given; otherwise V is searched
    automatically over the monomial dictionary (off-shell, so a reported
    divergence form is an identity, not merely an on-shell coincidence)."""
    return _classify_many(h, [(g, v, w)], samples=samples, tol=tol, seed=seed)[0]


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------


def _splitting_target(parts: NoetherQuantities, kind: str, v_div: Expr, w_div: Expr) -> Expr:
    """The image of the fitted part of the `kind` splitting's potential.  On
    shell D(C - V_div) = (S+ - 1)(P - W_div), so I = C - V is conserved when
    (S+ - 1)(P - W_div) = D(V - V_div), and J = P - W when D(C - V_div) = (S+ - 1)(W - W_div)."""
    if kind == "differential":
        return _shift_difference(sub(parts.p_quantity, w_div))
    return D(sub(parts.c, v_div))


def _integral(
    parts: NoetherQuantities, kind: str, potential: Expr, v_div: Expr | None = None,
    w_div: Expr | None = None, ham: DelayHamiltonian | None = None,
    samples: int = 80, tol: float = 1e-8, seed: int = 0,
) -> Expr:
    """C - V (differential) or P - W (difference), stored as `parts.<kind>_integral`;
    with `ham`, once the splitting's premise holds on sampled on-shell jets."""
    potential = as_expr(potential)
    differential = kind == "differential"
    if ham is not None:
        v_div, w_div = (as_expr(x if x is not None else 0) for x in (v_div, w_div))
        if differential:
            image = D(sub(potential, v_div))
            failure = "difference part does not telescope into the supplied total derivative"
        else:
            image = _shift_difference(sub(potential, w_div))
            failure = "total-derivative part is not the supplied shift difference"
        check = ex.zero_checks((sub(_splitting_target(parts, kind, v_div, w_div), image),),
                               on_shell_jets(ham, seed, samples), tol)[0]
        if not check.ok:
            raise IntegralVerificationError(failure, check.worst)
    integral = sub(parts.c if differential else parts.p_quantity, potential)
    setattr(parts, f"{kind}_integral", integral)
    return integral


def differential_integral(
    parts: NoetherQuantities,
    v: Expr,
    *,
    v_div: Expr | None = None,
    w_div: Expr | None = None,
    ham: DelayHamiltonian | None = None,
    samples: int = 80,
    tol: float = 1e-8,
    seed: int = 0,
) -> Expr:
    """I = C - V, where V collects the divergence part V_div and the
    telescoped difference part.  With `ham` given, its premise
    (S+ - 1)(P - W_div) = D(V - V_div) must hold on sampled on-shell jets."""
    return _integral(parts, "differential", v, v_div, w_div, ham, samples, tol, seed)


def difference_integral(
    parts: NoetherQuantities,
    w: Expr,
    *,
    v_div: Expr | None = None,
    w_div: Expr | None = None,
    ham: DelayHamiltonian | None = None,
    samples: int = 80,
    tol: float = 1e-8,
    seed: int = 0,
) -> Expr:
    """J = P - W, the two-point conserved quantity of the opposite splitting.
    With `ham` given, its premise D(C - V_div) = (S+ - 1)(W - W_div) must
    hold on sampled on-shell jets."""
    return _integral(parts, "difference", w, v_div, w_div, ham, samples, tol, seed)


# ---------------------------------------------------------------------------
# variational-derivative identities for the invariance residual
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    ok: bool
    checks: dict[str, ZeroCheck]

    def __bool__(self) -> bool:
        return self.ok


def variational_identity_residuals(h: DelayHamiltonian, g: Generator) -> dict[str, Expr]:
    """Residuals (left minus right side) of the off-shell identities tying
    variations of the invariance residual to the prolonged generator acting
    on the variational residuals, keyed "p", "q", "t" and "orbit".

    They vanish for generators whose time coefficient depends on t alone
    (affine plus delay-periodic).
    """
    density = action_density(h)
    rp = variational_p(density)
    rq = variational_q(density)
    rt = variational_t(density)
    om = invariance_residual(h, g)
    xid = D(g.xi)

    lhs_p = variational_p(om)
    rhs_p = add(
        g.apply(rp),
        mul(partial(g.eta, "p"), rq),
        mul(add(partial(g.nu, "p"), xid), rp),
    )
    lhs_q = variational_q(om)
    rhs_q = add(
        g.apply(rq),
        mul(add(partial(g.eta, "q"), xid), rq),
        mul(partial(g.nu, "q"), rp),
    )
    lhs_t = variational_t(om)
    rhs_t = add(
        g.apply(rt),
        mul(2, xid, rt),
        mul(partial(g.eta, "t"), rq),
        mul(partial(g.nu, "t"), rp),
    )
    orbit = add(mul(g.xi, rt), mul(g.eta, rq), mul(g.nu, rp))
    lhs_orbit = add(mul(g.xi, lhs_t), mul(g.eta, lhs_q), mul(g.nu, lhs_p))
    rhs_orbit = add(g.apply(orbit), mul(xid, orbit))
    return {
        "p": sub(lhs_p, rhs_p),
        "q": sub(lhs_q, rhs_q),
        "t": sub(lhs_t, rhs_t),
        "orbit": sub(lhs_orbit, rhs_orbit),
    }


def variational_derivative_identities(
    h: DelayHamiltonian,
    g: Generator,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> IdentityReport:
    """Sampled checks that the `variational_identity_residuals` vanish."""
    checks = {
        key: is_zero(residual, samples=samples, tol=tol, seed=seed)
        for key, residual in variational_identity_residuals(h, g).items()
    }
    return IdentityReport(all(c.ok for c in checks.values()), checks)


# ---------------------------------------------------------------------------
# drift monitoring along trajectories
# ---------------------------------------------------------------------------


@dataclass
class DriftReport:
    kind: str
    max_drift: float
    t_at_max: float
    reference: float
    n_points: int


def _values_along(e: Expr, traj, lo: int, hi: int) -> np.ndarray:
    """Values of `e` at grid nodes lo <= i < hi; non-finite ones are a `DriftError`."""
    values = ex.evaluate_many((e,), traj.slots(lo, hi))[0]
    finite = np.isfinite(values)
    if not finite.all():
        bad = lo + int(np.argmin(finite))
        raise DriftError(f"{to_source(e)} is not finite at t={traj.t[bad]}")
    return values


def drift(integral: Expr, traj, kind: str = "differential") -> DriftReport:
    """Deviation of a candidate first integral along a trajectory.

    Differential integrals are compared against their value at the first
    admissible node; difference integrals are compared against their own value
    one delay later.
    """
    if kind not in ("differential", "difference"):
        raise ValueError("kind must be 'differential' or 'difference'")
    syms = symbols_of(integral)
    if any(s.order >= 2 for s in syms):
        raise DriftError("integrals may involve first derivatives only")
    if kind == "difference" and any(s.shift > 0 for s in syms):
        raise DriftError("a difference integral must not reference the forward point")
    needs_p = any(s.base == "p" for s in syms)
    if needs_p and traj.p is None:
        raise DriftError("trajectory carries no momentum samples")
    needs_rate = any(s.order == 1 for s in syms)
    if needs_rate and traj.qd is None:
        raise DriftError("trajectory carries no derivative samples")
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    if m < 2 * n:
        raise DriftError("trajectory is shorter than the span of the integral")
    # nodes n..m-n are admissible; a difference integral also needs them one delay later
    count = m - 2 * n + 1
    if kind == "differential":
        values = _values_along(integral, traj, n, n + count)
        deviation = np.abs(values - values[0])
    else:
        values = _values_along(integral, traj, n, m + 1)
        deviation = np.abs(values[n:] - values[:count])
    k = int(np.argmax(deviation))
    return DriftReport(kind, float(deviation[k]), traj.t[n + k], values[0], count)


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------


@dataclass
class GeneratorReport:
    name: str
    invariance: InvarianceResidual
    parts: NoetherQuantities
    identity: ZeroCheck
    notes: list[str] = field(default_factory=list)
    drift_differential: DriftReport | None = None
    drift_difference: DriftReport | None = None
    xi_admissible: bool = False


_Case = tuple[str, Generator, Expr | None, Expr | None]


def analyze_generator(
    h: DelayHamiltonian,
    g: Generator,
    name: str = "X",
    *,
    v: Expr | None = None,
    w: Expr | None = None,
    traj=None,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> GeneratorReport:
    """Full treatment of one generator: identity check, classification,
    conserved-quantity derivation, optional drift monitoring and the
    admissibility of its time coefficient (`model.xi_admissible`)."""
    return _analyze_many(h, [(name, g, v, w)], traj=traj, samples=samples, tol=tol, seed=seed)[0]


def analyze_generators(
    h: DelayHamiltonian,
    generators: list[_Case],
    *,
    traj=None,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> list[GeneratorReport]:
    """`analyze_generator` of every `(name, g, v, w)`, stage by stage.

    Every generator fits with the same seed, so their fits sample the same
    jets: each stage runs across all generators before the next starts, and
    the fits of one stage share their designs (`_fit_many`).  The reports
    equal the per-generator ones.  When a stage raises, the generators are
    rerun one at a time in order, so the error is the one that the first
    failing generator raises on its own."""
    try:
        return _analyze_many(h, generators, traj=traj, samples=samples, tol=tol, seed=seed)
    except Exception:
        if len(generators) > 1:
            for name, g, v, w in generators:
                analyze_generator(h, g, name, v=v, w=w, traj=traj, samples=samples, tol=tol, seed=seed)
        raise


def _analyze_many(
    h: DelayHamiltonian,
    generators: list[_Case],
    *,
    traj,
    samples: int,
    tol: float,
    seed: int,
) -> list[GeneratorReport]:
    """The stages of `analyze_generators`, without its rerun on failure."""
    identities = [
        verify_hamiltonian_identity(h, g, samples=samples, tol=tol, seed=seed)
        for _, g, _, _ in generators
    ]
    classes = _classify_many(h, [(g, v, w) for _, g, v, w in generators], samples=samples, tol=tol, seed=seed)
    reports = [
        GeneratorReport(name, inv, noether_parts(h, g), identity)
        for (name, g, _, _), inv, identity in zip(generators, classes, identities)
    ]

    # report index -> its V ("v"), its W ("w") and the target of each kind of
    # fit, for every generator with a conserved quantity to derive
    active: dict[int, dict[str, Expr]] = {}
    for i, ((_, g, _, _), report) in enumerate(zip(generators, reports)):
        inv = report.invariance
        if inv.classification is Classification.NONE:
            report.notes.append("not a variational or divergence invariance; no conserved quantity")
            continue
        eta_zero, nu_zero, xi_zero = (
            c.ok for c in ex.zero_checks((g.eta, g.nu, g.xi), ex.random_jets(seed, 10), 1e-12)
        )
        if eta_zero and nu_zero and not xi_zero:
            report.notes.append(
                "purely temporal generator: the canonical pair alone yields no "
                "conserved quantity; a different determined system would be needed"
            )
            continue
        v_div = inv.v if inv.v is not None else ex.ZERO
        w_div = inv.w if inv.w is not None else ex.ZERO
        active[i] = {"v": v_div, "w": w_div}
        for kind in ("differential", "difference"):
            active[i][kind] = _splitting_target(report.parts, kind, v_div, w_div)

    # (kind, dictionary, its known divergence, fit seed and zero-check seed
    # offsets, note when no fit is found)
    splittings = (
        ("differential", _v_dictionary(), "v", 11, 3,
         "difference part not convertible: no differential integral found"),
        ("difference", _w_dictionary(), "w", 13, 5,
         "derivative part not convertible: no difference integral found"),
    )
    for kind, dictionary, known, fit_seed, zero_seed, missing in splittings:
        targets = {i: split[kind] for i, split in active.items()}
        extras = dict(zip(targets, _fit_many(
            list(targets.values()), dictionary, seed=seed + fit_seed, on_shell=None
        )))
        retry = [i for i, extra in extras.items() if extra is None]
        if retry and h.solvable:
            extras.update(zip(retry, _fit_many(
                [targets[i] for i in retry], dictionary, seed=seed + fit_seed, on_shell=h
            )))
        for i, extra in extras.items():
            report = reports[i]
            if extra is None:
                report.notes.append(missing)
                continue
            integral = _integral(report.parts, kind, add(active[i][known], extra))
            if is_zero(integral, samples=40, tol=1e-10, seed=seed + zero_seed).ok:
                # the fit absorbed everything through the equations of motion
                setattr(report.parts, f"{kind}_integral", None)
                report.notes.append(f"{kind} conversion yields only the zero quantity")

    for report, (_, g, _, _) in zip(reports, generators):
        if traj is not None:
            for kind in ("differential", "difference"):
                integral = getattr(report.parts, f"{kind}_integral")
                if integral is not None:
                    setattr(report, f"drift_{kind}", drift(integral, traj, kind=kind))
        report.xi_admissible = xi_admissible(g, seed=seed)
    return reports
