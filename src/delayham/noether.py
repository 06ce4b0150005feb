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
dictionary and its images are built once per process, and each design matrix
is one kernel call over them.
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
    is_zero_on,
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
    on_shell_jets,
    variational_p,
    variational_q,
    variational_residuals,
    variational_t,
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
        mul(
            g.xi,
            add(
                mul(a2, sub(mul(ex.p, ex.qd), mul(ex.pm, ex.qdm))),
                mul(a4, sub(mul(ex.pp, ex.qd), mul(ex.p, ex.qdm))),
                h.h,
            ),
        ),
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


_Dictionary = tuple[tuple[Expr, ...], tuple[Expr, ...], bool]


def _dictionary(columns: list[Expr], image: Callable[[Expr], Expr]) -> _Dictionary:
    """The columns, their images under the fitted operator, and whether an
    image needs second-derivative slots."""
    images = tuple(image(c) for c in columns)
    return tuple(columns), images, any(s.order >= 2 for e in images for s in symbols_of(e))


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
    return _dictionary(columns, lambda c: sub(shift(c, +1), c))


# Largest cond(A^T A) at which the normal equations are solved.  Their forward
# error grows like cond(A^T A) * eps (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 20): at most about 1e-8 here, and about
# 1e-13 on the README fits, whose Gram matrices sit at 1e3-2e4.  A fit is
# proven by its verification, not by the solver.
_GRAM_COND_MAX = 1e8


def _solve(a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of a_mat @ x ~ b_vec.

    A Cholesky solve of the normal equations when the Gram matrix is finite,
    its exact extreme eigenvalues put its condition number at or below
    _GRAM_COND_MAX, and the factorisation succeeds; otherwise LAPACK gelsd
    (np.linalg.lstsq), which also handles rank-deficient and underdetermined
    matrices.  Neither path warns."""
    with np.errstate(all="ignore"):
        gram = a_mat.T @ a_mat
        rhs = a_mat.T @ b_vec
        if np.isfinite(gram).all() and np.isfinite(rhs).all():
            try:
                eig = np.linalg.eigvalsh(gram)
                if 0.0 < eig[0] and eig[-1] <= _GRAM_COND_MAX * eig[0]:
                    low = np.linalg.cholesky(gram)
                    return np.linalg.solve(low.T, np.linalg.solve(low, rhs))
            except np.linalg.LinAlgError:
                pass
    return np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]


def _fit(
    target: Expr,
    dictionary: _Dictionary,
    *,
    seed: int,
    on_shell: DelayHamiltonian | None,
    samples: int | None,
    fit_tol: float,
    verify_tol: float,
) -> Expr | None:
    """Least-squares fit of target = sum_i c_i * image_i, re-verified exactly."""
    columns, images, second = dictionary
    n = samples or max(400, 3 * len(columns))
    need_second = second or any(s.order >= 2 for s in symbols_of(target))

    def sample(at_seed: int, count: int) -> np.ndarray:
        if on_shell is None:
            return ex.random_jets(at_seed, count)
        return on_shell_jets(on_shell, at_seed, count, second_order=need_second)

    slots = sample(seed, n)
    a_mat = ex.evaluate_many(images, slots).T
    b_vec = ex.evaluate_array(target, slots)
    finite = np.isfinite(a_mat).all(axis=1) & np.isfinite(b_vec)
    if not finite.all():
        bad = ex.JetPoint.from_slots(slots[:, int(np.argmin(finite))])
        raise ex.EvalError("design-matrix row is not finite", bad)
    coeffs = _solve(a_mat, b_vec)
    with np.errstate(all="ignore"):
        rel = np.linalg.norm(a_mat @ coeffs - b_vec) / (1.0 + np.linalg.norm(b_vec))
    if not (rel <= fit_tol):
        return None
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    cleaned: list[tuple[int, object]] = []
    for i, c in enumerate(coeffs):
        if abs(c) < 1e-9 * scale:
            continue
        frac = Fraction(float(c)).limit_denominator(24)
        cleaned.append((i, frac if abs(float(frac) - c) <= 1e-6 * max(1.0, abs(c)) else float(c)))
    candidate = add(*[mul(ex.const(c), columns[i]) for i, c in cleaned])
    residual = sub(target, add(*[mul(ex.const(c), images[i]) for i, c in cleaned]))
    if on_shell is None:
        check = is_zero(residual, samples=120, tol=verify_tol, seed=seed + 7919)
    else:
        check = is_zero_on(residual, sample(seed + 7919, 120), tol=verify_tol)
    return candidate if check.ok else None


def fit_total_derivative(
    target: Expr,
    *,
    seed: int = 0,
    on_shell: DelayHamiltonian | None = None,
    samples: int | None = None,
    fit_tol: float = 1e-6,
    verify_tol: float = 1e-8,
) -> Expr | None:
    """Find V in the dictionary span with D(V) = target; None when absent."""
    return _fit(
        target, _v_dictionary(),
        seed=seed, on_shell=on_shell, samples=samples,
        fit_tol=fit_tol, verify_tol=verify_tol,
    )


def fit_shift_difference(
    target: Expr,
    *,
    seed: int = 0,
    on_shell: DelayHamiltonian | None = None,
    samples: int | None = None,
    fit_tol: float = 1e-6,
    verify_tol: float = 1e-8,
) -> Expr | None:
    """Find W in the dictionary span with (S+ - 1)W = target; None when absent."""
    return _fit(
        target, _w_dictionary(),
        seed=seed, on_shell=on_shell, samples=samples,
        fit_tol=fit_tol, verify_tol=verify_tol,
    )


def classify_invariance(
    h: DelayHamiltonian,
    g: Generator,
    v: Expr | None = None,
    w: Expr | None = None,
    *,
    fit: bool = True,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> InvarianceResidual:
    """Variational (residual vanishes), divergence (residual is D(V)+(1-S+)W),
    or none.  User-supplied V/W are checked as given; otherwise V is searched
    automatically over the monomial dictionary (off-shell, so a reported
    divergence form is an identity, not merely an on-shell coincidence)."""
    om = invariance_residual(h, g)
    if is_zero(om, samples=samples, tol=tol, seed=seed).ok:
        return InvarianceResidual(om, Classification.VARIATIONAL)
    if v is not None or w is not None:
        vv = as_expr(v if v is not None else 0)
        ww = as_expr(w if w is not None else 0)
        residual = sub(om, add(D(vv), sub(ww, shift(ww, +1))))
        if is_zero(residual, samples=samples, tol=tol, seed=seed).ok:
            return InvarianceResidual(om, Classification.DIVERGENCE, vv, ww)
    if fit:
        fitted = fit_total_derivative(om, seed=seed + 1)
        if fitted is not None:
            return InvarianceResidual(om, Classification.DIVERGENCE, fitted, ex.ZERO)
    return InvarianceResidual(om, Classification.NONE)


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------


def _verified_integral(
    parts: NoetherQuantities, kind: str, integral: Expr, residual: Expr | None,
    ham: DelayHamiltonian | None, samples: int, tol: float, seed: int, failure: str,
) -> Expr:
    """Store `integral` as `parts.<kind>_integral` once `residual`, the premise
    it rests on, vanishes on sampled on-shell jets of `ham` (unchecked
    without `ham`)."""
    if ham is not None:
        need_second = any(s.order >= 2 for s in symbols_of(residual))
        check = is_zero_on(residual, on_shell_jets(ham, seed, samples, second_order=need_second), tol=tol)
        if not check.ok:
            raise IntegralVerificationError(failure, check.worst)
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
    """I = C - V, where V collects the divergence part and the telescoped
    difference part.  With `ham` given, the telescoping premise is re-checked
    on sampled on-shell jets before the integral is returned."""
    v = as_expr(v)
    residual = None
    if ham is not None:
        p_eff = sub(parts.p_quantity, as_expr(w_div if w_div is not None else 0))
        v_extra = sub(v, as_expr(v_div if v_div is not None else 0))
        residual = sub(sub(shift(p_eff, +1), p_eff), D(v_extra))
    return _verified_integral(
        parts, "differential", sub(parts.c, v), residual, ham, samples, tol, seed,
        "difference part does not telescope into the supplied total derivative",
    )


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
    """J = P - W, the two-point conserved quantity of the opposite splitting."""
    w = as_expr(w)
    residual = None
    if ham is not None:
        c_eff = sub(parts.c, as_expr(v_div if v_div is not None else 0))
        w_extra = sub(w, as_expr(w_div if w_div is not None else 0))
        residual = sub(D(c_eff), sub(shift(w_extra, +1), w_extra))
    return _verified_integral(
        parts, "difference", sub(parts.p_quantity, w), residual, ham, samples, tol, seed,
        "total-derivative part is not the supplied shift difference",
    )


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
    (affine plus delay-periodic); the variational operators in q and p are
    the three-point extended ones.
    """
    density = action_density(h)
    rp = variational_p(density)
    rq = variational_q(density)
    rt = variational_t(density)
    om = invariance_residual(h, g)
    xid = D(g.xi)

    lhs_p = variational_p(om, extended=True)
    rhs_p = add(
        g.apply(rp),
        mul(partial(g.eta, "p"), rq),
        mul(add(partial(g.nu, "p"), xid), rp),
    )
    lhs_q = variational_q(om, extended=True)
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
    values = ex.evaluate_array(e, traj.slots(lo, hi))
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


def analyze_generator(
    h: DelayHamiltonian,
    g: Generator,
    name: str = "X",
    *,
    v: Expr | None = None,
    w: Expr | None = None,
    traj=None,
    fit: bool = True,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> GeneratorReport:
    """Full treatment of one generator: identity check, classification,
    conserved-quantity derivation, and optional drift monitoring."""
    identity = verify_hamiltonian_identity(h, g, samples=samples, tol=tol, seed=seed)
    inv = classify_invariance(h, g, v, w, fit=fit, samples=samples, tol=tol, seed=seed)
    parts = noether_parts(h, g)
    report = GeneratorReport(name, inv, parts, identity)

    if inv.classification is Classification.NONE:
        report.notes.append("not a variational or divergence invariance; no conserved quantity")
        return report

    eta_zero = is_zero(g.eta, samples=10, tol=1e-12, seed=seed).ok
    nu_zero = is_zero(g.nu, samples=10, tol=1e-12, seed=seed).ok
    xi_zero = is_zero(g.xi, samples=10, tol=1e-12, seed=seed).ok
    if eta_zero and nu_zero and not xi_zero:
        report.notes.append(
            "purely temporal generator: the canonical pair alone yields no "
            "conserved quantity; a different determined system would be needed"
        )
        return report

    v_div = inv.v if inv.v is not None else ex.ZERO
    w_div = inv.w if inv.w is not None else ex.ZERO
    can_shell = h.alphas[0] != 0 and h.alphas[3] != 0

    p_eff = sub(parts.p_quantity, w_div)
    # (kind, fit, its target, integral builder, known divergence, fit seed
    # and zero-check seed offsets, note when no fit is found)
    splittings = (
        ("differential", fit_total_derivative, sub(shift(p_eff, +1), p_eff),
         differential_integral, v_div, 11, 3,
         "difference part not convertible: no differential integral found"),
        ("difference", fit_shift_difference, D(sub(parts.c, v_div)),
         difference_integral, w_div, 13, 5,
         "derivative part not convertible: no difference integral found"),
    )
    for kind, fitter, target, integral_of, known, fit_seed, zero_seed, missing in splittings:
        extra = fitter(target, seed=seed + fit_seed)
        if extra is None and can_shell:
            extra = fitter(target, seed=seed + fit_seed, on_shell=h)
        if extra is None:
            report.notes.append(missing)
            continue
        integral = integral_of(parts, add(known, extra), v_div=v_div, w_div=w_div)
        if is_zero(integral, samples=40, tol=1e-10, seed=seed + zero_seed).ok:
            # the fit absorbed everything through the equations of motion
            setattr(parts, f"{kind}_integral", None)
            report.notes.append(f"{kind} conversion yields only the zero quantity")

    if traj is not None:
        for kind in ("differential", "difference"):
            integral = getattr(parts, f"{kind}_integral")
            if integral is not None:
                setattr(report, f"drift_{kind}", drift(integral, traj, kind=kind))
    return report
