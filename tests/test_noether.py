import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayham import expr as E
from delayham import legendre as L
from delayham import model as M
from delayham import noether as N
from delayham import solver as S

from conftest import (
    assert_same_bits,
    first_exp_overflow,
    identity_models,
    lagrangian_models,
    momentum_substitution,
    observed_orders,
    random_generator,
    random_quadratic_hamiltonian,
)


def _node_slots(traj, i, n):
    """Slot vector of the jet at grid node i, filled one node at a time."""
    slots = [float("nan")] * E.NSLOTS
    slots[E.TAU_INDEX] = traj.tau
    for sh, j in ((-1, i - n), (0, i), (1, i + n)):
        if 0 <= j < len(traj.t):
            slots[E.symbol("t", sh, 0).index] = traj.t[j]
            for base, arr, darr in (("q", traj.q, traj.qd), ("p", traj.p, traj.pd)):
                if arr is not None:
                    slots[E.symbol(base, sh, 0).index] = arr[j]
                    if darr is not None:
                        slots[E.symbol(base, sh, 1).index] = darr[j]
    return slots


def z(e, seed=0, samples=50, tol=1e-10):
    return E.is_zero(e, samples=samples, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# invariance residual
# ---------------------------------------------------------------------------


def test_residual_sin_generator_is_divergence(oscillator, oscillator_generators):
    _, ham = oscillator
    om = N.invariance_residual(ham, oscillator_generators["sin"])
    target = E.total_derivative(E.parse("cos(tm)*q + cos(t)*qm"))
    assert z(E.sub(om, target)).ok


def test_residual_zero_generator(oscillator):
    _, ham = oscillator
    g = M.Generator(E.ZERO, E.ZERO, E.ZERO)
    assert N.invariance_residual(ham, g) is E.const(0)


def test_residual_scaling_generator(oscillator, oscillator_generators):
    _, ham = oscillator
    om = N.invariance_residual(ham, oscillator_generators["scale"])
    assert z(E.sub(om, E.parse("2*(pm*qd + p*qdm - p*pm - q*qm)"))).ok
    # twice the action density
    assert z(E.sub(om, E.mul(2, M.action_density(ham)))).ok


def test_residual_rotation_generator(oscillator, oscillator_generators):
    # both construction routes give D(p*pm - q*qm); the value differs from a
    # naive -H potential in the sign of the momentum part
    _, ham = oscillator
    om = N.invariance_residual(ham, oscillator_generators["rotate"])
    assert z(E.sub(om, E.total_derivative(E.parse("p*pm - q*qm")))).ok
    assert not z(E.sub(om, E.total_derivative(E.parse("-(p*pm + q*qm)")))).ok


def _invariance_residual_via_action(h, g):
    """The invariance residual built as X(density) + density*D(xi) with the
    prolonged generator: an independent route to `N.invariance_residual`."""
    density = M.action_density(h)
    return E.add(g.apply(density), E.mul(density, E.total_derivative(g.xi)))


def test_residual_agrees_with_prolonged_action():
    for k in range(6):
        rng = np.random.default_rng(5000 + k)
        ham = random_quadratic_hamiltonian(rng)
        gen = random_generator(rng)
        gap = E.sub(
            N.invariance_residual(ham, gen), _invariance_residual_via_action(ham, gen)
        )
        assert z(gap, seed=k).ok


def test_residual_linear_in_generator(oscillator, oscillator_generators):
    _, ham = oscillator
    g1 = oscillator_generators["sin"]
    g2 = oscillator_generators["scale"]
    g_sum = M.Generator(
        E.add(g1.xi, g2.xi), E.add(g1.eta, g2.eta), E.add(g1.nu, g2.nu)
    )
    gap = E.sub(
        N.invariance_residual(ham, g_sum),
        E.add(N.invariance_residual(ham, g1), N.invariance_residual(ham, g2)),
    )
    assert z(gap).ok


# ---------------------------------------------------------------------------
# conserved-quantity parts
# ---------------------------------------------------------------------------


def test_parts_sin_generator(oscillator, oscillator_generators):
    _, ham = oscillator
    parts = N.noether_parts(ham, oscillator_generators["sin"])
    assert z(E.sub(parts.c, E.parse("sin(t)*(pp + pm)"))).ok
    assert z(E.sub(parts.p_quantity, E.parse("cos(tm)*qd - sin(tm)*q"))).ok


def test_parts_zero_generator(oscillator):
    _, ham = oscillator
    parts = N.noether_parts(ham, M.Generator(E.ZERO, E.ZERO, E.ZERO))
    assert parts.c is E.const(0)
    assert parts.p_quantity is E.const(0)


def test_parts_rotation_generator(oscillator, oscillator_generators):
    _, ham = oscillator
    parts = N.noether_parts(ham, oscillator_generators["rotate"])
    assert z(E.sub(parts.c, E.parse("p*(pp + pm)"))).ok
    assert z(E.sub(parts.p_quantity, E.parse("p*pdm - qm*qd - q*pm + qm*p"))).ok


# ---------------------------------------------------------------------------
# the decomposition identity
# ---------------------------------------------------------------------------


def test_identity_for_example_generators(oscillator, oscillator_generators):
    _, ham = oscillator
    for name in ("sin", "cos", "scale", "rotate"):
        chk = N.verify_hamiltonian_identity(ham, oscillator_generators[name], 100, 1e-9, 0)
        assert chk.ok, name


def test_identity_for_random_systems():
    for k in range(10):
        rng = np.random.default_rng(6000 + k)
        ham = random_quadratic_hamiltonian(rng)
        gen = random_generator(rng)
        assert N.verify_hamiltonian_identity(ham, gen, 100, 1e-9, k).ok


def test_identity_mutation_control(oscillator, oscillator_generators):
    # dropping one term of C must break the identity with a witness
    _, ham = oscillator
    g = oscillator_generators["sin"]
    rp, rq, rt = M.variational_residuals(ham)
    parts = N.noether_parts(ham, g)
    corrupted = E.sub(parts.c, E.mul(E.sin(E.t), E.pm))
    decomposition = E.add(
        E.mul(g.xi, rt), E.mul(g.eta, rq), E.mul(g.nu, rp),
        E.total_derivative(corrupted),
        parts.p_quantity, E.neg(E.shift(parts.p_quantity, +1)),
    )
    chk = E.is_zero(E.sub(N.invariance_residual(ham, g), decomposition), 50, 1e-9, 0)
    assert not chk.ok
    assert chk.witness is not None


def _check_identity_residuals(ham, generators):
    """The five residuals `check-identity` checks for each generator: the
    Noether decomposition and the four variational identities."""
    residuals = []
    for g in generators:
        residuals.append(N.hamiltonian_identity_residual(ham, g))
        residuals += N.variational_identity_residuals(ham, g).values()
    return residuals


def _assert_all_vanish(residuals, seed):
    checks = E.zero_checks(residuals, E.random_jets(seed, 100), 1e-9)
    assert [k for k, c in enumerate(checks) if not c.ok] == [], [c.worst for c in checks]


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(identity_models(3), st.integers(0, 2**32 - 1))
def test_the_15_checks_pass_on_every_drawn_hamiltonian(model, seed):
    ham, generators = model
    residuals = _check_identity_residuals(ham, generators)
    assert len(residuals) == 15
    _assert_all_vanish(residuals, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(lagrangian_models(3), st.integers(0, 2**32 - 1))
def test_the_15_checks_pass_on_the_hamiltonian_of_every_drawn_lagrangian(model, seed):
    lag, res, generators = model
    ham = res.hamiltonian
    # the action density under the momentum map is the Lagrangian: the
    # quadratic form carried across, with both of its copies in agreement
    density = E.substitute(M.action_density(ham), momentum_substitution(res.momentum_map[0]))
    assert E.is_zero(E.sub(density, lag.expr()), samples=40, tol=1e-9, seed=seed).ok
    _assert_all_vanish(_check_identity_residuals(ham, generators), seed)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_of_oscillator_generators(oscillator, oscillator_generators):
    _, ham = oscillator
    expected = {
        "sin": N.Classification.DIVERGENCE,
        "cos": N.Classification.DIVERGENCE,
        "time": N.Classification.VARIATIONAL,
        "scale": N.Classification.NONE,
        "rotate": N.Classification.DIVERGENCE,
    }
    for name, cls in expected.items():
        inv = N.classify_invariance(ham, oscillator_generators[name], seed=3)
        assert inv.classification is cls, name
        if cls is N.Classification.DIVERGENCE:
            gap = E.sub(inv.omega, E.total_derivative(inv.v))
            assert z(gap).ok


def test_classification_accepts_user_supplied_potential(oscillator, oscillator_generators):
    _, ham = oscillator
    inv = N.classify_invariance(ham, oscillator_generators["sin"], v=E.parse("cos(tm)*q + cos(t)*qm"))
    assert inv.classification is N.Classification.DIVERGENCE
    assert inv.v is E.parse("cos(tm)*q + cos(t)*qm")


def test_classification_rejects_wrong_user_potential(oscillator, oscillator_generators):
    _, ham = oscillator
    # a wrong supplied V is not trusted: the reported V is the fitted one
    inv = N.classify_invariance(ham, oscillator_generators["sin"], v=E.parse("q*qm"))
    assert inv.classification is N.Classification.DIVERGENCE
    assert inv.v is E.parse("q*cos(tm) + qm*cos(t)")


def test_classification_negative_weights_control():
    # same Hamiltonian, incompatible pairing weights: the scaling generator
    # produces twice the action density, which is no divergence
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (0, 0, 1, 0))
    gen = M.Generator(E.ZERO, E.q, E.p)
    inv = N.classify_invariance(ham, gen, seed=5)
    assert inv.classification is N.Classification.NONE
    assert z(E.sub(inv.omega, E.mul(2, M.action_density(ham)))).ok
    assert z(E.sub(inv.omega, E.parse("2*(p*qd - p*pm - q*qm)"))).ok


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------


def test_differential_integral_sin(oscillator, oscillator_generators):
    _, ham = oscillator
    g = oscillator_generators["sin"]
    inv = N.classify_invariance(ham, g, seed=3)
    parts = N.noether_parts(ham, g)
    v_total = E.add(inv.v, E.parse("cos(t)*qp - cos(tm)*q"))
    integral = N.differential_integral(parts, v_total, v_div=inv.v, ham=ham)
    assert E.is_zero(
        E.sub(integral, E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)")), 50, 1e-9, 7
    ).ok


def test_differential_integral_verifies_premise(oscillator, oscillator_generators):
    _, ham = oscillator
    g = oscillator_generators["sin"]
    parts = N.noether_parts(ham, g)
    with pytest.raises(N.IntegralVerificationError):
        N.differential_integral(parts, E.parse("q*p"), ham=ham)
    # a premise that fails on 80 samples is never verified on none
    scale = N.noether_parts(ham, M.Generator(E.ZERO, E.q, E.p))
    for integral in (N.differential_integral, N.difference_integral):
        with pytest.raises(N.IntegralVerificationError):
            integral(scale, E.ZERO, ham=ham, samples=80)
        for samples in (0, -5):
            with pytest.raises(ValueError):
                integral(scale, E.ZERO, ham=ham, samples=samples)


def test_difference_integral_trivial_splitting(oscillator):
    # eta = xi = 0 makes C vanish identically, so W = 0 works and J = P
    _, ham = oscillator
    gen = M.Generator(E.ZERO, E.ZERO, E.parse("cos(t)"))
    parts = N.noether_parts(ham, gen)
    assert parts.c is E.const(0)
    integral = N.difference_integral(parts, E.ZERO, ham=ham)
    assert integral is parts.p_quantity


def test_difference_integral_toy_fit():
    ham = M.DelayHamiltonian(E.parse("p*pm"), (1, 0, 0, 1))
    gen = M.Generator(E.ZERO, E.ONE, E.ZERO)
    parts = N.noether_parts(ham, gen)
    assert z(E.sub(parts.c, E.parse("pp + pm"))).ok
    assert parts.p_quantity is E.const(0)
    fitted = N.fit_shift_difference(E.total_derivative(parts.c), seed=1, on_shell=ham)
    assert fitted is not None
    integral = N.difference_integral(parts, fitted, ham=ham)
    assert z(integral, tol=1e-8).ok  # the toy admits only the zero difference integral


def test_rotation_admits_no_nonzero_integral(oscillator, oscillator_generators):
    _, ham = oscillator
    rep = N.analyze_generator(ham, oscillator_generators["rotate"], "rotate", seed=17)
    assert rep.invariance.classification is N.Classification.DIVERGENCE
    assert rep.parts.differential_integral is None
    assert rep.parts.difference_integral is None
    assert any("zero quantity" in note or "not convertible" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# variational derivatives of the invariance residual
# ---------------------------------------------------------------------------


def test_variation_identities_oscillator_scale(oscillator, oscillator_generators):
    _, ham = oscillator
    rep = N.variational_derivative_identities(ham, oscillator_generators["scale"], 60, 1e-9, 3)
    assert rep.ok
    # the scaling generator turns the residual variations into twice the
    # equations themselves, certifying equation invariance
    om = N.invariance_residual(ham, oscillator_generators["scale"])
    density = M.action_density(ham)
    assert z(E.sub(M.variational_p(om), E.mul(2, M.variational_p(density)))).ok
    assert z(E.sub(M.variational_q(om), E.mul(2, M.variational_q(density)))).ok


def test_variation_identities_zero_generator(oscillator):
    _, ham = oscillator
    rep = N.variational_derivative_identities(
        ham, M.Generator(E.ZERO, E.ZERO, E.ZERO), 20, 1e-9, 3
    )
    assert rep.ok


def test_variation_identities_random_affine():
    for k in range(4):
        rng = np.random.default_rng(7000 + k)
        ham = random_quadratic_hamiltonian(rng)
        gen = random_generator(rng, affine_xi=True)
        rep = N.variational_derivative_identities(ham, gen, 60, 1e-9, k)
        assert rep.ok, rep.checks


# ---------------------------------------------------------------------------
# drift monitoring
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oscillator_trajectory(oscillator, sincos_history):
    _, ham = oscillator
    return S.step_hamiltonian(ham, sincos_history, 6.0, 64)


def test_drift_constant_expression(oscillator_trajectory):
    report = N.drift(E.ONE, oscillator_trajectory, "differential")
    assert report.max_drift == 0.0


def test_drift_of_true_integral(oscillator_trajectory):
    integral = E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)")
    report = N.drift(integral, oscillator_trajectory, "differential")
    assert report.max_drift <= 1e-7


def test_drift_negative_control(oscillator_trajectory):
    report = N.drift(E.q, oscillator_trajectory, "differential")
    assert report.max_drift > 0.5


def test_drift_rejects_second_derivatives(oscillator_trajectory):
    with pytest.raises(N.DriftError):
        N.drift(E.qdd, oscillator_trajectory, "differential")


def test_drift_difference_kind_rejects_forward_symbols(oscillator_trajectory):
    with pytest.raises(N.DriftError):
        N.drift(E.qp, oscillator_trajectory, "difference")


@pytest.mark.parametrize(
    "integral, kind, strip, error, message",
    [
        (E.q, "both", (), ValueError, "kind must be 'differential' or 'difference'"),
        (E.p, "differential", ("p",), N.DriftError, "trajectory carries no momentum samples"),
        (E.qd, "difference", ("qd",), N.DriftError, "trajectory carries no derivative samples"),
        (E.q, "differential", ("t",), N.DriftError, "trajectory is shorter than the span of the integral"),
    ],
    ids=["unknown-kind", "no-momenta", "no-rates", "too-short"],
)
def test_drift_faults(oscillator_trajectory, integral, kind, strip, error, message):
    # stripping "t" keeps the first 2 delays of nodes, one node short of the span
    n = oscillator_trajectory.steps_per_delay
    cut = {"p": None, "qd": None, "t": oscillator_trajectory.t[: 2 * n]}
    traj = dataclasses.replace(oscillator_trajectory, **{key: cut[key] for key in strip})
    with pytest.raises(error, match=f"^{message}$"):
        N.drift(integral, traj, kind)


def test_drift_needs_enough_history(oscillator, sincos_history):
    _, ham = oscillator
    traj = S.step_hamiltonian(ham, sincos_history, 1.0, 8)
    integral = E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)")
    report = N.drift(integral, traj, "differential")
    assert report.n_points >= 1


def test_drift_difference_kind(oscillator_trajectory):
    # the sine/cosine history keeps qd = p, so this two-point quantity
    # vanishes along the solution; a bare coordinate does not
    silent = E.mul(E.cos(E.tm), E.sub(E.qd, E.p))
    assert N.drift(silent, oscillator_trajectory, "difference").max_drift <= 1e-7
    loud = N.drift(E.q, oscillator_trajectory, "difference")
    assert loud.max_drift > 0.5


def test_relation_residual_converges_at_solver_order(oscillator, oscillator_generators):
    # on solutions, D(C - V) = (S+ - 1)P.  Evaluated with the symbolic total
    # derivative the residual sits at round-off (the stored samples satisfy
    # the rebased equations exactly), so the convergence statement is probed
    # with an independent high-order finite-difference derivative of C - V.
    _, ham = oscillator
    g = oscillator_generators["sin"]
    inv = N.classify_invariance(ham, g, seed=3)
    parts = N.noether_parts(ham, g)
    relation = E.sub(
        E.total_derivative(E.sub(parts.c, inv.v)),
        E.sub(E.shift(parts.p_quantity, +1), parts.p_quantity),
    )
    cv = E.sub(parts.c, inv.v)
    sp = E.sub(E.shift(parts.p_quantity, +1), parts.p_quantity)
    fn_rel = E.compiled(relation)
    fn_cv = E.compiled(cv)
    fn_sp = E.compiled(sp)
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t) + t/4"))
    worsts_symbolic = []
    worsts_fd = []
    for n in (16, 32, 64):
        traj = S.step_hamiltonian(ham, hist, 5.0, n)
        m = len(traj.t) - 1
        h = traj.h
        knots = set(range(traj.start_index, len(traj.t), traj.steps_per_delay))
        worst_sym = worst_fd = 0.0
        for i in range(n, m - n + 1):
            worst_sym = max(worst_sym, abs(fn_rel(_node_slots(traj, i, n))))
            near_knot = any((i + d) in knots for d in range(-2, 3))
            if i - 2 < n or i + 2 > m - n or near_knot:
                continue
            stencil = [fn_cv(_node_slots(traj, i + d, n)) for d in (-2, -1, 1, 2)]
            d_fd = (-stencil[3] + 8 * stencil[2] - 8 * stencil[1] + stencil[0]) / (12 * h)
            worst_fd = max(worst_fd, abs(d_fd - fn_sp(_node_slots(traj, i, n))))
        worsts_symbolic.append(worst_sym)
        worsts_fd.append(worst_fd)
    assert all(w <= 1e-12 for w in worsts_symbolic), worsts_symbolic
    for order in observed_orders(worsts_fd):
        assert order >= 2.5, worsts_fd


@pytest.mark.parametrize("formulation", ["hamiltonian", "lagrangian"])
def test_trajectory_slots_match_node_slots(oscillator, sincos_history, formulation):
    lag, ham = oscillator
    if formulation == "hamiltonian":
        traj = S.step_hamiltonian(ham, sincos_history, 3.0, 8)
    else:
        traj = S.step_elsgolts(lag, sincos_history, 3.0, 8)
    size = len(traj.t)
    for lo, hi in ((0, size), (8, size - 8), (3, 4), (size - 1, size)):
        slots = traj.slots(lo, hi)
        for i in range(lo, hi):
            assert_same_bits(slots[:, i - lo], _node_slots(traj, i, 8))


def test_differential_integral_checks_second_order_premise_on_shell(oscillator, oscillator_generators):
    # X vanishes on solutions together with D(X), which reads qddp: the
    # premise holds on jets that satisfy the differentiated equations too
    _, ham = oscillator
    g = oscillator_generators["sin"]
    inv = N.classify_invariance(ham, g, seed=3)
    parts = N.noether_parts(ham, g)
    a1, a2, a3, a4 = (float(a) for a in ham.alphas)
    qdp_on_shell = E.div(
        E.sub(M.shifted_pair_partial(ham.h, "p"), E.add(E.mul(a2 + a3, E.qd), E.mul(a4, E.qdm))),
        a1,
    )
    x = E.sub(E.qdp, qdp_on_shell)
    assert any(s.order == 2 for s in E.symbols_of(E.total_derivative(x)))
    v_total = E.add(inv.v, E.parse("cos(t)*qp - cos(tm)*q"), x)
    integral = N.differential_integral(parts, v_total, v_div=inv.v, ham=ham)
    assert parts.differential_integral is integral


def oscillator_models():
    """The README oscillator beta*(qd*qdm - q*qm) transformed with a free
    scale alpha1, so p = r*qd with r = beta/alpha1: sin(t) solves it, and the
    generators (sin(t), r*cos(t)) and (cos(t), -r*sin(t)) carry differential
    integrals.  A random generator with affine xi rides along."""
    def build(draw):
        beta, alpha1, seed = draw
        lag = M.QuadraticLagrangian(0, beta, 0, E.mul(beta, E.q, E.qm))
        ham = L.legendre_forward(lag, alpha1).hamiltonian
        r = E.div(beta, alpha1)
        carriers = [("sin", M.Generator(0, E.sin(E.t), E.mul(r, E.cos(E.t)))),
                    ("cos", M.Generator(0, E.cos(E.t), E.neg(E.mul(r, E.sin(E.t)))))]
        return ham, [*carriers, ("random", random_generator(np.random.default_rng(seed), affine_xi=True))]

    nonzero = st.integers(-3, 3).filter(bool)
    return st.tuples(nonzero, nonzero, st.integers(0, 2**32 - 1)).map(build)


def _named(model):
    ham, generators = model
    return ham, [(f"G{k}", g) for k, g in enumerate(generators)]


@settings(derandomize=True, database=None, deadline=None, max_examples=16)
@given(st.one_of(
    identity_models().filter(lambda m: m[0].alphas[0] != 0 and m[0].alphas[3] != 0).map(_named),
    oscillator_models(),
), st.integers(0, 1000))
def test_every_reported_integral_is_conserved_on_shell(model, seed):
    ham, generators = model
    reports = N.analyze_generators(ham, [(name, g, None, None) for name, g in generators], samples=40,
                                   seed=seed)
    jets = M.on_shell_jets(ham, seed + 17, 60)
    for rep, (name, g) in zip(reports, generators):
        if name in ("sin", "cos"):
            assert rep.parts.differential_integral is not None, rep.notes
        integral = rep.parts.differential_integral
        if integral is not None:
            assert E.zero_checks((E.total_derivative(integral),), jets, 1e-8)[0].ok
            # the premise check of the public function accepts the fitted V
            v = E.sub(rep.parts.c, integral)
            N.differential_integral(N.noether_parts(ham, g), v, v_div=rep.invariance.v,
                                    w_div=rep.invariance.w, ham=ham, seed=seed)
        integral = rep.parts.difference_integral
        if integral is not None:
            assert E.zero_checks((E.sub(E.shift(integral, +1), integral),), jets, 1e-8)[0].ok
            w = E.sub(rep.parts.p_quantity, integral)
            N.difference_integral(N.noether_parts(ham, g), w, v_div=rep.invariance.v,
                                  w_div=rep.invariance.w, ham=ham, seed=seed)


def _constrained_difference_check(parts, traj):
    """Monitoring for the constrained route: when (S+ - 1)P = 0 is imposed,
    C itself is the candidate integral; returns its drift and the largest
    constraint violation observed along the trajectory."""
    report = N.drift(parts.c, traj, kind="differential")
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    values = E.evaluate_many((parts.p_quantity,), traj.slots(n, m + 1))[0]
    gap = np.abs(values[n:] - values[: m - 2 * n + 1])
    return report, float(gap.max(initial=0.0))


def test_constrained_route_monitoring():
    # H with no q-dependence: P vanishes, the constraint holds exactly, and
    # C = pp + pm is conserved along solutions
    ham = M.DelayHamiltonian(E.parse("p*pm"), (1, 0, 0, 1))
    gen = M.Generator(E.ZERO, E.ONE, E.ZERO)
    parts = N.noether_parts(ham, gen)
    hist = S.History(0.0, 1.0, E.parse("sin(t)"), E.parse("cos(t)"))
    traj = S.step_hamiltonian(ham, hist, 5.0, 32)
    report, violation = _constrained_difference_check(parts, traj)
    assert violation <= 1e-12
    assert report.max_drift <= 1e-8


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_derives_both_integrals_for_each_oscillator(
    oscillator, degenerate_oscillator, oscillator_generators, sincos_history
):
    expected = {
        "nondegenerate": (
            oscillator,
            E.parse("sin(t)*(pp + pm) - cos(t)*(qp + qm)"),
            E.parse("cos(t)*(pp + pm) + sin(t)*(qp + qm)"),
        ),
        "degenerate": (
            degenerate_oscillator,
            E.parse("sin(t)*(pp + 2*p + pm) - cos(t)*(qp + 2*q + qm)"),
            E.parse("cos(t)*(pp + 2*p + pm) + sin(t)*(qp + 2*q + qm)"),
        ),
    }
    for label, ((_, ham), want_sin, want_cos) in expected.items():
        traj = S.step_hamiltonian(ham, sincos_history, 5.0, 64)
        rep_sin = N.analyze_generator(
            ham, oscillator_generators["sin"], "sin", traj=traj, seed=29
        )
        rep_cos = N.analyze_generator(
            ham, oscillator_generators["cos"], "cos", traj=traj, seed=29
        )
        assert E.is_zero(E.sub(rep_sin.parts.differential_integral, want_sin), 40, 1e-9, 31).ok, label
        assert E.is_zero(E.sub(rep_cos.parts.differential_integral, want_cos), 40, 1e-9, 31).ok, label
        assert rep_sin.drift_differential.max_drift <= 1e-6
        assert rep_cos.drift_differential.max_drift <= 1e-6


def test_pipeline_time_translation_note(oscillator, oscillator_generators):
    _, ham = oscillator
    rep = N.analyze_generator(ham, oscillator_generators["time"], "time", seed=29)
    assert rep.invariance.classification is N.Classification.VARIATIONAL
    assert rep.parts.differential_integral is None
    assert any("temporal" in n for n in rep.notes)


def _fit_rows():
    return max(400, 3 * len(N._v_dictionary()[0]))


def test_fit_rejects_a_nan_residual():
    # the target is finite on the design's jets but passes 1e154 there, so the
    # fit residual norm overflows and the relative residual is nan; that is no fit
    import warnings

    target = E.parse("exp(200*q*qm)")
    values = E.evaluate_many((target,), E.random_jets(1, _fit_rows()))[0]
    assert np.isfinite(values).all() and values.max() > 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert N.fit_total_derivative(target, seed=1) is None


def test_fit_row_that_overflows_names_its_jet():
    target = E.parse("exp(200*q*qm)")
    witness = first_exp_overflow(E.parse("200*q*qm"), E.random_jets(0, _fit_rows()))
    assert witness is not None
    with pytest.raises(E.EvalError, match="numeric overflow") as err:
        N.fit_total_derivative(target, seed=0)
    jet = err.value.jet
    assert jet.slots() == E.random_jet(0, witness).slots()
    assert 200 * jet.value("q") * jet.value("qm") > 709.8


def test_drift_of_a_non_finite_integral_is_a_numeric_failure(oscillator_trajectory):
    # the product overflows to inf without an exception where q > 0.79
    with pytest.raises(N.DriftError, match="not finite at t="):
        N.drift(E.parse("exp(300*q)*exp(300*q)*exp(300*q)"), oscillator_trajectory, "differential")
    with pytest.raises(E.EvalError, match="division by zero"):
        N.drift(E.parse("1/(q - q)"), oscillator_trajectory, "difference")


@pytest.mark.parametrize("fit, dictionary", [
    (N.fit_total_derivative, N._v_dictionary),
    (N.fit_shift_difference, N._w_dictionary),
])
def test_design_matrix_equals_the_column_loop(fit, dictionary, oscillator, monkeypatch):
    _, ham = oscillator
    solve = N._solve
    seen = []

    def capture(a, b, low):
        seen.append((np.array(a), np.array(b)))
        return solve(a, b, low)

    monkeypatch.setattr(N, "_solve", capture)
    _, images = dictionary()
    for target, on_shell in (
        (E.parse("q*qd + sin(t)*pm"), None),
        (E.parse("q*qd + sin(t)*pm"), ham),
        (E.parse("qddp*q + qd^2*pm"), ham),  # qddp is a solved second-order slot
    ):
        fit(target, seed=5, on_shell=on_shell)
        a_mat, b_vec = seen[-1]
        n = len(b_vec)
        if on_shell is None:
            slots = E.random_jets(5, n)
        else:
            slots = M.on_shell_jets(ham, 5, n)
        assert_same_bits(a_mat, np.column_stack([E.evaluate_many((e,), slots)[0] for e in images]))
        assert_same_bits(b_vec, E.evaluate_many((target,), slots)[0])
    assert len(seen) == 3


# ---------------------------------------------------------------------------
# the least-squares step of a fit
# ---------------------------------------------------------------------------


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


@pytest.fixture(scope="module")
def readme_design_matrices(oscillator):
    """(A, b) of every fit of the README `noether` command, in call order."""
    _, ham = oscillator
    solve = N._solve
    seen = []

    def capture(a, b, low):
        seen.append((np.array(a), np.array(b)))
        return solve(a, b, low)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(N, "_solve", capture)
        for g in (M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)")),
                  M.Generator(E.ZERO, E.parse("p"), E.parse("-q"))):
            N.analyze_generator(ham, g, "g", seed=20260810)
    return seen


def test_solve_takes_the_normal_equations_on_full_rank_fits(readme_design_matrices, monkeypatch):
    assert len(readme_design_matrices) == 9
    full = [(a, b) for a, b in readme_design_matrices if np.linalg.matrix_rank(a) == a.shape[1]]
    assert {a.shape for a, _ in full} == {(486, 162), (612, 204)}
    assert len(full) == len(readme_design_matrices) - 1  # the on-shell V fit is rank-deficient
    for a, b in full:
        want = _lstsq(a, b)
        assert np.linalg.norm(N._solve(a, b, N._gram_factor(a)) - want) <= 1e-12 * np.linalg.norm(want)
    lstsq, fallbacks = np.linalg.lstsq, []

    def spy(a, b, rcond=None):
        fallbacks.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    for a, b in readme_design_matrices:
        N._solve(a, b, N._gram_factor(a))
    assert fallbacks == [(486, 162)]


@pytest.mark.parametrize("rows, duplicate", [(40, True), (5, False)],
                         ids=["duplicated-column", "underdetermined"])
def test_solve_is_lstsq_without_full_column_rank(rows, duplicate):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((rows, 8))
    if duplicate:
        a[:, -1] = a[:, 2]
    b = rng.standard_normal(rows)
    assert_same_bits(N._solve(a, b, N._gram_factor(a)), _lstsq(a, b))


def test_solve_guard_is_the_condition_number_not_the_factorisation():
    # cond(A) ~ 1e6: Cholesky of A^T A succeeds, but cond(A^T A) ~ 1e12 is
    # past the bound, so the normal equations are not used
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 8))
    a[:, -1] = a[:, 2] + 1e-6 * rng.standard_normal(40)
    np.linalg.cholesky(a.T @ a)
    assert np.linalg.cond(a.T @ a) > N._GRAM_COND_MAX
    b = rng.standard_normal(40)
    assert_same_bits(N._solve(a, b, N._gram_factor(a)), _lstsq(a, b))


def test_solve_falls_back_quietly_when_the_gram_matrix_overflows():
    import warnings

    rng = np.random.default_rng(4)
    a = rng.uniform(0.5, 1.0, (30, 6)) * 1e160
    b = rng.uniform(0.5, 1.0, 30) * 1e160
    with np.errstate(over="ignore"):
        assert np.isfinite(a).all() and not np.isfinite(a.T @ a).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = N._solve(a, b, N._gram_factor(a))
    assert_same_bits(got, _lstsq(a, b))


def _old_verdict(a):
    """Whether the spectrum rule accepts the design `a`: a finite Gram
    matrix, 0 < eig[0], eig[-1] <= _GRAM_COND_MAX * eig[0] and a Cholesky
    factorisation that succeeds."""
    with np.errstate(all="ignore"):
        gram = a.T @ a
        if not np.isfinite(gram).all():
            return False
        try:
            eig = np.linalg.eigvalsh(gram)
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
    return bool(0.0 < eig[0] and eig[-1] <= N._GRAM_COND_MAX * eig[0])


seeded = settings(derandomize=True, database=None, deadline=None, max_examples=300)
_BASIS_RNG = np.random.default_rng(22)
_ROW_BASIS = np.linalg.qr(_BASIS_RNG.standard_normal((90, 90)))[0]
_COLUMN_BASIS = np.linalg.qr(_BASIS_RNG.standard_normal((70, 70)))[0]


def _design(rows, columns, log_cond, scale):
    """rows x columns design with singular values spaced geometrically from
    `scale` down to scale / sqrt(10**log_cond), so that its Gram matrix has
    condition number 10**log_cond when rows >= columns."""
    singular = scale * np.logspace(0, -log_cond / 2, columns)
    k = min(rows, columns)
    left = np.linalg.qr(_ROW_BASIS[:rows, :k])[0]
    right = np.linalg.qr(_COLUMN_BASIS[:columns, :columns])[0][:, :k]
    return (left * singular[:k]) @ right.T


_CONDITIONS = st.one_of(
    st.floats(0, 20),
    # just below and above 1e8, and around the bound's threshold 5e7
    st.sampled_from([np.log10(c) for c in (0.98e8, 0.999e8, 1.001e8, 1.02e8, 4.9e7, 5.1e7, 9e7)]),
)


@seeded
@given(
    st.integers(2, 70),
    st.integers(-10, 40),
    _CONDITIONS,
    # Gram matrices at 1, near either end of the bound's scale range, below
    # it, and past the double range
    st.sampled_from([1.0, 1e-74, 1e74, 1e-150, 1e160]),
    st.sampled_from(["plain", "duplicate", "near-duplicate"]),
    st.data(),
)
def test_the_gram_guard_keeps_the_spectrum_verdict(columns, extra_rows, log_cond, scale, kind, data):
    rows = max(1, min(90, columns + extra_rows))
    a = _design(rows, columns, log_cond, scale)
    if kind in ("duplicate", "near-duplicate"):
        i, j = data.draw(st.lists(st.integers(0, columns - 1), min_size=2, max_size=2, unique=True))
        noise = 0.0 if kind == "duplicate" else 10.0 ** data.draw(st.integers(-12, -2))
        a[:, j] = a[:, i] + noise * _ROW_BASIS[:rows, -1]
    assert (N._gram_factor(a) is not None) is _old_verdict(a)


@pytest.mark.parametrize("shape, cond, scale, accepted, spectra", [
    ((60, 20), 1e1, 1.0, True, 0),  # the bound settles it
    ((60, 20), 9e7, 1.0, True, 1),  # the bound is past 5e7: the spectrum accepts
    ((60, 20), 1e9, 1.0, False, 1),  # Cholesky succeeds, the spectrum rejects
    # G ~ 1e-300: the squares in ||G||_F underflow, so the bound would read 0
    ((2, 2), 1.001e8, 1e-150, False, 1),
])
def test_the_spectrum_runs_only_when_the_bound_is_inconclusive(shape, cond, scale, accepted, spectra,
                                                               monkeypatch):
    a = _design(*shape, np.log10(cond), scale)
    np.linalg.cholesky(a.T @ a)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def spy(gram):
        calls.append(gram.shape)
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert (N._gram_factor(a) is not None) is accepted is _old_verdict(a)
    assert len(calls) == spectra + 1  # _old_verdict computes the spectrum too


@pytest.mark.parametrize("n", [8, 33, 162, 204])
def test_the_block_inverse_of_a_triangular_factor(n):
    # correlated columns put entries larger than the diagonal below it, so
    # LAPACK's pivoted inverse of a leaf is not exactly lower triangular
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3 * n, n))
    a[:, 1:] += a[:, :1]
    low = np.linalg.cholesky(a.T @ a)
    inv_low = N._lower_inverse(low)
    assert not np.triu(inv_low, 1).any()
    assert np.abs(inv_low @ low - np.eye(n)).max() <= 1e-13
    assert np.array_equal(N._gram_factor(a), inv_low)


# ---------------------------------------------------------------------------
# fit design rows
# ---------------------------------------------------------------------------


def test_fit_without_a_sample_count_takes_the_default_rows(monkeypatch):
    solve, rows = N._solve, []

    def capture(a, b, low):
        rows.append(len(b))
        return solve(a, b, low)

    monkeypatch.setattr(N, "_solve", capture)
    N.fit_total_derivative(E.parse("q*qd"), seed=1)
    N.fit_shift_difference(E.parse("q*qd"), seed=1)
    assert rows == [486, 612]


# ---------------------------------------------------------------------------
# many generators, stage by stage
# ---------------------------------------------------------------------------


def test_fit_many_equals_the_one_target_fits(oscillator):
    _, ham = oscillator
    w_column = E.parse("q*p*sin(t)")
    v_target = E.total_derivative(E.parse("q*qm*cos(t)"))
    targets = [
        E.parse("q*qd + sin(t)*pm"),
        E.parse("qddp*q + qd^2*pm"),  # on-shell, needs the second-order jets
        v_target,  # a V in the span
        E.sub(E.shift(w_column, +1), w_column),  # a W in the span
        # passes the residual gate, but its rounded V fails the verification
        E.add(v_target, E.mul(E.parse("1e-7"), E.parse("exp(q)"))),
    ]
    for dictionary in (N._v_dictionary(), N._w_dictionary()):
        for on_shell in (None, ham):
            got = N._fit_many(targets, dictionary, seed=5, on_shell=on_shell)
            want = [N._fit_many([t], dictionary, seed=5, on_shell=on_shell)[0] for t in targets]
            assert got == want
            assert any(f is not None for f in got)
    assert N.fit_total_derivative(targets[-1], seed=5) is None


@pytest.mark.parametrize("on_shell", [False, True], ids=["off-shell", "on-shell"])
def test_fit_many_of_no_targets_samples_and_evaluates_nothing(oscillator, on_shell, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty fit call sampled or evaluated")

    monkeypatch.setattr(E, "random_jets", refuse)
    monkeypatch.setattr(N, "on_shell_jets", refuse)
    monkeypatch.setattr(E, "evaluate_many", refuse)
    ham = oscillator[1] if on_shell else None
    for dictionary in (N._v_dictionary(), N._w_dictionary()):
        assert N._fit_many([], dictionary, seed=5, on_shell=ham) == []


def _comparable(value):
    """`value` with every field spelled out: jet points as their slot bytes,
    expressions as themselves (they are interned)."""
    if isinstance(value, E.JetPoint):
        return np.asarray(value.slots(), dtype=float).tobytes()
    if isinstance(value, tuple):
        return type(value), tuple(_comparable(v) for v in value)
    if isinstance(value, list):
        return [_comparable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, E.Expr):
        return type(value), {f.name: _comparable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _assert_reports_equal_one_at_a_time(ham, cases, **options):
    together = N.analyze_generators(ham, cases, **options)
    alone = [N.analyze_generator(ham, g, name, v=v, w=w, **options) for name, g, v, w in cases]
    assert [r.name for r in together] == [name for name, *_ in cases]
    for got, want in zip(together, alone):
        assert _comparable(got) == _comparable(want), got.name


README_GENERATORS = [
    ("X1", M.Generator(E.ZERO, E.parse("sin(t)"), E.parse("cos(t)")), None, None),
    ("X5", M.Generator(E.ZERO, E.parse("p"), E.parse("-q")), None, None),
]


@pytest.mark.parametrize("seed", [20260810, 7, 1234, 99991, 2**32 + 5])
def test_analyze_generators_equals_the_per_generator_reports_on_the_readme(
    oscillator, oscillator_trajectory, seed
):
    _, ham = oscillator
    _assert_reports_equal_one_at_a_time(ham, README_GENERATORS, traj=oscillator_trajectory, seed=seed)


@pytest.mark.parametrize("model", ["oscillator", "degenerate_oscillator"])
def test_analyze_generators_equals_the_per_generator_reports_on_the_oscillator_sets(
    model, oscillator_generators, sincos_history, request
):
    _, ham = request.getfixturevalue(model)
    traj = S.step_hamiltonian(ham, sincos_history, 5.0, 32)
    cases = [(name, g, None, None) for name, g in oscillator_generators.items()]
    # a supplied potential, right for "sin" and wrong for "scale"
    cases.append(("sin-v", oscillator_generators["sin"], E.parse("cos(tm)*q + cos(t)*qm"), None))
    cases.append(("scale-v", oscillator_generators["scale"], E.parse("q*qm"), E.ZERO))
    _assert_reports_equal_one_at_a_time(ham, cases, traj=traj, seed=29)
    _assert_reports_equal_one_at_a_time(ham, cases, seed=3)
    # pairing weights without an on-shell construction (a4 = 0)
    weak = M.DelayHamiltonian(ham.h, (1, 0, 0, 0))
    _assert_reports_equal_one_at_a_time(weak, cases[:5], seed=5)


def test_a_readme_request_evaluates_and_factors_each_design_once(oscillator, monkeypatch):
    _, ham = oscillator
    designs = {id(N._v_dictionary()[1]), id(N._w_dictionary()[1])}
    evaluate_many, gram_factor, solve = E.evaluate_many, N._gram_factor, N._solve
    calls = {"design": 0, "factor": 0, "solve": 0}

    def count_designs(roots, slots):
        calls["design"] += id(roots) in designs
        return evaluate_many(roots, slots)

    def count_factors(a):
        calls["factor"] += 1
        return gram_factor(a)

    def count_solves(a, b, low):
        calls["solve"] += 1
        return solve(a, b, low)

    monkeypatch.setattr(E, "evaluate_many", count_designs)
    monkeypatch.setattr(N, "_gram_factor", count_factors)
    monkeypatch.setattr(N, "_solve", count_solves)
    N.analyze_generators(ham, README_GENERATORS, seed=20260810)
    # V at seed+1 and seed+11 and the off- and on-shell W at seed+13 serve
    # both generators; the on-shell V at seed+11 serves X1 alone
    assert calls == {"design": 5, "factor": 5, "solve": 9}


class _Planted(RuntimeError):
    pass


def test_analyze_generators_raises_the_first_error_in_stage_order(oscillator, monkeypatch):
    """A failing run raises the error of its first failing stage: the second
    generator's identity residual overflows inside the batched identity
    check, before the first generator reaches its planted last-stage error."""
    _, ham = oscillator
    first, second = README_GENERATORS
    residual, admissible = N.hamiltonian_identity_residual, N.xi_admissible

    def fails_early(h, g):
        return E.parse("exp(800 + q^2)") if g is second[1] else residual(h, g)

    def fails_late(g, **options):
        if g is first[1]:
            raise _Planted("first generator, last stage")
        return admissible(g, **options)

    monkeypatch.setattr(N, "hamiltonian_identity_residual", fails_early)
    monkeypatch.setattr(N, "xi_admissible", fails_late)
    with pytest.raises(E.EvalError, match="^numeric overflow$") as got:
        N.analyze_generators(ham, README_GENERATORS, seed=11)
    assert got.value.jet.slots() == E.random_jet(11, 0).slots()
    with pytest.raises(_Planted, match="^first generator, last stage$"):  # the late failure is live
        N.analyze_generator(ham, first[1], first[0], seed=11)
