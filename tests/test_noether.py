import numpy as np
import pytest

from delayham import expr as E
from delayham import model as M
from delayham import noether as N
from delayham import solver as S

from conftest import (
    assert_same_bits,
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
    assert z(E.sub(om, E.mul(2, ham.action_density()))).ok


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
    inv = N.classify_invariance(
        ham, oscillator_generators["sin"], v=E.parse("cos(tm)*q + cos(t)*qm"), fit=False
    )
    assert inv.classification is N.Classification.DIVERGENCE
    assert inv.v is E.parse("cos(tm)*q + cos(t)*qm")


def test_classification_rejects_wrong_user_potential(oscillator, oscillator_generators):
    _, ham = oscillator
    inv = N.classify_invariance(
        ham, oscillator_generators["sin"], v=E.parse("q*qm"), fit=False
    )
    assert inv.classification is N.Classification.NONE


def test_classification_negative_weights_control():
    # same Hamiltonian, incompatible pairing weights: the scaling generator
    # produces twice the action density, which is no divergence
    ham = M.DelayHamiltonian(E.parse("p*pm + q*qm"), (0, 0, 1, 0))
    gen = M.Generator(E.ZERO, E.q, E.p)
    inv = N.classify_invariance(ham, gen, seed=5)
    assert inv.classification is N.Classification.NONE
    assert z(E.sub(inv.omega, E.mul(2, ham.action_density()))).ok
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
    density = ham.action_density()
    assert z(E.sub(M.variational_p(om, extended=True), E.mul(2, M.variational_p(density)))).ok
    assert z(E.sub(M.variational_q(om, extended=True), E.mul(2, M.variational_q(density)))).ok


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


def _constrained_difference_check(parts, traj):
    """Monitoring for the constrained route: when (S+ - 1)P = 0 is imposed,
    C itself is the candidate integral; returns its drift and the largest
    constraint violation observed along the trajectory."""
    report = N.drift(parts.c, traj, kind="differential")
    n = traj.steps_per_delay
    m = len(traj.t) - 1
    values = E.evaluate_array(parts.p_quantity, traj.slots(n, m + 1))
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


def test_fit_rejects_a_nan_residual():
    # the target reaches 1e300 on these jets, so the fit residual norm
    # overflows and the relative residual is nan; that is no fit
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert N.fit_total_derivative(E.parse("exp(200*q*qm)"), seed=1) is None


def test_fit_row_that_overflows_names_its_jet():
    target = E.parse("exp(200*q*qm)")
    with pytest.raises(E.EvalError, match="numeric overflow") as err:
        N.fit_total_derivative(target, seed=0)
    jet = err.value.jet
    assert jet.slots() == E.random_jet(0, 0).slots()
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
    lstsq = np.linalg.lstsq
    seen = []

    def capture(a, b, rcond=None):
        seen.append((np.array(a), np.array(b)))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", capture)
    _, images, _ = dictionary()
    for target, on_shell, second in (
        (E.parse("q*qd + sin(t)*pm"), None, False),
        (E.parse("q*qd + sin(t)*pm"), ham, False),
        (E.parse("qddp*q + qd^2*pm"), ham, True),  # qddp is solved only for second order
    ):
        fit(target, seed=5, on_shell=on_shell)
        a_mat, b_vec = seen[-1]
        n = len(b_vec)
        if on_shell is None:
            slots = E.random_jets(5, n)
        else:
            slots = M.on_shell_jets(ham, 5, n, second_order=second)
        assert_same_bits(a_mat, np.column_stack([E.evaluate_array(e, slots) for e in images]))
        assert_same_bits(b_vec, E.evaluate_array(target, slots))
    assert len(seen) == 3
