"""Property tests: every arm quantity agrees with the full closed-form dynamics.

The integrator's acceleration, the per-sample evaluation and the controller
tick fed that sample are computed on a lean path that skips the Coriolis
matrix and re-uses one M^-1 J^T solve; these tests hold them to
``arm_dynamics`` and ``task_space_quantities`` at random states, wrenches,
torques and targets.

All of those read one kernel (``dynamics._arm_kernel``, Python floats), so
agreeing with each other cannot catch an error in it. ``reference_terms`` is
the independent reference: the absolute-angle closed forms written out with
numpy matrices (``phi = S q``, ``C = cs^T cs``, ``M = S^T (A o C + I) S``,
``J = (l * dcs) S``), checked on 2-, 3- and 4-link arms with random positive
parameters, with ``np.linalg.inv`` and ``eigvalsh`` as the reference for the
closed-form 2 x 2 task-space block.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractal_impedance import (
    BaselineConfig,
    ContactWall,
    FicConfig,
    PlanarArm,
    SingularConfigurationError,
    StiffnessParams,
    arm_dynamics,
    baseline_control_torques,
    baseline_impedance_wrench,
    contact_force,
    fic_control_torques,
    fic_task_wrench,
    forward_kinematics,
    joint_positions,
    kinetic_energy,
    new_attractor_states,
    null_space_torque,
    potential_energy,
    task_space_quantities,
)
from fractal_impedance import dynamics
from fractal_impedance.dynamics import _arm_accel, _arm_kernel, _arm_task_state

ARM = PlanarArm.default()
WALL = ContactWall(axis=0, offset=0.5, stiffness=2000.0, damping=5.0)
POSTURE = np.array([0.3, 0.9, 0.9])
FIC = FicConfig(
    stiffness=(
        StiffnessParams(k_const=100.0, w_max=30.0, x_b=0.1),
        StiffnessParams(k_const=0.0, w_max=20.0, x_b=0.05),
    ),
    damping=np.array([5.0, 3.0]),
    posture_target=POSTURE,
    posture_gains=(10.0, 1.0),
)
BASE = BaselineConfig(
    k_d=(100.0, 150.0), d_d=(2.5, 4.0), posture_target=POSTURE, posture_gains=(10.0, 1.0)
)


def vec(n, bound):
    return st.lists(
        st.floats(-bound, bound, allow_nan=False), min_size=n, max_size=n
    ).map(np.array)


@settings(max_examples=300, deadline=None)
@given(
    q=vec(3, math.pi),
    qdot=vec(3, 5.0),
    tau=vec(3, 50.0),
    w=vec(2, 50.0),
    with_wrench=st.booleans(),
    with_wall=st.booleans(),
)
def test_accel_solves_full_dynamics(q, qdot, tau, w, with_wrench, with_wall):
    dyn = arm_dynamics(ARM, q, qdot)
    w_total = w if with_wrench else np.zeros(2)
    if with_wall:
        w_total = w_total + contact_force(
            WALL, forward_kinematics(ARM, q), dyn.jacobian @ qdot
        )
    want = np.linalg.solve(
        dyn.mass_matrix, tau - dyn.bias - dyn.gravity + dyn.jacobian.T @ w_total
    )
    got = _arm_accel(
        ARM, tau, q, qdot, WALL if with_wall else None, w if with_wrench else None
    )
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.allclose(got, want, rtol=0.0, atol=1e-10 * scale)


@settings(max_examples=300, deadline=None)
@given(q=vec(3, math.pi), qdot=vec(3, 5.0))
def test_task_state_matches_operational_space(q, qdot):
    try:
        ts = task_space_quantities(ARM, q)
    except SingularConfigurationError:
        assume(False)
    # 0.5 xdot' Lam xdot loses digits with the conditioning of Lam.
    cond = float(np.linalg.cond(ts.lam))
    assume(cond < 1e6)
    dyn = arm_dynamics(ARM, q, qdot)
    sample = _arm_task_state(ARM, q, qdot)
    x, xdot, ke = sample.x, sample.xdot, sample.ke
    assert np.array_equal(x, forward_kinematics(ARM, q))
    assert np.array_equal(xdot, dyn.jacobian @ qdot)
    want = 0.5 * float(xdot @ ts.lam @ xdot)
    assert ke == pytest.approx(want, rel=1e-12 * cond, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(q=vec(3, 4.0 * math.pi))
def test_forward_kinematics_is_chain_tip(q):
    tip = joint_positions(ARM, q)[-1]
    assert np.allclose(forward_kinematics(ARM, q), tip, rtol=0.0, atol=1e-12)


def arm_at(q, qdot):
    arm = PlanarArm.default()
    arm.q, arm.qdot = q, qdot
    return arm


def sample_or_skip(arm):
    """The arm's sample, skipping singular and badly conditioned states."""
    try:
        sample = _arm_task_state(arm, arm.q, arm.qdot)
    except SingularConfigurationError:
        assume(False)
    assume(float(np.linalg.cond(sample.lam)) < 1e6)
    return sample


def composed_tick(arm, x_target, config, law, target_rate):
    """The arm tick composed from the public closed forms, one solve each."""
    x = forward_kinematics(arm, arm.q)
    dyn = arm_dynamics(arm, arm.q, arm.qdot)
    x_err = x_target - x
    damping_rate = -(dyn.jacobian @ arm.qdot)
    x_err_rate = damping_rate if target_rate is None else damping_rate + target_rate
    wrench, states = law(x_err, x_err_rate, damping_rate)
    tau_null = null_space_torque(arm.q, arm.qdot, config.posture_target, config.posture_gains)
    ts = task_space_quantities(arm, arm.q, dyn)
    comp = ts.lam @ (
        dyn.jacobian @ np.linalg.solve(dyn.mass_matrix, dyn.bias)
        - dyn.jacobian_dot @ arm.qdot
    )
    torques = dyn.jacobian.T @ (wrench + comp) + dyn.gravity + ts.nullspace @ tau_null
    return torques, wrench, states


def assert_close(got, want, rel=1e-9):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.allclose(got, want, rtol=0.0, atol=rel * scale)


# The torque map folds N tau_null into the task term, which equals the
# composition's N @ tau_null only in exact arithmetic; so the posture target
# (or none) and gains (zero included) are drawn too.
gains = st.tuples(
    st.just(0.0) | st.floats(0.0, 50.0), st.just(0.0) | st.floats(0.0, 10.0)
)
postures = st.none() | vec(3, math.pi)


@settings(max_examples=200, deadline=None)
@given(
    q=vec(3, math.pi),
    qdot=vec(3, 5.0),
    offset=vec(2, 0.5),
    rate=vec(2, 2.0),
    with_rate=st.booleans(),
    posture=postures,
    posture_gains=gains,
)
def test_fic_tick_on_sample_matches_composition(
    q, qdot, offset, rate, with_rate, posture, posture_gains
):
    arm = arm_at(q, qdot)
    sample = sample_or_skip(arm)
    x_target = sample.x + offset
    target_rate = rate if with_rate else None
    states = new_attractor_states(2)
    config = replace(FIC, posture_target=posture, posture_gains=posture_gains)

    def law(x_err, x_err_rate, damping_rate):
        res = fic_task_wrench(config, states, x_err, x_err_rate, damping_rate=damping_rate)
        return res.wrench, res.states

    want_tau, want_w, want_states = composed_tick(arm, x_target, config, law, target_rate)
    got = fic_control_torques(arm, x_target, states, config, target_rate, sample=sample)
    assert np.array_equal(got.wrench, want_w)
    assert got.states == want_states
    assert_close(got.torques, want_tau)
    own = fic_control_torques(arm, x_target, states, config, target_rate)
    assert np.array_equal(own.torques, got.torques)


@settings(max_examples=200, deadline=None)
@given(
    q=vec(3, math.pi),
    qdot=vec(3, 5.0),
    offset=vec(2, 0.5),
    posture=postures,
    posture_gains=gains,
)
def test_baseline_tick_on_sample_matches_composition(q, qdot, offset, posture, posture_gains):
    arm = arm_at(q, qdot)
    sample = sample_or_skip(arm)
    x_target = sample.x + offset
    config = replace(BASE, posture_target=posture, posture_gains=posture_gains)

    def law(x_err, x_err_rate, _damping_rate):
        return baseline_impedance_wrench(config, x_err, x_err_rate), ()

    want_tau, want_w, _ = composed_tick(arm, x_target, config, law, None)
    got = baseline_control_torques(arm, x_target, config, sample=sample)
    assert np.array_equal(got.wrench, want_w)
    assert_close(got.torques, want_tau)
    own = baseline_control_torques(arm, x_target, config)
    assert np.array_equal(own.torques, got.torques)


@settings(max_examples=200, deadline=None)
@given(
    q=vec(3, math.pi),
    qdot=vec(3, 5.0),
    tau=vec(3, 50.0),
    w=vec(2, 50.0),
    with_wall=st.booleans(),
)
def test_accel_on_sample_kernel_matches_fresh_call(q, qdot, tau, w, with_wall):
    sample = sample_or_skip(arm_at(q, qdot))
    wall = WALL if with_wall else None
    fresh = _arm_accel(ARM, tau, q, qdot, wall, w)
    assert_close(_arm_accel(ARM, tau, q, qdot, wall, w, sample.kernel), fresh)


@settings(max_examples=200, deadline=None)
@given(q=vec(3, math.pi), qdot=vec(3, 5.0))
def test_task_space_quantities_match_sample(q, qdot):
    sample = sample_or_skip(arm_at(q, qdot))
    dyn = arm_dynamics(ARM, q, qdot)
    jbar_t = np.array(sample.lam) @ np.array(sample.minv_jt)  # Lam (M^-1 J^T)^T
    for ts in (task_space_quantities(ARM, q), task_space_quantities(ARM, q, dyn)):
        assert_close(ts.lam, sample.lam)
        assert_close(ts.jbar_t, jbar_t)
        assert_close(ts.nullspace, np.eye(3) - dyn.jacobian.T @ jbar_t)


def reference_terms(arm, q):
    """The arm's closed forms as numpy matrices, independent of the kernel.

    Each entry comes with the scale its rounding error is judged against:
    the same sum with every term replaced by its magnitude bound (cos and sin
    by 1). A folded arm sums large terms to a small one, and an angle rounded
    differently moves a term by its coefficient times that rounding.
    """
    n = len(q)
    smap = np.tril(np.ones((n, n)))
    phi = smap @ q
    cs = np.array([np.cos(phi), np.sin(phi)])
    dcs = np.array([-cs[1], cs[0]])
    cmat = np.zeros((n, n))
    for i in range(n):
        cmat[:i, i] = arm.lengths[:i]
        cmat[i, i] = arm.com_offsets[i]
    coupling = cmat @ np.diag(arm.masses) @ cmat.T
    first = cmat @ arm.masses
    g_abs = float(np.sum(np.abs(arm.gravity)))
    return {
        "mass": (
            smap.T @ (coupling * (cs.T @ cs) + np.diag(arm.inertias)) @ smap,
            smap.T @ (coupling + np.diag(arm.inertias)) @ smap,
        ),
        "a_sin": (coupling * (cs.T @ dcs), coupling),
        "jac": ((arm.lengths * dcs) @ smap, np.ones((2, 1)) * (arm.lengths @ smap)),
        "gravity": (smap.T @ (-first * (arm.gravity @ dcs)), smap.T @ first * g_abs),
        "tip": (cs @ arm.lengths, np.sum(arm.lengths)),
        "potential": (-first @ (arm.gravity @ cs), np.sum(first) * g_abs),
    }


def within(got, want_and_scale, rel=1e-12):
    want, scale = want_and_scale
    return bool(np.all(np.abs(np.asarray(got) - want) <= rel * scale))


@st.composite
def arm_states(draw):
    """A 2-, 3- or 4-link arm with random positive parameters, and a state."""
    n = draw(st.sampled_from((2, 3, 4)))

    def positive(lo, hi):
        return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)

    lengths = draw(positive(0.1, 2.0))
    arm = PlanarArm(
        lengths=lengths,
        masses=draw(positive(0.1, 5.0)),
        com_offsets=draw(positive(0.05, 1.0)) * lengths,
        inertias=draw(positive(1e-3, 1.0)),
        gravity=draw(vec(2, 20.0)),
        q=np.zeros(n),
        qdot=np.zeros(n),
    )
    return arm, draw(vec(n, math.pi)), draw(vec(n, 5.0))


@settings(max_examples=300, deadline=None)
@given(state=arm_states())
def test_kernel_matches_reference_closed_forms(state):
    arm, q, qdot = state
    ref = reference_terms(arm, q)
    _, _, a_sin, mass, jac = _arm_kernel(arm, q)
    assert within(np.array(a_sin), ref["a_sin"])
    assert within(np.array(mass), ref["mass"])
    assert within(np.array(jac), ref["jac"])
    dyn = arm_dynamics(arm, q, qdot)
    assert within(dyn.mass_matrix, ref["mass"])
    assert within(dyn.jacobian, ref["jac"])
    assert within(dyn.gravity, ref["gravity"])
    assert within(forward_kinematics(arm, q), ref["tip"])
    assert within(potential_energy(arm, q), ref["potential"])
    mass_ref = ref["mass"][0]
    assert kinetic_energy(arm, q, qdot) == pytest.approx(
        0.5 * qdot @ mass_ref @ qdot, rel=1e-12, abs=1e-12
    )


@settings(max_examples=300, deadline=None)
@given(state=arm_states(), tau=vec(4, 50.0))
def test_accel_matches_reference_solve(state, tau):
    arm, q, qdot = state
    n = len(q)
    ref = reference_terms(arm, q)
    mass = ref["mass"][0]
    phidot = np.cumsum(qdot)
    load = ref["a_sin"][0] @ (phidot * phidot)
    rhs = tau[:n] - np.tril(np.ones((n, n))).T @ load - ref["gravity"][0]
    want = np.linalg.solve(mass, rhs)
    got = _arm_accel(arm, tau[:n], q, qdot, None, None)
    tol = 1e-13 * np.linalg.cond(mass) * max(1.0, float(np.max(np.abs(want))))
    assert np.allclose(got, want, rtol=0.0, atol=tol)


def reference_task_block(arm, q):
    """J M^-1 J^T from the reference closed forms and numpy's solve."""
    ref = reference_terms(arm, q)
    mass, jac = ref["mass"][0], ref["jac"][0]
    return jac @ np.linalg.solve(mass, jac.T), float(np.linalg.cond(mass))


@settings(max_examples=300, deadline=None)
@given(state=arm_states())
def test_task_space_block_matches_inv_and_eigvalsh(state):
    arm, q, _ = state
    core, cond_m = reference_task_block(arm, q)
    cond_core = float(np.linalg.cond(core))
    assume(cond_core < 1e8)
    # the test quantity: with an infinite tolerance every call reports it
    with mock.patch.object(dynamics, "SINGULARITY_TOL", math.inf):
        with pytest.raises(SingularConfigurationError) as err:
            task_space_quantities(arm, q)
    smallest = float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (core + core.T)))))
    scale = float(np.max(np.abs(core)))
    assert err.value.smallest_singular_value == pytest.approx(
        smallest, rel=0.0, abs=1e-13 * cond_m * scale
    )
    assume(smallest > 2.0 * dynamics.SINGULARITY_TOL)
    lam = task_space_quantities(arm, q).lam
    want = np.linalg.inv(core)
    tol = 1e-13 * cond_m * cond_core * float(np.max(np.abs(want)))
    assert np.allclose(lam, want, rtol=0.0, atol=tol)
