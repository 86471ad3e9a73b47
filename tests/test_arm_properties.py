"""Property tests: every arm quantity agrees with the full closed-form dynamics.

The integrator's acceleration, the per-sample evaluation and the controller
tick fed that sample are computed on a lean path that skips the Coriolis
matrix and re-uses one M^-1 J^T solve; these tests hold them to
``arm_dynamics`` and ``task_space_quantities`` at random states, wrenches,
torques and targets.
"""

import math

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
    new_attractor_states,
    null_space_torque,
    task_space_quantities,
)
from fractal_impedance.dynamics import _arm_accel, _arm_task_state

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
    assume(float(np.linalg.cond(sample.task.lam)) < 1e6)
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


@settings(max_examples=200, deadline=None)
@given(
    q=vec(3, math.pi),
    qdot=vec(3, 5.0),
    offset=vec(2, 0.5),
    rate=vec(2, 2.0),
    with_rate=st.booleans(),
)
def test_fic_tick_on_sample_matches_composition(q, qdot, offset, rate, with_rate):
    arm = arm_at(q, qdot)
    sample = sample_or_skip(arm)
    x_target = sample.x + offset
    target_rate = rate if with_rate else None
    states = new_attractor_states(2)

    def law(x_err, x_err_rate, damping_rate):
        res = fic_task_wrench(FIC, states, x_err, x_err_rate, damping_rate=damping_rate)
        return res.wrench, res.states

    want_tau, want_w, want_states = composed_tick(arm, x_target, FIC, law, target_rate)
    got = fic_control_torques(arm, x_target, states, FIC, target_rate, sample=sample)
    assert np.array_equal(got.wrench, want_w)
    assert got.states == want_states
    assert_close(got.torques, want_tau)
    own = fic_control_torques(arm, x_target, states, FIC, target_rate)
    assert np.array_equal(own.torques, got.torques)


@settings(max_examples=200, deadline=None)
@given(q=vec(3, math.pi), qdot=vec(3, 5.0), offset=vec(2, 0.5))
def test_baseline_tick_on_sample_matches_composition(q, qdot, offset):
    arm = arm_at(q, qdot)
    sample = sample_or_skip(arm)
    x_target = sample.x + offset

    def law(x_err, x_err_rate, _damping_rate):
        return baseline_impedance_wrench(BASE, x_err, x_err_rate), ()

    want_tau, want_w, _ = composed_tick(arm, x_target, BASE, law, None)
    got = baseline_control_torques(arm, x_target, BASE, sample=sample)
    assert np.array_equal(got.wrench, want_w)
    assert_close(got.torques, want_tau)
    own = baseline_control_torques(arm, x_target, BASE)
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
    for ts in (task_space_quantities(ARM, q), task_space_quantities(ARM, q, dyn)):
        assert_close(ts.lam, sample.task.lam)
        assert_close(ts.jbar_t, sample.task.jbar_t)
        assert_close(ts.nullspace, sample.task.nullspace)
