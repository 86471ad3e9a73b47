"""Property tests: every arm quantity agrees with the full closed-form dynamics.

The integrator's acceleration and the per-sample task state are computed on a
lean path that skips the Coriolis matrix and the task-space inverse; these
tests hold them to ``arm_dynamics`` and ``task_space_quantities`` at random
states, wrenches and torques.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractal_impedance import (
    ContactWall,
    PlanarArm,
    SingularConfigurationError,
    arm_dynamics,
    contact_force,
    forward_kinematics,
    joint_positions,
    task_space_quantities,
)
from fractal_impedance.dynamics import _arm_accel, _arm_task_state

ARM = PlanarArm.default()
WALL = ContactWall(axis=0, offset=0.5, stiffness=2000.0, damping=5.0)


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
    x, xdot, ke = _arm_task_state(ARM, q, qdot)
    assert np.array_equal(x, forward_kinematics(ARM, q))
    assert np.array_equal(xdot, dyn.jacobian @ qdot)
    want = 0.5 * float(xdot @ ts.lam @ xdot)
    assert ke == pytest.approx(want, rel=1e-12 * cond, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(q=vec(3, 4.0 * math.pi))
def test_forward_kinematics_is_chain_tip(q):
    tip = joint_positions(ARM, q)[-1]
    assert np.allclose(forward_kinematics(ARM, q), tip, rtol=0.0, atol=1e-12)
