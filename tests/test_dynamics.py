"""Plant models: arm closed forms, task-space maps, contact, integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_impedance import (
    ContactWall,
    IntegrationBlowupError,
    PerturbationProfile,
    PlanarArm,
    PointMassPlant,
    Pulse,
    SingularConfigurationError,
    arm_dynamics,
    contact_force,
    external_wrench,
    forward_kinematics,
    joint_positions,
    kinetic_energy,
    potential_energy,
    task_space_quantities,
)
from fractal_impedance.dynamics import INTEGRATORS, _advance, _arm_accel, _point_mass_accel

RNG = np.random.default_rng(7)


def random_arm_state(arm, scale_q=1.0, scale_qd=1.0):
    q = RNG.uniform(-scale_q, scale_q, 3)
    qd = RNG.uniform(-scale_qd, scale_qd, 3)
    return q, qd


class TestArmClosedForms:
    def test_jacobian_at_zero_pose(self):
        arm = PlanarArm.default()
        dyn = arm_dynamics(arm, np.zeros(3), np.zeros(3))
        assert np.allclose(dyn.jacobian[0], [0.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(dyn.jacobian[1], [3.0, 2.0, 1.0], atol=1e-15)

    def test_gravity_at_zero_pose(self):
        # torque of each link's weight about the joints for the horizontal arm
        arm = PlanarArm.default()
        dyn = arm_dynamics(arm, np.zeros(3), np.zeros(3))
        assert np.allclose(dyn.gravity, [44.145, 19.62, 4.905], atol=1e-12)

    def test_bias_vanishes_at_rest(self):
        arm = PlanarArm.default()
        q = np.array([0.3, 0.9, 0.9])
        dyn = arm_dynamics(arm, q, np.zeros(3))
        assert np.allclose(dyn.bias, 0.0, atol=1e-15)
        assert np.allclose(dyn.coriolis, 0.0, atol=1e-15)

    def test_mass_matrix_spd(self):
        arm = PlanarArm.default()
        for _ in range(20):
            q, qd = random_arm_state(arm, scale_q=math.pi)
            m = arm_dynamics(arm, q, qd).mass_matrix
            assert np.allclose(m, m.T, atol=1e-13)
            assert np.min(np.linalg.eigvalsh(m)) > 0.0

    def test_mdot_minus_two_coriolis_skew(self):
        arm = PlanarArm.default()
        h = 1e-6
        for _ in range(10):
            q, qd = random_arm_state(arm, scale_q=math.pi)
            dyn = arm_dynamics(arm, q, qd)
            m_plus = arm_dynamics(arm, q + h * qd, qd).mass_matrix
            m_minus = arm_dynamics(arm, q - h * qd, qd).mass_matrix
            mdot = (m_plus - m_minus) / (2 * h)
            s = mdot - 2.0 * dyn.coriolis
            assert np.max(np.abs(s + s.T)) < 1e-6

    def test_jacobian_matches_finite_differences(self):
        arm = PlanarArm.default()
        h = 1e-7
        for _ in range(10):
            q, qd = random_arm_state(arm, scale_q=math.pi)
            jac = arm_dynamics(arm, q, qd).jacobian
            fd = np.zeros((2, 3))
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = h
                fd[:, j] = (
                    forward_kinematics(arm, q + dq) - forward_kinematics(arm, q - dq)
                ) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-6

    def test_jacobian_dot_matches_finite_differences(self):
        arm = PlanarArm.default()
        h = 1e-5
        for _ in range(10):
            q, qd = random_arm_state(arm, scale_q=math.pi)
            jd = arm_dynamics(arm, q, qd).jacobian_dot
            j_plus = arm_dynamics(arm, q + h * qd, qd).jacobian
            j_minus = arm_dynamics(arm, q - h * qd, qd).jacobian
            fd = (j_plus - j_minus) / (2 * h)
            assert np.max(np.abs(jd - fd)) < 1e-4

    def test_bias_equals_coriolis_times_velocity(self):
        arm = PlanarArm.default()
        for _ in range(10):
            q, qd = random_arm_state(arm, scale_q=math.pi)
            dyn = arm_dynamics(arm, q, qd)
            assert np.allclose(dyn.bias, dyn.coriolis @ qd, atol=1e-12)


class TestKinematics:
    def test_stretched_pose(self):
        arm = PlanarArm.default()
        assert np.allclose(forward_kinematics(arm, np.zeros(3)), [3.0, 0.0], atol=1e-15)

    def test_joint_positions_chain(self):
        arm = PlanarArm.default()
        pts = joint_positions(arm, np.zeros(3))
        assert np.allclose(pts, [[0, 0], [1, 0], [2, 0], [3, 0]], atol=1e-15)

    def test_right_angle_pose(self):
        arm = PlanarArm.default()
        q = np.array([math.pi / 2, 0.0, 0.0])
        assert np.allclose(forward_kinematics(arm, q), [0.0, 3.0], atol=1e-12)


class TestEnergyBookkeeping:
    def test_kinetic_energy_is_quadratic_form(self):
        arm = PlanarArm.default()
        q, qd = random_arm_state(arm)
        m = arm_dynamics(arm, q, qd).mass_matrix
        assert kinetic_energy(arm, q, qd) == pytest.approx(0.5 * qd @ m @ qd, rel=1e-12)

    def test_potential_energy_zero_without_gravity(self):
        arm = PlanarArm.default(gravity=(0.0, 0.0))
        q, _ = random_arm_state(arm)
        assert potential_energy(arm, q) == 0.0

    def test_free_swing_conserves_energy(self):
        # no gravity, no torque: total energy drift must stay tiny over 10 s
        arm = PlanarArm.default(gravity=(0.0, 0.0))
        q, qdot = [0.3, 0.9, 0.9], [0.5, -0.4, 0.8]
        e0 = kinetic_energy(arm, q, qdot)
        accel = lambda qq, dd: _arm_accel(arm, [0.0, 0.0, 0.0], qq, dd, None, None)
        for _ in range(10000):
            q, qdot = _advance(q, qdot, accel, 1e-3, "rk4", 0.0)
        e1 = kinetic_energy(arm, q, qdot)
        assert abs(e1 - e0) / e0 < 1e-6


class TestTaskSpace:
    def test_nullspace_annihilates_task_acceleration(self):
        arm = PlanarArm.default()
        for _ in range(20):
            q, qd = random_arm_state(arm, scale_q=1.2)
            q = q + 0.3  # keep clear of the stretched singularity
            dyn = arm_dynamics(arm, q, np.zeros(3))
            ts = task_space_quantities(arm, q, dyn=dyn)
            tau = RNG.uniform(-5, 5, 3)
            resid = dyn.jacobian @ np.linalg.solve(dyn.mass_matrix, ts.nullspace @ tau)
            assert np.linalg.norm(resid) < 1e-10

    def test_lambda_symmetric_positive(self):
        arm = PlanarArm.default()
        q = np.array([0.3, 0.9, 0.9])
        ts = task_space_quantities(arm, q)
        assert np.allclose(ts.lam, ts.lam.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(ts.lam)) > 0.0

    def test_singular_configuration_reported(self):
        # fully stretched arm: the x row of J is identically zero
        arm = PlanarArm.default()
        with pytest.raises(SingularConfigurationError) as e:
            task_space_quantities(arm, np.zeros(3))
        assert e.value.smallest_singular_value < 1e-8

    def test_singular_mass_matrix_raises(self):
        # last link without rotational inertia and with its COM on its joint:
        # the last row of M vanishes
        arm = PlanarArm(
            lengths=(1.0, 1.0, 1.0),
            masses=(1.0, 1.0, 1.0),
            com_offsets=(0.5, 0.5, 0.0),
            inertias=(0.1, 0.1, 0.0),
            gravity=(0.0, -9.81),
            q=np.array([0.3, 0.9, 0.9]),
            qdot=np.zeros(3),
        )
        with pytest.raises(np.linalg.LinAlgError):
            _arm_accel(arm, np.zeros(3), arm.q, arm.qdot, None, None)
        with pytest.raises(np.linalg.LinAlgError):
            task_space_quantities(arm, arm.q)


class TestStepPlant:
    """``_advance``, the one stepping path, driven by acceleration closures."""

    def test_harmonic_oscillator_accuracy(self):
        # unit mass, force -x, from (1, 0): x(t) = cos t, so x(pi/2) = 0
        plant = PointMassPlant(inertia=(1.0,), x=(1.0,), xdot=(0.0,))
        accel = lambda pos, vel: _point_mass_accel(plant, [-pos[0]], pos, vel, None, None)
        dt = math.pi / 2 / 2000
        x, xdot = [1.0], [0.0]
        for _ in range(2000):
            x, xdot = _advance(x, xdot, accel, dt, "rk4", 0.0)
        assert abs(x[0]) <= 1e-6

    def test_semi_implicit_stays_bounded(self):
        plant = PointMassPlant(inertia=(1.0,), x=(1.0,), xdot=(0.0,))
        accel = lambda pos, vel: _point_mass_accel(plant, [-pos[0]], pos, vel, None, None)
        x, xdot = [1.0], [0.0]
        for _ in range(5000):
            x, xdot = _advance(x, xdot, accel, 1e-2, "semi_implicit", 0.0)
        e = 0.5 * xdot[0] ** 2 + 0.5 * x[0] ** 2
        assert 0.3 < e < 0.7

    def test_constant_force_point_mass(self):
        plant = PointMassPlant(inertia=(2.0,), x=(0.0,), xdot=(0.0,))
        accel = lambda pos, vel: _point_mass_accel(plant, [4.0], pos, vel, None, None)
        x, xdot = _advance([0.0], [0.0], accel, 0.5, "rk4", 0.0)
        # a = 2, x = a t^2 / 2 = 0.25, v = 1 for the exact quadratic
        assert x[0] == pytest.approx(0.25, rel=1e-12)
        assert xdot[0] == pytest.approx(1.0, rel=1e-12)

    def test_blowup_reports_time(self):
        plant = PointMassPlant(inertia=(1.0,), x=(1.0,), xdot=(0.0,))
        accel = lambda pos, vel: _point_mass_accel(plant, [pos[0] * 1e200], pos, vel, None, None)
        with pytest.raises(IntegrationBlowupError) as e:
            x, xdot = [1.0], [0.0]
            for _ in range(50):
                x, xdot = _advance(x, xdot, accel, 1.0, "rk4", 0.0)
        assert e.value.time >= 0.0

    def test_arm_step_advances_state(self):
        arm = PlanarArm.default(gravity=(0.0, 0.0))
        arm.q = np.array([0.3, 0.9, 0.9])
        arm.qdot = np.zeros(3)
        accel = lambda qq, dd: _arm_accel(arm, [1.0, 0.0, 0.0], qq, dd, None, None)
        _, qdot = _advance(arm.q.tolist(), arm.qdot.tolist(), accel, 1e-2, "rk4", 0.0)
        assert arm.qdot[0] == 0.0  # the step returns a new state
        assert qdot[0] > 0.0

    @pytest.mark.parametrize("with_wall", [False, True])
    @pytest.mark.parametrize(
        "q, qdot", [((math.inf, 0.3, 0.2), (0.0, 0.0, 0.0)), ((0.3, 0.9, 0.9), (math.inf, 0.0, 0.0))]
    )
    def test_arm_accel_propagates_non_finite_state(self, q, qdot, with_wall):
        # a non-finite result, not an exception, so _advance reports the blowup
        arm = PlanarArm.default()
        wall = ContactWall(axis=0, offset=0.5, stiffness=2000.0, damping=5.0) if with_wall else None
        with np.errstate(all="ignore"):
            qdd = _arm_accel(arm, np.zeros(3), np.array(q), np.array(qdot), wall, np.ones(2))
        assert np.asarray(qdd).shape == (3,)
        assert not np.all(np.isfinite(qdd))

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    def test_given_first_stage_is_bit_identical(self, integrator):
        arm = PlanarArm.default()
        q, qd = np.array([0.3, 0.9, 0.9]), np.array([0.4, -1.0, 2.0])
        tau = np.array([3.0, -1.0, 0.5])
        accel = lambda qq, dd: _arm_accel(arm, tau, qq, dd, None, None)
        want = _advance(q, qd, accel, 1e-3, integrator, 0.0)
        got = _advance(q, qd, accel, 1e-3, integrator, 0.0, accel(q, qd))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _advance_reference(pos, vel, accel, dt, integrator, t, accel0=None):
    """The integrator step written with numpy array expressions: the float
    ``_advance`` must reproduce it bit for bit."""
    if accel0 is None:
        accel0 = accel(pos, vel)
    if integrator == "semi_implicit":
        new_vel = vel + dt * accel0
        new_pos = pos + dt * new_vel
    else:
        k1v, k1a = vel, accel0
        k2v = vel + 0.5 * dt * k1a
        k2a = accel(pos + 0.5 * dt * k1v, k2v)
        k3v = vel + 0.5 * dt * k2a
        k3a = accel(pos + 0.5 * dt * k2v, k3v)
        k4v = vel + dt * k3a
        k4a = accel(pos + dt * k3v, k4v)
        new_pos = pos + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        new_vel = vel + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    if not (np.isfinite(new_pos).all() and np.isfinite(new_vel).all()):
        raise IntegrationBlowupError(t + dt)
    return new_pos, new_vel


def _step_outcome(step, pos, vel, accel, dt, integrator, t, given_first):
    """("ok", bytes of the new state) or ("blowup", time) of one step."""
    accel0 = accel(pos, vel) if given_first else None
    try:
        with np.errstate(all="ignore"):
            new_pos, new_vel = step(pos, vel, accel, dt, integrator, t, accel0)
    except IntegrationBlowupError as exc:
        return "blowup", exc.time
    return "ok", np.asarray(new_pos, float).tobytes() + np.asarray(new_vel, float).tobytes()


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    dt=st.floats(1e-6, 0.1),
    t=st.floats(0.0, 100.0),
    integrator=st.sampled_from(INTEGRATORS),
    given_first=st.booleans(),
    bad_stage=st.sampled_from([None, 0, 1, 2, 3]),
    bad_value=st.sampled_from([math.inf, -math.inf, math.nan]),
)
def test_float_advance_matches_numpy_reference(
    data, n, dt, t, integrator, given_first, bad_stage, bad_value
):
    # a random affine acceleration field a = c + g * pos + b * vel, evaluated in
    # the same float arithmetic for both steps; the stage ``bad_stage`` returns
    # a non-finite component, which both steps must report at the same time
    vec = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    pos, vel, c, g, b = (data.draw(vec) for _ in range(5))

    def field(as_array):
        calls = []

        def accel(pp, vv):
            out = [
                ci + gi * float(pi) + bi * float(vi) for ci, gi, bi, pi, vi in zip(c, g, b, pp, vv)
            ]
            if len(calls) == bad_stage:
                out[-1] = bad_value
            calls.append(1)
            return np.array(out) if as_array else out

        return accel

    want = _step_outcome(
        _advance_reference, np.array(pos), np.array(vel), field(True), dt, integrator, t, given_first
    )
    got = _step_outcome(_advance, pos, vel, field(False), dt, integrator, t, given_first)
    assert got == want
    if bad_stage == 0 or (bad_stage is not None and integrator == "rk4"):
        assert got == ("blowup", t + dt)


class TestContactWall:
    def test_penetration_force(self):
        wall = ContactWall(axis=0, offset=0.5, stiffness=1e4)
        f = contact_force(wall, np.array([0.51, 0.0]), np.zeros(2))
        assert f[0] == pytest.approx(-100.0, rel=1e-12)
        assert f[1] == 0.0

    def test_no_force_outside(self):
        wall = ContactWall(axis=0, offset=0.5, stiffness=1e4)
        f = contact_force(wall, np.array([0.49, 0.0]), np.zeros(2))
        assert np.all(np.asarray(f) == 0.0)

    def test_non_adhesive_clamp(self):
        # damping pulling the mass back in may not create a sticking force
        wall = ContactWall(axis=0, offset=0.5, stiffness=1e4, damping=1e6)
        f = contact_force(wall, np.array([0.501, 0.0]), np.array([-1.0, 0.0]))
        assert f[0] == 0.0

    def test_reversed_direction_wall(self):
        wall = ContactWall(axis=1, offset=-0.2, stiffness=1e3, direction=-1)
        f = contact_force(wall, np.array([0.0, -0.21]), np.zeros(2))
        assert f[1] == pytest.approx(10.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContactWall(axis=0, offset=0.0, stiffness=-1.0)
        with pytest.raises(ValueError):
            ContactWall(axis=0, offset=0.0, stiffness=1.0, direction=2)


class TestPerturbations:
    def test_pulse_window(self):
        prof = PerturbationProfile(
            n_dof=2, pulses=(Pulse(start=1.0, duration=0.5, wrench=(3.0, 0.0)),)
        )
        assert np.allclose(external_wrench(prof, 1.2), [3.0, 0.0])
        assert np.allclose(external_wrench(prof, 0.9), [0.0, 0.0])
        assert np.allclose(external_wrench(prof, 1.6), [0.0, 0.0])

    def test_end_property(self):
        p = Pulse(start=1.0, duration=0.5, wrench=(1.0,))
        assert p.end == pytest.approx(1.5)

    def test_same_axis_overlap_rejected(self):
        with pytest.raises(ValueError):
            PerturbationProfile(
                n_dof=1,
                pulses=(
                    Pulse(start=1.0, duration=0.5, wrench=(1.0,)),
                    Pulse(start=1.2, duration=0.5, wrench=(2.0,)),
                ),
            )

    def test_disjoint_axes_may_overlap(self):
        prof = PerturbationProfile(
            n_dof=2,
            pulses=(
                Pulse(start=1.0, duration=0.5, wrench=(1.0, 0.0)),
                Pulse(start=1.2, duration=0.5, wrench=(0.0, 2.0)),
            ),
        )
        assert np.allclose(external_wrench(prof, 1.3), [1.0, 2.0])

    def test_wrench_length_checked(self):
        with pytest.raises(ValueError):
            PerturbationProfile(
                n_dof=2, pulses=(Pulse(start=0.0, duration=0.1, wrench=(1.0,)),)
            )


class TestPlantValidation:
    def test_point_mass_requires_positive_inertia(self):
        with pytest.raises(ValueError):
            PointMassPlant(inertia=(0.0,), x=(0.0,), xdot=(0.0,))

    def test_point_mass_dim_consistency(self):
        with pytest.raises(ValueError):
            PointMassPlant(inertia=(1.0, 1.0), x=(0.0,), xdot=(0.0, 0.0))

    def test_arm_requires_consistent_link_counts(self):
        with pytest.raises(ValueError):
            PlanarArm(
                lengths=(1.0, 1.0),
                masses=(1.0, 1.0, 1.0),
                com_offsets=(0.5, 0.5, 0.5),
                inertias=(0.1, 0.1, 0.1),
                gravity=(0.0, -9.81),
                q=np.zeros(3),
                qdot=np.zeros(3),
            )
