"""Controller laws: FIC task wrench, baseline impedance, arm torque mapping."""

import numpy as np
import pytest

from fractal_impedance import (
    AttractorState,
    BaselineConfig,
    FicConfig,
    Phase,
    PlanarArm,
    SingularConfigurationError,
    StiffnessParams,
    arm_dynamics,
    baseline_control_torques,
    baseline_impedance_wrench,
    fic_control_torques,
    fic_task_wrench,
    fic_wrench,
    forward_kinematics,
    new_attractor_states,
    null_space_torque,
    task_space_quantities,
)
from fractal_impedance.dynamics import _arm_task_state

RNG = np.random.default_rng(11)


def fic_config(n=1, k_const=0.0, w_max=30.0, x_b=0.1, damping=0.0, **kw):
    return FicConfig(
        stiffness=tuple(StiffnessParams(k_const, w_max, x_b) for _ in range(n)),
        damping=damping,
        **kw,
    )


class TestConfigs:
    def test_damping_broadcasts(self):
        cfg = fic_config(n=2, damping=2.5)
        assert np.allclose(cfg.damping, [2.5, 2.5])
        cfg = fic_config(n=2, damping=(1.0, 2.0))
        assert np.allclose(cfg.damping, [1.0, 2.0])

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            fic_config(damping=-1.0)

    def test_baseline_requires_positive_stiffness(self):
        with pytest.raises(ValueError):
            BaselineConfig(k_d=(0.0,), d_d=1.0)

    def test_n_task(self):
        assert fic_config(n=2).n_task == 2
        assert BaselineConfig(k_d=(100.0, 50.0), d_d=2.5).n_task == 2


class TestFicTaskWrench:
    def test_saturates_at_w_max(self):
        cfg = fic_config()
        res = fic_task_wrench(cfg, new_attractor_states(1), np.array([0.5]), np.array([0.0]))
        assert res.wrench[0] == pytest.approx(30.0, rel=1e-12)

    def test_zero_error_zero_wrench(self):
        cfg = fic_config()
        res = fic_task_wrench(cfg, new_attractor_states(1), np.zeros(1), np.zeros(1))
        assert res.wrench[0] == 0.0

    def test_damping_is_additive(self):
        cfg = fic_config(damping=2.0)
        res = fic_task_wrench(cfg, new_attractor_states(1), np.zeros(1), np.array([-0.3]))
        assert res.wrench[0] == pytest.approx(-0.6, rel=1e-12)

    def test_damping_rate_split_keeps_damping_passive(self):
        # classification sees the full error rate, damping only the measured part
        cfg = fic_config(damping=2.0)
        states = new_attractor_states(1)
        res = fic_task_wrench(
            cfg,
            states,
            np.array([0.05]),
            np.array([-0.2]),
            damping_rate=np.array([0.0]),
        )
        assert res.states[0].phase is Phase.CONVERGENCE
        spring_only = fic_task_wrench(
            cfg, states, np.array([0.05]), np.array([-0.2])
        ).wrench[0] - 2.0 * (-0.2)
        assert res.wrench[0] == pytest.approx(spring_only, rel=1e-12)

    def test_state_count_checked(self):
        cfg = fic_config(n=2)
        with pytest.raises(ValueError):
            fic_task_wrench(cfg, new_attractor_states(1), np.zeros(2), np.zeros(2))

    def test_error_count_checked(self):
        cfg = fic_config(n=2)
        with pytest.raises(ValueError):
            fic_task_wrench(cfg, new_attractor_states(2), np.zeros(1), np.zeros(1))

    def test_spring_path_bounded_in_closed_loop_sweep(self):
        # random walks through both phases never exceed the wrench bound
        cfg = fic_config(x_b=0.05)
        states = new_attractor_states(1)
        x = 0.0
        for _ in range(500):
            x += RNG.uniform(-0.03, 0.03)
            rate = RNG.uniform(-1.0, 1.0)
            res = fic_task_wrench(cfg, states, np.array([x]), np.array([rate]))
            states = res.states
            assert abs(res.wrench[0]) <= 30.0 * (1 + 1e-12)


class TestBaselineWrench:
    def test_pure_stiffness(self):
        cfg = BaselineConfig(k_d=(100.0,), d_d=0.0)
        w = baseline_impedance_wrench(cfg, np.array([0.1]), np.array([0.0]))
        assert w[0] == pytest.approx(10.0, rel=1e-12)

    def test_zero_state(self):
        cfg = BaselineConfig(k_d=(100.0,), d_d=2.5)
        w = baseline_impedance_wrench(cfg, np.zeros(1), np.zeros(1))
        assert w[0] == 0.0

    def test_stiffness_plus_damping(self):
        cfg = BaselineConfig(k_d=(150.0,), d_d=2.5)
        w = baseline_impedance_wrench(cfg, np.array([0.02]), np.array([-0.1]))
        assert w[0] == pytest.approx(2.75, rel=1e-12)


class TestNullSpaceTorque:
    def test_zero_at_target_rest(self):
        q = np.array([0.3, 0.9, 0.9])
        tau = null_space_torque(q, np.zeros(3), q, (5.0, 1.0))
        assert np.allclose(tau, 0.0)

    def test_proportional_pull(self):
        target = np.zeros(3)
        q = np.array([0.0, 0.1, 0.0])
        tau = null_space_torque(q, np.zeros(3), target, (4.0, 0.0))
        assert tau[1] == pytest.approx(-0.4, rel=1e-12)
        assert tau[0] == tau[2] == 0.0

    def test_zero_gains(self):
        tau = null_space_torque(np.ones(3), np.ones(3), np.zeros(3), (0.0, 0.0))
        assert np.allclose(tau, 0.0)

    def test_no_target_means_no_torque(self):
        tau = null_space_torque(np.ones(3), np.zeros(3), None, (4.0, 0.0))
        assert np.allclose(tau, 0.0)


def arm_at(q, qdot=None):
    arm = PlanarArm.default()
    arm.q = np.asarray(q, dtype=float)
    arm.qdot = np.zeros(3) if qdot is None else np.asarray(qdot, dtype=float)
    return arm


class TestArmTorques:
    def test_at_target_rest_only_gravity_remains(self):
        arm = arm_at([0.3, 0.9, 0.9])
        x_target = forward_kinematics(arm, arm.q)
        cfg = fic_config(n=2)
        res = fic_control_torques(arm, x_target, new_attractor_states(2), cfg)
        dyn = arm_dynamics(arm, arm.q, arm.qdot)
        assert np.allclose(res.wrench, 0.0, atol=1e-12)
        assert np.allclose(res.torques, dyn.gravity, atol=1e-9)

    def test_null_torque_does_not_change_task_wrench(self):
        # compare delivered task acceleration with and without posture torque
        arm = arm_at([0.3, 0.9, 0.9], [0.2, -0.1, 0.4])
        x_target = forward_kinematics(arm, arm.q) + np.array([0.05, -0.03])
        base = fic_config(n=2, damping=1.0)
        with_null = FicConfig(
            stiffness=base.stiffness,
            damping=1.0,
            posture_target=(0.0, 0.5, 0.5),
            posture_gains=(8.0, 2.0),
        )
        dyn = arm_dynamics(arm, arm.q, arm.qdot)
        t0 = fic_control_torques(arm, x_target, new_attractor_states(2), base).torques
        t1 = fic_control_torques(arm, x_target, new_attractor_states(2), with_null).torques
        diff = dyn.jacobian @ np.linalg.solve(dyn.mass_matrix, np.subtract(t1, t0))
        assert np.linalg.norm(diff) < 1e-8

    def test_tick_reads_the_sample_not_the_plant(self):
        # the loop hands the tick its sample and writes nothing to the plant
        arm = arm_at([0.3, 0.9, 0.9], [0.2, -0.1, 0.4])
        sample = _arm_task_state(arm, arm.q, arm.qdot)
        x_target = forward_kinematics(arm, arm.q) + np.array([0.05, -0.03])
        cfg = FicConfig(
            stiffness=fic_config(n=2).stiffness,
            damping=1.0,
            posture_target=(0.0, 0.5, 0.5),
            posture_gains=(8.0, 2.0),
        )
        states = new_attractor_states(2)
        want = fic_control_torques(arm, x_target, states, cfg, sample=sample).torques
        arm.q, arm.qdot = np.full(3, np.nan), np.full(3, np.nan)
        got = fic_control_torques(arm, x_target, states, cfg, sample=sample).torques
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, want)

    def test_baseline_same_compensation_path(self):
        arm = arm_at([0.3, 0.9, 0.9])
        x_target = forward_kinematics(arm, arm.q)
        cfg = BaselineConfig(k_d=(100.0, 100.0), d_d=2.5)
        res = baseline_control_torques(arm, x_target, cfg)
        dyn = arm_dynamics(arm, arm.q, arm.qdot)
        assert np.allclose(res.torques, dyn.gravity, atol=1e-9)

    def test_singular_pose_raises(self):
        arm = arm_at([0.0, 0.0, 0.0])
        cfg = fic_config(n=2)
        with pytest.raises(SingularConfigurationError):
            fic_control_torques(arm, np.array([3.1, 0.0]), new_attractor_states(2), cfg)

    def test_moving_reference_rate_enters_classification(self):
        # receding target, arm at rest: with the feedforward rate the error is
        # growing, so the phase must stay divergence and the wrench nonzero
        arm = arm_at([0.3, 0.9, 0.9])
        x = forward_kinematics(arm, arm.q)
        cfg = fic_config(n=2, k_const=100.0)
        states = new_attractor_states(2)
        states = fic_control_torques(arm, x, states, cfg).states
        x_target = x + np.array([0.01, 0.0])
        res = fic_control_torques(
            arm, x_target, states, cfg, target_rate=np.array([0.05, 0.0])
        )
        assert res.states[0].phase is Phase.DIVERGENCE
        assert res.wrench[0] > 0.5


class TestDegenerateEquivalence:
    def test_switchless_fic_matches_linear_baseline_near_origin(self):
        # the Divergence law alone, with tiny errors: k_d ~ k_const + 1
        k_const, damping = 100.0, 2.5
        params = StiffnessParams(k_const, 30.0, 0.1)
        base = BaselineConfig(k_d=(k_const + 1.0,), d_d=damping)
        for x in (0.001, 0.003, -0.002):
            for rate in (0.0, 0.05, -0.1):
                w_fic = fic_wrench(AttractorState(), params, x) + damping * rate
                w_base = baseline_impedance_wrench(base, [x], [rate])[0]
                assert w_fic == pytest.approx(w_base, rel=0.01)
