"""Controller laws: FIC task wrench, baseline impedance, arm torque mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    task_space_quantities,
    update_attractor,
)
from fractal_impedance.controllers import _posture_torque
from fractal_impedance.dynamics import _arm_task_state
from fractal_impedance.fic_core import DEFAULT_RATE_TOL

RNG = np.random.default_rng(11)
NAN, INF = float("nan"), float("inf")


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

    @pytest.mark.parametrize(
        "config, kwargs",
        [
            pytest.param(fic_config, {"damping": NAN}, id="fic-damping-nan"),
            pytest.param(fic_config, {"damping": INF}, id="fic-damping-inf"),
            pytest.param(fic_config, {"n": 2, "damping": (1.0, NAN)}, id="fic-damping-dof-nan"),
            pytest.param(fic_config, {"damping": ((1.0,),)}, id="fic-damping-nested"),
            pytest.param(fic_config, {"posture_gains": (NAN, 0.0)}, id="fic-posture-nan"),
            pytest.param(fic_config, {"posture_gains": (0.0, INF)}, id="fic-posture-inf"),
            pytest.param(BaselineConfig, {"k_d": NAN, "d_d": 1.0}, id="base-k_d-nan"),
            pytest.param(BaselineConfig, {"k_d": (100.0, INF), "d_d": 1.0}, id="base-k_d-inf"),
            pytest.param(
                BaselineConfig, {"k_d": ((100.0, 50.0),), "d_d": 1.0}, id="base-k_d-nested"
            ),
            pytest.param(BaselineConfig, {"k_d": 100.0, "d_d": NAN}, id="base-d_d-nan"),
            pytest.param(BaselineConfig, {"k_d": 100.0, "d_d": INF}, id="base-d_d-inf"),
            pytest.param(
                BaselineConfig,
                {"k_d": 100.0, "d_d": 1.0, "posture_gains": (NAN, 0.0)},
                id="base-posture-nan",
            ),
        ],
    )
    def test_non_finite_or_nested_gains_rejected(self, config, kwargs):
        # a ValueError, not a config that carries NaN or inf, nor a bare TypeError
        with pytest.raises(ValueError):
            config(**kwargs)

    @pytest.mark.parametrize(
        "config, kwargs, field",
        [
            pytest.param(fic_config, {"damping": "5"}, "damping", id="fic-damping-str"),
            pytest.param(BaselineConfig, {"k_d": (True,), "d_d": 1.0}, "k_d", id="base-k_d-bool"),
            pytest.param(
                fic_config, {"posture_gains": ("1", "0")}, "posture_gains", id="fic-posture-str"
            ),
        ],
    )
    def test_non_number_named(self, config, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be a number, got "):
            config(**kwargs)


class TestFicTaskWrench:
    def test_saturates_at_w_max(self):
        cfg = fic_config()
        zero = np.zeros(1)
        res = fic_task_wrench(cfg, new_attractor_states(1), np.array([0.5]), zero, zero, zero)
        assert res[0][0] == pytest.approx(30.0, rel=1e-12)

    def test_zero_error_zero_wrench(self):
        cfg = fic_config()
        zero = np.zeros(1)
        res = fic_task_wrench(cfg, new_attractor_states(1), zero, zero, zero, zero)
        assert res[0][0] == 0.0

    def test_damping_is_additive(self):
        cfg = fic_config(damping=2.0)
        zero, xdot = np.zeros(1), np.array([0.3])
        res = fic_task_wrench(cfg, new_attractor_states(1), zero, zero, zero, xdot)
        assert res[0][0] == pytest.approx(-0.6, rel=1e-12)

    def test_damping_rate_split_keeps_damping_passive(self):
        # classification sees the full error rate, damping only the measured part
        cfg = fic_config(damping=2.0)
        states = new_attractor_states(1)
        zero, x_d = np.zeros(1), np.array([0.05])
        # a reference receding at -0.2 from a plant at rest
        wrench, new_states, flags = fic_task_wrench(cfg, states, x_d, np.array([-0.2]), zero, zero)
        assert new_states[0].phase is Phase.CONVERGENCE and flags == [0]
        spring_only = fic_task_wrench(
            cfg, states, x_d, zero, zero, np.array([0.2])
        )[0][0] - 2.0 * (-0.2)
        assert wrench[0] == pytest.approx(spring_only, rel=1e-12)

    def test_state_count_checked(self):
        cfg = fic_config(n=2)
        zero = np.zeros(2)
        with pytest.raises(ValueError):
            fic_task_wrench(cfg, new_attractor_states(1), zero, zero, zero, zero)

    def test_error_count_checked(self):
        cfg = fic_config(n=2)
        zero = np.zeros(1)
        with pytest.raises(ValueError):
            fic_task_wrench(cfg, new_attractor_states(2), zero, zero, zero, zero)

    # the ids name the per-DoF rate that the short input leaves short: the
    # reference rate enters the error rate only, xdot the damping rate too
    @pytest.mark.parametrize("short", ["xd_rate", "xdot"], ids=["x_err_rate", "damping_rate"])
    def test_rate_counts_checked(self, short):
        cfg = fic_config(n=2)
        inputs = {name: np.zeros(2) for name in ("x_d", "xd_rate", "x", "xdot")}
        inputs[short] = np.zeros(1)
        with pytest.raises(ValueError):
            fic_task_wrench(cfg, new_attractor_states(2), **inputs)

    def test_spring_path_bounded_in_closed_loop_sweep(self):
        # random walks through both phases never exceed the wrench bound
        cfg = fic_config(x_b=0.05)
        states = new_attractor_states(1)
        x = 0.0
        zero = np.zeros(1)
        for _ in range(500):
            x += RNG.uniform(-0.03, 0.03)
            xdot = np.array([RNG.uniform(-1.0, 1.0)])
            wrench, states, _ = fic_task_wrench(cfg, states, zero, zero, np.array([x]), xdot)
            assert abs(wrench[0]) <= 30.0 * (1 + 1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_fic_task_wrench_is_the_per_dof_composition(data, n):
    # random gains and attractor states (either phase), then one tick on a
    # reference (x_d, xd_rate) and a measured state (x, xdot): per DoF, the
    # wrench is fic_wrench(update_attractor(...)) + damping * -xdot bit for
    # bit, the flags are the new states' s flags, and the baseline on the
    # same inputs is k (x_d - x) + d (-xdot); from float lists and numpy
    # arrays alike
    vec = st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)
    gains = st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)
    k_const, damping = data.draw(gains), data.draw(gains)
    cfg = FicConfig(tuple(StiffnessParams(k, 30.0, 0.1) for k in k_const), tuple(damping))
    first_err, first_rate, x_d, xd_rate, x, xdot = (data.draw(vec) for _ in range(6))
    states = tuple(
        update_attractor(AttractorState(), p, e, r, rate_tol=DEFAULT_RATE_TOL)
        for p, e, r in zip(cfg.stiffness, first_err, first_rate)
    )
    err = [a - b for a, b in zip(x_d, x)]
    want_states = tuple(
        update_attractor(s, p, e, r - v, rate_tol=DEFAULT_RATE_TOL)
        for s, p, e, r, v in zip(states, cfg.stiffness, err, xd_rate, xdot)
    )
    want_wrench = [
        fic_wrench(s, p, e) + d * -v
        for s, p, e, d, v in zip(want_states, cfg.stiffness, err, damping, xdot)
    ]
    k_d = [k + 1.0 for k in k_const]  # the baseline needs positive stiffness
    base = BaselineConfig(tuple(k_d), tuple(damping))
    want_base = [k * e + d * -v for k, d, e, v in zip(k_d, damping, err, xdot)]
    for as_input in (list, np.array):
        inputs = [as_input(u) for u in (x_d, xd_rate, x, xdot)]
        wrench, new_states, flags = fic_task_wrench(cfg, states, *inputs)
        assert np.array(wrench).tobytes() == np.array(want_wrench).tobytes()
        assert new_states == want_states
        assert flags == [s.phase.value for s in new_states]
        got_base = baseline_impedance_wrench(base, inputs[0], inputs[2], inputs[3])
        assert np.array(got_base).tobytes() == np.array(want_base).tobytes()


class TestBaselineWrench:
    def test_pure_stiffness(self):
        cfg = BaselineConfig(k_d=(100.0,), d_d=0.0)
        zero = np.zeros(1)
        w = baseline_impedance_wrench(cfg, np.array([0.1]), zero, zero)
        assert w[0] == pytest.approx(10.0, rel=1e-12)

    def test_zero_state(self):
        cfg = BaselineConfig(k_d=(100.0,), d_d=2.5)
        w = baseline_impedance_wrench(cfg, np.zeros(1), np.zeros(1), np.zeros(1))
        assert w[0] == 0.0

    def test_stiffness_plus_damping(self):
        cfg = BaselineConfig(k_d=(150.0,), d_d=2.5)
        w = baseline_impedance_wrench(cfg, np.array([0.02]), np.zeros(1), np.array([0.1]))
        assert w[0] == pytest.approx(2.75, rel=1e-12)


class TestNullSpaceTorque:
    """The posture law the arm tick projects into the null space."""

    def test_zero_at_target_rest(self):
        q = np.array([0.3, 0.9, 0.9])
        tau = _posture_torque(q, np.zeros(3), q, (5.0, 1.0))
        assert np.allclose(tau, 0.0)

    def test_proportional_pull(self):
        target = np.zeros(3)
        q = np.array([0.0, 0.1, 0.0])
        tau = _posture_torque(q, np.zeros(3), target, (4.0, 0.0))
        assert tau[1] == pytest.approx(-0.4, rel=1e-12)
        assert tau[0] == tau[2] == 0.0

    def test_zero_gains(self):
        tau = _posture_torque(np.ones(3), np.ones(3), np.zeros(3), (0.0, 0.0))
        assert np.allclose(tau, 0.0)

    def test_no_target_means_no_torque(self):
        tau = _posture_torque(np.ones(3), np.zeros(3), None, (4.0, 0.0))
        assert np.allclose(tau, 0.0)

    @pytest.mark.parametrize("bad", [NAN, INF, -1.0])
    @pytest.mark.parametrize("which", ["kp", "kd"])
    def test_rejects_non_finite_or_negative_gains(self, which, bad):
        # the law runs unchecked; both configs reject its gains
        gains = (bad, 0.0) if which == "kp" else (0.0, bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            fic_config(posture_target=(0.0, 0.0, 0.0), posture_gains=gains)
        with pytest.raises(ValueError, match="finite and non-negative"):
            BaselineConfig(k_d=1.0, d_d=0.0, posture_target=(0.0, 0.0, 0.0), posture_gains=gains)


ARM = PlanarArm.default()


def arm_state(q, qdot=(0.0, 0.0, 0.0)):
    """An arm state as arrays and the sample a tick acts on."""
    q, qdot = np.asarray(q, dtype=float), np.asarray(qdot, dtype=float)
    return q, qdot, _arm_task_state(ARM, q, qdot)


class TestArmTorques:
    def test_at_target_rest_only_gravity_remains(self):
        q, qdot, sample = arm_state([0.3, 0.9, 0.9])
        x_target = forward_kinematics(ARM, q)
        cfg = fic_config(n=2)
        res = fic_control_torques(ARM, x_target, new_attractor_states(2), cfg, sample=sample)
        dyn = arm_dynamics(ARM, q, qdot)
        assert np.allclose(res.wrench, 0.0, atol=1e-12)
        assert np.allclose(res.torques, dyn.gravity, atol=1e-9)

    def test_null_torque_does_not_change_task_wrench(self):
        # compare delivered task acceleration with and without posture torque
        q, qdot, sample = arm_state([0.3, 0.9, 0.9], [0.2, -0.1, 0.4])
        x_target = forward_kinematics(ARM, q) + np.array([0.05, -0.03])
        base = fic_config(n=2, damping=1.0)
        with_null = FicConfig(
            stiffness=base.stiffness,
            damping=1.0,
            posture_target=(0.0, 0.5, 0.5),
            posture_gains=(8.0, 2.0),
        )
        dyn = arm_dynamics(ARM, q, qdot)
        states = new_attractor_states(2)
        t0 = fic_control_torques(ARM, x_target, states, base, sample=sample).torques
        t1 = fic_control_torques(ARM, x_target, states, with_null, sample=sample).torques
        diff = dyn.jacobian @ np.linalg.solve(dyn.mass_matrix, np.subtract(t1, t0))
        assert np.linalg.norm(diff) < 1e-8

    def test_baseline_same_compensation_path(self):
        q, qdot, sample = arm_state([0.3, 0.9, 0.9])
        x_target = forward_kinematics(ARM, q)
        cfg = BaselineConfig(k_d=(100.0, 100.0), d_d=2.5)
        res = baseline_control_torques(ARM, x_target, cfg, sample=sample)
        dyn = arm_dynamics(ARM, q, qdot)
        assert np.allclose(res.torques, dyn.gravity, atol=1e-9)

    def test_singular_pose_raises(self):
        # the sample a tick needs cannot be built at a stretched arm
        with pytest.raises(SingularConfigurationError):
            arm_state([0.0, 0.0, 0.0])

    def test_moving_reference_rate_enters_classification(self):
        # receding target, arm at rest: with the feedforward rate the error is
        # growing, so the phase must stay divergence and the wrench nonzero
        q, _, sample = arm_state([0.3, 0.9, 0.9])
        x = forward_kinematics(ARM, q)
        cfg = fic_config(n=2, k_const=100.0)
        states = new_attractor_states(2)
        states = fic_control_torques(ARM, x, states, cfg, sample=sample).states
        x_target = x + np.array([0.01, 0.0])
        res = fic_control_torques(
            ARM, x_target, states, cfg, target_rate=np.array([0.05, 0.0]), sample=sample
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
                w_base = baseline_impedance_wrench(base, [x], [0.0], [-rate])[0]
                assert w_fic == pytest.approx(w_base, rel=0.01)
