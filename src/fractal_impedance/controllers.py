"""Controller assembly: per-DoF FIC wrenches into joint torques, plus the
constant-gain impedance baseline.

Conventions shared by both controllers: the reference is a pose only, so the
error rate is the negative measured velocity and damping acts against it
(passive damping). For the arm, gravity is compensated in joint space after
the Jacobian-transpose map, and the operational-space velocity-product
compensation Lam (J M^-1 C qd - Jd qd) is added to the task wrench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ArmSample, PlanarArm, _arm_drift, _arm_task_state

# Unused by the tick, which reads the sample; bound here so the benchmark's
# controllers -> dynamics hooks (bench/tracing.py) still resolve.
from .dynamics import arm_dynamics, forward_kinematics, task_space_quantities  # noqa: F401
from .fic_core import (
    DEFAULT_RATE_TOL,
    AttractorState,
    StiffnessParams,
    fic_wrench,
    update_attractor,
)

__all__ = [
    "FicConfig",
    "BaselineConfig",
    "ControlResult",
    "new_attractor_states",
    "fic_task_wrench",
    "fic_control_torques",
    "baseline_impedance_wrench",
    "baseline_control_torques",
    "null_space_torque",
]


@dataclass(frozen=True)
class FicConfig:
    """Per-DoF FIC parameters for one plant.

    ``switch_enabled=False`` pins every DoF in Divergence; used only by
    regression tests comparing against the constant-gain baseline.
    """

    stiffness: tuple[StiffnessParams, ...]
    damping: np.ndarray
    posture_target: np.ndarray | None = None
    posture_gains: tuple[float, float] = (0.0, 0.0)
    rate_tol: float = DEFAULT_RATE_TOL
    switch_enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "stiffness", tuple(self.stiffness))
        damping = np.atleast_1d(np.asarray(self.damping, dtype=float))
        if damping.shape == (1,) and len(self.stiffness) > 1:
            damping = np.full(len(self.stiffness), damping[0])
        if damping.shape != (len(self.stiffness),):
            raise ValueError("damping must provide one value per task DoF")
        if np.any(damping < 0.0):
            raise ValueError("damping must be non-negative")
        object.__setattr__(self, "damping", damping)
        if self.posture_target is not None:
            object.__setattr__(
                self, "posture_target", np.asarray(self.posture_target, dtype=float)
            )
        kp, kd = self.posture_gains
        if kp < 0.0 or kd < 0.0:
            raise ValueError("posture gains must be non-negative")

    @property
    def n_task(self) -> int:
        return len(self.stiffness)


@dataclass(frozen=True)
class BaselineConfig:
    """Constant-gain impedance controller: wrench = K x_err + D x_err_rate."""

    k_d: np.ndarray
    d_d: np.ndarray
    posture_target: np.ndarray | None = None
    posture_gains: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        k_d = np.atleast_1d(np.asarray(self.k_d, dtype=float))
        d_d = np.atleast_1d(np.asarray(self.d_d, dtype=float))
        if d_d.shape == (1,) and k_d.shape[0] > 1:
            d_d = np.full(k_d.shape[0], d_d[0])
        if k_d.shape != d_d.shape:
            raise ValueError("k_d and d_d must match in length")
        if np.any(k_d <= 0.0) or np.any(d_d < 0.0):
            raise ValueError("baseline needs k_d > 0 and d_d >= 0")
        object.__setattr__(self, "k_d", k_d)
        object.__setattr__(self, "d_d", d_d)
        if self.posture_target is not None:
            object.__setattr__(
                self, "posture_target", np.asarray(self.posture_target, dtype=float)
            )

    @property
    def n_task(self) -> int:
        return self.k_d.shape[0]


@dataclass(frozen=True)
class ControlResult:
    """One controller tick: joint torques (arm only), per-DoF task wrench and
    the attractor states after the tick."""

    wrench: np.ndarray
    states: tuple[AttractorState, ...]
    torques: np.ndarray | None = None


def new_attractor_states(n_task: int) -> tuple[AttractorState, ...]:
    return tuple(AttractorState() for _ in range(n_task))


def fic_task_wrench(
    config: FicConfig,
    states: tuple[AttractorState, ...],
    x_err: np.ndarray,
    x_err_rate: np.ndarray,
    damping_rate: np.ndarray | None = None,
) -> ControlResult:
    """Per-DoF FIC wrench (spring path + passive damping) for one tick.

    ``x_err_rate`` drives the divergence/convergence classification and is the
    full error rate xd_dot - xdot. Damping stays passive: it acts on
    ``damping_rate`` (measured -xdot), defaulting to ``x_err_rate``, which is
    the same thing whenever the reference is static.
    """
    if len(states) != config.n_task:
        raise ValueError("one attractor state per task DoF required")
    d_rate = x_err_rate if damping_rate is None else damping_rate
    wrench = np.zeros(config.n_task)
    new_states = []
    for i, (params, state) in enumerate(zip(config.stiffness, states)):
        if config.switch_enabled:
            state = update_attractor(
                state, params, float(x_err[i]), float(x_err_rate[i]), rate_tol=config.rate_tol
            )
        new_states.append(state)
        wrench[i] = fic_wrench(state, params, float(x_err[i])) + config.damping[i] * float(
            d_rate[i]
        )
    return ControlResult(wrench=wrench, states=tuple(new_states))


def baseline_impedance_wrench(
    config: BaselineConfig, x_err: np.ndarray, x_err_rate: np.ndarray
) -> np.ndarray:
    return config.k_d * np.asarray(x_err, dtype=float) + config.d_d * np.asarray(
        x_err_rate, dtype=float
    )


def null_space_torque(
    q: np.ndarray,
    qdot: np.ndarray,
    posture_target: np.ndarray | None,
    gains: tuple[float, float],
) -> np.ndarray:
    """Joint-space PD toward a posture; projected by the caller."""
    q = np.asarray(q, dtype=float)
    if posture_target is None:
        return np.zeros_like(q)
    kp, kd = gains
    if kp < 0.0 or kd < 0.0:
        raise ValueError("posture gains must be non-negative")
    return kp * (np.asarray(posture_target, dtype=float) - q) - kd * np.asarray(
        qdot, dtype=float
    )


def _arm_tick(
    arm: PlanarArm,
    x_target: np.ndarray,
    config: FicConfig | BaselineConfig,
    law,
    target_rate: np.ndarray | None = None,
    sample: ArmSample | None = None,
) -> ControlResult:
    """One arm tick around a task wrench law; both controllers share it.

    ``law(x_err, x_err_rate, damping_rate)`` returns the tick's wrench and
    attractor states as a ControlResult; the wrench is mapped to joint torques
    with dynamics compensation:

    tau = J^T (w_task + Lam ((M^-1 J^T)^T C qd - Jd qd)) + G + N tau_null

    Every arm term comes from ``sample``, the evaluation of the arm at
    (arm.q, arm.qdot); it is built here when the caller has none.
    """
    if sample is None:
        sample = _arm_task_state(arm, arm.q, arm.qdot)
    x_err = np.asarray(x_target, dtype=float) - sample.x
    damping_rate = -sample.xdot
    x_err_rate = damping_rate
    if target_rate is not None:
        x_err_rate = damping_rate + np.asarray(target_rate, dtype=float)
    result = law(x_err, x_err_rate, damping_rate)
    tau_null = null_space_torque(arm.q, arm.qdot, config.posture_target, config.posture_gains)
    gravity, bias, jdot_qdot = _arm_drift(arm, sample.kernel, arm.qdot)
    ts = sample.task
    comp = ts.lam @ (sample.minv_jt.T @ bias - jdot_qdot)
    *_, jac = sample.kernel
    torques = jac.T @ (result.wrench + comp) + gravity + ts.nullspace @ tau_null
    return ControlResult(wrench=result.wrench, states=result.states, torques=torques)


def fic_control_torques(
    arm: PlanarArm,
    x_target: np.ndarray,
    states: tuple[AttractorState, ...],
    config: FicConfig,
    target_rate: np.ndarray | None = None,
    sample: ArmSample | None = None,
) -> ControlResult:
    """One FIC tick on the arm.

    ``target_rate`` is the reference velocity; omitting it for a moving
    reference misclassifies a growing error as converging. ``sample`` is
    ``_arm_task_state(arm, arm.q, arm.qdot)`` when the caller has it.

    Raises:
        SingularConfigurationError: from the task-space test when the tick
            builds its own sample.
    """

    def law(x_err, x_err_rate, damping_rate):
        return fic_task_wrench(config, states, x_err, x_err_rate, damping_rate=damping_rate)

    return _arm_tick(arm, x_target, config, law, target_rate, sample)


def baseline_control_torques(
    arm: PlanarArm,
    x_target: np.ndarray,
    config: BaselineConfig,
    sample: ArmSample | None = None,
) -> ControlResult:
    """One baseline tick on the arm; same compensation path as the FIC.

    The error rate is measured-velocity only: the baseline law is defined
    with zero desired velocity. ``sample`` is as for ``fic_control_torques``.
    """

    def law(x_err, x_err_rate, _damping_rate):
        return ControlResult(baseline_impedance_wrench(config, x_err, x_err_rate), ())

    return _arm_tick(arm, x_target, config, law, sample=sample)
