"""Controller assembly: per-DoF FIC wrenches into joint torques, plus the
constant-gain impedance baseline.

Conventions shared by both controllers: the reference is a pose only, so the
error rate is the negative measured velocity and damping acts against it
(passive damping). For the arm, gravity is compensated in joint space after
the Jacobian-transpose map, and the operational-space velocity-product
compensation Lam (J M^-1 C qd - Jd qd) is added to the task wrench.

The laws take sequences and return lists of Python floats, the episode loop's
own types. An arm tick reads its state and every arm term from one
``dynamics.ArmSample``, never from the plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ArmSample, PlanarArm, _arm_drift, _arm_task_state, _dot
from .dynamics import arm_dynamics, forward_kinematics, task_space_quantities  # noqa: F401 (bench hook)
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


def _per_dof(value, d: int, name: str) -> tuple:
    """A scalar (broadcast) or one value per DoF, as a tuple of d floats."""
    try:
        vals = tuple(map(float, value))
    except TypeError:  # a scalar
        return (float(value),) * d
    if len(vals) != d:
        raise ValueError(f"{name}: expected scalar or {d} entries")
    return vals


def _set_posture(config) -> None:
    """The posture target and gains as float tuples; the gains checked."""
    if config.posture_target is not None:
        object.__setattr__(config, "posture_target", tuple(map(float, config.posture_target)))
    kp, kd = config.posture_gains
    if kp < 0.0 or kd < 0.0:
        raise ValueError("posture gains must be non-negative")
    object.__setattr__(config, "posture_gains", (float(kp), float(kd)))


@dataclass(frozen=True)
class FicConfig:
    """Per-DoF FIC parameters for one plant."""

    stiffness: tuple[StiffnessParams, ...]
    damping: tuple[float, ...]
    posture_target: tuple[float, ...] | None = None
    posture_gains: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stiffness", tuple(self.stiffness))
        damping = _per_dof(self.damping, len(self.stiffness), "damping")
        if any(v < 0.0 for v in damping):
            raise ValueError("damping must be non-negative")
        object.__setattr__(self, "damping", damping)
        _set_posture(self)

    @property
    def n_task(self) -> int:
        return len(self.stiffness)


@dataclass(frozen=True)
class BaselineConfig:
    """Constant-gain impedance controller: wrench = K x_err + D x_err_rate."""

    k_d: tuple[float, ...]
    d_d: tuple[float, ...]
    posture_target: tuple[float, ...] | None = None
    posture_gains: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        k_d = tuple(np.atleast_1d(np.asarray(self.k_d, dtype=float)).tolist())
        d_d = _per_dof(self.d_d, len(k_d), "d_d")
        if any(v <= 0.0 for v in k_d) or any(v < 0.0 for v in d_d):
            raise ValueError("baseline needs k_d > 0 and d_d >= 0")
        object.__setattr__(self, "k_d", k_d)
        object.__setattr__(self, "d_d", d_d)
        _set_posture(self)

    @property
    def n_task(self) -> int:
        return len(self.k_d)


class ControlResult(NamedTuple):
    """One controller tick: per-DoF task wrench, the attractor states after
    the tick and joint torques (arm only), as floats."""

    wrench: list
    states: tuple[AttractorState, ...]
    torques: list | None = None


def new_attractor_states(n_task: int) -> tuple[AttractorState, ...]:
    return tuple(AttractorState() for _ in range(n_task))


def fic_task_wrench(
    config: FicConfig, states: tuple[AttractorState, ...], x_err, x_err_rate, damping_rate=None
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
    wrench, new_states = [], []
    for params, state, damping, err, rate, d_r in zip(
        config.stiffness, states, config.damping, x_err, x_err_rate, d_rate, strict=True
    ):
        err = float(err)
        state = update_attractor(state, params, err, float(rate), rate_tol=DEFAULT_RATE_TOL)
        new_states.append(state)
        wrench.append(fic_wrench(state, params, err) + damping * float(d_r))
    return ControlResult(wrench, tuple(new_states))


def baseline_impedance_wrench(config: BaselineConfig, x_err, x_err_rate) -> list:
    terms = zip(config.k_d, config.d_d, x_err, x_err_rate, strict=True)
    return [k * e + d * r for k, d, e, r in terms]


def null_space_torque(q, qdot, posture_target, gains: tuple[float, float]) -> list:
    """Joint-space PD toward a posture; projected by the caller."""
    if posture_target is None:
        return [0.0] * len(q)
    kp, kd = gains
    if kp < 0.0 or kd < 0.0:
        raise ValueError("posture gains must be non-negative")
    return [kp * (p - a) - kd * v for p, a, v in zip(posture_target, q, qdot, strict=True)]


def _arm_torques(arm: PlanarArm, sample: ArmSample, wrench, posture_target, posture_gains) -> list:
    """Joint torques for a task wrench at the sample's state, with dynamics
    compensation and the null-space posture torque tau_null:

    tau = J^T (w + Lam ((M^-1 J^T)^T (C qd - tau_null) - Jd qd)) + G + tau_null

    that is J^T (w + Lam ((M^-1 J^T)^T C qd - Jd qd)) + G + N tau_null, with
    N = I - J^T Lam (M^-1 J^T)^T folded into the task term, unformed.
    """
    tau_null = null_space_torque(sample.q, sample.qdot, posture_target, posture_gains)
    gravity, bias, (a0, a1) = _arm_drift(arm, sample.kernel, sample.qdot)
    r = [b - t for b, t in zip(bias, tau_null)]
    mx, my = sample.minv_jt
    u0, u1 = _dot(mx, r) - a0, _dot(my, r) - a1
    (l00, l01), (l10, l11) = sample.lam
    f0 = wrench[0] + (l00 * u0 + l01 * u1)
    f1 = wrench[1] + (l10 * u0 + l11 * u1)
    jx, jy = sample.kernel[4]
    return [x * f0 + y * f1 + g + t for x, y, g, t in zip(jx, jy, gravity, tau_null)]


def _task_errors(sample: ArmSample, x_target, target_rate=None):
    """The pose error, the full error rate and the measured damping rate."""
    x_err = [a - b for a, b in zip(x_target, sample.x)]
    damping_rate = [-v for v in sample.xdot]
    if target_rate is None:
        return x_err, damping_rate, damping_rate
    return x_err, [r - v for r, v in zip(target_rate, sample.xdot)], damping_rate


def fic_control_torques(
    arm: PlanarArm,
    x_target,
    states: tuple[AttractorState, ...],
    config: FicConfig,
    target_rate=None,
    sample: ArmSample | None = None,
) -> ControlResult:
    """One FIC tick on the arm.

    ``target_rate`` is the reference velocity; omitting it for a moving
    reference misclassifies a growing error as converging. ``sample`` is
    ``_arm_task_state(arm, arm.q, arm.qdot)`` when the caller has it; the
    tick reads the state from the sample, not from ``arm``.

    Raises:
        SingularConfigurationError: from the task-space test when the tick
            builds its own sample.
    """
    if sample is None:
        sample = _arm_task_state(arm, arm.q, arm.qdot)
    x_err, x_err_rate, damping_rate = _task_errors(sample, x_target, target_rate)
    wrench, states, _ = fic_task_wrench(config, states, x_err, x_err_rate, damping_rate)
    torques = _arm_torques(arm, sample, wrench, config.posture_target, config.posture_gains)
    return ControlResult(wrench, states, torques)


def baseline_control_torques(
    arm: PlanarArm, x_target, config: BaselineConfig, sample: ArmSample | None = None
) -> ControlResult:
    """One baseline tick on the arm; same compensation path as the FIC.

    The error rate is measured-velocity only: the baseline law is defined
    with zero desired velocity. ``sample`` is as for ``fic_control_torques``.
    """
    if sample is None:
        sample = _arm_task_state(arm, arm.q, arm.qdot)
    x_err, x_err_rate, _ = _task_errors(sample, x_target)
    wrench = baseline_impedance_wrench(config, x_err, x_err_rate)
    torques = _arm_torques(arm, sample, wrench, config.posture_target, config.posture_gains)
    return ControlResult(wrench, (), torques)
