"""Controller assembly: per-DoF FIC wrenches into joint torques, plus the
constant-gain impedance baseline.

A task law reads the reference pose x_d and the measured task state x, xdot,
and forms the error x_d - x in its one pass per DoF. The FIC classifies each
DoF on the full error rate xd_rate - xdot; in both controllers damping acts
on the measured -xdot alone (passive damping), and the baseline law has zero
desired velocity. For the arm, gravity is compensated in joint space after
the Jacobian-transpose map, and the operational-space velocity-product
compensation Lam (J M^-1 C qd - Jd qd) is added to the task wrench.

The laws take sequences and return lists of Python floats, the episode loop's
own types; the FIC law returns the plain tuple (wrench, attractor states,
phase s flags). An arm tick reads its state and every arm term from one
``dynamics.ArmSample``, never from the plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import ArmSample, PlanarArm, _arm_drift, _floats
from .dynamics import arm_dynamics, forward_kinematics, task_space_quantities  # noqa: F401 (bench hook)
from .fic_core import (
    _DIV,
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
]


def _per_dof(value, d: int | None, name: str) -> tuple:
    """A scalar (broadcast; one DoF if d is None) or d values (any if None) as floats."""
    if not hasattr(value, "__len__"):  # a scalar
        value = (value,) * (1 if d is None else d)
    return _floats(value, name, d)


def _set_posture(config) -> None:
    """The posture target and gains as float tuples; the gains checked."""
    if config.posture_target is not None:  # an angle per joint of the 3-link arm
        target = _floats(config.posture_target, "posture_target", 3)
        object.__setattr__(config, "posture_target", target)
    gains = _floats(config.posture_gains, "posture_gains")
    if len(gains) != 2 or not all(0.0 <= g < math.inf for g in gains):  # NaN fails too
        raise ValueError("posture_gains: expected two finite and non-negative values")
    object.__setattr__(config, "posture_gains", gains)


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
        if not all(0.0 <= v < math.inf for v in damping):
            raise ValueError("damping: must be finite and non-negative")
        object.__setattr__(self, "damping", damping)
        _set_posture(self)


@dataclass(frozen=True)
class BaselineConfig:
    """Constant-gain impedance controller: wrench = K x_err + D x_err_rate."""

    k_d: tuple[float, ...]
    d_d: tuple[float, ...]
    posture_target: tuple[float, ...] | None = None
    posture_gains: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        k_d = _per_dof(self.k_d, None, "k_d")
        d_d = _per_dof(self.d_d, len(k_d), "d_d")
        if not all(0.0 < v < math.inf for v in k_d):
            raise ValueError("k_d: must be finite and positive")
        if not all(0.0 <= v < math.inf for v in d_d):
            raise ValueError("d_d: must be finite and non-negative")
        object.__setattr__(self, "k_d", k_d)
        object.__setattr__(self, "d_d", d_d)
        _set_posture(self)


class ControlResult(NamedTuple):
    """One arm tick: per-DoF task wrench, the attractor states after the
    tick (none for the baseline) and joint torques, as floats."""

    wrench: list
    states: tuple[AttractorState, ...]
    torques: list


def new_attractor_states(n_task: int) -> tuple[AttractorState, ...]:
    return tuple(AttractorState() for _ in range(n_task))


def fic_task_wrench(
    config: FicConfig, states: tuple[AttractorState, ...], x_d, xd_rate, x, xdot
) -> tuple[list, tuple[AttractorState, ...], list]:
    """Per-DoF FIC wrench (spring path + passive damping) for one tick, read
    from the reference pose ``x_d`` and rate ``xd_rate`` and the measured
    task state ``x``, ``xdot``.

    The error is x_d - x. Its full rate xd_rate - xdot drives the
    divergence/convergence classification; damping stays passive and acts on
    the measured -xdot alone, which differs from that rate when the reference
    moves. The lengths are checked once; one pass per DoF then runs its two
    laws on the inputs' values as they are. Returns the wrench, the attractor
    states after the tick and their phases' s flags (``Phase.value``).
    """
    stiffness, damping = config.stiffness, config.damping
    d = len(stiffness)
    if not len(states) == len(x_d) == len(xd_rate) == len(x) == len(xdot) == d:
        raise ValueError("one attractor state, reference, rate and state per task DoF required")
    wrench, new_states, flags = [], [], []
    for i in range(d):
        params, err, v = stiffness[i], x_d[i] - x[i], xdot[i]
        state = update_attractor(states[i], params, err, xd_rate[i] - v, rate_tol=DEFAULT_RATE_TOL)
        new_states.append(state)
        wrench.append(fic_wrench(state, params, err) + damping[i] * -v)
        flags.append(1 if state.phase is _DIV else 0)
    return wrench, tuple(new_states), flags


def baseline_impedance_wrench(config: BaselineConfig, x_d, x, xdot) -> list:
    """K (x_d - x) + D (-xdot) per DoF: the baseline law has zero desired
    velocity."""
    terms = zip(config.k_d, config.d_d, x_d, x, xdot, strict=True)
    return [k * (a - b) + dd * -v for k, dd, a, b, v in terms]


def _posture_torque(q, qdot, posture_target, gains) -> list:
    """The null-space posture law: joint-space PD toward a posture of the
    arm's 3 joints, projected by the caller. Unchecked: the configs checked
    their gains."""
    if posture_target is None:
        return [0.0] * len(q)
    kp, kd = gains
    (p0, p1, p2), (a0, a1, a2), (v0, v1, v2) = posture_target, q, qdot
    return [kp * (p0 - a0) - kd * v0, kp * (p1 - a1) - kd * v1, kp * (p2 - a2) - kd * v2]


def _arm_torques(arm: PlanarArm, sample: ArmSample, wrench, posture_target, posture_gains) -> list:
    """Joint torques for a task wrench at the sample's state, with dynamics
    compensation and the null-space posture torque tau_null:

    tau = J^T (w + Lam ((M^-1 J^T)^T (C qd - tau_null) - Jd qd)) + G + tau_null

    that is J^T (w + Lam ((M^-1 J^T)^T C qd - Jd qd)) + G + N tau_null, with
    N = I - J^T Lam (M^-1 J^T)^T folded into the task term, unformed. It is
    evaluated in absolute angles: ``(M^-1 J^T)^T v = (B^-1 J_phi^T)^T S^-T v``,
    ``S^-T C qd`` is the velocity load and ``tau = S^T (J_phi^T f + G_phi) +
    tau_null``.
    """
    n0, n1, n2 = _posture_torque(sample.q, sample.qdot, posture_target, posture_gains)
    _, _, _, _, jphi, (g0, g1, g2), _, (ld0, ld1, ld2) = sample.kernel
    (jx0, jx1, jx2), (jy0, jy1, jy2) = jphi
    r0, r1, r2 = ld0 - (n0 - n1), ld1 - (n1 - n2), ld2 - n2  # load - S^-T tau_null
    a0, a1 = _arm_drift(arm, sample)
    (px0, px1, px2), (py0, py1, py2) = sample.binv_jt
    u0 = 0.0 + px0 * r0 + px1 * r1 + px2 * r2 - a0
    u1 = 0.0 + py0 * r0 + py1 * r1 + py2 * r2 - a1
    (l00, l01), (l10, l11) = sample.lam
    f0 = wrench[0] + (l00 * u0 + l01 * u1)
    f1 = wrench[1] + (l10 * u0 + l11 * u1)
    t2 = jx2 * f0 + jy2 * f1 + g2
    t1 = jx1 * f0 + jy1 * f1 + g1 + t2  # S^T: suffix sums
    t0 = jx0 * f0 + jy0 * f1 + g0 + t1
    return [t0 + n0, t1 + n1, t2 + n2]


def fic_control_torques(
    arm: PlanarArm,
    x_target,
    states: tuple[AttractorState, ...],
    config: FicConfig,
    target_rate=None,
    *,
    sample: ArmSample,
) -> ControlResult:
    """One FIC tick on the arm.

    ``sample`` is ``dynamics._arm_task_state(arm, q, qdot)`` at the state the
    tick acts on: the arm holds parameters only, and the tick reads the state
    from the sample. ``target_rate`` is the reference velocity; omitting it
    for a moving reference misclassifies a growing error as converging.
    """
    rate = [0.0] * len(sample.xdot) if target_rate is None else target_rate
    wrench, states, _ = fic_task_wrench(config, states, x_target, rate, sample.x, sample.xdot)
    torques = _arm_torques(arm, sample, wrench, config.posture_target, config.posture_gains)
    return ControlResult(wrench, states, torques)


def baseline_control_torques(
    arm: PlanarArm, x_target, config: BaselineConfig, *, sample: ArmSample
) -> ControlResult:
    """One baseline tick on the arm; same compensation path as the FIC.

    The error rate is measured-velocity only: the baseline law is defined
    with zero desired velocity. ``sample`` is as for ``fic_control_torques``.
    """
    wrench = baseline_impedance_wrench(config, x_target, sample.x, sample.xdot)
    torques = _arm_torques(arm, sample, wrench, config.posture_target, config.posture_gains)
    return ControlResult(wrench, (), torques)
