"""Rigid-body plants, contact, perturbations and fixed-step integrators.

Two plants: a task-space point mass (diagonal inertia, no kinematics) and a
planar serial arm with a 2-D positional task. The arm's closed-form dynamics
use absolute link angles, where the mass matrix couples through
``A_ab cos(phi_a - phi_b)`` and the velocity-product bias through
``A_ab sin(phi_a - phi_b) phidot_b^2``; joint-space quantities follow from the
constant lower-triangular map ``phi = S q``.

Environment effects (unilateral wall, force pulses) are plain functions so the
integrators can evaluate them at stage states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "IntegrationBlowupError",
    "SingularConfigurationError",
    "PointMassPlant",
    "PlanarArm",
    "ArmDynamics",
    "TaskSpace",
    "ContactWall",
    "Pulse",
    "PerturbationProfile",
    "arm_dynamics",
    "forward_kinematics",
    "joint_positions",
    "potential_energy",
    "kinetic_energy",
    "task_space_quantities",
    "contact_force",
    "external_wrench",
    "step_plant",
]

SINGULARITY_TOL = 1e-8
INTEGRATORS = ("rk4", "semi_implicit")


class IntegrationBlowupError(RuntimeError):
    """Raised when a plant state becomes non-finite; carries the time stamp."""

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(f"non-finite plant state at t = {time:.6g} s")


class SingularConfigurationError(RuntimeError):
    """Raised when the task-space inertia is not invertible at the tolerance.

    Singularities are reported, never regularized: a damped inverse would
    silently corrupt the torque map and the energy audit.
    """

    def __init__(self, smallest: float):
        self.smallest_singular_value = float(smallest)
        super().__init__(
            f"singular configuration: min singular value of J M^-1 J^T = {smallest:.3e}"
        )


@dataclass
class PointMassPlant:
    """Point mass per task DoF: inertia[i] * xdd[i] = applied force[i]."""

    inertia: np.ndarray
    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self) -> None:
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.xdot = np.asarray(self.xdot, dtype=float)
        if self.inertia.ndim != 1 or np.any(self.inertia <= 0.0):
            raise ValueError("point-mass inertia must be a 1-D positive array")
        if self.x.shape != self.inertia.shape or self.xdot.shape != self.inertia.shape:
            raise ValueError("state dimensions must match inertia")

    @property
    def n_task(self) -> int:
        return self.inertia.shape[0]


@dataclass
class PlanarArm:
    """Planar serial chain with revolute joints and a 2-D positional task.

    Link i has length ``lengths[i]``, mass ``masses[i]``, center of mass at
    ``com_offsets[i]`` along the link and rotational inertia ``inertias[i]``
    about its COM. ``gravity`` is the field vector in task coordinates.
    Link parameters are fixed at construction; ``q``/``qdot`` is the state.
    """

    lengths: np.ndarray
    masses: np.ndarray
    com_offsets: np.ndarray
    inertias: np.ndarray
    gravity: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    # Constant terms of the absolute-angle formulation: link coupling, first
    # moments, rotational inertias and the map S (phi = S q).
    _coupling: np.ndarray = field(init=False, repr=False)
    _first_moments: np.ndarray = field(init=False, repr=False)
    _inertia_diag: np.ndarray = field(init=False, repr=False)
    _smap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("lengths", "masses", "com_offsets", "inertias", "q", "qdot"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.gravity = np.asarray(self.gravity, dtype=float)
        n = self.lengths.shape[0]
        if any(
            getattr(self, name).shape != (n,)
            for name in ("masses", "com_offsets", "inertias", "q", "qdot")
        ):
            raise ValueError("per-link parameter arrays must share one length")
        if self.gravity.shape != (2,):
            raise ValueError("gravity must be a 2-vector")
        if np.any(self.lengths <= 0.0) or np.any(self.masses <= 0.0):
            raise ValueError("link lengths and masses must be positive")
        # cmat[a, i]: coefficient of the unit vector of absolute angle a in the
        # position of COM i (full upstream links, partial own link).
        cmat = np.zeros((n, n))
        for i in range(n):
            cmat[:i, i] = self.lengths[:i]
            cmat[i, i] = self.com_offsets[i]
        self._coupling = cmat @ np.diag(self.masses) @ cmat.T
        self._first_moments = cmat @ self.masses
        self._inertia_diag = np.diag(self.inertias)
        self._smap = np.tril(np.ones((n, n)))

    @classmethod
    def default(cls, q=None, qdot=None, gravity=(0.0, -9.81)) -> "PlanarArm":
        """Three identical links: length 1 m, mass 1 kg, COM at midpoint,
        slender-rod inertia about the COM."""
        n = 3
        return cls(
            lengths=np.ones(n),
            masses=np.ones(n),
            com_offsets=np.full(n, 0.5),
            inertias=np.full(n, 1.0 / 12.0),
            gravity=np.asarray(gravity, dtype=float),
            q=np.zeros(n) if q is None else np.asarray(q, dtype=float),
            qdot=np.zeros(n) if qdot is None else np.asarray(qdot, dtype=float),
        )

    @property
    def n_joints(self) -> int:
        return self.lengths.shape[0]

    @property
    def n_task(self) -> int:
        return 2


@dataclass(frozen=True)
class ArmDynamics:
    """Joint-space terms at one state: M qdd + C qd + G = tau + J^T w_ext."""

    mass_matrix: np.ndarray
    coriolis: np.ndarray  # Christoffel matrix, so Mdot - 2C is skew
    bias: np.ndarray  # coriolis @ qdot
    gravity: np.ndarray
    jacobian: np.ndarray
    jacobian_dot: np.ndarray


def _link_dirs(q: np.ndarray) -> np.ndarray:
    """Unit vectors of the absolute link angles phi = S q, as the rows
    ``[cos phi; sin phi]`` of a 2 x n array."""
    phi = np.cumsum(np.asarray(q, dtype=float))
    return np.array([np.cos(phi), np.sin(phi)])


def _arm_kernel(arm: PlanarArm, q: np.ndarray):
    """State-dependent arm terms at ``q`` that every arm quantity shares.

    Returns ``cs = [cos phi; sin phi]``, its derivative
    ``dcs = [-sin phi; cos phi]``, the coupling sines
    ``A_ab sin(phi_a - phi_b)``, the joint-space mass matrix and the
    end-effector Jacobian. Angle differences come from products of the link
    directions (cos(phi_a - phi_b) = cs_a . cs_b, sin(phi_a - phi_b) =
    cs_a . dcs_b), and the Jacobian is ``(l * dcs) @ S``.
    """
    cs = _link_dirs(q)
    c, s = cs
    dcs = np.array([-s, c])
    a_sin = arm._coupling * (cs.T @ dcs)
    mass = arm._smap.T @ (arm._coupling * (cs.T @ cs) + arm._inertia_diag) @ arm._smap
    jac = (arm.lengths * dcs) @ arm._smap
    return cs, dcs, a_sin, mass, jac


def _end_effector(arm: PlanarArm, cs: np.ndarray) -> np.ndarray:
    return cs @ arm.lengths


def _gravity_phi(arm: PlanarArm, dcs: np.ndarray) -> np.ndarray:
    """Gravity load in absolute-angle coordinates."""
    return -arm._first_moments * (arm.gravity @ dcs)


def arm_dynamics(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> ArmDynamics:
    """Closed-form mass matrix, Coriolis, gravity and end-effector Jacobians."""
    qdot = np.asarray(qdot, dtype=float)
    cs, dcs, a_sin, mass, jac = _arm_kernel(arm, q)
    phidot = np.cumsum(qdot)
    coriolis = arm._smap.T @ (a_sin * phidot[None, :]) @ arm._smap
    return ArmDynamics(
        mass_matrix=mass,
        coriolis=coriolis,
        bias=coriolis @ qdot,
        gravity=arm._smap.T @ _gravity_phi(arm, dcs),
        jacobian=jac,
        jacobian_dot=(cs * (-arm.lengths * phidot)) @ arm._smap,
    )


def _arm_drift(arm: PlanarArm, kernel, qdot: np.ndarray):
    """Gravity torque G, velocity-product torque C qdot and tip drift Jd qdot
    at the state whose ``_arm_kernel`` terms are ``kernel``."""
    cs, dcs, a_sin, _, _ = kernel
    phidot = np.cumsum(qdot)
    phidot_sq = phidot * phidot
    gravity = arm._smap.T @ _gravity_phi(arm, dcs)
    bias = arm._smap.T @ (a_sin @ phidot_sq)
    jdot_qdot = -(cs @ (arm.lengths * phidot_sq))
    return gravity, bias, jdot_qdot


def forward_kinematics(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    return _end_effector(arm, _link_dirs(q))


def joint_positions(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    """Base and joint/tip positions, shape (n_joints + 1, 2)."""
    c, s = _link_dirs(q)
    xs = np.concatenate(([0.0], np.cumsum(arm.lengths * c)))
    ys = np.concatenate(([0.0], np.cumsum(arm.lengths * s)))
    return np.column_stack((xs, ys))


def potential_energy(arm: PlanarArm, q: np.ndarray) -> float:
    return float(-np.dot(arm._first_moments, arm.gravity @ _link_dirs(q)))


def kinetic_energy(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> float:
    qdot = np.asarray(qdot, dtype=float)
    _, _, _, mass, _ = _arm_kernel(arm, q)
    return float(0.5 * qdot @ mass @ qdot)


@dataclass(frozen=True)
class TaskSpace:
    """Task-space inertia, dynamically consistent inverse and null projector."""

    lam: np.ndarray  # (J M^-1 J^T)^-1
    jbar_t: np.ndarray  # lam J M^-1
    nullspace: np.ndarray  # I - J^T jbar_t


def _task_space(jac: np.ndarray, minv_jt: np.ndarray) -> TaskSpace:
    """Operational-space quantities from J and M^-1 J^T.

    The only place the singularity test runs: it precedes every inversion of
    J M^-1 J^T.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below ``SINGULARITY_TOL``.
    """
    core = jac @ minv_jt
    smallest = float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (core + core.T)))))
    if smallest < SINGULARITY_TOL:
        raise SingularConfigurationError(smallest)
    lam = np.linalg.inv(core)
    jbar_t = lam @ minv_jt.T
    nullspace = np.eye(jac.shape[1]) - jac.T @ jbar_t
    return TaskSpace(lam=lam, jbar_t=jbar_t, nullspace=nullspace)


def task_space_quantities(
    arm: PlanarArm, q: np.ndarray, dyn: ArmDynamics | None = None
) -> TaskSpace:
    """Operational-space quantities at ``q``.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below 1e-8.
    """
    if dyn is None:
        _, _, _, mass, jac = _arm_kernel(arm, q)
    else:
        mass, jac = dyn.mass_matrix, dyn.jacobian
    return _task_space(jac, np.linalg.solve(mass, jac.T))


class ArmSample(NamedTuple):
    """One evaluation of the arm at a sampled state (q, qdot).

    The loop's task state, the controller tick and the integrator's first
    stage all read it, so a sample costs one kernel, one M^-1 J^T solve and
    one singularity test.
    """

    kernel: tuple  # _arm_kernel(arm, q)
    x: np.ndarray  # end-effector pose
    xdot: np.ndarray  # J qdot
    minv_jt: np.ndarray  # M^-1 J^T
    task: TaskSpace
    ke: float  # task kinetic energy 0.5 xdot' Lam xdot


def _arm_task_state(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> ArmSample:
    """Evaluate the arm at a sample.

    Raises:
        SingularConfigurationError: from the task-space test, before any
            inversion of J M^-1 J^T.
    """
    kernel = _arm_kernel(arm, q)
    cs, _, _, mass, jac = kernel
    xdot = jac @ qdot
    minv_jt = np.linalg.solve(mass, jac.T)
    task = _task_space(jac, minv_jt)
    ke = 0.5 * float(xdot @ task.lam @ xdot)
    return ArmSample(kernel, _end_effector(arm, cs), xdot, minv_jt, task, ke)


@dataclass(frozen=True)
class ContactWall:
    """Unilateral Kelvin-Voigt wall normal to one task axis.

    The wall occupies ``direction * (x[axis] - offset) > 0``; while penetrated
    it pushes the plant back with spring + damper force, clamped so the
    contact never pulls (non-adhesive).
    """

    axis: int
    offset: float
    stiffness: float
    damping: float = 0.0
    direction: int = 1

    def __post_init__(self) -> None:
        if self.stiffness <= 0.0 or self.damping < 0.0:
            raise ValueError("wall stiffness must be positive, damping non-negative")
        if self.direction not in (-1, 1):
            raise ValueError("wall direction must be +1 or -1")


def contact_force(wall: ContactWall, x: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """Contact wrench on the plant, zero when not penetrating."""
    f = np.zeros(len(x))
    pen = wall.direction * (float(x[wall.axis]) - wall.offset)
    if pen <= 0.0:
        return f
    mag = wall.stiffness * pen + wall.damping * wall.direction * float(xdot[wall.axis])
    f[wall.axis] = -wall.direction * max(mag, 0.0)
    return f


@dataclass(frozen=True)
class Pulse:
    """Constant external wrench over [start, start + duration)."""

    start: float
    duration: float
    wrench: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.start < 0.0 or self.duration <= 0.0:
            raise ValueError("pulse needs start >= 0 and duration > 0")
        object.__setattr__(self, "wrench", tuple(float(w) for w in self.wrench))

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PerturbationProfile:
    """Scripted force pulses. Pulses may overlap in time only on disjoint DoFs."""

    n_dof: int
    pulses: tuple[Pulse, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulses", tuple(self.pulses))
        for p in self.pulses:
            if len(p.wrench) != self.n_dof:
                raise ValueError("pulse wrench length must match n_dof")
        for dof in range(self.n_dof):
            spans = sorted(
                (p.start, p.end) for p in self.pulses if p.wrench[dof] != 0.0
            )
            for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(f"overlapping pulses on DoF {dof}")


def external_wrench(profile: PerturbationProfile, t: float) -> np.ndarray:
    """Sum of pulses active at time t (zero vector outside all pulses)."""
    w = np.zeros(profile.n_dof)
    for p in profile.pulses:
        if p.start <= t < p.end:
            w += np.asarray(p.wrench)
    return w


def _point_mass_accel(
    plant: PointMassPlant,
    force: np.ndarray,
    x: np.ndarray,
    xdot: np.ndarray,
    wall: ContactWall | None,
) -> np.ndarray:
    f = force
    if wall is not None:
        f = f + contact_force(wall, x, xdot)
    return f / plant.inertia


def _arm_accel(
    arm: PlanarArm,
    tau: np.ndarray,
    q: np.ndarray,
    qdot: np.ndarray,
    wall: ContactWall | None,
    task_wrench: np.ndarray | None,
    kernel=None,
) -> np.ndarray:
    """Joint accelerations; ``kernel`` is ``_arm_kernel(arm, q)`` when the
    caller has it already."""
    cs, dcs, a_sin, mass, jac = _arm_kernel(arm, q) if kernel is None else kernel
    phidot = np.cumsum(qdot)
    rhs = tau - arm._smap.T @ (a_sin @ (phidot * phidot) + _gravity_phi(arm, dcs))
    if wall is not None or task_wrench is not None:
        w = np.zeros(2)
        if task_wrench is not None:
            w += task_wrench
        if wall is not None:
            w += contact_force(wall, _end_effector(arm, cs), jac @ qdot)
        rhs = rhs + jac.T @ w
    return np.linalg.solve(mass, rhs)


def _advance(pos, vel, accel, dt: float, integrator: str, t: float, accel0=None):
    """One fixed integration step of pos'' = accel(pos, vel); shared core.

    ``accel0`` is ``accel(pos, vel)`` when the caller has it already.
    """
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
    if not (np.all(np.isfinite(new_pos)) and np.all(np.isfinite(new_vel))):
        raise IntegrationBlowupError(t + dt)
    return new_pos, new_vel


def step_plant(
    plant: PointMassPlant | PlanarArm,
    force: np.ndarray,
    dt: float,
    integrator: str = "rk4",
    *,
    wall: ContactWall | None = None,
    task_wrench: np.ndarray | None = None,
    t: float = 0.0,
) -> PointMassPlant | PlanarArm:
    """Advance the plant one fixed step under a held generalized force.

    ``force`` is task force for the point mass and joint torque for the arm,
    either a constant vector (held over the step, the ZOH case) or a callable
    ``force(pos, vel)`` re-evaluated at integrator stage states (closed-loop
    laws without a harness). ``task_wrench`` is an extra end-effector wrench
    (point mass: added to ``force`` directly). Wall and task wrench are
    evaluated at stage states. Returns a new plant value.

    Raises:
        ValueError: for dt <= 0 or an unknown integrator.
        IntegrationBlowupError: when the stepped state is non-finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}, expected {INTEGRATORS}")
    if callable(force):
        force_fn = force
    else:
        held = np.asarray(force, dtype=float)
        force_fn = lambda pp, vv: held

    if isinstance(plant, PointMassPlant):
        extra = 0.0 if task_wrench is None else np.asarray(task_wrench, dtype=float)
        pos, vel = plant.x, plant.xdot
        accel = lambda xx, vv: _point_mass_accel(plant, force_fn(xx, vv) + extra, xx, vv, wall)
    elif isinstance(plant, PlanarArm):
        pos, vel = plant.q, plant.qdot
        accel = lambda xx, vv: _arm_accel(plant, force_fn(xx, vv), xx, vv, wall, task_wrench)
    else:
        raise TypeError(f"unsupported plant type {type(plant).__name__}")

    new_pos, new_vel = _advance(pos, vel, accel, dt, integrator, t)
    if isinstance(plant, PointMassPlant):
        return replace(plant, x=new_pos, xdot=new_vel)
    return replace(plant, q=new_pos, qdot=new_vel)
