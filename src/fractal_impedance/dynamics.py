"""Rigid-body plants, contact, perturbations and fixed-step integrators.

Two plants: a task-space point mass (diagonal inertia, no kinematics) and a
planar serial arm with a 2-D positional task. The arm's closed-form dynamics
use absolute link angles, where the mass matrix couples through
``A_ab cos(phi_a - phi_b)`` and the velocity-product bias through
``A_ab sin(phi_a - phi_b) phidot_b^2``; joint-space quantities follow from the
constant lower-triangular map ``phi = S q``, so ``S^T v`` is a suffix sum.

The plant state of the episode loop, the integrator step ``_advance``, both
plants' accelerations, the arm's kernel and task inertia, and the contact and
pulse wrenches work on lists of Python floats, not numpy arrays: a point mass
has one to a few DoFs and the arm three joints and a 2-D task, so each vector
holds a few flops, and numpy's per-call dispatch (type checks, error-state
contexts, array allocation) costs more than the arithmetic. Elementwise float
operations in numpy's order give the bits of the numpy array expressions. An
integrator stage builds no array. An arm sample builds one, the Jacobian that
``J qdot`` is computed with, and factors M once for its task inertia and the
first integrator stage. Neither J^T-bar nor N is formed in the loop: the
controller's torque map folds N into its task term, and only
``task_space_quantities`` builds them. Public functions take arrays or
sequences; ``contact_force`` and ``external_wrench`` return lists of floats.
``_advance`` is the one stepping path, and ``Scenario`` checks the integrator
name against ``INTEGRATORS``. The loops work for any number of links.

Environment effects (unilateral wall, force pulses) are plain functions so the
integrators can evaluate them at stage states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, mul, truediv
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
    _masses: tuple = field(init=False, repr=False)  # inertia as floats

    def __post_init__(self) -> None:
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.xdot = np.asarray(self.xdot, dtype=float)
        if self.inertia.ndim != 1 or np.any(self.inertia <= 0.0):
            raise ValueError("point-mass inertia must be a 1-D positive array")
        if self.x.shape != self.inertia.shape or self.xdot.shape != self.inertia.shape:
            raise ValueError("state dimensions must match inertia")
        self._masses = tuple(self.inertia.tolist())

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
    # Constant terms of the absolute-angle formulation as tuples of floats:
    # link coupling A, first moments, lengths, rotational inertias, gravity.
    _coupling: tuple = field(init=False, repr=False)
    _first_moments: tuple = field(init=False, repr=False)
    _link_lengths: tuple = field(init=False, repr=False)
    _link_inertias: tuple = field(init=False, repr=False)
    _gravity_xy: tuple = field(init=False, repr=False)

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
        self._coupling = tuple(map(tuple, (cmat @ np.diag(self.masses) @ cmat.T).tolist()))
        self._first_moments = tuple((cmat @ self.masses).tolist())
        self._link_lengths = tuple(self.lengths.tolist())
        self._link_inertias = tuple(self.inertias.tolist())
        self._gravity_xy = tuple(self.gravity.tolist())

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


def _floats(v) -> list:
    """A vector as a list of Python floats."""
    return np.asarray(v, dtype=float).tolist()


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


def _suffix(v) -> list:
    """``S^T v`` for ``phi = S q``: entry ``j`` sums ``v[a]`` over ``a >= j``."""
    out = list(v)
    for j in range(len(out) - 2, -1, -1):
        out[j] += out[j + 1]
    return out


def _suffix_2d(b) -> list:
    """``S^T B S``: entry ``(i, j)`` sums ``B[a][c]`` over ``a >= i``, ``c >= j``."""
    n = len(b)
    out = [None] * n
    below = [0.0] * n  # row i + 1 of the result
    for i in range(n - 1, -1, -1):
        row, acc, new = b[i], 0.0, [0.0] * n
        for j in range(n - 1, -1, -1):
            acc += row[j]
            new[j] = below[j] + acc
        out[i] = below = new
    return out


def _link_dirs(q) -> tuple[list, list]:
    """cos and sin of the absolute link angles ``phi = S q`` (running sums of
    ``q``). An infinite angle gives NaN, as numpy's cos does, so a
    non-finite state propagates instead of raising."""
    c, s = [], []
    phi = 0.0
    for qi in q:
        phi += qi
        if math.isinf(phi):  # math.cos raises here
            phi = math.nan
        c.append(math.cos(phi))
        s.append(math.sin(phi))
    return c, s


def _jacobian_rows(arm: PlanarArm, c: list, s: list) -> tuple[list, list]:
    """Rows ``(jx, jy)`` of the end-effector Jacobian ``(l * [-sin; cos]) S``.
    Their first entries are the tip pose ``(jy[0], -jx[0])``."""
    lengths = arm._link_lengths
    n = len(c)
    jx, jy = [0.0] * n, [0.0] * n
    x = y = 0.0
    for i in range(n - 1, -1, -1):
        x += lengths[i] * c[i]
        y += lengths[i] * s[i]
        jx[i], jy[i] = -y, x
    return jx, jy


def _tip(jac: tuple[list, list]) -> list:
    jx, jy = jac
    return [jy[0], -jx[0]]


def _arm_kernel(arm: PlanarArm, q):
    """State-dependent arm terms at ``q`` that every arm quantity shares.

    Returns, as Python floats, the link cos/sin ``c`` and ``s``, the coupling
    sines ``a_sin[a][b] = A_ab sin(phi_a - phi_b)``, the joint-space mass
    matrix ``S^T (A o cos(phi_a - phi_b) + diag(I)) S`` (a 2-D suffix sum) and
    the Jacobian rows ``(jx, jy)``. Angle differences come from products of
    the link directions, once per pair of links.
    """
    c, s = _link_dirs(q)
    n = len(c)
    a_sin = [[0.0] * n for _ in range(n)]
    b = [[0.0] * n for _ in range(n)]
    for i in range(n):
        ci, si, ai, bi, row = c[i], s[i], a_sin[i], b[i], arm._coupling[i]
        bi[i] = row[i] + arm._link_inertias[i]  # cos(phi_i - phi_i) = 1
        for j in range(i + 1, n):
            cj, sj = c[j], s[j]
            bi[j] = b[j][i] = row[j] * (ci * cj + si * sj)
            ai[j] = row[j] * (si * cj - ci * sj)
            a_sin[j][i] = -ai[j]
    return c, s, a_sin, _suffix_2d(b), _jacobian_rows(arm, c, s)


def _gravity_phi(arm: PlanarArm, c: list, s: list) -> list:
    """Gravity load in absolute-angle coordinates."""
    gx, gy = arm._gravity_xy
    return [m * (gx * sa - gy * ca) for m, ca, sa in zip(arm._first_moments, c, s)]


def _velocity_loads(a_sin: list, qdot: list) -> tuple[list, list]:
    """Squared absolute angle rates and the velocity-product load
    ``a_sin @ phidot^2`` in absolute-angle coordinates."""
    phidot_sq = []
    phidot = 0.0
    for v in qdot:
        phidot += v
        phidot_sq.append(phidot * phidot)
    return phidot_sq, [_dot(row, phidot_sq) for row in a_sin]


def _cholesky(m) -> list:
    """Lower Cholesky factor of the mass matrix (reads the lower triangle).

    Raises:
        numpy.linalg.LinAlgError: when ``m`` is not positive definite.
    """
    low = []
    for i, mi in enumerate(m):
        row = []
        for j, lj in enumerate(low):
            acc = mi[j]
            for a, b in zip(row, lj):
                acc -= a * b
            row.append(acc / lj[j])
        acc = mi[i]
        for a in row:
            acc -= a * a
        if acc <= 0.0:
            raise np.linalg.LinAlgError("mass matrix is not positive definite")
        row.append(math.sqrt(acc))
        low.append(row)
    return low


def _cho_solve(low: list, b) -> list:
    """Solve ``L L^T x = b`` for the factor ``L`` of ``_cholesky``."""
    x = []
    for i, (li, acc) in enumerate(zip(low, b)):
        for a, xk in zip(li, x):
            acc -= a * xk
        x.append(acc / li[i])
    for i in reversed(range(len(low))):
        li = low[i]
        x[i] = xi = x[i] / li[i]
        for k in range(i):
            x[k] -= li[k] * xi
    return x


def arm_dynamics(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> ArmDynamics:
    """Closed-form mass matrix, Coriolis, gravity and end-effector Jacobians."""
    c, s, a_sin, mass, jac = _arm_kernel(arm, q)
    phidot = list(accumulate(_floats(qdot)))
    coriolis = np.array(_suffix_2d([list(map(mul, row, phidot)) for row in a_sin]))
    lp = [-l * p for l, p in zip(arm._link_lengths, phidot)]
    return ArmDynamics(
        mass_matrix=np.array(mass),
        coriolis=coriolis,
        bias=coriolis @ np.asarray(qdot, dtype=float),
        gravity=np.array(_suffix(_gravity_phi(arm, c, s))),
        jacobian=np.array(jac),
        jacobian_dot=np.array((_suffix(list(map(mul, lp, c))), _suffix(list(map(mul, lp, s))))),
    )


def _arm_drift(arm: PlanarArm, kernel, qdot):
    """Gravity torque G, velocity-product torque C qdot and tip drift Jd qdot,
    as floats, at the state whose ``_arm_kernel`` terms are ``kernel``."""
    c, s, a_sin, _, _ = kernel
    phidot_sq, load = _velocity_loads(a_sin, qdot)
    lp = list(map(mul, arm._link_lengths, phidot_sq))
    return _suffix(_gravity_phi(arm, c, s)), _suffix(load), (-_dot(c, lp), -_dot(s, lp))


def forward_kinematics(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    return np.array(_tip(_jacobian_rows(arm, *_link_dirs(q))))


def joint_positions(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    """Base and joint/tip positions, shape (n_joints + 1, 2)."""
    c, s = _link_dirs(q)
    xs = np.concatenate(([0.0], np.cumsum(arm.lengths * c)))
    ys = np.concatenate(([0.0], np.cumsum(arm.lengths * s)))
    return np.column_stack((xs, ys))


def potential_energy(arm: PlanarArm, q: np.ndarray) -> float:
    c, s = _link_dirs(q)
    gx, gy = arm._gravity_xy
    return -_dot(arm._first_moments, [gx * ca + gy * sa for ca, sa in zip(c, s)])


def kinetic_energy(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> float:
    qdot = _floats(qdot)
    _, _, _, mass, _ = _arm_kernel(arm, q)
    return 0.5 * _dot([_dot(row, qdot) for row in mass], qdot)


@dataclass(frozen=True)
class TaskSpace:
    """Task-space inertia, dynamically consistent inverse and null projector."""

    lam: np.ndarray  # (J M^-1 J^T)^-1
    jbar_t: np.ndarray  # lam J M^-1
    nullspace: np.ndarray  # I - J^T jbar_t


def _task_inertia(mass: list, jac) -> tuple[list, tuple, tuple]:
    """The Cholesky factor of M, the columns of ``M^-1 J^T`` and the task
    inertia Lam, as floats, from M and the Jacobian rows; the 2 x 2 block
    ``J M^-1 J^T`` is inverted in closed form.

    The only place the singularity test runs: it precedes every inversion of
    J M^-1 J^T. Its quantity is the smallest |eigenvalue| of the symmetrised
    block, computed as |det| over the largest |eigenvalue| so that a
    near-singular block loses no digits to cancellation.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below ``SINGULARITY_TOL``.
        numpy.linalg.LinAlgError: when M is not positive definite.
    """
    low = _cholesky(mass)
    jx, jy = jac
    mx, my = cols = _cho_solve(low, jx), _cho_solve(low, jy)  # M^-1 J^T by column
    a, b, c, d = _dot(jx, mx), _dot(jx, my), _dot(jy, mx), _dot(jy, my)
    off = 0.5 * (b + c)
    det_sym = a * d - off * off
    largest = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), off)
    smallest = abs(det_sym) / largest if det_sym else 0.0
    if smallest < SINGULARITY_TOL:
        raise SingularConfigurationError(smallest)
    det = a * d - b * c
    return low, cols, ((d / det, -b / det), (-c / det, a / det))


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
        mass, jac = dyn.mass_matrix.tolist(), dyn.jacobian.tolist()
    _, (mx, my), lam = _task_inertia(mass, jac)
    jbar_t = [[l0 * u + l1 * v for u, v in zip(mx, my)] for l0, l1 in lam]
    nullspace = [[-(xi * b0 + yi * b1) for b0, b1 in zip(*jbar_t)] for xi, yi in zip(*jac)]
    for i, row in enumerate(nullspace):
        row[i] += 1.0
    return TaskSpace(lam=np.array(lam), jbar_t=np.array(jbar_t), nullspace=np.array(nullspace))


class ArmSample(NamedTuple):
    """One evaluation of the arm at a sampled state (q, qdot).

    The loop's task state, the controller tick and the integrator's first
    stage all read it, so a sample costs one kernel, one Cholesky factor of
    M, one M^-1 J^T solve and one singularity test.
    """

    q: list  # the sampled state
    qdot: list
    kernel: tuple  # _arm_kernel(arm, q)
    chol: list  # lower Cholesky factor of M
    x: list  # end-effector pose
    xdot: list  # J qdot
    minv_jt: tuple  # the columns of M^-1 J^T, floats
    lam: tuple  # task inertia Lam, floats
    ke: float  # task kinetic energy 0.5 xdot' Lam xdot


def _arm_task_state(arm: PlanarArm, q, qdot) -> ArmSample:
    """Evaluate the arm at a sample.

    ``xdot`` is numpy's ``J @ qdot``, so it equals the closed-form
    ``arm_dynamics(...).jacobian @ qdot`` bit for bit; a float sum rounds
    differently where the matrix-vector product fuses multiply and add.

    Raises:
        SingularConfigurationError: from the task-space test, before any
            inversion of J M^-1 J^T.
    """
    kernel = _arm_kernel(arm, q)
    _, _, _, mass, jac = kernel
    low, cols, lam = _task_inertia(mass, jac)
    xdot = (np.array(jac) @ qdot).tolist()
    v0, v1 = xdot
    (l00, l01), (l10, l11) = lam
    ke = 0.5 * ((v0 * l00 + v1 * l10) * v0 + (v0 * l01 + v1 * l11) * v1)
    return ArmSample(q, qdot, kernel, low, _tip(jac), xdot, cols, lam, ke)


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


def contact_force(wall: ContactWall, x, xdot) -> list:
    """Contact wrench on the plant as a list of floats, zero when not
    penetrating."""
    f = [0.0] * len(x)
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


def external_wrench(profile: PerturbationProfile, t: float) -> list:
    """Sum of pulses active at time t as a list of floats (zero outside all
    pulses)."""
    w = [0.0] * profile.n_dof
    for p in profile.pulses:
        if p.start <= t < p.end:
            w = list(map(add, w, p.wrench))
    return w


class PointMassSample(NamedTuple):
    """The point mass at a sampled state, in the shape of ``ArmSample``'s
    fields that the loop reads; it has no kernel terms to share."""

    x: list
    xdot: list
    ke: float  # 0.5 xdot' M xdot
    kernel: None = None
    chol: None = None


def _point_mass_task_state(plant: PointMassPlant, x: list, xdot: list) -> PointMassSample:
    return PointMassSample(x, xdot, 0.5 * _dot(map(mul, plant._masses, xdot), xdot))


def _point_mass_accel(
    plant: PointMassPlant,
    force: list,
    x: list,
    xdot: list,
    wall: ContactWall | None,
    task_wrench: list | None,
    kernel=None,
    chol=None,
) -> list:
    """Task accelerations as floats; same signature as ``_arm_accel`` (the
    point mass has no kernel or factor, so ``kernel`` and ``chol`` are
    ignored)."""
    f = force if task_wrench is None else list(map(add, force, task_wrench))
    if wall is not None:
        f = list(map(add, f, contact_force(wall, x, xdot)))
    return list(map(truediv, f, plant._masses))


def _arm_accel(
    arm: PlanarArm,
    tau,
    q,
    qdot,
    wall: ContactWall | None,
    task_wrench,
    kernel=None,
    chol=None,
) -> list:
    """Joint accelerations ``M^-1 (tau - C qdot - G + J^T w)`` as floats;
    ``kernel`` is ``_arm_kernel(arm, q)`` and ``chol`` the Cholesky factor of
    its mass matrix when the caller has them already.

    A non-finite state gives a non-finite result, so the step reports it.

    Raises:
        numpy.linalg.LinAlgError: when the mass matrix is not positive definite.
    """
    c, s, a_sin, mass, jac = _arm_kernel(arm, q) if kernel is None else kernel
    _, load = _velocity_loads(a_sin, qdot)
    w0, w1 = (0.0, 0.0) if task_wrench is None else task_wrench
    if wall is not None:
        f0, f1 = contact_force(wall, _tip(jac), [_dot(row, qdot) for row in jac])
        w0, w1 = w0 + f0, w1 + f1
    # rhs = tau - S^T (load + G_phi) + J^T w, the suffix sum run backwards
    rhs = list(tau)
    gravity = _gravity_phi(arm, c, s)
    jx, jy = jac
    acc = 0.0
    for a in range(len(rhs) - 1, -1, -1):
        acc += load[a] + gravity[a]
        rhs[a] += jx[a] * w0 + jy[a] * w1 - acc
    return _cho_solve(_cholesky(mass) if chol is None else chol, rhs)


def _advance(pos, vel, accel, dt: float, integrator: str, t: float, accel0=None):
    """One fixed integration step of pos'' = accel(pos, vel) over lists of
    floats; the one integrator of both plants.

    ``accel0`` is ``accel(pos, vel)`` when the caller has it already. Each
    component is combined in the order numpy's array expressions
    ``vel + 0.5 * dt * acc`` and ``pos + dt / 6 * (k1 + 2 k2 + 2 k3 + k4)``
    use, so the step gives their bits. Explicit loops, not comprehensions:
    at one to three components a comprehension's own call costs more than
    its arithmetic.

    Raises:
        IntegrationBlowupError: when a component of the new state is not
            finite; it carries the time ``t + dt``.
    """
    if accel0 is None:
        accel0 = accel(pos, vel)
    new_pos, new_vel = [], []
    if integrator == "semi_implicit":
        for p, v, a in zip(pos, vel, accel0):
            v = v + dt * a
            new_pos.append(p + dt * v)
            new_vel.append(v)
    else:
        h = 0.5 * dt
        p2, v2 = [], []
        for p, v, a in zip(pos, vel, accel0):
            p2.append(p + h * v)
            v2.append(v + h * a)
        a2 = accel(p2, v2)
        p3, v3 = [], []
        for p, v, kv, ka in zip(pos, vel, v2, a2):
            p3.append(p + h * kv)
            v3.append(v + h * ka)
        a3 = accel(p3, v3)
        p4, v4 = [], []
        for p, v, kv, ka in zip(pos, vel, v3, a3):
            p4.append(p + dt * kv)
            v4.append(v + dt * ka)
        a4 = accel(p4, v4)
        h = dt / 6.0
        for p, v, b2, b3, b4, a1, c2, c3, c4 in zip(pos, vel, v2, v3, v4, accel0, a2, a3, a4):
            new_pos.append(p + h * (v + 2.0 * b2 + 2.0 * b3 + b4))
            new_vel.append(v + h * (a1 + 2.0 * c2 + 2.0 * c3 + c4))
    for value in new_pos + new_vel:
        if not math.isfinite(value):
            raise IntegrationBlowupError(t + dt)
    return new_pos, new_vel

