"""Rigid-body plants, contact, perturbations and fixed-step integrators.

Two plants: a task-space point mass (diagonal inertia, no kinematics) and a
planar serial arm with a 2-D positional task. The arm is solved in its
absolute link angles ``phi = S q``, where its terms have no suffix sums:
inertia ``B = A o cos(phi_a - phi_b) + diag(I)``, velocity-product load
``(A o sin(phi_a - phi_b)) phidot^2``, Jacobian ``J_phi = l o [-sin; cos]``.
``B phidd = S^-T tau - load - G_phi + J_phi^T w`` gives ``qdd = S^-1 phidd``
(first differences), and ``J M^-1 J^T = J_phi B^-1 J_phi^T`` the task inertia
from the same factor of B. Only the public joint-space functions form
``M = S^T B S`` and ``J = J_phi S``, where ``S^T v`` is a suffix sum.

Plant objects hold their parameters only, as tuples of floats; the state is
the caller's. The episode loop's state, the integrator step ``_advance``, both
plants' accelerations, the arm's kernel and task inertia, and the contact and
pulse wrenches work on lists of Python floats, not numpy arrays: a point mass
has one to a few DoFs and the arm three joints and a 2-D task, so each vector
holds a few flops, and numpy's per-call dispatch (type checks, error-state
contexts, array allocation) costs more than the arithmetic. Elementwise float
operations in numpy's order give the bits of the numpy array expressions. An
integrator stage builds no array and factors B once; an arm sample builds
one, the Jacobian that ``J qdot`` is computed with, and its factor of B serves
its task inertia and the first stage. Neither J^T-bar nor N is formed in the
loop: the torque map folds N into its task term, and only
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
from operator import add, mul, neg, truediv
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
    """Point mass per task DoF, inertia[i] * xdd[i] = applied force[i]; the
    inertia is held as floats, the state by the caller."""

    inertia: tuple

    def __post_init__(self) -> None:
        self.inertia = tuple(map(float, self.inertia))
        if not self.inertia or not all(m > 0.0 for m in self.inertia):
            raise ValueError("point-mass inertia must be positive per DoF")


@dataclass
class PlanarArm:
    """Planar serial chain with revolute joints and a 2-D positional task.

    Link i has length ``lengths[i]``, mass ``masses[i]``, center of mass at
    ``com_offsets[i]`` along the link and rotational inertia ``inertias[i]``
    about its COM. ``gravity`` is the field vector in task coordinates. The
    arm holds these parameters only, as tuples of floats; every function that
    evaluates it takes the joint state ``(q, qdot)`` from the caller.
    """

    lengths: tuple
    masses: tuple
    com_offsets: tuple
    inertias: tuple
    gravity: tuple
    # Constant terms of the absolute-angle formulation: link coupling A and
    # first moments, as tuples of floats.
    _coupling: tuple = field(init=False, repr=False)
    _first_moments: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("lengths", "masses", "com_offsets", "inertias", "gravity"):
            setattr(self, name, tuple(map(float, getattr(self, name))))
        n = len(self.lengths)
        if any(len(getattr(self, name)) != n for name in ("masses", "com_offsets", "inertias")):
            raise ValueError("per-link parameter arrays must share one length")
        if len(self.gravity) != 2:
            raise ValueError("gravity must be a 2-vector")
        if not all(v > 0.0 for v in self.lengths + self.masses):
            raise ValueError("link lengths and masses must be positive")
        # cmat[a, i]: coefficient of the unit vector of absolute angle a in the
        # position of COM i (full upstream links, partial own link).
        cmat = np.zeros((n, n))
        for i in range(n):
            cmat[:i, i] = self.lengths[:i]
            cmat[i, i] = self.com_offsets[i]
        self._coupling = tuple(map(tuple, (cmat @ np.diag(self.masses) @ cmat.T).tolist()))
        self._first_moments = tuple((cmat @ self.masses).tolist())

    @classmethod
    def default(cls, gravity=(0.0, -9.81)) -> "PlanarArm":
        """Three identical links: length 1 m, mass 1 kg, COM at midpoint,
        slender-rod inertia about the COM."""
        return cls((1.0,) * 3, (1.0,) * 3, (0.5,) * 3, (1.0 / 12.0,) * 3, gravity)


@dataclass(frozen=True)
class ArmDynamics:
    """Joint-space terms at one state: M qdd + C qd + G = tau + J^T w_ext."""

    mass_matrix: np.ndarray
    coriolis: np.ndarray  # Christoffel matrix, so Mdot - 2C is skew
    bias: np.ndarray  # coriolis @ qdot
    gravity: np.ndarray
    jacobian: np.ndarray
    jacobian_dot: np.ndarray


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


def _link_jacobian(arm: PlanarArm, c: list, s: list) -> tuple[list, list]:
    """Rows of ``J_phi = l o [-sin phi; cos phi]``, the end-effector Jacobian
    in absolute angles."""
    return list(map(neg, map(mul, arm.lengths, s))), list(map(mul, arm.lengths, c))


def _jacobian_rows(jphi) -> tuple[list, list]:
    """Rows ``(jx, jy)`` of the joint-space Jacobian ``J = J_phi S``. Their
    first entries are the tip pose ``(jy[0], -jx[0])``."""
    return _suffix(jphi[0]), _suffix(jphi[1])


def _tip(jac: tuple[list, list]) -> list:
    jx, jy = jac
    return [jy[0], -jx[0]]


def _link_inertia(arm: PlanarArm, c: list, s: list) -> list:
    """The inertia in absolute angles, ``B = A o cos(phi_a - phi_b) + diag(I)``,
    as the rows of its lower triangle (row ``i`` holds columns ``0..i``); the
    angle differences come from products of the link directions."""
    b = []
    for i, row in enumerate(arm._coupling):
        ci, si, bi = c[i], s[i], []
        for j in range(i):
            bi.append(row[j] * (ci * c[j] + si * s[j]))
        bi.append(row[i] + arm.inertias[i])  # cos(phi_i - phi_i) = 1
        b.append(bi)
    return b


def _arm_kernel(arm: PlanarArm, q):
    """State-dependent arm terms at ``q`` that every arm quantity in the loop
    shares: as Python floats, the link cos/sin ``c`` and ``s``, the lower
    Cholesky factor of the absolute-angle inertia B and the rows of J_phi.

    Raises:
        numpy.linalg.LinAlgError: when B (so M) is not positive definite.
    """
    c, s = _link_dirs(q)
    return c, s, _cholesky(_link_inertia(arm, c, s)), _link_jacobian(arm, c, s)


def _gravity_phi(arm: PlanarArm, c: list, s: list) -> list:
    """Gravity load in absolute-angle coordinates."""
    gx, gy = arm.gravity
    return [m * (gx * sa - gy * ca) for m, ca, sa in zip(arm._first_moments, c, s)]


def _velocity_load(arm: PlanarArm, c: list, s: list, qdot) -> tuple[list, list]:
    """Squared absolute angle rates and the velocity-product load
    ``(A o sin(phi_a - phi_b)) phidot^2`` in absolute-angle coordinates; the
    sine matrix is antisymmetric, so each pair of links is visited once."""
    sq = [p * p for p in accumulate(qdot)]
    n = len(sq)
    load = [0.0] * n
    for i in range(n):
        ci, si, row, sq_i = c[i], s[i], arm._coupling[i], sq[i]
        for j in range(i + 1, n):
            a = row[j] * (si * c[j] - ci * s[j])
            load[i] += a * sq[j]
            load[j] -= a * sq_i
    return sq, load


def _cholesky(m) -> list:
    """Lower Cholesky factor of B or M as ragged rows; reads the lower
    triangle only.

    Raises:
        numpy.linalg.LinAlgError: when ``m`` is not positive definite.
    """
    low = []
    for mi in m:
        row = []
        for lj in low:
            j = len(row)
            acc = mi[j]
            for k in range(j):
                acc -= row[k] * lj[k]
            row.append(acc / lj[j])
        acc = mi[len(row)]
        for a in row:
            acc -= a * a
        if acc <= 0.0:
            raise np.linalg.LinAlgError("mass matrix is not positive definite")
        row.append(math.sqrt(acc))
        low.append(row)
    return low


def _cho_solve(low: list, b) -> list:
    """Solve ``L L^T x = b`` for the factor ``L`` of ``_cholesky``."""
    x = list(b)
    n = len(x)
    for i in range(n):
        li, acc = low[i], x[i]
        for k in range(i):
            acc -= li[k] * x[k]
        x[i] = acc / li[i]
    for i in range(n - 1, -1, -1):
        li = low[i]
        x[i] = xi = x[i] / li[i]
        for k in range(i):
            x[k] -= li[k] * xi
    return x


def arm_dynamics(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> ArmDynamics:
    """Closed-form mass matrix, Coriolis, gravity and end-effector Jacobians."""
    c, s = _link_dirs(q)
    phidot = list(accumulate(map(float, qdot)))
    a_sin = np.array(arm._coupling) * (np.outer(s, c) - np.outer(c, s))  # A o sin(phi_a - phi_b)
    coriolis = np.array(_suffix_2d((a_sin * phidot).tolist()))
    lp = [-l * p for l, p in zip(arm.lengths, phidot)]
    low = _link_inertia(arm, c, s)  # M = S^T B S, B from its lower triangle
    b = [[low[max(i, j)][min(i, j)] for j in range(len(low))] for i in range(len(low))]
    return ArmDynamics(
        mass_matrix=np.array(_suffix_2d(b)),
        coriolis=coriolis,
        bias=coriolis @ np.asarray(qdot, dtype=float),
        gravity=np.array(_suffix(_gravity_phi(arm, c, s))),
        jacobian=np.array(_jacobian_rows(_link_jacobian(arm, c, s))),
        jacobian_dot=np.array((_suffix(list(map(mul, lp, c))), _suffix(list(map(mul, lp, s))))),
    )


def _arm_drift(arm: PlanarArm, kernel, qdot):
    """Gravity load G_phi, velocity-product load and tip drift Jd qdot, as
    floats in absolute-angle coordinates (``G = S^T G_phi``, ``C qdot = S^T
    load``), at the state whose ``_arm_kernel`` terms are ``kernel``."""
    c, s, _, _ = kernel
    phidot_sq, load = _velocity_load(arm, c, s, qdot)
    lp = list(map(mul, arm.lengths, phidot_sq))
    return _gravity_phi(arm, c, s), load, (-_dot(c, lp), -_dot(s, lp))


def forward_kinematics(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    return np.array(_tip(_jacobian_rows(_link_jacobian(arm, *_link_dirs(q)))))


def joint_positions(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    """Base and joint/tip positions, shape (links + 1, 2)."""
    c, s = _link_dirs(q)
    xs = np.concatenate(([0.0], np.cumsum(np.multiply(arm.lengths, c))))
    ys = np.concatenate(([0.0], np.cumsum(np.multiply(arm.lengths, s))))
    return np.column_stack((xs, ys))


def potential_energy(arm: PlanarArm, q: np.ndarray) -> float:
    c, s = _link_dirs(q)
    gx, gy = arm.gravity
    return -_dot(arm._first_moments, [gx * ca + gy * sa for ca, sa in zip(c, s)])


def kinetic_energy(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> float:
    qdot = np.asarray(qdot, dtype=float)
    return 0.5 * float(qdot @ arm_dynamics(arm, q, qdot).mass_matrix @ qdot)


@dataclass(frozen=True)
class TaskSpace:
    """Task-space inertia, dynamically consistent inverse and null projector."""

    lam: np.ndarray  # (J M^-1 J^T)^-1
    jbar_t: np.ndarray  # lam J M^-1
    nullspace: np.ndarray  # I - J^T jbar_t


def _task_inertia(low: list, jac) -> tuple[tuple, tuple]:
    """The columns of ``H^-1 J^T`` and the task inertia ``(J H^-1 J^T)^-1``
    as floats, from the Cholesky factor of an inertia H and the Jacobian rows
    in the same angles (B and J_phi in the loop, M and J for
    ``task_space_quantities``: the same block); the 2 x 2 block is inverted
    in closed form.

    The only place the singularity test runs: it precedes every inversion of
    the block. Its quantity is the smallest |eigenvalue| of the symmetrised
    block, computed as |det| over the largest |eigenvalue| so that a
    near-singular block loses no digits to cancellation.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below ``SINGULARITY_TOL``.
    """
    jx, jy = jac
    mx, my = cols = _cho_solve(low, jx), _cho_solve(low, jy)
    a, b, c, d = _dot(jx, mx), _dot(jx, my), _dot(jy, mx), _dot(jy, my)
    off = 0.5 * (b + c)
    det_sym = a * d - off * off
    largest = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), off)
    smallest = abs(det_sym) / largest if det_sym else 0.0
    if smallest < SINGULARITY_TOL:
        raise SingularConfigurationError(smallest)
    det = a * d - b * c
    return cols, ((d / det, -b / det), (-c / det, a / det))


def task_space_quantities(
    arm: PlanarArm, q: np.ndarray, dyn: ArmDynamics | None = None
) -> TaskSpace:
    """Operational-space quantities at ``q``, solved in joint space.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below 1e-8.
        numpy.linalg.LinAlgError: when M is not positive definite.
    """
    dyn = arm_dynamics(arm, q, np.zeros(len(q))) if dyn is None else dyn
    mass, jac = dyn.mass_matrix.tolist(), dyn.jacobian.tolist()
    (mx, my), lam = _task_inertia(_cholesky(mass), jac)
    jbar_t = [[l0 * u + l1 * v for u, v in zip(mx, my)] for l0, l1 in lam]
    nullspace = [[-(xi * b0 + yi * b1) for b0, b1 in zip(*jbar_t)] for xi, yi in zip(*jac)]
    for i, row in enumerate(nullspace):
        row[i] += 1.0
    return TaskSpace(lam=np.array(lam), jbar_t=np.array(jbar_t), nullspace=np.array(nullspace))


class ArmSample(NamedTuple):
    """One evaluation of the arm at a sampled state (q, qdot).

    The loop's task state, the controller tick and the integrator's first
    stage all read it, so a sample costs one kernel (one Cholesky factor of
    B), one ``B^-1 J_phi^T`` solve and one singularity test.
    """

    q: list  # the sampled state
    qdot: list
    kernel: tuple  # _arm_kernel(arm, q)
    x: list  # end-effector pose
    xdot: list  # J qdot
    binv_jt: tuple  # the columns of B^-1 J_phi^T, floats
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
    _, _, low, jphi = kernel
    cols, lam = _task_inertia(low, jphi)
    jac = _jacobian_rows(jphi)
    xdot = (np.array(jac) @ qdot).tolist()
    v0, v1 = xdot
    (l00, l01), (l10, l11) = lam
    ke = 0.5 * ((v0 * l00 + v1 * l10) * v0 + (v0 * l01 + v1 * l11) * v1)
    return ArmSample(q, qdot, kernel, _tip(jac), xdot, cols, lam, ke)


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


def _point_mass_task_state(plant: PointMassPlant, x: list, xdot: list) -> PointMassSample:
    return PointMassSample(x, xdot, 0.5 * _dot(map(mul, plant.inertia, xdot), xdot))


def _point_mass_accel(
    plant: PointMassPlant,
    force: list,
    x: list,
    xdot: list,
    wall: ContactWall | None,
    task_wrench: list | None,
    kernel=None,
) -> list:
    """Task accelerations as floats; same signature as ``_arm_accel`` (the
    point mass has no kernel, so ``kernel`` is ignored)."""
    f = force if task_wrench is None else list(map(add, force, task_wrench))
    if wall is not None:
        f = list(map(add, f, contact_force(wall, x, xdot)))
    return list(map(truediv, f, plant.inertia))


def _arm_accel(
    arm: PlanarArm,
    tau,
    q,
    qdot,
    wall: ContactWall | None,
    task_wrench,
    kernel=None,
) -> list:
    """Joint accelerations ``M^-1 (tau - C qdot - G + J^T w)`` as floats,
    solved in absolute angles with the factor of B; ``kernel`` is
    ``_arm_kernel(arm, q)`` when the caller has it already.

    A non-finite state gives a non-finite result, so the step reports it.

    Raises:
        numpy.linalg.LinAlgError: when the mass matrix is not positive definite.
    """
    c, s, low, (jx, jy) = _arm_kernel(arm, q) if kernel is None else kernel
    _, load = _velocity_load(arm, c, s, qdot)
    w0, w1 = (0.0, 0.0) if task_wrench is None else task_wrench
    if wall is not None:
        jac = _jacobian_rows((jx, jy))
        f0, f1 = contact_force(wall, _tip(jac), [_dot(row, qdot) for row in jac])
        w0, w1 = w0 + f0, w1 + f1
    gravity = _gravity_phi(arm, c, s)
    n = len(c)
    rhs = [0.0] * n
    t1 = 0.0  # tau[a + 1]
    for a in range(n - 1, -1, -1):
        t = tau[a]
        rhs[a] = t - t1 + (jx[a] * w0 + jy[a] * w1) - (load[a] + gravity[a])
        t1 = t
    phidd = _cho_solve(low, rhs)
    qdd = phidd[:]
    for a in range(1, n):
        qdd[a] -= phidd[a - 1]
    return qdd


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

