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
plants' accelerations, the arm's constants, kernel, tip pose, ``J qdot`` and
task inertia, and the contact and pulse wrenches work on Python floats, not
numpy arrays: each vector holds a few flops, and numpy's per-call dispatch
costs more than the arithmetic. Float code also fixes the bits: numpy sends a
product to its BLAS, whose kernel, and so whose rounding, depends on the CPU.

The arm has exactly 3 links, the one arm the harness builds, so its terms are
straight-line float code on unpacked locals, with no loop over links.
``_arm_kernel`` is the one body that computes every term of a state that the
loop shares (link directions, B and its factor, J_phi, G_phi, the velocity
load), into locals. Given no torque it returns them as one flat tuple, which
the sample, the tick, the first stage and the joint-space functions read;
given a torque it is a fresh integrator stage and hands its locals straight
to the solve, ``_arm_solve``, which the first stage runs on the sample's
terms. So each formula is written once, and a fresh stage is one kernel call
that builds no tuple of terms (about 2.5 us by timeit on a 2-vCPU Xeon VM,
against 3.2 us while the kernel returned eight nested tuples for the stage to
unpack). Each sum keeps a fixed order of association, ``0.0 +`` starts
included: reordering a float sum changes its last bits, and so the records.
An arm sample is one kernel, whose terms serve its tip pose and ``J qdot``
(``_tip``, which the wall stage calls too), its task inertia, the tick and
the first stage. Neither builds an array, and the loop forms neither J^T-bar
nor N: the torque map folds N into its task term, and only
``task_space_quantities`` builds them. ``_advance`` is the one stepping path,
and ``Scenario`` checks the integrator name against ``INTEGRATORS``. Its
state-dependent RK4 steps a 3-component state (the arm's) on unpacked locals
and any other size in a loop over the components; with ``accel=None``, for a
plant whose acceleration does not depend on its state, RK4 is one pass over
the components that gives the general path's bits, and one call steps a held
run of ``steps`` samples under that acceleration.

Environment effects (unilateral wall, force pulses) are plain functions so the
integrators can evaluate them at stage states.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from math import cos, isfinite, sin
from operator import add, truediv
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
    "task_space_quantities",
    "contact_force",
    "external_wrench",
]

SINGULARITY_TOL = 1e-8
INTEGRATORS = ("rk4", "semi_implicit")
_REST = (0.0, 0.0, 0.0)


class IntegrationBlowupError(RuntimeError):
    """Raised when a plant state becomes non-finite; carries the time stamp
    and the finite states of a held run before it, as ``_advance`` returns."""

    def __init__(self, time: float, pos=(), vel=()):
        self.time = float(time)
        self.pos, self.vel = list(pos), list(vel)
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


def _float(value, name: str) -> float:
    """A config number as a float: a real that is not a bool (a str is not
    real); an integer too large for a float is not finite."""
    if type(value) is float:  # the common case, before the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: must be finite") from None


def _floats(values, name: str, size: int | None = None) -> tuple:
    """A config vector as a tuple of ``_float``s, of ``size`` entries when given."""
    if isinstance(values, str):
        raise ValueError(f"{name}: must be a number, got {values!r}")
    if not hasattr(values, "__len__") or isinstance(values, dict):
        raise ValueError(f"{name}: expected a list of numbers, got {values!r}")
    if size is not None and len(values) != size:
        raise ValueError(f"{name}: expected {size} entries")
    return tuple(v if type(v) is float else _float(v, name) for v in values)


@dataclass
class PointMassPlant:
    """Point mass per task DoF, inertia[i] * xdd[i] = applied force[i]; the
    inertia is held as floats, the state by the caller."""

    inertia: tuple

    def __post_init__(self) -> None:
        self.inertia = _floats(self.inertia, "inertia")
        if not self.inertia or not all(m > 0.0 for m in self.inertia):
            raise ValueError("inertia: must be positive per DoF")


@dataclass
class PlanarArm:
    """Planar serial chain of 3 links with revolute joints and a 2-D
    positional task.

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
        sizes = {"lengths": 3, "masses": 3, "com_offsets": 3, "inertias": 3, "gravity": 2}
        for name, size in sizes.items():
            setattr(self, name, _floats(getattr(self, name), name, size))
        if not all(v > 0.0 for v in self.lengths + self.masses):
            raise ValueError("link lengths and masses must be positive")
        # cmat[a][i]: coefficient of the unit vector of absolute angle a in the
        # position of COM i (full upstream links, partial own link). Coupling
        # cmat diag(m) cmat^T and first moments cmat m sum from 0.0 over i.
        (l0, l1, _), (o0, o1, o2) = self.lengths, self.com_offsets
        m0, m1, m2 = self.masses
        cmat = ((o0, l0, l0), (0.0, o1, l1), (0.0, 0.0, o2))
        self._coupling = tuple(
            tuple(0.0 + c0 * m0 * d0 + c1 * m1 * d1 + c2 * m2 * d2 for d0, d1, d2 in cmat)
            for c0, c1, c2 in cmat
        )
        self._first_moments = tuple(0.0 + c0 * m0 + c1 * m1 + c2 * m2 for c0, c1, c2 in cmat)

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


def _suffix(v) -> list:
    """``S^T v`` for ``phi = S q``: entry ``j`` sums ``v[a]`` over ``a >= j``."""
    v0, v1, v2 = v
    t = v1 + v2
    return [v0 + t, t, v2]


def _suffix_2d(b) -> list:
    """``S^T B S``: entry ``(i, j)`` sums ``B[a][c]`` over ``a >= i``, ``c >= j``."""
    return [list(row) for row in zip(*map(_suffix, zip(*map(_suffix, b))))]


def _jacobian_rows(jphi) -> tuple[list, list]:
    """Rows ``(jx, jy)`` of the joint-space Jacobian ``J = J_phi S``."""
    return _suffix(jphi[0]), _suffix(jphi[1])


def _tip(jphi, qdot=_REST) -> tuple[list, list]:
    """The tip pose ``(jy[0], -jx[0])`` and task velocity ``J qdot``, each
    entry summed from 0.0 in joint order, as lists of floats from the rows
    ``(jx, jy)`` of ``J = J_phi S``: the one definition of both, which the
    sample and the wall stage share."""
    (x0, x1, x2), (y0, y1, y2) = _jacobian_rows(jphi)
    qd0, qd1, qd2 = qdot
    xdot = [0.0 + x0 * qd0 + x1 * qd1 + x2 * qd2, 0.0 + y0 * qd0 + y1 * qd1 + y2 * qd2]
    return [y0, -x0], xdot


def _cholesky3(b00, b10, b11, b20, b21, b22) -> tuple:
    """Lower Cholesky factor ``(l00, l10, l11, l20, l21, l22)`` of B or M
    from its lower triangle in the same order.

    Raises:
        numpy.linalg.LinAlgError: when the matrix is not positive definite.
    """
    if b00 <= 0.0:
        raise np.linalg.LinAlgError("mass matrix is not positive definite")
    l00 = math.sqrt(b00)
    l10 = b10 / l00
    d = b11 - l10 * l10
    if d <= 0.0:
        raise np.linalg.LinAlgError("mass matrix is not positive definite")
    l11 = math.sqrt(d)
    l20 = b20 / l00
    l21 = (b21 - l20 * l10) / l11
    d = b22 - l20 * l20 - l21 * l21
    if d <= 0.0:
        raise np.linalg.LinAlgError("mass matrix is not positive definite")
    return l00, l10, l11, l20, l21, math.sqrt(d)


def _cho_solve3(low, b0, b1, b2) -> tuple:
    """Solve ``L L^T x = b`` for the factor ``L`` of ``_cholesky3``: forward,
    then back substitution."""
    l00, l10, l11, l20, l21, l22 = low
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    x2 = (b2 - l20 * y0 - l21 * y1) / l22 / l22
    x1 = (y1 - l21 * x2) / l11
    return (y0 - l20 * x2 - l10 * x1) / l00, x1, x2


def _arm_kernel(arm: PlanarArm, q, qdot=_REST, tau=None, wall=None, task_wrench=None):
    """One straight-line evaluation of the arm at ``(q, qdot)`` on Python
    floats: every state-dependent term the loop shares, computed into locals.

    Given no torque it returns the terms as one flat tuple, the layout that
    ``ArmSample.kernel`` holds and its readers slice::

        c0 c1 c2 s0 s1 s2 sq0 sq1 sq2            [0:9]
        b00 b10 b11 b20 b21 b22                  [9:15]
        low                                      [15]
        jx0 jx1 jx2 jy0 jy1 jy2                  [16:22]
        g0 g1 g2 ld0 ld1 ld2                     [22:28]

    Given a torque it is a fresh integrator stage: it returns ``_arm_solve``
    of ``tau``, the wall and the task wrench on its terms ``[15:]``, passed
    as locals, not as a tuple.

    - ``c``, ``s``: cos and sin of the absolute link angles ``phi = S q``
      (running sums of ``q``). An infinite angle gives NaN, as numpy's cos
      does, so a non-finite state propagates instead of raising.
    - ``sq``: the squared absolute rates. ``qdot`` defaults to rest for the
      callers that read only the terms of ``q``.
    - ``b``, ``low``: the inertia ``B = A o cos(phi_a - phi_b) + diag(I)`` as
      its lower triangle and its Cholesky factor in the same order; the angle
      differences come from products of the link directions.
    - ``jx``, ``jy``: the rows of ``J_phi = l o [-sin phi; cos phi]``, the
      end-effector Jacobian in absolute angles.
    - ``g``: the gravity load G_phi in absolute angles.
    - ``ld``: the velocity-product load ``(A o sin(phi_a - phi_b))
      phidot^2``; the sine matrix is antisymmetric, so each pair of links
      enters once.

    Raises:
        numpy.linalg.LinAlgError: when B (so M) is not positive definite.
    """
    p0 = 0.0 + q[0]
    p1 = p0 + q[1]
    p2 = p1 + q[2]
    try:
        c0, c1, c2, s0, s1, s2 = cos(p0), cos(p1), cos(p2), sin(p0), sin(p1), sin(p2)
    except ValueError:  # math.cos raises at an infinite angle
        p0, p1, p2 = (math.nan if math.isinf(p) else p for p in (p0, p1, p2))
        c0, c1, c2, s0, s1, s2 = cos(p0), cos(p1), cos(p2), sin(p0), sin(p1), sin(p2)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = arm._coupling
    i0, i1, i2 = arm.inertias
    b00 = a00 + i0  # cos(phi_a - phi_a) = 1
    b10 = a10 * (c1 * c0 + s1 * s0)
    b11 = a11 + i1
    b20 = a20 * (c2 * c0 + s2 * s0)
    b21 = a21 * (c2 * c1 + s2 * s1)
    b22 = a22 + i2
    low = _cholesky3(b00, b10, b11, b20, b21, b22)
    l0, l1, l2 = arm.lengths
    jx0, jx1, jx2 = -(l0 * s0), -(l1 * s1), -(l2 * s2)
    jy0, jy1, jy2 = l0 * c0, l1 * c1, l2 * c2
    gx, gy = arm.gravity
    m0, m1, m2 = arm._first_moments
    g0, g1, g2 = m0 * (gx * s0 - gy * c0), m1 * (gx * s1 - gy * c1), m2 * (gx * s2 - gy * c2)
    v0 = qdot[0]
    v1 = v0 + qdot[1]
    v2 = v1 + qdot[2]
    sq0, sq1, sq2 = v0 * v0, v1 * v1, v2 * v2
    a01 = a01 * (s0 * c1 - c0 * s1)
    a02 = a02 * (s0 * c2 - c0 * s2)
    a12 = a12 * (s1 * c2 - c1 * s2)
    ld0 = 0.0 + a01 * sq1 + a02 * sq2
    ld1 = 0.0 - a01 * sq0 + a12 * sq2
    ld2 = 0.0 - a02 * sq0 - a12 * sq1
    if tau is None:
        return (
            c0, c1, c2, s0, s1, s2, sq0, sq1, sq2,
            b00, b10, b11, b20, b21, b22, low,
            jx0, jx1, jx2, jy0, jy1, jy2, g0, g1, g2, ld0, ld1, ld2,
        )
    return _arm_solve(
        tau, qdot, wall, task_wrench,
        low, jx0, jx1, jx2, jy0, jy1, jy2, g0, g1, g2, ld0, ld1, ld2,
    )


def _arm_solve(
    tau, qdot, wall, task_wrench, low, jx0, jx1, jx2, jy0, jy1, jy2, g0, g1, g2, ld0, ld1, ld2
) -> list:
    """Joint accelerations ``M^-1 (tau - C qdot - G + J^T w)`` from the kernel
    terms ``[15:]``, solved in absolute angles with the factor of B:
    ``B phidd = S^-T tau + J_phi^T w - load - G_phi``, then ``qdd = S^-1
    phidd``. ``w`` is the task wrench plus the wall's force at the tip pose
    and ``J qdot`` of ``_tip``."""
    w0, w1 = (0.0, 0.0) if task_wrench is None else task_wrench
    if wall is not None:
        f0, f1 = contact_force(wall, *_tip(((jx0, jx1, jx2), (jy0, jy1, jy2)), qdot))
        w0, w1 = w0 + f0, w1 + f1
    t0, t1, t2 = tau
    r0 = t0 - t1 + (jx0 * w0 + jy0 * w1) - (ld0 + g0)
    r1 = t1 - t2 + (jx1 * w0 + jy1 * w1) - (ld1 + g1)
    r2 = t2 + (jx2 * w0 + jy2 * w1) - (ld2 + g2)
    p0, p1, p2 = _cho_solve3(low, r0, r1, r2)
    return [p0, p1 - p0, p2 - p1]


def arm_dynamics(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> ArmDynamics:
    """Closed-form mass matrix, Coriolis, gravity and end-effector Jacobians,
    from the terms of ``_arm_kernel``.

    Raises:
        numpy.linalg.LinAlgError: when the mass matrix is not positive definite.
    """
    k = _arm_kernel(arm, q)
    c, s, (b00, b10, b11, b20, b21, b22), jphi = k[0:3], k[3:6], k[9:15], (k[16:19], k[19:22])
    qdot = np.asarray(qdot, dtype=float)
    phidot = np.cumsum(qdot)
    a_sin = np.array(arm._coupling) * (np.outer(s, c) - np.outer(c, s))  # A o sin(phi_a - phi_b)
    coriolis = np.array(_suffix_2d((a_sin * phidot).tolist()))
    lp = -np.multiply(arm.lengths, phidot)
    b = ((b00, b10, b20), (b10, b11, b21), (b20, b21, b22))  # M = S^T B S
    return ArmDynamics(
        mass_matrix=np.array(_suffix_2d(b)),
        coriolis=coriolis,
        bias=coriolis @ qdot,
        gravity=np.array(_suffix(k[22:25])),
        jacobian=np.array(_jacobian_rows(jphi)),
        jacobian_dot=np.array((_suffix(lp * c), _suffix(lp * s))),
    )


def _arm_drift(arm: PlanarArm, sample) -> tuple[float, float]:
    """The tip drift ``Jd qdot = -(l o phidot^2) . (cos phi, sin phi)`` at
    an arm sample, as floats."""
    c0, c1, c2, s0, s1, s2, sq0, sq1, sq2 = sample.kernel[:9]
    l0, l1, l2 = arm.lengths
    lp0, lp1, lp2 = l0 * sq0, l1 * sq1, l2 * sq2
    return -(0.0 + c0 * lp0 + c1 * lp1 + c2 * lp2), -(0.0 + s0 * lp0 + s1 * lp1 + s2 * lp2)


def forward_kinematics(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    k = _arm_kernel(arm, q)
    return np.array(_tip((k[16:19], k[19:22]))[0])


@dataclass(frozen=True)
class TaskSpace:
    """Task-space inertia, dynamically consistent inverse and null projector."""

    lam: np.ndarray  # (J M^-1 J^T)^-1
    jbar_t: np.ndarray  # lam J M^-1
    nullspace: np.ndarray  # I - J^T jbar_t


def _task_inertia(low, jac) -> tuple[tuple, tuple]:
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
    (jx0, jx1, jx2), (jy0, jy1, jy2) = jac
    mx = mx0, mx1, mx2 = _cho_solve3(low, jx0, jx1, jx2)
    my = my0, my1, my2 = _cho_solve3(low, jy0, jy1, jy2)
    a = 0.0 + jx0 * mx0 + jx1 * mx1 + jx2 * mx2
    b = 0.0 + jx0 * my0 + jx1 * my1 + jx2 * my2
    c = 0.0 + jy0 * mx0 + jy1 * mx1 + jy2 * mx2
    d = 0.0 + jy0 * my0 + jy1 * my1 + jy2 * my2
    off = 0.5 * (b + c)
    det_sym = a * d - off * off
    largest = abs(0.5 * (a + d)) + math.hypot(0.5 * (a - d), off)
    smallest = abs(det_sym) / largest if det_sym else 0.0
    if smallest < SINGULARITY_TOL:
        raise SingularConfigurationError(smallest)
    det = a * d - b * c
    return (mx, my), ((d / det, -b / det), (-c / det, a / det))


def task_space_quantities(
    arm: PlanarArm, q: np.ndarray, dyn: ArmDynamics | None = None
) -> TaskSpace:
    """Operational-space quantities at ``q``, solved in joint space.

    Raises:
        SingularConfigurationError: when the smallest singular value of
            J M^-1 J^T drops below 1e-8.
        numpy.linalg.LinAlgError: when M is not positive definite.
    """
    dyn = arm_dynamics(arm, q, np.zeros(3)) if dyn is None else dyn
    m, jac = dyn.mass_matrix.tolist(), dyn.jacobian.tolist()
    low = _cholesky3(m[0][0], m[1][0], m[1][1], m[2][0], m[2][1], m[2][2])
    (mx, my), lam = _task_inertia(low, jac)
    jbar_t = [[l0 * u + l1 * v for u, v in zip(mx, my)] for l0, l1 in lam]
    nullspace = [[-(xi * b0 + yi * b1) for b0, b1 in zip(*jbar_t)] for xi, yi in zip(*jac)]
    for i, row in enumerate(nullspace):
        row[i] += 1.0
    return TaskSpace(lam=np.array(lam), jbar_t=np.array(jbar_t), nullspace=np.array(nullspace))


class ArmSample(NamedTuple):
    """One evaluation of the arm at a sampled state (q, qdot).

    The loop's task state, the tick and the first integrator stage all read
    it, so a sample costs one kernel (one factor of B and one velocity load),
    one ``B^-1 J_phi^T`` solve and one singularity test. The tick and the
    stage read the kernel's terms from ``kernel``, by the slices of the flat
    layout in ``_arm_kernel``'s docstring; the sample holds only what the
    kernel does not.
    """

    q: list  # the sampled state
    qdot: list
    kernel: tuple  # _arm_kernel(arm, q, qdot), 28 flat terms
    x: list  # end-effector pose
    xdot: list  # J qdot
    binv_jt: tuple  # the columns of B^-1 J_phi^T, floats
    lam: tuple  # task inertia Lam, floats
    ke: float  # task kinetic energy 0.5 xdot' Lam xdot


def _arm_task_state(arm: PlanarArm, q, qdot) -> ArmSample:
    """Evaluate the arm at a sample, on floats only.

    ``x`` and ``xdot`` come from ``_tip``, as the wall stage of ``_arm_accel``
    forms them, so the contact force the loop records at a sample is the one
    its first stage computes.

    Raises:
        SingularConfigurationError: from the task-space test, before any
            inversion of J M^-1 J^T.
    """
    kernel = _arm_kernel(arm, q, qdot)
    jphi = kernel[16:19], kernel[19:22]
    cols, lam = _task_inertia(kernel[15], jphi)
    x, xdot = _tip(jphi, qdot)
    v0, v1 = xdot
    (l00, l01), (l10, l11) = lam
    ke = 0.5 * ((v0 * l00 + v1 * l10) * v0 + (v0 * l01 + v1 * l11) * v1)
    return ArmSample(q, qdot, kernel, x, xdot, cols, lam, ke)


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
        # Each message starts with the scenario field it names.
        for name in ("offset", "stiffness", "damping"):
            object.__setattr__(self, name, _float(getattr(self, name), f"wall.{name}"))
        if self.stiffness <= 0.0:
            raise ValueError("wall.stiffness: must be positive")
        if self.damping < 0.0:
            raise ValueError("wall.damping: must be non-negative")
        if self.direction not in (-1, 1):
            raise ValueError("wall.direction: must be +1 or -1")


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
        # The messages of both pulse classes start with the scenario field;
        # ``build_environment`` checks the range of a config's pulse by name.
        object.__setattr__(self, "start", _float(self.start, "pulses"))
        object.__setattr__(self, "duration", _float(self.duration, "pulses"))
        object.__setattr__(self, "wrench", _floats(self.wrench, "pulses"))

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
                raise ValueError("pulses: wrench length must match n_dof")
        for dof in range(self.n_dof):
            spans = sorted(
                (p.start, p.end, i) for i, p in enumerate(self.pulses) if p.wrench[dof] != 0.0
            )
            for (_, e0, i0), (s1, _, i1) in zip(spans, spans[1:]):
                if s1 < e0:  # the pulse that starts while the other is on
                    raise ValueError(f"pulses[{i1}]: overlaps pulses[{i0}] on DoF {dof}")


def external_wrench(profile: PerturbationProfile, t: float) -> list:
    """Sum of pulses active at time t as a list of floats (zero outside all
    pulses)."""
    w = [0.0] * profile.n_dof
    for p in profile.pulses:
        if p.start <= t < p.end:
            w = list(map(add, w, p.wrench))
    return w


def _point_mass_accel(
    plant: PointMassPlant,
    force: list,
    x: list,
    xdot: list,
    wall: ContactWall | None,
    task_wrench: list | None,
    sample=None,
) -> list:
    """Task accelerations (force + task wrench + contact force) / m as floats,
    summed in that order; same signature as ``_arm_accel`` (the point mass
    has no terms to share, so ``sample`` is ignored). Without a wall this is
    one ``map`` over the DoFs: the same float operations in the same order
    as a comprehension, without its frame."""
    if wall is not None:
        if task_wrench is not None:
            force = list(map(add, force, task_wrench))
        task_wrench = contact_force(wall, x, xdot)
    if task_wrench is None:
        return list(map(truediv, force, plant.inertia))
    return list(map(truediv, map(add, force, task_wrench), plant.inertia))


def _arm_accel(
    arm: PlanarArm,
    tau,
    q,
    qdot,
    wall: ContactWall | None,
    task_wrench,
    sample: ArmSample | None = None,
) -> list:
    """Joint accelerations ``M^-1 (tau - C qdot - G + J^T w)`` as floats,
    solved in absolute angles with the factor of B. ``sample`` is
    ``_arm_task_state(arm, q, qdot)`` when the caller has it already: the
    stage is then ``_arm_solve`` on its kernel's terms, and otherwise one
    ``_arm_kernel`` call.

    A non-finite state gives a non-finite result, so the step reports it.

    Raises:
        numpy.linalg.LinAlgError: when the mass matrix is not positive definite.
    """
    if sample is None:
        return _arm_kernel(arm, q, qdot, tau, wall, task_wrench)
    return _arm_solve(tau, qdot, wall, task_wrench, *sample.kernel[15:])


def _advance(pos, vel, accel, dt: float, integrator: str, t: float, accel0=None, steps=1):
    """Fixed integration steps of pos'' = accel(pos, vel) over lists of
    floats; the one integrator of both plants.

    ``accel0`` is ``accel(pos, vel)`` when the caller has it already;
    ``accel=None`` means every stage's acceleration is ``accel0``: RK4 then
    reads no stage position and its second and third stage velocities are
    equal, so it takes one pass per component. Such a held run, or the
    semi-implicit step (which reads no stage), takes ``steps`` steps, whose
    increments ``h a``, ``dt a`` and ``dt/6 (a + 2a + 2a + a)`` are the same
    floats; the new states come back as flat sample-major lists, ``len(pos)``
    values per step, so one step returns the new state. Each component is
    combined in the order numpy's array expressions ``vel + 0.5 * dt * acc``
    and ``pos + dt / 6 * (k1 + 2 k2 + 2 k3 + k4)`` use, so the step gives
    their bits. The state-dependent RK4 of a 3-component state (the arm, or
    a 3-DoF point mass at a wall) is straight-line code on unpacked locals,
    one list per stage argument: its bookkeeping around the three stage calls
    costs about 2.1 us by timeit on a 2-vCPU Xeon VM, against 4.4 us in the
    loop form, which steps every other size. Explicit loops, not
    comprehensions: at one to three components a comprehension's own call
    costs more than its arithmetic.

    Raises:
        IntegrationBlowupError: when a new state is not finite (it stays
            so under these updates, so only the last one is checked). With
            ``t = k dt``, step ``j`` reports ``(k + j) dt + dt`` from the
            sample index, as one step from ``(k + j) dt`` does, and carries
            the ``j`` finite states before it.
    """
    if accel0 is None:
        accel0 = accel(pos, vel)
    new_pos, new_vel = [], []
    finite = True  # the last state's components
    if accel is None or integrator == "semi_implicit":
        h, h6 = 0.5 * dt, dt / 6.0
        for p, v, a in zip(pos, vel, accel0):
            da = dt * a
            if integrator == "semi_implicit":
                for _ in range(steps):
                    v = v + da
                    p = p + dt * v
                    new_pos.append(p)
                    new_vel.append(v)
            else:
                ha, dv = h * a, h6 * (a + 2.0 * a + 2.0 * a + a)
                for _ in range(steps):
                    b2 = v + ha
                    p = p + h6 * (v + 2.0 * b2 + 2.0 * b2 + (v + da))
                    v = v + dv
                    new_pos.append(p)
                    new_vel.append(v)
            finite = finite and isfinite(p) and isfinite(v)
        if steps > 1 < len(pos):  # one run per component, to one state per step
            new_pos = np.reshape(new_pos, (-1, steps)).T.ravel().tolist()
            new_vel = np.reshape(new_vel, (-1, steps)).T.ravel().tolist()
    elif len(pos) == 3:  # the arm's state: the loop form below on unpacked locals
        h, h6 = 0.5 * dt, dt / 6.0
        (p0, p1, p2), (v0, v1, v2), (a0, a1, a2) = pos, vel, accel0
        u0, u1, u2 = v0 + h * a0, v1 + h * a1, v2 + h * a2
        b0, b1, b2 = accel([p0 + h * v0, p1 + h * v1, p2 + h * v2], [u0, u1, u2])
        w0, w1, w2 = v0 + h * b0, v1 + h * b1, v2 + h * b2
        c0, c1, c2 = accel([p0 + h * u0, p1 + h * u1, p2 + h * u2], [w0, w1, w2])
        z0, z1, z2 = v0 + dt * c0, v1 + dt * c1, v2 + dt * c2
        e0, e1, e2 = accel([p0 + dt * w0, p1 + dt * w1, p2 + dt * w2], [z0, z1, z2])
        new_pos = [
            p0 + h6 * (v0 + 2.0 * u0 + 2.0 * w0 + z0),
            p1 + h6 * (v1 + 2.0 * u1 + 2.0 * w1 + z1),
            p2 + h6 * (v2 + 2.0 * u2 + 2.0 * w2 + z2),
        ]
        new_vel = [
            v0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + e0),
            v1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + e1),
            v2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + e2),
        ]
        finite = all(map(isfinite, new_pos + new_vel))
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
        finite = all(map(isfinite, new_pos + new_vel))
    if not finite:
        d = len(pos)
        j = [isfinite(p) and isfinite(v) for p, v in zip(new_pos, new_vel)].index(False) // d
        time = t + dt if j == 0 else (round(t / dt) + j) * dt + dt
        raise IntegrationBlowupError(time, new_pos[: j * d], new_vel[: j * d])
    return new_pos, new_vel
