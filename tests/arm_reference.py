"""Arm instruments that only the tests use: the chain's joint positions and
the arm's potential and kinetic energy, from the same kernel and joint-space
dynamics the plant runs, and the float dot product the energy oracle sums
with."""

from operator import mul

import numpy as np

from fractal_impedance.dynamics import PlanarArm, _arm_kernel, arm_dynamics


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


def joint_positions(arm: PlanarArm, q: np.ndarray) -> np.ndarray:
    """Base and joint/tip positions, shape (links + 1, 2)."""
    c, s, *_ = _arm_kernel(arm, q)
    xs = np.concatenate(([0.0], np.cumsum(np.multiply(arm.lengths, c))))
    ys = np.concatenate(([0.0], np.cumsum(np.multiply(arm.lengths, s))))
    return np.column_stack((xs, ys))


def potential_energy(arm: PlanarArm, q: np.ndarray) -> float:
    c, s, *_ = _arm_kernel(arm, q)
    gx, gy = arm.gravity
    return -_dot(arm._first_moments, [gx * ca + gy * sa for ca, sa in zip(c, s)])


def kinetic_energy(arm: PlanarArm, q: np.ndarray, qdot: np.ndarray) -> float:
    qdot = np.asarray(qdot, dtype=float)
    return 0.5 * float(qdot @ arm_dynamics(arm, q, qdot).mass_matrix @ qdot)
