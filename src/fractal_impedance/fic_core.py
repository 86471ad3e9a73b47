"""Nonlinear saturating spring and the divergence/convergence attractor machine.

Per-DoF math for the fractal impedance controller (FIC): a stiffness profile
that is near-linear for small displacements and saturates its force at
``w_max`` beyond the virtual boundary ``x_b``, plus the phase switching that
snapshots the attractor (``x_tilde_max``, absorbed energy, convergence gain)
at every divergence-to-convergence transition.

Conventions
-----------
``x_err = x_target - x`` (positive when the plant lags the target) and
``x_err_rate`` is its time derivative. Forces returned here are wrenches
applied to the plant, so a positive error yields a positive restoring wrench.
Everything is per-DoF and unit-agnostic: N and m for linear DoFs, N*m and rad
for angular ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = [
    "Phase",
    "StiffnessParams",
    "AttractorState",
    "beta_squared",
    "stiffness",
    "spring_force",
    "spring_energy",
    "classify_phase",
    "update_attractor",
    "convergence_force",
    "fic_wrench",
]

# Velocity magnitudes below this threshold are treated as zero by the sampled
# switching logic (a sampled trajectory never hits an exact turning point).
DEFAULT_RATE_TOL = 1e-6
# A divergence->convergence switch at essentially zero displacement carries no
# energy and would produce a degenerate convergence spring; it is skipped.
ZERO_DISPLACEMENT_TOL = 1e-9


class Phase(enum.Enum):
    """Per-DoF controller regime. The numeric value is the logged s flag."""

    CONVERGENCE = 0
    DIVERGENCE = 1


def beta_squared(k_const: float, w_max: float, x_b: float) -> float:
    """Exponent coefficient making the spring force reach ``w_max`` at ``x_b``.

    beta^2 = ln(w_max / x_b - k_const) / x_b^2. The logarithm argument is the
    variable part of the boundary stiffness and must exceed 1, otherwise the
    exponential profile cannot meet the saturation level.

    Raises:
        ValueError: if ``x_b <= 0``, ``w_max <= 0``, ``k_const < 0`` or the
            profile is infeasible: ``w_max / x_b - k_const <= 1``, or a
            coefficient that is not finite and positive in floating point
            (``x_b^2`` underflows, ``w_max / x_b`` overflows).
    """
    if x_b <= 0.0:
        raise ValueError(f"x_b must be positive, got {x_b}")
    if w_max <= 0.0:
        raise ValueError(f"w_max must be positive, got {w_max}")
    if k_const < 0.0:
        raise ValueError(f"k_const must be non-negative, got {k_const}")
    arg = w_max / x_b - k_const
    if arg <= 1.0:
        raise ValueError(
            f"infeasible stiffness profile: w_max/x_b - k_const = {arg} <= 1"
        )
    x_b_sq = x_b * x_b
    beta_sq = math.log(arg) / x_b_sq if x_b_sq > 0.0 else math.inf
    if not 0.0 < beta_sq < math.inf:
        raise ValueError(
            f"infeasible stiffness profile: beta^2 = {beta_sq} is not finite and positive"
        )
    return beta_sq


@dataclass(frozen=True)
class StiffnessParams:
    """Parameters of one DoF's saturating spring.

    Attributes:
        k_const: constant stiffness floor (N/m or N*m/rad).
        w_max: force magnitude cap (N or N*m), reached for |x_err| >= x_b.
        x_b: virtual boundary displacement (m or rad).
        beta_sq: derived exponent coefficient, recomputed at construction.
    """

    k_const: float
    w_max: float
    x_b: float
    beta_sq: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "beta_sq", beta_squared(self.k_const, self.w_max, self.x_b)
        )

    @property
    def k_max(self) -> float:
        """Stiffness at the virtual boundary, w_max / x_b."""
        return self.w_max / self.x_b


def stiffness(p: StiffnessParams, x_err: float) -> float:
    """Displacement-dependent spring stiffness k_d(x_err).

    ``k_const + exp(beta_sq * x_err^2)`` inside the boundary and ``w_max / |x_err|``
    beyond it, which caps the force magnitude at ``w_max``. Continuous at the
    boundary where both branches equal ``w_max / x_b``.
    """
    ax = abs(x_err)
    if ax > p.x_b:
        return p.w_max / ax
    return p.k_const + math.exp(p.beta_sq * x_err * x_err)


def spring_force(p: StiffnessParams, x_err: float) -> float:
    """Divergence-phase spring wrench k_d(x_err) * x_err.

    Exactly odd in ``x_err`` and bounded by ``w_max`` in magnitude; exactly
    ``w_max * sign(x_err)`` at and beyond the virtual boundary. Rounding can
    carry the exponential branch a few ulps past ``w_max`` near the boundary,
    so its magnitude is capped there too.
    """
    if abs(x_err) >= p.x_b:
        return math.copysign(p.w_max, x_err)
    f = stiffness(p, x_err) * x_err
    if abs(f) > p.w_max:
        return math.copysign(p.w_max, x_err)
    return f


def spring_energy(p: StiffnessParams, x_err: float) -> float:
    """Potential energy stored by the spring from 0 to ``x_err`` (J).

    Closed form of the force integral: inside the boundary
    ``k_const x^2 / 2 + (exp(beta_sq x^2) - 1) / (2 beta_sq)``, and past it the
    boundary value plus ``w_max (|x| - x_b)``. Even in ``x_err``, zero at zero,
    strictly increasing in |x_err| and radially unbounded.
    """
    ax = abs(x_err)
    core = min(ax, p.x_b)
    e = 0.5 * p.k_const * core * core + (
        math.exp(p.beta_sq * core * core) - 1.0
    ) / (2.0 * p.beta_sq)
    if ax > p.x_b:
        e += p.w_max * (ax - p.x_b)
    return e


def classify_phase(x_err: float, x_err_rate: float, rate_tol: float = 0.0) -> Phase:
    """Divergence/convergence classification of one DoF.

    Divergence when the error is momentarily stationary (|rate| <= rate_tol)
    or growing in magnitude (error and error rate share their sign);
    convergence otherwise. With ``rate_tol = 0`` the stationary test is exact,
    sampled loops pass a small positive tolerance instead.
    """
    if abs(x_err_rate) <= rate_tol:
        return Phase.DIVERGENCE
    if math.copysign(1.0, x_err) == math.copysign(1.0, x_err_rate) and x_err != 0.0:
        return Phase.DIVERGENCE
    return Phase.CONVERGENCE


@dataclass(frozen=True)
class AttractorState:
    """Snapshot of one DoF's attractor.

    During convergence, ``x_tilde_max`` is the error recorded at the switch,
    ``e_in`` the spring energy stored at that error and ``k_prime_total`` the
    linear gain ``4 e_in / x_tilde_max^2`` of the midpoint convergence spring.
    During divergence the three fields are zero.
    """

    phase: Phase = Phase.DIVERGENCE
    x_tilde_max: float = 0.0
    e_in: float = 0.0
    k_prime_total: float = 0.0

    @property
    def x_tilde_mid(self) -> float:
        return 0.5 * self.x_tilde_max


def update_attractor(
    state: AttractorState,
    p: StiffnessParams,
    x_err: float,
    x_err_rate: float,
    *,
    rate_tol: float = 0.0,
    displacement_tol: float = ZERO_DISPLACEMENT_TOL,
) -> AttractorState:
    """Advance one DoF's attractor state with a fresh (x_err, x_err_rate) sample.

    On a divergence-to-convergence transition the current error becomes
    ``x_tilde_max`` and the convergence gain is frozen so that the energy the
    midpoint spring can deliver equals the energy absorbed while diverging.
    A transition at |x_err| < displacement_tol is skipped (nothing was stored,
    and the convergence spring would be degenerate). The reverse transition
    discards the snapshot. Returns a new state; inputs are not mutated.
    """
    new_phase = classify_phase(x_err, x_err_rate, rate_tol)
    if state.phase is Phase.DIVERGENCE and new_phase is Phase.CONVERGENCE:
        if abs(x_err) < displacement_tol:
            return state
        e_in = spring_energy(p, x_err)
        return AttractorState(
            phase=Phase.CONVERGENCE,
            x_tilde_max=x_err,
            e_in=e_in,
            k_prime_total=4.0 * e_in / (x_err * x_err),
        )
    if state.phase is Phase.CONVERGENCE and new_phase is Phase.DIVERGENCE:
        return AttractorState(phase=Phase.DIVERGENCE)
    return state


def convergence_force(state: AttractorState, x_err: float) -> float:
    """Convergence-phase wrench k' (x_err - x_tilde_mid).

    A linear spring centered on the midpoint of the recorded excursion: it
    first accelerates the plant toward the target and then decelerates it so
    the error arrives at zero with zero velocity. The magnitude is bounded by
    ``k_prime_total * |x_tilde_mid|`` on the valid domain.

    Raises:
        ValueError: if the state is not in convergence, or ``x_err`` lies
            outside [0, x_tilde_max] (same sign); the caller must have
            re-classified the phase before asking for a convergence wrench.
    """
    if state.phase is not Phase.CONVERGENCE:
        raise ValueError("convergence_force requires a Convergence-phase state")
    xm = state.x_tilde_max
    # Domain check with a small relative slack for switch-sample roundoff.
    lo, hi = min(0.0, xm), max(0.0, xm)
    slack = 1e-9 * abs(xm)
    if not (lo - slack <= x_err <= hi + slack):
        raise ValueError(
            f"convergence error {x_err} outside recorded excursion [0, {xm}]"
        )
    return state.k_prime_total * (x_err - state.x_tilde_mid)


def fic_wrench(state: AttractorState, p: StiffnessParams, x_err: float) -> float:
    """Spring-path wrench of one DoF: saturating spring while diverging,
    midpoint spring while converging. Damping is added by the controller.

    Unlike the strict ``convergence_force``, the commanded path is made safe
    for sampled loops: the evaluation point is clamped to the recorded
    excursion (external pushes can move a held sample slightly outside it
    while the DoF still classifies as converging) and the magnitude is capped
    at ``w_max``, so the spring-path command never exceeds the allowed wrench
    in either phase. The midpoint-spring law is antisymmetric about
    ``x_tilde_mid``, so capping preserves the equal-accelerate/decelerate
    split and the zero net work of a full convergence stroke.
    """
    if state.phase is Phase.DIVERGENCE:
        return spring_force(p, float(x_err))
    xm = state.x_tilde_max
    x_eval = min(max(float(x_err), min(0.0, xm)), max(0.0, xm))
    return min(max(convergence_force(state, x_eval), -p.w_max), p.w_max)
