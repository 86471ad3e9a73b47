"""Passivity and stability instrumentation.

Energy absorbed during Divergence and released during Convergence come from
the closed-form spring energy, so they are independent of sampling rate. The
discrete-work drift of a constant-gain impedance controller is the ZOH
Riemann sum of its continuous power; the FIC work is an exact potential
difference. The Lyapunov candidate is piecewise (one quadratic per phase)
with a per-switch constant that keeps the monitored value continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fic_core import AttractorState, Phase, StiffnessParams, spring_energy

__all__ = [
    "EnergyLedger",
    "SwitchEvent",
    "MonitorReport",
    "LyapunovTracker",
    "energy_in",
    "energy_released",
    "fic_work",
    "ic_work_discrete",
    "lyapunov_value",
    "lyapunov_monitor",
]

DESCENT_TOL = 1e-6  # J per step, autonomous undamped fine-step runs
SWITCH_CONTINUITY_TOL = 1e-9  # J


@dataclass(frozen=True)
class SwitchEvent:
    """Phase switch on one DoF with the monitored V on both sides."""

    t: float
    dof: int
    kind: str  # "div_to_conv" or "conv_to_div"
    x_err: float
    v_before: float
    v_after: float


@dataclass
class EnergyLedger:
    """Per-episode energy audit summary.

    The monitored V and the running E_in/E_rel series live on the episode
    record (``EpisodeRecord.v``, ``e_in_cum``, ``e_rel_cum``).
    """

    e_in: float = 0.0
    e_rel: float = 0.0
    contact_work: float = 0.0
    switch_events: tuple[SwitchEvent, ...] = ()

    @property
    def margin(self) -> float:
        """Passivity margin E_rel - E_in; passive iff <= 0 (+ tolerance)."""
        return self.e_rel - self.e_in


def energy_in(params: StiffnessParams, x_err_path: np.ndarray) -> float:
    """Energy absorbed along one Divergence segment.

    Evaluated as the spring-energy difference between the path endpoints, so
    the result does not depend on how densely the segment was sampled.
    """
    path = np.asarray(x_err_path, dtype=float).ravel()
    if path.size == 0:
        return 0.0
    return fic_work(params, path[0], path[-1])


def energy_released(lam_trace, xdot_trace) -> float:
    """Maximum kinetic energy 0.5 xdot^T Lam xdot over Convergence samples.

    ``lam_trace`` may be a scalar, a per-sample scalar array, one constant
    matrix, or a per-sample stack of matrices; ``xdot_trace`` one velocity
    sample per row.
    """
    xdot = np.asarray(xdot_trace, dtype=float)
    if xdot.size == 0:
        return 0.0
    if xdot.ndim == 1:
        xdot = xdot[:, None]
    lam = np.asarray(lam_trace, dtype=float)
    if lam.ndim == 0:
        ke = 0.5 * float(lam) * np.sum(xdot * xdot, axis=1)
    elif lam.ndim == 1:
        ke = 0.5 * lam * np.sum(xdot * xdot, axis=1)
    elif lam.ndim == 2:
        ke = 0.5 * np.einsum("ni,ij,nj->n", xdot, lam, xdot)
    else:
        ke = 0.5 * np.einsum("ni,nij,nj->n", xdot, lam, xdot)
    return float(np.max(ke))


def fic_work(params: StiffnessParams, x_a: float, x_b: float) -> float:
    """Work of the FIC spring from error x_a to x_b; exactly path-independent."""
    return float(spring_energy(params, x_b) - spring_energy(params, x_a))


def ic_work_discrete(
    k_inertia: float,
    k_damping: float,
    x: np.ndarray,
    xdot: np.ndarray | None = None,
    xddot: np.ndarray | None = None,
    dt: float | None = None,
) -> float:
    """ZOH Riemann sum of the impedance-controller work along x(t).

    W = k_inertia sum(xddot_i dx_i) + k_damping sum(xdot_i dx_i) with
    dx_i = x_{i+1} - x_i. Pass analytic ``xdot``/``xddot`` when available;
    otherwise they are estimated by finite differences over ``dt``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        return 0.0
    if xdot is None or xddot is None:
        if dt is None:
            raise ValueError("dt required when derivative samples are omitted")
        grad = np.gradient(x, dt)
        xdot = grad if xdot is None else np.asarray(xdot, dtype=float).ravel()
        xddot = np.gradient(grad, dt) if xddot is None else np.asarray(xddot, dtype=float).ravel()
    else:
        xdot = np.asarray(xdot, dtype=float).ravel()
        xddot = np.asarray(xddot, dtype=float).ravel()
    dx = np.diff(x)
    return float(k_inertia * np.dot(xddot[:-1], dx) + k_damping * np.dot(xdot[:-1], dx))


def _phase_form(params: StiffnessParams, state: AttractorState, x_err: float) -> float:
    # Phase potential. Divergence stores spring potential; Convergence is the
    # midpoint spring plus e_in/2, which meets the Divergence branch exactly
    # at x_tilde_max.
    if state.phase is Phase.DIVERGENCE:
        return spring_energy(params, x_err)
    dx = x_err - state.x_tilde_mid
    return 0.5 * state.k_prime_total * dx * dx + 0.5 * state.e_in


def lyapunov_value(
    params: StiffnessParams,
    state: AttractorState,
    lam: float,
    x_err: float,
    xdot: float,
) -> float:
    """Piecewise Lyapunov candidate for one DoF (no episode offset).

    Kinetic energy 0.5 lam xdot^2 plus the phase potential. V(0, 0) = 0 in
    Divergence, and the two phase forms agree at the divergence-to-convergence
    switch point by construction.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    xdot = float(xdot)
    return 0.5 * lam * xdot * xdot + _phase_form(params, state, float(x_err))


@dataclass
class LyapunovTracker:
    """Monitored phase potential for one DoF across phase switches.

    At each switch the running offset absorbs the difference between the old
    and new phase forms evaluated at the switch sample, so the monitored
    value is continuous there by construction (and the construction is
    checked: events record V on both sides). Kinetic energy is the caller's:
    the harness adds the task kinetic energy of all DoFs once.
    """

    params: StiffnessParams
    offset: float = 0.0
    _prev: AttractorState | None = field(default=None, repr=False)

    def update(
        self, state: AttractorState, x_err: float, t: float = 0.0, dof: int = 0
    ) -> tuple[float, SwitchEvent | None]:
        """Advance to this sample's attractor state; return (V, switch event)."""
        x_err = float(x_err)
        event = None
        if self._prev is not None and state.phase is not self._prev.phase:
            before = _phase_form(self.params, self._prev, x_err) + self.offset
            self.offset = before - _phase_form(self.params, state, x_err)
            kind = (
                "div_to_conv" if state.phase is Phase.CONVERGENCE else "conv_to_div"
            )
            event = SwitchEvent(
                t=t,
                dof=dof,
                kind=kind,
                x_err=x_err,
                v_before=before,
                v_after=_phase_form(self.params, state, x_err) + self.offset,
            )
        self._prev = state
        value = _phase_form(self.params, state, x_err) + self.offset
        return value, event

    def change_params(
        self, new_params: StiffnessParams, state: AttractorState, x_err: float
    ) -> None:
        """Swap stiffness parameters online, keeping the monitored V continuous."""
        x_err = float(x_err)
        old = _phase_form(self.params, state, x_err)
        self.params = new_params
        self.offset += old - _phase_form(self.params, state, x_err)


@dataclass(frozen=True)
class MonitorReport:
    """Descent check: V must not rise beyond tolerance outside forced steps."""

    flagged_steps: np.ndarray
    max_increase: float
    passed: bool


def lyapunov_monitor(
    t: np.ndarray,
    v: np.ndarray,
    forced: np.ndarray | None = None,
    tol: float = DESCENT_TOL,
) -> MonitorReport:
    """Flag steps where V increases by more than ``tol`` outside forced spans.

    A step k -> k+1 is exempt when either endpoint lies in an externally
    forced interval (``forced`` true).
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if v.shape != t.shape:
        raise ValueError("t and v must have equal lengths")
    if v.size < 2:
        return MonitorReport(np.zeros(0, dtype=int), 0.0, True)
    dv = np.diff(v)
    exempt = np.zeros(dv.shape, dtype=bool)
    if forced is not None:
        forced = np.asarray(forced, dtype=bool)
        exempt = forced[:-1] | forced[1:]
    bad = np.flatnonzero((dv > tol) & ~exempt)
    free = dv[~exempt]
    max_rise = float(np.max(free)) if free.size else 0.0
    return MonitorReport(flagged_steps=bad, max_increase=max_rise, passed=bad.size == 0)
