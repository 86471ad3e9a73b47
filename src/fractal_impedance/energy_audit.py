"""Passivity and stability instrumentation.

Energy absorbed during Divergence and released during Convergence come from
the closed-form spring energy, so they are independent of sampling rate. The
discrete-work drift of a constant-gain impedance controller is the ZOH
Riemann sum of its continuous power; the FIC work is an exact potential
difference. The Lyapunov candidate is piecewise (one quadratic per phase)
with a per-switch constant that keeps the monitored value continuous.

An episode's audit runs after its loop, from its record and scenario alone,
with the bits of a per-sample audit: ``episode_energy`` computes E_in, the
monitored potentials and the switch events from the recorded errors and
phases and the scenario's schedule swaps, rebuilding each switch's attractor
state with ``fic_core``'s snapshot law; ``_contact_work`` integrates the
recorded contact power. Released energy is the record's ``e_rel_cum``.

``_dof_sum`` is the one per-DoF sum order of every energy a record holds (a
point mass's kinetic energy, the potentials, the contact power): from 0.0 in
DoF order, which fixes the records' last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, mul

import numpy as np

from .fic_core import _CONV, _DIV, AttractorState, StiffnessParams, _snapshot, spring_energy

__all__ = [
    "EnergyLedger",
    "SwitchEvent",
    "LyapunovTracker",
    "fic_work",
    "ic_work_discrete",
]


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
    """Per-episode energy audit summary, ``EpisodeRecord.ledger``.

    ``run_scenario`` sets it beside the monitored V and the running E_in/E_rel
    series (``v``, ``e_in_cum``, ``e_rel_cum``); the loop's record has none.
    """

    e_in: float = 0.0
    e_rel: float = 0.0
    contact_work: float = 0.0
    switch_events: tuple[SwitchEvent, ...] = ()

    @property
    def margin(self) -> float:
        """Passivity margin E_rel - E_in; passive iff <= 0 (+ tolerance)."""
        return self.e_rel - self.e_in


def fic_work(params: StiffnessParams, x_a: float, x_b: float) -> float:
    """Work of the FIC spring from error x_a to x_b; exactly path-independent."""
    return float(spring_energy(params, x_b) - spring_energy(params, x_a))


def ic_work_discrete(x: np.ndarray, xdot: np.ndarray, xddot: np.ndarray) -> float:
    """ZOH Riemann sum of the unit-gain impedance-controller work along x(t).

    W = sum(xddot_i dx_i) + sum(xdot_i dx_i) with dx_i = x_{i+1} - x_i, from
    the path's samples and their derivatives.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        return 0.0
    xdot = np.asarray(xdot, dtype=float).ravel()
    xddot = np.asarray(xddot, dtype=float).ravel()
    dx = np.diff(x)
    return float(np.dot(xddot[:-1], dx) + np.dot(xdot[:-1], dx))


def _phase_form(params: StiffnessParams, state: AttractorState, x_err: float) -> float:
    # Phase potential. Divergence stores spring potential; Convergence is the
    # midpoint spring plus e_in/2, which meets the Divergence branch exactly
    # at x_tilde_max.
    if state.phase is _DIV:
        return spring_energy(params, x_err)
    return _convergence_form(state, x_err)


def _convergence_form(state: AttractorState, x_err):
    """The Convergence phase potential of a float or, elementwise with the
    same bits, of an array of errors."""
    dx = x_err - 0.5 * state.x_tilde_max  # from the excursion's midpoint
    return 0.5 * state.k_prime_total * dx * dx + 0.5 * state.e_in


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
            kind = "div_to_conv" if state.phase is _CONV else "conv_to_div"
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


@np.errstate(over="ignore", invalid="ignore")  # a blown-up record, as float arithmetic
def episode_energy(x_err, phase_s, dt, params, swaps):
    """E_in after each sample, the summed phase potentials per sample and the
    ``SwitchEvent``s in (sample, DoF) order of one FIC episode, from its
    record's (n, d) ``x_err`` and ``phase_s`` columns.

    ``params`` are each DoF's parameters before the first tick, and ``swaps``
    maps each of the record's ticks where an ``xb_schedule`` replaced them to
    the new ones (``sim_harness._schedule_swaps``, from the scenario).
    A DoF's attractor state changes only with its phase: a switch into
    Convergence is the snapshot of that tick's error and parameters, and
    Divergence is ``AttractorState()``. The bits are those of a per-sample
    audit (``fic_work`` over each step that starts in Divergence, with that
    step's parameters, DoF after DoF; ``change_params`` then ``update`` at
    every sample). Between phase changes and swaps a DoF's state, parameters
    and tracker offset are fixed, so the tracker runs only there and each
    run's potentials are computed at once.
    """
    n, d = x_err.shape
    steps = np.zeros((n, d))  # E_in step into each sample, per DoF
    potentials = np.empty((n, d))
    events = []
    for i in range(d):
        col = phase_s[:, i]
        changes = (np.flatnonzero(col[1:] != col[:-1]) + 1).tolist()
        bounds = sorted({0, *swaps, *changes}) if n else []
        tracker = LyapunovTracker(params=params[i])
        state = AttractorState()
        v = potentials[:, i]
        for a, b in zip(bounds, bounds[1:] + [n]):
            if a in swaps:
                tracker.change_params(swaps[a][i], state, x_err[a, i])
            if col[a] != (state.phase is _DIV):  # the tick at ``a`` switched the phase
                state = AttractorState() if col[a] else _snapshot(tracker.params, float(x_err[a, i]))
            _, event = tracker.update(state, x_err[a, i], t=a * dt, dof=i)
            if event is not None:
                events.append((a, i, event))
            if state.phase is _DIV:
                # the run's samples and the one that ends it, whose step
                # still starts in this run and takes its parameters
                seg = x_err[a : b + 1, i].tolist()
                energy = np.fromiter(map(spring_energy, repeat(tracker.params), seg), float, len(seg))
                v[a:b] = energy[: b - a] + tracker.offset
                steps[a + 1 : a + len(seg), i] = energy[1:] - energy[:-1]
            else:
                v[a:b] = _convergence_form(state, x_err[a:b, i]) + tracker.offset
    # A sequential sum in (sample, DoF) order; adding 0.0 leaves it unchanged.
    e_in_cum = np.add.accumulate(steps.ravel())[d - 1 :: d]
    events.sort(key=lambda e: e[:2])
    return e_in_cum, _dof_sum(potentials), [e for _, _, e in events]


@np.errstate(over="ignore", invalid="ignore")  # a blown-up record, as float arithmetic
def _dof_sum(*factors) -> np.ndarray:
    """Each row of the product of ``factors`` (per-DoF weights and (n, d)
    columns, multiplied left to right), summed from 0.0 in DoF order."""
    terms = reduce(mul, factors)
    return reduce(add, terms.T, np.zeros(len(terms)))


@np.errstate(over="ignore", invalid="ignore")  # a blown-up record, as float arithmetic
def _contact_work(contact_f, xdot, dt) -> float:
    """Work of the contact force on the plant over a record: the trapezoid of
    the power ``_dof_sum(contact_f, xdot)`` over each step, added from 0.0 in
    sample order."""
    power = _dof_sum(contact_f, xdot)
    work = np.zeros(xdot.shape[0])
    work[1:] = 0.5 * (power[1:] + power[:-1]) * dt
    return float(np.add.accumulate(work)[-1]) if work.size else 0.0
