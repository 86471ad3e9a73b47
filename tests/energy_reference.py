"""Per-sample energy bookkeeping, as a test oracle for the episode audit.

``run_scenario`` computes E_in, the monitored V, the switch events and the
contact work after its loop (``energy_audit``). This module keeps the form
that ran inside the loop: at every sample, ``fic_work`` per DoF over each
step that starts in Divergence, then at a tick ``change_params`` on a
schedule swap, then ``LyapunovTracker.update`` per DoF with the attractor
states the tick produced; and with a wall, the trapezoid of the contact
power added to a running float sum. ``record_and_reference`` runs a scenario
on the loop's per-sample path (no fixed point is fast-forwarded) with the
controller tick (and the arm's task state) wrapped, so the oracle sees each
tick's parameters and attractor states, placed at the tick samples of
``_tick_starts``, and each arm sample's kinetic energy; a point mass's
kinetic energy comes from the recorded ``xdot`` rows. It replays that
bookkeeping over the record. ``assert_same_record`` compares two records bit
for bit, the fast-forwarded one against the per-sample one.
"""

import dataclasses
from dataclasses import dataclass
from operator import mul

import numpy as np

from fractal_impedance import sim_harness
from fractal_impedance.controllers import new_attractor_states
from fractal_impedance.energy_audit import LyapunovTracker, fic_work
from fractal_impedance.fic_core import Phase
from arm_reference import _dot


@dataclass
class Reference:
    v: np.ndarray
    e_in_cum: np.ndarray
    e_in: float
    switch_events: tuple
    swap_samples: tuple  # samples where a schedule swapped the parameters
    contact_work: float


def record_and_reference(sc, monkeypatch):
    """The record of ``sc`` and the per-sample bookkeeping of its samples."""
    arm_kes, tick_results = [], []
    arm_state, tick = sim_harness._arm_task_state, sim_harness.fic_task_wrench

    def arm_task_state(arm, q, qdot):
        sample = arm_state(arm, q, qdot)
        arm_kes.append(sample.ke)
        return sample

    def fic_task_wrench(config, states, *args):
        result = tick(config, states, *args)
        tick_results.append((config.stiffness, result[1]))
        return result

    with monkeypatch.context() as m:
        m.setattr(sim_harness, "_fixed_point", lambda *args: False)
        m.setattr(sim_harness, "_arm_task_state", arm_task_state)
        m.setattr(sim_harness, "fic_task_wrench", fic_task_wrench)
        rec = sim_harness.run_scenario(sc)
    # the i-th tick ran at the i-th tick sample of the schedule
    n = int(round(sc.duration / sc.dt)) + 1
    tick_samples = np.flatnonzero(sim_harness._tick_starts(n, sc.feedback_hz, sc.dt)).tolist()
    ticks = dict(zip(tick_samples, tick_results))
    if sc.plant == "arm":
        kes = arm_kes
    else:
        kes = [point_mass_ke(sc.inertia, xdot) for xdot in rec.xdot.tolist()]
    return rec, reference_energy(rec, kes, ticks)


def bits(obj):
    """``obj`` with every float replaced by its hex form, recursively."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return tuple(bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(map(bits, obj))
    return obj


def assert_same_record(rec, ref):
    for f in dataclasses.fields(rec):
        got, want = getattr(rec, f.name), getattr(ref, f.name)
        if isinstance(got, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
            assert got.tobytes() == want.tobytes(), f.name
        elif f.name != "scenario":  # the ledger with its switch events, times, error
            assert bits(got) == bits(want), f.name


def point_mass_ke(inertia, xdot) -> float:
    """0.5 xdot' M xdot of one sample, summed from 0.0 in DoF order in float
    arithmetic."""
    ke = 0.0
    for m, v in zip(inertia, xdot):
        ke += m * v * v
    return 0.5 * ke


def reference_contact_work(rec) -> float:
    """The running trapezoid of ``contact_f · xdot`` in float arithmetic."""
    c_work = prev_cpow = 0.0
    if rec.scenario.wall is None:
        return c_work
    for k in range(rec.n_samples):
        cpow = _dot(rec.contact_f[k].tolist(), rec.xdot[k].tolist())
        if k > 0:
            c_work += 0.5 * (cpow + prev_cpow) * rec.scenario.dt
        prev_cpow = cpow
    return c_work


def reference_energy(rec, kes, ticks) -> Reference:
    sc = rec.scenario
    ctrl = sim_harness.build_controller(sc)
    n, d = rec.x_err.shape
    v, e_in_cum, events, swaps = [], [], [], []
    c_work = reference_contact_work(rec)
    if sc.controller == "baseline":
        for k in range(n):
            x_err = rec.x_err[k].tolist()
            v.append(0.5 * _dot(map(mul, ctrl.k_d, x_err), x_err) + kes[k])
            e_in_cum.append(0.0)
        return Reference(np.array(v), np.array(e_in_cum), 0.0, (), (), c_work)
    params, states = ctrl.stiffness, new_attractor_states(d)
    trackers = [LyapunovTracker(params=p) for p in params]
    e_in, prev_xe = 0.0, None
    for k in range(n):
        t = k * sc.dt
        x_err = rec.x_err[k].tolist()
        if k > 0:
            for i in range(d):
                if states[i].phase is Phase.DIVERGENCE:  # as recorded at k - 1
                    e_in += fic_work(params[i], prev_xe[i], x_err[i])
        if k in ticks:
            new_params, new_states = ticks[k]
            if new_params != params:
                for i in range(d):
                    trackers[i].change_params(new_params[i], states[i], x_err[i])
                params = new_params
                swaps.append(k)
            states = new_states
        pot = 0.0
        for i in range(d):
            val, ev = trackers[i].update(states[i], x_err[i], t=t, dof=i)
            pot += val
            if ev is not None:
                events.append(ev)
        v.append(pot + kes[k])
        e_in_cum.append(e_in)
        prev_xe = x_err
    return Reference(np.array(v), np.array(e_in_cum), e_in, tuple(events), tuple(swaps), c_work)
