"""Scenario execution: closed-loop simulation, metrics and calibration.

A Scenario is a plain-value description (strings, numbers, tuples, dicts) of
one closed-loop experiment, so records are reproducible from the scenario
alone. The loop advances physics at ``dt`` while the controller runs on a
zero-order hold at ``feedback_hz``: the measurement taken at a tick is
consumed once and the commanded force is held until the next tick.

The arm, and a point mass against a wall, evaluate the plant once per sample
(the arm through ``dynamics._arm_task_state``; the point mass is its own task
state) and their acceleration at each stage of one ``dynamics._advance`` step.
A wall-free point mass accelerates by (held force + pulse) / m in any state,
so the loop evaluates it only at a tick or a pulse edge, and one
``_advance(..., accel=None, steps=m)`` call steps to the next one. A visit
records its start state (the arm's sample, the point mass's own) and, in
bulk, a held run's interior (its finite part before a blowup): the states
the run returned, a wall's contact force and a moving reference. The held
wrench and phase flags are written once per tick and repeated up to the
next tick after the loop, which also forms a static pose's rows and a
wall-free record's zero contact force.
A tick is one block for both plants: the task law reads the reference and
the sample's task state and forms the errors and the recorded phase flags
itself, and for the arm ``controllers._arm_torques`` maps the wrench at that
same sample. The plant object holds parameters only. The loop keeps the
plant state (from the scenario's q0/qdot0 or x0/xdot0), the reference, the
held wrench and the pulse wrench as lists of Python floats, because numpy's
per-call dispatch on vectors of one to three entries costs more than their
arithmetic. It writes the samples into compact ``array`` columns, and the
record's arrays are built from them once, after the loop, with ``x_err =
x_d - x`` and a point mass's kinetic energy from its ``xdot`` column.
Elementwise float arithmetic in numpy's order gives numpy's bits, so a 1-DoF
record is the one numpy expressions would give; a sum over several DoFs
(kinetic energy, contact power) may differ from ``np.dot`` in the last bit.
The loop, ``_episode_loop``, first plans what the scenario's clock decides
(its visits, the pulse rows of ``_pulse_table`` and the x_B swaps of
``_schedule_swaps``; their keys and the last sample are its events), then
does plant, controller and record work only. Under a static reference, a
tick whose visit returns the plant state it started from bit for bit and
leaves the attractor states the same objects (``_fixed_point``) is a fixed
point: the next tick and step read only that state, the attractor states,
the config, the pulse row and the reference, all unchanged until the next
event, so the loop records the visit's row for each sample up to that event
in bulk and skips the plan's visits before it. ``calibrate_sweep`` runs the
loop alone; ``run_scenario`` runs it, then the bookkeeping, which reads its
columns and the scenario and runs the laws:

- tick instants: ``_tick_starts``, and the x_B swaps at the record's ticks
  (``_schedule_swaps``);
- absorbed energy E_in (``fic_work`` per DoF over each sample step that
  starts in Divergence), the ``LyapunovTracker`` phase potentials and the
  switch events: ``energy_audit.episode_energy``, which rebuilds each
  switch's attractor state from the recorded phases and errors;
- released energy E_rel: the record's ``e_rel_cum``, the running maximum of
  the task kinetic energy over samples where any DoF converges;
- contact work: ``energy_audit._contact_work``, the trapezoid of the recorded
  contact power;
- monitored V: the phase potentials (the baseline's spring potential) plus
  the task kinetic energy. Each of these sums over DoFs (kinetic energy,
  potentials, contact power) is ``energy_audit._dof_sum``'s.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from operator import is_
from typing import NamedTuple

import numpy as np

from .controllers import (
    BaselineConfig,
    FicConfig,
    _arm_torques,
    _per_dof,
    baseline_impedance_wrench,
    fic_task_wrench,
    new_attractor_states,
)
from .controllers import baseline_control_torques, fic_control_torques  # noqa: F401 (bench hook)
from .dynamics import (
    INTEGRATORS,
    ContactWall,
    IntegrationBlowupError,
    PerturbationProfile,
    PlanarArm,
    PointMassPlant,
    Pulse,
    SingularConfigurationError,
    _advance,
    _arm_accel,
    _arm_task_state,
    _float,
    _floats,
    _point_mass_accel,
    contact_force,
    external_wrench,
    forward_kinematics,
)
from .energy_audit import EnergyLedger, _contact_work, _dof_sum, episode_energy
from .energy_audit import LyapunovTracker  # noqa: F401 (bench hook)
from .fic_core import _CONV, _DIV, StiffnessParams, spring_energy  # noqa: F401 (bench hook)

__all__ = [
    "Scenario",
    "EpisodeRecord",
    "run_scenario",
    "compute_metrics",
    "detect_oscillation",
    "calibrate_sweep",
]

PLANTS = ("point_mass", "arm")
CONTROLLERS = ("fic", "baseline")
RECOVERY_FRACTION = 0.05  # of the per-pulse peak error
RECOVERY_DWELL = 0.2  # s below threshold before recovery is declared
OSCILLATION_WINDOW = 2.0  # s of trailing record that detect_oscillation tests
W_STEP = 2.0  # N between calibrate_sweep's w_max candidates
W_MIN = 2.0  # N, its lowest candidate

# Required keys in the order they are checked (so a missing key is reported
# the same way on every run), then optional keys.
_REFERENCE_KEYS = {
    "static": (("type",), ("pose",)),
    "sinusoid": (("type", "axis", "amplitude", "period"), ("center",)),
    "circle": (("type", "radius", "period"), ("center",)),
}
_PULSE_KEYS = ("start", "duration", "wrench")
_WALL_KEYS = (("axis", "offset", "stiffness"), ("damping", "direction"))
_SCHEDULE_KEYS = ("x_b_end", "rate", "interval")


def _coerce(obj, name: str):
    """Lists to tuples recursively, so scenarios are plain hashable-ish values;
    a float that is not finite is an error of the field ``name``."""
    if isinstance(obj, (list, tuple)):
        return tuple(_coerce(o, name) for o in obj)
    if isinstance(obj, dict):
        return {k: _coerce(v, name) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{name}: must be finite")
    return obj


def _integral(value, name: str) -> int:
    """An axis or direction: an integer, or an integral float such as 1.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name}: must be an integer, got {value!r}")


def _check_keys(name: str, d: dict, required: tuple, optional: tuple = ()) -> None:
    for key in d:
        if key not in required and key not in optional:
            raise ValueError(f"{name}: unknown key '{key}'")
    for key in required:
        if key not in d:
            raise ValueError(f"{name}: missing key '{key}'")


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment, expressed with serializable values only.

    Per-DoF controller fields (``k_const``, ``w_max``, ``x_b``, ``damping``,
    ``k_d``, ``d_d``) accept a scalar (applied to every task DoF) or a tuple
    with one entry per DoF.
    """

    name: str = "scenario"
    plant: str = "point_mass"
    controller: str = "fic"
    duration: float = 10.0
    dt: float = 1e-4
    feedback_hz: float = 1000.0
    integrator: str = "rk4"
    # point-mass plant
    inertia: tuple = (1.0,)
    x0: tuple | None = None
    xdot0: tuple | None = None
    # arm plant
    q0: tuple = (0.3, 0.9, 0.9)
    qdot0: tuple = (0.0, 0.0, 0.0)
    gravity: tuple = (0.0, -9.81)
    posture_target: tuple | None = None
    posture_gains: tuple = (0.0, 0.0)
    # FIC gains
    k_const: tuple | float = 0.0
    w_max: tuple | float = 30.0
    x_b: tuple | float = 0.1
    damping: tuple | float = 0.0
    # baseline gains
    k_d: tuple | float = 100.0
    d_d: tuple | float = 2.5
    # environment and reference
    reference: dict = field(default_factory=lambda: {"type": "static"})
    pulses: tuple = ()
    wall: dict | None = None
    xb_schedule: dict | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(getattr(self, f.name), f.name))
        self._validate()

    @property
    def n_task(self) -> int:
        return 2 if self.plant == "arm" else len(self.inertia)

    def _validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name: must be a non-empty string, got {self.name!r}")
        if self.plant not in PLANTS:
            raise ValueError(f"plant: must be one of {PLANTS}, got '{self.plant}'")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller: must be one of {CONTROLLERS}")
        duration, dt, hz = (_float(getattr(self, k), k) for k in ("duration", "dt", "feedback_hz"))
        if not duration > 0.0:
            raise ValueError("duration: must be positive")
        if not dt > 0.0:
            raise ValueError("dt: must be positive")
        if not 0.0 < hz <= (1.0 / dt) * (1.0 + 1e-9):
            raise ValueError(f"feedback_hz: must satisfy 0 < feedback_hz <= 1/dt = {1.0 / dt:.6g}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator: must be one of {INTEGRATORS}")
        if self.plant == "point_mass":
            PointMassPlant(self.inertia)  # a bad inertia is named before n_task reads it
            for name in ("x0", "xdot0"):
                if getattr(self, name) is not None:
                    _floats(getattr(self, name), name, self.n_task)
        else:
            _floats(self.q0, "q0", 3)  # the links of PlanarArm.default
            _floats(self.qdot0, "qdot0", 3)
        d = self.n_task
        # The builders run once here, so bad gains fail at parse time.
        build_controller(self)
        sched = self.xb_schedule
        if sched is not None:
            if self.controller != "fic":
                raise ValueError("xb_schedule: only valid with the fic controller")
            _check_keys("xb_schedule", sched, _SCHEDULE_KEYS)
            end, rate, itv = (_float(sched[k], f"xb_schedule.{k}") for k in _SCHEDULE_KEYS)
            if end <= 0 or rate <= 0 or itv <= 0:
                raise ValueError("xb_schedule: x_b_end, rate, interval must be positive")
            try:
                build_controller(self, x_b=(end,) * d)
            except ValueError as exc:
                raise ValueError("xb_schedule.x_b_end: " + str(exc).removeprefix("x_b: ")) from None
        ref = self.reference
        if not isinstance(ref, dict) or "type" not in ref:
            raise ValueError("reference: missing key 'type'")
        if ref["type"] not in _REFERENCE_KEYS:
            raise ValueError(f"reference.type: unknown type '{ref['type']}'")
        _check_keys("reference", ref, *_REFERENCE_KEYS[ref["type"]])
        for key in ("amplitude", "period", "radius"):
            _float(ref.get(key, 0.0), f"reference.{key}")
        if ref["type"] == "sinusoid":
            if not 0 <= _integral(ref["axis"], "reference.axis") < d:
                raise ValueError("reference.axis: out of range")
            if ref["period"] <= 0:
                raise ValueError("reference.period: must be positive")
        elif ref["type"] == "circle":
            if d != 2:
                raise ValueError("reference.type: circle requires a 2-D task")
            if ref["radius"] <= 0 or ref["period"] <= 0:
                raise ValueError("reference: radius and period must be positive")
        for key in ("pose", "center"):  # None: the start pose
            if ref.get(key) is not None:
                _floats(ref[key], f"reference.{key}", d)
        for idx, p in enumerate(self.pulses):
            if not isinstance(p, dict):
                raise ValueError(f"pulses[{idx}]: expected an object")
            _check_keys(f"pulses[{idx}]", p, _PULSE_KEYS)
            for key in ("start", "duration"):
                _float(p[key], f"pulses[{idx}].{key}")
            _floats(p["wrench"], f"pulses[{idx}].wrench", d)
        if self.wall is not None:
            _check_keys("wall", self.wall, *_WALL_KEYS)
            if not 0 <= _integral(self.wall["axis"], "wall.axis") < d:
                raise ValueError("wall.axis: out of range")
            _integral(self.wall.get("direction", 1), "wall.direction")
        build_environment(self)  # checks pulse overlap, pulse and wall values


def build_controller(sc: Scenario, x_b: tuple | None = None) -> FicConfig | BaselineConfig:
    """The scenario's controller config; ``x_b`` replaces the FIC boundaries.
    The arm's posture target is q0 by default; a point mass has none."""
    d = sc.n_task
    posture = None
    if sc.plant == "arm":
        posture = sc.q0 if sc.posture_target is None else sc.posture_target
    if sc.controller == "baseline":
        return BaselineConfig(
            k_d=_per_dof(sc.k_d, d, "k_d"),
            d_d=_per_dof(sc.d_d, d, "d_d"),
            posture_target=posture,
            posture_gains=sc.posture_gains,
        )
    kc = _per_dof(sc.k_const, d, "k_const")
    wm = _per_dof(sc.w_max, d, "w_max")
    xb = _per_dof(sc.x_b, d, "x_b") if x_b is None else x_b
    return FicConfig(
        stiffness=tuple(map(StiffnessParams, kc, wm, xb)),
        damping=sc.damping,
        posture_target=posture,
        posture_gains=sc.posture_gains,
    )


def build_environment(sc: Scenario) -> tuple:
    """The scenario's plant (a ``PointMassPlant`` or a ``PlanarArm``), its
    ``PerturbationProfile`` and its ``ContactWall``, None without one."""
    if sc.plant == "arm":
        plant = PlanarArm.default(gravity=sc.gravity)
    else:
        plant = PointMassPlant(sc.inertia)
    pulses = tuple(Pulse(p["start"], p["duration"], p["wrench"]) for p in sc.pulses)
    wall = None
    if sc.wall is not None:  # the wall and the pulses convert their own numbers
        w = sc.wall
        axis, direction = int(w["axis"]), int(w.get("direction", 1))
        wall = ContactWall(axis, w["offset"], w["stiffness"], w.get("damping", 0.0), direction)
    return plant, PerturbationProfile(n_dof=sc.n_task, pulses=pulses), wall


def _make_reference(sc: Scenario, x_start):
    """Reference pose and rate as lists of floats, as a function of time,
    resolved against the start pose. A static reference returns one constant
    pair, which callers must not modify.

    The rate goes into the divergence/convergence classification: with a moving
    reference the error rate is xd_dot - xdot, and dropping the feedforward term
    would tag a growing error as converging.
    """
    ref = sc.reference
    zero = [0.0] * len(x_start)
    if ref["type"] == "static":
        pose = [float(v) for v in (x_start if ref.get("pose") is None else ref["pose"])]
        pair = (pose, zero)
        return lambda t: pair
    if ref["type"] == "sinusoid":
        center = [float(v) for v in (x_start if ref.get("center") is None else ref["center"])]
        axis = int(ref["axis"])
        amp, omega = float(ref["amplitude"]), 2.0 * math.pi / float(ref["period"])

        def sinusoid(t):
            pose = list(center)
            pose[axis] += amp * math.sin(omega * t)
            rate = list(zero)
            rate[axis] = amp * omega * math.cos(omega * t)
            return pose, rate

        return sinusoid
    radius, omega = float(ref["radius"]), 2.0 * math.pi / float(ref["period"])
    if ref.get("center") is None:
        cx, cy = float(x_start[0]) - radius, float(x_start[1])  # start on the circle
    else:
        cx, cy = (float(v) for v in ref["center"])
    speed = radius * omega

    def circle(t):
        c, s = math.cos(omega * t), math.sin(omega * t)
        return [cx + radius * c, cy + radius * s], [speed * -s, speed * c]

    return circle


def _tick_starts(n: int, feedback_hz: float, dt: float) -> np.ndarray:
    """Controller tick mask over samples k = 0..n-1 at t = k dt.

    Ticks are the samples where floor(t * feedback_hz) increments; rates that
    do not divide 1/dt therefore tick at floor multiples.
    """
    idx = np.floor(np.arange(n) * dt * feedback_hz + 1e-9)
    starts = np.ones(n, dtype=bool)
    starts[1:] = idx[1:] > idx[:-1]
    return starts


def _pulse_table(profile: PerturbationProfile, n_steps: int, dt: float) -> dict:
    """The pulse wrench ``external_wrench`` from step 0 and from each step
    k < n_steps (at t = k dt) where the set of active pulses changes (its
    edges), as {step: row}; each row holds until the next key. Empty when
    no step reads one."""
    if not (profile.pulses and n_steps):
        return {}
    t = np.arange(n_steps) * dt
    active = np.array([(p.start <= t) & (t < p.end) for p in profile.pulses]).T
    edges = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
    return {k: external_wrench(profile, k * dt) for k in [0, *edges.tolist()]}


@dataclass
class EpisodeRecord:
    """Uniformly sampled closed-loop episode plus its energy ledger.

    ``error`` is None for clean runs; on integration blowup or a singular
    configuration it holds {type, time, message} and the series are truncated
    at the last valid sample.
    """

    scenario: Scenario
    t: np.ndarray
    x_d: np.ndarray
    x: np.ndarray
    x_err: np.ndarray
    xdot: np.ndarray
    phase_s: np.ndarray
    wrench: np.ndarray
    contact_f: np.ndarray
    v: np.ndarray
    e_in_cum: np.ndarray
    e_rel_cum: np.ndarray
    forced: np.ndarray
    ledger: EnergyLedger
    recovery_times: tuple
    convergence_times: tuple
    error: dict | None = None

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]


def _schedule_intervals(sc: Scenario, t):
    """The whole ``xb_schedule`` intervals elapsed at time t (a float or an
    array of them): the only way the schedule's law reads t."""
    return np.floor(t / sc.xb_schedule["interval"] + 1e-9)


def _schedule_x_b(sc: Scenario, t: float, x_b0: tuple) -> tuple:
    sched = sc.xb_schedule
    drop = sched["rate"] * sched["interval"] * float(_schedule_intervals(sc, t))
    return tuple(max(sched["x_b_end"], xb - drop) for xb in x_b0)


def _schedule_swaps(sc: Scenario, n: int) -> dict:
    """The FIC config at each tick of samples 0..n-1 where the scenario's
    ``xb_schedule`` moves x_B, by sample; empty without a schedule."""
    if sc.xb_schedule is None:
        return {}
    swaps = {}
    x_b = x_b0 = tuple(p.x_b for p in build_controller(sc).stiffness)
    # x_B can change only at the first tick and where the count of intervals moves
    ticks = np.flatnonzero(_tick_starts(n, sc.feedback_hz, sc.dt))
    intervals = _schedule_intervals(sc, ticks * sc.dt)
    moves = ticks[np.flatnonzero(intervals[1:] != intervals[:-1]) + 1]
    for k in [*ticks[:1].tolist(), *moves.tolist()]:
        if (new_xb := _schedule_x_b(sc, k * sc.dt, x_b0)) != x_b:
            x_b, swaps[k] = new_xb, build_controller(sc, x_b=new_xb)
    return swaps


def _fixed_point(pos, vel, new_pos, new_vel, states, new_states) -> bool:
    """Whether a tick's visit left the plant state and the attractor states
    as it found them: the same state objects (no switch), and every state
    that its steps returned equal to the start bit for bit (``array`` bytes,
    so 0.0 and -0.0 differ)."""
    steps = len(new_vel) // len(vel)
    return all(map(is_, states, new_states)) and (
        array("d", new_pos + new_vel).tobytes() == array("d", pos * steps + vel * steps).tobytes()
    )


class _LoopRun(NamedTuple):
    """The loop's record columns, task kinetic energy and error."""

    t: np.ndarray
    x_d: np.ndarray
    x: np.ndarray
    x_err: np.ndarray
    xdot: np.ndarray
    phase_s: np.ndarray
    wrench: np.ndarray
    contact_f: np.ndarray
    ke: np.ndarray
    error: dict | None


def _episode_loop(sc: Scenario) -> _LoopRun:
    """Step one scenario: plant, controller and record work, no audit."""
    d = sc.n_task
    dt = sc.dt
    n_steps = int(round(sc.duration / dt))
    n = n_steps + 1
    use_fic = sc.controller == "fic"
    is_arm = sc.plant == "arm"

    plant, profile, wall = build_environment(sc)
    ctrl = build_controller(sc)  # replaced at each swap of ``_schedule_swaps``
    posture = ctrl.posture_target, ctrl.posture_gains  # the arm's null-space task

    if is_arm:
        pos, vel = list(map(float, sc.q0)), list(map(float, sc.qdot0))
        accel = _arm_accel
        x_start = forward_kinematics(plant, pos).tolist()
    else:
        pos = [0.0] * d if sc.x0 is None else list(map(float, sc.x0))
        vel = [0.0] * d if sc.xdot0 is None else list(map(float, sc.xdot0))
        accel = _point_mass_accel
        x_start = pos
    sample = None  # the arm's sample; the point mass needs none
    ref_fn = _make_reference(sc, x_start)
    static_ref = sc.reference["type"] == "static"
    tick_mask = _tick_starts(n, sc.feedback_hz, dt)
    swaps = _schedule_swaps(sc, n)
    pulse_rows = _pulse_table(profile, n_steps, dt)
    w_pulse = None
    # (held force + pulse row) / m is set at a tick or a pulse edge, not per
    # stage, and one visit steps from there to the next one (or the last
    # sample); the other plants visit every sample. A visit is its sample,
    # the samples it records (it and its held run) and whether it ticks.
    state_free = not is_arm and wall is None
    stage = None if state_free else lambda xx, vv: accel(plant, held_force, xx, vv, wall, w_pulse)
    stops = tick_mask | (not state_free)
    stops[list(pulse_rows)] = stops[-1] = True
    visits = np.flatnonzero(stops)
    plan = zip(visits.tolist(), np.diff(visits, append=n).tolist(), tick_mask[visits].tolist())
    events = sorted({*pulse_rows, *swaps, n - 1})  # each one is a visit
    resume = 0  # the sample where a fast-forwarded rest ends

    states = new_attractor_states(d)
    phase_row = [_DIV.value] * d  # the attractor phases' s flags, changed at ticks

    # Record columns, d values per sample for the vector series, grown by
    # ``fromlist`` (one copy of a list; ``extend`` iterates it); a visit records
    # its start state, a held run its interior, and the next visit its end.
    # ``wr_c`` and ``ph_c`` get one row per tick, at the samples in ``tk_c``.
    xd_c, x_c, xv_c, wr_c, cf_c, ke_c = (array("d") for _ in range(6))
    ph_c, tk_c = array("q"), array("q")
    nq = len(pos)
    error = None

    for k, steps, tick in plan:
        if k < resume:
            continue
        t = k * dt
        if is_arm:
            try:
                sample = _arm_task_state(plant, pos, vel)
            except SingularConfigurationError as exc:
                error = {"type": "singular_configuration", "time": t, "message": str(exc)}
                break
            x_now, v_now = sample.x, sample.xdot
            ke_c.append(sample.ke)
        else:
            x_now, v_now = pos, vel
        x_c.fromlist(x_now)
        xv_c.fromlist(v_now)
        x_d, xd_rate = ref_fn(t)

        if wall is not None:
            cf = contact_force(wall, x_now, v_now)

        if tick:
            ctrl = swaps.get(k, ctrl)
            states0 = states
            if use_fic:
                held_wrench, states, phase_row = fic_task_wrench(
                    ctrl, states, x_d, xd_rate, x_now, v_now
                )
            else:
                held_wrench = baseline_impedance_wrench(ctrl, x_d, x_now, v_now)
            wr_c.fromlist(held_wrench)
            ph_c.fromlist(phase_row)
            tk_c.append(k)
            held_force = held_wrench
            if is_arm:
                held_force = _arm_torques(plant, sample, held_wrench, *posture)

        if k < n_steps:
            w_pulse = pulse_rows.get(k, w_pulse)
            accel0 = accel(plant, held_force, pos, vel, wall, w_pulse, sample)
            try:
                new_pos, new_vel = _advance(pos, vel, stage, dt, sc.integrator, t, accel0, steps)
            except IntegrationBlowupError as exc:
                error = {"type": "integration_blowup", "time": exc.time, "message": str(exc)}
                new_pos, new_vel = exc.pos, exc.vel  # the finite states before it
                steps = len(new_vel) // nq + 1
            if steps > 1:  # a held run's interior states (all of them before a blowup)
                x_c.fromlist(new_pos[: (steps - 1) * nq])
                xv_c.fromlist(new_vel[: (steps - 1) * nq])
            pos0, vel0, pos, vel = pos, vel, new_pos[-nq:], new_vel[-nq:]
            if (
                tick
                and static_ref
                and vel == vel0
                and error is None
                and _fixed_point(pos0, vel0, new_pos, new_vel, states0, states)
            ):  # a fixed point: each sample up to the next event repeats it
                resume = events[bisect_right(events, k)]  # the plan resumes there
                rest = resume - k - steps
                x_c.fromlist(x_now * rest)
                xv_c.fromlist(v_now * rest)
                if is_arm:
                    ke_c.fromlist([sample.ke] * rest)
                steps += rest
        if wall is not None:
            cf_c.fromlist(cf * steps)
        if not static_ref:
            xd_c.fromlist(x_d)
            for i in range(k + 1, k + steps):
                xd_c.fromlist(ref_fn(i * dt)[0])
        if error is not None:
            break

    n_rec = len(x_c) // d
    x_a, xv_a = _rows(x_c, d), _rows(xv_c, d)
    # a tick's row holds from its sample to the next tick's (or the record's end)
    runs = np.diff(np.frombuffer(tk_c, dtype=np.int64), append=n_rec)
    wr_a = np.repeat(_rows(wr_c, d), runs, axis=0)
    phase_s = np.repeat(np.frombuffer(ph_c, dtype=np.int64).reshape(-1, d), runs, axis=0)
    cf_a = _rows(cf_c, d) if wall is not None else np.zeros((n_rec, d))
    xd_a = np.repeat([ref_fn(0.0)[0]], n_rec, axis=0) if static_ref else _rows(xd_c, d)
    with np.errstate(over="ignore"):  # as float arithmetic on a blown-up record
        xe_a = xd_a - x_a
        ke = np.frombuffer(ke_c) if is_arm else 0.5 * _dof_sum(plant.inertia, xv_a, xv_a)
    return _LoopRun(np.arange(n_rec) * dt, xd_a, x_a, xe_a, xv_a, phase_s, wr_a, cf_a, ke, error)


def run_scenario(sc: Scenario) -> EpisodeRecord:
    """Execute one scenario; deterministic for identical scenario values."""
    run = _episode_loop(sc)
    t_a, xe_a, xv_a, phase_s, dt = run.t, run.x_err, run.xdot, run.phase_s, sc.dt
    ctrl, (_, profile, _) = build_controller(sc), build_environment(sc)
    n_rec = t_a.shape[0]
    # E_rel: running maximum of the task KE over samples where any DoF converges.
    converging = np.any(phase_s == _CONV.value, axis=1)
    e_rel_cum = np.maximum.accumulate(np.where(converging, run.ke, 0.0))
    forced = np.zeros(n_rec, dtype=bool)
    for p in profile.pulses:
        forced |= (p.start - dt <= t_a) & (t_a < p.end + dt)
    if sc.controller == "fic":  # the swaps of the ticks that the record reached
        swaps = {k: config.stiffness for k, config in _schedule_swaps(sc, n_rec).items()}
        e_in_cum, pot, events = episode_energy(xe_a, phase_s, dt, ctrl.stiffness, swaps)
    else:
        e_in_cum, pot, events = np.zeros(n_rec), 0.5 * _dof_sum(ctrl.k_d, xe_a, xe_a), ()
    ledger = EnergyLedger(
        e_in=float(e_in_cum[-1]) if n_rec else 0.0,
        e_rel=float(e_rel_cum[-1]) if n_rec else 0.0,
        contact_work=0.0 if sc.wall is None else _contact_work(run.contact_f, xv_a, dt),
        switch_events=tuple(events),
    )
    recov, conv = _pulse_recoveries(t_a, xe_a, profile, dt)
    # the loop's columns t to contact_f are the record's, in its field order
    return EpisodeRecord(
        sc, *run[:8], pot + run.ke, e_in_cum, e_rel_cum, forced, ledger, recov, conv, run.error
    )


def _rows(col: array, d: int) -> np.ndarray:
    """A float column of d values per row as an (n, d) array view."""
    return np.frombuffer(col).reshape(-1, d)


def _pulse_recoveries(t: np.ndarray, x_err: np.ndarray, profile: PerturbationProfile, dt: float):
    """Per-pulse convergence and recovery times after the pulse ends.

    Convergence: first instant the error norm drops below 5% of the pulse's
    peak. Recovery: first instant after which it stays below for 0.2 s.
    Times are measured from the pulse end; NaN when not reached. The norm is
    a running ``hypot``, which does not overflow on a blown-up record and is
    exactly ``|x_err|`` for one DoF.
    """
    if len(profile.pulses) == 0 or t.shape[0] == 0:
        return (), ()
    err_norm = np.hypot.reduce(x_err, axis=1, initial=0.0)
    dwell = max(int(round(RECOVERY_DWELL / dt)), 1)
    starts = sorted(p.start for p in profile.pulses)
    recov, conv = [], []
    for p in profile.pulses:
        later = [s for s in starts if s > p.start]
        w_end = later[0] if later else t[-1] + dt
        in_window = (t >= p.start) & (t < w_end)
        if not np.any(in_window):
            recov.append(math.nan)
            conv.append(math.nan)
            continue
        peak = float(np.max(err_norm[in_window]))
        thr = RECOVERY_FRACTION * peak
        after_idx = np.flatnonzero((t >= p.end) & (t < w_end))
        if peak <= 0.0 or after_idx.size == 0:
            recov.append(0.0)
            conv.append(0.0)
            continue
        below = err_norm[after_idx] < thr
        hit = np.flatnonzero(below)
        conv.append(float(t[after_idx[hit[0]]] - p.end) if hit.size else math.nan)
        rec_t = math.nan
        if below.size >= dwell:
            # samples below the threshold in each window of ``dwell`` samples
            run = np.cumsum(below.astype(np.int64))
            window = run[dwell - 1 :] - np.concatenate(([0], run[:-dwell]))
            full = np.flatnonzero(window == dwell)
            if full.size:
                rec_t = float(t[after_idx[full[0]]] - p.end)
        recov.append(rec_t)
    return tuple(recov), tuple(conv)


def compute_metrics(record: EpisodeRecord) -> dict:
    """Tracking and recovery metrics of one episode. Each error column is
    divided by the power of two ``k`` at or below its peak before it is
    squared or summed: that is exact, so a finite record gets numpy's values
    bit for bit, and a blown-up record does not overflow."""
    err = record.x_err
    d = err.shape[1] if err.size else 0
    max_abs = tuple(float(np.max(np.abs(err[:, i]))) if err.size else 0.0 for i in range(d))
    ks = [math.ldexp(1.0, math.frexp(p)[1] - 1) if 0.0 < p < math.inf else 1.0 for p in max_abs]
    cols = [(k, err[:, i] / k) for i, k in enumerate(ks)]
    rmse = tuple(float(k * np.sqrt(np.mean(u**2))) for k, u in cols)
    mean_err = tuple(float(k * np.mean(u)) for k, u in cols)
    std_err = tuple(float(k * np.std(u)) for k, u in cols)
    recov = record.recovery_times
    finite = [r for r in recov if not math.isnan(r)]
    return {
        "rmse": rmse,
        "mean_err": mean_err,
        "std_err": std_err,
        "max_abs_err": max_abs,
        "recovery_times": recov,
        "convergence_times": record.convergence_times,
        "recovery_mean": float(np.mean(finite)) if finite else math.nan,
        "n_unrecovered": sum(1 for r in recov if math.isnan(r)),
    }


def detect_oscillation(record: EpisodeRecord | _LoopRun) -> bool:
    """Sustained oscillation test on the trailing ``OSCILLATION_WINDOW`` s.

    True when, on any DoF, the error rate crosses zero more than 8 times and
    the error peak is non-decaying (last-half peak >= 90% of first-half peak).
    Only ``t`` and ``x_err`` are read, so a record and a loop result agree.
    """
    t = record.t
    if t.shape[0] < 4:
        return False
    mask = t >= t[-1] - OSCILLATION_WINDOW + 1e-12
    err = record.x_err[mask]
    n_w = err.shape[0]
    if n_w < 4:
        return False
    half = n_w // 2
    for i in range(err.shape[1]):
        e = err[:, i]
        scale = float(np.max(np.abs(e)))
        if scale <= 1e-9:
            continue
        rate = np.diff(e)
        sgn = np.sign(np.where(np.abs(rate) < 1e-9 * scale, 0.0, rate))
        sgn = sgn[sgn != 0]
        crossings = int(np.count_nonzero(sgn[1:] != sgn[:-1]))
        if crossings <= 8:
            continue
        p1 = float(np.max(np.abs(e[:half])))
        p2 = float(np.max(np.abs(e[half:])))
        if p1 > 0.0 and p2 >= 0.9 * p1:
            return True
    return False


def calibrate_sweep(base: Scenario, w_max_init: float, x_b_grid) -> list[dict]:
    """Largest stable w_max per boundary size, scanned top-down.

    For each x_B of the descending grid, run the base perturbation scenario
    with candidate w_max values descending from ``w_max_init`` in steps of
    ``W_STEP`` down to ``W_MIN``, and keep the first one whose episode
    completes without sustained oscillation. Rows are {x_b, x_b_range, w_max}
    with NaN when every candidate oscillates. A candidate runs the episode
    loop only, never the energy audit and pulse recoveries of ``run_scenario``.

    Raises:
        ValueError: before any episode, naming the argument: a value that is
            not a number (a str or bool included), an empty, non-finite,
            ascending or sub-millimetre grid, a non-finite ``w_max_init`` or
            one below ``W_MIN``.
    """
    grid = _floats(x_b_grid, "x_b_grid")
    w_max_init = _float(w_max_init, "w_max_init")
    if not grid:
        raise ValueError("x_b_grid: must be non-empty")
    if not all(map(math.isfinite, grid)):
        raise ValueError("x_b_grid: must be finite")
    if any(grid[i] <= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("x_b_grid: must be strictly descending")
    if grid[-1] < 0.001 - 1e-12:
        raise ValueError("x_b_grid: floor is 0.001 m")
    if not (math.isfinite(w_max_init) and w_max_init >= W_MIN - 1e-12):
        raise ValueError(f"w_max_init: must be finite and at least w_min = {W_MIN:g}")
    rows = []
    for i, xb in enumerate(grid):
        chosen = math.nan
        cand = w_max_init
        while cand >= W_MIN - 1e-12:
            run = _episode_loop(replace(base, controller="fic", x_b=xb, w_max=cand))
            if run.error is None and not detect_oscillation(run):
                chosen = cand
                break
            cand -= W_STEP
        upper = grid[i - 1] if i > 0 else xb
        rows.append({"x_b": xb, "x_b_range": (xb, upper), "w_max": chosen})
    return rows
