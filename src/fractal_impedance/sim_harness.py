"""Scenario execution: closed-loop simulation, metrics and calibration.

A Scenario is a plain-value description (strings, numbers, tuples, dicts) of
one closed-loop experiment, so records are reproducible from the scenario
alone. The loop advances physics at ``dt`` while the controller runs on a
zero-order hold at ``feedback_hz``: the measurement taken at a tick is
consumed once and the commanded force is held until the next tick.

Each sample evaluates the plant once (``dynamics._arm_task_state`` or
``_point_mass_task_state``), then one ``dynamics._advance`` step follows. A
tick is one block for both plants: the task law reads the errors from the
sample, and for the arm ``controllers._arm_torques`` maps the wrench at that
same sample; the plant object is never written. The loop keeps the plant
state, reference, held wrench and pulse wrench as lists of Python floats,
because numpy's per-call dispatch on vectors of one to three entries costs
more than their arithmetic. It writes each sample into compact ``array``
columns, and the record's arrays are built from them once, after the loop.
Elementwise float arithmetic in numpy's order gives numpy's bits, so a 1-DoF
record is the one numpy expressions would give; a sum over several DoFs
(kinetic energy, contact power) may differ from ``np.dot`` in the last bit.
The bookkeeping runs the library's laws:

- tick instants: ``_tick_starts``, which ``zoh_sample`` also uses;
- absorbed energy E_in: ``energy_audit.fic_work`` per DoF over each sample
  step that starts in Divergence (``energy_in`` over a whole segment);
- released energy E_rel: the running maximum of the task kinetic energy over
  samples where any DoF converges (``energy_released`` of those samples);
- monitored V: the ``energy_audit.LyapunovTracker`` phase potentials plus the
  task kinetic energy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from operator import mul

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
    _dot,
    _arm_task_state,
    _point_mass_accel,
    _point_mass_task_state,
    contact_force,
    external_wrench,
    forward_kinematics,
)
from .energy_audit import EnergyLedger, LyapunovTracker, fic_work
from .fic_core import Phase, StiffnessParams, spring_energy  # noqa: F401 (bench hook)

__all__ = [
    "Scenario",
    "EpisodeRecord",
    "zoh_sample",
    "run_scenario",
    "compute_metrics",
    "detect_oscillation",
    "calibrate_sweep",
    "random_pulse_profile",
]

PLANTS = ("point_mass", "arm")
CONTROLLERS = ("fic", "baseline")
RECOVERY_FRACTION = 0.05  # of the per-pulse peak error
RECOVERY_DWELL = 0.2  # s below threshold before recovery is declared

_REFERENCE_KEYS = {
    "static": {"type", "pose"},
    "sinusoid": {"type", "axis", "amplitude", "period", "center"},
    "circle": {"type", "radius", "period", "center"},
}
_PULSE_KEYS = {"start", "duration", "wrench"}
_WALL_KEYS = {"axis", "offset", "stiffness", "damping", "direction"}
_SCHEDULE_KEYS = {"x_b_end", "rate", "interval"}


def _coerce(obj):
    """Lists to tuples recursively, so scenarios are plain hashable-ish values."""
    if isinstance(obj, (list, tuple)):
        return tuple(_coerce(o) for o in obj)
    if isinstance(obj, dict):
        return {k: _coerce(v) for k, v in obj.items()}
    return obj


def _check_keys(name: str, d: dict, allowed: set, required: set) -> None:
    for key in d:
        if key not in allowed:
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
        for name in (
            "inertia",
            "x0",
            "xdot0",
            "q0",
            "qdot0",
            "gravity",
            "posture_target",
            "posture_gains",
            "k_const",
            "w_max",
            "x_b",
            "damping",
            "k_d",
            "d_d",
            "reference",
            "pulses",
            "wall",
            "xb_schedule",
        ):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        self._validate()

    @property
    def n_task(self) -> int:
        return 2 if self.plant == "arm" else len(self.inertia)

    def _validate(self) -> None:
        if self.plant not in PLANTS:
            raise ValueError(f"plant: must be one of {PLANTS}, got '{self.plant}'")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller: must be one of {CONTROLLERS}")
        if not self.duration > 0.0:
            raise ValueError("duration: must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt: must be positive")
        if not 0.0 < self.feedback_hz <= (1.0 / self.dt) * (1.0 + 1e-9):
            raise ValueError(
                f"feedback_hz: must satisfy 0 < feedback_hz <= 1/dt = {1.0 / self.dt:.6g}"
            )
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator: must be one of {INTEGRATORS}")
        d = self.n_task
        if self.plant == "point_mass":
            if len(self.inertia) < 1 or any(m <= 0 for m in self.inertia):
                raise ValueError("inertia: must be positive per DoF")
            for name in ("x0", "xdot0"):
                val = getattr(self, name)
                if val is not None and len(val) != d:
                    raise ValueError(f"{name}: expected {d} entries")
        else:
            if len(self.q0) != len(self.qdot0):
                raise ValueError("qdot0: length must match q0")
            if len(self.gravity) != 2:
                raise ValueError("gravity: expected 2 entries")
            if self.posture_target is not None and len(self.posture_target) != len(self.q0):
                raise ValueError("posture_target: length must match q0")
        if len(self.posture_gains) != 2 or any(g < 0 for g in self.posture_gains):
            raise ValueError("posture_gains: expected two non-negative values")
        # Controller configs are built once here so bad gains fail at parse time.
        if self.controller == "fic":
            build_fic_config(self)
            if self.xb_schedule is not None:
                _check_keys("xb_schedule", self.xb_schedule, _SCHEDULE_KEYS, _SCHEDULE_KEYS)
                end, rate, itv = (
                    self.xb_schedule["x_b_end"],
                    self.xb_schedule["rate"],
                    self.xb_schedule["interval"],
                )
                if end <= 0 or rate <= 0 or itv <= 0:
                    raise ValueError("xb_schedule: x_b_end, rate, interval must be positive")
                build_fic_config(self, x_b_override=(end,) * d)
        else:
            build_baseline_config(self)
            if self.xb_schedule is not None:
                raise ValueError("xb_schedule: only valid with the fic controller")
        ref = self.reference
        if not isinstance(ref, dict) or "type" not in ref:
            raise ValueError("reference: missing key 'type'")
        if ref["type"] not in _REFERENCE_KEYS:
            raise ValueError(f"reference.type: unknown type '{ref['type']}'")
        _check_keys("reference", ref, _REFERENCE_KEYS[ref["type"]], {"type"})
        if ref["type"] == "static":
            if ref.get("pose") is not None and len(ref["pose"]) != d:
                raise ValueError(f"reference.pose: expected {d} entries")
        elif ref["type"] == "sinusoid":
            for key in ("axis", "amplitude", "period"):
                if key not in ref:
                    raise ValueError(f"reference: missing key '{key}'")
            if not 0 <= int(ref["axis"]) < d:
                raise ValueError("reference.axis: out of range")
            if ref["period"] <= 0:
                raise ValueError("reference.period: must be positive")
            if ref.get("center") is not None and len(ref["center"]) != d:
                raise ValueError(f"reference.center: expected {d} entries")
        else:
            for key in ("radius", "period"):
                if key not in ref:
                    raise ValueError(f"reference: missing key '{key}'")
            if d != 2:
                raise ValueError("reference.type: circle requires a 2-D task")
            if ref["radius"] <= 0 or ref["period"] <= 0:
                raise ValueError("reference: radius and period must be positive")
            if ref.get("center") is not None and len(ref["center"]) != 2:
                raise ValueError("reference.center: expected 2 entries")
        for idx, p in enumerate(self.pulses):
            if not isinstance(p, dict):
                raise ValueError(f"pulses[{idx}]: expected an object")
            _check_keys(f"pulses[{idx}]", p, _PULSE_KEYS, _PULSE_KEYS)
            if len(p["wrench"]) != d:
                raise ValueError(f"pulses[{idx}].wrench: expected {d} entries")
        build_profile(self)  # validates per-DoF overlap and magnitudes
        if self.wall is not None:
            _check_keys("wall", self.wall, _WALL_KEYS, {"axis", "offset", "stiffness"})
            if not 0 <= int(self.wall["axis"]) < d:
                raise ValueError("wall.axis: out of range")
            build_wall(self)


def build_stiffness(sc: Scenario, x_b_override: tuple | None = None) -> tuple:
    d = sc.n_task
    kc = _per_dof(sc.k_const, d, "k_const")
    wm = _per_dof(sc.w_max, d, "w_max")
    xb = x_b_override if x_b_override is not None else _per_dof(sc.x_b, d, "x_b")
    return tuple(
        StiffnessParams(k_const=kc[i], w_max=wm[i], x_b=xb[i]) for i in range(d)
    )


def _posture_target(sc: Scenario) -> tuple | None:
    """The arm's posture target, q0 by default; a point mass has none."""
    if sc.plant != "arm":
        return None
    return sc.q0 if sc.posture_target is None else sc.posture_target


def build_fic_config(sc: Scenario, x_b_override: tuple | None = None) -> FicConfig:
    return FicConfig(
        stiffness=build_stiffness(sc, x_b_override),
        damping=sc.damping,
        posture_target=_posture_target(sc),
        posture_gains=sc.posture_gains,
    )


def build_baseline_config(sc: Scenario) -> BaselineConfig:
    d = sc.n_task
    return BaselineConfig(
        k_d=_per_dof(sc.k_d, d, "k_d"),
        d_d=_per_dof(sc.d_d, d, "d_d"),
        posture_target=_posture_target(sc),
        posture_gains=sc.posture_gains,
    )


def build_profile(sc: Scenario) -> PerturbationProfile:
    pulses = tuple(
        Pulse(start=float(p["start"]), duration=float(p["duration"]), wrench=p["wrench"])
        for p in sc.pulses
    )
    return PerturbationProfile(n_dof=sc.n_task, pulses=pulses)


def build_wall(sc: Scenario) -> ContactWall | None:
    if sc.wall is None:
        return None
    w = sc.wall
    return ContactWall(
        axis=int(w["axis"]),
        offset=float(w["offset"]),
        stiffness=float(w["stiffness"]),
        damping=float(w.get("damping", 0.0)),
        direction=int(w.get("direction", 1)),
    )


def build_plant(sc: Scenario) -> PointMassPlant | PlanarArm:
    if sc.plant == "point_mass":
        d = sc.n_task
        x0 = np.zeros(d) if sc.x0 is None else np.asarray(sc.x0, dtype=float)
        v0 = np.zeros(d) if sc.xdot0 is None else np.asarray(sc.xdot0, dtype=float)
        return PointMassPlant(inertia=np.asarray(sc.inertia, dtype=float), x=x0, xdot=v0)
    return PlanarArm.default(q=sc.q0, qdot=sc.qdot0, gravity=sc.gravity)


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


def _pulse_table(profile: PerturbationProfile, n_steps: int, dt: float) -> list | None:
    """The pulse wrench of each step k < n_steps (at t = k dt), or None
    when no step reads one. ``external_wrench`` runs once per distinct set of
    active pulses, and the steps of one set share its row."""
    if not (profile.pulses and n_steps):
        return None
    t = np.arange(n_steps) * dt
    active = np.array([(p.start <= t) & (t < p.end) for p in profile.pulses]).T
    bounds = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
    rows, table = {}, []
    for a, b in zip([0, *bounds.tolist()], [*bounds.tolist(), n_steps]):
        key = active[a].tobytes()
        if key not in rows:
            rows[key] = external_wrench(profile, a * dt)
        table += [rows[key]] * (b - a)
    return table


def zoh_sample(signal: np.ndarray, feedback_hz: float, dt: float) -> np.ndarray:
    """Hold a dt-sampled signal at the feedback rate, from the loop's ticks."""
    sig = np.asarray(signal, dtype=float)
    n = sig.shape[0]
    starts = _tick_starts(n, feedback_hz, dt)
    return sig[np.maximum.accumulate(np.where(starts, np.arange(n), 0))]


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


def _schedule_x_b(sc: Scenario, t: float, x_b0: tuple) -> tuple:
    sched = sc.xb_schedule
    drop = sched["rate"] * sched["interval"] * math.floor(t / sched["interval"] + 1e-9)
    return tuple(max(sched["x_b_end"], xb - drop) for xb in x_b0)


def run_scenario(sc: Scenario) -> EpisodeRecord:
    """Execute one scenario; deterministic for identical scenario values."""
    d = sc.n_task
    dt = sc.dt
    n_steps = int(round(sc.duration / dt))
    n = n_steps + 1
    use_fic = sc.controller == "fic"
    is_arm = sc.plant == "arm"

    plant = build_plant(sc)
    wall = build_wall(sc)
    profile = build_profile(sc)
    fic = build_fic_config(sc) if use_fic else None
    base = build_baseline_config(sc) if not use_fic else None
    ctrl = fic if use_fic else base
    posture = ctrl.posture_target, ctrl.posture_gains  # the arm's null-space task

    if is_arm:
        pos, vel = plant.q.tolist(), plant.qdot.tolist()
        task_state, accel = _arm_task_state, _arm_accel
        x_start = forward_kinematics(plant, pos).tolist()
    else:
        pos, vel = plant.x.tolist(), plant.xdot.tolist()
        task_state, accel = _point_mass_task_state, _point_mass_accel
        x_start = pos
    ref_fn = _make_reference(sc, x_start)
    pulse_rows = _pulse_table(profile, n_steps, dt)
    w_pulse = None

    states = new_attractor_states(d)
    x_b0 = tuple(p.x_b for p in fic.stiffness) if use_fic else None
    trackers = [LyapunovTracker(params=p) for p in fic.stiffness] if use_fic else None
    phase_row = [Phase.DIVERGENCE.value] * d  # the attractor phases, changed at ticks
    ticks = _tick_starts(n, sc.feedback_hz, dt).tolist()

    # Record columns, d values per sample for the vector series.
    xd_c, x_c, xe_c, xv_c, wr_c, cf_c = (array("d") for _ in range(6))
    pot_c, ke_c, ein_c = array("d"), array("d"), array("d")
    ph_c = array("q")
    cf = [0.0] * d  # contact force; stays zero without a wall

    e_in = 0.0
    c_work = 0.0
    events = []
    error = None
    prev_xe = None
    prev_cpow = 0.0

    for k in range(n):
        t = k * dt
        try:
            sample = task_state(plant, pos, vel)
        except SingularConfigurationError as exc:
            error = {"type": "singular_configuration", "time": t, "message": str(exc)}
            break
        x_now, v_now = sample.x, sample.xdot
        x_d, xd_rate = ref_fn(t)
        x_err = [a - b for a, b in zip(x_d, x_now)]

        if k > 0 and use_fic:
            for i in range(d):
                if states[i].phase is Phase.DIVERGENCE:  # as recorded at sample k - 1
                    e_in += fic_work(fic.stiffness[i], prev_xe[i], x_err[i])
        if wall is not None:
            cf = contact_force(wall, x_now, v_now)
            cpow = _dot(cf, v_now)
            if k > 0:
                c_work += 0.5 * (cpow + prev_cpow) * dt
            prev_cpow = cpow

        if ticks[k]:
            if use_fic and sc.xb_schedule is not None:
                new_xb = _schedule_x_b(sc, t, x_b0)
                if new_xb != tuple(p.x_b for p in fic.stiffness):
                    fic = build_fic_config(sc, x_b_override=new_xb)
                    for i in range(d):
                        trackers[i].change_params(fic.stiffness[i], states[i], x_err[i])
            damping_rate = [-v for v in v_now]
            if use_fic:
                rate = [r - v for r, v in zip(xd_rate, v_now)]
                held_wrench, states, _ = fic_task_wrench(fic, states, x_err, rate, damping_rate)
                phase_row = [s.phase.value for s in states]
            else:
                held_wrench = baseline_impedance_wrench(base, x_err, damping_rate)
            held_force = held_wrench
            if is_arm:
                held_force = _arm_torques(plant, sample, held_wrench, *posture)

        xd_c.extend(x_d)
        x_c.extend(x_now)
        xe_c.extend(x_err)
        xv_c.extend(v_now)
        wr_c.extend(held_wrench)
        cf_c.extend(cf)
        ph_c.extend(phase_row)
        if use_fic:
            pot = 0.0
            for i in range(d):
                val, ev = trackers[i].update(states[i], x_err[i], t=t, dof=i)
                pot += val
                if ev is not None:
                    events.append(ev)
        else:
            pot = 0.5 * _dot(map(mul, base.k_d, x_err), x_err)
        pot_c.append(pot)
        ke_c.append(sample.ke)
        ein_c.append(e_in)
        prev_xe = x_err

        if k < n_steps:
            if pulse_rows is not None:
                w_pulse = pulse_rows[k]
            try:
                pos, vel = _advance(
                    pos,
                    vel,
                    lambda xx, vv: accel(plant, held_force, xx, vv, wall, w_pulse),
                    dt,
                    sc.integrator,
                    t,
                    accel(plant, held_force, pos, vel, wall, w_pulse, sample.kernel, sample.chol),
                )
            except IntegrationBlowupError as exc:
                error = {
                    "type": "integration_blowup",
                    "time": exc.time,
                    "message": str(exc),
                }
                break

    # The record arrays view the columns; nothing is copied.
    n_rec = len(ke_c)
    xe_a = _rows(xe_c, d)
    t_a = np.arange(n_rec) * dt
    ke = np.frombuffer(ke_c)
    phase_s = np.frombuffer(ph_c, dtype=np.int64).reshape(n_rec, d)
    # E_rel: running maximum of the task KE over samples where any DoF converges.
    converging = np.any(phase_s == Phase.CONVERGENCE.value, axis=1)
    e_rel_cum = np.maximum.accumulate(np.where(converging, ke, 0.0))
    forced = np.zeros(n_rec, dtype=bool)
    for p in profile.pulses:
        forced |= (p.start - dt <= t_a) & (t_a < p.end + dt)
    ledger = EnergyLedger(
        e_in=ein_c[-1] if n_rec else 0.0,
        e_rel=float(e_rel_cum[-1]) if n_rec else 0.0,
        contact_work=c_work,
        switch_events=tuple(events),
    )
    recov, conv = _pulse_recoveries(t_a, xe_a, profile, dt)
    return EpisodeRecord(
        scenario=sc,
        t=t_a,
        x_d=_rows(xd_c, d),
        x=_rows(x_c, d),
        x_err=xe_a,
        xdot=_rows(xv_c, d),
        phase_s=phase_s,
        wrench=_rows(wr_c, d),
        contact_f=_rows(cf_c, d),
        v=np.frombuffer(pot_c) + ke,
        e_in_cum=np.frombuffer(ein_c),
        e_rel_cum=e_rel_cum,
        forced=forced,
        ledger=ledger,
        recovery_times=recov,
        convergence_times=conv,
        error=error,
    )


def _rows(col: array, d: int) -> np.ndarray:
    """A float column of d values per sample as an (n, d) array view."""
    return np.frombuffer(col).reshape(-1, d)


def _pulse_recoveries(t: np.ndarray, x_err: np.ndarray, profile: PerturbationProfile, dt: float):
    """Per-pulse convergence and recovery times after the pulse ends.

    Convergence: first instant the error norm drops below 5% of the pulse's
    peak. Recovery: first instant after which it stays below for 0.2 s.
    Times are measured from the pulse end; NaN when not reached.
    """
    if len(profile.pulses) == 0 or t.shape[0] == 0:
        return (), ()
    err_norm = np.sqrt(np.sum(x_err * x_err, axis=1))
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
            run = np.cumsum(below.astype(np.int64))
            for j in range(below.size - dwell + 1):
                total = run[j + dwell - 1] - (run[j - 1] if j > 0 else 0)
                if total == dwell:
                    rec_t = float(t[after_idx[j]] - p.end)
                    break
        recov.append(rec_t)
    return tuple(recov), tuple(conv)


def compute_metrics(record: EpisodeRecord) -> dict:
    """Tracking and recovery metrics of one episode."""
    err = record.x_err
    d = err.shape[1] if err.size else 0
    rmse = tuple(float(np.sqrt(np.mean(err[:, i] ** 2))) for i in range(d))
    mean_err = tuple(float(np.mean(err[:, i])) for i in range(d))
    std_err = tuple(float(np.std(err[:, i])) for i in range(d))
    max_abs = tuple(float(np.max(np.abs(err[:, i]))) if err.size else 0.0 for i in range(d))
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
        "recovery_std": float(np.std(finite)) if finite else math.nan,
        "n_unrecovered": sum(1 for r in recov if math.isnan(r)),
    }


def detect_oscillation(record: EpisodeRecord, window: float = 2.0) -> bool:
    """Sustained oscillation test on the trailing window.

    True when, on any DoF, the error rate crosses zero more than 8 times and
    the error peak is non-decaying (last-half peak >= 90% of first-half peak).
    """
    t = record.t
    if t.shape[0] < 4:
        return False
    mask = t >= t[-1] - window + 1e-12
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


def calibrate_sweep(
    base: Scenario,
    w_max_init: float,
    x_b_grid,
    w_step: float = 2.0,
    w_min: float = 2.0,
) -> list[dict]:
    """Largest stable w_max per boundary size, scanned top-down.

    For each x_B of the descending grid, run the base perturbation scenario
    with candidate w_max values descending from ``w_max_init`` and keep the
    first one whose episode completes without sustained oscillation. Rows are
    {x_b, x_b_range, w_max} with NaN when every candidate oscillates.
    """
    grid = [float(x) for x in x_b_grid]
    if not grid:
        raise ValueError("x_b grid must be non-empty")
    if any(grid[i] <= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("x_b grid must be strictly descending")
    if grid[-1] < 0.001 - 1e-12:
        raise ValueError("x_b grid floor is 0.001 m")
    candidates = []
    w = float(w_max_init)
    while w >= w_min - 1e-12:
        candidates.append(w)
        w -= w_step
    rows = []
    for i, xb in enumerate(grid):
        chosen = math.nan
        for cand in candidates:
            sc = replace(base, controller="fic", x_b=xb, w_max=cand)
            rec = run_scenario(sc)
            if rec.error is None and not detect_oscillation(rec):
                chosen = cand
                break
        upper = grid[i - 1] if i > 0 else xb
        rows.append({"x_b": xb, "x_b_range": (xb, upper), "w_max": chosen})
    return rows


def random_pulse_profile(
    n_dof: int,
    seed: int,
    n_pulses: int = 3,
    t_first: float = 0.5,
    gap: tuple = (1.2, 2.0),
    magnitude: tuple = (2.0, 12.0),
    length: tuple = (0.08, 0.25),
    axis: int | None = None,
) -> tuple:
    """Reproducible pulse dicts for randomized perturbation episodes."""
    rng = np.random.default_rng(seed)
    pulses = []
    t = float(t_first)
    for _ in range(n_pulses):
        dur = float(rng.uniform(*length))
        wrench = [0.0] * n_dof
        ax = int(rng.integers(n_dof)) if axis is None else axis
        sign = 1.0 if rng.random() < 0.5 else -1.0
        wrench[ax] = sign * float(rng.uniform(*magnitude))
        pulses.append({"start": t, "duration": dur, "wrench": tuple(wrench)})
        t += dur + float(rng.uniform(*gap))
    return tuple(pulses)
