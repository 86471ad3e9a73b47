"""The record's held columns against the zero-order hold that defines them.

The episode loop writes a tick's wrench and phase flags once, at the tick's
sample, and repeats each row up to the next tick after the loop; a static
reference's pose and a wall-free record's contact force are formed only
then. These tests read finished records: a held row changes only at a tick
sample of ``_tick_starts``, the formed columns hold what they stand for, and
a truncated record keeps the shape of every column.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_impedance import Scenario, run_scenario
from fractal_impedance.dynamics import PlanarArm, forward_kinematics
from fractal_impedance.sim_harness import _make_reference, _tick_starts

DT = 1e-3
# 30 and 300 Hz do not divide 1/dt = 1 kHz, so they tick at floor multiples
RATES = (30.0, 50.0, 100.0, 300.0, 1000.0)
ROW_FIELDS = ("t", "x_d", "x", "x_err", "xdot", "phase_s", "wrench", "contact_f")
ROW_FIELDS += ("v", "e_in_cum", "e_rel_cum", "forced")


def start_pose(sc: Scenario) -> list:
    if sc.plant == "arm":
        return forward_kinematics(PlanarArm.default(gravity=sc.gravity), sc.q0).tolist()
    return list(sc.x0)


def bits(col: np.ndarray) -> np.ndarray:
    """The rows of a float or int64 column as int64 bit patterns, so 0.0 and
    -0.0 differ."""
    return np.ascontiguousarray(col).view(np.int64)


@st.composite
def episodes(draw) -> Scenario:
    plant = draw(st.sampled_from(("point_mass", "arm")))
    d = 2 if plant == "arm" else draw(st.integers(1, 2))
    fields = dict(
        plant=plant,
        controller=draw(st.sampled_from(("fic", "baseline"))),
        integrator=draw(st.sampled_from(("rk4", "semi_implicit"))),
        duration=0.25 if plant == "arm" else 0.4,
        dt=DT,
        feedback_hz=draw(st.sampled_from(RATES)),
        damping=5.0 if plant == "arm" else 2.5,
        k_const=100.0 if plant == "arm" else 0.0,
    )
    if plant == "point_mass":
        fields.update(inertia=(1.0, 2.0)[:d], x0=(0.0,) * d)
    pulses, end = [], 0.0
    for _ in range(draw(st.integers(0, 2))):
        start = end + draw(st.floats(0.003, 0.1))  # edges mostly between ticks
        duration = draw(st.floats(0.004, 0.06))
        wrench = tuple(draw(st.floats(-10.0, 10.0)) for _ in range(d))
        pulses.append({"start": start, "duration": duration, "wrench": wrench})
        end = start + duration
    fields["pulses"] = tuple(pulses)
    start = start_pose(Scenario(**fields))
    kind = draw(st.sampled_from(("start", "pose", "sinusoid")))
    if kind == "pose":
        offsets = (draw(st.floats(-0.02, 0.02)) for _ in range(d))
        fields["reference"] = {"type": "static", "pose": tuple(map(sum, zip(start, offsets)))}
    elif kind == "sinusoid":
        fields["reference"] = {"type": "sinusoid", "axis": 0, "amplitude": 0.01, "period": 0.2}
    if draw(st.booleans()):
        axis, direction = draw(st.integers(0, d - 1)), draw(st.sampled_from((-1, 1)))
        offset = start[axis] + direction * draw(st.floats(-0.002, 0.01))
        fields["wall"] = {
            "axis": axis,
            "offset": offset,
            "stiffness": 1e3,
            "damping": 10.0,
            "direction": direction,
        }
    return Scenario(**fields)


@settings(max_examples=30, deadline=None)
@given(sc=episodes())
def test_record_is_a_zero_order_hold(sc):
    rec = run_scenario(sc)
    n, d = rec.n_samples, sc.n_task
    assert rec.error is None
    assert n == round(sc.duration / sc.dt) + 1
    tick = _tick_starts(n, sc.feedback_hz, sc.dt)
    for name in ("wrench", "phase_s"):
        col = getattr(rec, name)
        assert col.shape == (n, d), name
        changed = np.any(bits(col)[1:] != bits(col)[:-1], axis=1)
        assert not np.any(changed & ~tick[1:]), (name, np.flatnonzero(changed & ~tick[1:]))
    assert rec.contact_f.shape == (n, d)
    if sc.wall is None:
        assert not np.any(bits(rec.contact_f))  # +0.0 in every entry
    ref_fn = _make_reference(sc, start_pose(sc))
    if sc.reference["type"] == "static":
        pose = np.array(ref_fn(0.0)[0])
        if sc.reference.get("pose") is not None:
            assert pose.tolist() == list(sc.reference["pose"])
        assert bits(rec.x_d).tobytes() == bits(np.tile(pose, (n, 1))).tobytes()
    else:
        want = np.array([ref_fn(k * sc.dt)[0] for k in range(n)])
        assert rec.x_d.tobytes() == want.tobytes()


@pytest.mark.parametrize("pose", [None, (1.0, 1.5)], ids=["start", "pose"])
@pytest.mark.parametrize("controller", ["fic", "baseline"])
def test_singular_start_record_has_empty_columns(controller, pose):
    # fully stretched arm: the loop stops at sample 0, before any tick
    sc = Scenario(
        plant="arm",
        controller=controller,
        q0=(0.0, 0.0, 0.0),
        k_const=100.0,
        duration=0.2,
        reference={"type": "static", "pose": pose},
    )
    rec = run_scenario(sc)
    assert rec.error["type"] == "singular_configuration"
    for name in ROW_FIELDS:
        col = getattr(rec, name)
        assert col.shape == ((0,) if col.ndim == 1 else (0, 2)), name
    assert rec.x_d.dtype == np.float64 and rec.phase_s.dtype == np.int64


# x overflows inside the held run after the 20 Hz tick at sample 50
HELD_RUN_BLOWUP = dict(
    duration=2.0,
    dt=1e-3,
    inertia=(1.0, 2.0),
    controller="baseline",
    feedback_hz=20.0,
    x0=(1.797e308, 0.0),
    xdot0=(1e306, 0.0),
)


@pytest.mark.parametrize("reference", ["static", "sinusoid"])
@pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
def test_blowup_in_a_held_run_keeps_every_column(integrator, reference):
    ref = {"type": "static"}  # the start pose, so the wrench stays finite
    if reference == "sinusoid":
        ref = {"type": "sinusoid", "axis": 1, "amplitude": 0.05, "period": 1.3}
    sc = Scenario(**HELD_RUN_BLOWUP, integrator=integrator, reference=ref)
    rec = run_scenario(sc)
    n = rec.n_samples
    assert rec.error["type"] == "integration_blowup"
    for name in ROW_FIELDS:
        assert getattr(rec, name).shape[0] == n, name
    last = np.flatnonzero(_tick_starts(n, sc.feedback_hz, sc.dt))[-1]
    assert n - last > 1  # the record ends inside the last tick's held run
    for name in ("wrench", "phase_s"):
        col = bits(getattr(rec, name))
        assert np.all(col[last:] == col[last]), name
