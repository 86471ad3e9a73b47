"""Fast-forwarded fixed points against the loop's per-sample path.

Under a static reference, a tick that leaves the plant state (bit for bit)
and the attractor states (the same objects) as it found them is a fixed
point: the episode loop records every sample up to the next pulse edge,
schedule swap or the last sample in bulk and resumes there. With
``sim_harness._fixed_point`` forced to say no, the loop steps every visit;
both records must agree bit for bit.
"""

import numpy as np
import pytest

import fractal_impedance
from energy_reference import assert_same_record
from fractal_impedance import Scenario, run_scenario, sim_harness
from fractal_impedance.controllers import new_attractor_states
from pulse_reference import random_pulse_profile
from test_episode_energy import _digest_tool
from test_sim_harness import count_calls, rest_prefix

WALL_PUSH = Scenario(  # acceptance criterion 01
    name="wall_push",
    duration=6.0,
    dt=1e-4,
    feedback_hz=1000.0,
    x0=(0.4,),
    reference={"type": "static", "pose": (0.75,)},
    k_const=0.0,
    w_max=30.0,
    x_b=0.1,
    damping=25.0,
    wall={"axis": 0, "offset": 0.5, "stiffness": 1e4, "damping": 200.0},
)
PM_PULSE = dict(  # a criterion-02 point-mass episode, shortened
    duration=3.0,
    dt=1e-3,
    x0=(0.0,),
    reference={"type": "static", "pose": (0.0,)},
    damping=2.5,
    pulses=random_pulse_profile(1, 7, n_pulses=2, t_first=0.5, gap=(1.2, 1.8)),
)
ARM_PULSE = dict(  # a criterion-02 arm episode, shortened
    plant="arm",
    duration=2.5,
    dt=1e-3,
    feedback_hz=500.0,
    k_const=100.0,
    damping=5.0,
    pulses=random_pulse_profile(2, 7, n_pulses=2, t_first=0.5, gap=(1.2, 1.8)),
)
EPISODES = {
    "wall_push": WALL_PUSH,
    "pm_pulse": Scenario(**PM_PULSE),
    "arm_pulse": Scenario(**ARM_PULSE),
    "baseline_pulse": Scenario(**PM_PULSE, controller="baseline"),
    # x_B moves at 0.25, 0.5 and 0.75 s, inside the rest before the pulse
    "schedule_rest": Scenario(
        **{**PM_PULSE, "pulses": ({"start": 1.0, "duration": 0.1, "wrench": (8.0,)},)},
        xb_schedule={"x_b_end": 0.02, "rate": 0.05, "interval": 0.25},
    ),
    # the pulse edge at sample 301 falls between the 500 Hz ticks
    "arm_odd_edge": Scenario(
        **{**ARM_PULSE, "pulses": ({"start": 0.301, "duration": 0.1, "wrench": (8.0, -5.0)},)}
    ),
    # the first step turns the velocity's -0.0 into 0.0
    "negative_zero_velocity": Scenario(**PM_PULSE, xdot0=(-0.0,)),
    # 50 Hz ticks at dt 1e-3: the rest passes over held-run visits
    "held_runs": Scenario(
        duration=2.0,
        dt=1e-3,
        feedback_hz=50.0,
        inertia=(1.0, 2.0),
        x0=(0.0, 0.0),
        damping=1.0,
        pulses=({"start": 0.5, "duration": 0.1, "wrench": (8.0, -3.0)},),
    ),
}


def loop_records(sc, monkeypatch):
    """The record, the per-sample record, the verdicts of the fixed-point
    test and the ``_advance`` calls of each run."""
    verdicts, test = [], sim_harness._fixed_point

    def spy(*args):
        verdicts.append(test(*args))
        return verdicts[-1]

    with monkeypatch.context() as m:
        m.setattr(sim_harness, "_fixed_point", spy)
        calls = count_calls(m, "_advance", module=sim_harness)
        rec = run_scenario(sc)
        fast = len(calls)
        m.setattr(sim_harness, "_fixed_point", lambda *args: False)
        ref = run_scenario(sc)
    return rec, ref, verdicts, (fast, len(calls) - fast)


def test_fixed_point_needs_the_same_states_and_bits():
    fixed = sim_harness._fixed_point
    states = new_attractor_states(2)
    pos, vel = [0.1, -0.2], [0.0, 0.0]
    assert fixed(pos, vel, list(pos), list(vel), states, tuple(states))
    # a held run of three steps: every returned state counts
    assert fixed(pos, vel, pos * 3, vel * 3, states, states)
    assert not fixed(pos, vel, pos * 2 + [0.1, -0.19], vel * 3, states, states)
    # a switch returns a new state object, even with equal fields
    assert not fixed(pos, vel, pos, vel, states, new_attractor_states(2))
    assert not fixed(pos, [0.0, -0.0], pos, vel, states, states)


@pytest.mark.parametrize("sc", EPISODES.values(), ids=EPISODES.keys())
def test_fast_forward_matches_the_per_sample_path(sc, monkeypatch):
    rec, ref, verdicts, (fast, slow) = loop_records(sc, monkeypatch)
    assert rec.error is None and ref.error is None
    assert True in verdicts and fast < slow
    assert_same_record(rec, ref)


def test_wall_push_rests_at_the_force_ceiling(monkeypatch):
    rec, ref, verdicts, (fast, slow) = loop_records(WALL_PUSH, monkeypatch)
    # the state stops changing at some sample s and never moves again: the
    # loop steps up to the tick after s, then records the rest in one bulk
    rows = np.concatenate([rec.x, rec.xdot], axis=1)
    moved = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1))
    still = int(moved[-1]) + 1  # first sample of the final rest
    assert rec.n_samples - still > 0.85 * rec.n_samples
    assert verdicts.count(True) == 1 and slow == rec.n_samples - 1
    assert still < fast <= still + 10  # the rest is found at the first tick in it
    assert -rec.contact_f[-1, 0] == pytest.approx(30.0, abs=1e-6)
    assert_same_record(rec, ref)


def test_schedule_swaps_cut_the_rest(monkeypatch):
    sc = EPISODES["schedule_rest"]
    rec, ref, verdicts, _ = loop_records(sc, monkeypatch)
    swaps = list(sim_harness._schedule_swaps(sc, rec.n_samples))
    assert swaps[:3] == [250, 500, 750] and rest_prefix(rec) == 1001
    # one fast-forward from sample 0 and one after each swap in the rest
    assert verdicts[:4] == [True] * 4
    assert_same_record(rec, ref)


def test_arm_resumes_at_an_odd_pulse_edge(monkeypatch):
    sc = EPISODES["arm_odd_edge"]
    n = round(sc.duration / sc.dt) + 1
    ticks = sim_harness._tick_starts(n, sc.feedback_hz, sc.dt)
    edge = rest_prefix(run_scenario(sc)) - 1
    assert edge == 301 and not ticks[edge]
    rec, ref, verdicts, (fast, slow) = loop_records(sc, monkeypatch)
    assert verdicts[0] and slow - fast == edge - 1  # samples 1..300 in bulk
    assert_same_record(rec, ref)


def test_negative_zero_velocity_is_not_a_fixed_point(monkeypatch):
    # -0.0 == 0.0, but the first step changes the sign bit: that tick must
    # not fast-forward; the next one, from 0.0, does
    rec, ref, verdicts, _ = loop_records(EPISODES["negative_zero_velocity"], monkeypatch)
    assert rec.xdot[0, 0].hex() == "-0x0.0p+0" and rec.xdot[1, 0].hex() == "0x0.0p+0"
    assert verdicts[:2] == [False, True]
    assert_same_record(rec, ref)


@pytest.mark.parametrize("integrator, per_step", [("rk4", 4), ("semi_implicit", 1)])
def test_arm_rest_prefix_skips_its_kernels(monkeypatch, integrator, per_step):
    sc = Scenario(**ARM_PULSE, integrator=integrator)
    calls = count_calls(monkeypatch, "_arm_kernel")
    rec = run_scenario(sc)
    fast = len(calls)
    monkeypatch.setattr(sim_harness, "_fixed_point", lambda *args: False)
    run_scenario(sc)
    slow = len(calls) - fast
    edge = rest_prefix(rec) - 1
    assert edge == 500 and slow == per_step * (rec.n_samples - 1) + 2
    # samples 1..edge-1 take no task state and no stage
    assert slow - fast == per_step * (edge - 1)


def test_arm_circle_makes_as_many_kernels(monkeypatch):
    # a moving reference is never a fixed point: no sample is skipped and
    # the fixed-point test never runs
    sc = Scenario(
        plant="arm",
        duration=1.0,
        dt=1e-3,
        damping=5.0,
        reference={"type": "circle", "radius": 0.05, "period": 1.0},
    )
    tests = count_calls(monkeypatch, "_fixed_point", module=sim_harness)
    calls = count_calls(monkeypatch, "_arm_kernel")
    rec = run_scenario(sc)
    assert rec.error is None and not tests
    assert len(calls) == 4 * (rec.n_samples - 1) + 2


def test_digest_rest_paths_reach_their_edges(monkeypatch):
    # the records check digests these; each must fast-forward its rest
    paths = _digest_tool().path_scenarios(fractal_impedance)
    names = ["fic_wall_push", "fic_arm_rest_odd_edge", "baseline_rest", "fic_schedule_rest"]
    for name in names + ["fic_negative_zero_velocity"]:
        rec, ref, verdicts, _ = loop_records(paths[name], monkeypatch)
        assert rec.error is None and True in verdicts, name
        assert_same_record(rec, ref)
    assert verdicts[0] is False  # the -0.0 velocity's first tick
    sc = paths["fic_arm_rest_odd_edge"]
    _, profile, _ = sim_harness.build_environment(sc)
    edges = list(sim_harness._pulse_table(profile, round(sc.duration / sc.dt), sc.dt))
    assert sc.plant == "arm" and sc.feedback_hz == 500.0 and edges[1] % 2 == 1
    assert paths["baseline_rest"].controller == "baseline"
    assert paths["fic_schedule_rest"].xb_schedule is not None
