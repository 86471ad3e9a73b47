"""The episode energy audit after the loop against the per-sample oracle.

``run_scenario`` computes E_in, the monitored V, the switch events (with
each switch's attractor state rebuilt from the record) and the contact work
from the record once the loop is done. ``energy_reference`` replays the
per-sample bookkeeping that ran inside the loop before; both must agree bit
for bit.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fractal_impedance
from energy_reference import assert_same_record, record_and_reference
from fractal_impedance import Scenario, cli, energy_audit, run_scenario, sim_harness

SCHEDULE = {"x_b_end": 0.02, "rate": 0.05, "interval": 0.25}
PULSES_1 = (
    {"start": 0.3, "duration": 0.1, "wrench": (8.0,)},
    {"start": 1.5, "duration": 0.2, "wrench": (-9.0,)},
)
PULSES_2 = (
    {"start": 0.3, "duration": 0.1, "wrench": (8.0, -3.0)},
    {"start": 1.5, "duration": 0.2, "wrench": (-9.0, 5.0)},
)
ARM_PULSES = (
    {"start": 0.3, "duration": 0.1, "wrench": (8.0, -5.0)},
    {"start": 1.2, "duration": 0.15, "wrench": (-6.0, 4.0)},
)


def assert_same_audit(rec, ref):
    assert np.array_equal(rec.v, ref.v) and rec.v.tobytes() == ref.v.tobytes()
    assert rec.e_in_cum.tobytes() == ref.e_in_cum.tobytes()
    assert rec.ledger.e_in.hex() == ref.e_in.hex()
    assert rec.ledger.switch_events == ref.switch_events
    assert rec.ledger.contact_work.hex() == ref.contact_work.hex()


def pm(**kw):
    base = dict(duration=3.0, dt=1e-3, x0=(0.0,), damping=1.0, pulses=PULSES_1)
    return Scenario(**{**base, **kw})


def swap_on_divergence(rec, ref) -> bool:
    """A schedule swap at a tick whose DoF was in Divergence before it."""
    return any((rec.phase_s[k - 1] == 1).any() for k in ref.swap_samples if k > 0)


def planned_swaps(sc, n_samples) -> dict:
    """The schedule swaps that the plan gives the ticks of ``n_samples``."""
    return {k: config.stiffness for k, config in sim_harness._schedule_swaps(sc, n_samples).items()}


SCHEDULE_EPISODES = {
    "point_mass": pm(xb_schedule=SCHEDULE),
    "point_mass_2dof": pm(
        inertia=(1.0, 2.0), x0=(0.0, 0.0), pulses=PULSES_2, xb_schedule=SCHEDULE
    ),
    "arm": Scenario(
        plant="arm",
        duration=2.0,
        dt=1e-3,
        feedback_hz=500.0,
        damping=5.0,
        pulses=ARM_PULSES,
        xb_schedule={"x_b_end": 0.03, "rate": 0.05, "interval": 0.2},
    ),
}
ARM_CIRCLE = Scenario(
    plant="arm",
    duration=1.5,
    dt=1e-3,
    damping=5.0,
    reference={"type": "circle", "radius": 0.05, "period": 1.0},
)


def scanned_swaps(sc, n) -> dict:
    """x_B at every tick of samples 0..n-1, kept where it moves, by sample.
    The schedule's law written out per tick: after c whole intervals x_B is
    its start value less c * rate * interval, and no less than x_b_end."""
    end, rate, itv = (float(sc.xb_schedule[k]) for k in ("x_b_end", "rate", "interval"))
    swaps = {}
    x_b = x_b0 = tuple(p.x_b for p in sim_harness.build_controller(sc).stiffness)
    for k in np.flatnonzero(sim_harness._tick_starts(n, sc.feedback_hz, sc.dt)).tolist():
        drop = rate * itv * math.floor(k * sc.dt / itv + 1e-9)
        if (new_xb := tuple(max(end, xb - drop) for xb in x_b0)) != x_b:
            x_b = swaps[k] = new_xb
    return swaps


SWAP_PLANS = {
    **SCHEDULE_EPISODES,
    "swap_at_start": pm(
        duration=1.0, x_b=0.05, xb_schedule={"x_b_end": 0.08, "rate": 0.05, "interval": 0.25}
    ),
    # 7.5 ticks per interval at 30 Hz, 3.3 at 0.11 s intervals and 33 Hz
    "30Hz": pm(feedback_hz=30.0, xb_schedule=SCHEDULE),
    "33Hz": pm(feedback_hz=33.0, xb_schedule={**SCHEDULE, "rate": 0.02, "interval": 0.11}),
}


@pytest.mark.parametrize("sc", SWAP_PLANS.values(), ids=SWAP_PLANS.keys())
def test_swap_plan_matches_a_per_tick_scan(sc):
    n = int(round(sc.duration / sc.dt)) + 1
    want = scanned_swaps(sc, n)
    got = sim_harness._schedule_swaps(sc, n)
    assert want and list(got) == list(want)
    for k, config in got.items():
        assert [p.x_b.hex() for p in config.stiffness] == [x.hex() for x in want[k]]
        assert config == sim_harness.build_controller(sc, x_b=want[k])


@pytest.mark.parametrize("sc", SCHEDULE_EPISODES.values(), ids=SCHEDULE_EPISODES.keys())
def test_schedule_swaps_match_oracle(sc, monkeypatch):
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error is None and len(ref.switch_events) > 0
    assert len(ref.swap_samples) >= 3 and swap_on_divergence(rec, ref)
    assert list(planned_swaps(sc, rec.n_samples)) == list(ref.swap_samples)
    assert_same_audit(rec, ref)


@pytest.mark.parametrize(
    "sc",
    [
        # x_b_end above x_b: the schedule swaps at the first tick, before
        # the first update of the trackers
        pm(duration=1.0, x_b=0.05, xb_schedule={"x_b_end": 0.08, "rate": 0.05, "interval": 0.25}),
        pm(feedback_hz=300.0, damping=2.5),
        pm(integrator="semi_implicit", damping=2.5),
        pm(
            duration=1.0,
            dt=1e-4,
            x0=(0.4,),
            reference={"type": "static", "pose": (0.75,)},
            damping=25.0,
            pulses=(),
            wall={"axis": 0, "offset": 0.5, "stiffness": 1e4, "damping": 200.0},
        ),
        ARM_CIRCLE,
        pm(controller="baseline", inertia=(1.0, 2.0), x0=(0.0, 0.0), pulses=PULSES_2),
        Scenario(plant="arm", controller="baseline", duration=1.0, dt=1e-3, pulses=ARM_PULSES),
    ],
    ids=["swap_at_start", "300Hz", "semi_implicit", "wall", "arm_circle", "baseline", "arm_baseline"],
)
def test_episode_paths_match_oracle(sc, monkeypatch):
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error is None
    assert_same_audit(rec, ref)


def test_truncated_record_matches_oracle(monkeypatch):
    # the damping law is unstable at this dt: the record ends at the blowup
    sc = pm(
        duration=8.0,
        dt=0.01,
        feedback_hz=100.0,
        damping=350.0,
        pulses=({"start": 0.1, "duration": 0.05, "wrench": (5.0,)},),
        xb_schedule={"x_b_end": 0.02, "rate": 0.02, "interval": 0.5},
    )
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error["type"] == "integration_blowup"
    assert 0 < rec.n_samples < 801 and len(ref.switch_events) > 0 and ref.swap_samples
    assert list(planned_swaps(sc, rec.n_samples)) == list(ref.swap_samples)
    assert_same_audit(rec, ref)


def test_truncated_record_audits_only_the_swaps_it_reached(monkeypatch):
    # the schedule moves x_B every 0.1 s up to the end; the blowup cuts it
    sc = pm(
        duration=8.0,
        dt=0.01,
        feedback_hz=100.0,
        damping=350.0,
        pulses=({"start": 0.1, "duration": 0.05, "wrench": (5.0,)},),
        xb_schedule={"x_b_end": 0.02, "rate": 0.001, "interval": 0.1},
    )
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error["type"] == "integration_blowup" and rec.n_samples < 801
    assert list(planned_swaps(sc, rec.n_samples)) == list(ref.swap_samples)
    assert len(ref.swap_samples) < len(planned_swaps(sc, 801)) == 80
    assert_same_audit(rec, ref)


@pytest.mark.parametrize(
    "sc",
    [SCHEDULE_EPISODES["point_mass_2dof"], SCHEDULE_EPISODES["arm"], ARM_CIRCLE],
    ids=["point_mass_schedule", "arm_schedule", "arm_circle"],
)
def test_saved_json_record_audits_itself(sc, tmp_path, monkeypatch):
    # ``fic run --format json`` keeps every float by repr, and the schedule's
    # swaps follow from the scenario: the audit of the record read back from
    # disk has the bits of the in-process audit
    audits, audit = [], sim_harness.episode_energy

    def spy(*args):
        audits.append(audit(*args))
        return audits[-1]

    monkeypatch.setattr(sim_harness, "episode_energy", spy)
    cfg, out = tmp_path / "scenario.json", tmp_path / "record.json"
    cfg.write_text(json.dumps(cli.scenario_to_dict(sc)))
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    (_, potential, _), rec = audits[0], run_scenario(sc)

    (entry,) = json.loads(out.read_text())["records"]
    saved = cli.scenario_from_dict(entry["scenario"])
    series, d = entry["series"], saved.n_task
    x_err = np.array([series[f"x_err_{i}"] for i in range(d)]).T
    phase_s = np.array([series[f"phase_s_{i}"] for i in range(d)]).T
    params = sim_harness.build_controller(saved).stiffness
    swaps = planned_swaps(saved, len(series["t"]))
    e_in_cum, pot, events = energy_audit.episode_energy(x_err, phase_s, saved.dt, params, swaps)
    assert saved == sc and len(swaps) >= (3 if sc.xb_schedule else 0)
    assert x_err.tobytes() == rec.x_err.tobytes() and np.array_equal(phase_s, rec.phase_s)
    assert e_in_cum.tobytes() == rec.e_in_cum.tobytes()
    assert pot.tobytes() == potential.tobytes()
    assert tuple(events) == rec.ledger.switch_events and len(events) > 0


def test_truncated_wall_record_matches_oracle(monkeypatch):
    # pressed against the wall, the damping law is unstable at this dt: the
    # contact work overflows to -inf before the record ends at the blowup
    sc = pm(
        duration=8.0,
        dt=0.01,
        feedback_hz=100.0,
        x0=(0.45,),
        reference={"type": "static", "pose": (0.75,)},
        damping=350.0,
        pulses=(),
        wall={"axis": 0, "offset": 0.5, "stiffness": 1e3},
    )
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error["type"] == "integration_blowup" and np.count_nonzero(rec.contact_f) > 0
    assert rec.ledger.contact_work == -np.inf and len(ref.switch_events) > 0
    assert_same_audit(rec, ref)


def _digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "record_digest.py"
    spec = importlib.util.spec_from_file_location("record_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fic_wall", "fic_wall_arm", "baseline_wall_point_mass"])
def test_digest_wall_paths_reach_contact(name, monkeypatch):
    # the records check digests these; each must press on its wall
    sc = _digest_tool().path_scenarios(fractal_impedance)[name]
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error is None and np.count_nonzero(rec.contact_f) > 0
    assert rec.ledger.contact_work < 0.0
    assert_same_audit(rec, ref)


def test_digest_plan_paths_reach_their_edges(monkeypatch):
    # the records check digests these; each must reach its edge of the plan
    paths = _digest_tool().path_scenarios(fractal_impedance)
    sc = paths["fic_schedule_swap_at_start"]
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error is None and ref.swap_samples == (0,) and sc.feedback_hz < 1.0 / sc.dt
    assert_same_audit(rec, ref)

    sc = paths["fic_held_pulse_from_start_30hz"]
    _, profile, _ = sim_harness.build_environment(sc)
    rows = sim_harness._pulse_table(profile, int(round(sc.duration / sc.dt)), sc.dt)
    assert any(rows[0]) and sc.wall is None and sc.feedback_hz < 1.0 / sc.dt
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error is None
    assert_same_audit(rec, ref)

    sc = paths["fic_schedule_blowup"]
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error["type"] == "integration_blowup" and len(ref.swap_samples) > 0
    assert list(planned_swaps(sc, rec.n_samples)) == list(ref.swap_samples)
    assert_same_audit(rec, ref)


def test_overflowing_baseline_record_matches_oracle(monkeypatch):
    # the potential of the last samples overflows to inf, as in float code,
    # and no numpy warning escapes (warnings are errors in this suite)
    sc = pm(
        controller="baseline",
        duration=5.0,
        dt=1e-2,
        feedback_hz=100.0,
        integrator="semi_implicit",
        x0=(0.5,),
        reference={"type": "static", "pose": (0.0,)},
        k_d=1e6,
        d_d=0.0,
        pulses=(),
    )
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.error["type"] == "integration_blowup" and np.isinf(rec.v[-1])
    assert_same_audit(rec, ref)


def test_singular_start_has_an_empty_audit(monkeypatch):
    sc = Scenario(plant="arm", q0=(0.0, 0.0, 0.0), k_const=100.0, duration=0.2)
    rec, ref = record_and_reference(sc, monkeypatch)
    assert rec.n_samples == 0 and rec.ledger.e_in == 0.0
    assert_same_audit(rec, ref)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    d=st.integers(1, 2),
    k_const=st.floats(0.0, 10.0),
    w_max=st.floats(5.0, 40.0),
    x_b=st.floats(0.01, 0.2),
    damping=st.floats(0.0, 5.0),
    rate_hz=st.sampled_from([1000.0, 500.0, 300.0, 100.0]),
    schedule=st.none()
    | st.fixed_dictionaries(
        {
            "x_b_end": st.floats(0.005, 0.3),
            "rate": st.floats(0.01, 0.2),
            "interval": st.floats(0.05, 0.5),
        }
    ),
    pulses=st.lists(
        st.tuples(st.floats(0.01, 0.3), st.floats(0.01, 0.2), st.floats(-12.0, 12.0)),
        min_size=1,
        max_size=2,
    ),
)
def test_audit_matches_oracle_for_random_episodes(
    monkeypatch, d, k_const, w_max, x_b, damping, rate_hz, schedule, pulses
):
    # pulses one after another with a gap, each on DoF (its index mod d)
    trains, start = [], 0.05
    for j, (gap, length, mag) in enumerate(pulses):
        wrench = [0.0] * d
        wrench[j % d] = mag
        trains.append({"start": start + gap, "duration": length, "wrench": tuple(wrench)})
        start += gap + length
    sc = Scenario(
        duration=1.0,
        dt=1e-3,
        feedback_hz=rate_hz,
        inertia=(1.0,) * d,
        x0=(0.0,) * d,
        k_const=k_const,
        w_max=w_max,
        x_b=x_b,
        damping=damping,
        pulses=tuple(trains),
        xb_schedule=schedule,
    )
    rec, ref = record_and_reference(sc, monkeypatch)
    assert_same_audit(rec, ref)
    # each episode starts at rest, so the loop fast-forwards; the oracle's
    # record took the per-sample path
    assert_same_record(run_scenario(sc), rec)


def test_loop_runs_no_per_sample_audit(monkeypatch):
    # E_in and the trackers run after the loop: no fic_work at all, and one
    # tracker update per DoF run (its start and each phase switch)
    work, updates, energies = [], [], []
    fic_work, update = energy_audit.fic_work, energy_audit.LyapunovTracker.update
    spring_energy = energy_audit.spring_energy

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(energy_audit, "fic_work", counted(work, fic_work))
    monkeypatch.setattr(energy_audit.LyapunovTracker, "update", counted(updates, update))
    monkeypatch.setattr(energy_audit, "spring_energy", counted(energies, spring_energy))
    rec = run_scenario(pm(damping=0.5))
    switches = len(rec.ledger.switch_events)
    n_div = int(np.count_nonzero(rec.phase_s == 1))
    assert rec.n_samples == 3001 and switches >= 4
    assert work == []
    assert len(updates) == 1 + switches
    # one evaluation per Divergence sample and per run end, plus the
    # trackers' few at the run starts
    assert n_div <= len(energies) <= n_div + 5 * len(updates)
