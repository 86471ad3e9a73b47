"""Scenario plumbing: validation, ZOH sampling, episodes, metrics, calibration."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fractal_impedance import (
    PerturbationProfile,
    Phase,
    Pulse,
    Scenario,
    StiffnessParams,
    calibrate_sweep,
    compute_metrics,
    detect_oscillation,
    energy_in,
    energy_released,
    random_pulse_profile,
    run_scenario,
    zoh_sample,
)
from fractal_impedance import dynamics
from fractal_impedance.sim_harness import _make_reference, _pulse_recoveries, _schedule_x_b


LEDGER_DEFECT = (
    "known ledger defect: e_rel is the running maximum of the total task "
    "kinetic energy, compared with the cumulative e_in of all strokes; "
    "see the ROADMAP item 'Passivity audit per excursion'"
)


def scenario(**kw):
    base = dict(
        name="t",
        plant="point_mass",
        controller="fic",
        duration=1.0,
        dt=1e-3,
        feedback_hz=1000.0,
        x0=(0.0,),
        reference={"type": "static", "pose": (0.0,)},
        w_max=30.0,
        x_b=0.1,
    )
    base.update(kw)
    return Scenario(**base)


class TestZohSample:
    def test_identity_at_full_rate(self):
        sig = np.sin(np.linspace(0, 1, 50))
        assert np.array_equal(zoh_sample(sig, 1000.0, 1e-3), sig)

    def test_staircase_holds(self):
        sig = np.arange(30.0)
        out = zoh_sample(sig, 100.0, 1e-3)
        want = np.concatenate([np.full(10, sig[0]), np.full(10, sig[10]), np.full(10, sig[20])])
        assert np.array_equal(out, want)

    def test_non_divisor_rate_uses_floor_ticks(self):
        sig = np.arange(12.0)
        out = zoh_sample(sig, 300.0, 1e-3)
        # floor(0.3 n) increments at n = 4, 7, 10
        want = np.array([0, 0, 0, 0, 4, 4, 4, 7, 7, 7, 10, 10], dtype=float)
        assert np.array_equal(out, want)

    def test_vector_signal(self):
        sig = np.arange(20.0).reshape(10, 2)
        out = zoh_sample(sig, 500.0, 1e-3)
        assert np.array_equal(out[1], out[0])
        assert np.array_equal(out[2], sig[2])

    def test_empty(self):
        assert zoh_sample(np.zeros(0), 100.0, 1e-3).size == 0


class TestScenarioValidation:
    def test_unknown_plant(self):
        with pytest.raises(ValueError, match="plant:"):
            scenario(plant="quadrotor")

    def test_unknown_controller(self):
        with pytest.raises(ValueError, match="controller:"):
            scenario(controller="pid")

    def test_feedback_above_sim_rate(self):
        with pytest.raises(ValueError, match="feedback_hz:"):
            scenario(feedback_hz=2000.0, dt=1e-3)
        with pytest.raises(ValueError, match="dt:"):
            scenario(dt=0.0)

    def test_unknown_integrator(self):
        with pytest.raises(ValueError, match="integrator:"):
            scenario(integrator="euler")

    def test_x0_dimension(self):
        with pytest.raises(ValueError, match="x0:"):
            scenario(x0=(0.0, 0.0))

    def test_reference_needs_type(self):
        with pytest.raises(ValueError, match="reference:"):
            scenario(reference={"pose": (0.0,)})

    def test_reference_unknown_key(self):
        with pytest.raises(ValueError, match="reference"):
            scenario(reference={"type": "static", "posee": (0.0,)})

    def test_sinusoid_axis_range(self):
        with pytest.raises(ValueError, match="reference.axis"):
            scenario(reference={"type": "sinusoid", "axis": 3, "amplitude": 0.1, "period": 1.0})

    def test_circle_needs_two_dof(self):
        with pytest.raises(ValueError, match="circle"):
            scenario(reference={"type": "circle", "radius": 0.1, "period": 1.0})

    def test_pulse_keys(self):
        with pytest.raises(ValueError, match="pulses"):
            scenario(pulses=({"start": 0.1, "wrench": (1.0,)},))

    def test_pulse_wrench_dimension(self):
        with pytest.raises(ValueError, match="wrench"):
            scenario(pulses=({"start": 0.1, "duration": 0.1, "wrench": (1.0, 2.0)},))

    def test_wall_required_keys(self):
        with pytest.raises(ValueError, match="wall"):
            scenario(wall={"axis": 0, "offset": 0.5})

    def test_schedule_only_with_fic(self):
        with pytest.raises(ValueError, match="xb_schedule"):
            scenario(
                controller="baseline",
                xb_schedule={"x_b_end": 0.01, "rate": 0.01, "interval": 1.0},
            )

    def test_schedule_positive_fields(self):
        with pytest.raises(ValueError, match="xb_schedule"):
            scenario(xb_schedule={"x_b_end": 0.0, "rate": 0.01, "interval": 1.0})

    def test_bad_gain_fails_at_parse_time(self):
        with pytest.raises(ValueError):
            scenario(w_max=-5.0)

    def test_arm_posture_target_length(self):
        with pytest.raises(ValueError, match="posture_target"):
            scenario(plant="arm", x0=None, posture_target=(0.0, 0.0))


class TestReferences:
    def test_static_default_holds_start_pose(self):
        sc = scenario(x0=(0.3,), reference={"type": "static"})
        pose, rate = _make_reference(sc, np.array([0.3]))(1.7)
        assert pose[0] == 0.3 and rate[0] == 0.0

    def test_sinusoid_centered_on_start(self):
        sc = scenario(
            x0=(0.2,),
            reference={"type": "sinusoid", "axis": 0, "amplitude": 0.1, "period": 2.0},
        )
        ref = _make_reference(sc, np.array([0.2]))
        pose0, rate0 = ref(0.0)
        assert pose0[0] == pytest.approx(0.2)
        assert rate0[0] == pytest.approx(0.1 * math.pi, rel=1e-12)
        pose_q, _ = ref(0.5)
        assert pose_q[0] == pytest.approx(0.3, rel=1e-12)

    def test_circle_starts_with_zero_error(self):
        sc = Scenario(
            name="c",
            plant="point_mass",
            controller="fic",
            duration=1.0,
            dt=1e-3,
            inertia=(1.0, 1.0),
            x0=(0.5, 0.2),
            reference={"type": "circle", "radius": 0.15, "period": 6.0},
            w_max=30.0,
            x_b=0.1,
        )
        pose, rate = _make_reference(sc, np.array([0.5, 0.2]))(0.0)
        assert np.allclose(pose, [0.5, 0.2])
        assert rate[0] == pytest.approx(0.0, abs=1e-15)
        assert rate[1] == pytest.approx(0.15 * 2 * math.pi / 6.0, rel=1e-12)


class TestEquilibriumHold:
    def test_point_mass_stays_put(self):
        sc = scenario(duration=2.0, damping=2.5)
        rec = run_scenario(sc)
        assert rec.error is None
        assert np.max(np.abs(rec.x_err)) < 1e-9

    def test_arm_gravity_compensated_hold(self):
        sc = Scenario(
            name="hold",
            plant="arm",
            controller="fic",
            duration=5.0,
            dt=1e-3,
            feedback_hz=500.0,
            q0=(0.3, 0.9, 0.9),
            reference={"type": "static"},
            k_const=100.0,
            w_max=30.0,
            x_b=0.1,
            damping=5.0,
        )
        rec = run_scenario(sc)
        assert rec.error is None
        assert np.max(np.abs(rec.x_err)) < 1e-6

    def test_baseline_arm_hold(self):
        sc = Scenario(
            name="hold_base",
            plant="arm",
            controller="baseline",
            duration=2.0,
            dt=1e-3,
            feedback_hz=500.0,
            q0=(0.3, 0.9, 0.9),
            reference={"type": "static"},
            k_d=100.0,
            d_d=2.5,
        )
        rec = run_scenario(sc)
        assert np.max(np.abs(rec.x_err)) < 1e-6


class TestEpisodes:
    def test_pulse_episode_stays_passive_and_bounded(self):
        sc = scenario(
            duration=4.0,
            dt=1e-3,
            feedback_hz=1000.0,
            damping=2.5,
            pulses=random_pulse_profile(
                1, 0, n_pulses=2, t_first=0.5, gap=(1.2, 1.8),
                magnitude=(2.0, 12.0), length=(0.08, 0.25),
            ),
        )
        rec = run_scenario(sc)
        assert rec.error is None
        assert rec.ledger.margin <= 1e-9
        assert np.max(np.abs(rec.x)) < 2.0

    @pytest.mark.xfail(strict=True, reason=LEDGER_DEFECT)
    def test_late_release_above_absorbed_energy(self):
        # A criterion-02 point-mass episode on which the episode-wide ledger
        # reads e_in 0.08579 J, e_rel 0.09653 J: margin +0.0107 J.
        sc = scenario(
            duration=6.0,
            damping=2.5,
            pulses=(
                {"start": 0.5, "duration": 0.0888821538248061, "wrench": (-3.7390504262386033,)},
                {
                    "start": 2.112150568667002,
                    "duration": 0.13504231440461162,
                    "wrench": (4.706597816799167,),
                },
            ),
        )
        rec = run_scenario(sc)
        assert rec.error is None
        assert rec.ledger.margin <= 1e-9

    @pytest.mark.xfail(strict=True, reason=LEDGER_DEFECT)
    def test_arm_late_release_above_absorbed_energy(self):
        # An arm pulse episode on which the episode-wide ledger reads
        # e_in 0.0978 J and margin +0.1531 J.
        sc = Scenario(
            plant="arm",
            duration=4.5,
            dt=1e-3,
            feedback_hz=500.0,
            damping=5.0,
            pulses=(
                {"start": 0.5, "duration": 0.1, "wrench": (8.0, -5.0)},
                {"start": 2.5, "duration": 0.15, "wrench": (-6.0, 4.0)},
            ),
        )
        rec = run_scenario(sc)
        assert rec.error is None
        assert rec.ledger.margin <= 1e-9

    def test_record_follows_library_energy_and_hold_laws(self):
        # 300 Hz does not divide 1/dt, so ticks fall on floor multiples.
        sc = scenario(
            duration=6.0,
            feedback_hz=300.0,
            damping=2.5,
            pulses=(
                {"start": 0.5, "duration": 0.1, "wrench": (6.0,)},
                {"start": 2.5, "duration": 0.15, "wrench": (-9.0,)},
            ),
        )
        rec = run_scenario(sc)
        assert rec.error is None
        params = StiffnessParams(k_const=0.0, w_max=30.0, x_b=0.1)
        # E_in: energy_in over each maximal Divergence run, taken with the
        # sample that follows it (the step out of the run still absorbs).
        div = rec.phase_s[:, 0] == Phase.DIVERGENCE.value
        n = div.size
        e_in, k = 0.0, 0
        while k < n:
            if not div[k]:
                k += 1
                continue
            end = k
            while end + 1 < n and div[end + 1]:
                end += 1
            e_in += energy_in(params, rec.x_err[k : min(end + 2, n), 0])
            k = end + 1
        assert rec.ledger.e_in == pytest.approx(e_in, rel=1e-12)
        converging = rec.phase_s[:, 0] == Phase.CONVERGENCE.value
        assert converging.any()
        assert rec.ledger.e_rel == energy_released(sc.inertia[0], rec.xdot[converging])
        assert np.array_equal(zoh_sample(rec.wrench, 300.0, 1e-3), rec.wrench)

    def test_wall_push_saturates_at_force_bound(self):
        # deep command past the wall: both phase branches clamp at w_max
        sc = scenario(
            duration=3.0,
            dt=1e-4,
            feedback_hz=1000.0,
            x0=(0.4,),
            reference={"type": "static", "pose": (0.75,)},
            damping=25.0,
            wall={"axis": 0, "offset": 0.5, "stiffness": 1e4, "damping": 200.0},
        )
        rec = run_scenario(sc)
        steady = -rec.contact_f[rec.t >= 2.0, 0]
        assert abs(np.mean(steady) - 30.0) <= 0.05 * 30.0
        assert np.max(steady) <= 30.0 + 1e-6

    def test_record_is_deterministic(self):
        sc = scenario(
            duration=1.5,
            damping=1.0,
            pulses=random_pulse_profile(1, 5, n_pulses=1, magnitude=(3.0, 6.0)),
        )
        a, b = run_scenario(sc), run_scenario(sc)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.wrench, b.wrench)
        assert np.array_equal(a.v, b.v)

    def test_episode_memory_stays_near_record_size(self):
        # the loop writes compact columns that the record arrays view; per-sample
        # Python lists of floats would take several times the record's bytes
        sc = scenario(
            duration=6.0,
            damping=2.5,
            pulses=(
                {"start": 0.5, "duration": 0.2, "wrench": (8.0,)},
                {"start": 2.5, "duration": 0.15, "wrench": (-6.0,)},
            ),
        )
        run_scenario(replace(sc, duration=0.6))  # imports and caches outside the peak
        tracemalloc.start()
        try:
            rec = run_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = ("t", "x_d", "x", "x_err", "xdot", "phase_s", "wrench", "contact_f", "v")
        fields += ("e_in_cum", "e_rel_cum", "forced")
        record_bytes = sum(getattr(rec, f).nbytes for f in fields)
        assert rec.n_samples == 6001
        assert peak <= 2.5 * record_bytes

    def test_blowup_is_reported_not_raised(self):
        sc = Scenario(
            name="blowup",
            plant="point_mass",
            controller="baseline",
            duration=5.0,
            dt=1e-2,
            feedback_hz=100.0,
            integrator="semi_implicit",
            x0=(0.5,),
            reference={"type": "static", "pose": (0.0,)},
            k_d=1e6,
            d_d=0.0,
        )
        with np.errstate(over="ignore"):
            rec = run_scenario(sc)
        assert rec.error is not None
        assert rec.error["type"] == "integration_blowup"
        assert rec.t.shape[0] == rec.x.shape[0]
        assert np.all(np.isfinite(rec.x))

    @pytest.mark.parametrize("integrator, t_blowup", [("rk4", 0.03), ("semi_implicit", 0.09)])
    def test_arm_blowup_is_reported_not_raised(self, integrator, t_blowup):
        sc = Scenario(
            name="arm_blowup",
            plant="arm",
            controller="baseline",
            duration=1.0,
            dt=1e-2,
            feedback_hz=100.0,
            integrator=integrator,
            reference={"type": "static", "pose": (1.0, 1.5)},
            k_d=1e6,
        )
        with np.errstate(all="ignore"):
            rec = run_scenario(sc)
        assert rec.error is not None
        assert rec.error["type"] == "integration_blowup"
        assert rec.error["time"] == pytest.approx(t_blowup)
        assert rec.n_samples == round(t_blowup / sc.dt)
        assert np.all(np.isfinite(rec.x))

    @pytest.mark.parametrize("controller", ["fic", "baseline"])
    def test_singular_start_is_reported_not_raised(self, controller):
        # fully stretched arm: J M^-1 J^T is exactly singular at the first sample
        sc = Scenario(
            plant="arm", controller=controller, q0=(0.0, 0.0, 0.0), k_const=100.0, duration=0.2
        )
        rec = run_scenario(sc)
        assert rec.error["type"] == "singular_configuration"
        assert rec.error["time"] == 0.0
        assert rec.n_samples == 0

    @pytest.mark.parametrize("integrator, per_step", [("rk4", 4), ("semi_implicit", 1)])
    def test_one_arm_kernel_per_sample_and_stage(self, monkeypatch, integrator, per_step):
        # the sample's kernel serves the task state, the tick and the first stage
        calls = count_calls(monkeypatch, "_arm_kernel")
        rec = run_scenario(kernel_episode(integrator))
        assert rec.error is None and rec.n_samples == 101
        assert len(calls) == per_step * 100 + 1

    @pytest.mark.parametrize("integrator", ["rk4", "semi_implicit"])
    def test_one_mass_factor_per_kernel(self, monkeypatch, integrator):
        # the sample's Cholesky factor of M serves its task inertia and the
        # first stage, so M is factored once per kernel
        kernels = count_calls(monkeypatch, "_arm_kernel")
        factors = count_calls(monkeypatch, "_cholesky")
        rec = run_scenario(kernel_episode(integrator))
        assert rec.error is None
        assert len(factors) == len(kernels)

    def test_schedule_shrinks_boundary_stepwise(self):
        sc = scenario(
            duration=1.0,
            x_b=0.2,
            xb_schedule={"x_b_end": 0.05, "rate": 0.04, "interval": 1.0},
        )
        assert _schedule_x_b(sc, 0.5, (0.2,)) == (0.2,)
        assert _schedule_x_b(sc, 1.0, (0.2,)) == (0.16,)
        assert _schedule_x_b(sc, 3.99, (0.2,)) == pytest.approx((0.08,))
        assert _schedule_x_b(sc, 50.0, (0.2,)) == (0.05,)


def count_calls(monkeypatch, name):
    """Count the calls of ``dynamics.<name>``; returns the growing list."""
    calls = []
    fn = getattr(dynamics, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(dynamics, name, counted)
    return calls


def kernel_episode(integrator):
    return Scenario(
        plant="arm",
        duration=0.1,
        dt=1e-3,
        feedback_hz=500.0,
        integrator=integrator,
        damping=5.0,
        pulses=({"start": 0.02, "duration": 0.03, "wrench": (5.0, -3.0)},),
    )


class TestRandomPulses:
    def test_deterministic_per_seed(self):
        assert random_pulse_profile(2, 42) == random_pulse_profile(2, 42)
        assert random_pulse_profile(2, 42) != random_pulse_profile(2, 43)

    def test_ranges_and_spacing(self):
        pulses = random_pulse_profile(
            1, 7, n_pulses=4, t_first=0.5, gap=(1.0, 2.0),
            magnitude=(2.0, 12.0), length=(0.08, 0.25),
        )
        assert len(pulses) == 4
        prev_end = 0.0
        for p in pulses:
            assert p["start"] >= prev_end + 1.0 - 1e-12 or prev_end == 0.0
            assert 0.08 <= p["duration"] <= 0.25
            mag = max(abs(w) for w in p["wrench"])
            assert 2.0 <= mag <= 12.0
            prev_end = p["start"] + p["duration"]

    def test_axis_pinning(self):
        pulses = random_pulse_profile(2, 3, n_pulses=3, axis=1)
        for p in pulses:
            assert p["wrench"][0] == 0.0 and p["wrench"][1] != 0.0


class TestRecoveryTiming:
    def test_exponential_decay_hits_log20(self):
        dt = 1e-3
        t = np.arange(0.0, 12.0, dt)
        profile = PerturbationProfile(1, (Pulse(0.5, 0.5, (1.0,)),))
        err = np.zeros_like(t)
        ramp = (t >= 0.5) & (t < 1.0)
        err[ramp] = (t[ramp] - 0.5) / 0.5
        decay = t >= 1.0
        err[decay] = np.exp(-(t[decay] - 1.0))
        recov, conv = _pulse_recoveries(t, err[:, None], profile, dt)
        assert recov[0] == pytest.approx(math.log(20.0), abs=2e-3)
        assert conv[0] == pytest.approx(math.log(20.0), abs=2e-3)

    def test_unrecovered_is_nan(self):
        dt = 1e-3
        t = np.arange(0.0, 2.0, dt)
        profile = PerturbationProfile(1, (Pulse(0.5, 0.5, (1.0,)),))
        err = np.ones_like(t)
        recov, conv = _pulse_recoveries(t, err[:, None], profile, dt)
        assert math.isnan(recov[0]) and math.isnan(conv[0])

    def test_zero_peak_recovers_immediately(self):
        dt = 1e-3
        t = np.arange(0.0, 2.0, dt)
        profile = PerturbationProfile(1, (Pulse(0.5, 0.5, (1.0,)),))
        recov, conv = _pulse_recoveries(t, np.zeros((t.size, 1)), profile, dt)
        assert recov[0] == 0.0 and conv[0] == 0.0


class TestMetrics:
    def test_quiet_episode_metrics(self):
        rec = run_scenario(scenario(duration=1.0, damping=1.0))
        m = compute_metrics(rec)
        assert m["rmse"][0] == 0.0
        assert m["max_abs_err"][0] == 0.0
        assert math.isnan(m["recovery_mean"])
        assert m["n_unrecovered"] == 0

    def test_rmse_matches_direct_computation(self):
        sc = scenario(
            duration=3.0,
            damping=1.0,
            reference={"type": "sinusoid", "axis": 0, "amplitude": 0.05, "period": 1.0},
        )
        rec = run_scenario(sc)
        m = compute_metrics(rec)
        assert m["rmse"][0] == pytest.approx(
            float(np.sqrt(np.mean(rec.x_err[:, 0] ** 2))), rel=1e-12
        )
        assert m["rmse"][0] > 1e-4


class TestOscillationDetector:
    @staticmethod
    def episode(w_max, x_b, duration=6.0):
        sc = scenario(
            duration=duration,
            dt=1e-3,
            feedback_hz=100.0,
            damping=0.5,
            w_max=w_max,
            x_b=x_b,
            pulses=({"start": 0.5, "duration": 0.15, "wrench": (10.0,)},),
        )
        return run_scenario(sc)

    def test_quiet_run_is_clean(self):
        assert not detect_oscillation(run_scenario(scenario(duration=2.5, damping=1.0)))

    def test_damped_recovery_is_clean(self):
        assert not detect_oscillation(self.episode(30.0, 0.1))

    def test_tiny_boundary_rings(self):
        assert detect_oscillation(self.episode(30.0, 0.001))


class TestCalibrateSweep:
    BASE = dict(
        duration=6.0,
        dt=1e-3,
        feedback_hz=100.0,
        damping=0.5,
        pulses=({"start": 0.5, "duration": 0.15, "wrench": (10.0,)},),
    )

    def test_stable_row_keeps_top_candidate(self):
        rows = calibrate_sweep(scenario(**self.BASE), 30.0, [0.1], w_step=4.0, w_min=2.0)
        assert len(rows) == 1
        assert rows[0]["x_b"] == 0.1
        assert rows[0]["x_b_range"] == (0.1, 0.1)
        assert rows[0]["w_max"] == 30.0

    def test_tiny_boundary_steps_down(self):
        # exact threshold needs long episodes; here only check the scan rejects
        # the top candidates and lands on a lower one from the ladder
        rows = calibrate_sweep(scenario(**self.BASE), 30.0, [0.001], w_step=4.0, w_min=2.0)
        assert rows[0]["w_max"] <= 26.0
        assert rows[0]["w_max"] in {30.0 - 4.0 * k for k in range(8)}

    def test_grid_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            calibrate_sweep(scenario(**self.BASE), 30.0, [0.01, 0.1])

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="0.001"):
            calibrate_sweep(scenario(**self.BASE), 30.0, [0.01, 0.0005])

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate_sweep(scenario(**self.BASE), 30.0, [])
