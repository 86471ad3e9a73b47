"""End-to-end acceptance suite.

Each test checks one headline property of the controller at its stated
tolerance and reports a single pass/fail line (echoed in the run summary).
The slower suites (randomized passivity and Lyapunov sweeps, the calibration
table) dominate the runtime; the whole file finishes in a few minutes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fractal_impedance import (
    PlanarArm,
    Scenario,
    StiffnessParams,
    arm_dynamics,
    calibrate_sweep,
    compute_metrics,
    detect_oscillation,
    fic_work,
    ic_work_discrete,
    run_scenario,
    spring_energy,
    spring_force,
    task_space_quantities,
)
from fractal_impedance.cli import DEFAULT_CALIBRATION_GRID, main
from monitor_reference import lyapunov_monitor
from pulse_reference import random_pulse_profile


def pulse_episode(seed, **kw):
    base = dict(
        name=f"pulse_{seed}",
        plant="point_mass",
        controller="fic",
        duration=6.0,
        dt=1e-3,
        feedback_hz=1000.0,
        x0=(0.0,),
        reference={"type": "static", "pose": (0.0,)},
        k_const=0.0,
        w_max=30.0,
        x_b=0.1,
        damping=2.5,
        pulses=random_pulse_profile(
            1, seed, n_pulses=2, t_first=0.5, gap=(1.2, 1.8),
            magnitude=(2.0, 12.0), length=(0.08, 0.25),
        ),
    )
    base.update(kw)
    return Scenario(**base)


def test_criterion_01_force_saturation(criterion):
    sc = Scenario(
        name="wall_push",
        plant="point_mass",
        controller="fic",
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
    t0 = time.perf_counter()
    rec = run_scenario(sc)
    elapsed = time.perf_counter() - t0
    steady = -rec.contact_f[rec.t >= 4.0, 0]
    mean_f = float(np.mean(steady))
    ok = (
        rec.error is None
        and 28.5 <= mean_f <= 30.0 + 1e-6
        and float(np.min(steady)) >= 28.5
        and elapsed < 10.0
    )
    assert criterion(
        1, "force saturation", ok,
        f"steady contact force {mean_f:.6f} N in [28.5, 30.0], {elapsed:.2f} s wall-clock",
    )


def test_criterion_02_passivity_margins(criterion):
    margins = []
    for seed in range(50):
        rec = run_scenario(pulse_episode(seed))
        assert rec.error is None
        margins.append(rec.ledger.margin)
    for seed in range(1000, 1050):
        sc = Scenario(
            name=f"arm_pulse_{seed}",
            plant="arm",
            controller="fic",
            duration=4.5,
            dt=1e-3,
            feedback_hz=500.0,
            q0=(0.3, 0.9, 0.9),
            reference={"type": "static"},
            k_const=100.0,
            w_max=30.0,
            x_b=0.1,
            damping=5.0,
            pulses=random_pulse_profile(
                2, seed, n_pulses=2, t_first=0.5, gap=(1.2, 1.8),
                magnitude=(2.0, 12.0), length=(0.08, 0.25),
            ),
        )
        rec = run_scenario(sc)
        assert rec.error is None
        margins.append(rec.ledger.margin)
    worst = max(margins)
    ok = worst <= 1e-4 and all(m < 0.0 for m in margins)
    assert criterion(
        2, "passivity", ok,
        f"100 episodes, worst margin {worst:.4g} J <= 1e-4, all negative",
    )


def test_criterion_03_energy_drift(criterion):
    params = StiffnessParams(k_const=0.0, w_max=30.0, x_b=0.1)
    analytic = 17.5 + 167.0 / 15.0
    errs, fic_vals = [], []
    for rate in (20, 100, 1000, 10000):
        t = np.arange(rate + 1) / rate
        x = t**3 + t**2 + t
        w_ic = ic_work_discrete(x, 3 * t**2 + 2 * t + 1, 6 * t + 2)
        errs.append(abs(w_ic - analytic))
        fic_vals.append(fic_work(params, x[0], x[-1]))
    rel_10k = errs[3] / analytic
    ok = (
        rel_10k < 0.005
        and errs[0] > errs[1] > errs[2]
        and all(v == fic_vals[0] for v in fic_vals)
    )
    assert criterion(
        3, "energy drift", ok,
        f"10 kHz drift {100 * rel_10k:.4f}% < 0.5%, drift 20 > 100 > 1000 Hz, "
        f"FIC work bit-identical at all rates",
    )


def test_criterion_04_convergence_energy_split(criterion):
    sc = Scenario(
        name="release",
        plant="point_mass",
        controller="fic",
        duration=1.5,
        dt=1e-4,
        feedback_hz=10000.0,
        x0=(0.08,),
        reference={"type": "static", "pose": (0.0,)},
        k_const=0.0,
        w_max=30.0,
        x_b=0.1,
        damping=0.0,
    )
    rec = run_scenario(sc)
    e_in = spring_energy(StiffnessParams(0.0, 30.0, 0.1), 0.08)
    err = rec.x_err[:, 0]  # starts at -0.08, relaxes through -0.04 to 0
    ke = 0.5 * rec.xdot[:, 0] ** 2
    i_mid = int(np.argmax(err >= -0.04))
    i_origin = int(np.argmax(err >= 0.0))
    mid_rel = abs(ke[i_mid] - 0.5 * e_in) / e_in
    res_rel = ke[i_origin] / e_in
    ok = i_mid > 0 and i_origin > i_mid and mid_rel <= 0.01 and res_rel < 0.01
    assert criterion(
        4, "convergence energy split", ok,
        f"KE at x_mid within {100 * mid_rel:.3f}% of E_in/2, "
        f"residual at origin {100 * res_rel:.3f}% of E_in",
    )


def test_criterion_05_lyapunov_descent(criterion):
    episodes = []
    for seed in range(25):
        episodes.append(
            pulse_episode(
                seed,
                name=f"lyap_u_{seed}",
                duration=1.5,
                dt=5e-5,
                feedback_hz=20000.0,
                damping=0.0,
                pulses=random_pulse_profile(
                    1, seed, n_pulses=2, t_first=0.3, gap=(0.3, 0.5),
                    magnitude=(1.0, 3.0), length=(0.05, 0.15),
                ),
            )
        )
    for seed in range(100, 125):
        episodes.append(
            pulse_episode(
                seed,
                name=f"lyap_d_{seed}",
                duration=1.5,
                dt=1e-4,
                feedback_hz=10000.0,
                damping=1.5,
                pulses=random_pulse_profile(
                    1, seed, n_pulses=2, t_first=0.3, gap=(0.3, 0.5),
                    magnitude=(2.0, 10.0), length=(0.08, 0.2),
                ),
            )
        )
    worst_rise = -math.inf
    worst_jump = 0.0
    n_switches = 0
    all_passed = True
    for sc in episodes:
        rec = run_scenario(sc)
        assert rec.error is None
        report = lyapunov_monitor(rec.t, rec.v, rec.forced)
        all_passed = all_passed and report.passed
        worst_rise = max(worst_rise, report.max_increase)
        for ev in rec.ledger.switch_events:
            n_switches += 1
            worst_jump = max(worst_jump, abs(ev.v_after - ev.v_before))
    ok = all_passed and worst_jump <= 1e-9
    assert criterion(
        5, "lyapunov descent", ok,
        f"50 episodes, worst step rise {worst_rise:.3g} J <= 1e-6, "
        f"worst switch jump {worst_jump:.3g} J <= 1e-9 over {n_switches} switches",
    )


def test_criterion_06_closed_form_energy(criterion):
    worst = 0.0
    for p in (StiffnessParams(0.0, 30.0, 0.05), StiffnessParams(150.0, 30.0, 0.05)):
        grid = np.linspace(0.0, 2.4 * p.x_b, 999)
        grid = np.append(grid, p.x_b)  # exact seam
        for x in grid:
            want, _ = quad(lambda s: spring_force(p, s), 0.0, x, points=[p.x_b], limit=200)
            got = spring_energy(p, x)
            denom = max(abs(want), 1e-12)
            worst = max(worst, abs(got - want) / denom)
    ok = worst <= 1e-9
    assert criterion(
        6, "closed-form energy", ok,
        f"2000-point grid incl. seam, worst relative error {worst:.3g} <= 1e-9",
    )


def test_criterion_07_null_space_consistency(criterion):
    arm = PlanarArm.default()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        q = np.array(
            [
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.3, 2.6),
                rng.uniform(0.3, 2.6),
            ]
        )
        tau = rng.uniform(-5.0, 5.0, size=3)
        dyn = arm_dynamics(arm, q, np.zeros(3))
        ts = task_space_quantities(arm, q, dyn)
        tau_null = ts.nullspace @ tau
        acc = dyn.jacobian @ np.linalg.solve(dyn.mass_matrix, tau_null)
        worst = max(worst, float(np.linalg.norm(acc)))
    ok = worst < 1e-9
    assert criterion(
        7, "null-space consistency", ok,
        f"100 random (q, tau) draws, worst task acceleration {worst:.3g} < 1e-9",
    )


def test_criterion_08_low_bandwidth_recovery(criterion):
    means = {}
    bounded = True
    osc_20 = False
    for rate in (1000.0, 100.0, 20.0):
        recs = []
        for seed in range(10):
            sc = pulse_episode(
                seed,
                name=f"lb_{rate:g}_{seed}",
                duration=10.0,
                dt=5e-4,
                feedback_hz=rate,
                k_const=100.0,
                x_b=0.075,
                damping=2.5,
                pulses=random_pulse_profile(
                    1, seed, n_pulses=1, t_first=0.5,
                    magnitude=(5.0, 9.0), length=(0.08, 0.15),
                ),
            )
            rec = run_scenario(sc)
            assert rec.error is None
            bounded = bounded and float(np.max(np.abs(rec.x_err))) < 1.0
            if rate == 20.0:
                osc_20 = osc_20 or detect_oscillation(rec)
            recs.append(compute_metrics(rec))
        times = [m["recovery_times"][0] for m in recs]
        bounded = bounded and not any(math.isnan(v) for v in times)
        means[rate] = float(np.mean(times))
    ok = bounded and not osc_20 and means[20.0] >= means[100.0] >= means[1000.0]
    assert criterion(
        8, "low-bandwidth recovery", ok,
        f"mean recovery {means[20.0]:.3f} s (20 Hz) >= {means[100.0]:.3f} s (100 Hz) "
        f">= {means[1000.0]:.3f} s (1 kHz), all bounded, no 20 Hz instability",
    )


def test_criterion_09_tracking_boundary_trend(criterion):
    rmse = {}
    for x_b in (0.10, 0.01):
        sc = Scenario(
            name=f"circle_{x_b:g}",
            plant="arm",
            controller="fic",
            duration=12.0,
            dt=1e-3,
            feedback_hz=1000.0,
            q0=(0.3, 0.9, 0.9),
            reference={"type": "circle", "radius": 0.15, "period": 6.0},
            k_const=0.0,
            w_max=30.0,
            x_b=x_b,
            damping=5.0,
        )
        rec = run_scenario(sc)
        assert rec.error is None
        rmse[x_b] = compute_metrics(rec)["rmse"]
    ok = all(rmse[0.01][i] < rmse[0.10][i] for i in range(2))
    shown = {x_b: "(" + ", ".join(f"{v:.6g}" for v in r) + ")" for x_b, r in rmse.items()}
    assert criterion(
        9, "tracking boundary trend", ok,
        f"circle RMSE per axis {shown[0.01]} m at x_B=0.01 < {shown[0.10]} m at x_B=0.10",
    )


def test_criterion_10_calibration_trend(criterion):
    base = Scenario(
        name="cal_base",
        plant="point_mass",
        controller="fic",
        duration=10.0,
        dt=1e-3,
        feedback_hz=100.0,
        x0=(0.0,),
        reference={"type": "static", "pose": (0.0,)},
        k_const=0.0,
        w_max=30.0,
        x_b=0.1,
        damping=0.5,
        pulses=({"start": 0.5, "duration": 0.15, "wrench": (10.0,)},),
    )
    rows = calibrate_sweep(base, 30.0, DEFAULT_CALIBRATION_GRID)
    w = [row["w_max"] for row in rows]  # descending x_B order
    ok = (
        not any(math.isnan(v) for v in w)
        and w[0] == 30.0
        and all(w[i] >= w[i + 1] for i in range(len(w) - 1))
        and min(w) < 30.0
    )
    assert criterion(
        10, "calibration trend", ok,
        f"w_max non-decreasing in x_B: {w} N over grid {list(DEFAULT_CALIBRATION_GRID)} m",
    )


def test_criterion_11_determinism(criterion, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {
        "name": "det",
        "plant": "point_mass",
        "controller": "fic",
        "duration": 2.0,
        "dt": 1e-3,
        "feedback_hz": 1000.0,
        "x0": [0.0],
        "reference": {"type": "static", "pose": [0.0]},
        "w_max": 30.0,
        "x_b": 0.1,
        "damping": 2.5,
        "pulses": [
            {"start": 0.3, "duration": 0.1, "wrench": [6.0]},
            {"start": 1.0, "duration": 0.2, "wrench": [-9.0]},
        ],
    }
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", "a.csv"]) == 0
    assert main(["run", "--config", str(cfg), "--out", "b.csv"]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
    ok = a == b and meta_a[0]["config_hash"] == meta_b[0]["config_hash"]
    assert criterion(
        11, "determinism", ok,
        f"re-run byte-identical ({len(a)} byte CSV, matching config hash)",
    )
