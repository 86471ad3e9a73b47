"""The four benchmark workloads: case pools, timed calls and output checks.

Every workload draws its inputs from a fixed pool of cases. Case ``i`` of a
pool is generated by the benchmark's own ``numpy.random.Generator`` seeded
with ``(pool tag, i)``, and ``references.json`` stores the outputs this
repository produced for every case. The run's ``--seed`` seeds a second
generator that draws which cases run and in what order, so the same seed gives
the same inputs and every op an arbitrary seed can draw has a reference.

A *unit* is one timed call into the library; it completes one or more *ops*:
one episode for ``pm_pulse``/``arm_pulse``, one ``fic run`` invocation for
``circle_csv``, and one ``x_B`` grid row for ``calibrate``, whose unit is a
``calibrate_sweep`` call over a two-row grid.

The module imports only public names of ``fractal_impedance``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fractal_impedance as fi
from fractal_impedance import cli

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Relative tolerance of every float comparison against the references; the
# absolute floor is the same share of the quantity's scale (or ATOL_J).
RTOL = 1e-6
ATOL_J = 1e-9  # energies, J
ATOL_T = 2.5e-3  # recovery times are quantized to dt = 1e-3 s


def _close(got, want, rtol=RTOL, atol=ATOL_J) -> bool:
    if want is None or (isinstance(want, float) and math.isnan(want)):
        return got is None or (isinstance(got, float) and math.isnan(got))
    if got is None or math.isnan(got):
        return False
    return abs(got - want) <= max(atol, rtol * abs(want))


def _all_close(got, want, **kw) -> bool:
    return len(got) == len(want) and all(_close(g, w, **kw) for g, w in zip(got, want))


def _float_or_none(v):
    v = float(v)
    return None if math.isnan(v) else v


@dataclass
class Outcome:
    """Checked result of one unit.

    ``steps`` counts simulated plant steps, ``useful`` the ops that produced
    a result (episodes, or calibration rows that found a stable ``w_max``).
    """

    ops: int
    steps: int
    useful: int
    bytes_out: int
    problems: list


def _pulses(rng: np.random.Generator, n_dof: int) -> tuple:
    """Two pulses as in acceptance criterion 02: first at 0.5 s, then a gap."""
    pulses = []
    t = 0.5
    for _ in range(2):
        dur = float(rng.uniform(0.08, 0.25))
        wrench = [0.0] * n_dof
        axis = int(rng.integers(n_dof))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        wrench[axis] = sign * float(rng.uniform(2.0, 12.0))
        pulses.append({"start": t, "duration": dur, "wrench": tuple(wrench)})
        t += dur + float(rng.uniform(1.2, 1.8))
    return tuple(pulses)


class EpisodeWorkload:
    """One ``run_scenario`` episode per unit, drawn from a pool of cases.

    ``excluded`` lists pool cases whose passivity margin E_rel - E_in is
    positive at the commit that recorded the references. Such an op counts as
    failed, and the benchmark runs only workloads on which no op fails, so
    these cases are never drawn; ``references.json`` keeps their outputs.
    """

    name = ""
    tag = 0
    pool_size = 0
    excluded = ()
    nominal_unit_s = 1.0

    def __init__(self, workdir: Path | None = None):
        self.pool = [self.case(i) for i in range(self.pool_size)]
        self.cases = [i for i in range(self.pool_size) if i not in self.excluded]
        self._order = []

    def case(self, i: int) -> fi.Scenario:
        raise NotImplementedError

    def scenarios(self) -> list:
        return [self.pool[i] for i in self.cases]

    def draw(self, rng: np.random.Generator):
        """Next case index; the pool is visited in seed-shuffled rounds."""
        if not self._order:
            self._order = [self.cases[int(i)] for i in rng.permutation(len(self.cases))]
        return self._order.pop()

    def run(self, unit):
        return fi.run_scenario(self.pool[unit])

    def summary(self, unit, rec) -> dict:
        """The outputs that are compared with the stored reference."""
        led = rec.ledger
        return {
            "error": rec.error,
            "samples": int(rec.n_samples),
            "e_in": float(led.e_in),
            "e_rel": float(led.e_rel),
            "margin": float(led.margin),
            "final_x": [float(v) for v in rec.x[-1]],
            "switches": len(led.switch_events),
            "recovery": [_float_or_none(v) for v in rec.recovery_times],
        }

    def check(self, unit, got: dict, refs: dict) -> Outcome:
        """Compare one unit's summary with the workload's stored references."""
        ref = refs[str(unit)]
        problems = []
        if got["error"] is not None:
            problems.append(f"error {got['error']['type']}")
        if not got["margin"] < 0.0:
            problems.append(f"margin {got['margin']:.6g} >= 0")
        if got["samples"] != ref["samples"] or got["switches"] != ref["switches"]:
            problems.append("sample or switch count differs")
        for key in ("e_in", "e_rel", "margin"):
            if not _close(got[key], ref[key]):
                problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
        if not _all_close(got["final_x"], ref["final_x"], atol=1e-9):
            problems.append("final pose differs")
        if not _all_close(got["recovery"], ref["recovery"], atol=ATOL_T):
            problems.append("recovery times differ")
        return Outcome(1, got["samples"] - 1, 1, 0, problems)


class PointMassPulse(EpisodeWorkload):
    """Criterion-02 point-mass episodes: 6 s, dt 1e-3, 1 kHz, two pulses."""

    name = "pm_pulse"
    tag = 2
    pool_size = 192
    excluded = (164, 191)  # margins +0.0107 J and +0.0206 J
    nominal_unit_s = 0.4

    def case(self, i: int) -> fi.Scenario:
        rng = np.random.default_rng([self.tag, i])
        return fi.Scenario(
            name=f"pm_pulse_{i}",
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
            pulses=_pulses(rng, 1),
        )


class ArmPulse(EpisodeWorkload):
    """Criterion-02 arm episodes: 4.5 s, dt 1e-3, 500 Hz, two pulses."""

    name = "arm_pulse"
    tag = 3
    pool_size = 40
    nominal_unit_s = 2.4

    def case(self, i: int) -> fi.Scenario:
        rng = np.random.default_rng([self.tag, i])
        return fi.Scenario(
            name=f"arm_pulse_{i}",
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
            pulses=_pulses(rng, 2),
        )


class CircleCsv(EpisodeWorkload):
    """Arm circle tracking through ``fic run`` with CSV output.

    A controller tick runs on every step (1 kHz feedback at dt 1e-3). One
    4 s circle writes about 0.7 MB of CSV plus its ``.meta.json`` sidecar;
    the episode is kept short so a run times several of them.
    """

    name = "circle_csv"
    tag = 9
    pool_size = 12
    excluded = (5,)  # margin +0.0098 J
    nominal_unit_s = 2.5

    def __init__(self, workdir: Path | None = None):
        super().__init__(workdir)
        self.workdir = workdir
        if workdir is not None:
            for i, sc in enumerate(self.pool):
                (workdir / f"circle_{i}.json").write_text(
                    json.dumps(cli.scenario_to_dict(sc))
                )

    def case(self, i: int) -> fi.Scenario:
        rng = np.random.default_rng([self.tag, i])
        return fi.Scenario(
            name=f"circle_{i}",
            plant="arm",
            controller="fic",
            duration=4.0,
            dt=1e-3,
            feedback_hz=1000.0,
            q0=(0.3, 0.9, 0.9),
            reference={
                "type": "circle",
                "radius": float(rng.uniform(0.08, 0.18)),
                "period": float(rng.uniform(3.0, 5.0)),
            },
            k_const=0.0,
            w_max=30.0,
            x_b=float(10.0 ** rng.uniform(-2.0, -1.0)),
            damping=5.0,
        )

    def run(self, unit):
        out = self.workdir / "circle_out.csv"
        argv = ["run", "--config", str(self.workdir / f"circle_{unit}.json"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def summary(self, unit, result) -> dict:
        code, out = result
        meta_path = out.with_name(out.name + ".meta.json")
        n_bytes = out.stat().st_size + meta_path.stat().st_size
        with out.open() as fh:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        meta = json.loads(meta_path.read_text())[0]
        out.unlink()
        meta_path.unlink()
        led = meta["ledger"]
        return {
            "exit": code,
            "error": meta["error"],
            "bytes": n_bytes,
            "header": header,
            "rows": int(data.shape[0]),
            "e_in": led["e_in"],
            "e_rel": led["e_rel"],
            "margin": led["margin"],
            "switches": led["n_switches"],
            # per numeric column: scale (max |v|), mean, first and last value
            "columns": [
                [float(np.max(np.abs(c))), float(np.mean(c)), float(c[0]), float(c[-1])]
                for c in data.T
            ],
        }

    def check(self, unit, got: dict, refs: dict) -> Outcome:
        ref = refs[str(unit)]
        problems = []
        if got["exit"] != 0 or got["error"] is not None:
            problems.append(f"exit {got['exit']}, error {got['error']}")
        if not got["margin"] < 0.0:
            problems.append(f"margin {got['margin']:.6g} >= 0")
        if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
            problems.append("CSV header or row count differs")
        if got["switches"] != ref["switches"]:
            problems.append("switch count differs")
        for key in ("e_in", "e_rel", "margin"):
            if not _close(got[key], ref[key]):
                problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
        if len(got["columns"]) != len(ref["columns"]):
            problems.append("CSV column count differs")
        else:
            # CSV values carry 9 significant digits; tolerance relative to each
            # column's scale so near-zero means are not held to a ratio.
            for j, (g, w) in enumerate(zip(got["columns"], ref["columns"])):
                atol = RTOL * max(w[0], 1e-12)
                if not _all_close(g, w, atol=atol):
                    problems.append(f"CSV column {j} differs")
        return Outcome(1, got["rows"] - 1, 1, got["bytes"], problems)


class Calibrate:
    """``calibrate_sweep`` on the criterion-10 base, two rows per call.

    Rows are independent: each scans ``w_max`` down from 30 N in 2 N steps
    and stops at the first candidate without sustained oscillation, so a row
    costs (30 - w_max) / 2 + 1 episodes. Each call draws one ``x_B`` from
    each stratum below; within a stratum every value needs the same number of
    episodes, so every call does the same work (5 episodes for 2 rows, 3 of
    them oscillating candidates) while the grid varies with the seed.
    """

    name = "calibrate"
    nominal_unit_s = 2.5
    W_MAX_INIT = 30.0
    STRATA = (
        # 1 episode: the first candidate (30 N) is stable
        (0.2, 0.175, 0.15, 0.125, 0.1, 0.075, 0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01),
        # 4 episodes: stable from 24 N
        (0.006, 0.0057, 0.0052, 0.0044),
    )
    BASE = dict(
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

    def __init__(self, workdir: Path | None = None):
        self.base = fi.Scenario(**self.BASE)

    def scenarios(self) -> list:
        return [self.base] + [
            fi.Scenario(**{**self.BASE, "x_b": xb}) for stratum in self.STRATA for xb in stratum
        ]

    def draw(self, rng: np.random.Generator):
        return tuple(sorted((s[int(rng.integers(len(s)))] for s in self.STRATA), reverse=True))

    def run(self, unit):
        return fi.calibrate_sweep(self.base, self.W_MAX_INIT, unit)

    def episodes(self, w_max) -> int:
        """Episodes a sequential sweep runs for a row that chose ``w_max``."""
        n_candidates = int((self.W_MAX_INIT - 2.0) // 2.0) + 1
        if w_max is None:
            return n_candidates
        return int(round((self.W_MAX_INIT - w_max) / 2.0)) + 1

    def summary(self, unit, rows) -> dict:
        return {f"{row['x_b']:g}": _float_or_none(row["w_max"]) for row in rows}

    def check(self, unit, got: dict, refs: dict) -> Outcome:
        problems = []
        if list(got) != [f"{xb:g}" for xb in unit]:
            problems.append("rows do not match the grid")
        for key, w_max in got.items():
            want = refs.get(key, "missing")
            if want == "missing" or not _close(w_max, want):
                problems.append(f"x_b {key}: w_max {w_max} != {want}")
        episodes = sum(self.episodes(w) for w in got.values())
        steps_per_episode = int(round(self.base.duration / self.base.dt))
        resolved = sum(1 for w in got.values() if w is not None)
        return Outcome(len(unit), episodes * steps_per_episode, resolved, 0, problems)


WORKLOADS = {w.name: w for w in (PointMassPulse, ArmPulse, Calibrate, CircleCsv)}


def build_scenarios(name: str) -> int:
    """Build and validate every Scenario a run of ``name`` can draw."""
    return len(WORKLOADS[name]().scenarios())


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
