"""Print one SHA-256 digest per benchmark pool case and calibration row.

Usage, from the repository root:

    python3 tools/record_digest.py [--src DIR]

The library and the benchmark's case pools are imported from ``DIR/src`` and
``DIR/bench`` (default: the checkout this file sits in), so the same tool can
digest another checkout, such as a pull request's base commit, and the two
outputs can be compared with ``diff``. Each output line is
``<workload> <case> <sha256>``:

- ``pm_pulse``, ``arm_pulse``: every pool case's ``EpisodeRecord``, that is
  every record array, the ledger with its switch events, the recovery and
  convergence times, the error and the scenario;
- ``circle_csv``: the same for every pool case, plus the exit status and the
  bytes of the CSV file and ``.meta.json`` sidecar that ``fic run`` writes;
- ``calibrate``: every row of one ``calibrate_sweep`` over all ``x_B`` values
  of the stored references (largest first), as the CI reference sweep runs it;
- ``path``: the ``EpisodeRecord`` of each of a fixed set of scenarios that no
  pool case reaches (an ``xb_schedule`` on both plants, wall contact on both
  plants and under both controllers, the baseline controller, a 300 Hz tick
  rate, the semi-implicit integrator, held runs of a wall-free point mass
  with pulse edges and a moving reference between ticks at 20, 30 and 50 Hz,
  and the edges of the loop's clock: a schedule swap at the first tick, a
  pulse active from t = 0 over held runs, a held run and a schedule episode
  that blow up; and rests that the loop fast-forwards: acceptance criterion
  01's wall push, an arm whose pulse edge falls between ticks, the baseline
  controller, schedule swaps inside a rest, and a -0.0 start velocity), built
  from public ``Scenario`` fields only, so any checkout runs them;
- ``cli``: the exit status and the bytes of every file that each ``fic``
  command writes (``run --format json``, ``sweep``, ``calibrate``,
  ``energy-drift``, ``phase-portrait``) on small fixed inputs; the sweep's
  ``*_summary.json`` is left out.

Floats are hashed by their exact bits, so any change in the last bit of a
record changes its digest.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

def _feed(h, obj) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into the hash."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, enum.Enum):
        h.update(f"e{type(obj).__name__}.{obj.name};".encode())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(f"b{bool(obj)};".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, bytes):
        h.update(f"y{len(obj)}:".encode())
        h.update(obj)
    elif obj is None or isinstance(obj, str):
        h.update(f"s{obj!r};".encode())
    elif dataclasses.is_dataclass(obj):
        h.update(f"d{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}{{".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def digest(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        _feed(h, obj)
    return h.hexdigest()


def path_scenarios(fi) -> dict:
    """Scenarios of the loop paths that the benchmark's pools do not reach."""
    pulses = (
        {"start": 0.3, "duration": 0.1, "wrench": (8.0, -3.0)},
        {"start": 1.5, "duration": 0.2, "wrench": (-9.0, 5.0)},
    )
    pm = dict(duration=3.0, dt=1e-3, inertia=(1.0, 2.0), x0=(0.0, 0.0), damping=1.0, pulses=pulses)
    arm = dict(
        plant="arm",
        duration=3.0,
        dt=1e-3,
        feedback_hz=500.0,
        damping=5.0,
        pulses=({"start": 0.3, "duration": 0.1, "wrench": (8.0, -5.0)},),
    )
    schedule = {"x_b_end": 0.02, "rate": 0.05, "interval": 0.25}
    pm_wall = dict(
        duration=1.5,
        dt=1e-4,
        x0=(0.4,),
        reference={"type": "static", "pose": (0.75,)},
        wall={"axis": 0, "offset": 0.5, "stiffness": 1e4, "damping": 200.0},
    )
    # pulse edges and a moving reference inside the held runs between ticks
    held = dict(
        pm,
        pulses=(
            {"start": 0.3125, "duration": 0.1037, "wrench": (8.0, -3.0)},
            {"start": 1.5063, "duration": 0.2011, "wrench": (-9.0, 5.0)},
        ),
        reference={"type": "sinusoid", "axis": 1, "amplitude": 0.05, "period": 1.3},
    )
    rest = dict(
        duration=2.0,
        dt=1e-3,
        x0=(0.0,),
        damping=1.0,
        pulses=({"start": 1.0, "duration": 0.1, "wrench": (8.0,)},),
    )
    return {
        "fic_schedule_point_mass": fi.Scenario(**pm, xb_schedule=schedule),
        "fic_schedule_arm": fi.Scenario(**arm, xb_schedule=schedule),
        "fic_wall": fi.Scenario(**pm_wall, damping=25.0),
        "baseline_point_mass": fi.Scenario(**pm, controller="baseline"),
        "baseline_arm": fi.Scenario(**arm, controller="baseline"),
        "fic_300hz": fi.Scenario(**pm, feedback_hz=300.0),
        "fic_semi_implicit": fi.Scenario(**pm, integrator="semi_implicit"),
        # the arm's start pose puts its hand at x = 0.813; the target lies
        # past the wall at x = 0.88
        "fic_wall_arm": fi.Scenario(
            **{**arm, "duration": 2.0},
            reference={"type": "static", "pose": (0.95, 2.09)},
            wall={"axis": 0, "offset": 0.88, "stiffness": 2e3, "damping": 50.0},
        ),
        "baseline_wall_point_mass": fi.Scenario(**pm_wall, controller="baseline"),
        "fic_held_30hz": fi.Scenario(**held, feedback_hz=30.0),
        "baseline_held_20hz": fi.Scenario(**held, controller="baseline", feedback_hz=20.0),
        "fic_held_semi_implicit_50hz": fi.Scenario(
            **held, feedback_hz=50.0, integrator="semi_implicit"
        ),
        # x_b_end above x_b: the schedule swaps x_B at the first tick
        "fic_schedule_swap_at_start": fi.Scenario(
            **pm,
            feedback_hz=100.0,
            x_b=0.05,
            xb_schedule={"x_b_end": 0.08, "rate": 0.05, "interval": 0.25},
        ),
        "fic_held_pulse_from_start_30hz": fi.Scenario(
            **{**held, "pulses": ({**held["pulses"][0], "start": 0.0}, held["pulses"][1])},
            feedback_hz=30.0,
        ),
        # x overflows inside the held run after the tick at sample 50: the
        # record ends at the run's last finite state
        "baseline_held_blowup_20hz": fi.Scenario(
            **{**held, "duration": 2.0, "x0": (1.797e308, 0.0)},
            xdot0=(1e306, 0.0),
            controller="baseline",
            feedback_hz=20.0,
        ),
        # the damping law is unstable at this dt: the record ends at a blowup
        # after the schedule's last swap
        "fic_schedule_blowup": fi.Scenario(
            duration=8.0,
            dt=0.01,
            feedback_hz=100.0,
            x0=(0.0,),
            damping=350.0,
            pulses=({"start": 0.1, "duration": 0.05, "wrench": (5.0,)},),
            xb_schedule={"x_b_end": 0.02, "rate": 0.02, "interval": 0.5},
        ),
        # bit-exact rests: acceptance criterion 01's push settles at the
        # force ceiling; the others rest until their first pulse
        "fic_wall_push": fi.Scenario(**{**pm_wall, "duration": 6.0}, damping=25.0),
        "fic_arm_rest_odd_edge": fi.Scenario(  # the edge at sample 301 is no 500 Hz tick
            **{**arm, "pulses": ({"start": 0.301, "duration": 0.1, "wrench": (8.0, -5.0)},)}
        ),
        "baseline_rest": fi.Scenario(**rest, controller="baseline", feedback_hz=100.0),
        "fic_schedule_rest": fi.Scenario(  # x_B moves at 0.25, 0.5 and 0.75 s
            **rest, xb_schedule={"x_b_end": 0.02, "rate": 0.05, "interval": 0.25}
        ),
        "fic_negative_zero_velocity": fi.Scenario(**rest, xdot0=(-0.0,)),
    }


# Each fic command's arguments; "{cfg}" is the pulse scenario below and "{out}"
# an empty directory of its own.
CLI_COMMANDS = {
    "run": ["run", "--config", "{cfg}", "--out", "{out}/run.json", "--format", "json"],
    "sweep": ["sweep", "--config", "{cfg}", "--rates", "1000,100,20", "--out", "{out}/sw"],
    "calibrate": ["calibrate", "--config", "{cfg}", "--grid", "0.1,0.0052", "--out", "{out}/cal"],
    "energy-drift": ["energy-drift", "--rates", "20,100,1000", "--out", "{out}/drift.csv"],
    "phase-portrait": [
        "phase-portrait", "--energies", "0.25,1.0", "--dt", "1e-3", "--duration", "1.0",
        "--out", "{out}/pp.csv",
    ],
}
CLI_SCENARIO = {
    "name": "cli_pulse",
    "duration": 3.0,
    "dt": 1e-3,
    "feedback_hz": 100.0,
    "x0": [0.0],
    "reference": {"type": "static", "pose": [0.0]},
    "damping": 0.5,
    "pulses": [{"start": 0.5, "duration": 0.15, "wrench": [10.0]}],
}


def cli_digests(tmp: Path):
    """(command, digest of its exit status and of every file it wrote)."""
    cli = importlib.import_module("fractal_impedance.cli")
    cfg = tmp / "cli_pulse.json"
    cfg.write_text(json.dumps(CLI_SCENARIO))
    for name, argv in CLI_COMMANDS.items():
        out = tmp / name
        out.mkdir()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([a.format(cfg=cfg, out=out) for a in argv])
        files = [
            (f.name, f.read_bytes())
            for f in sorted(out.iterdir())
            if not f.name.endswith("_summary.json")
        ]
        yield name, digest(code, files)


def _import_checkout(root: Path):
    """The library and the benchmark's workloads of the checkout at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import fractal_impedance
    import workloads

    for module, sub in ((fractal_impedance, "src"), (workloads, "bench")):
        if not Path(module.__file__).resolve().is_relative_to(root / sub):
            sys.exit(f"{module.__name__} was imported from {module.__file__}, not {root / sub}")
    return fractal_impedance, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=Path(__file__).resolve().parents[1], type=Path)
    args = parser.parse_args(argv)
    fi, wl = _import_checkout(args.src.resolve())
    for name in ("pm_pulse", "arm_pulse"):
        for i, sc in enumerate(wl.WORKLOADS[name]().pool):
            print(f"{name} {i} {digest(fi.run_scenario(sc))}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        circle = wl.CircleCsv(workdir=Path(tmp))
        for i, sc in enumerate(circle.pool):
            code, out = circle.run(i)
            meta = out.with_name(out.name + ".meta.json")
            files = out.read_bytes(), meta.read_bytes()
            out.unlink()
            meta.unlink()
            print(f"circle_csv {i} {digest(fi.run_scenario(sc), code, *files)}", flush=True)
    cal = wl.Calibrate()
    grid = sorted(map(float, wl.load_references()["calibrate"]), reverse=True)
    for row in fi.calibrate_sweep(cal.base, cal.W_MAX_INIT, grid):
        print(f"calibrate x_b={row['x_b']:g} {digest(row)}", flush=True)
    for name, sc in path_scenarios(fi).items():
        print(f"path {name} {digest(fi.run_scenario(sc))}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, sha in cli_digests(Path(tmp)):
            print(f"cli {name} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
