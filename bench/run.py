"""Benchmark of closed-loop episodes: four workloads, checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload pm_pulse --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed set of units (sized from ``--seconds``) twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it give the run environment, a readable metric table and
any failed op.

Times are normalized to a reference host speed. On a shared 2-vCPU Xeon
virtual machine the speed of a fixed episode drifts by 20-30 % over tens of
seconds, so raw wall-clock cannot gate a 10 % change. A fixed speed probe (plain
Python and small numpy calls, no library code) runs between timed calls and
every ``SAMPLE_EVERY_S`` during them, from a timer signal whose own time is
subtracted. Each timed call is scaled by ``PROBE_REF_S`` over the median
probe seconds around and during it. The ``raw:`` lines give unscaled figures.
Per-layer metrics are raw seconds and exact counts.

The library is imported from ``src/`` of the checkout this file sits in; the
run fails without printing a result when it is missing.
"""

from __future__ import annotations

import os

# Single-threaded numerics in this process and the set-up processes it starts.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# A fresh interpreter imports the package and builds every Scenario the run
# can draw; the parent times it from spawn to exit.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_scenarios(sys.argv[3])"
)


# Nominal seconds of one probe() call. A time is normalized by scaling it with
# PROBE_REF_S over the median probe seconds measured around and during it.
# Fixed: changing it rescales every reported time.
PROBE_REF_S = 0.0015
EDGE_PROBES = 5  # probes between timed calls
SAMPLE_EVERY_S = 0.05  # probe period during a timed call


def probe() -> float:
    """Seconds of a fixed loop of interpreter arithmetic and small numpy calls."""
    import numpy as np

    a = np.array([0.3, 0.9, 0.9])
    m = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 1.0]])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(100):
        v = np.cos(np.cumsum(a)) + 1e-3 * i
        x = np.linalg.solve(m, v)
        acc += math.exp(-abs(float(x @ v))) + float(np.dot(a, v))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("probe arithmetic failed")
    return elapsed


class SpeedSampler:
    """Runs probe() from a timer signal while a timed call runs.

    ``samples`` are the probe seconds; ``spent`` is the wall time the
    handler took, which the caller subtracts from the call's time.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def edge_probes() -> list:
    return [probe() for _ in range(EDGE_PROBES)]


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure_setup(workload: str) -> tuple[float, float]:
    """Median normalized and raw seconds of fresh set-up processes, after
    one warm-up that lets the interpreter write its bytecode caches."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    raw, norm = [], []
    before = edge_probes()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = edge_probes()
        norm.append(raw[-1] * PROBE_REF_S / statistics.median(before + after))
        before = after
    return statistics.median(norm), statistics.median(raw)


class Tally:
    """Ops, steps and failures of a sequence of checked units."""

    def __init__(self):
        self.unit_s = []  # timed seconds per unit
        self.op_s = []
        self.ops = self.steps = self.useful = self.bytes_out = self.failed = 0
        self.problems = []

    def add(self, unit, elapsed: float, outcome) -> None:
        self.unit_s.append(elapsed)
        # A unit of several ops (a calibration call) shares its time evenly.
        self.op_s.append(elapsed / outcome.ops)
        self.ops += outcome.ops
        self.steps += outcome.steps
        self.useful += outcome.useful
        self.bytes_out += outcome.bytes_out
        if outcome.problems:
            # A unit fails as a whole: its ops all count as failed.
            self.failed += outcome.ops
            self.problems.append(f"{unit}: {'; '.join(outcome.problems)}")


def run_unit(wl, unit, refs, tally: Tally) -> float:
    """Run, time and check one unit; return its timed seconds."""
    t0 = time.perf_counter()
    result = wl.run(unit)
    elapsed = time.perf_counter() - t0
    tally.add(unit, elapsed, wl.check(unit, wl.summary(unit, result), refs))
    return elapsed


def end_to_end(wl, rng, refs, seconds: float, setup_s: float):
    tally = Tally()
    raw_s = []
    speeds = []
    before = edge_probes()
    start = time.perf_counter()
    while not tally.unit_s or time.perf_counter() - start < seconds:
        unit = wl.draw(rng)
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            result = wl.run(unit)
            elapsed = time.perf_counter() - t0
        elapsed -= sampler.spent
        after = edge_probes()
        speeds.append(statistics.median(before + sampler.samples + after))
        before = after
        raw_s.append(elapsed)
        outcome = wl.check(unit, wl.summary(unit, result), refs)
        tally.add(unit, elapsed * PROBE_REF_S / speeds[-1], outcome)
    busy = sum(tally.unit_s)
    print(
        f"raw: ops_per_s {tally.ops / sum(raw_s):.6g} 1/s, probe p50 "
        f"{statistics.median(speeds):.6g} s (PROBE_REF_S {PROBE_REF_S} s)"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (tally.steps / busy, "1/s"),
        "ops_per_s": (tally.ops / busy, "1/s"),
        "op_s_p50": (statistics.median(tally.op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def per_layer(wl, rng, refs, seconds: float):
    import tracing

    # Every unit runs untraced and then traced, so host-speed drift affects
    # both alike. The unit count is fixed from --seconds, so the traced counts
    # are exact for a given seed.
    n_units = max(1, round(seconds / 2.0 / wl.nominal_unit_s))
    tally = Tally()
    traced_tally = Tally()
    tr = tracing.Tracer()
    untraced = traced = 0.0
    for unit in (wl.draw(rng) for _ in range(n_units)):
        untraced += run_unit(wl, unit, refs, tally)
        with tr:
            traced += run_unit(wl, unit, refs, traced_tally)
    tally.failed += traced_tally.failed
    tally.ops += traced_tally.ops
    tally.problems += traced_tally.problems
    for name in tr.unresolved:
        print(f"unresolved hook: {name}", file=sys.stderr)

    steps = traced_tally.steps
    episodes = tr.count(tracing.EPISODE_HOOKS)
    ticks = tr.count(tracing.TICK_HOOKS)

    def per(value, count, scale=1e6):
        return scale * value / count if count else 0.0

    dyn_s = tr.layer_self_s("dynamics")
    harness_s = tr.layer_self_s("sim_harness")
    ctrl_s = tr.layer_self_s("controllers")
    metrics = {
        "dynamics.self_s": (dyn_s, "s"),
        "dynamics.us_per_step": (per(dyn_s, steps), "us"),
        "dynamics.steps": (tr.count(tracing.STEP_HOOKS), "count"),
        "dynamics.accel_evals": (tr.count(tracing.ACCEL_HOOKS), "count"),
        "sim_harness.task_state_s": (tr.layer_self_s("sim_harness.task_state"), "s"),
        "sim_harness.self_s": (harness_s, "s"),
        "sim_harness.us_per_step": (per(harness_s, steps), "us"),
        "sim_harness.episodes_run": (episodes, "count"),
        "sim_harness.useful_ratio": (per(traced_tally.useful, episodes, 1.0), "ratio"),
        "controllers.ticks": (ticks, "count"),
        "controllers.self_s": (ctrl_s, "s"),
        "controllers.us_per_tick": (per(ctrl_s, ticks), "us"),
        "fic_core.calls": (tr.layer_calls("fic_core"), "count"),
        "fic_core.self_s": (tr.layer_self_s("fic_core"), "s"),
        "fic_core.switches": (tr.switches, "count"),
        "energy_audit.calls": (tr.layer_calls("energy_audit"), "count"),
        "energy_audit.self_s": (tr.layer_self_s("energy_audit"), "s"),
        "cli.parse_s": (tr.layer_self_s("cli.parse"), "s"),
        "cli.emit_s": (tr.layer_self_s("cli.emit"), "s"),
        "cli.bytes_out": (traced_tally.bytes_out, "bytes"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
        "trace.ops": (traced_tally.ops, "count"),
        "trace.unresolved_hooks": (len(tr.unresolved), "count"),
    }
    return tally, metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """Commit of the checkout read from ``.git`` directly; a checkout
    without git metadata reports ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def main(argv=None, refs_override=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fractal_impedance" / "__init__.py").is_file():
        return _fail(f"library sources not found under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np

    import fractal_impedance
    import workloads

    if not Path(fractal_impedance.__file__).resolve().is_relative_to(SRC):
        return _fail(f"fractal_impedance imported from outside {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    refs = (refs_override or workloads.load_references())[args.workload]

    setup_s = None
    if args.trace == 0:
        setup_s, setup_raw = measure_setup(args.workload)
        print(f"raw: setup_s {setup_raw:.6g} s")
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](Path(tmp))
        if args.trace:
            tally, metrics = per_layer(wl, rng, refs, args.seconds)
        else:
            tally, metrics = end_to_end(wl, rng, refs, args.seconds, setup_s)

    print("env " + json.dumps(environment(args, np.__version__), sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(
        f"ops {tally.ops}, failed {tally.failed} (failed_frac {tally.failed / tally.ops:.4g}); "
        f"op_s_p50 over {len(tally.op_s)} timed units"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
