"""Self-test of the benchmark: each workload at minimal size (one unit).

    python3 -m pytest -q bench/test_bench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that outputs match the stored references, and that a
deliberately corrupted reference makes the ops fail. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402


def _run(workload: str, trace: int, refs=None) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
            refs_override=refs,
        )
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    result = _run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["trace.unresolved_hooks"]["value"] == 0


def _corrupt(workload: str, refs: dict) -> dict:
    bad = copy.deepcopy(refs)
    for key, ref in bad[workload].items():
        if workload == "calibrate":
            bad[workload][key] = (ref or 0.0) + 2.0  # next w_max candidate
        else:
            ref["e_in"] *= 1.001
    return bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails(workload):
    import workloads

    result = _run(workload, 0, _corrupt(workload, workloads.load_references()))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0.0


def test_unresolved_hook_is_reported_not_fatal():
    import tracing
    import workloads

    missing = (f"{tracing.PKG}.sim_harness", "_renamed_away", "sim_harness")
    wl = workloads.PointMassPulse()
    with tracing.Tracer(tracing.HOOKS + (missing,)) as tr:
        wl.run(wl.cases[0])
    assert tr.unresolved == [f"{tracing.PKG}.sim_harness._renamed_away"]
    assert tr.count(tracing.STEP_HOOKS) == 6000
