"""Record ``references.json``: the outputs of every case a run can draw.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/record_references.py [workload ...]

Named workloads are re-recorded and merged into the existing file; with no
names, all are. Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def record(name: str, workdir: Path) -> dict:
    wl = workloads.WORKLOADS[name](workdir)
    if name == "calibrate":
        # Rows are independent, so one sweep over every stratum value records
        # them all; a stratum whose rows differ in cost breaks the design.
        grid = sorted((xb for s in wl.STRATA for xb in s), reverse=True)
        refs = wl.summary(grid, wl.run(grid))
        for stratum in wl.STRATA:
            costs = {wl.episodes(refs[f"{xb:g}"]) for xb in stratum}
            if len(costs) != 1:
                raise SystemExit(f"calibrate stratum {stratum} has mixed costs {costs}")
        return refs
    refs = {str(i): wl.summary(i, wl.run(i)) for i in range(wl.pool_size)}
    positive = sorted(int(i) for i, ref in refs.items() if not ref["margin"] < 0.0)
    if positive != sorted(wl.excluded):
        print(f"{name}: cases with margin >= 0 are {positive}; "
              f"update {type(wl).__name__}.excluded to match", flush=True)
    return refs


def main(names) -> None:
    path = workloads.REFERENCES
    refs = json.loads(path.read_text()) if path.is_file() else {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=BENCH.parent) as tmp:
        for name in names or list(workloads.WORKLOADS):
            refs[name] = record(name, Path(tmp))
            print(f"recorded {name}: {len(refs[name])} references", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
