"""Command-line front end: scenario configs in, CSV/JSON records out.

Configs are JSON documents whose keys mirror the Scenario fields; schema
errors are reported with a JSON pointer to the offending key. Every output
carries the config hash: CSV files get a ``<name>.meta.json`` sidecar (the
CSV schema is fixed and has no free header slot), JSON outputs embed it.

Exit codes: 0 success, 1 config error, 2 runtime error (integration blowup
or singular configuration; partial records are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dynamics import IntegrationBlowupError, SingularConfigurationError
from .energy_audit import fic_work, ic_work_discrete
from .fic_core import StiffnessParams
from .sim_harness import (
    EpisodeRecord,
    Scenario,
    calibrate_sweep,
    compute_metrics,
    detect_oscillation,
    run_scenario,
)

__all__ = [
    "ConfigError",
    "parse_config",
    "scenario_to_dict",
    "scenario_from_dict",
    "config_hash",
    "emit_csv",
    "emit_json",
    "main",
]

log = logging.getLogger("fractal_impedance.cli")

# Analytic continuous-time work of the unit-gain impedance controller along
# x(t) = t^3 + t^2 + t on [0, 1]: 0.5*(xdot(1)^2 - xdot(0)^2) + integral of
# xdot^2 dt = 17.5 + 167/15.
ANALYTIC_IC_WORK = 17.5 + 167.0 / 15.0

DEFAULT_DRIFT_RATES = (20.0, 100.0, 1000.0, 10000.0)
MAX_DRIFT_RATE = 1e6  # Hz; energy-drift holds a few arrays of rate + 1 samples
DEFAULT_CALIBRATION_GRID = (0.2, 0.15, 0.1, 0.075, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001)


_CSV_CHUNK_ROWS = 256  # rows formatted per write by _write_table


class ConfigError(Exception):
    """Configuration problem, carrying a JSON pointer to the offending key."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"config error at {pointer or '/'}: {message}")


_PATH_RE = re.compile(r"^([A-Za-z0-9_]+(?:[.\[][A-Za-z0-9_\]]*)*): (.*)$", re.DOTALL)


def _pointer_from_message(msg: str) -> tuple[str, str]:
    m = _PATH_RE.match(msg)
    if not m:
        return "/", msg
    path = m.group(1).replace("]", "").replace("[", ".")
    return "/" + "/".join(path.split(".")), m.group(2)


def _jsonify(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonify(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready form; parse_config of its dump round-trips."""
    return _jsonify(dataclasses.asdict(scenario))


def scenario_from_dict(doc: dict) -> Scenario:
    field_names = {f.name for f in dataclasses.fields(Scenario)}
    for key in doc:
        if key not in field_names:
            raise ConfigError(f"/{key}", "unknown key")
    try:
        return Scenario(**doc)
    except (ValueError, TypeError) as exc:
        pointer, message = _pointer_from_message(str(exc))
        raise ConfigError(pointer, message) from exc


def parse_config(path: str | Path) -> Scenario:
    """Load and validate one scenario config.

    Raises:
        ConfigError: missing file, invalid JSON, unknown keys, or invariant
            violations, each with a JSON pointer.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError("/", f"missing config file: {path}") from None
    except OSError as exc:
        raise ConfigError("/", f"cannot read config file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("/", "top-level value must be an object")
    return scenario_from_dict(doc)


def config_hash(doc: dict) -> str:
    """SHA-256 of the canonical JSON serialization."""
    blob = json.dumps(_jsonify(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _episode_series(rec: EpisodeRecord) -> dict:
    """Each CSV/JSON column name of the record with its 1-D column, in file order."""
    series = {"t": rec.t}
    for group in ("x_d", "x", "x_err", "xdot", "phase_s", "wrench", "contact_f"):
        cols = getattr(rec, group)
        series.update((f"{group}_{i}", cols[:, i]) for i in range(cols.shape[1]))
    series.update(V=rec.v, E_in_cum=rec.e_in_cum, E_rel_cum=rec.e_rel_cum)
    return series


def _ledger_dict(rec: EpisodeRecord) -> dict:
    led = rec.ledger
    return {
        "e_in": led.e_in,
        "e_rel": led.e_rel,
        "margin": led.margin,
        "contact_work": led.contact_work,
        "n_switches": len(led.switch_events),
    }


def _record_meta(rec: EpisodeRecord) -> dict:
    doc = scenario_to_dict(rec.scenario)
    return {
        "config_hash": config_hash(doc),
        "scenario": doc,
        "ledger": _ledger_dict(rec),
        "recovery_times": _jsonify(list(rec.recovery_times)),
        "convergence_times": _jsonify(list(rec.convergence_times)),
        "error": rec.error,
    }


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_table(path: Path, cols: list[str], rows, meta) -> None:
    """The header ``cols``, then one line per row at 9 significant digits
    (``%d`` for ``phase_s_*`` columns) with LF endings, then ``meta`` as the
    ``<name>.meta.json`` sidecar."""
    row = ",".join("%d" if c.startswith("phase_s") else "%.9g" for c in cols) + "\n"
    data = np.asarray(rows, dtype=float)
    with path.open("w", newline="\n") as fh:
        # np.savetxt's bytes, without its per-row numpy scalars; chunks keep
        # the Python floats of a long table from being held all at once
        fh.write(",".join(cols) + "\n")
        for i in range(0, len(data), _CSV_CHUNK_ROWS):
            fh.write("".join([row % tuple(r) for r in data[i : i + _CSV_CHUNK_ROWS].tolist()]))
    _write_json(path.with_name(path.name + ".meta.json"), meta)


def emit_csv(records: list, path: str | Path) -> None:
    """Fixed-schema CSV (9 significant digits, LF endings) plus meta sidecar."""
    if not records:
        raise ValueError("emit_csv needs at least one record")
    d = records[0].x.shape[1]
    if any(r.x.shape[1] != d for r in records):
        raise ValueError("all records in one file must share the task dimension")
    series = [_episode_series(r) for r in records]
    data = np.vstack([np.column_stack(list(s.values())) for s in series])
    _write_table(Path(path), list(series[0]), data, [_record_meta(r) for r in records])


def emit_json(records: list, path: str | Path) -> None:
    """Full structured dump with embedded config hashes."""
    payload = {"records": []}
    for rec in records:
        series = {col: c.tolist() for col, c in _episode_series(rec).items()}
        payload["records"].append({**_record_meta(rec), "series": series})
    _write_json(Path(path), payload)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"/{flag}", f"expected comma-separated numbers, got '{text}'")
    if not vals:
        raise ConfigError(f"/{flag}", "expected at least one value")
    return vals


def _writable(path: Path) -> Path:
    """``path``, or a config error at /out if it is a directory or its directory is missing."""
    if path.is_dir() or not path.parent.is_dir():
        raise ConfigError("/out", f"cannot write {path}: not a file in an existing directory")
    return path


def _out_base(out: str | None, default: str) -> Path:
    base = Path(out) if out else Path(default)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base


class _Parser(argparse.ArgumentParser):
    # Map argparse usage errors onto the config-error exit code.
    def error(self, message):
        raise ConfigError("/", f"argument error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fic",
        description="Fractal impedance controller simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", help="run one scenario and write its record")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--out", default=None, help="output file path")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="re-run one scenario across feedback rates")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--rates", default="1000,100,20", help="feedback rates (Hz)")
    sweep_p.add_argument("--out", default=None, help="output prefix")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_p.set_defaults(func=_cmd_sweep)

    cal_p = sub.add_parser("calibrate", help="largest stable w_max per boundary size")
    cal_p.add_argument("--config", required=True, help="base perturbation scenario")
    cal_p.add_argument(
        "--grid",
        default=",".join(f"{g:g}" for g in DEFAULT_CALIBRATION_GRID),
        help="descending x_B grid (m)",
    )
    cal_p.add_argument("--wmax-init", type=float, default=30.0)
    cal_p.add_argument("--out", default=None)
    cal_p.set_defaults(func=_cmd_calibrate)

    drift_p = sub.add_parser("energy-drift", help="discrete impedance work drift vs feedback rate")
    drift_p.add_argument("--rates", default=",".join(f"{r:g}" for r in DEFAULT_DRIFT_RATES))
    drift_p.add_argument("--out", default=None)
    drift_p.set_defaults(func=_cmd_energy_drift)

    pp_p = sub.add_parser(
        "phase-portrait", help="autonomous error-phase trajectories per start energy"
    )
    pp_p.add_argument("--energies", default="0.25,0.5,0.75,1.0", help="start energies (J)")
    pp_p.add_argument("--out", default=None)
    pp_p.add_argument("--dt", type=float, default=1e-4)
    pp_p.add_argument("--duration", type=float, default=4.0)
    pp_p.set_defaults(func=_cmd_phase_portrait)
    return parser


def _cmd_run(args) -> int:
    scenario = parse_config(args.config)
    out = _writable(Path(args.out) if args.out else Path(f"{scenario.name}.{args.format}"))
    log.info("running scenario '%s'", scenario.name)
    record = run_scenario(scenario)
    # a table built per call, so a rebound emit_csv or emit_json (a trace hook) runs
    {"csv": emit_csv, "json": emit_json}[args.format]([record], out)
    digest = config_hash(scenario_to_dict(scenario))
    print(f"wrote {out} ({record.n_samples} samples, config {digest[:12]})")
    if record.error is not None:
        print(
            f"runtime error: {record.error['type']} at t={record.error['time']:.6g} s",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(args) -> int:
    scenario = parse_config(args.config)
    rates = _parse_float_list(args.rates, "rates")
    base = _out_base(args.out, "sweep")
    outs = [_writable(base.with_name(f"{base.name}_{r:g}hz.{args.format}")) for r in rates]
    summary_out = _writable(base.with_name(f"{base.name}_summary.json"))
    summary = []
    for rate, out in zip(rates, outs):
        try:
            sc = replace(scenario, feedback_hz=rate, name=f"{scenario.name}_fb{rate:g}")
        except ValueError as exc:
            raise ConfigError("/rates", str(exc)) from exc
        record = run_scenario(sc)
        {"csv": emit_csv, "json": emit_json}[args.format]([record], out)
        metrics = compute_metrics(record)
        entry = {
            "rate_hz": rate,
            "out": out.name,
            "config_hash": config_hash(scenario_to_dict(sc)),
            "recovery_mean": _jsonify(metrics["recovery_mean"]),
            "max_abs_err": _jsonify(metrics["max_abs_err"]),
            "oscillation": detect_oscillation(record),
            "error": record.error,
        }
        summary.append(entry)
        print(
            f"rate {rate:g} Hz -> {out} (recovery_mean={metrics['recovery_mean']:.4g} s, "
            f"max_abs_err={max(metrics['max_abs_err']):.4g} m, oscillation={entry['oscillation']})"
        )
    _write_json(summary_out, summary)
    return 2 if any(e["error"] is not None for e in summary) else 0


def _cmd_calibrate(args) -> int:
    scenario = parse_config(args.config)
    grid = _parse_float_list(args.grid, "grid")
    out = _writable(_out_base(args.out, "calibration").with_suffix(".csv"))
    try:
        rows = calibrate_sweep(scenario, args.wmax_init, grid)
    except ValueError as exc:
        field, message = _pointer_from_message(str(exc))
        raise ConfigError("/wmax-init" if field.startswith("/w_max") else "/grid", message) from exc
    table = [(row["x_b"], row["x_b_range"][1], row["w_max"]) for row in rows]
    meta = {
        "config_hash": config_hash(scenario_to_dict(scenario)),
        "grid": grid,
        "w_max_init": args.wmax_init,
        "rows": _jsonify(rows),
    }
    _write_table(out, ["x_b", "x_b_upper", "w_max"], table, meta)
    for row in rows:
        print(f"x_b={row['x_b']:g} m -> w_max={row['w_max']:g} N")
    print(f"wrote {out}")
    return 0


def _cmd_energy_drift(args) -> int:
    rates = _parse_float_list(args.rates, "rates")
    # whole rates sample the path's end, t = 1 s, which the analytic work spans
    if not all(1.0 <= r <= MAX_DRIFT_RATE and r.is_integer() for r in rates):
        raise ConfigError("/rates", f"must be whole numbers of Hz from 1 to {MAX_DRIFT_RATE:g}")
    out = _writable(Path(args.out)) if args.out else None
    params = StiffnessParams(k_const=0.0, w_max=30.0, x_b=0.1)
    print(f"analytic IC work: {ANALYTIC_IC_WORK:.6f} J")
    print(f"{'rate_hz':>10} {'delta_E_IC':>14} {'abs_drift':>12} {'delta_E_FIC':>14}")
    rows = []
    for rate in rates:
        t = np.arange(int(rate) + 1) / rate
        x = t**3 + t**2 + t
        xdot = 3.0 * t**2 + 2.0 * t + 1.0
        xddot = 6.0 * t + 2.0
        w_ic = ic_work_discrete(x, xdot, xddot)
        w_fic = fic_work(params, x[0], x[-1])
        drift = abs(w_ic - ANALYTIC_IC_WORK)
        rows.append((rate, w_ic, drift, w_fic))
        print(f"{rate:>10g} {w_ic:>14.6f} {drift:>12.6f} {w_fic:>14.6f}")
    if out:
        cols = ["rate_hz", "delta_e_ic", "abs_drift", "delta_e_fic"]
        meta = {
            "config_hash": config_hash({"command": "energy-drift", "rates": rates}),
            "analytic": ANALYTIC_IC_WORK,
        }
        _write_table(out, cols, rows, meta)
        print(f"wrote {args.out}")
    return 0


def _cmd_phase_portrait(args) -> int:
    energies = _parse_float_list(args.energies, "energies")
    if not all(0.0 <= 2.0 * e < math.inf for e in energies):  # a finite start speed
        raise ConfigError("/energies", "must be finite and non-negative")
    for flag in ("dt", "duration"):
        if not 0.0 < getattr(args, flag) < math.inf:
            raise ConfigError(f"/{flag}", "must be finite and positive")
    if 1.0 / args.dt == math.inf:  # the tick rate feedback_hz = 1/dt
        raise ConfigError("/dt", "too small: 1/dt overflows")
    out = _writable(Path(args.out) if args.out else Path("phase_portrait.csv"))
    tables = []
    peaks = []
    for e0 in sorted(energies):
        v0 = math.sqrt(2.0 * e0)  # unit point mass
        sc = Scenario(
            name=f"portrait_{e0:g}J",
            plant="point_mass",
            controller="fic",
            duration=args.duration,
            dt=args.dt,
            feedback_hz=1.0 / args.dt,
            inertia=(1.0,),
            x0=(0.0,),
            xdot0=(v0,),
            k_const=0.0,
            w_max=30.0,
            x_b=0.1,
            damping=0.0,
            reference={"type": "static", "pose": (0.0,)},
        )
        record = run_scenario(sc)
        if record.error is not None:
            print(f"runtime error at energy {e0:g} J", file=sys.stderr)
            return 2
        cols = (np.full(record.n_samples, e0), record.t, record.x_err[:, 0], record.xdot[:, 0])
        tables.append(np.column_stack(cols))
        peaks.append((e0, float(np.max(np.abs(record.x_err[:, 0])))))
    meta = {
        "config_hash": config_hash({"command": "phase-portrait", "energies": sorted(energies)}),
        "peak_error_by_energy": _jsonify(peaks),
    }
    _write_table(out, ["energy", "t", "x_err", "xdot"], np.vstack(tables), meta)
    for e0, peak in peaks:
        print(f"energy {e0:g} J -> peak |x_err| {peak:.4g} m")
    print(f"wrote {out}")
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("FIC_LOG", "").strip().lower()
    levels = {n: getattr(logging, n.upper()) for n in ("debug", "info", "warning", "error")}
    logging.basicConfig(level=levels.get(level_name, logging.WARNING))


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (IntegrationBlowupError, SingularConfigurationError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
