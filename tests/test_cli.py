"""Command line interface: config parsing, output formats, subcommand exit codes."""

import json
import math

import numpy as np
import pytest

from fractal_impedance import Scenario, run_scenario
from fractal_impedance.cli import (
    ConfigError,
    config_hash,
    emit_csv,
    emit_json,
    main,
    parse_config,
    scenario_from_dict,
    scenario_to_dict,
)

BASE_CONFIG = {
    "name": "pulse_demo",
    "plant": "point_mass",
    "controller": "fic",
    "duration": 0.5,
    "dt": 1e-3,
    "feedback_hz": 1000.0,
    "x0": [0.0],
    "reference": {"type": "static", "pose": [0.0]},
    "w_max": 30.0,
    "x_b": 0.1,
    "damping": 1.0,
    "pulses": [{"start": 0.1, "duration": 0.05, "wrench": [4.0]}],
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        sc = parse_config(write_config(tmp_path, {"name": "m"}))
        assert sc.dt == 1e-4
        assert sc.integrator == "rk4"
        assert sc.feedback_hz == 1000.0
        assert sc.plant == "point_mass"

    def test_missing_file_pointer_is_root(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(str(tmp_path / "nope.json"))
        assert err.value.pointer == "/"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.pointer == "/"
        assert "invalid JSON" in err.value.message

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.pointer == "/"

    def test_unknown_key_pointer(self, tmp_path):
        doc = dict(BASE_CONFIG, dampingg=1.0)
        del doc["damping"]
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert err.value.pointer == "/dampingg"

    def test_nested_pointer(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["reference"] = {"type": "sinusoid", "axis": 5, "amplitude": 0.1, "period": 1.0}
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert err.value.pointer == "/reference/axis"

    def test_invariant_pointer(self, tmp_path):
        doc = dict(BASE_CONFIG, feedback_hz=1e9)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert err.value.pointer == "/feedback_hz"


class TestRoundTrips:
    def test_scenario_dict_round_trip(self):
        sc = scenario_from_dict(BASE_CONFIG)
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again == sc

    def test_config_hash_ignores_key_order(self):
        doc = scenario_to_dict(scenario_from_dict(BASE_CONFIG))
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        assert config_hash(doc) == config_hash(shuffled)

    def test_config_hash_tracks_values(self):
        doc = scenario_to_dict(scenario_from_dict(BASE_CONFIG))
        other = dict(doc, w_max=25.0)
        assert config_hash(doc) != config_hash(other)


@pytest.fixture(scope="module")
def record():
    return run_scenario(scenario_from_dict(BASE_CONFIG))


class TestCsvOutput:
    def test_schema_and_endings(self, tmp_path, record):
        out = tmp_path / "ep.csv"
        emit_csv([record], out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0].split(",")
        assert header[:5] == ["t", "x_d_0", "x_0", "x_err_0", "xdot_0"]
        assert header[-3:] == ["V", "E_in_cum", "E_rel_cum"]
        assert "phase_s_0" in header and "contact_f_0" in header

    def test_round_trip_values(self, tmp_path, record):
        out = tmp_path / "ep.csv"
        emit_csv([record], out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[0] == record.n_samples
        # 9 significant digits in the file
        assert np.allclose(data[:, 0], record.t, rtol=1e-8, atol=1e-12)
        assert np.allclose(data[:, 3], record.x_err[:, 0], rtol=1e-8, atol=1e-12)

    def test_meta_sidecar(self, tmp_path, record):
        out = tmp_path / "ep.csv"
        emit_csv([record], out)
        meta = json.loads((tmp_path / "ep.csv.meta.json").read_text())
        assert len(meta) == 1
        entry = meta[0]
        assert entry["config_hash"] == config_hash(scenario_to_dict(record.scenario))
        assert entry["ledger"]["margin"] <= 1e-9
        assert entry["error"] is None

    def test_emit_json_structure(self, tmp_path, record):
        out = tmp_path / "ep.json"
        emit_json([record], out)
        payload = json.loads(out.read_text())
        series = payload["records"][0]["series"]
        assert len(series["t"]) == record.n_samples
        assert set(series) >= {"x_0", "x_err_0", "phase_s_0", "V", "E_in_cum"}

    def test_empty_record_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")


class TestCliCommands:
    def test_run_writes_csv_and_meta(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["run", "--config", cfg, "--out", "out.csv"])
        assert code == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.csv.meta.json").exists()
        assert "wrote out.csv" in capsys.readouterr().out

    def test_run_json_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", "out.json", "--format", "json"]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["records"][0]["error"] is None

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, plant="hexapod"))
        assert main(["run", "--config", cfg]) == 1
        assert "config error at /plant" in capsys.readouterr().err

    @pytest.mark.parametrize("gains", [{"x_b": 1e-200}, {"w_max": 1e300, "x_b": 1e-10}])
    def test_degenerate_spring_exit_1(self, tmp_path, capsys, gains):
        # x_b^2 underflows, or w_max / x_b overflows: beta^2 is not finite
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **gains))
        assert main(["run", "--config", cfg]) == 1
        assert "infeasible stiffness profile" in capsys.readouterr().err

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert "argument error" in capsys.readouterr().err

    def test_blowup_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = {
            "name": "unstable",
            "plant": "point_mass",
            "controller": "baseline",
            "duration": 5.0,
            "dt": 1e-2,
            "feedback_hz": 100.0,
            "integrator": "semi_implicit",
            "x0": [0.5],
            "reference": {"type": "static", "pose": [0.0]},
            "k_d": 1e6,
            "d_d": 0.0,
        }
        cfg = write_config(tmp_path, doc)
        with np.errstate(over="ignore"):
            code = main(["run", "--config", cfg, "--out", "u.csv"])
        assert code == 2
        assert "integration_blowup" in capsys.readouterr().err

    def test_sweep_writes_per_rate_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["sweep", "--config", cfg, "--rates", "500,250", "--out", "sw"])
        assert code == 0
        assert (tmp_path / "sw_500hz.csv").exists()
        assert (tmp_path / "sw_250hz.csv").exists()
        summary = json.loads((tmp_path / "sw_summary.json").read_text())
        assert [e["rate_hz"] for e in summary] == [500.0, 250.0]
        assert all(e["error"] is None for e in summary)

    def test_sweep_bad_rates_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", cfg, "--rates", "abc"]) == 1
        assert "/rates" in capsys.readouterr().err

    def test_calibrate_single_row(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = dict(
            BASE_CONFIG,
            name="cal_base",
            duration=3.0,
            feedback_hz=100.0,
            damping=0.5,
            pulses=[{"start": 0.5, "duration": 0.15, "wrench": [10.0]}],
        )
        cfg = write_config(tmp_path, doc)
        code = main(["calibrate", "--config", cfg, "--grid", "0.1", "--out", "cal"])
        assert code == 0
        lines = (tmp_path / "cal.csv").read_text().splitlines()
        assert lines[0] == "x_b,x_b_upper,w_max"
        assert lines[1].startswith("0.1,0.1,")
        meta = json.loads((tmp_path / "cal.csv.meta.json").read_text())
        assert meta["rows"][0]["x_b"] == 0.1

    def test_energy_drift_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["energy-drift", "--rates", "20,100", "--out", "drift.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic IC work" in out
        rows = (tmp_path / "drift.csv").read_text().splitlines()
        assert rows[0] == "rate_hz,delta_e_ic,abs_drift,delta_e_fic"
        drift_20 = float(rows[1].split(",")[2])
        drift_100 = float(rows[2].split(",")[2])
        assert drift_20 > drift_100

    def test_phase_portrait_peaks_grow_with_energy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["phase-portrait", "--energies", "0.25,1.0", "--dt", "1e-3",
             "--duration", "1.0", "--out", "pp.csv"]
        )
        assert code == 0
        meta = json.loads((tmp_path / "pp.csv.meta.json").read_text())
        peaks = dict((e, p) for e, p in meta["peak_error_by_energy"])
        assert peaks[1.0] > peaks[0.25] > 0.0

    def test_log_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FIC_LOG", "debug")
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", "log.csv"]) == 0
