"""Command line interface: config parsing, output formats, subcommand exit codes."""

import io
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_impedance import (
    Scenario,
    StiffnessParams,
    cli,
    compute_metrics,
    fic_work,
    ic_work_discrete,
    run_scenario,
    sim_harness,
)
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

# BASE_CONFIG's changes for an arm: no point-mass reference pose or pulse
ARM_STATIC = {"plant": "arm", "reference": {"type": "static"}, "pulses": []}


def kept_id(stem: str, n: int, *values):
    """A case under the id pytest once gave it by position, ``<stem><n>-<last
    value>``, spelled out so that a case inserted before it renames nothing."""
    return pytest.param(*values, id=f"{stem}{n}-{values[-1]}")


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


def savetxt_table(cols, rows, fmt="%.9g") -> bytes:
    """The CSV that ``np.savetxt`` writes for the rows under the header ``cols``."""
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt=fmt, delimiter=",", newline="\n", header=",".join(cols), comments="")
    return buf.getvalue().encode()


def record_columns(rec) -> dict:
    """The record's file columns, name to 1-D array, in the CSV schema's order."""
    cols = {"t": rec.t}
    for group in ("x_d", "x", "x_err", "xdot", "phase_s", "wrench", "contact_f"):
        for i in range(rec.x.shape[1]):
            cols[f"{group}_{i}"] = getattr(rec, group)[:, i]
    return {**cols, "V": rec.v, "E_in_cum": rec.e_in_cum, "E_rel_cum": rec.e_rel_cum}


def savetxt_bytes(recs) -> bytes:
    """The CSV that ``np.savetxt`` writes for the records, as emit_csv once
    called it."""
    cols = list(record_columns(recs[0]))
    fmt = ["%d" if c.startswith("phase_s") else "%.9g" for c in cols]
    rows = np.vstack([np.column_stack(list(record_columns(r).values())) for r in recs])
    return savetxt_table(cols, rows, fmt)


def capture_records(monkeypatch) -> list:
    """The records of every episode that ``cli`` runs, in run order."""
    records = []

    def run(sc):
        records.append(run_scenario(sc))
        return records[-1]

    monkeypatch.setattr(cli, "run_scenario", run)
    return records


def csv_records(kind, record):
    """Records of 1 and 2 task DoFs, each longer than one emit chunk."""
    if kind == "1-dof":
        return [record]
    if kind == "two 1-dof records":
        return [record, record]
    if kind == "blown up":
        doc = dict(
            BASE_CONFIG, controller="baseline", duration=2.0, integrator="semi_implicit",
            x0=[0.5], k_d=1e7, d_d=0.0, pulses=[],
        )
        with np.errstate(over="ignore"):
            rec = run_scenario(scenario_from_dict(doc))
        assert rec.error["type"] == "integration_blowup"
        return [rec]
    arm = run_scenario(
        Scenario(
            plant="arm", duration=0.3, dt=1e-3, feedback_hz=500.0, k_const=0.0,
            reference={"type": "circle", "radius": 0.1, "period": 2.0},
        )
    )
    if kind == "2-dof arm":
        return [arm]
    x = arm.x.copy()  # values whose formatting has edge cases
    x[:7, 0] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1.5e300]
    return [replace(arm, x=x)]


class TestCsvOutput:
    @pytest.mark.parametrize(
        "kind", ["1-dof", "two 1-dof records", "blown up", "2-dof arm", "special values"]
    )
    def test_bytes_match_savetxt(self, tmp_path, record, kind):
        recs = csv_records(kind, record)
        assert sum(r.n_samples for r in recs) > 256
        emit_csv(recs, tmp_path / "ep.csv")
        assert (tmp_path / "ep.csv").read_bytes() == savetxt_bytes(recs)

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

    def test_emit_json_structure(self, tmp_path):
        # on a 2-DoF point mass and an arm: the JSON series are the CSV's
        # columns (the file sorts its keys), phase flags as integers and
        # floats exactly as the record holds them
        point_mass = Scenario(
            inertia=(1.0, 2.0), duration=0.3, dt=1e-3, damping=1.0,
            pulses=({"start": 0.05, "duration": 0.05, "wrench": (20.0, -10.0)},),
        )
        arm = Scenario(
            plant="arm", duration=0.3, dt=1e-3, feedback_hz=500.0, k_const=100.0,
            reference={"type": "circle", "radius": 0.1, "period": 2.0},
        )
        for sc in (point_mass, arm):
            rec = run_scenario(sc)
            emit_json([rec], tmp_path / "ep.json")
            emit_csv([rec], tmp_path / "ep.csv")
            series = json.loads((tmp_path / "ep.json").read_text())["records"][0]["series"]
            header = (tmp_path / "ep.csv").read_text().splitlines()[0].split(",")
            want = record_columns(rec)
            assert header == list(want)
            assert sorted(series) == sorted(header)
            phases = {v for name in header if name.startswith("phase_s") for v in series[name]}
            assert phases == {0, 1}
            for name, col in want.items():
                if name.startswith("phase_s"):
                    assert all(type(v) is int for v in series[name]), name
                    assert series[name] == col.tolist(), name
                else:
                    assert all(type(v) is float for v in series[name]), name
                    assert np.array(series[name]).tobytes() == col.tobytes(), name

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

    @pytest.mark.parametrize(
        "changes, error",
        [
            kept_id(
                "changes",
                0,
                {"plant": "arm", "q0": [0.3, 0.9], "qdot0": [0, 0]},
                "/q0: expected 3 entries",
            ),
            # json.loads accepts NaN and Infinity
            kept_id("changes", 1, {"damping": math.nan}, "/damping: must be finite"),
            kept_id("changes", 2, {"inertia": [math.nan]}, "/inertia: must be finite"),
            kept_id("changes", 3, {"x0": [math.nan]}, "/x0: must be finite"),
            kept_id(
                "changes",
                4,
                {"controller": "baseline", "k_d": math.inf},
                "/k_d: must be finite",
            ),
            kept_id(
                "changes",
                5,
                {"pulses": [{"start": math.nan, "duration": 0.05, "wrench": [4.0]}]},
                "/pulses: must be finite",
            ),
            kept_id("changes", 6, {"duration": math.inf}, "/duration: must be finite"),
            kept_id(
                "changes",
                7,
                {"wall": {"axis": 0.5, "offset": 0.1, "stiffness": 1e3}},
                "/wall/axis: must be an integer",
            ),
            kept_id(
                "changes",
                8,
                {"reference": {"type": "sinusoid", "axis": 0.9, "amplitude": 0.1, "period": 1}},
                "/reference/axis: must be an integer",
            ),
            kept_id(
                "changes",
                9,
                {"wall": {"axis": 0, "offset": 0.1, "stiffness": 1e3, "direction": 2}},
                "/wall/direction: must be +1 or -1",
            ),
            kept_id(
                "changes",
                10,
                {"wall": {"axis": 0, "offset": 0.1, "stiffness": -1e3}},
                "/wall/stiffness: must be positive",
            ),
            kept_id(
                "changes",
                11,
                {"wall": {"axis": 0, "offset": 0.1, "stiffness": 1e3, "damping": -1.0}},
                "/wall/damping: must be non-negative",
            ),
            # a pulse's range and overlap errors name the pulse at fault; an
            # overlap names the pulse that starts while the other is on
            pytest.param(
                {"pulses": [{"start": -0.3, "duration": 0.1, "wrench": [6.0]}]},
                "/pulses/0/start: must be non-negative",
                id="pulses.start-negative",
            ),
            pytest.param(
                {
                    "pulses": [
                        {"start": 0.1, "duration": 0.1, "wrench": [1]},
                        {"start": -1, "duration": 0.1, "wrench": [1]},
                    ]
                },
                "/pulses/1/start: must be non-negative",
                id="pulses.start-second_negative",
            ),
            pytest.param(
                {"pulses": [{"start": 0.3, "duration": 0.0, "wrench": [6.0]}]},
                "/pulses/0/duration: must be positive",
                id="pulses.duration-zero",
            ),
            pytest.param(
                {
                    "pulses": [
                        {"start": 0.1, "duration": 0.2, "wrench": [6.0]},
                        {"start": 0.2, "duration": 0.1, "wrench": [-4.0]},
                    ]
                },
                "/pulses/1: overlaps pulses[0] on DoF 0",
                id="pulses-overlap",
            ),
            pytest.param(
                dict(
                    ARM_STATIC,
                    pulses=[
                        {"start": 0.3, "duration": 0.1, "wrench": [0.0, -4.0]},
                        {"start": 0.1, "duration": 0.1, "wrench": [2.0, 0.0]},
                        {"start": 0.2, "duration": 0.2, "wrench": [1.0, 6.0]},
                    ],
                ),
                "/pulses/0: overlaps pulses[2] on DoF 1",
                id="pulses-overlap_arm_dof1",
            ),
            kept_id(
                "changes",
                15,
                {
                    "plant": "arm",
                    "gravity": [0.0, -9.81, 0.0],
                    "reference": {"type": "static"},
                    "pulses": [],
                },
                "/gravity: expected 2 entries",
            ),
            kept_id(
                "changes",
                16,
                {"controller": "baseline", "k_d": 0.0},
                "/k_d: must be finite and positive",
            ),
            kept_id(
                "changes",
                17,
                {"controller": "baseline", "d_d": -1.0},
                "/d_d: must be finite and non-negative",
            ),
            kept_id("changes", 18, {"damping": -1.0}, "/damping: must be finite and non-negative"),
            kept_id("changes", 19, {"x_b": 0.0}, "/x_b: must be positive"),
            kept_id("changes", 20, {"k_const": -1.0}, "/k_const: must be non-negative"),
            kept_id("changes", 21, {"w_max": 0.0}, "/w_max: must be positive"),
            kept_id(
                "changes",
                22,
                {"w_max": 0.05, "x_b": 0.1},
                "/x_b: infeasible stiffness profile",
            ),
            kept_id(
                "changes",
                23,
                {"xb_schedule": {"x_b_end": 1e-200, "rate": 0.01, "interval": 0.1}},
                "/xb_schedule/x_b_end: infeasible stiffness profile",
            ),
            kept_id(
                "changes",
                24,
                {"posture_gains": [1.0]},
                "/posture_gains: expected two finite and non-negative",
            ),
            kept_id(
                "changes",
                25,
                {"posture_gains": [-1.0, 0.0]},
                "/posture_gains: expected two finite",
            ),
            kept_id("changes", 26, {"inertia": [0.0]}, "/inertia: must be positive per DoF"),
            # values of the wrong type: explicit ids, so that a case added
            # later beside its field's neighbours renames no other test
            pytest.param({"x0": ["a"]}, "/x0: must be a number", id="x0-str"),
            pytest.param(
                {"plant": "arm", "qdot0": [None, 0, 0], "reference": {"type": "static"}, "pulses": []},
                "/qdot0: must be a number",
                id="qdot0-null",
            ),
            pytest.param(
                {"reference": {"type": "static", "pose": ["a"]}},
                "/reference/pose: must be a number",
                id="reference.pose-str",
            ),
            pytest.param(
                {"reference": {"type": "sinusoid", "axis": 0, "amplitude": "big", "period": 1}},
                "/reference/amplitude: must be a number",
                id="reference.amplitude-str",
            ),
            pytest.param(
                {"reference": {"type": "sinusoid", "axis": 0, "amplitude": [1], "period": 1}},
                "/reference/amplitude: must be a number",
                id="reference.amplitude-list",
            ),
            pytest.param(
                {"reference": {"type": "sinusoid", "axis": 0, "amplitude": 0.1, "period": "a"}},
                "/reference/period: must be a number",
                id="reference.period-str",
            ),
            pytest.param(
                {
                    "reference": {
                        "type": "sinusoid", "axis": 0, "amplitude": 0.1, "period": 1, "center": [None]
                    }
                },
                "/reference/center: must be a number",
                id="reference.center-null",
            ),
            pytest.param(
                {
                    "plant": "arm",
                    "reference": {"type": "circle", "radius": 0.1, "period": 1, "center": ["a", 0]},
                    "pulses": [],
                },
                "/reference/center: must be a number",
                id="reference.center-str",
            ),
            pytest.param(
                {"plant": "arm", "reference": {"type": "circle", "radius": "a", "period": 1}, "pulses": []},
                "/reference/radius: must be a number",
                id="reference.radius-str",
            ),
            pytest.param(
                {"pulses": [{"start": "a", "duration": 0.05, "wrench": [4.0]}]},
                "/pulses/0/start: must be a number",
                id="pulses.start-str",
            ),
            pytest.param(
                {"pulses": [{"start": 0.1, "duration": 0.05, "wrench": ["a"]}]},
                "/pulses/0/wrench: must be a number",
                id="pulses.wrench-str",
            ),
            pytest.param(
                {"wall": {"axis": 0, "offset": "a", "stiffness": 1e3}},
                "/wall/offset: must be a number",
                id="wall.offset-str",
            ),
            pytest.param(
                {"xb_schedule": {"x_b_end": "a", "rate": 0.01, "interval": 0.1}},
                "/xb_schedule/x_b_end: must be a number",
                id="xb_schedule.x_b_end-str",
            ),
            # a container field of the wrong JSON type is named at its field
            pytest.param({"pulses": None}, "/pulses: expected a list of objects", id="pulses-null"),
            pytest.param({"pulses": "abc"}, "/pulses: expected a list of objects", id="pulses-str"),
            pytest.param(
                {"pulses": {"start": 0}}, "/pulses: expected a list of objects", id="pulses-object"
            ),
            pytest.param({"wall": 5}, "/wall: expected an object", id="wall-number"),
            pytest.param({"wall": [1, 2]}, "/wall: expected an object", id="wall-list"),
            pytest.param({"xb_schedule": True}, "/xb_schedule: expected an object", id="xb_schedule-bool"),
            pytest.param({"xb_schedule": "x"}, "/xb_schedule: expected an object", id="xb_schedule-str"),
            pytest.param({"reference": None}, "/reference: expected an object", id="reference-null"),
            pytest.param(
                {"reference": {"type": {}}}, "/reference/type: unknown type {}", id="reference.type-object"
            ),
            # an integer too large for a float: JSON allows any number of digits
            pytest.param({"duration": 10**400}, "/duration: must be finite", id="duration-huge_int"),
            pytest.param({"damping": 10**400}, "/damping: must be finite", id="damping-huge_int"),
            pytest.param({"x0": [10**400]}, "/x0: must be finite", id="x0-huge_int"),
            pytest.param(
                {"pulses": [{"start": 10**400, "duration": 0.05, "wrench": [4.0]}]},
                "/pulses/0/start: must be finite",
                id="pulses.start-huge_int",
            ),
        ],
    )
    def test_bad_value_exit_1(self, tmp_path, capsys, changes, error):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **changes))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error at {error}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, pointer",
        [
            pytest.param({"duration": "a"}, "/duration", id="duration-str"),
            pytest.param({"dt": "a"}, "/dt", id="dt-str"),
            pytest.param({"feedback_hz": "a"}, "/feedback_hz", id="feedback_hz-str"),
            pytest.param({"damping": "a"}, "/damping", id="damping-str"),
            pytest.param({"k_const": "a"}, "/k_const", id="k_const-str"),
            pytest.param({"w_max": "a"}, "/w_max", id="w_max-str"),
            pytest.param({"x_b": "a"}, "/x_b", id="x_b-str"),
            pytest.param({"controller": "baseline", "k_d": "a"}, "/k_d", id="k_d-str"),
            pytest.param({"inertia": ["a"]}, "/inertia", id="inertia-str"),
            pytest.param({"inertia": 2.0}, "/inertia", id="inertia-scalar"),
            pytest.param(
                {"plant": "arm", "gravity": ["a", 0], "reference": {"type": "static"}, "pulses": []},
                "/gravity",
                id="gravity-str",
            ),
            pytest.param(
                {"plant": "arm", "posture_gains": ["a", 0], "reference": {"type": "static"}, "pulses": []},
                "/posture_gains",
                id="posture_gains-str",
            ),
        ],
    )
    def test_wrong_typed_number_names_its_field(self, tmp_path, capsys, changes, pointer):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **changes))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error at {pointer}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, error",
        [
            # a string or a bool is not a number, in any field and at any depth
            ({"damping": "5"}, "/damping: must be a number, got '5'"),
            ({"damping": "12"}, "/damping: must be a number, got '12'"),
            ({"damping": True}, "/damping: must be a number, got True"),
            ({"w_max": "30"}, "/w_max: must be a number, got '30'"),
            ({"duration": "5"}, "/duration: must be a number, got '5'"),
            ({"inertia": ["2"]}, "/inertia: must be a number, got '2'"),
            ({"inertia": [True]}, "/inertia: must be a number, got True"),
            ({"x0": ["0.1"]}, "/x0: must be a number, got '0.1'"),
            (dict(ARM_STATIC, gravity=["0", "-9.81"]), "/gravity: must be a number, got '0'"),
            (dict(ARM_STATIC, posture_gains=["1", "0"]), "/posture_gains: must be a number"),
            # a field that the plant reads keeps its reader's message
            (dict(ARM_STATIC, q0=None), "/q0: expected a list of numbers, got None"),
            # the name becomes the output file name
            ({"name": 5}, "/name: must be a non-empty string"),
            ({"name": None}, "/name: must be a non-empty string"),
            ({"name": ["a"]}, "/name: must be a non-empty string"),
            ({"name": ""}, "/name: must be a non-empty string"),
        ],
        ids=[
            "damping-numeric_str",
            "damping-two_digit_str",
            "damping-bool",
            "w_max-numeric_str",
            "duration-numeric_str",
            "inertia-numeric_str",
            "inertia-bool",
            "x0-numeric_str",
            "gravity-numeric_str",
            "posture_gains-numeric_str",
            "q0-null",
            "name-int",
            "name-null",
            "name-list",
            "name-empty",
        ],
    )
    def test_non_number_or_bad_name_exit_1(self, tmp_path, capsys, monkeypatch, changes, error):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **changes))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error at {error}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "changes, error",
        [
            pytest.param({"k_d": "5"}, "/k_d: must be a number, got '5'", id="fic-k_d"),
            pytest.param(
                {"controller": "baseline", "x_b": "a"}, "/x_b: must be a number, got 'a'", id="baseline-x_b"
            ),
            pytest.param(
                {"controller": "baseline", "x_b": {}},
                "/x_b: expected a list of numbers, got {}",
                id="baseline-x_b_object",
            ),
            pytest.param(
                {"controller": "baseline", "damping": True},
                "/damping: must be a number, got True",
                id="baseline-damping",
            ),
            pytest.param({"gravity": "a"}, "/gravity: must be a number, got 'a'", id="point_mass-gravity"),
            pytest.param(
                {"gravity": None},
                "/gravity: expected a list of numbers, got None",
                id="point_mass-gravity_null",
            ),
            pytest.param({"q0": "abc"}, "/q0: must be a number, got 'abc'", id="point_mass-q0"),
            pytest.param(
                {"posture_target": [1, "a"]},
                "/posture_target: must be a number, got 'a'",
                id="point_mass-posture_target",
            ),
            pytest.param(
                dict(ARM_STATIC, inertia="x"), "/inertia: must be a number, got 'x'", id="arm-inertia"
            ),
            pytest.param(
                dict(ARM_STATIC, xdot0=[None]), "/xdot0: must be a number, got None", id="arm-xdot0"
            ),
        ],
    )
    def test_unread_numeric_field_is_checked(self, tmp_path, capsys, changes, error):
        # a field that this plant or controller never reads still holds numbers
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **changes))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error at {error}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"x0": None, "xdot0": None, "posture_target": None}, id="nulls"),
            pytest.param(
                dict(ARM_STATIC, inertia=[1.0, 2.0], xdot0=[0.0, 0.0]), id="arm-point_mass_sizes"
            ),
            pytest.param(
                {"q0": [0.1], "gravity": [], "k_d": [1.0, 2.0, 3.0]}, id="point_mass-unread_sizes"
            ),
        ],
    )
    def test_unread_field_size_and_allowed_nulls_accepted(self, changes):
        # only a reader checks a size; BASE_CONFIG's x0 rides along on the arm
        assert isinstance(scenario_from_dict(dict(BASE_CONFIG, **changes)), Scenario)

    @pytest.mark.parametrize(
        "gains",
        [
            pytest.param({"x_b": 1e-200}, id="gains0"),
            pytest.param({"w_max": 1e300, "x_b": 1e-10}, id="gains1"),
        ],
    )
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

    def test_sweep_writes_per_rate_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        records = capture_records(monkeypatch)
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["sweep", "--config", cfg, "--rates", "500,250", "--out", "sw"])
        assert code == 0
        assert (tmp_path / "sw_500hz.csv").exists()
        assert (tmp_path / "sw_250hz.csv").exists()
        summary = json.loads((tmp_path / "sw_summary.json").read_text())
        assert [e["rate_hz"] for e in summary] == [500.0, 250.0]
        assert all(e["error"] is None for e in summary)
        assert [e["max_abs_err"] for e in summary] == [
            list(compute_metrics(r)["max_abs_err"]) for r in records
        ]
        printed = capsys.readouterr().out.splitlines()
        assert all("max_abs_err=" in line and "oscillation=False" in line for line in printed)

    def test_sweep_of_a_record_without_a_sample_exit_2(self, tmp_path, monkeypatch, capsys):
        # a fully stretched arm fails at t = 0: each rate's record is empty,
        # its per-DoF metrics are NaN, and the sweep writes its summary
        monkeypatch.chdir(tmp_path)
        doc = {"name": "straight", "plant": "arm", "q0": [0, 0, 0], "duration": 0.1, "dt": 0.001}
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", "sw"]) == 2
        summary = json.loads((tmp_path / "sw_summary.json").read_text())
        assert [e["rate_hz"] for e in summary] == [1000.0, 100.0, 20.0]
        assert all(e["error"]["type"] == "singular_configuration" for e in summary)
        assert all(e["max_abs_err"] == [None, None] for e in summary)
        assert "Traceback" not in capsys.readouterr().err

    def test_low_bandwidth_demo_config(self, tmp_path):
        # the pulse recovery study at 1 kHz, 100 Hz and 20 Hz feedback
        cfg = Path(__file__).resolve().parents[1] / "demos" / "low_bandwidth_recovery.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "lbr")]) == 0
        summary = json.loads((tmp_path / "lbr_summary.json").read_text())
        assert [e["rate_hz"] for e in summary] == [1000.0, 100.0, 20.0]
        assert [round(e["recovery_mean"], 3) for e in summary] == [0.427, 0.499, 0.788]
        assert [round(e["max_abs_err"][0], 4) for e in summary] == [0.0496, 0.0513, 0.0600]
        assert not any(e["oscillation"] or e["error"] for e in summary)

    def test_sweep_bad_rates_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", cfg, "--rates", "abc"]) == 1
        assert "/rates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, pointer",
        [
            kept_id("flags", 0, ["--grid", "0.01,0.1"], "/grid"),
            kept_id("flags", 1, ["--grid", "0.1,0.0005"], "/grid"),
            kept_id("flags", 2, ["--wmax-init", "nan"], "/wmax-init"),
            kept_id("flags", 3, ["--wmax-init", "inf"], "/wmax-init"),
            kept_id("flags", 4, ["--wmax-init", "1.5"], "/wmax-init"),
            kept_id("flags", 5, ["--grid", "0.1,nan"], "/grid"),
            kept_id("flags", 6, ["--grid", "inf,0.1"], "/grid"),
        ],
    )
    def test_calibrate_bad_sweep_exit_1(self, tmp_path, capsys, monkeypatch, flags, pointer):
        # rejected before the first episode, as a config error at the flag
        def no_episode(sc):
            raise AssertionError("calibrate ran an episode")

        monkeypatch.setattr(sim_harness, "_episode_loop", no_episode)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["calibrate", "--config", cfg, *flags]) == 1
        assert f"config error at {pointer}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("calibration*"))

    @pytest.mark.parametrize(
        "argv, taken",
        [
            (["run", "--config", "{cfg}", "--out", "{tmp}/missing/run.csv"], None),
            (["run", "--config", "{cfg}", "--format", "json", "--out", "{tmp}/taken"], "taken"),
            (["sweep", "--config", "{cfg}", "--out", "{tmp}/missing/sw"], None),
            (["sweep", "--config", "{cfg}", "--out", "{tmp}/sw"], "sw_100hz.csv"),
            (["calibrate", "--config", "{cfg}", "--out", "{tmp}/missing/cal"], None),
            (["calibrate", "--config", "{cfg}", "--out", "{tmp}/cal"], "cal.csv"),
            (["energy-drift", "--out", "{tmp}/missing/drift.csv"], None),
            (["energy-drift", "--out", "{tmp}/taken"], "taken"),
            (["phase-portrait", "--duration", "0.1", "--out", "{tmp}/missing/pp.csv"], None),
            (["phase-portrait", "--duration", "0.1", "--out", "{tmp}/taken"], "taken"),
        ],
        ids=[
            f"{cmd}-{kind}"
            for cmd in ("run", "sweep", "calibrate", "energy-drift", "phase-portrait")
            for kind in ("missing_dir", "is_dir")
        ],
    )
    def test_unwritable_out_exit_1_before_any_episode(
        self, tmp_path, capsys, monkeypatch, argv, taken
    ):
        # an --out in a missing directory, or a file to write that is a
        # directory, is a config error before the first episode
        def no_episode(sc):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(sim_harness, "_episode_loop", no_episode)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        if taken:
            (tmp_path / taken).mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(cfg=cfg, tmp=tmp_path) for a in argv]) == 1
        assert "config error at /out: " in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "flags, pointer",
        [
            kept_id("flags", 0, ["energy-drift", "--rates", "0"], "/rates"),
            kept_id("flags", 1, ["energy-drift", "--rates", "0.4"], "/rates"),
            kept_id("flags", 2, ["energy-drift", "--rates", "100,20.4"], "/rates"),
            kept_id("flags", 3, ["energy-drift", "--rates", "-5"], "/rates"),
            kept_id("flags", 4, ["energy-drift", "--rates", "inf"], "/rates"),
            kept_id("flags", 5, ["energy-drift", "--rates", "nan"], "/rates"),
            kept_id("flags", 6, ["phase-portrait", "--energies", "0.5,-0.25"], "/energies"),
            kept_id("flags", 7, ["phase-portrait", "--energies", "inf"], "/energies"),
            kept_id("flags", 8, ["phase-portrait", "--energies", "nan"], "/energies"),
            kept_id("flags", 9, ["phase-portrait", "--dt", "0"], "/dt"),
            kept_id("flags", 10, ["phase-portrait", "--dt", "-0.001"], "/dt"),
            kept_id("flags", 11, ["phase-portrait", "--dt", "inf"], "/dt"),
            kept_id("flags", 12, ["phase-portrait", "--dt", "nan"], "/dt"),
            kept_id("flags", 13, ["phase-portrait", "--duration", "0"], "/duration"),
            kept_id("flags", 14, ["phase-portrait", "--duration", "-1"], "/duration"),
            kept_id("flags", 15, ["phase-portrait", "--duration", "inf"], "/duration"),
            kept_id("flags", 16, ["phase-portrait", "--duration", "nan"], "/duration"),
            kept_id("flags", 17, ["phase-portrait", "--dt", "1e-320"], "/dt"),  # 1/dt overflows
            # no array of that size
            kept_id("flags", 18, ["energy-drift", "--rates", "1e300"], "/rates"),
            kept_id("flags", 19, ["energy-drift", "--rates", "2e6"], "/rates"),
        ],
    )
    def test_bad_drift_and_portrait_input_exit_1(
        self, tmp_path, capsys, monkeypatch, flags, pointer
    ):
        # rejected before the first episode and before any output
        def no_episode(sc):
            raise AssertionError("the command ran an episode")

        monkeypatch.setattr(cli, "run_scenario", no_episode)
        monkeypatch.setattr(sim_harness, "run_scenario", no_episode)
        assert main([*flags, "--out", str(tmp_path / "out.csv")]) == 1
        assert f"config error at {pointer}: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        rows = [(r["x_b"], r["x_b_range"][1], r["w_max"]) for r in meta["rows"]]
        assert (tmp_path / "cal.csv").read_bytes() == savetxt_table(lines[0].split(","), rows)

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
        table = []
        for rate in (20.0, 100.0):
            t = np.arange(int(rate) + 1) / rate
            x = t**3 + t**2 + t
            w_ic = ic_work_discrete(x, 3.0 * t**2 + 2.0 * t + 1.0, 6.0 * t + 2.0)
            w_fic = fic_work(StiffnessParams(0.0, 30.0, 0.1), x[0], x[-1])
            table.append((rate, w_ic, abs(w_ic - cli.ANALYTIC_IC_WORK), w_fic))
        assert (tmp_path / "drift.csv").read_bytes() == savetxt_table(rows[0].split(","), table)

    def test_phase_portrait_peaks_grow_with_energy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        records = capture_records(monkeypatch)
        code = main(
            ["phase-portrait", "--energies", "0.25,1.0", "--dt", "1e-3",
             "--duration", "1.0", "--out", "pp.csv"]
        )
        assert code == 0
        meta = json.loads((tmp_path / "pp.csv.meta.json").read_text())
        peaks = dict((e, p) for e, p in meta["peak_error_by_energy"])
        assert peaks[1.0] > peaks[0.25] > 0.0
        table = np.vstack(
            [
                np.column_stack((np.full(r.n_samples, e0), r.t, r.x_err[:, 0], r.xdot[:, 0]))
                for e0, r in zip((0.25, 1.0), records)
            ]
        )
        assert len(table) > 256  # more than one write chunk
        expected = savetxt_table(["energy", "t", "x_err", "xdot"], table)
        assert (tmp_path / "pp.csv").read_bytes() == expected

    def test_log_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FIC_LOG", "debug")
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", "log.csv"]) == 0


# Any JSON value: null, a bool, an int, a finite float, a string, or a list or
# object of them, nested.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from([f.name for f in fields(Scenario)]), value=JSON_VALUES)
def test_any_json_value_in_one_field_is_named_where_it_fails(name, value):
    doc = dict(BASE_CONFIG, **{name: value})
    try:
        scenario_from_dict(doc)
    except ConfigError as exc:
        assert exc.pointer != "/", exc.message
    try:
        Scenario(**doc)
    except ValueError:
        pass
