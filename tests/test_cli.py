import csv
import dataclasses
import json

import numpy as np
import pytest

from plantmpc import cli, forecast as fc, simulate
from plantmpc.plant import DisturbanceTrajectory


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "truth.csv"
    traj = fc.generate_synthetic_campus(11, days=20)
    fc.write_trajectory_csv(path, traj)
    return path


@pytest.fixture
def zero_csv(tmp_path):
    path = tmp_path / "zero.csv"
    fc.write_trajectory_csv(path, DisturbanceTrajectory(np.zeros((4, 400))))
    return path


SMALL = ["--horizon", "6", "--ar-order", "6", "--history-days", "3"]


class TestGenData:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run_cli("gen-data", "--days", "365", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 8760 + 1

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen-data", "--days", "10", "--seed", "4", "--out", str(a))
        run_cli("gen-data", "--days", "10", "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_days_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--days", "0", "--out", str(tmp_path / "x.csv"))
        assert err.value.code == 2

    @pytest.mark.parametrize("channel,field,value", [
        ("load_elec", "base", "x"),
        ("load_cw", "daily_amp", True),
        ("load_hw", "noise_std", -5),
        ("load_hw", "noise_phi", 2.0),
        ("price_elec", "noise_clip", 0),
        ("load_cw", "floor", float("nan")),
        (None, "start_weekday", "mon"),
        (None, "start_weekdy", 3),
        (None, "load_cww", {"base": 1.0}),
    ])
    def test_malformed_profile_is_a_cli_error(self, tmp_path, capsys,
                                              channel, field, value):
        # "x" and "mon" once raised numpy tracebacks, a noise_phi of 2 a
        # non-finite trajectory, a negative noise_std wrote a noiseless
        # channel, and a misspelt top-level key wrote the default week.
        profile = dataclasses.asdict(fc.DEFAULT_PROFILE)
        (profile[channel] if channel else profile)[field] = value
        path, out = tmp_path / "p.json", tmp_path / "d.csv"
        path.write_text(json.dumps(profile))
        code = run_cli("gen-data", "--days", "2", "--profile", str(path),
                       "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("profile", [
        [dataclasses.asdict(fc.DEFAULT_PROFILE)], "default", 3,
    ])
    def test_profile_not_an_object_is_a_cli_error(self, tmp_path, capsys, profile):
        path, out = tmp_path / "p.json", tmp_path / "d.csv"
        path.write_text(json.dumps(profile))
        code = run_cli("gen-data", "--days", "2", "--profile", str(path),
                       "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "object" in err
        assert not out.exists()

    def test_default_profile_read_back_from_json(self, tmp_path):
        path, a, b = tmp_path / "p.json", tmp_path / "a.csv", tmp_path / "b.csv"
        path.write_text(json.dumps(dataclasses.asdict(fc.DEFAULT_PROFILE)))
        run_cli("gen-data", "--days", "3", "--profile", str(path), "--out", str(a))
        run_cli("gen-data", "--days", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_zero_disturbance_zero_cost(self, tmp_path, zero_csv, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--controller", "det", "--data", str(zero_csv),
            "--out", str(out), *SMALL, "--sim-hours", "24",
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "total cost 0.00" in printed
        summary = json.loads(
            (tmp_path / "trace.summary.json").read_text()
        )
        assert summary["total_stage_cost"] == 0.0

    def test_stochastic_single_scenario_matches_det_on_zero_noise(
        self, tmp_path, zero_csv
    ):
        det_out = tmp_path / "det.csv"
        sto_out = tmp_path / "sto.csv"
        common = ["--data", str(zero_csv), *SMALL, "--sim-hours", "24",
                  "--seed", "5"]
        run_cli("run", "--controller", "det", "--beta", "0", "--out",
                str(det_out), *common)
        run_cli("run", "--controller", "sto", "--beta", "0", "--scenarios",
                "1", "--out", str(sto_out), *common)
        det_summary = json.loads((tmp_path / "det.summary.json").read_text())
        sto_summary = json.loads((tmp_path / "sto.summary.json").read_text())
        assert det_summary["total_stage_cost"] == pytest.approx(
            sto_summary["total_stage_cost"], abs=1e-9
        )

    def test_trace_csv_reads_back_as_numbers(self, tmp_path, data_csv):
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--controller", "det", "--data", str(data_csv),
            "--out", str(out), *SMALL, "--sim-hours", "24",
        ) == 0
        with open(out, newline="") as fh:
            rows = [
                {k: float(v) for k, v in row.items() if k not in ("hour", "violation")}
                for row in csv.DictReader(fh)
            ]
        assert len(rows) == 24
        summary = json.loads((tmp_path / "trace.summary.json").read_text())
        assert sum(r["stage_cost_usd"] for r in rows) == pytest.approx(
            summary["total_stage_cost"], rel=1e-9
        )

    def test_missing_data_file_names_path(self, tmp_path, capsys):
        code = run_cli(
            "run", "--controller", "det", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_controller_token(self, tmp_path, zero_csv, capsys):
        code = run_cli(
            "run", "--controller", "fuzzy", "--data", str(zero_csv),
            "--out", str(tmp_path / "t.csv"), *SMALL,
        )
        assert code == 1
        assert "fuzzy" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "plant": {"cap_cw": 25_000.0},
            "run": {"horizon": 12, "ar_order": 6, "history_days": 3,
                    "sim_hours": 12},
        }))
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(out), "--horizon", "6",
        )
        assert code == 0
        # flag horizon=6 overrides config horizon=12: trace exists with
        # 12 simulated hours regardless
        assert len(out.read_text().splitlines()) == 13

    def test_plant_buffer_is_a_cli_error(self, tmp_path, data_csv, capsys):
        # The storage buffer is the controller's beta; a plant-level buffer
        # was once accepted and silently ignored.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plant": {"buffer": 0.3}}))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"), *SMALL,
            "--sim-hours", "2",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bad plant config" in err and "buffer" in err

    @pytest.mark.parametrize("value", [True, "9"])
    def test_plant_value_not_a_number_is_a_cli_error(self, tmp_path, data_csv,
                                                     capsys, value):
        # true once built a 1 kWh tank, and "9" raised a TypeError that named
        # no field.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plant": {"cap_cw": value, "pmax_cw": value}}))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"), *SMALL,
            "--sim-hours", "2",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad plant config: cap_cw must be a real number, got {value!r}\n"
        )

    def test_plant_without_hot_water_tank_runs(self, tmp_path, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plant": {"cap_hw": 0, "pmax_hw": 0}}))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"), *SMALL,
            "--sim-hours", "6",
        )
        assert code == 0
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["hours"] == 6
        assert summary["final_storage_kwh"]["hw"] == 0.0

    def test_malformed_config(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "malformed" in capsys.readouterr().err


class TestNumericFlags:
    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "flag", ["--scenarios", "--horizon", "--ar-order", "--history-days",
                 "--sim-hours"],
    )
    def test_zero_is_a_usage_error(self, tmp_path, data_csv, command, flag):
        # Zero once fell through to the config or built-in default.
        argv = {
            "run": ["run", "--controller", "sto", "--out", str(tmp_path / "t.csv")],
            "bench": ["bench", "--controllers", "sto", "--validation-count", "1",
                      "--out", str(tmp_path / "r.json")],
        }[command]
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--data", str(data_csv), *SMALL, "--sim-hours", "2",
                    flag, "0")
        assert err.value.code == 2

    def test_unknown_run_config_key_rejected(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "run": {"horizon": 6, "lp_backend": "embedded",
                    "scenario_resampling": "run", "sim_hourz": 3},
        }))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"), *SMALL,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lp_backend" in err and "sim_hourz" in err
        assert "scenario_resampling" in err
        assert "horizon" not in err

    @pytest.mark.parametrize("key", ["horizon", "ar_order"])
    def test_zero_in_run_config_is_a_cli_error(self, tmp_path, data_csv, capsys, key):
        # RunSpec once accepted it and the run failed with a traceback.
        run_cfg = {"horizon": 6, "ar_order": 6, "history_days": 3, "sim_hours": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {**run_cfg, key: 0}}))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert f"{key} must be >= 1" in capsys.readouterr().err


COMMANDS = {
    "run det": ["run", "--controller", "det", "--out", "t.csv"],
    "run sto": ["run", "--controller", "sto", "--out", "t.csv"],
    "bench": ["bench", "--controllers", "det", "--validation-count", "1",
              "--out", "r.json"],
}


def small_run(tmp_path, data_csv, command, *extra, run_cfg=None, **sections):
    """One small run or bench, optionally with a config file."""
    argv = [a if a not in ("t.csv", "r.json") else str(tmp_path / a)
            for a in COMMANDS[command]]
    cfg = {"run": {"horizon": 6, "ar_order": 6, "history_days": 3,
                   "sim_hours": 2, "scenarios": 2, **(run_cfg or {})},
           **sections}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run_cli(*argv, "--config", str(path), "--data", str(data_csv), *extra)


class TestNegativeSeed:
    # Each once ended in numpy's "expected non-negative integer" traceback
    # partway through the run.
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_is_a_usage_error(self, tmp_path, data_csv, command):
        with pytest.raises(SystemExit) as err:
            small_run(tmp_path, data_csv, command, "--seed", "-1")
        assert err.value.code == 2

    def test_gen_data_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--days", "2", "--seed", "-1",
                    "--out", str(tmp_path / "d.csv"))
        assert err.value.code == 2

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_is_a_cli_error(self, tmp_path, data_csv, capsys, command):
        code = small_run(tmp_path, data_csv, command, run_cfg={"seed": -1})
        assert code == 1
        assert "run.seed must be >= 0" in capsys.readouterr().err

    def test_zero_runs(self, tmp_path, data_csv):
        assert small_run(tmp_path, data_csv, "run sto", "--seed", "0") == 0


class TestConfigTypes:
    @pytest.mark.parametrize("section,key,value", [
        ("run", "horizon", "24"),
        ("run", "horizon", 24.5),
        ("run", "horizon", True),
        ("run", "seed", 1.0),
        ("run", "initial_soc", "half"),
        ("run", "initial_soc", False),
        ("run", "beta_det", None),
        ("run", "apply_storage_noise", "no"),
        ("run", "apply_storage_noise", 0),
        ("validation", "amplitude", "x"),
        ("validation", "amplitude", True),
    ])
    def test_mistyped_value_is_a_cli_error_naming_the_key(
        self, tmp_path, data_csv, capsys, section, key, value
    ):
        # "24", 24.5 and "half" once raised TypeError tracebacks, "x" a
        # numpy UFuncNoLoopError, and "no" switched the storage noise on.
        sections = {"validation": {key: value}} if section == "validation" else {}
        run_cfg = {key: value} if section == "run" else None
        code = small_run(tmp_path, data_csv, "bench", run_cfg=run_cfg, **sections)
        assert code == 1
        assert f"{section}.{key} must be" in capsys.readouterr().err

    def test_negative_amplitude_is_a_cli_error(self, tmp_path, data_csv, capsys):
        code = small_run(tmp_path, data_csv, "bench",
                         validation={"amplitude": -0.1})
        assert code == 1
        assert "validation.amplitude must be >= 0" in capsys.readouterr().err

    def test_unknown_validation_key_rejected(self, tmp_path, data_csv, capsys):
        code = small_run(tmp_path, data_csv, "bench", validation={"amplitud": 0.1})
        assert code == 1
        assert "amplitud" in capsys.readouterr().err

    def test_integers_where_numbers_are_expected(self, tmp_path, data_csv):
        code = small_run(tmp_path, data_csv, "bench",
                         run_cfg={"initial_soc": 1, "beta_det": 0},
                         validation={"amplitude": 0})
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert set(report["aggregates"]) == {"det:0"}

    def test_storage_noise_switch_is_read(self, tmp_path, data_csv):
        finals = []
        for flag in (True, False):
            code = small_run(tmp_path, data_csv, "run det",
                             run_cfg={"apply_storage_noise": flag})
            assert code == 0
            summary = json.loads((tmp_path / "t.summary.json").read_text())
            finals.append(summary["final_storage_kwh"])
        assert finals[0] != finals[1]


#: For each ``cli.RUN_KEYS`` key: the controller token it is read under, a
#: value other than ``small_run``'s, and the ``RunSpec`` fields that value
#: sets, ``controller`` holding the ``ControllerSpec`` fields.
SET_BY_KEY = {
    "beta_det": ("det", 0.3, {"controller": {"beta": 0.3}}),
    "beta_sto": ("sto", 0.3, {"controller": {"beta": 0.3}}),
    "scenarios": ("sto", 7, {"controller": {"scenarios": 7}}),
    "horizon": ("sto", 5, {"horizon": 5}),
    "ar_order": ("sto", 5, {"ar_order": 5}),
    "history_days": ("sto", 4, {"history_hours": 96}),
    "sim_hours": ("sto", 3, {"sim_hours": 3}),
    "refit_every": ("sto", 5, {"refit_every": 5}),
    "seed": ("sto", 9, {"scenario_seed": 9, "zoh_seed": 10}),
    "apply_storage_noise": ("sto", False, {"apply_storage_noise": False}),
    "initial_soc": ("sto", 0.25, {"initial_soc": 0.25}),
}


class TestRunKeys:
    """Every run config key reaches the spec that ``plantmpc run`` builds."""

    @staticmethod
    def built_spec(tmp_path, data_csv, monkeypatch, kind, run_cfg=None):
        class Built(Exception):
            pass

        def capture(config, spec, truth):
            raise Built(spec)

        monkeypatch.setattr(simulate, "run_closed_loop", capture)
        with pytest.raises(Built) as built:
            small_run(tmp_path, data_csv, f"run {kind}", run_cfg=run_cfg)
        return built.value.args[0]

    @pytest.mark.parametrize("key", sorted(cli.RUN_KEYS))
    def test_key_sets_its_spec_fields(self, tmp_path, data_csv, monkeypatch, key):
        kind, value, changes = SET_BY_KEY[key]
        changes = dict(changes)
        base = self.built_spec(tmp_path, data_csv, monkeypatch, kind)
        spec = self.built_spec(tmp_path, data_csv, monkeypatch, kind, {key: value})
        controller = dataclasses.replace(base.controller,
                                         **changes.pop("controller", {}))
        expected = dataclasses.replace(base, controller=controller, **changes)
        assert spec != base
        assert spec == expected


    @pytest.mark.parametrize("kind,beta", [("det", 0.1), ("sto", 0.0)])
    def test_bare_run_takes_the_spec_defaults(self, tmp_path, monkeypatch, kind, beta):
        # Every setting but the buffer is RunSpec's and ControllerSpec's
        # default; the run spans the data after the history.
        expected = simulate.RunSpec(
            controller=simulate.ControllerSpec(kind, beta=beta), sim_hours=2)
        data = tmp_path / "long.csv"
        fc.write_trajectory_csv(data, DisturbanceTrajectory(
            np.zeros((4, expected.required_truth_hours()))))

        class Built(Exception):
            pass

        def capture(config, spec, truth):
            raise Built(spec)

        monkeypatch.setattr(simulate, "run_closed_loop", capture)
        with pytest.raises(Built) as built:
            run_cli("run", "--controller", kind, "--data", str(data),
                    "--out", str(tmp_path / "t.csv"))
        assert built.value.args[0] == expected


class TestBench:
    def test_single_validation_run(self, tmp_path, data_csv, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--data", str(data_csv), "--validation-count", "1",
            "--controllers", "det:0.1,perf", "--out", str(out), *SMALL,
            "--sim-hours", "24",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["scenario_count"] == 1
        assert set(report["aggregates"]) == {"det:0.1", "perf"}
        assert (tmp_path / "report.runs.csv").exists()
        assert (tmp_path / "report.ccp_cdf.csv").exists()

    def test_buffer_sweep_tokens(self, tmp_path, data_csv):
        out = tmp_path / "sweep.json"
        code = run_cli(
            "bench", "--data", str(data_csv), "--validation-count", "1",
            "--controllers", "det:0,det:0.1,det:0.2", "--out", str(out),
            *SMALL, "--sim-hours", "12",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["aggregates"]) == {"det:0", "det:0.1", "det:0.2"}

    def test_unknown_token_rejected(self, tmp_path, data_csv, capsys):
        code = run_cli(
            "bench", "--data", str(data_csv), "--validation-count", "1",
            "--controllers", "det:0.1,magic", "--out", str(tmp_path / "r.json"),
            *SMALL,
        )
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_jobs_flag(self, tmp_path, data_csv):
        out = tmp_path / "par.json"
        code = run_cli(
            "bench", "--data", str(data_csv), "--validation-count", "2",
            "--controllers", "perf", "--out", str(out), *SMALL,
            "--sim-hours", "12", "--jobs", "2",
        )
        assert code == 0
        assert json.loads(out.read_text())["scenario_count"] == 2
