import json

import numpy as np
import pytest

from plantmpc import cli, forecast as fc
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
            "run": {"horizon": 6, "lp_backend": "embedded", "sim_hourz": 3},
        }))
        code = run_cli(
            "run", "--controller", "det", "--config", str(cfg),
            "--data", str(data_csv), "--out", str(tmp_path / "t.csv"), *SMALL,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lp_backend" in err and "sim_hourz" in err
        assert "horizon" not in err


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
