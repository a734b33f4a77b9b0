"""The scenario-reduction quality gate (``experiments/scenario_reduction.py``)
at reduced size: N = q = 24, a 14-day history, two 48-hour windows, S = 12
reduced to 4 or 8."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "experiments" / "scenario_reduction.py"

SMALL = {"campus_days": 30, "start_days": [14, 16], "window_hours": 48,
         "horizon": 24, "ar_order": 24, "history_days": 14, "scenarios": 12,
         "candidates": [4, 8]}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("scenario_reduction", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def small_run(script, tmp_path_factory):
    folder = tmp_path_factory.mktemp("reduction")
    config = folder / "small.json"
    config.write_text(json.dumps(SMALL))
    out = folder / "in_process.json"
    assert script.main(["--config", str(config), "--out", str(out)]) == 0
    return config, out


def test_reproduces_its_json_bit_for_bit_with_two_workers(small_run, tmp_path):
    config, first = small_run
    second = tmp_path / "subprocess.json"
    subprocess.run([sys.executable, str(SCRIPT), "--config", str(config),
                    "--out", str(second), "--jobs", "2"],
                   cwd=REPO, check=True, capture_output=True, timeout=600)
    assert second.read_bytes() == first.read_bytes()


def test_every_window_runs_every_variant(small_run, script):
    result = json.loads(small_run[1].read_text())
    assert result["config"] == {**script.CONFIG, **SMALL}
    variants = {(r["window"], r["kept"], r["draw"]) for r in result["runs"]}
    assert variants == {(w, k, r) for w in (0, 1)
                        for k, r in ((None, 0), (None, 1), (4, 0), (8, 0))}
    passing = [int(k) for k, v in result["gate"].items() if v["passes"]]
    assert result["chosen"] == (min(passing) if passing else None)


def test_gate_passes_within_one_error_or_the_seed_difference(script):
    runs = []
    for w, (full, other, kept) in enumerate([(100.0, 90.0, 101.0),
                                             (200.0, 230.0, 199.0),
                                             (300.0, 290.0, 303.0)]):
        for k, r, value in ((None, 0, full), (None, 1, other), (5, 0, kept)):
            runs.append({"window": w, "kept": k, "draw": r, "ccp": value,
                         "unmet_kwh": 0.0, "violations_per_100h": float(w)})
    verdict = script.gate({"candidates": [5]}, runs)["5"]
    # ccp differences 1, -1, 3: mean 1, standard error 1.15.
    assert verdict["ccp"]["mean_difference"] == pytest.approx(1.0)
    assert verdict["ccp"]["passes"] and verdict["passes"]


@pytest.mark.parametrize("change, message", [
    ({"start_days": [14, 15]}, "must not overlap"),
    ({"start_days": [10, 16]}, "history"),
    ({"campus_days": 17}, "campus hours"),
    ({"candidates": [12]}, "below the sample size"),
    ({"beta": 0.0, "extra": 1}, "config keys"),
])
def test_bad_windows_rejected(script, change, message):
    with pytest.raises(ValueError, match=message):
        script.check({**script.CONFIG, **SMALL, **change})
