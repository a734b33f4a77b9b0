"""The benchmark's own tests, at smoke scale (N = q = 24, S = 5, 4 hours).

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import measure
import run
import tracing
import workloads
from plantmpc import simulate
from plantmpc.plant import PlantConfig
from conftest import REPO

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())

#: Every metric the benchmark reports, by mode; BENCHMARK.json lists the
#: ones the comparison between commits uses.
REPORTED = {
    0: ["warm_hour_ref", "mean_hour_ref", "warm_hour_ms", "hours_per_s", "setup_s",
        "ccp_usd", "violations_per_100h", "failed_hour_share", "peak_rss_mb"],
    1: ["forecast.refits", "forecast.fit_ar_ms", "forecast.covariance_ms",
        "forecast.mean_ms_per_h", "forecast.scenarios_ms_per_h",
        "restoration.restore_ms_per_h", "restoration.lp_share",
        "restoration.fallbacks", "restoration.correction_kw_mean",
        "mpc.build_ms_per_h", "mpc.expand_ms_per_h", "mpc.extract_ms_per_h",
        "mpc.lp_cols", "mpc.lp_rows", "mpc.lp_nnz", "mpc.lp_mb",
        "lp.solve_warm_ms", "lp.iters_warm_per_h", "lp.solve_cold_ms",
        "lp.iters_cold", "lp.pattern_changes", "lp.non_optimal",
        "simulate.storage_noise_ms", "simulate.loop_self_ms_per_h",
        "bench.validation_set_ms", "bench.summarize_ms", "trace.overhead_pct"],
}


def smoke_run(workload="det-monthend", seed=0):
    spec = workloads.make_spec(workloads.WORKLOADS[workload], seed, workloads.SMOKE)
    truth = workloads.make_truth(spec, seed)
    config = PlantConfig()
    return config, spec, truth, simulate.run_closed_loop(config, spec, truth)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as command:
        out, err = command.communicate(timeout=300)
    assert command.returncode == 0, out + err
    # Every process the command started ended before it did: its process
    # group is empty.
    with pytest.raises(ProcessLookupError):
        os.killpg(command.pid, 0)
    lines = out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    report = {line.split()[1]: line.split()[4] for line in lines
              if line.startswith("metric ")}
    assert sorted(report) == sorted(REPORTED[trace])
    for m in declared:
        assert report[m["name"]] == m["unit"]


def test_checks_accept_an_untouched_trace():
    config, spec, truth, trace = smoke_run()
    assert checks.check_trace(config, spec, truth, trace) == []


@pytest.mark.parametrize("field, tamper, message", [
    ("storage", lambda a: a.__setitem__((2, 0), a[2, 0] + 1.0), "tank identity"),
    ("unmet", lambda a: a.__setitem__((2, 1), a[1, 1] - 1.0), "unmet integrator"),
    ("overmet", lambda a: a.__setitem__((3, 0), a[2, 0] - 1.0), "overmet integrator"),
])
def test_checks_reject_a_tampered_trace(field, tamper, message):
    config, spec, truth, trace = smoke_run()
    values = getattr(trace, field).copy()
    tamper(values)
    bad = dataclasses.replace(trace, **{field: values})
    problems = checks.check_trace(config, spec, truth, bad)
    assert any(message in p for p in problems), problems


def _originals():
    owners = [(simulate, "month_timing")] + [
        (owner, attr) for owner, attr, _, _ in tracing.layer_calls()
    ]
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in owners]


def test_traced_run_restores_the_wrapped_attributes():
    before = _originals()
    traced = measure.run_once("sto-paper", 0, "smoke", traced=True)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
    plain = measure.run_once("sto-paper", 0, "smoke")
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["problems"] == plain["problems"] == []


def test_wrapped_attributes_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.HourClock(), tracing.Tracer()):
            raise RuntimeError("inside")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


def test_span_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    config, spec, truth, _ = smoke_run("det-monthend")
    with tracing.instrument(tracing.HourClock(), tracer):
        tracer.call(tracing.ROOT, simulate.run_closed_loop, (config, spec, truth), {})
    own = tracer.self_seconds()
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx(tracer.spans[0].seconds, rel=1e-9)
    layers = tracing.layer_metrics(tracer, spec.sim_hours)
    assert layers["lp.non_optimal"][0] == 0
    assert layers["mpc.lp_cols"][0] > 0


def test_each_hour_is_divided_by_the_reference_around_it():
    result = {"hours": 5, "references": [(1, 2.0), (3, 4.0)],
              "hour_cpu_s": [9.0, 3.0, 6.0, 8.0, 12.0]}
    assert run.hour_references(result) == [3.0, 3.0, 4.0, 4.0]
    assert run.hour_refs([result]) == [1.0, 2.0, 2.0, 3.0]


def test_reference_runs_between_hours_only_when_asked():
    timed = measure.run_once("det-monthend", 0, "smoke", reference=True)
    plain = measure.run_once("det-monthend", 0, "smoke")
    assert plain["references"] == []
    assert [t for t, _ in timed["references"]][0] == 1
    assert all(x > 0 for _, x in timed["references"])
    assert timed["fingerprint"] == plain["fingerprint"]
