import csv

import numpy as np
import pytest

from plantmpc import bench, forecast as fc, simulate
from plantmpc.plant import PlantConfig


def synthetic_trace(
    r_e, price=0.05, r_w=None, r_ng=None, calendar=None, violations=None,
    load_e=None,
):
    """Hand-assembled trace for metric tests (no engine involved)."""
    y = len(r_e)
    r_e = np.asarray(r_e, dtype=float)
    realized = np.zeros((y, 4))
    realized[:, 0] = r_e if load_e is None else load_e
    realized[:, 3] = price
    residuals = np.zeros((y, 3))
    residuals[:, 0] = r_e
    residuals[:, 1] = 0.0 if r_w is None else r_w
    residuals[:, 2] = 0.0 if r_ng is None else r_ng
    vio = np.zeros((y, len(simulate.VIOLATION_TYPES)), dtype=bool)
    if violations is not None:
        vio[violations, 4] = True
    cost = realized[:, 3] * residuals[:, 0]
    return simulate.ClosedLoopTrace(
        controller="det:0.1", horizon=6,
        calendar=calendar or simulate.default_calendar(y),
        price_water=0.009, price_gas=0.018, price_demand=4.5,
        committed=np.zeros((y, 7)), implemented=np.zeros((y, 7)),
        realized=realized, storage=np.zeros((y, 2)), unmet=np.zeros((y, 2)),
        overmet=np.zeros((y, 2)), peak=np.maximum.accumulate(r_e),
        residuals=residuals, cost=cost, violations=vio,
        bounds_lower=np.zeros((y, 2)), bounds_upper=np.ones((y, 2)),
        monthly_peaks=[],
    )


class TestAnnualCost:
    def test_zero_trace(self):
        trace = synthetic_trace(np.zeros(100))
        phi, components = bench.annual_cost(trace)
        assert phi == 0.0
        assert components.total == 0.0

    def test_flat_year(self):
        # Flat 100 kW residual all year at 0.05 $/kWh with 4.5 $/kW demand.
        trace = synthetic_trace(np.full(8760, 100.0), price=0.05)
        phi, components = bench.annual_cost(trace)
        assert components.electricity == pytest.approx(0.05 * 100.0 * 8760)
        assert components.demand == pytest.approx(12 * 4.5 * 100.0)
        assert phi == pytest.approx(43_800.0 + 5_400.0)

    def test_two_month_toy_against_direct_summation(self):
        rng = np.random.default_rng(8)
        y = 48
        calendar = (23, 47)
        r_e = rng.uniform(50, 150, y)
        r_w = rng.uniform(0, 30, y)
        r_ng = rng.uniform(0, 20, y)
        price = rng.uniform(0.02, 0.09, y)
        trace = synthetic_trace(r_e, price=price, r_w=r_w, r_ng=r_ng,
                                calendar=calendar)
        phi, components = bench.annual_cost(trace)
        # independent spreadsheet-style summation
        expected_elec = sum(price[t] * r_e[t] for t in range(y))
        expected_water = 0.009 * sum(r_w)
        expected_gas = 0.018 * sum(r_ng)
        expected_demand = 4.5 * (max(r_e[:24]) + max(r_e[24:]))
        assert components.electricity == pytest.approx(expected_elec)
        assert components.water == pytest.approx(expected_water)
        assert components.gas == pytest.approx(expected_gas)
        assert components.demand == pytest.approx(expected_demand)
        assert phi == pytest.approx(
            expected_elec + expected_water + expected_gas + expected_demand
        )

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(9)
        trace = synthetic_trace(
            rng.uniform(0, 200, 300), price=rng.uniform(0.01, 0.1, 300),
            r_w=rng.uniform(0, 40, 300), r_ng=rng.uniform(0, 10, 300),
            calendar=(100, 250, 400),
        )
        phi, components = bench.annual_cost(trace)
        assert phi == pytest.approx(
            components.electricity + components.water + components.gas
            + components.demand, rel=1e-12,
        )

    def test_demand_term_invariant_to_permutation_within_month(self):
        rng = np.random.default_rng(10)
        r_e = rng.uniform(10, 90, 48)
        calendar = (23, 47)
        base = bench.annual_cost(
            synthetic_trace(r_e, price=0.0, calendar=calendar)
        )[1].demand
        shuffled = r_e.copy()
        rng.shuffle(shuffled[:24])
        rng.shuffle(shuffled[24:])
        permuted = bench.annual_cost(
            synthetic_trace(shuffled, price=0.0, calendar=calendar)
        )[1].demand
        assert permuted == pytest.approx(base)


class TestCostOfCentralPlant:
    def test_idle_plant_has_zero_ccp(self):
        # Residual equals the campus load when the plant does nothing.
        load = np.full(100, 120.0)
        trace = synthetic_trace(load, price=0.04, load_e=load)
        assert bench.summarize_trace(trace, 0).ccp == pytest.approx(0.0)

    def test_structure_controller_minus_campus(self):
        rng = np.random.default_rng(12)
        load = rng.uniform(50, 100, 100)
        r_e = load + rng.uniform(0, 30, 100)
        trace = synthetic_trace(r_e, price=0.05, load_e=load)
        phi, _ = bench.annual_cost(trace)
        nocp, nocp_components = bench.campus_only_cost(trace)
        assert nocp_components.water == 0.0 and nocp_components.gas == 0.0
        assert bench.summarize_trace(trace, 0).ccp == pytest.approx(phi - nocp)
        # campus-only includes both the energy term and the demand term
        assert nocp_components.electricity == pytest.approx(0.05 * load.sum())
        assert nocp_components.demand == pytest.approx(4.5 * load.max())


class TestValueOfStochastic:
    """The value of stochastic MPC: the ccp it saves against det MPC."""

    def test_examples(self):
        def ccp(r_e):
            trace = synthetic_trace(np.full(48, r_e), load_e=np.full(48, 50.0),
                                    calendar=(47,))
            return bench.summarize_trace(trace, 0).ccp

        # 10 kW less residual load for 48 h at 0.05 USD/kWh, and a 10 kW
        # lower monthly peak at 4.5 USD/kW.
        assert ccp(100.0) - ccp(90.0) == pytest.approx(0.05 * 10.0 * 48 + 4.5 * 10.0)
        assert ccp(55.5) - ccp(55.5) == 0.0


class TestViolationRate:
    def test_clean(self):
        assert bench.violation_rate(synthetic_trace(np.zeros(100))) == 0.0

    def test_five_in_thousand(self):
        trace = synthetic_trace(np.zeros(1000), violations=[1, 2, 3, 4, 5])
        assert bench.violation_rate(trace) == pytest.approx(0.5)

    def test_hand_counted(self):
        trace = synthetic_trace(np.zeros(50), violations=[0, 10, 20])
        assert bench.violation_rate(trace) == pytest.approx(100.0 * 3 / 50)


class TestValidationSet:
    def test_zero_amplitude_reproduces_base(self):
        base = fc.generate_synthetic_campus(1, days=4)
        out = bench.make_validation_set(base, 3, seed=0, relative_amplitude=0.0)
        for traj in out:
            assert np.array_equal(traj.values, base.values)

    def test_count_and_determinism(self):
        base = fc.generate_synthetic_campus(2, days=4)
        a = bench.make_validation_set(base, 5, seed=42)
        b = bench.make_validation_set(base, 5, seed=42)
        assert len(a) == 5
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)
        c = bench.make_validation_set(base, 5, seed=43)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_scenarios_differ_and_loads_clamped(self):
        base = fc.generate_synthetic_campus(3, days=4)
        out = bench.make_validation_set(base, 4, seed=7, relative_amplitude=0.2)
        assert not np.array_equal(out[0].values, out[1].values)
        for traj in out:
            assert np.all(traj.values[:3] >= 0.0)


def small_template(**overrides):
    defaults = dict(
        controller=simulate.ControllerSpec("det", beta=0.1),
        sim_hours=24, horizon=6, ar_order=6, history_hours=60,
    )
    defaults.update(overrides)
    return simulate.RunSpec(**defaults)


class TestRunBenchmark:
    def test_single_run_reduces_to_annual_cost(self):
        config = PlantConfig()
        base = fc.generate_synthetic_campus(5, days=5)
        template = small_template()
        spec = simulate.ControllerSpec("det", beta=0.1)
        report = bench.run_benchmark(
            config, [spec], base, 1, template, seed=3,
            validation_amplitude=0.0,
        )
        assert report.controllers == ["det:0.1"]
        row = report.by_controller("det:0.1")[0]
        zoh_seed, scen_seed = bench._scenario_seeds(3, 0)
        import dataclasses as dc

        trace = simulate.run_closed_loop(
            config,
            dc.replace(template, controller=spec, zoh_seed=zoh_seed,
                       scenario_seed=scen_seed),
            base,
        )
        phi, _ = bench.annual_cost(trace)
        nocp, _ = bench.campus_only_cost(trace)
        assert row.phi == pytest.approx(phi, rel=1e-12)
        assert row.ccp == pytest.approx(phi - nocp)

    def test_zero_uncertainty_vsmpc_zero(self):
        # Identical forecast data for det and sto (noiseless truth, exact
        # AR fit not needed: amplitude 0 keeps the validation equal to the
        # base and noise off keeps controllers aligned).
        config = PlantConfig()
        base = fc.generate_synthetic_campus(6, days=5)
        template = small_template(apply_storage_noise=False)
        report = bench.run_benchmark(
            config,
            [simulate.ControllerSpec("det", beta=0.0),
             simulate.ControllerSpec("sto", beta=0.0, scenarios=1)],
            base, 2, template, seed=1, validation_amplitude=0.05,
        )
        assert len(report.by_controller("det:0")) == 2
        assert len(report.by_controller("sto:0")) == 2

    def test_paired_noise_is_common_across_controllers(self):
        seeds_a = bench._scenario_seeds(9, 4)
        seeds_b = bench._scenario_seeds(9, 4)
        assert seeds_a == seeds_b
        assert bench._scenario_seeds(9, 5) != seeds_a

    def test_parallel_matches_serial(self):
        config = PlantConfig()
        base = fc.generate_synthetic_campus(7, days=5)
        template = small_template()
        controllers = [
            simulate.ControllerSpec("det", beta=0.1),
            simulate.ControllerSpec("perf"),
        ]
        serial = bench.run_benchmark(
            config, controllers, base, 2, template, seed=5, jobs=1
        )
        parallel = bench.run_benchmark(
            config, controllers, base, 2, template, seed=5, jobs=2
        )
        for label in ("det:0.1", "perf"):
            a = [r.phi for r in serial.by_controller(label)]
            b = [r.phi for r in parallel.by_controller(label)]
            assert a == pytest.approx(b, rel=1e-12)
        # Runs come back in task order, not in order of completion.
        assert [(r.controller, r.scenario, r.ccp) for r in serial.runs] == [
            (r.controller, r.scenario, r.ccp) for r in parallel.runs
        ]

    def test_pool_has_no_more_workers_than_runs(self, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        class InlineContext:
            Pool = InlinePool

        monkeypatch.setattr(bench.multiprocessing, "get_context",
                            lambda method: InlineContext)
        report = bench.run_benchmark(
            PlantConfig(), [simulate.ControllerSpec("perf")],
            fc.generate_synthetic_campus(7, days=5), 2, small_template(),
            seed=5, jobs=5000,
        )
        assert started == [2]
        assert [r.scenario for r in report.runs] == [0, 1]

    def test_failed_runs_reported_not_silently_dropped(self, monkeypatch):
        config = PlantConfig()
        base = fc.generate_synthetic_campus(8, days=5)
        template = small_template()

        real = simulate.run_closed_loop
        calls = {"n": 0}

        def flaky(cfg, spec, truth):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected failure")
            return real(cfg, spec, truth)

        monkeypatch.setattr(bench, "run_closed_loop", flaky)
        with pytest.warns(RuntimeWarning, match="injected failure"):
            report = bench.run_benchmark(
                config, [simulate.ControllerSpec("det", beta=0.1)], base, 2,
                template, seed=6, jobs=1,
            )
        assert len(report.failures()) == 1
        assert len(report.by_controller("det:0.1")) == 1

    def test_report_round_trips_to_json(self, tmp_path):
        config = PlantConfig()
        base = fc.generate_synthetic_campus(9, days=5)
        report = bench.run_benchmark(
            config, [simulate.ControllerSpec("perf")], base, 2,
            small_template(), seed=7,
        )
        path = tmp_path / "report.json"
        report.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert data["scenario_count"] == 2
        assert "perf" in data["aggregates"]
        agg = data["aggregates"]["perf"]
        probs = agg["ccp_cdf_probs"]
        assert probs == sorted(probs) and probs[-1] == 1.0
        iterations = [r.solver_iterations for r in report.runs]
        assert all(i > 0 for i in iterations)
        assert [r["solver_iterations"] for r in data["runs"]] == iterations
        report.write_runs_csv(tmp_path / "runs.csv")
        report.write_cdf_csv(tmp_path / "cdf.csv")
        with open(tmp_path / "runs.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "scenario", "controller", "phi_usd", "phi_nocp_usd", "ccp_usd",
                "electricity_usd", "water_usd", "gas_usd", "demand_usd",
                "violations_per_100h", "fallback_hours", "runtime_seconds",
                "solver_iterations",
            ]
            rows = list(reader)
        assert len(rows) == 2
        assert [float(r["ccp_usd"]) for r in rows] == [r.ccp for r in report.runs]
        assert [float(r["water_usd"]) for r in rows] == [
            r.components.water for r in report.runs
        ]
        assert [int(r["solver_iterations"]) for r in rows] == iterations

    def test_report_json_bytes(self, tmp_path):
        # The layout of the report JSON, including the run keys
        # "violations" and "components", at fixed values; a failed run is
        # listed under "failures" only.
        runs = [
            bench.RunResult(
                scenario=1, controller="det:0.1", phi=1250.5, phi_nocp=2000.25,
                ccp=-749.75,
                components=bench.CostComponents(800.0, 50.5, 100.0, 300.0),
                violation_rate=2.5, violation_counts={"fallback": 1, "unmet_cw": 0},
                fallback_hours=1, monthly_peaks=[9000.5, 8500.0],
                runtime_seconds=0.75, solver_iterations=42,
            ),
            bench.RunResult(scenario=0, controller="det:0.1", error="ValueError('x')"),
        ]
        report = bench.BenchmarkReport(["det:0.1"], 2, runs, wall_seconds=1.5)
        path = tmp_path / "report.json"
        report.write_json(path)
        assert path.read_text() == REPORT_JSON

    def test_paired_difference(self):
        report = bench.BenchmarkReport(
            controllers=["a", "b"], scenario_count=3,
            runs=[
                bench.RunResult(scenario=s, controller=c, phi=0.0, ccp=v)
                for s, c, v in [
                    (0, "a", 10.0), (1, "a", 12.0), (2, "a", 14.0),
                    (0, "b", 9.0), (1, "b", 10.0), (2, "b", 12.0),
                ]
            ],
        )
        mean, se, diffs = report.paired_difference("a", "b")
        assert mean == pytest.approx(5.0 / 3.0)
        assert diffs.tolist() == [1.0, 2.0, 2.0]
        assert se == pytest.approx(np.std(diffs, ddof=1) / np.sqrt(3))


REPORT_JSON = """\
{
  "controllers": [
    "det:0.1"
  ],
  "scenario_count": 2,
  "wall_seconds": 1.5,
  "aggregates": {
    "det:0.1": {
      "runs": 1,
      "phi_mean": 1250.5,
      "phi_se": 0.0,
      "ccp_mean": -749.75,
      "ccp_se": 0.0,
      "violation_rate_mean": 2.5,
      "violation_rate_se": 0.0,
      "mean_components": {
        "electricity": 800.0,
        "water": 50.5,
        "gas": 100.0,
        "demand": 300.0
      },
      "ccp_cdf_values": [
        -749.75
      ],
      "ccp_cdf_probs": [
        1.0
      ]
    }
  },
  "failures": [
    {
      "scenario": 0,
      "controller": "det:0.1",
      "error": "ValueError('x')"
    }
  ],
  "runs": [
    {
      "scenario": 1,
      "controller": "det:0.1",
      "phi": 1250.5,
      "phi_nocp": 2000.25,
      "ccp": -749.75,
      "components": {
        "electricity": 800.0,
        "water": 50.5,
        "gas": 100.0,
        "demand": 300.0
      },
      "violation_rate": 2.5,
      "violations": {
        "fallback": 1,
        "unmet_cw": 0
      },
      "monthly_peaks": [
        9000.5,
        8500.0
      ],
      "runtime_seconds": 0.75,
      "solver_iterations": 42
    }
  ]
}
"""
