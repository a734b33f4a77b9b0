"""Validation scenarios, batch closed-loop execution, and economic metrics.

A benchmark run evaluates every requested controller on an identical set
of validation disturbance trajectories with common random numbers for the
storage tracking noise, so controller differences are paired.  Metrics
follow the plant's billing structure: hourly utility purchases plus a
monthly demand charge on the peak residual electrical load, reported both
as totals and net of the campus-only cost that no controller can affect.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import warnings
from dataclasses import dataclass

import numpy as np

from .plant import DisturbanceTrajectory, PlantConfig
from .simulate import (
    ClosedLoopTrace,
    ControllerSpec,
    RunSpec,
    VIOLATION_TYPES,
    run_closed_loop,
)


@dataclass(frozen=True)
class CostComponents:
    electricity: float
    water: float
    gas: float
    demand: float

    @property
    def total(self) -> float:
        return self.electricity + self.water + self.gas + self.demand

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _monthly_peaks(series: np.ndarray, calendar) -> list[float]:
    peaks = []
    start = 0
    y = series.shape[0]
    for end in calendar:
        if start >= y:
            break
        peaks.append(float(series[start : min(end + 1, y)].max()))
        start = end + 1
    if start < y:
        peaks.append(float(series[start:].max()))
    return peaks


def annual_cost(
    trace: ClosedLoopTrace, calendar=None
) -> tuple[float, CostComponents]:
    """Total cost of the trace: energy purchases plus demand charges.

    Demand charges bill the realized monthly maxima of the residual
    electrical load for every (possibly partial) month the trace covers.
    """
    calendar = trace.calendar if calendar is None else tuple(calendar)
    price = trace.realized[:, 3]
    electricity = float(price @ trace.residuals[:, 0])
    water = float(trace.price_water * trace.residuals[:, 1].sum())
    gas = float(trace.price_gas * trace.residuals[:, 2].sum())
    demand = float(
        trace.price_demand * sum(_monthly_peaks(trace.residuals[:, 0], calendar))
    )
    components = CostComponents(electricity, water, gas, demand)
    return components.total, components


def campus_only_cost(
    trace: ClosedLoopTrace, calendar=None
) -> tuple[float, CostComponents]:
    """Cost of serving the campus electrical load with no central plant."""
    calendar = trace.calendar if calendar is None else tuple(calendar)
    load = trace.realized[:, 0]
    price = trace.realized[:, 3]
    electricity = float(price @ load)
    demand = float(trace.price_demand * sum(_monthly_peaks(load, calendar)))
    components = CostComponents(electricity, 0.0, 0.0, demand)
    return components.total, components


def cost_of_central_plant(trace: ClosedLoopTrace, calendar=None) -> float:
    """Controller-attributable cost: total minus the campus-only cost."""
    phi, _ = annual_cost(trace, calendar)
    nocp, _ = campus_only_cost(trace, calendar)
    return phi - nocp


def value_of_stochastic(ccp_det: float, ccp_sto: float) -> float:
    return ccp_det - ccp_sto


def violation_rate(trace: ClosedLoopTrace) -> float:
    """Hours with any violation flag, per 100 hours of operation."""
    return 100.0 * trace.violation_hours / len(trace)


def make_validation_set(
    base_truth: DisturbanceTrajectory,
    count: int,
    seed: int,
    relative_amplitude: float = 0.05,
    noise_phi: float = 0.9,
) -> list[DisturbanceTrajectory]:
    """Perturbed copies of the base truth for closed-loop validation.

    Each trajectory adds an AR(1)-colored perturbation per channel with
    stationary standard deviation ``relative_amplitude`` times the channel
    mean magnitude; loads are clamped at zero.  Deterministic per seed and
    disjoint from forecast-scenario seeding.
    """
    if count < 1:
        raise ValueError("validation count must be >= 1")
    scale = np.abs(base_truth.values).mean(axis=1) * relative_amplitude
    hours = len(base_truth)
    out = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 777)))
        values = base_truth.values.copy()
        if relative_amplitude > 0:
            innov = rng.standard_normal((4, hours))
            innov *= (scale * np.sqrt(1.0 - noise_phi**2))[:, None]
            colored = np.empty((4, hours))
            colored[:, 0] = rng.standard_normal(4) * scale
            for t in range(1, hours):
                colored[:, t] = noise_phi * colored[:, t - 1] + innov[:, t]
            values = values + colored
            values[:3] = np.maximum(values[:3], 0.0)
        out.append(DisturbanceTrajectory(values))
    return out


@dataclass
class RunResult:
    scenario: int
    controller: str
    phi: float = np.nan
    components: CostComponents | None = None
    phi_nocp: float = np.nan
    ccp: float = np.nan
    violation_rate: float = np.nan
    violation_counts: dict | None = None
    fallback_hours: int = 0
    monthly_peaks: list | None = None
    runtime_seconds: float = 0.0
    solver_iterations: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def summarize_trace(trace: ClosedLoopTrace, scenario: int) -> RunResult:
    phi, components = annual_cost(trace)
    nocp, _ = campus_only_cost(trace)
    counts = {
        kind: int(trace.violations[:, i].sum())
        for i, kind in enumerate(VIOLATION_TYPES)
    }
    return RunResult(
        scenario=scenario,
        controller=trace.controller,
        phi=phi,
        components=components,
        phi_nocp=nocp,
        ccp=phi - nocp,
        violation_rate=violation_rate(trace),
        violation_counts=counts,
        fallback_hours=counts["fallback"],
        monthly_peaks=trace.monthly_peaks,
        runtime_seconds=trace.runtime_seconds,
        solver_iterations=trace.solver_iterations,
    )


# Worker globals: the validation set is broadcast once per process rather
# than pickled per task.
_WORK: dict = {}


def _init_worker(config, template, validation_values, seed):
    _WORK["config"] = config
    _WORK["template"] = template
    _WORK["truths"] = [DisturbanceTrajectory(v) for v in validation_values]
    _WORK["seed"] = seed


def _scenario_seeds(seed: int, scenario: int) -> tuple[int, int]:
    zoh = int(np.random.SeedSequence((seed, scenario, 1)).generate_state(1)[0])
    scen = int(np.random.SeedSequence((seed, scenario, 2)).generate_state(1)[0])
    return zoh, scen


def _run_one(task) -> RunResult:
    scenario, spec = task
    config: PlantConfig = _WORK["config"]
    template: RunSpec = _WORK["template"]
    truth = _WORK["truths"][scenario]
    zoh_seed, scenario_seed = _scenario_seeds(_WORK["seed"], scenario)
    run_spec = dataclasses.replace(
        template,
        controller=spec,
        zoh_seed=zoh_seed,
        scenario_seed=scenario_seed,
    )
    try:
        trace = run_closed_loop(config, run_spec, truth)
        return summarize_trace(trace, scenario)
    except Exception as exc:  # noqa: BLE001 - isolate failed runs
        return RunResult(scenario=scenario, controller=spec.label, error=repr(exc))


@dataclass
class BenchmarkReport:
    controllers: list[str]
    scenario_count: int
    runs: list[RunResult]
    wall_seconds: float = 0.0

    def by_controller(self, label: str) -> list[RunResult]:
        rows = [r for r in self.runs if r.controller == label and r.ok]
        return sorted(rows, key=lambda r: r.scenario)

    def metric(self, label: str, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.by_controller(label)])

    def mean_se(self, label: str, name: str = "ccp") -> tuple[float, float]:
        values = self.metric(label, name)
        se = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
        return float(values.mean()), float(se)

    def paired_difference(
        self, label_a: str, label_b: str, name: str = "ccp"
    ) -> tuple[float, float, np.ndarray]:
        """Mean and standard error of metric(a) - metric(b), paired by
        scenario over runs where both controllers succeeded."""
        rows_a = {r.scenario: r for r in self.by_controller(label_a)}
        rows_b = {r.scenario: r for r in self.by_controller(label_b)}
        common = sorted(set(rows_a) & set(rows_b))
        diffs = np.array(
            [getattr(rows_a[s], name) - getattr(rows_b[s], name) for s in common]
        )
        if diffs.size == 0:
            return np.nan, np.nan, diffs
        se = diffs.std(ddof=1) / np.sqrt(diffs.size) if diffs.size > 1 else 0.0
        return float(diffs.mean()), float(se), diffs

    def expected_vsmpc(self, det_label: str, sto_label: str) -> tuple[float, float]:
        mean, se, _ = self.paired_difference(det_label, sto_label, "ccp")
        return mean, se

    def cdf(self, label: str, name: str = "ccp") -> tuple[np.ndarray, np.ndarray]:
        values = np.sort(self.metric(label, name))
        probs = np.arange(1, values.size + 1) / values.size
        return values, probs

    def failures(self) -> list[RunResult]:
        return [r for r in self.runs if not r.ok]

    def as_dict(self) -> dict:
        aggregates = {}
        for label in self.controllers:
            rows = self.by_controller(label)
            if not rows:
                aggregates[label] = {"runs": 0}
                continue
            phi_mean, phi_se = self.mean_se(label, "phi")
            ccp_mean, ccp_se = self.mean_se(label, "ccp")
            vio_mean, vio_se = self.mean_se(label, "violation_rate")
            comp = {
                key: float(np.mean([getattr(r.components, key) for r in rows]))
                for key in ("electricity", "water", "gas", "demand")
            }
            cdf_vals, cdf_probs = self.cdf(label, "ccp")
            aggregates[label] = {
                "runs": len(rows),
                "phi_mean": phi_mean, "phi_se": phi_se,
                "ccp_mean": ccp_mean, "ccp_se": ccp_se,
                "violation_rate_mean": vio_mean, "violation_rate_se": vio_se,
                "mean_components": comp,
                "ccp_cdf_values": cdf_vals.tolist(),
                "ccp_cdf_probs": cdf_probs.tolist(),
            }
        return {
            "controllers": self.controllers,
            "scenario_count": self.scenario_count,
            "wall_seconds": self.wall_seconds,
            "aggregates": aggregates,
            "failures": [
                {"scenario": r.scenario, "controller": r.controller, "error": r.error}
                for r in self.failures()
            ],
            "runs": [
                {
                    "scenario": r.scenario,
                    "controller": r.controller,
                    "phi": r.phi,
                    "phi_nocp": r.phi_nocp,
                    "ccp": r.ccp,
                    "components": r.components.as_dict() if r.components else None,
                    "violation_rate": r.violation_rate,
                    "violations": r.violation_counts,
                    "monthly_peaks": r.monthly_peaks,
                    "runtime_seconds": r.runtime_seconds,
                    "solver_iterations": r.solver_iterations,
                }
                for r in self.runs
                if r.ok
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    def write_runs_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(
                ["scenario", "controller", "phi_usd", "phi_nocp_usd", "ccp_usd",
                 "electricity_usd", "water_usd", "gas_usd", "demand_usd",
                 "violations_per_100h", "fallback_hours", "runtime_seconds",
                 "solver_iterations"]
            )
            for r in self.runs:
                if not r.ok:
                    continue
                writer.writerow(
                    [r.scenario, r.controller, r.phi, r.phi_nocp, r.ccp,
                     r.components.electricity, r.components.water,
                     r.components.gas, r.components.demand,
                     r.violation_rate, r.fallback_hours, r.runtime_seconds,
                     r.solver_iterations]
                )

    def write_cdf_csv(self, path, name: str = "ccp") -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["controller", name, "cumulative_probability"])
            for label in self.controllers:
                values, probs = self.cdf(label, name)
                for v, p in zip(values, probs):
                    writer.writerow([label, v, p])


def run_benchmark(
    config: PlantConfig,
    controllers: list[ControllerSpec],
    base_truth: DisturbanceTrajectory,
    validation_count: int,
    template: RunSpec,
    seed: int = 0,
    jobs: int = 1,
    validation_amplitude: float = 0.05,
) -> BenchmarkReport:
    """Run every controller over a common validation set; paired noise.

    Failed runs are reported and excluded from aggregates, never silently
    dropped.
    """
    import time as _time

    if not controllers:
        raise ValueError("need at least one controller")
    started = _time.perf_counter()
    validation = make_validation_set(
        base_truth, validation_count, seed, validation_amplitude
    )
    labels = [spec.label for spec in controllers]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate controller labels: {labels}")

    # Schedule expensive stochastic runs first for better load balance.
    tasks = [
        (scenario, spec)
        for spec in sorted(
            controllers, key=lambda s: (s.kind != "sto", s.kind != "perf")
        )
        for scenario in range(validation_count)
    ]
    values = [t.values for t in validation]
    if jobs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(config, template, values, seed),
        ) as pool:
            results = list(pool.imap_unordered(_run_one, tasks, chunksize=1))
    else:
        _init_worker(config, template, values, seed)
        results = [_run_one(task) for task in tasks]

    report = BenchmarkReport(
        controllers=labels,
        scenario_count=validation_count,
        runs=results,
        wall_seconds=_time.perf_counter() - started,
    )
    for failure in report.failures():
        warnings.warn(
            f"run failed: scenario {failure.scenario} controller "
            f"{failure.controller}: {failure.error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
