"""Validation scenarios, batch closed-loop execution, and economic metrics.

A benchmark run evaluates every requested controller on an identical set
of validation disturbance trajectories with common random numbers for the
storage tracking noise, so controller differences are paired.  Metrics
follow the plant's billing structure, stated once in ``_bill``: hourly
utility purchases plus a monthly demand charge on the peak electrical draw,
reported both as totals and net of the campus-only cost that no controller
can affect.

Each run's result is a ``RunResult``.  Every recorded field is declared
once, with ``_recorded``: its columns in the runs CSV, its key in the
report JSON's run records, and whether the report aggregates its mean and
standard error per controller.  The CSV, the JSON records and the
aggregates all follow those declarations, in order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import multiprocessing
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .plant import DisturbanceTrajectory, PlantConfig
from .simulate import (
    ClosedLoopTrace,
    ControllerSpec,
    RunSpec,
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


def _bill(
    trace: ClosedLoopTrace, draw: np.ndarray, water: float, gas: float
) -> tuple[float, CostComponents]:
    """The bill for an hourly electrical draw (kW) and the run's water (gal)
    and gas (kWh): energy at each hour's price plus the demand charge on the
    draw's maximum in every (possibly partial) month of ``trace.calendar``.
    """
    components = CostComponents(
        electricity=float(trace.realized[:, 3] @ draw),
        water=float(trace.price_water * water),
        gas=float(trace.price_gas * gas),
        demand=float(trace.price_demand * sum(_monthly_peaks(draw, trace.calendar))),
    )
    return components.total, components


def annual_cost(trace: ClosedLoopTrace) -> tuple[float, CostComponents]:
    """Total cost of the trace: the bill for its residual purchases."""
    return _bill(trace, trace.residuals[:, 0], trace.residuals[:, 1].sum(),
                 trace.residuals[:, 2].sum())


def campus_only_cost(trace: ClosedLoopTrace) -> tuple[float, CostComponents]:
    """Cost of serving the campus electrical load with no central plant."""
    return _bill(trace, trace.realized[:, 0], 0.0, 0.0)


def violation_rate(trace: ClosedLoopTrace) -> float:
    """Hours with any violation flag, per 100 hours of operation."""
    return 100.0 * trace.violation_hours / len(trace)


def make_validation_set(
    base_truth: DisturbanceTrajectory,
    count: int,
    seed: int,
    relative_amplitude: float = 0.05,
) -> list[DisturbanceTrajectory]:
    """Perturbed copies of the base truth for closed-loop validation.

    Each trajectory adds an AR(1)-colored perturbation per channel with
    stationary standard deviation ``relative_amplitude`` times the channel
    mean magnitude; loads are clamped at zero.  Deterministic per seed and
    disjoint from forecast-scenario seeding.  A zero amplitude gives copies
    of the base truth; a negative or non-finite one raises ValueError.
    """
    if count < 1:
        raise ValueError("validation count must be >= 1")
    if not (math.isfinite(relative_amplitude) and relative_amplitude >= 0):
        raise ValueError(
            f"relative_amplitude must be a finite number >= 0, got {relative_amplitude}"
        )
    corr = 0.9  # lag-1 correlation of the perturbation
    scale = np.abs(base_truth.values).mean(axis=1) * relative_amplitude
    hours = len(base_truth)
    out = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 777)))
        values = base_truth.values.copy()
        if relative_amplitude > 0:
            innov = rng.standard_normal((4, hours))
            innov *= (scale * np.sqrt(1.0 - corr**2))[:, None]
            colored = np.empty((4, hours))
            colored[:, 0] = rng.standard_normal(4) * scale
            for t in range(1, hours):
                colored[:, t] = corr * colored[:, t - 1] + innov[:, t]
            values = values + colored
            values[:3] = np.maximum(values[:3], 0.0)
        out.append(DisturbanceTrajectory(values))
    return out


def _recorded(*csv: str, key: str | None = None, aggregate: bool = False,
              default=dataclasses.MISSING):
    """Declare a recorded field of ``RunResult``, with its ``default``.

    ``csv`` are its columns in the runs CSV: one for a plain value, one per
    field for a dataclass value.  ``key`` is its key in the report JSON's
    run records, where a dataclass value is written as a dict.  An
    ``aggregate`` field's ``<field>_mean`` and ``<field>_se`` over each
    controller's runs go into the report's aggregates.
    """
    return field(default=default, metadata=dict(csv=csv, key=key, aggregate=aggregate))


@dataclass
class RunResult:
    """One run's metrics, or the error that ended it."""

    scenario: int = _recorded("scenario", key="scenario")
    controller: str = _recorded("controller", key="controller")
    phi: float = _recorded("phi_usd", key="phi", aggregate=True, default=np.nan)
    phi_nocp: float = _recorded("phi_nocp_usd", key="phi_nocp", default=np.nan)
    ccp: float = _recorded("ccp_usd", key="ccp", aggregate=True, default=np.nan)
    components: CostComponents | None = _recorded(
        "electricity_usd", "water_usd", "gas_usd", "demand_usd",
        key="components", default=None)
    violation_rate: float = _recorded("violations_per_100h", key="violation_rate",
                                      aggregate=True, default=np.nan)
    violation_counts: dict | None = _recorded(key="violations", default=None)
    fallback_hours: int = _recorded("fallback_hours", default=0)
    monthly_peaks: list | None = _recorded(key="monthly_peaks", default=None)
    runtime_seconds: float = _recorded("runtime_seconds", key="runtime_seconds",
                                       default=0.0)
    solver_iterations: int = _recorded("solver_iterations", key="solver_iterations",
                                       default=0)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: The recorded fields of ``RunResult``, in declaration order.
_RECORDED = tuple(f for f in fields(RunResult) if "csv" in f.metadata)


def _runs_csv_row(run: RunResult) -> list:
    row = []
    for f in _RECORDED:
        if f.metadata["csv"]:
            value = getattr(run, f.name)
            row += dataclasses.astuple(value) if dataclasses.is_dataclass(value) else [value]
    return row


def _run_record(run: RunResult) -> dict:
    record = {}
    for f in _RECORDED:
        if f.metadata["key"]:
            value = getattr(run, f.name)
            record[f.metadata["key"]] = (dataclasses.asdict(value)
                                         if dataclasses.is_dataclass(value) else value)
    return record


def summarize_trace(trace: ClosedLoopTrace, scenario: int) -> RunResult:
    phi, components = annual_cost(trace)
    nocp, _ = campus_only_cost(trace)
    counts = trace.violation_counts()
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


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean (0 for a single value)."""
    se = values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


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
        return _mean_se(self.metric(label, name))

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
        return (*_mean_se(diffs), diffs)

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
            aggregate = {"runs": len(rows)}
            for f in _RECORDED:
                if f.metadata["aggregate"]:
                    mean, se = self.mean_se(label, f.name)
                    aggregate |= {f"{f.name}_mean": mean, f"{f.name}_se": se}
            comp = {
                f.name: float(np.mean([getattr(r.components, f.name) for r in rows]))
                for f in fields(CostComponents)
            }
            cdf_vals, cdf_probs = self.cdf(label, "ccp")
            aggregates[label] = {
                **aggregate,
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
            "runs": [_run_record(r) for r in self.runs if r.ok],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    def write_runs_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for f in _RECORDED for name in f.metadata["csv"]])
            writer.writerows(_runs_csv_row(r) for r in self.runs if r.ok)

    def write_cdf_csv(self, path, name: str = "ccp") -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
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
    if not controllers:
        raise ValueError("need at least one controller")
    started = time.perf_counter()
    validation = make_validation_set(
        base_truth, validation_count, seed, validation_amplitude
    )
    labels = [spec.label for spec in controllers]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate controller labels: {labels}")

    # Schedule expensive stochastic runs first for better load balance;
    # results come back in this order whatever the number of jobs.
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
            processes=min(jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(config, template, values, seed),
        ) as pool:
            results = list(pool.imap(_run_one, tasks, chunksize=1))
    else:
        _init_worker(config, template, values, seed)
        results = [_run_one(task) for task in tasks]

    report = BenchmarkReport(
        controllers=labels,
        scenario_count=validation_count,
        runs=results,
        wall_seconds=time.perf_counter() - started,
    )
    for failure in report.failures():
        warnings.warn(
            f"run failed: scenario {failure.scenario} controller "
            f"{failure.controller}: {failure.error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
