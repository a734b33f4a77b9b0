"""Benchmark workloads: fixed closed-loop windows whose inputs come from a seed.

Every workload runs ``simulate.run_closed_loop`` at paper scale, i.e. with
all ``RunSpec`` defaults (N = q = 168, 184-day history, refit every 24 h,
``scenario_resampling="run"``, HiGHS, reduced formulation) and the default
``PlantConfig``.  The input is a synthetic campus generated from the
workload seed and perturbed by ``bench.make_validation_set(base, 1, seed)``;
the scenario and storage-noise seeds derive from the same seed.

``SMOKE`` shrinks a workload (N = q = 24, S = 5, a few hours) for the
benchmark's own tests; the timed benchmark always runs ``PAPER``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from plantmpc import bench, forecast, simulate

#: Seed kept out of benchmark tuning; a later performance claim must also
#: hold on it.
HELD_OUT_SEED = 7919

#: Shifting the default billing calendar by this many hours puts the first
#: month end at hour 191, eight days after the run starts.
MONTHEND_SHIFT = 552


@dataclass(frozen=True)
class Scale:
    horizon: int
    ar_order: int
    history_days: int
    scenarios: int
    hours: int | None  # None keeps the workload's own window


PAPER = Scale(horizon=168, ar_order=168, history_days=184, scenarios=100, hours=None)
SMOKE = Scale(horizon=24, ar_order=24, history_days=14, scenarios=5, hours=4)
SCALES = {"paper": PAPER, "smoke": SMOKE}


@dataclass(frozen=True)
class Workload:
    """A closed-loop window; why each exists is recorded in BENCHMARK.json."""

    name: str
    kind: str
    beta: float
    hours: int
    calendar_shift: int


WORKLOADS = {
    w.name: w
    for w in (
        # 336 h cross the month end at hour 191 and 14 AR refits; the
        # horizon starts spanning two months at t = 25 and stops at 191.
        Workload("det-monthend", simulate.DETERMINISTIC, 0.1, 336, MONTHEND_SHIFT),
        # 10 hours from t = 0 stay inside the first month (end 743): one
        # cold solve and nine warm ones of the 200,910-column program.
        Workload("sto-paper", simulate.STOCHASTIC, 0.0, 10, 0),
        # The det-monthend inputs and calendar, without a forecaster.
        Workload("perf-monthend", simulate.PERFECT, 0.0, 336, MONTHEND_SHIFT),
    )
}


def derived_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one random stream of a workload seed."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def shifted_calendar(total_hours: int, shift: int) -> tuple[int, ...]:
    return tuple(
        end - shift
        for end in simulate.default_calendar(total_hours + shift)
        if end >= shift
    )


def make_spec(workload: Workload, seed: int, scale: Scale = PAPER) -> simulate.RunSpec:
    """RunSpec of the workload's full window."""
    hours = scale.hours or workload.hours
    spec = simulate.RunSpec(
        controller=simulate.ControllerSpec(
            workload.kind, beta=workload.beta, scenarios=scale.scenarios
        ),
        sim_hours=hours,
        horizon=scale.horizon,
        ar_order=scale.ar_order,
        history_hours=24 * scale.history_days,
        scenario_seed=derived_seed(seed, 1),
        zoh_seed=derived_seed(seed, 2),
    )
    if workload.calendar_shift:
        spec = dataclasses.replace(
            spec,
            calendar=shifted_calendar(
                hours + spec.horizon, workload.calendar_shift
            ),
        )
    return spec


def make_truth(spec: simulate.RunSpec, seed: int):
    """Validation trajectory for the seed, long enough for ``spec``."""
    days = -(-spec.required_truth_hours() // 24)
    base = forecast.generate_synthetic_campus(seed, days)
    return bench.make_validation_set(base, 1, seed)[0]
