"""Receding-horizon closed-loop engine for the three controllers.

Each simulated hour: fit/refresh the disturbance forecast, build and solve
the controller's program against the active storage bounds, repair the
committed action against the realized loads, advance the tanks with the
intra-hour tracking noise, book any unmet/overmet energy from capacity
clamps, refresh the bounds, and ratchet the monthly peak.

Per-hour bookkeeping (documented order, mirrored by the test oracle):

1. solve controller program, commit the first-stage action
2. restore the action against realized loads (zero action on failure)
3. realized residual demands and stage cost from the implemented action
4. storage update E <- E - P + v
5. on a restoration fallback the campus loads drain the tanks directly
   (production is off but the distribution loop still draws)
6. capacity clamp via update_storage_bounds; clamp amounts accumulate
   into the unmet/overmet integrators and raise violation flags
7. peak <- max(peak, realized r_e); the register resets after the last
   hour of each month
"""

from __future__ import annotations

import bisect
import csv
import json
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp, mpc, restoration
from .forecast import (
    ForecastDistribution,
    ScenarioSet,
    _jittered_cholesky,
    _load_floor,
    estimate_zoh_variances,
    fit_ar,
    forecast as ar_forecast,
    mean_forecast,
    zoh_noise,
    zoh_std,
)
from .plant import (
    CHANNELS,
    UNITS,
    ZERO_ACTION,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    residual_demands,
    stage_cost,
)

DETERMINISTIC = "det"
STOCHASTIC = "sto"
PERFECT = "perf"

VIOLATION_TYPES = ("overflow_cw", "dryup_cw", "overflow_hw", "dryup_hw", "fallback")
_OVERFLOW_IDX = (0, 2)
_DRYUP_IDX = (1, 3)
_FALLBACK_IDX = 4

#: Days per month of the billing calendar.
MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


@dataclass(frozen=True)
class ControllerSpec:
    """Which controller to run and its tuning."""

    kind: str
    beta: float = 0.0
    scenarios: int = 100

    def __post_init__(self) -> None:
        if self.kind not in (DETERMINISTIC, STOCHASTIC, PERFECT):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if not 0.0 <= self.beta < 0.5:
            raise ValueError("beta must lie in [0, 0.5)")
        if self.kind == STOCHASTIC and self.scenarios < 1:
            raise ValueError("stochastic controller needs >= 1 scenario")

    @property
    def label(self) -> str:
        if self.kind == PERFECT:
            return "perf"
        return f"{self.kind}:{self.beta:g}"


@dataclass(frozen=True)
class RunSpec:
    """Everything one closed-loop run needs besides the plant and truth.

    Every controller builds ``mpc.build_reduced`` each hour and solves it
    on one warm-started ``lp.HighsSession`` per run.  The fields set the
    controller, the horizon and AR forecast model, the billing calendar
    (month-end hours; empty means ``default_calendar``), the scenario and
    storage-noise random streams, and the initial state of charge.
    """

    controller: ControllerSpec
    sim_hours: int
    horizon: int = 168
    ar_order: int = 168
    history_hours: int = 184 * 24
    calendar: tuple[int, ...] = ()
    refit_every: int = 24
    scenario_seed: int = 1
    zoh_seed: int = 2
    apply_storage_noise: bool = True
    scenario_resampling: str = "run"
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        if self.sim_hours < 1:
            raise ValueError("sim_hours must be >= 1")
        if self.history_hours < 2 * self.ar_order + 1:
            raise ValueError("history too short for the AR order")
        if self.scenario_resampling not in ("run", "refit", "hourly"):
            raise ValueError("scenario_resampling must be run|refit|hourly")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must lie in [0, 1]")
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")

    def resolved_calendar(self) -> tuple[int, ...]:
        if self.calendar:
            return self.calendar
        return default_calendar(self.sim_hours + self.horizon)

    def required_truth_hours(self) -> int:
        return self.history_hours + self.sim_hours + self.horizon


def default_calendar(total_hours: int, start_month: int = 0) -> tuple[int, ...]:
    """Month-end hour indices (last hour of each month), hours from 0."""
    ends = []
    hours = 0
    month = start_month
    while hours <= total_hours:
        hours += MONTH_DAYS[month % 12] * 24
        ends.append(hours - 1)
        month += 1
    return tuple(ends)


def month_timing(t: int, calendar, n: int) -> mpc.HorizonTiming:
    """Timing for the horizon starting at hour ``t``.

    The month end is the smallest calendar entry >= t; on the closing hour
    itself the carried peak comes from the second-month register.
    """
    cal = list(calendar)
    if cal != sorted(cal):
        raise ValueError("calendar must be sorted ascending")
    idx = bisect.bisect_left(cal, t)
    if idx == len(cal):
        raise ValueError(f"hour {t} beyond the last calendar month end {cal[-1]}")
    return mpc.HorizonTiming(t=t, n=n, month_end=cal[idx])


class BoundsUpdate(NamedTuple):
    clamped: float
    lower: float
    upper: float
    ul_increment: float
    ol_increment: float


def update_storage_bounds(e_next: float, cap: float, beta: float) -> BoundsUpdate:
    """Post-transition storage clamp and bounds refresh (five cases).

    Interior states restore the buffered box; states inside a buffer zone
    relax the nearer bound to the state; states outside the physical tank
    are clamped and the excess is booked as overmet/unmet energy.
    """
    if cap <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 <= beta < 0.5:
        raise ValueError("beta must lie in [0, 0.5)")
    lo, hi = beta * cap, (1.0 - beta) * cap
    if e_next > cap:
        return BoundsUpdate(cap, lo, cap, 0.0, e_next - cap)
    if e_next < 0.0:
        return BoundsUpdate(0.0, 0.0, hi, -e_next, 0.0)
    if e_next > hi:
        return BoundsUpdate(e_next, lo, e_next, 0.0, 0.0)
    if e_next < lo:
        return BoundsUpdate(e_next, e_next, hi, 0.0, 0.0)
    return BoundsUpdate(e_next, lo, hi, 0.0, 0.0)


@dataclass
class ClosedLoopTrace:
    """Hour-by-hour record of one closed-loop run."""

    controller: str
    horizon: int
    calendar: tuple[int, ...]
    price_water: float
    price_gas: float
    price_demand: float
    committed: np.ndarray
    implemented: np.ndarray
    realized: np.ndarray
    storage: np.ndarray
    unmet: np.ndarray
    overmet: np.ndarray
    peak: np.ndarray
    residuals: np.ndarray
    cost: np.ndarray
    violations: np.ndarray
    bounds_lower: np.ndarray
    bounds_upper: np.ndarray
    monthly_peaks: list[float]
    solver_iterations: int = 0
    runtime_seconds: float = 0.0

    def __len__(self) -> int:
        return self.cost.shape[0]

    def violation_flags(self, kind: str) -> np.ndarray:
        return self.violations[:, VIOLATION_TYPES.index(kind)]

    @property
    def violation_hours(self) -> int:
        return int(np.any(self.violations, axis=1).sum())

    def summary(self) -> dict:
        counts = {
            kind: int(self.violations[:, i].sum())
            for i, kind in enumerate(VIOLATION_TYPES)
        }
        return {
            "controller": self.controller,
            "hours": len(self),
            "total_stage_cost": float(self.cost.sum()),
            "monthly_peaks_kw": [float(p) for p in self.monthly_peaks],
            "violation_hours": self.violation_hours,
            "violations": counts,
            "final_storage_kwh": {
                "cw": float(self.storage[-1, 0]),
                "hw": float(self.storage[-1, 1]),
            },
            "unmet_kwh": {
                "cw": float(self.unmet[-1, 0]),
                "hw": float(self.unmet[-1, 1]),
            },
            "overmet_kwh": {
                "cw": float(self.overmet[-1, 0]),
                "hw": float(self.overmet[-1, 1]),
            },
            "solver_iterations": self.solver_iterations,
            "runtime_seconds": self.runtime_seconds,
        }

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        header = (
            ["hour"]
            + [f"committed_p_{u}_kw" for u in UNITS]
            + [f"implemented_p_{u}_kw" for u in UNITS]
            + ["load_elec_kw", "load_cw_kw", "load_hw_kw", "price_elec_usd_per_kwh"]
            + ["e_cw_kwh", "e_hw_kwh", "ul_cw_kwh", "ul_hw_kwh", "ol_cw_kwh",
               "ol_hw_kwh", "peak_kw"]
            + ["r_e_kw", "r_w_gal_per_h", "r_ng_kw", "stage_cost_usd"]
            + ["violation"]
            + ["lower_cw_kwh", "upper_cw_kwh", "lower_hw_kwh", "upper_hw_kwh"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(len(self)):
                flags = [
                    VIOLATION_TYPES[i]
                    for i in np.flatnonzero(self.violations[t])
                ]
                writer.writerow(
                    [t]
                    + [repr(v) for v in self.committed[t]]
                    + [repr(v) for v in self.implemented[t]]
                    + [repr(v) for v in self.realized[t]]
                    + [repr(self.storage[t, 0]), repr(self.storage[t, 1]),
                       repr(self.unmet[t, 0]), repr(self.unmet[t, 1]),
                       repr(self.overmet[t, 0]), repr(self.overmet[t, 1]),
                       repr(self.peak[t])]
                    + [repr(v) for v in self.residuals[t]]
                    + [repr(self.cost[t])]
                    + ["+".join(flags)]
                    + [repr(self.bounds_lower[t, 0]), repr(self.bounds_upper[t, 0]),
                       repr(self.bounds_lower[t, 1]), repr(self.bounds_upper[t, 1])]
                )


class ArForecaster:
    """Refitting AR forecast source over a sliding history window."""

    def __init__(self, truth: DisturbanceTrajectory, spec: RunSpec):
        self.values = truth.values
        self.spec = spec
        self.offset = spec.history_hours
        self._models = None
        self._covs = None
        self._chols = None
        self._fitted_at = None

    def refresh(self, t: int) -> bool:
        """Refit at the configured cadence; returns True when refit."""
        if self._fitted_at is not None and t - self._fitted_at < self.spec.refit_every:
            return False
        h, q, n = self.spec.history_hours, self.spec.ar_order, self.spec.horizon
        tau = self.offset + t
        window = self.values[:, tau - h : tau]
        self._models = [fit_ar(window[ch], q) for ch in range(len(CHANNELS))]
        covs = []
        chols = []
        for ch in range(len(CHANNELS)):
            _, cov = ar_forecast(self._models[ch], window[ch][-q:], n)
            covs.append(cov)
            chols.append(_jittered_cholesky(cov))
        self._covs = np.array(covs)
        self._chols = chols
        self._fitted_at = t
        return True

    def means(self, t: int) -> np.ndarray:
        self.refresh(t)
        q, n = self.spec.ar_order, self.spec.horizon
        tau = self.offset + t
        out = np.empty((len(CHANNELS), n))
        for ch in range(len(CHANNELS)):
            recent = self.values[ch, tau - q : tau]
            out[ch] = mean_forecast(self._models[ch], recent, n)
        return out

    def distribution(self, t: int) -> ForecastDistribution:
        return ForecastDistribution(self.means(t), self._covs)

    def mean_trajectory(self, t: int) -> DisturbanceTrajectory:
        n = self.spec.horizon
        return DisturbanceTrajectory(
            np.maximum(self.means(t), _load_floor(n))
        )

    @property
    def cholesky_factors(self):
        return self._chols


class _ScenarioSampler:
    """Scenario sets from the forecaster with configurable noise reuse.

    ``run`` keeps one standard-normal draw for the whole run (common
    random numbers: consecutive programs differ only through the forecast
    mean, which keeps warm-started re-solves cheap), ``refit`` redraws
    whenever the AR models refresh, ``hourly`` redraws every hour.
    """

    def __init__(self, forecaster: ArForecaster, spec: RunSpec):
        self.forecaster = forecaster
        self.spec = spec
        self.rng = np.random.default_rng(spec.scenario_seed)
        self._z = None

    def _draw(self) -> np.ndarray:
        s, n = self.spec.controller.scenarios, self.spec.horizon
        return self.rng.standard_normal((s, len(CHANNELS), n))

    def scenario_set(self, t: int) -> ScenarioSet:
        refit = self.forecaster.refresh(t)
        mode = self.spec.scenario_resampling
        if self._z is None or mode == "hourly" or (mode == "refit" and refit):
            self._z = self._draw()
        means = self.forecaster.means(t)
        chols = self.forecaster.cholesky_factors
        s, n = self.spec.controller.scenarios, self.spec.horizon
        raw = np.empty((s, len(CHANNELS), n))
        for ch in range(len(CHANNELS)):
            raw[:, ch, :] = means[ch] + self._z[:, ch, :] @ chols[ch].T
        clamped = np.maximum(raw, _load_floor(n))
        return ScenarioSet(values=clamped, unclamped=raw)


def precompute_storage_noise(
    truth: DisturbanceTrajectory, spec: RunSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hour tank tracking noise (Y, 2) and its per-tank noise floor.

    Variances come from the initial history window of the truth itself, so
    every controller sees identical draws for a given validation scenario.
    The mean follows the realized load ramp: the tank discharges more than
    planned when the load rises within the hour.  The second return value
    is four standard deviations per tank: capacity clamps below it are
    indistinguishable from the tracking noise itself and are booked in the
    integrators without raising a violation flag.
    """
    y = spec.sim_hours
    if not spec.apply_storage_noise:
        return np.zeros((y, 2)), np.zeros(2)
    rng = np.random.default_rng(spec.zoh_seed)
    h = spec.history_hours
    out = np.empty((y, 2))
    floor = np.empty(2)
    for j, ch in enumerate((1, 2)):  # load_cw, load_hw channels
        series = truth.values[ch]
        var_err, var_int = estimate_zoh_variances(series[:h], spec.ar_order)
        out[:, j] = zoh_noise(
            series[h : h + y], series[h + 1 : h + y + 1], var_err, var_int, rng
        )
        floor[j] = 4.0 * zoh_std(var_err, var_int)
    return out, floor


def run_closed_loop(
    config: PlantConfig,
    spec: RunSpec,
    truth: DisturbanceTrajectory,
    forecaster: ArForecaster | None = None,
) -> ClosedLoopTrace:
    """Simulate one controller over ``spec.sim_hours`` hours of truth."""
    started = time.perf_counter()
    h, y, n = spec.history_hours, spec.sim_hours, spec.horizon
    if len(truth) < spec.required_truth_hours():
        raise ValueError(
            f"truth has {len(truth)} hours; need history {h} + simulation "
            f"{y} + horizon {n} = {spec.required_truth_hours()}"
        )
    calendar = spec.resolved_calendar()
    kind = spec.controller.kind
    beta = spec.controller.beta

    if forecaster is None and kind in (DETERMINISTIC, STOCHASTIC):
        forecaster = ArForecaster(truth, spec)
    sampler = _ScenarioSampler(forecaster, spec) if kind == STOCHASTIC else None
    noise, clamp_floor = precompute_storage_noise(truth, spec)
    session = lp.HighsSession()

    caps = np.array([config.cap_cw, config.cap_hw])
    e = spec.initial_soc * caps.copy()
    lo = beta * caps
    hi = (1.0 - beta) * caps
    ul = np.zeros(2)
    ol = np.zeros(2)
    peak = 0.0
    iterations = 0

    committed = np.zeros((y, len(UNITS)))
    implemented = np.zeros((y, len(UNITS)))
    realized_arr = np.zeros((y, len(CHANNELS)))
    storage = np.zeros((y, 2))
    unmet = np.zeros((y, 2))
    overmet = np.zeros((y, 2))
    peak_arr = np.zeros(y)
    residuals_arr = np.zeros((y, 3))
    cost_arr = np.zeros(y)
    violations = np.zeros((y, len(VIOLATION_TYPES)), dtype=bool)
    bounds_lower = np.zeros((y, 2))
    bounds_upper = np.zeros((y, 2))
    monthly_peaks: list[float] = []

    for t in range(y):
        timing = month_timing(t, calendar, n)
        tank_bounds = mpc.TankBounds(lo[0], hi[0], lo[1], hi[1])
        state = PlantState(
            e_cw=e[0], e_hw=e[1], ul_cw=ul[0], ul_hw=ul[1],
            ol_cw=ol[0], ol_hw=ol[1], peak=peak, peak_next=0.0,
        )
        if kind == DETERMINISTIC:
            data = forecaster.mean_trajectory(t)
        elif kind == STOCHASTIC:
            data = sampler.scenario_set(t)
        else:
            data = truth.slice(h + t, h + t + n)

        fallback = False
        reduced = mpc.build_reduced(config, state, data, timing, tank_bounds)
        sol = session.solve(reduced.program)
        iterations += sol.iterations
        sol = reduced.expand(sol)
        if sol.is_optimal:
            action = mpc.extract_action(sol, reduced.vmap).action
        else:
            # Solver trouble is recorded as a fallback hour, never raised.
            fallback = True
            action = ZERO_ACTION

        realized = truth.at(h + t)
        committed[t] = action.as_array()

        if not fallback:
            outcome = restoration.restore(config, state, action, realized)
            if outcome.kind == restoration.FALLBACK:
                fallback = True
            else:
                action = outcome.action
        if fallback:
            action = ZERO_ACTION
            violations[t, _FALLBACK_IDX] = True

        implemented[t] = action.as_array()
        realized_arr[t] = realized.as_array()
        r_e, r_w, r_ng = residual_demands(config, action, realized.load_elec)
        residuals_arr[t] = (r_e, r_w, r_ng)
        cost_arr[t] = stage_cost(config, action, realized)

        # Storage transition with intra-hour noise; on fallback the loads
        # drain the tanks directly.
        e = e - np.array([action.p_cw, action.p_hw]) + noise[t]
        if fallback:
            e = e - np.array([realized.load_cw, realized.load_hw])

        for j in range(2):
            upd = update_storage_bounds(float(e[j]), caps[j], beta)
            e[j] = upd.clamped
            lo[j], hi[j] = upd.lower, upd.upper
            # Clamp energy always accumulates; the violation flag fires
            # only for crossings above the intra-hour tracking noise floor.
            if upd.ul_increment > 1e-9:
                ul[j] += upd.ul_increment
                if upd.ul_increment > clamp_floor[j]:
                    violations[t, _DRYUP_IDX[j]] = True
            if upd.ol_increment > 1e-9:
                ol[j] += upd.ol_increment
                if upd.ol_increment > clamp_floor[j]:
                    violations[t, _OVERFLOW_IDX[j]] = True

        peak = max(peak, r_e)
        storage[t] = e
        unmet[t] = ul
        overmet[t] = ol
        peak_arr[t] = peak
        bounds_lower[t] = lo
        bounds_upper[t] = hi

        if t == timing.month_end:
            monthly_peaks.append(peak)
            peak = 0.0

    if not monthly_peaks or (y - 1) != calendar[len(monthly_peaks) - 1]:
        monthly_peaks.append(peak)

    return ClosedLoopTrace(
        controller=spec.controller.label,
        horizon=n,
        calendar=calendar,
        price_water=config.price_water,
        price_gas=config.price_gas,
        price_demand=config.price_demand,
        committed=committed,
        implemented=implemented,
        realized=realized_arr,
        storage=storage,
        unmet=unmet,
        overmet=overmet,
        peak=peak_arr,
        residuals=residuals_arr,
        cost=cost_arr,
        violations=violations,
        bounds_lower=bounds_lower,
        bounds_upper=bounds_upper,
        monthly_peaks=monthly_peaks,
        solver_iterations=iterations,
        runtime_seconds=time.perf_counter() - started,
    )
