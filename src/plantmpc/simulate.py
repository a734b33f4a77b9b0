"""Receding-horizon closed-loop engine for the three controllers.

The controllers differ only in the disturbance data each reads every hour
from its one source: the mean AR forecast (det), scenario sets sampled
around it and reduced to ``KEPT_SCENARIOS`` weighted ones at each AR refit
(sto) or the realized loads (perf).  Each simulated hour: read
the data, build and solve the program from the current state, repair the
committed action against the realized loads, then book the hour with
``step``.
``run_closed_loop`` carries only a ``PlantState`` from hour to hour: the
storage bounds are ``mpc.storage_bounds`` of it.

Per-hour order (mirrored by the test oracle):

1. solve controller program on the run's controller session, commit the
   first-stage action
2. restore the action against realized loads on the run's correction
   session, warm from the last correction's basis (zero action on failure)
3. ``step``: realized residual demands and stage cost of the implemented
   action; storage update E <- E - P + v; on a fallback hour the campus
   loads drain the tanks directly (production is off but the distribution
   loop still draws); clamp to [0, cap], with the cut energy accumulated
   into the unmet/overmet integrators and raising violation flags;
   peak <- max(peak, realized r_e)
4. the trace books the hour, the bounds of the booked state included, in
   its per-hour arrays: the ``_hourly`` fields of ``ClosedLoopTrace``, where
   each is declared once with its CSV columns; after the last hour of each
   month the loop records the peak and resets the register
"""

from __future__ import annotations

import bisect
import csv
import json
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import forecast, lp, mpc, restoration
from .forecast import (
    ArModel,
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
    STORAGE_UNITS,
    UNITS,
    ZERO_ACTION,
    ControlAction,
    Disturbance,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    purchase_cost,
    residual_demands,
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


def _require_integer(name: str, value) -> None:
    """Reject a size, seed or hour that is not an integer (or is a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ControllerSpec:
    """Which controller to run and its tuning.

    ``scenarios`` is the stochastic controller's sample size S; its program
    keeps at most ``KEPT_SCENARIOS`` of them (``_ScenarioSampler``).
    """

    kind: str
    beta: float = 0.0
    scenarios: int = 100

    def __post_init__(self) -> None:
        if self.kind not in (DETERMINISTIC, STOCHASTIC, PERFECT):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        _require_integer("scenarios", self.scenarios)
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
    on one warm-started ``lp.HighsSession`` per run, passing the program's
    one-step ``shift``, the rotation of its columns and rows that the
    session loads it by; the hour's correction runs on a second session of
    the run's own (``restoration.restore``).  The fields set the
    controller, the horizon and AR forecast model, the billing calendar
    (strictly ascending nonnegative month-end hours, the last one at or
    after the last simulated hour; empty means ``default_calendar``), the
    seeds of the scenario and storage-noise random streams (nonnegative),
    and the initial state of charge.
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
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        for name in ("sim_hours", "horizon", "ar_order", "history_hours",
                     "refit_every", "scenario_seed", "zoh_seed"):
            _require_integer(name, getattr(self, name))
        for entry in self.calendar:
            _require_integer("calendar entry", entry)
        if self.sim_hours < 1:
            raise ValueError("sim_hours must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.ar_order < 1:
            raise ValueError("ar_order must be >= 1")
        if self.history_hours < 2 * self.ar_order + 1:
            raise ValueError("history too short for the AR order")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must lie in [0, 1]")
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        for name in ("scenario_seed", "zoh_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.calendar:
            if any(a >= b for a, b in zip(self.calendar, self.calendar[1:])):
                raise ValueError("calendar must be strictly ascending")
            if self.calendar[0] < 0:
                raise ValueError(f"calendar month ends must be >= 0, got {self.calendar[0]}")
            if self.calendar[-1] < self.sim_hours - 1:
                raise ValueError(
                    f"calendar ends at hour {self.calendar[-1]}, before the "
                    f"last simulated hour {self.sim_hours - 1}"
                )

    def resolved_calendar(self) -> tuple[int, ...]:
        if self.calendar:
            return self.calendar
        return default_calendar(self.sim_hours + self.horizon)

    def required_truth_hours(self) -> int:
        return self.history_hours + self.sim_hours + self.horizon


def default_calendar(total_hours: int) -> tuple[int, ...]:
    """Month-end hour indices (last hour of each month), hours from 0."""
    ends = []
    hours = 0
    month = 0
    while hours <= total_hours:
        hours += MONTH_DAYS[month % 12] * 24
        ends.append(hours - 1)
        month += 1
    return tuple(ends)


def month_timing(t: int, calendar, n: int) -> mpc.HorizonTiming:
    """Timing for the horizon starting at hour ``t``.

    The month end is the smallest calendar entry >= t, so on the closing
    hour it is ``t`` itself: step 0 bills to the closing month and every
    later step to the next.
    """
    cal = list(calendar)
    if not cal:
        raise ValueError("calendar is empty")
    if cal != sorted(cal):
        raise ValueError("calendar must be sorted ascending")
    idx = bisect.bisect_left(cal, t)
    if idx == len(cal):
        raise ValueError(f"hour {t} beyond the last calendar month end {cal[-1]}")
    return mpc.HorizonTiming(t=t, n=n, month_end=cal[idx])


class Hour(NamedTuple):
    """One booked hour: next state, residuals, stage cost and violation flags."""

    state: PlantState
    residuals: tuple[float, float, float]
    cost: float
    flags: tuple[bool, ...]


def step(
    config: PlantConfig,
    state: PlantState,
    action: ControlAction,
    realized: Disturbance,
    noise: np.ndarray,
    fallback: bool,
    clamp_floor: np.ndarray,
) -> Hour:
    """Book one hour of the implemented ``action`` against ``realized``.

    Each tank moves to E - P + v (``noise`` holds v per tank) and, on a
    ``fallback`` hour, the campus load drains it as well.  The result is
    clamped to [0, cap]: energy cut below empty grows the unmet
    integrator, energy cut above full the overmet one.  Cuts above
    1e-9 kWh are booked, and raise the tank's violation flag when they
    exceed its ``clamp_floor``.  The peak ratchets to the realized r_e;
    resetting it at a month end is left to the caller.
    """
    residuals = residual_demands(config, action, realized.load_elec)
    flags = [False] * len(VIOLATION_TYPES)
    flags[_FALLBACK_IDX] = fallback
    booked = {}
    for j, unit in enumerate(STORAGE_UNITS):
        e_next = state.storage(unit) - action.rate(unit) + noise[j]
        if fallback:
            e_next = e_next - getattr(realized, f"load_{unit}")
        cap = config.cap(unit)
        unmet, overmet = max(-e_next, 0.0), max(e_next - cap, 0.0)
        ul, ol = getattr(state, f"ul_{unit}"), getattr(state, f"ol_{unit}")
        # Clamp energy always accumulates; the violation flag fires only
        # for crossings above the intra-hour tracking noise floor.
        if unmet > 1e-9:
            ul += unmet
            flags[_DRYUP_IDX[j]] = unmet > clamp_floor[j]
        if overmet > 1e-9:
            ol += overmet
            flags[_OVERFLOW_IDX[j]] = overmet > clamp_floor[j]
        booked.update({f"e_{unit}": min(max(e_next, 0.0), cap),
                       f"ul_{unit}": ul, f"ol_{unit}": ol})
    return Hour(
        state=PlantState(**booked, peak=max(state.peak, residuals[0])),
        residuals=residuals,
        cost=purchase_cost(config, residuals, realized.price_elec),
        flags=tuple(flags),
    )


def _numbers(values: np.ndarray) -> list[list[str]]:
    """CSV cells of a per-hour array, one list per column; repr reads back exactly."""
    columns = values.reshape(len(values), -1).T.tolist()
    return [[repr(v) for v in column] for column in columns]


def _flag_names(violations: np.ndarray) -> list[list[str]]:
    """One CSV column: the names of each hour's raised flags, joined by "+"."""
    return [["+".join(kind for kind, on in zip(VIOLATION_TYPES, row) if on)
             for row in violations.tolist()]]


def _hourly(*names: str, dtype=float, cells=_numbers, tankwise=False, summary=None):
    """Declare a per-hour array of ``ClosedLoopTrace`` (one row per hour).

    ``names`` are its CSV columns, which ``cells`` fills.  A ``tankwise``
    array's columns alternate with the previous array's (the storage box is
    written tank by tank).  ``summary`` keys its last row, per tank.
    """
    return field(metadata=dict(csv=names, dtype=dtype, cells=cells,
                               tankwise=tankwise, summary=summary))


@dataclass
class ClosedLoopTrace:
    """Hour-by-hour record of one closed-loop run.

    Each per-hour array is declared once, with ``_hourly``.  Its stacking in
    ``run_closed_loop``, the CSV columns of ``to_csv`` and the per-tank parts
    of ``summary`` all follow those declarations (``_HOURLY``), in order.
    """

    controller: str
    horizon: int
    calendar: tuple[int, ...]
    price_water: float
    price_gas: float
    price_demand: float
    committed: np.ndarray = _hourly(*(f"committed_p_{u}_kw" for u in UNITS))
    implemented: np.ndarray = _hourly(*(f"implemented_p_{u}_kw" for u in UNITS))
    realized: np.ndarray = _hourly("load_elec_kw", "load_cw_kw", "load_hw_kw",
                                   "price_elec_usd_per_kwh")
    storage: np.ndarray = _hourly("e_cw_kwh", "e_hw_kwh", summary="final_storage_kwh")
    unmet: np.ndarray = _hourly("ul_cw_kwh", "ul_hw_kwh", summary="unmet_kwh")
    overmet: np.ndarray = _hourly("ol_cw_kwh", "ol_hw_kwh", summary="overmet_kwh")
    peak: np.ndarray = _hourly("peak_kw")
    residuals: np.ndarray = _hourly("r_e_kw", "r_w_gal_per_h", "r_ng_kw")
    cost: np.ndarray = _hourly("stage_cost_usd")
    violations: np.ndarray = _hourly("violation", dtype=bool, cells=_flag_names)
    bounds_lower: np.ndarray = _hourly("lower_cw_kwh", "lower_hw_kwh")
    bounds_upper: np.ndarray = _hourly("upper_cw_kwh", "upper_hw_kwh", tankwise=True)
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

    def violation_counts(self) -> dict[str, int]:
        """Flagged hours per entry of ``VIOLATION_TYPES``."""
        return {
            kind: int(self.violations[:, i].sum())
            for i, kind in enumerate(VIOLATION_TYPES)
        }

    def summary(self) -> dict:
        return {
            "controller": self.controller,
            "hours": len(self),
            "total_stage_cost": float(self.cost.sum()),
            "monthly_peaks_kw": [float(p) for p in self.monthly_peaks],
            "violation_hours": self.violation_hours,
            "violations": self.violation_counts(),
            **{
                f.metadata["summary"]:
                    dict(zip(STORAGE_UNITS, getattr(self, f.name)[-1].tolist()))
                for f in _HOURLY if f.metadata["summary"]
            },
            "solver_iterations": self.solver_iterations,
            "runtime_seconds": self.runtime_seconds,
        }

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        columns = [("hour", range(len(self)))]
        for f in _HOURLY:
            cells = f.metadata["cells"](getattr(self, f.name))
            block = list(zip(f.metadata["csv"], cells, strict=True))
            if f.metadata["tankwise"]:
                k = len(block)
                columns[-k:] = [c for pair in zip(columns[-k:], block) for c in pair]
            else:
                columns += block
        names, cells = zip(*columns)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows(zip(*cells))


#: The per-hour arrays of ``ClosedLoopTrace``, in declaration order.
_HOURLY = tuple(f for f in fields(ClosedLoopTrace) if "csv" in f.metadata)


class ArForecaster:
    """Refitting AR forecast source over a sliding history window.

    ``refresh`` refits the four channel models at the configured cadence
    and builds each model's recursion matrix over the horizon
    (``forecast._recursion_matrix``) once; ``means`` refreshes first.
    Every hourly mean forecast and the covariance factors until the next
    refit reuse the matrix, and the refit replaces it, so at most one
    matrix per channel is held.  The Cholesky factors of the forecast
    covariances are computed on demand, on the first read of
    ``cholesky_factors`` after each refit.  Only the stochastic
    controller's scenario sampler reads them, so the deterministic
    controller never computes them.
    """

    def __init__(self, truth: DisturbanceTrajectory, spec: RunSpec):
        self.values = truth.values
        self.spec = spec
        self.offset = spec.history_hours
        self._models = None
        self._recursions = None
        self._chols = None
        self._fitted_at = None

    def refresh(self, t: int) -> bool:
        """Refit at the configured cadence; returns True when refit."""
        if self._fitted_at is not None and t - self._fitted_at < self.spec.refit_every:
            return False
        h, q = self.spec.history_hours, self.spec.ar_order
        tau = self.offset + t
        window = self.values[:, tau - h : tau]
        self._models = [fit_ar(window[ch], q) for ch in range(len(CHANNELS))]
        self._recursions = [
            forecast._recursion_matrix(model, self.spec.horizon)
            for model in self._models
        ]
        self._chols = None
        self._fitted_at = t
        return True

    def means(self, t: int) -> np.ndarray:
        self.refresh(t)
        q, n = self.spec.ar_order, self.spec.horizon
        tau = self.offset + t
        out = np.empty((len(CHANNELS), n))
        for ch in range(len(CHANNELS)):
            recent = self.values[ch, tau - q : tau]
            out[ch] = mean_forecast(self._models[ch], recent, n,
                                    self._recursions[ch])
        return out

    def mean_trajectory(self, t: int) -> DisturbanceTrajectory:
        n = self.spec.horizon
        return DisturbanceTrajectory(
            np.maximum(self.means(t), _load_floor(n))
        )

    @property
    def cholesky_factors(self):
        """Per-channel Cholesky factors of the n-step forecast covariance.

        Computed on the first read after each refit, from the models and
        the history window of that refit, and kept until the next refit.
        """
        if self._chols is None:
            q, n = self.spec.ar_order, self.spec.horizon
            tau = self.offset + self._fitted_at
            chols = []
            for ch in range(len(CHANNELS)):
                recent = self.values[ch, tau - q : tau]
                _, cov = ar_forecast(self._models[ch], recent, n,
                                     self._recursions[ch])
                chols.append(_jittered_cholesky(cov))
            self._chols = chols
        return self._chols


#: How many scenarios the stochastic program keeps of the S it samples
#: (``ControllerSpec.scenarios``): ``forecast.reduce_scenarios`` picks them
#: at each AR refit.  ``experiments/scenario_reduction.py`` chose it as the
#: smallest of 15, 20 and 30 that left the closed loop's cost, unmet energy
#: and violations within the noise of unreduced S = 100.
KEPT_SCENARIOS = 20


class _ScenarioSampler:
    """Scenario sets from the forecaster, one noise path per scenario.

    Hour t's scenarios are the forecast mean plus standard-normal noise
    through the forecast covariance's factor.  Each scenario keeps one
    noise path for the whole run: the (S, 4, N) window of hour t holds the
    draws of absolute hours [t, t + N), so from one hour to the next it
    drops its first column and appends one new draw, and the noise at an
    absolute hour does not depend on the run's length.  Each hour's set is
    still a sample of that hour's forecast distribution; only the coupling
    across hours is chosen, so that consecutive programs are close to one
    program moved one step, which ``lp.HighsSession``'s rotated warm
    restart exploits.

    Of more than ``KEPT_SCENARIOS`` paths, the program sees only that many.
    At each AR refit the hour's full set is reduced by fast forward
    selection (``forecast.reduce_scenarios``); until the next refit the
    same kept paths slide with the horizon and carry the probabilities of
    that reduction, so the program keeps its shape and the rotated warm
    restart holds.  Every path is still drawn every hour, so the random
    stream does not depend on the reduction.
    """

    def __init__(self, forecaster: ArForecaster, spec: RunSpec):
        self.forecaster = forecaster
        self.spec = spec
        self.rng = np.random.default_rng(spec.scenario_seed)
        self._z = None
        self._start = None
        self._kept = self._probabilities = self._reduced_at = None

    def _noise(self, t: int) -> np.ndarray:
        """The (S, 4, N) standard-normal window of hour t."""
        s, n = self.spec.controller.scenarios, self.spec.horizon
        if self._z is None:
            self._z = self.rng.standard_normal((s, len(CHANNELS), n))
        elif t < self._start:
            raise ValueError(f"hour {t} precedes the noise window of {self._start}")
        else:
            for _ in range(t - self._start):
                column = self.rng.standard_normal((s, len(CHANNELS)))[:, :, None]
                self._z = np.concatenate((self._z[:, :, 1:], column), axis=2)
        self._start = t
        return self._z

    def draw(self, t: int, paths: np.ndarray | None = None) -> np.ndarray:
        """Hour t's sampled values (S, 4, N), or those of the noise
        ``paths`` (indices into the S) only."""
        z = self._noise(t)
        if paths is not None:
            z = z[paths]
        means = self.forecaster.means(t)
        chols = self.forecaster.cholesky_factors
        s, _, n = z.shape
        raw = np.empty((s, len(CHANNELS), n))
        for ch in range(len(CHANNELS)):
            raw[:, ch, :] = means[ch] + z[:, ch, :] @ chols[ch].T
        return np.maximum(raw, _load_floor(n))

    def scenario_set(self, t: int) -> ScenarioSet:
        """Hour t's scenarios: the whole sample, or the kept paths of the
        last refit's reduction with its probabilities."""
        if self.spec.controller.scenarios <= KEPT_SCENARIOS:
            return ScenarioSet(self.draw(t))
        self.forecaster.refresh(t)
        if self._reduced_at == self.forecaster._fitted_at:
            return ScenarioSet(self.draw(t, self._kept), self._probabilities)
        self._kept, reduced = forecast.reduce_scenarios(
            ScenarioSet(self.draw(t)), KEPT_SCENARIOS)
        self._probabilities = reduced.probabilities
        self._reduced_at = self.forecaster._fitted_at
        return reduced


def precompute_storage_noise(
    truth: DisturbanceTrajectory, spec: RunSpec,
    models: list[ArModel] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hour tank tracking noise (Y, 2) and its per-tank noise floor.

    Variances come from the initial history window [0, h) of the truth
    itself, so every controller sees identical draws for a given validation
    scenario.  ``var_err`` is the noise variance of the AR(q) fit of the
    load_cw and load_hw channels over that window: ``models[ch]`` when
    given (the per-channel fits of an ``ArForecaster``'s hour-0 refit, which
    are of the same window), else a fit of its own.
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
        var_err, var_int = estimate_zoh_variances(
            series[:h], spec.ar_order, model=None if models is None else models[ch])
        out[:, j] = zoh_noise(
            series[h : h + y], series[h + 1 : h + y + 1], var_err, var_int, rng
        )
        floor[j] = 4.0 * zoh_std(var_err, var_int)
    return out, floor


def run_closed_loop(
    config: PlantConfig, spec: RunSpec, truth: DisturbanceTrajectory
) -> ClosedLoopTrace:
    """Simulate one controller over ``spec.sim_hours`` hours of truth.

    Each controller reads its hour's disturbance data from one source,
    chosen before the loop: ``ArForecaster.mean_trajectory`` (det),
    ``_ScenarioSampler.scenario_set`` (sto) or a slice of the truth
    (perf).  The forecaster refits at hour 0 before the loop, and the
    storage-noise estimate reuses that refit's load_cw and load_hw models,
    so each history window is fitted once per run.
    """
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

    models = None
    if kind == PERFECT:
        def data(t: int) -> DisturbanceTrajectory:
            return truth.slice(h + t, h + t + n)
    else:
        forecaster = ArForecaster(truth, spec)
        forecaster.refresh(0)
        models = forecaster._models
        data = (forecaster.mean_trajectory if kind == DETERMINISTIC
                else _ScenarioSampler(forecaster, spec).scenario_set)
    noise, clamp_floor = precompute_storage_noise(truth, spec, models)
    session = lp.HighsSession()
    corrections = lp.HighsSession()

    state = PlantState(
        e_cw=spec.initial_soc * config.cap_cw, e_hw=spec.initial_soc * config.cap_hw
    )
    iterations = 0

    booked = []
    monthly_peaks: list[float] = []

    for t in range(y):
        timing = month_timing(t, calendar, n)
        reduced = mpc.build_reduced(config, state, data(t), timing, beta)
        sol = session.solve(reduced.program, start=reduced.start,
                            shift=reduced.shift)
        iterations += sol.iterations
        # Solver trouble is recorded as a fallback hour, never raised.
        fallback = not sol.is_optimal
        action = ZERO_ACTION if fallback else mpc.extract_action(reduced.expand(sol))
        # Dropped before the next hour's solve, whose peak memory it would
        # otherwise add to (1 MB at 100 scenarios, 0.2 MB at 20).
        del sol
        realized = truth.at(h + t)
        committed = action.as_array()
        if not fallback:
            outcome = restoration.restore(config, state, action, realized,
                                          corrections)
            fallback = outcome.kind == restoration.FALLBACK
            action = ZERO_ACTION if fallback else outcome.action

        hour = step(config, state, action, realized, noise[t], fallback, clamp_floor)
        state = hour.state
        lower, upper = zip(*mpc.storage_bounds(config, state, beta))
        booked.append({
            "committed": committed,
            "implemented": action.as_array(),
            "realized": realized.as_array(),
            "storage": (state.e_cw, state.e_hw),
            "unmet": (state.ul_cw, state.ul_hw),
            "overmet": (state.ol_cw, state.ol_hw),
            "peak": state.peak,
            "residuals": hour.residuals,
            "cost": hour.cost,
            "violations": hour.flags,
            "bounds_lower": lower,
            "bounds_upper": upper,
        })

        if t == timing.month_end:
            monthly_peaks.append(state.peak)
            state = replace(state, peak=0.0)

    if timing.month_end != y - 1:
        monthly_peaks.append(state.peak)

    return ClosedLoopTrace(
        controller=spec.controller.label,
        horizon=n,
        calendar=calendar,
        price_water=config.price_water,
        price_gas=config.price_gas,
        price_demand=config.price_demand,
        **{
            f.name: np.array([b[f.name] for b in booked], dtype=f.metadata["dtype"])
            for f in _HOURLY
        },
        monthly_peaks=monthly_peaks,
        solver_iterations=iterations,
        runtime_seconds=time.perf_counter() - started,
    )
