"""Spans around each layer's public calls, kept in memory.

``instrument`` replaces the module and class attributes that
``simulate.run_closed_loop`` looks up at call time with timing wrappers
and puts the originals back on exit.  The benchmark changes nothing in the
program: with ``tracer=None`` only the hour clock is installed, one
pair of timestamps per simulated hour, which the untraced runs need for
the hour figures.

A span's self time is its duration minus that of its direct children, so
the self times of all spans of one run add up to the root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from plantmpc import forecast, lp, mpc, restoration, simulate

ROOT = "simulate.loop"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for the root
    info: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``info`` keeps what an observer saw in a call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args, kwargs,
             observe: Callable | None = None):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if observe is not None:
            span.info = observe(args, result)
        return result

    def self_seconds(self) -> np.ndarray:
        own = np.array([s.seconds for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own


#: A reference measurement is due after this much CPU time of the loop,
#: and it repeats the reference work to take about this share of that time.
REFERENCE_EVERY_S = 0.1
REFERENCE_SHARE = 0.01
_REF_MATRIX = np.eye(96) * 96 + np.cos(np.arange(96 * 96).reshape(96, 96))


def reference_work() -> float:
    """CPU seconds of a fixed mix of numpy and interpreter work.

    No change to the program alters this work, so the time it takes tracks
    only how fast the host runs the process at the moment.
    """
    started = time.process_time()
    for _ in range(3):
        np.linalg.cholesky(_REF_MATRIX)
    np.sort(np.sin(np.arange(20000.0)))
    total = 0
    for i in range(15000):
        total += i % 7
    return time.process_time() - started


class HourClock:
    """Start and end of every simulated hour, read from ``month_timing`` calls.

    ``starts`` holds wall times, ``cpu_starts`` and ``cpu_ends`` the
    process's CPU times.  With ``reference`` it also times
    ``reference_work`` between two hours whenever REFERENCE_EVERY_S of CPU
    time have passed since the last time, and always before hour 1;
    ``references`` holds (hour it preceded, CPU seconds of one repetition,
    averaged).  The reference runs between the hours, so it adds nothing to
    them, and not before hour 0, so the set-up is measured as it is.
    """

    def __init__(self, reference: bool = False) -> None:
        self.reference = reference
        self.starts: list[float] = []
        self.cpu_starts: list[float] = []
        self.cpu_ends: list[float] = []
        self.references: list[tuple[int, float]] = []
        self._reference_at = 0.0

    def wrap(self, fn: Callable) -> Callable:
        def month_timing(*args, **kwargs):
            now = time.process_time()
            if self.cpu_starts:
                self.cpu_ends.append(now)
            if self.reference and self.cpu_starts and (
                    len(self.cpu_starts) == 1
                    or now - self._reference_at >= REFERENCE_EVERY_S):
                first = reference_work()
                reps = min(50, max(1, round(
                    REFERENCE_SHARE * (now - self._reference_at) / first)))
                mean = (first + sum(reference_work() for _ in range(reps - 1))) / reps
                self.references.append((len(self.cpu_starts), mean))
                self._reference_at = time.process_time()
            self.starts.append(time.perf_counter())
            self.cpu_starts.append(time.process_time())
            if len(self.cpu_starts) == 1:
                self._reference_at = self.cpu_starts[0]
            return fn(*args, **kwargs)

        return month_timing


class _PatternWatch:
    """Flags a program whose shape or sparsity differs from the last one."""

    def __init__(self) -> None:
        self.prev = None

    def __call__(self, args, sol):
        prog = args[1]
        key = (prog.num_rows, prog.num_vars, prog.a_rows, prog.a_cols)
        changed = self.prev is not None and not (
            key[:2] == self.prev[:2]
            and np.array_equal(key[2], self.prev[2])
            and np.array_equal(key[3], self.prev[3])
        )
        self.prev = key
        return sol.iterations, sol.is_optimal, changed


def _program_size(args, reduced):
    prog = reduced.program
    nbytes = sum(
        a.nbytes for a in (prog.objective, prog.lower, prog.upper,
                           prog.row_sense, prog.rhs, prog.a_rows,
                           prog.a_cols, prog.a_vals)
    )
    return prog.num_vars, prog.num_rows, prog.num_entries, nbytes


def _restore_outcome(args, outcome):
    return outcome.kind, outcome.total_correction


def _refit(args, refitted):
    return bool(refitted)


def layer_calls():
    """(owner, attribute, span name, observer) for every traced call.

    ``fit_ar`` is wrapped in both namespaces: ``simulate`` for the AR
    refits and ``forecast`` for the storage-noise estimate.  A refresh that
    only checks the refit cadence is cheap; its self time, like that of the
    covariance assembly, is booked as ``forecast.covariance``.
    """
    return [
        (simulate, "precompute_storage_noise", "simulate.storage_noise", None),
        (simulate, "fit_ar", "forecast.fit_ar", None),
        (forecast, "fit_ar", "forecast.fit_ar", None),
        (simulate.ArForecaster, "refresh", "forecast.covariance", _refit),
        (simulate, "ar_forecast", "forecast.covariance", None),
        (simulate, "_jittered_cholesky", "forecast.covariance", None),
        (simulate, "mean_forecast", "forecast.mean", None),
        (simulate._ScenarioSampler, "scenario_set", "forecast.scenarios", None),
        (mpc, "build_reduced", "mpc.build", _program_size),
        (lp.HighsSession, "solve", "lp.solve", _PatternWatch()),
        (mpc.ReducedProgram, "expand", "mpc.expand", None),
        (mpc, "extract_action", "mpc.extract", None),
        (restoration, "restore", "restoration.restore", _restore_outcome),
    ]


def _spanned(tracer: Tracer, name: str, fn: Callable, observe) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(clock: HourClock, tracer: Tracer | None = None):
    """Install the hour clock (and the layer spans) for one closed loop."""
    patches = [(simulate, "month_timing", clock.wrap(simulate.month_timing))]
    if tracer is not None:
        for owner, attr, name, observe in layer_calls():
            fn = getattr(owner, attr)
            patches.append((owner, attr, _spanned(tracer, name, fn, observe)))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, hours: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer figures of one traced run: name -> (value, unit, samples).

    Times are self times.  ``*_per_h`` figures are spread over all ``hours``
    of the run; the cold solve is the first, the warm ones are the rest.
    Every hour builds and solves one program.
    """
    own = tracer.self_seconds() * 1e3
    spans = tracer.spans

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def run_ms(name):
        idx = pick(name)
        return float(own[idx].sum()), "ms", len(idx)

    def per_hour(name):
        value, unit, n = run_ms(name)
        return value / hours, unit, n

    cold, *warm = pick("lp.solve")
    restores = [spans[i].info for i in pick("restoration.restore")]
    corrections = [kw for kind, kw in restores if kind == restoration.CORRECTED]
    sizes = [spans[i].info for i in pick("mpc.build")]
    refits = [spans[i].info for i in pick("forecast.covariance")
              if spans[i].info is not None]
    warm_hours = max(len(warm), 1)
    cols, rows, nnz, nbytes = (max(col) for col in zip(*sizes))
    return {
        "forecast.refits": (sum(refits), "count", len(refits)),
        "forecast.fit_ar_ms": run_ms("forecast.fit_ar"),
        "forecast.covariance_ms": run_ms("forecast.covariance"),
        "forecast.mean_ms_per_h": per_hour("forecast.mean"),
        "forecast.scenarios_ms_per_h": per_hour("forecast.scenarios"),
        "restoration.restore_ms_per_h": per_hour("restoration.restore"),
        "restoration.lp_share": (
            sum(kind != restoration.UNCHANGED for kind, _ in restores)
            / max(len(restores), 1), "share", len(restores)),
        "restoration.fallbacks": (
            sum(kind == restoration.FALLBACK for kind, _ in restores),
            "count", len(restores)),
        "restoration.correction_kw_mean": (
            float(np.mean(corrections)) if corrections else 0.0, "kW",
            len(corrections)),
        "mpc.build_ms_per_h": per_hour("mpc.build"),
        "mpc.expand_ms_per_h": per_hour("mpc.expand"),
        "mpc.extract_ms_per_h": per_hour("mpc.extract"),
        "mpc.lp_cols": (cols, "count", len(sizes)),
        "mpc.lp_rows": (rows, "count", len(sizes)),
        "mpc.lp_nnz": (nnz, "count", len(sizes)),
        "mpc.lp_mb": (nbytes / 2**20, "MB", len(sizes)),
        "lp.solve_warm_ms": (float(own[warm].sum()) / warm_hours, "ms", len(warm)),
        "lp.iters_warm_per_h": (
            sum(spans[i].info[0] for i in warm) / warm_hours, "count", len(warm)),
        "lp.solve_cold_ms": (float(own[cold]), "ms", 1),
        "lp.iters_cold": (spans[cold].info[0], "count", 1),
        "lp.pattern_changes": (sum(spans[i].info[2] for i in warm), "count",
                               len(warm)),
        "lp.non_optimal": (sum(not spans[i].info[1] for i in [cold, *warm]),
                           "count", 1 + len(warm)),
        "simulate.storage_noise_ms": run_ms("simulate.storage_noise"),
        "simulate.loop_self_ms_per_h": per_hour(ROOT),
    }
