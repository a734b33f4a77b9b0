"""Every call the benchmark traces is still where the tracer looks for it,
and a closed loop of each controller still reaches it.

``perfbench/tracing.py`` replaces module and class attributes with timing
wrappers and restores them from the owner's own ``__dict__``.  A seam that
was renamed, moved or is only inherited would otherwise show only as a
benchmark worker exiting with an error; one that the loop no longer calls
through (a stored reference, an alias) would show only as a span that
silently stops being booked.  The benchmark's modules are loaded from
their files and left unchanged.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from plantmpc import simulate
from plantmpc.plant import CHANNELS, STORAGE_UNITS, PlantConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A benchmark module, registered only while it executes (its
    dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = load_perfbench("workloads")
SEAMS = [(simulate, "month_timing")] + [
    (owner, attr) for owner, attr, _, _ in load_perfbench("tracing").layer_calls()
]


@pytest.mark.parametrize(
    "owner,attr", SEAMS, ids=[f"{o.__name__}.{a}" for o, a in SEAMS]
)
def test_traced_seam_is_an_own_attribute(owner, attr):
    if attr not in owner.__dict__:
        pytest.fail(f"{owner.__name__}.{attr} is traced but not defined there")


def expected_spans(spec):
    """Span counts of a run of ``spec`` without fallback hours."""
    hours, kind = spec.sim_hours, spec.controller.kind
    counts = {"simulate.storage_noise": 1, **dict.fromkeys(
        ("mpc.build", "lp.solve", "mpc.expand", "mpc.extract",
         "restoration.restore"), hours)}
    if kind == simulate.PERFECT:
        # The storage-noise estimate fits the two tanks' load channels.
        counts["forecast.fit_ar"] = len(STORAGE_UNITS)
        return counts
    refits = -(-hours // spec.refit_every)
    channels = len(CHANNELS)
    # The storage-noise estimate reuses the hour-0 refit's models.  Refresh
    # runs once before the loop and once in every hour's ``means``.
    counts.update({"forecast.fit_ar": channels * refits,
                   "forecast.mean": channels * hours,
                   "forecast.covariance": 1 + hours})
    if kind == simulate.STOCHASTIC:
        # One covariance and one factor per channel and refit.
        counts["forecast.scenarios"] = hours
        counts["forecast.covariance"] += 2 * channels * refits
    return counts


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_traced_seams_are_reached(workload):
    spec = WORKLOADS.make_spec(WORKLOADS.WORKLOADS[workload], 0, WORKLOADS.SMOKE)
    truth = WORKLOADS.make_truth(spec, 0)
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.instrument(tracing.HourClock(), tracer):
        trace = simulate.run_closed_loop(PlantConfig(), spec, truth)
    assert not trace.violation_flags("fallback").any()
    assert Counter(span.name for span in tracer.spans) == expected_spans(spec)
