"""Output checks and a determinism fingerprint for one closed-loop trace.

The checks recompute from the inputs what the closed loop must satisfy,
from outside the program:

- tank identity E' = clamp(E - P + v - fallback drain), with v from
  ``simulate.precompute_storage_noise``;
- the unmet and overmet integrators never decrease;
- every implemented action is within the unit and tank rate bounds;
- the balance residuals vanish on hours that are not fallback hours;
- ``bench.annual_cost`` equals the summed stage costs plus the demand
  charge on the monthly peaks;
- ``trace.monthly_peaks`` match the monthly maxima of the residuals.
"""

from __future__ import annotations

import hashlib

import numpy as np

from plantmpc import bench, simulate
from plantmpc.plant import ControlAction, balance_residuals

#: Tolerance on a recomputed tank level (kWh); the identity is replayed
#: with the loop's own arithmetic, so it holds to rounding.
STORAGE_TOL = 1e-6
#: Tolerance on a balance residual (kW), ten times restoration's own.
BALANCE_TOL = 1e-6
COST_RTOL = 1e-9

_ARRAYS = ("committed", "implemented", "realized", "storage", "unmet",
           "overmet", "peak", "residuals", "cost", "violations",
           "bounds_lower", "bounds_upper")


def check_trace(config, spec: simulate.RunSpec, truth, trace) -> list[str]:
    """Violated checks, as messages; empty when the trace is correct."""
    y, h = spec.sim_hours, spec.history_hours
    if len(trace) != y:
        return [f"trace has {len(trace)} hours, expected {y}"]
    problems = []
    inputs = truth.values[:, h : h + y].T
    if not np.array_equal(trace.realized, inputs):
        problems.append("realized disturbances differ from the inputs")

    caps = np.array([config.cap_cw, config.cap_hw])
    noise, _ = simulate.precompute_storage_noise(truth, spec)
    fallback = trace.violation_flags("fallback")
    before = np.vstack([spec.initial_soc * caps, trace.storage[:-1]])
    after = before - trace.implemented[:, 5:7] + noise
    after[fallback] -= inputs[fallback, 1:3]
    expected = np.clip(after, 0.0, caps)
    bad = np.flatnonzero(np.abs(trace.storage - expected).max(axis=1) > STORAGE_TOL)
    if bad.size:
        problems.append(f"tank identity fails at hours {bad[:5].tolist()}")

    for name in ("unmet", "overmet"):
        series = np.vstack([np.zeros(2), getattr(trace, name)])
        bad = np.flatnonzero(np.diff(series, axis=0).min(axis=1) < 0)
        if bad.size:
            problems.append(f"{name} integrator decreases at hours {bad[:5].tolist()}")

    actions = [ControlAction.from_array(row) for row in trace.implemented]
    bad = [t for t, a in enumerate(actions) if not a.within_bounds(config)]
    if bad:
        problems.append(f"implemented action out of bounds at hours {bad[:5]}")

    bad = [
        t for t, a in enumerate(actions)
        if not fallback[t]
        and max(abs(r) for r in balance_residuals(config, a, truth.at(h + t)))
        > BALANCE_TOL
    ]
    if bad:
        problems.append(f"balance residuals nonzero at hours {bad[:5]}")

    total, _ = bench.annual_cost(trace)
    billed = trace.cost.sum() + trace.price_demand * sum(trace.monthly_peaks)
    if not np.isclose(total, billed, rtol=COST_RTOL, atol=0.0):
        problems.append(f"annual cost {total!r} != stage costs plus peaks {billed!r}")

    peaks = bench._monthly_peaks(trace.residuals[:, 0], trace.calendar)
    if list(trace.monthly_peaks) != peaks:
        problems.append(
            f"monthly peaks {list(trace.monthly_peaks)} != residual maxima {peaks}"
        )
    return problems


def fingerprint(trace) -> str:
    """Digest of every simulated value of the trace (not its run time)."""
    digest = hashlib.sha256()
    for name in _ARRAYS:
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    digest.update(repr([float(p) for p in trace.monthly_peaks]).encode())
    digest.update(str(trace.solver_iterations).encode())
    return digest.hexdigest()
