"""Post-hoc correction of committed actions against realized loads.

Once the hour's loads are observed, the committed dispatch generally no
longer balances them.  The restoration problem finds the smallest total
rate adjustment (sum of |delta| over all units) that restores both water
balances while keeping every unit within its limits and both tanks inside
their physical capacity.  If no such correction exists the plant takes no
action for the hour and the shortfall is booked downstream.

The correction is an LP with 14 columns and 3 rows.  Each unit's change
is split as delta = delta+ - delta-, both nonnegative, and the objective
is their sum.  The matrix is [B, -B] with B = ``plant.balance_matrix``:
the chilled-water, hot-water and condenser balances.  The condenser
identity is imposed inside the correction problem (rather than recomputed
afterwards) so the tower rate both stays consistent and respects its own
limit.  Each delta lies in a box [lo, hi], ``plant.rate_bounds`` minus the
committed rate, cut for the tanks to what keeps their level in [0, cap].
The box becomes the column bounds delta+ in [max(lo, 0), max(hi, 0)] and
delta- in [max(-hi, 0), max(-lo, 0)], which admit exactly the deltas of
the box also when it excludes zero.

Only the bounds and the right-hand side change from hour to hour.  The
rest of a plant's correction programs (the objective, the row senses and
the matrix) and the rate limits and tank capacities the bounds start
from are built once per ``PlantConfig`` (``_correction_template``, cached)
and shared read-only by every program of that plant.

Every correction LP is solved by ``lp.solve``: loaded whole into the one
HiGHS instance the process keeps for such solves, apart from the
controllers' warm-started sessions, and solved cold with HiGHS's default
options, presolve among them.  The outcome is the one a fresh instance
gives, without building an instance per hour.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lp
from .plant import (
    STORAGE_UNITS,
    UNITS,
    ZERO_ACTION,
    ControlAction,
    Disturbance,
    PlantConfig,
    PlantState,
    balance_matrix,
    balance_residuals,
    rate_bounds,
)

UNCHANGED = "unchanged"
CORRECTED = "corrected"
FALLBACK = "fallback"

#: Rate mismatches below this are treated as already balanced (kW).
BALANCE_TOL = 1e-7


@dataclass(frozen=True)
class RestoreOutcome:
    kind: str
    action: ControlAction
    deltas: np.ndarray

    @property
    def total_correction(self) -> float:
        return float(np.abs(self.deltas).sum())


def restore(
    config: PlantConfig,
    state: PlantState,
    action: ControlAction,
    realized: Disturbance,
) -> RestoreOutcome:
    """Minimal-correction repair of ``action`` for the realized loads."""
    residuals = balance_residuals(config, action, realized)
    if max(abs(r) for r in residuals) <= BALANCE_TOL:
        if _storage_feasible(config, state, action):
            return RestoreOutcome(UNCHANGED, action, np.zeros(len(UNITS)))

    program = _correction_program(config, state, action, residuals)
    solution = lp.solve(program)
    if not solution.is_optimal:
        return RestoreOutcome(FALLBACK, ZERO_ACTION, np.zeros(len(UNITS)))
    plus, minus = solution.x.reshape(2, len(UNITS))
    deltas = plus - minus
    deltas[np.abs(deltas) < 1e-12] = 0.0
    if np.abs(deltas).max() <= 1e-9:
        return RestoreOutcome(UNCHANGED, action, np.zeros(len(UNITS)))
    corrected = ControlAction.from_array(action.as_array() + deltas)
    return RestoreOutcome(CORRECTED, corrected, deltas)


def _storage_feasible(
    config: PlantConfig, state: PlantState, action: ControlAction
) -> bool:
    return all(-1e-9 <= state.storage(u) - action.rate(u) <= config.cap(u) + 1e-9
               for u in STORAGE_UNITS)


@functools.lru_cache(maxsize=8)
def _correction_template(
    config: PlantConfig,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """What every correction program of ``config`` shares, all read-only:
    the ``lp.LinearProgram`` fields that no hour changes (objective, row
    senses, the column-major matrix), the rate limits (lower, upper) in
    UNITS order and the tank capacities in STORAGE_UNITS order.
    """
    coeff = balance_matrix(config)
    a = np.hstack([coeff, -coeff])
    a_rows, a_cols = np.nonzero(a)
    fixed = dict(
        objective=np.ones(2 * len(UNITS)),
        row_sense=np.full(3, lp.EQ, dtype=np.int8),
        **lp.column_major(a_rows, a_cols, a[a_rows, a_cols], a.shape[1]),
    )
    lower, upper = rate_bounds(config)
    cap = np.array([config.cap(unit) for unit in STORAGE_UNITS])
    for arr in (*fixed.values(), lower, upper, cap):
        arr.setflags(write=False)
    return fixed, lower, upper, cap


def _correction_program(
    config: PlantConfig,
    state: PlantState,
    action: ControlAction,
    residuals: tuple[float, float, float],
) -> lp.LinearProgram:
    """Columns: delta+ for every unit in UNITS order, then delta-."""
    fixed, lower, upper, cap = _correction_template(config)
    rates = action.as_array()
    lo, hi = lower - rates, upper - rates
    for j, unit in enumerate(STORAGE_UNITS):
        i = UNITS.index(unit)
        lo[i] = max(lo[i], state.storage(unit) - cap[j] - rates[i])
        hi[i] = min(hi[i], state.storage(unit) - rates[i])

    return lp.LinearProgram(
        lower=np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0)]),
        upper=np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0)]),
        rhs=-np.array(residuals),
        **fixed,
    )
