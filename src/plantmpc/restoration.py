"""Post-hoc correction of committed actions against realized loads.

Once the hour's loads are observed, the committed dispatch generally no
longer balances them.  The restoration problem finds the smallest total
rate adjustment (sum of |delta| over all units) that restores both water
balances while keeping every unit within its limits and both tanks inside
their physical capacity.  If no such correction exists the plant takes no
action for the hour and the shortfall is booked downstream.

The correction is an LP with 14 columns and 3 rows.  Each unit's change
is split as delta = delta+ - delta-, both nonnegative, and the objective
is their sum.  The three rows are the chilled-water, hot-water and
condenser balances.  The condenser identity is imposed inside the
correction problem (rather than recomputed afterwards) so the tower rate
both stays consistent and respects its own limit.  The unit limits and
tank capacities confine each delta to a box [lo, hi]; they become the
column bounds delta+ in [max(lo, 0), max(hi, 0)] and delta- in
[max(-hi, 0), max(-lo, 0)], which admit exactly the deltas of the box
also when it excludes zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .plant import (
    PRODUCTION_UNITS,
    STORAGE_UNITS,
    UNITS,
    ZERO_ACTION,
    ControlAction,
    Disturbance,
    PlantConfig,
    PlantState,
    balance_residuals,
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

    solution = lp.solve(_correction_program(config, state, action, residuals))
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
    for unit in STORAGE_UNITS:
        e_next = state.storage(unit) - action.rate(unit)
        if not -1e-9 <= e_next <= config.cap(unit) + 1e-9:
            return False
    return True


def _correction_program(
    config: PlantConfig,
    state: PlantState,
    action: ControlAction,
    residuals: tuple[float, float, float],
) -> lp.LinearProgram:
    """Columns: delta+ for every unit in UNITS order, then delta-."""
    ui = {u: i for i, u in enumerate(UNITS)}
    # Rate coefficients of the chilled-water, hot-water and condenser
    # balances, as in plant.balance_residuals.
    coeff = np.zeros((3, len(UNITS)))
    coeff[0, [ui["cs"], ui["hrc"], ui["cw"]]] = 1.0
    coeff[1, [ui["hrc"], ui["hwg"], ui["hx"], ui["hw"]]] = (
        config.alpha_h_hrc, 1.0, -1.0, 1.0)
    coeff[2, [ui["ct"], ui["cs"], ui["hx"]]] = (
        1.0, -config.alpha_cond_cs, -1.0)
    a = np.hstack([coeff, -coeff])
    a_rows, a_cols = np.nonzero(a)

    lo = np.empty(len(UNITS))
    hi = np.empty(len(UNITS))
    for i, u in enumerate(UNITS):
        rate = action.rate(u)
        if u in PRODUCTION_UNITS:
            lo[i], hi[i] = -rate, config.pmax(u) - rate
        else:
            lo[i] = max(-config.pmax(u) - rate,
                        state.storage(u) - config.cap(u) - rate)
            hi[i] = min(config.pmax(u) - rate, state.storage(u) - rate)

    return lp.LinearProgram(
        objective=np.ones(2 * len(UNITS)),
        lower=np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0)]),
        upper=np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0)]),
        row_sense=np.full(3, lp.EQ, dtype=np.int8),
        rhs=-np.array(residuals),
        a_rows=a_rows,
        a_cols=a_cols,
        a_vals=a[a_rows, a_cols],
    )
