"""Post-hoc correction of committed actions against realized loads.

Once the hour's loads are observed, the committed dispatch generally no
longer balances them.  The restoration problem finds the smallest total
rate adjustment (sum of |delta| over all units) that restores both water
balances while keeping every unit within its limits and both tanks inside
their physical capacity.  If no such correction exists the plant takes no
action for the hour and the shortfall is booked downstream.

The correction is an LP with 14 columns and 3 rows.  Each unit's change
is split as delta = delta+ - delta-, both nonnegative.  The matrix is
[B, -B] with B = ``plant.balance_matrix``: the chilled-water, hot-water
and condenser balances.  The condenser identity is imposed inside the
correction problem (rather than recomputed afterwards) so the tower rate
both stays consistent and respects its own limit.  Each delta lies in a
box [lo, hi], ``plant.rate_bounds`` minus the committed rate, cut for the
tanks to what keeps their level in [0, cap].  The box becomes the column
bounds delta+ in [max(lo, 0), max(hi, 0)] and delta- in [max(-hi, 0),
max(-lo, 0)], which admit exactly the deltas of the box also when it
excludes zero.

The total correction alone has alternate optima: a hot-water residual
costs the same kW whether the hot-water tank or the generator absorbs it,
and the split moves the hour's bill.  So the objective carries a small
utility-cost tie-break: delta+ of unit u costs 1 + w c_u and delta- costs
1 - w c_u, where c_u is the unit's purchase cost per kW at the hour's
realized electricity price, water and gas included
(``plant.purchase_cost`` of ``plant.utility_matrix``), and w makes
w max|c_u| = ``TIE_BREAK``.  The total correction stays the primary
objective, and among its minima the cheapest correction wins.  The demand
charge is left out of the tie-break by choice: it prices the month's peak,
not the hour's draw, and whether a kW of this hour adds to it depends on
the rest of the month.

Only the bounds, the right-hand side and the objective change from hour
to hour.  The rest of a plant's correction programs (the row senses and
the matrix), the per-kW utility draws, and the rate limits and tank
capacities the bounds start from are built once per ``PlantConfig``
(``_correction_template``, cached) and shared read-only by every program
of that plant.

With the tie-break the optimum is unique wherever the units that can take
up the same residual differ in cost, as on the default plant at any
positive electricity price.  So the correction no longer depends on the
solver's path, and each run solves its corrections warm on a
``lp.HighsSession`` of its own (``simulate.run_closed_loop`` makes one,
apart from the controller's, with the controllers' options: no presolve,
no cost perturbation).  Every correction program has the same shape, so
each one restarts from the last optimal one's basis; a correction that
ends infeasible leaves the session no basis, and the next one starts cold.
The session belongs to one run: a warm restart from another run's basis
can move the corrections in their last bits.
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
    purchase_cost,
    rate_bounds,
    utility_matrix,
)

UNCHANGED = "unchanged"
CORRECTED = "corrected"
FALLBACK = "fallback"

#: Rate mismatches below this are treated as already balanced (kW).
BALANCE_TOL = 1e-7
#: The largest share of a kW of correction that the utility-cost tie-break
#: adds or takes off.
TIE_BREAK = 1e-4


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
    session: lp.HighsSession | None = None,
) -> RestoreOutcome:
    """Minimal-correction repair of ``action`` for the realized loads.

    The correction program runs on ``session``, a run's session for
    corrections only; without one, on a fresh session, cold.
    """
    residuals = balance_residuals(config, action, realized)
    if max(abs(r) for r in residuals) <= BALANCE_TOL:
        if _storage_feasible(config, state, action):
            return RestoreOutcome(UNCHANGED, action, np.zeros(len(UNITS)))

    program = _correction_program(config, state, action, residuals,
                                  realized.price_elec)
    solution = (session or lp.HighsSession())._run(program)
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
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every correction program of ``config`` shares, all read-only:
    the ``lp.LinearProgram`` fields that no hour changes (row senses, the
    column-major matrix), the utility draws per kW of each unit
    (``plant.utility_matrix``), the rate limits (lower, upper) in UNITS
    order and the tank capacities in STORAGE_UNITS order.
    """
    coeff = balance_matrix(config)
    a = np.hstack([coeff, -coeff])
    a_rows, a_cols = np.nonzero(a)
    fixed = dict(
        row_sense=np.full(3, lp.EQ, dtype=np.int8),
        **lp.column_major(a_rows, a_cols, a[a_rows, a_cols], a.shape[1]),
    )
    utility = utility_matrix(config)
    lower, upper = rate_bounds(config)
    cap = np.array([config.cap(unit) for unit in STORAGE_UNITS])
    for arr in (*fixed.values(), utility, lower, upper, cap):
        arr.setflags(write=False)
    return fixed, utility, lower, upper, cap


def _correction_program(
    config: PlantConfig,
    state: PlantState,
    action: ControlAction,
    residuals: tuple[float, float, float],
    price_elec: float,
) -> lp.LinearProgram:
    """Columns: delta+ for every unit in UNITS order, then delta-."""
    fixed, utility, lower, upper, cap = _correction_template(config)
    unit_cost = purchase_cost(config, utility, price_elec)
    scale = np.abs(unit_cost).max()
    if scale > 0.0:
        unit_cost *= TIE_BREAK / scale
    rates = action.as_array()
    lo, hi = lower - rates, upper - rates
    for j, unit in enumerate(STORAGE_UNITS):
        i = UNITS.index(unit)
        lo[i] = max(lo[i], state.storage(unit) - cap[j] - rates[i])
        hi[i] = min(hi[i], state.storage(unit) - rates[i])

    return lp.LinearProgram(
        objective=np.concatenate([1.0 + unit_cost, 1.0 - unit_cost]),
        lower=np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0)]),
        upper=np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0)]),
        rhs=-np.array(residuals),
        **fixed,
    )
