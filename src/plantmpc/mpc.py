"""The LP that all three receding-horizon controllers solve.

The deterministic, stochastic and perfect-information controllers build
one program, ``build_reduced``, and differ only in the disturbance data fed
to it: the mean forecast, a scenario set, or the realized trajectory.  The
single-trajectory programs are the one-scenario case; the stochastic
program replicates every recourse quantity per scenario while first-stage
decisions (the hour-t unit loads and the hour t+1 storage levels) live in
shared columns, which enforces nonanticipativity exactly.

Planned storage levels stay in the box ``storage_bounds`` derives from
the current state and the buffer beta, the same box the closed-loop trace
records; no bounds are carried from hour to hour.

The program is the reduced form of the linear plant model in ``plant``: the
water-balance rows and the unit bounds are ``plant.balance_matrix`` and
``plant.rate_bounds``, and the cooling-tower load is eliminated through the
balance matrix's condenser row, which folds the tower's draws in
``plant.utility_matrix`` into the other units' (these price the unit loads
and fill the peak rows).  The residual demands and the unmet/overmet
integrators are eliminated by substitution too, and so are the tank rates,
as storage differences, and the unmet slacks, as what each water balance
falls short of its load (``_ReducedLayout``).  Those two are presolve
reductions made once, by construction, because the controller sessions
run without HiGHS's presolve to keep their warm starts.  At paper scale
they removed a third of the columns, took sto-paper's peak memory from
297 to 268 MB (medians of 10 runs each) and moved no committed action by
more than 1.2e-9 kW (seeds 0, 1 and 7919 of the three benchmark
workloads).

Every program carries two peak registers per scenario, this month's and
next month's, and each step bills to the register of its own month, so
for a given plant, horizon N and S scenarios the program has one shape for
the whole run: ``8 + S(8N - 4)`` columns and ``5NS - 2S`` rows, plus ``NS``
tower-limit rows when that limit can bind.  For the default plant at
N = 168 and S = 100 that is 134 008 columns and 83 800 rows; a one-scenario
program has 1 348 columns and 838 rows.

Because the shape is fixed, ``build_reduced`` assembles the matrix once per
plant, N and S (``_ProgramTemplate``, cached), column-major as HiGHS reads
it, and each hour writes only its data: the load right-hand sides, the
tank pins and storage box, this month's register bound, the unit and
register costs, and, when the horizon crosses a month end, the register
entries of the peak rows.

A program of S > 1 scenarios carries a ``start`` for its session's cold
solve: the optimal basis of the one-scenario program of the scenario mean
(same state, timing and buffer), copied into every scenario block.  Each
block is a copy of the one-scenario program's structure, so that basis is
near-optimal for all of them; at paper scale (sto-paper, seeds 0, 1 and
7919) it cuts the cold solve's dual simplex iterations from 80 650-81 010
to 6 310-7 170, the mean program's included.  It also carries its
layout's one-step ``shift``: from one hour to the next every step moves one
hour earlier, and so does the stochastic controller's scenario noise
(``simulate._ScenarioSampler``), so the next program is nearly the last one
moved one step, and the session restarts from the last optimal basis moved
with it.  The single-trajectory programs have neither.  Shifted, their warm
restarts took 8 iterations instead of 49 (det-monthend, seed 0) and 5
instead of 58 (perf-monthend), but HiGHS's time on programs that small is
mostly setup: reading, moving and writing their 2 860 statuses (2 186
now) and HiGHS's repair of the alien basis added about 0.5 ms per hour,
where the unshifted restart hands HiGHS its own basis back in 0.01 ms.
Over 10 alternating pairs each, ``perfbench``'s ``warm_hour_ref`` rose
3.3 % (det-monthend, lower in 2) and 3.2 % (perf-monthend, lower in 1).

``ReducedProgram.expand`` decodes an optimal solution into a ``Plan``: the
per-scenario unit loads, slacks, storage levels and peak registers, in
plant terms.  ``extract_action`` reads its hour-t unit loads.  The
extensive-form program, with a column for every residual demand and
integrator state, is built only by the test suite (``tests/full_form.py``),
as the oracle the reduced program is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import lp
from .forecast import ScenarioSet
from .plant import (
    CHANNELS,
    STORAGE_UNITS,
    UNITS,
    ControlAction,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_matrix,
    demand_discount,
    rate_bounds,
    utility_matrix,
)


@dataclass(frozen=True)
class HorizonTiming:
    """Horizon placement relative to the billing calendar.

    ``month_end`` is the last hour index of the month containing ``t``,
    equal to ``t`` itself on the closing hour.  Step k bills to the current
    month's peak register while t + k <= month_end and to next month's
    after that (``next_month``), so on the closing hour step 0 alone stays
    in the closing month.
    """

    t: int
    n: int
    month_end: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("horizon must be >= 1")
        if self.month_end < self.t:
            raise ValueError("month_end precedes current hour")

    @property
    def next_month(self) -> np.ndarray:
        """Per step, whether it bills to next month's register."""
        return self.t + np.arange(self.n) > self.month_end

    @property
    def discount(self) -> float:
        """The demand-charge discount; both registers are priced at
        ``price_demand / discount``.

        On the closing hour the clamp makes that N times the demand price.
        This weight has not been checked against the paper's demand-charge
        term: the repository holds only the paper's abstract (``PAPER.md``).
        """
        return demand_discount(self.month_end - self.t, self.n)


def storage_bounds(
    config: PlantConfig, state: PlantState, beta: float
) -> list[tuple[float, float]]:
    """Each tank's planned-level box (lower, upper), in ``STORAGE_UNITS`` order.

    The buffer ``beta`` narrows a tank to [beta * cap, (1 - beta) * cap];
    a level inside a buffer zone widens the nearer bound to itself, so the
    box always holds the current level and an idle tank is a feasible plan.
    """
    if not 0.0 <= beta < 0.5:
        raise ValueError("beta must lie in [0, 0.5)")
    return [
        (min(beta * config.cap(u), state.storage(u)),
         max((1.0 - beta) * config.cap(u), state.storage(u)))
        for u in STORAGE_UNITS
    ]


def _scenario_values(forecast_or_scenarios) -> np.ndarray:
    if isinstance(forecast_or_scenarios, ScenarioSet):
        return forecast_or_scenarios.values
    if isinstance(forecast_or_scenarios, DisturbanceTrajectory):
        return forecast_or_scenarios.values[None, :, :]
    raise TypeError("expected DisturbanceTrajectory or ScenarioSet")


class _Triplets:
    """Coordinate entries of a constraint matrix, gathered in any order."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def put(self, rows, cols, vals) -> None:
        """One entry per element of the broadcast of the three arguments."""
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        self.rows.append(rows.reshape(-1).astype(np.int64, copy=False))
        self.cols.append(cols.reshape(-1).astype(np.int64, copy=False))
        self.vals.append(vals.reshape(-1).astype(float))

    def program(self, objective, lower, upper, sense, rhs,
                rhs_lower=None) -> lp.LinearProgram:
        """The program of these entries, sorted column-major."""
        matrix = lp.column_major(
            *map(np.concatenate, (self.rows, self.cols, self.vals)), objective.size)
        return lp.LinearProgram(objective, lower, upper, sense, rhs, **matrix,
                                rhs_lower=rhs_lower)


#: The program's unit columns, in ``UNITS`` order: the production units but
#: the cooling tower, whose load the condenser balance substitutes
#: (``_tower``).  The tanks' rates are differences of storage columns.
_CT = UNITS.index("ct")
_TANKS = [UNITS.index(u) for u in STORAGE_UNITS]
_UNITS = [i for i in range(len(UNITS)) if i != _CT and i not in _TANKS]


def _tower(config: PlantConfig) -> np.ndarray:
    """Coefficients with P_ct = tower @ P over the unit columns: the condenser
    balance (row 2 of ``plant.balance_matrix``, ct coefficient 1, no tank
    terms) solved for P_ct."""
    return -balance_matrix(config)[2, _UNITS]


class _ReducedLayout:
    """Column/row indices of the program for one shape, all scenarios stacked.

    Residual columns, the unmet/overmet integrators, the cooling-tower load,
    the tank rates and the unmet slacks are definitional, and two of the
    eliminations are presolve reductions made once, here (Andersen and
    Andersen, Presolving in linear programming, Math. Program. 71, 1995).
    The residuals and the tower load substitute into the objective and peak
    rows, and each integrator chain turns into triangular weights on the
    slacks plus a constant offset.  Each tank rate is defined by its
    dynamics row, P_k = E_k - E_{k+1}, which then turns into the rate limit
    on that difference: a two-sided row from step 1 on, and, E_0 being
    pinned, bounds on the shared E_1 columns at step 0.  Each unmet slack is
    a column singleton of its water-balance row: the row becomes ``<=`` the
    load and its penalty moves onto the row's other columns.  When the
    tower limit can bind (``tower_binds``) it is one more row block,
    ``tower`` @ P <= pmax_ct.

    What remains per scenario: unit loads ``P`` (s, 4, n) in ``UNITS`` order
    without ct and the tanks, the overmet slacks ``O`` (s, 2, n), chilled
    water then hot water, storage states ``E`` (s, 2, n+1) and the peak
    registers ``R`` (s, 2).  This month's ``R1`` is the last column of each
    scenario block; next month's ``R2`` columns follow the last block.
    Every program carries both, so the shape is the same inside a month,
    across a month end and on the closing hour.  The hour-0 loads and the
    storage columns of steps 0 and 1 are shared by all scenarios.  Each
    scenario's rows are its ``row_blocks`` in order, one row per step, but
    the dynamics rows start at step 1; ``row_block`` gives one block
    (s, steps).
    """

    def __init__(self, n: int, s: int, tower_binds: bool):
        self.n, self.s = n, s
        nu = len(_UNITS)
        steps = dict(cw_bal=n, hw_bal=n, e_dyn_cw=n - 1, e_dyn_hw=n - 1, peak=n)
        if tower_binds:
            steps["tower"] = n
        self.row_blocks = tuple(steps)
        per_scenario = sum(steps.values())
        self.shared = nu + 4  # first-stage loads, storage pins, next-hour
        self.block = (nu + 4) * n - nu - 1
        self.num_vars = self.shared + s * (self.block + 1)
        self.num_rows = per_scenario * s

        xi = np.arange(s, dtype=np.int64)
        base = self.shared + xi * self.block
        units = np.arange(nu, dtype=np.int64)
        tanks = np.arange(2, dtype=np.int64)
        k1 = np.arange(n - 1, dtype=np.int64)

        self.P = np.empty((s, nu, n), dtype=np.int64)
        self.P[:, :, 0] = units
        self.P[:, :, 1:] = base[:, None, None] + units[None, :, None] * (n - 1) + k1
        ooff = base + nu * (n - 1)
        self.O = (
            ooff[:, None, None]
            + np.arange(2 * n, dtype=np.int64).reshape(1, 2, n)
        )
        self.E = np.empty((s, 2, n + 1), dtype=np.int64)
        self.E[:, :, 0] = nu + tanks
        self.E[:, :, 1] = nu + 2 + tanks
        self.E[:, :, 2:] = (
            (ooff + 2 * n)[:, None, None] + tanks[None, :, None] * (n - 1) + k1
        )
        self.R = np.stack(
            [base + self.block - 1, self.shared + s * self.block + xi], axis=1
        )
        self.rows = (
            (per_scenario * xi)[:, None]
            + np.arange(per_scenario, dtype=np.int64)
        )
        bounds = np.cumsum([0, *steps.values()])
        self._blocks = {
            name: self.rows[:, a:b] for name, a, b in zip(steps, bounds, bounds[1:])
        }
        for arr in (self.P, self.O, self.E, self.R, self.rows):
            arr.setflags(write=False)
        self.R1 = self.R[:, 0]
        self.R2 = self.R[:, 1]

    def row_block(self, name: str) -> np.ndarray:
        return self._blocks[name]

    @functools.cached_property
    def shift(self) -> lp.Shift:
        """The one-step shift from the program of hour t to that of t + 1,
        whose step k is the physical hour of step k + 1 at hour t.

        Each step's columns and rows take the statuses of the next step's,
        and the last step keeps its own.  The shared columns (the hour-0
        loads, the storage pins and the next-hour levels) take scenario 0's
        next-step status; the peak registers keep theirs.
        """
        col = np.arange(self.num_vars, dtype=np.int32)
        for index in (self.P, self.O, self.E):
            nxt = _next_steps(index.shape[2])
            col[index] = index[:, :, nxt]
            col[index[0]] = index[0][:, nxt]
        row = np.empty(self.num_rows, dtype=np.int32)
        for block in self._blocks.values():
            row[block] = block[:, _next_steps(block.shape[1])]
        for arr in (col, row):
            arr.setflags(write=False)
        return lp.Shift(col, row)


def _next_steps(steps: int) -> np.ndarray:
    """Each step's next one, the last step its own."""
    return np.minimum(np.arange(1, steps + 1), steps - 1)


@functools.lru_cache(maxsize=32)
def _reduced_layout(n: int, s: int, tower_binds: bool) -> _ReducedLayout:
    return _ReducedLayout(n, s, tower_binds)


def _tower_binds(config: PlantConfig) -> bool:
    """Whether the tower limit can bind: it is below max condenser duty."""
    _, upper = rate_bounds(config)
    return upper[_CT] < _tower(config) @ upper[_UNITS] - 1e-9


@dataclass(frozen=True)
class Plan:
    """An optimal solution of a controller program, in plant terms.

    Per scenario: unit loads ``P`` (s, 7, n) in ``UNITS`` order, slacks
    ``S`` (s, 4, n) (unmet and overmet chilled water, then hot water),
    storage levels ``E`` (s, 2, n + 1) from the current state on, and the
    peak registers ``peaks`` (s, 2), this month's then next month's.  The
    hour-0 loads and hour-1 storage levels are the same in every scenario.
    ``objective`` includes the program's constant offset.
    """

    P: np.ndarray
    S: np.ndarray
    E: np.ndarray
    peaks: np.ndarray
    objective: float


@dataclass
class ReducedProgram:
    """A controller program and what it takes to decode its solutions.

    ``offset`` is the constant the eliminated quantities contribute to the
    objective.  ``start`` and ``shift`` are None for one scenario.  For
    more, ``start`` is ``HighsSession.solve``'s ``start``, which solves the
    scenario-mean program and returns its optimal basis copied into every
    scenario block (``_mean_start``), and ``shift`` is its ``shift``, the
    layout's one-step shift (``_ReducedLayout.shift``).
    """

    program: lp.LinearProgram
    offset: float
    layout: _ReducedLayout
    config: PlantConfig
    start: Callable[[], lp.Basis | None] | None = None
    shift: lp.Shift | None = None

    def expand(self, sol: lp.LpSolution) -> Plan:
        """Decode an optimal solution of ``program``: the tank rates are
        storage differences and the unmet energy is what each water
        balance's row falls short of its load, at least zero."""
        if not sol.is_optimal:
            raise ValueError(f"cannot decode a {sol.status} solution")
        lay, x = self.layout, sol.x
        p, e, overmet = x[lay.P], x[lay.E], x[lay.O]
        loads = np.empty((lay.s, 7, lay.n))
        loads[:, _UNITS] = p
        loads[:, _CT] = np.einsum("u,sun->sn", _tower(self.config), p)
        loads[:, _TANKS] = e[:, :, :-1] - e[:, :, 1:]
        supply = np.einsum("ju,sun->sjn", balance_matrix(self.config)[:2], loads)
        demand = np.stack([self.program.rhs[lay.row_block(b)]
                           for b in ("cw_bal", "hw_bal")], axis=1)
        slacks = np.empty((lay.s, 4, lay.n))
        slacks[:, 0::2] = np.maximum(demand - supply + overmet, 0.0)
        slacks[:, 1::2] = overmet
        return Plan(
            P=loads,
            S=slacks,
            E=e,
            peaks=x[lay.R],
            objective=sol.objective + self.offset,
        )


def _accumulate(obj: np.ndarray, index: np.ndarray, costs) -> None:
    """Add ``costs`` to ``obj`` at ``index``, unbuffered: the shared
    first-stage columns accumulate over scenarios.  ``costs`` is broadcast
    to the index's shape first; numpy 2.4's ``np.add.at`` reads values it
    must broadcast itself wrongly past the first row of a 2-D index."""
    np.add.at(obj, index, np.broadcast_to(costs, index.shape))


class _ProgramTemplate:
    """What the program of one plant, horizon N and S scenarios holds for a
    whole run.

    The triplet assembly runs once, here: the sparsity pattern, the static
    matrix coefficients, the row senses, the static bounds (unit limits,
    nonnegative slacks, next month's register from zero), the tank rate
    limits, the tower-limit right-hand sides and the static costs: the
    slacks' and the unmet penalty folded onto the unit and storage
    columns.  The register entries of the peak rows bill every step to
    this month's register (-1 for R1, 0 for R2); ``r1`` and ``r2`` are
    where they sit in the column-major ``a_vals``, in (scenario, step)
    order.  Every array is read-only: ``build_reduced`` shares the pattern,
    the senses, the rate limits and, inside a month, the matrix values, and
    copies the rest before writing an hour's data into it.
    """

    def __init__(self, config: PlantConfig, n: int, s: int):
        tower = _tower(config)
        red = self.layout = _reduced_layout(n, s, _tower_binds(config))
        obj = np.zeros(red.num_vars)
        lower = np.full(red.num_vars, -np.inf)
        upper = np.full(red.num_vars, np.inf)
        sense = np.empty(red.num_rows, dtype=np.int8)
        rhs = np.zeros(red.num_rows)
        rhs_lower = np.zeros(red.num_rows)
        matrix = _Triplets()

        weight = self.weight = 1.0 / s
        P, O, E = red.P, red.O, red.E
        balance = balance_matrix(config)
        # The utility draws per kW of each unit column, P_ct substituted; the
        # tanks draw none.
        utility = utility_matrix(config)
        utility = utility[:, _UNITS] + np.outer(utility[:, _CT], tower)
        rate_lower, rate_upper = self.rates = rate_bounds(config)

        def put_units(rows, coeffs) -> None:
            """The nonzero unit coefficients of one row block, in column order."""
            for i in np.flatnonzero(coeffs):
                matrix.put(rows, P[:, i], coeffs[i])

        if "tower" in red.row_blocks:
            tower_rows = red.row_block("tower")
            put_units(tower_rows, tower)
            sense[tower_rows] = lp.LE
            rhs[tower_rows] = config.pmax_ct

        # Water balances: the unit rows of plant.balance_matrix, each tank's
        # rate as E_k - E_{k+1}, minus the overmet slack, at most the load;
        # the unmet slack is what the row falls short of it.  Its penalty,
        # rho times the triangular integrator weight, prices the shortfall:
        # a constant on the load (``_fill``'s offset) less the same weight on
        # each column of the row, the overmet slack's included.
        tri = (n - np.arange(n)).astype(float)
        self.cw_rows, self.hw_rows = (red.row_block(b) for b in ("cw_bal", "hw_bal"))
        for j, rows in enumerate((self.cw_rows, self.hw_rows)):
            penalty = weight * config.rho(STORAGE_UNITS[j]) * tri
            put_units(rows, balance[j, _UNITS])
            _accumulate(obj, P, -np.multiply.outer(balance[j, _UNITS], penalty))
            for i in np.flatnonzero(balance[j, _TANKS]):
                coeff = balance[j, _TANKS[i]]
                matrix.put(rows, E[:, i, :-1], coeff)
                matrix.put(rows, E[:, i, 1:], -coeff)
                _accumulate(obj, E[:, i, :-1], -coeff * penalty)
                _accumulate(obj, E[:, i, 1:], coeff * penalty)
            matrix.put(rows, O[:, j], -1.0)
            obj[O[:, j]] = 2.0 * penalty
            sense[rows] = lp.LE

        # Tank rates from step 1 on: E_k - E_{k+1} within the rate limits.
        for j, unit in enumerate(STORAGE_UNITS):
            dyn = red.row_block(f"e_dyn_{unit}")
            matrix.put(dyn, E[:, j, 1:-1], 1.0)
            matrix.put(dyn, E[:, j, 2:], -1.0)
            sense[dyn] = lp.RANGE
            rhs_lower[dyn] = rate_lower[_TANKS[j]]
            rhs[dyn] = rate_upper[_TANKS[j]]

        # Peak rows: the substituted electricity draw minus R, R the register
        # of the step's month, at most -L_e.  Both registers appear in every
        # row, one with coefficient zero, so the pattern stays the same while
        # the split slides.
        self.peak_rows = red.row_block("peak")
        put_units(self.peak_rows, utility[0])
        matrix.put(self.peak_rows, red.R1[:, None], -1.0)
        matrix.put(self.peak_rows, red.R2[:, None], 0.0)
        sense[self.peak_rows] = lp.LE

        lower[P] = rate_lower[_UNITS][None, :, None]
        upper[P] = rate_upper[_UNITS][None, :, None]
        lower[O] = 0.0
        lower[red.R2] = 0.0

        # The substituted utility purchases per kW of each unit column: the
        # electricity draw, priced per hour, and the water and gas cost.
        self.unit_draw = weight * utility[0]
        self.unit_fixed = weight * (
            utility[1] * config.price_water + utility[2] * config.price_gas
        )
        self.unmet_weight = weight * tri

        self.program = matrix.program(obj, lower, upper, sense, rhs, rhs_lower)
        # A register column holds exactly its scenario's N peak rows, in
        # step order.
        self.r1, self.r2 = (
            (self.program.a_starts[cols][:, None] + np.arange(n)).reshape(-1)
            for cols in (red.R1, red.R2)
        )
        for arr in vars(self.program).values():
            arr.setflags(write=False)


@functools.lru_cache(maxsize=4)
def _program_template(config: PlantConfig, n: int, s: int) -> _ProgramTemplate:
    """The template of ``build_reduced``'s programs; whether the tower row
    block exists (``_tower_binds``) follows from ``config``."""
    return _ProgramTemplate(config, n, s)


def build_reduced(
    config: PlantConfig,
    state: PlantState,
    forecast_or_scenarios,
    timing: HorizonTiming,
    beta: float,
) -> ReducedProgram:
    """Build the program of any controller from its disturbance data.

    The data is one trajectory (the mean forecast or the realized
    disturbances) or a ``ScenarioSet``, each scenario weighted equally.
    The horizon starts from ``state``: its tank levels pin step 0,
    ``storage_bounds(config, state, beta)`` bounds every later level, and
    its peak bounds this month's register from below.
    The optimum of the returned program plus its ``offset`` is the
    expected cost over the horizon.

    The hour writes only its data into copies of the run's template
    (``_ProgramTemplate``, cached per plant, N and S): the balance and peak
    right-hand sides, the tank pins and the storage box (with the step-0
    rate limits on the next-hour levels), this month's register bound, the
    unit and register costs, and the register entries of the peak rows
    when the horizon crosses a month end.  Its objective, bounds and
    right-hand sides are fresh writable arrays; the row senses, the lower
    sides of the two-sided rows and the sparsity pattern (``a_rows``,
    ``a_cols``, ``a_starts``) are the template's, shared by every program
    of the shape and read-only.  So are the matrix values inside a month:
    only a horizon with a step that bills to next month gets a fresh copy
    of them.
    """
    values = _scenario_values(forecast_or_scenarios)
    _, n_chan, n = values.shape
    if n != timing.n:
        raise ValueError(f"forecast length {n} != horizon {timing.n}")
    if n_chan != len(CHANNELS):
        raise ValueError("expected 4 disturbance channels")
    return _fill(config, state, values, timing, beta)


def _fill(
    config: PlantConfig,
    state: PlantState,
    values: np.ndarray,
    timing: HorizonTiming,
    beta: float,
) -> ReducedProgram:
    """``build_reduced`` on checked (S, 4, N) disturbance values."""
    s, _, n = values.shape
    template = _program_template(config, n, s)
    red, shared = template.layout, template.program
    load_e, load_cw, load_hw, price_e = (values[:, ch, :] for ch in range(4))

    # Each peak row bills to one register, the one of its step's month; the
    # template's bill every step to this month's.
    a_vals = shared.a_vals
    if timing.next_month.any():
        a_vals = a_vals.copy()
        r1_coeff = np.where(timing.next_month, 0.0, -1.0)
        a_vals[template.r1] = np.tile(r1_coeff, s)
        a_vals[template.r2] = np.tile(-1.0 - r1_coeff, s)

    rhs = shared.rhs.copy()
    rhs[template.cw_rows] = load_cw
    rhs[template.hw_rows] = load_hw
    rhs[template.peak_rows] = -load_e

    lower, upper = shared.lower.copy(), shared.upper.copy()
    E = red.E
    rate_lower, rate_upper = template.rates
    for j, (lo, hi) in enumerate(storage_bounds(config, state, beta)):
        level = state.storage(STORAGE_UNITS[j])
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = level
        lower[E[:, j, 1:]] = lo
        upper[E[:, j, 1:]] = hi
        # The step-0 rate limit, E_0 - E_1 within the tank's rate bounds.
        lower[E[0, j, 1]] = max(lo, level - rate_upper[_TANKS[j]])
        upper[E[0, j, 1]] = min(hi, level - rate_lower[_TANKS[j]])
    lower[red.R1] = state.peak

    # The unit costs and the discounted demand charges.
    obj = shared.objective.copy()
    _accumulate(obj, red.P, template.unit_draw[:, None] * price_e[:, None, :]
                + template.unit_fixed[:, None])
    obj[red.R] = template.weight * (config.price_demand / timing.discount)

    # The campus load's electricity, the unmet penalty on the water loads
    # and the integrators' values carried into every step.
    offset = float(
        template.weight * np.sum(price_e * load_e)
        + template.unmet_weight @ (config.rho_cw * load_cw.sum(axis=0)
                                   + config.rho_hw * load_hw.sum(axis=0))
        + n * (config.rho_cw * (state.ul_cw + state.ol_cw)
               + config.rho_hw * (state.ul_hw + state.ol_hw))
    )

    program = replace(shared, objective=obj, lower=lower, upper=upper, rhs=rhs,
                      a_vals=a_vals)
    if s == 1:
        return ReducedProgram(program, offset, red, config)
    start = functools.partial(_mean_start, red, config, state, values, timing, beta)
    return ReducedProgram(program, offset, red, config, start, red.shift)


def _mean_start(
    red: _ReducedLayout,
    config: PlantConfig,
    state: PlantState,
    values: np.ndarray,
    timing: HorizonTiming,
    beta: float,
) -> lp.Basis | None:
    """The optimal basis of the scenario-mean program, copied into every
    scenario block of the S-scenario program of layout ``red`` built from
    ``values``; None when the mean program has no optimum.

    The shared first-stage columns take the mean program's status.  Every
    block copies them, but each counts once, so the copy is short of a
    full basis by S - 1 times the shared columns that are basic;
    ``lp.Basis.alien`` lets HiGHS repair that.
    """
    mean = _fill(config, state, values.mean(axis=0, keepdims=True), timing, beta)
    session = lp.HighsSession()
    solution = session._run(mean.program)
    if not solution.is_optimal:
        return None
    seed, one = session.basis(), mean.layout
    col = np.empty(red.num_vars, dtype=np.int8)
    for full, single in ((red.P, one.P), (red.O, one.O), (red.E, one.E),
                         (red.R, one.R)):
        col[full] = seed.col[single]
    row = np.empty(red.num_rows, dtype=np.int8)
    row[red.rows] = seed.row[one.rows]
    return lp.Basis(col, row, solution.iterations)


def extract_action(plan: Plan) -> ControlAction:
    """The hour-t unit loads of a decoded plan, shared by every scenario."""
    return ControlAction.from_array(plan.P[0, :, 0])
