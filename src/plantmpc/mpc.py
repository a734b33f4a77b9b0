"""The LP that all three receding-horizon controllers solve.

The deterministic, stochastic and perfect-information controllers build
one program, ``build_reduced``, and differ only in the disturbance data fed
to it: the mean forecast, a scenario set, or the realized trajectory.  The
single-trajectory programs are the one-scenario case; the stochastic
program replicates every recourse quantity per scenario while first-stage
decisions (the hour-t unit loads and the hour t+1 storage levels) live in
shared columns, which enforces nonanticipativity exactly.  Each scenario's
costs are weighted by its probability (``forecast.ScenarioSet``): equal
for a sample, unequal for the K scenarios that the stochastic controller
keeps of its sample (``simulate.KEPT_SCENARIOS``), each carrying the
probability of the sampled ones nearest to it.

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
they removed a third of the columns, took 29 MB off sto-paper's peak
memory (medians of 10 runs each) and moved no committed action by more
than 1.2e-9 kW (seeds 0, 1 and 7919 of the three benchmark workloads).

Every program carries two peak registers per scenario, this month's and
next month's, and each step bills to the register of its own month, so
for a given plant, horizon N and S scenarios the program has one shape for
the whole run: ``8 + S(8N - 4)`` columns and ``5NS - 2S`` rows, plus ``NS``
tower-limit rows when that limit can bind.  For the default plant at
N = 168 the stochastic controller's 20 kept scenarios give 26 808 columns
and 16 760 rows (134 008 and 83 800 for all 100 of its default sample); a
one-scenario program has 1 348 columns and 838 rows.  The register of the
month a step does not bill to keeps an explicit zero in its peak row, so
the pattern never changes; a program inside one month passes N·S such
zeros, which HiGHS drops on every load, and ``perfbench``'s
``mpc.lp_nnz`` counts them.

Every scenario block is a copy of the same plant model, and only the data
differs (Birge and Louveaux, Introduction to Stochastic Programming,
1997).  So the program's only index space is one block
(``_ReducedLayout``), and ``_ProgramTemplate`` states once how S blocks
replicate it.  Every S-scenario array is a block's replicated
(``_ProgramTemplate.columns`` and ``rows``), or split back per scenario
(``_ProgramTemplate.scenarios``): the hour's bounds and costs, the matrix,
the mean-start basis, the one-step rotation and the decoded solution.

Because the shape is fixed, ``build_reduced`` assembles the matrix once per
plant, N and S (``_ProgramTemplate``, cached), column-major as HiGHS reads
it, and each hour writes only its data: the load right-hand sides, the
tank pins and storage box, this month's register bound, the unit and
register costs, and, when the horizon crosses a month end, the register
entries of the peak rows.  sto-paper's peak memory is reached inside
HiGHS's primal cleanup of a warm solve, and every array Python holds then
adds to it.  Holding one block, column indices derived from the starts
(``lp.LinearProgram.a_cols``) and each hour's solution dropped before the
next solve took that peak from about 233 to 226 MB when the program held
all S = 100 scenarios (medians of 10 runs, seeds 0, 1 and 7919).

A program of S > 1 scenarios carries a ``start`` for its session's cold
solve: the optimal basis of the one-scenario program of the scenario mean
(same state, timing and buffer), replicated into every scenario block.
Each block is a copy of the one-scenario program's structure, so that
basis is near-optimal for all of them; at paper scale and S = 100
(sto-paper, seeds 0, 1 and 7919) it cut the cold solve's dual simplex
iterations from 80 650-81 010 to 6 310-7 170, the mean program's
included.  The mean is weighted by the scenarios' probabilities.

Every program carries its template's one-step ``shift``, a rotation of
its columns and rows: from one hour to the next every step moves one hour
earlier, and so does the stochastic controller's scenario noise
(``simulate._ScenarioSampler``), so the next program is nearly the last
one moved one step.  The session loads each of its columns and rows at the
HiGHS position of the one that held the same quantity an hour earlier and
restarts from HiGHS's own basis (``lp.HighsSession``).  The present, step
0, keeps its places, and the new last step takes those of step 1, which
passed into the present; rotated through the shared head instead, with
the head in the place of scenario 0's step 1, the stochastic program's
warm restarts took 16-21 % more iterations on the benchmark's sto-paper
window.  The one-scenario programs gain most: restarted unmoved they
re-solved 49 simplex iterations a warm hour (det-monthend, seed 0) and 58
(perf-monthend), rotated 7.8 and 4.0.  Moving the basis through Python
instead of the program had cost them more time than the iterations it
saved.

``ReducedProgram.expand`` decodes an optimal solution into a ``Plan``: the
per-scenario unit loads, slacks, storage levels and peak registers, in
plant terms.  ``extract_action`` reads its hour-t unit loads.  The
extensive-form program, with a column for every residual demand and
integrator state, is built only by the test suite (``tests/full_form.py``),
as the oracle the reduced program is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


def _probabilities(forecast_or_scenarios) -> np.ndarray | None:
    """The scenarios' probabilities, None when they are equal."""
    if (isinstance(forecast_or_scenarios, ScenarioSet)
            and not forecast_or_scenarios.equally_weighted):
        return forecast_or_scenarios.probabilities
    return None


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

    def column_major(self, num_vars: int) -> dict:
        """These entries as ``lp.column_major`` sorts them."""
        return lp.column_major(
            *map(np.concatenate, (self.rows, self.cols, self.vals)), num_vars)


#: The program's unit columns, in ``UNITS`` order: the production units but
#: the cooling tower, whose load the condenser balance substitutes
#: (``_tower``).  The tanks' rates are differences of storage columns.
_CT = UNITS.index("ct")
_TANKS = [UNITS.index(u) for u in STORAGE_UNITS]
_UNITS = [i for i in range(len(UNITS)) if i != _CT and i not in _TANKS]
#: The shared first-stage columns that lead every program: the hour-0
#: unit loads, the storage pins and the next-hour levels.
_SHARED = len(_UNITS) + 4


def _tower(config: PlantConfig) -> np.ndarray:
    """Coefficients with P_ct = tower @ P over the unit columns: the condenser
    balance (row 2 of ``plant.balance_matrix``, ct coefficient 1, no tank
    terms) solved for P_ct."""
    return -balance_matrix(config)[2, _UNITS]


class _ReducedLayout:
    """Column/row indices of one scenario block of the program.

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

    What remains: unit loads ``P`` (4, n) in ``UNITS`` order without ct and
    the tanks, the overmet slacks ``O`` (2, n), chilled water then hot
    water, storage states ``E`` (2, n+1) and the peak registers ``R``,
    this month's ``R1`` and next month's ``R2``.  The columns are the
    ``shared`` head (the hour-0 loads and the storage columns of steps 0
    and 1), the scenario's own ``block`` columns, ``R1`` the last of them,
    and ``R2``: the one-scenario program.  Every program carries
    both registers, so the shape is the same inside a month, across a
    month end and on the closing hour.  The rows are the ``row_blocks`` in
    order, one row per step, but the dynamics rows start at step 1;
    ``row_block`` gives one block's range.
    """

    def __init__(self, n: int, tower_binds: bool):
        self.n = n
        nu = len(_UNITS)
        steps = dict(cw_bal=n, hw_bal=n, e_dyn_cw=n - 1, e_dyn_hw=n - 1, peak=n)
        if tower_binds:
            steps["tower"] = n
        self.row_blocks = tuple(steps)
        self.shared = _SHARED
        self.block = (nu + 4) * n - nu - 1
        self.num_vars = self.shared + self.block + 1
        self.num_rows = sum(steps.values())

        units, tanks, k1 = np.arange(nu), np.arange(2), np.arange(n - 1)
        self.P = np.empty((nu, n), dtype=np.intp)
        self.P[:, 0] = units
        self.P[:, 1:] = self.shared + units[:, None] * (n - 1) + k1
        ooff = self.shared + nu * (n - 1)
        self.O = ooff + np.arange(2 * n).reshape(2, n)
        self.E = np.empty((2, n + 1), dtype=np.intp)
        self.E[:, 0] = nu + tanks
        self.E[:, 1] = nu + 2 + tanks
        self.E[:, 2:] = ooff + 2 * n + tanks[:, None] * (n - 1) + k1
        self.R = np.arange(self.num_vars - 2, self.num_vars)
        self.R1, self.R2 = (int(c) for c in self.R)
        bounds = np.cumsum([0, *steps.values()]).tolist()
        self._blocks = {
            name: slice(a, b) for name, a, b in zip(steps, bounds, bounds[1:])
        }
        for arr in (self.P, self.O, self.E, self.R):
            arr.setflags(write=False)

    def row_block(self, name: str) -> slice:
        return self._blocks[name]


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
    """A controller program and the template it was built from.

    ``offset`` is the constant the eliminated quantities contribute to the
    objective.  ``shift`` is ``HighsSession.solve``'s ``shift``, the
    template's one-step rotation (``_ProgramTemplate.shift``).  ``start``
    is None for one scenario; for more it is
    ``HighsSession.solve``'s ``start``, which solves the scenario-mean
    program and returns its optimal basis replicated into every scenario
    block (``_mean_start``).
    """

    program: lp.LinearProgram
    offset: float
    template: _ProgramTemplate
    shift: lp.Shift
    start: Callable[[], lp.Basis | None] | None = None

    def expand(self, sol: lp.LpSolution) -> Plan:
        """Decode an optimal solution of ``program``: the tank rates are
        storage differences and the unmet energy is what each water
        balance's row falls short of its load, at least zero."""
        if not sol.is_optimal:
            raise ValueError(f"cannot decode a {sol.status} solution")
        template = self.template
        lay, s = template.layout, template.s
        x = template.scenarios(sol.x)
        p, e, overmet = x[:, lay.P], x[:, lay.E], x[:, lay.O]
        loads = np.empty((s, 7, lay.n))
        loads[:, _UNITS] = p
        loads[:, _CT] = np.einsum("u,sun->sn", template.tower, p)
        loads[:, _TANKS] = e[:, :, :-1] - e[:, :, 1:]
        supply = np.einsum("ju,sun->sjn", template.balance[:2], loads)
        rhs = self.program.rhs.reshape(s, -1)
        demand = np.stack([rhs[:, lay.row_block(b)] for b in ("cw_bal", "hw_bal")],
                          axis=1)
        slacks = np.empty((s, 4, lay.n))
        slacks[:, 0::2] = np.maximum(demand - supply + overmet, 0.0)
        slacks[:, 1::2] = overmet
        return Plan(
            P=loads,
            S=slacks,
            E=e,
            peaks=x[:, lay.R],
            objective=sol.objective + self.offset,
        )


def _accumulate(obj: np.ndarray, index: np.ndarray, costs, copies: int) -> None:
    """Add ``costs`` to one block's ``obj`` at ``index`` as ``copies``
    equal scenario blocks add them: once at each block column, and
    ``copies`` times in turn at each shared first-stage column, unbuffered,
    so its sum keeps the S-scenario program's rounding.  ``costs`` is
    broadcast to the index's shape first; numpy 2.4's ``np.add.at`` reads
    values it must broadcast itself wrongly past the first row of a 2-D
    index.
    """
    costs = np.broadcast_to(costs, index.shape)
    shared = index < _SHARED
    np.add.at(obj, index[~shared], costs[~shared])
    copied = (copies, int(shared.sum()))
    np.add.at(obj, np.broadcast_to(index[shared], copied),
              np.broadcast_to(costs[shared], copied))


def _replicate(block: dict, lay: _ReducedLayout, s: int) -> dict:
    """The column-major matrix of S equal scenario blocks from that of one
    (``block``, over the columns and rows of ``lay``).

    Each shared column holds its block entries once per scenario, in
    scenario order; the block columns and next month's register repeat per
    scenario.  Scenario xi's copies sit ``xi * lay.num_rows`` rows lower,
    so the rows stay ascending inside every column, and the arrays equal
    those of sorting the S-scenario program's entries.
    """
    starts, rows, vals = block["a_starts"], block["a_rows"], block["a_vals"]
    body, tail = starts[lay.shared], starts[lay.shared + lay.block]
    segments = [(starts[c], starts[c + 1]) for c in range(lay.shared)]
    segments += [(body, tail), (tail, starts[-1])]
    offsets = (np.arange(s, dtype=np.int32) * lay.num_rows)[:, None]
    a_rows = np.empty(s * rows.size, dtype=np.int32)
    a_vals = np.empty(s * rows.size)
    at = 0
    for lo, hi in segments:
        end = at + s * (hi - lo)
        a_rows[at:end].reshape(s, -1)[:] = rows[lo:hi] + offsets
        a_vals[at:end].reshape(s, -1)[:] = vals[lo:hi]
        at = end
    counts = np.diff(starts)
    a_starts = np.zeros(s * (counts.size - lay.shared) + lay.shared + 1, dtype=np.int32)
    np.cumsum(np.concatenate([s * counts[:lay.shared],
                              np.tile(counts[lay.shared:-1], s),
                              np.repeat(counts[-1], s)]), out=a_starts[1:])
    return dict(a_rows=a_rows, a_vals=a_vals, a_starts=a_starts)


class _ProgramTemplate:
    """What the program of one plant, horizon N and S scenarios holds for a
    whole run.

    The program is one scenario block (``layout``) replicated S times, and
    this is where that replication is stated.  Its columns are the block's
    shared head once, then the block's own columns once per scenario, then
    next month's register once per scenario; its rows are the block's rows
    once per scenario.  ``columns`` and ``rows`` replicate an array over
    one block into one over the program, and ``scenarios`` splits an array
    over the program's columns back per scenario.

    The template keeps one block's static objective, bounds and right-hand
    sides (weighted 1/S, the shared first-stage costs summed over the S
    scenarios): the unit limits, nonnegative slacks, next month's register
    from zero, the tank rate limits, the tower-limit right-hand sides and
    the static costs, the slacks' and the unmet penalty folded onto the
    unit and storage columns.

    The matrix is held whole, column-major as HiGHS reads it: the triplet
    assembly and sort run for the one block, and ``_replicate`` repeats its
    arrays.  The register entries of the peak rows bill every step to this
    month's register (-1 for R1, 0 for R2; ``registers``).  Every array is
    read-only: ``build_reduced`` shares the matrix and the row senses, and
    inside a month the matrix values too.
    """

    def __init__(self, config: PlantConfig, n: int, s: int):
        self.config, self.s = config, s
        tower = self.tower = _tower(config)
        lay = self.layout = _ReducedLayout(n, _tower_binds(config))
        self.num_vars = lay.shared + s * (lay.block + 1)
        self.num_rows = s * lay.num_rows
        obj = np.zeros(lay.num_vars)
        lower = np.full(lay.num_vars, -np.inf)
        upper = np.full(lay.num_vars, np.inf)
        sense = np.empty(lay.num_rows, dtype=np.int8)
        rhs = np.zeros(lay.num_rows)
        rhs_lower = np.zeros(lay.num_rows)
        matrix = _Triplets()
        row_index = np.arange(lay.num_rows)

        weight = self.weight = 1.0 / s
        P, O, E = lay.P, lay.O, lay.E
        balance = self.balance = balance_matrix(config)
        # The utility draws per kW of each unit column, P_ct substituted; the
        # tanks draw none.
        utility = utility_matrix(config)
        utility = utility[:, _UNITS] + np.outer(utility[:, _CT], tower)
        rate_lower, rate_upper = self.rates = rate_bounds(config)

        def put_units(rows, coeffs) -> None:
            """The nonzero unit coefficients of one row block, in column order."""
            for i in np.flatnonzero(coeffs):
                matrix.put(rows, P[i], coeffs[i])

        if "tower" in lay.row_blocks:
            tower_rows = lay.row_block("tower")
            put_units(row_index[tower_rows], tower)
            sense[tower_rows] = lp.LE
            rhs[tower_rows] = config.pmax_ct

        # Water balances: the unit rows of plant.balance_matrix, each tank's
        # rate as E_k - E_{k+1}, minus the overmet slack, at most the load;
        # the unmet slack is what the row falls short of it.  Its penalty,
        # rho times the triangular integrator weight, prices the shortfall:
        # a constant on the load (``_fill``'s offset) less the same weight on
        # each column of the row, the overmet slack's included.
        tri = (n - np.arange(n)).astype(float)
        for j, block in enumerate(("cw_bal", "hw_bal")):
            rows = row_index[lay.row_block(block)]
            penalty = weight * config.rho(STORAGE_UNITS[j]) * tri
            put_units(rows, balance[j, _UNITS])
            _accumulate(obj, P, -np.multiply.outer(balance[j, _UNITS], penalty), s)
            for i in np.flatnonzero(balance[j, _TANKS]):
                coeff = balance[j, _TANKS[i]]
                matrix.put(rows, E[i, :-1], coeff)
                matrix.put(rows, E[i, 1:], -coeff)
                _accumulate(obj, E[i, :-1], -coeff * penalty, s)
                _accumulate(obj, E[i, 1:], coeff * penalty, s)
            matrix.put(rows, O[j], -1.0)
            obj[O[j]] = 2.0 * penalty
            sense[rows] = lp.LE

        # Tank rates from step 1 on: E_k - E_{k+1} within the rate limits.
        for j, unit in enumerate(STORAGE_UNITS):
            dyn = row_index[lay.row_block(f"e_dyn_{unit}")]
            matrix.put(dyn, E[j, 1:-1], 1.0)
            matrix.put(dyn, E[j, 2:], -1.0)
            sense[dyn] = lp.RANGE
            rhs_lower[dyn] = rate_lower[_TANKS[j]]
            rhs[dyn] = rate_upper[_TANKS[j]]

        # Peak rows: the substituted electricity draw minus R, R the register
        # of the step's month, at most -L_e.  Both registers appear in every
        # row, one with coefficient zero, so the pattern stays the same while
        # the split slides.
        peak_rows = row_index[lay.row_block("peak")]
        put_units(peak_rows, utility[0])
        matrix.put(peak_rows, lay.R1, -1.0)
        matrix.put(peak_rows, lay.R2, 0.0)
        sense[peak_rows] = lp.LE

        lower[P] = rate_lower[_UNITS][:, None]
        upper[P] = rate_upper[_UNITS][:, None]
        lower[O] = 0.0
        lower[lay.R2] = 0.0

        # The substituted utility purchases per kW of each unit column: the
        # electricity draw, priced per hour, and the water and gas cost.
        self.unit_draw = weight * utility[0]
        self.unit_fixed = weight * (
            utility[1] * config.price_water + utility[2] * config.price_gas
        )
        self.unmet_weight = weight * tri

        self.objective, self.lower, self.upper = obj, lower, upper
        self.rhs, self.rhs_lower = rhs, rhs_lower
        self.row_sense = self.rows(sense)
        block = matrix.column_major(lay.num_vars)
        replicated = _replicate(block, lay, s)
        self.a_rows, self.a_vals, self.a_starts = (
            replicated[k] for k in ("a_rows", "a_vals", "a_starts"))
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def columns(self, block: np.ndarray) -> np.ndarray:
        """A fresh array over the program's columns from one block's, of its
        dtype: the shared head, the block repeated per scenario, then next
        month's register of each scenario."""
        if self.s == 1:
            return block.copy()
        head = self.layout.shared
        out = np.empty(self.num_vars, dtype=block.dtype)
        out[:head] = block[:head]
        self.blocks(out)[:] = block[head:-1]
        out[-self.s:] = block[-1]
        return out

    def rows(self, block: np.ndarray) -> np.ndarray:
        """A fresh array over the program's rows: one block's, per scenario."""
        if self.s == 1:
            return block.copy()
        out = np.empty(self.num_rows, dtype=block.dtype)
        out.reshape(self.s, -1)[:] = block
        return out

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """The scenario blocks' own columns of ``x``, an array over the
        program's columns, as an (S, block) view."""
        lay = self.layout
        return x[lay.shared:lay.shared + self.s * lay.block].reshape(self.s, lay.block)

    def scenarios(self, x: np.ndarray) -> np.ndarray:
        """``x``, an array over the program's columns, per scenario over one
        block's columns, (S, block columns): the inverse of ``columns``.  A
        view of ``x`` for one scenario."""
        if self.s == 1:
            return x[None]
        head = self.layout.shared
        out = np.empty((self.s, self.layout.num_vars), dtype=x.dtype)
        out[:, :head] = x[:head]
        out[:, head:-1] = self.blocks(x)
        out[:, -1] = x[-self.s:]
        return out

    def registers(self, a_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The register entries of the peak rows in ``a_vals``, an array over
        the program's matrix entries, as (S, N) views in step order: this
        month's, the last column of each block, then next month's, the
        program's last columns.  The blocks' entries are S copies of one
        block's in turn (``_replicate``)."""
        head, tail = self.a_starts[self.layout.shared], self.a_starts[-self.s - 1]
        blocks = a_vals[head:tail].reshape(self.s, -1)
        return blocks[:, -self.layout.n:], a_vals[tail:].reshape(self.s, -1)

    @functools.cached_property
    def shift(self) -> lp.Shift:
        """The one-step rotation from the program of hour t to that of
        t + 1, whose step k is the physical hour of step k + 1 at hour t.

        Step 0 keeps its places: the shared first-stage columns and each
        block's step-0 rows and overmet slacks, which all hold the
        present.  Each later step takes the places of its next step, and
        the last step those of step 1, which the horizon's move turned
        into the present.  So the last step's columns and rows take their
        statuses from one and the same step, and nothing leaves its block:
        the rotation is one block's offsets from each index to the one
        whose place it takes, the last N - 1 steps of every quantity and
        row block rotated, replicated.
        """
        lay = self.layout
        later = lay.n - 1
        col = np.zeros(lay.num_vars, dtype=np.int32)
        for index in (lay.P, lay.O, lay.E):
            steps = index[:, index.shape[1] - later:]
            col[steps] = np.roll(steps, -1, axis=1) - steps
        row = np.zeros(lay.num_rows, dtype=np.int32)
        for name in lay.row_blocks:
            block = np.arange(lay.num_rows)[lay.row_block(name)]
            steps = block[block.size - later:]
            row[steps] = np.roll(steps, -1) - steps
        col = np.arange(self.num_vars, dtype=np.int32) + self.columns(col)
        row = np.arange(self.num_rows, dtype=np.int32) + self.rows(row)
        for arr in (col, row):
            arr.setflags(write=False)
        return lp.Shift(col, row)


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
    disturbances) or a ``ScenarioSet``, each scenario weighted by its
    probability.
    The horizon starts from ``state``: its tank levels pin step 0,
    ``storage_bounds(config, state, beta)`` bounds every later level, and
    its peak bounds this month's register from below.
    The optimum of the returned program plus its ``offset`` is the
    expected cost over the horizon.

    The hour writes only its data into arrays replicated from the run's
    template (``_ProgramTemplate``, cached per plant, N and S): the balance
    and peak right-hand sides, the tank pins and the storage box (with the
    step-0 rate limits on the next-hour levels), this month's register
    bound, the unit and register costs, and the register entries of the
    peak rows when the horizon crosses a month end.  Its objective, bounds and
    right-hand sides, the lower sides of the two-sided rows among them,
    are fresh writable arrays; the row senses and the sparsity pattern
    (``a_rows``, ``a_starts``) are the template's, shared by every program
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
    return _fill(config, state, values, timing, beta,
                 _probabilities(forecast_or_scenarios))


def _fill(
    config: PlantConfig,
    state: PlantState,
    values: np.ndarray,
    timing: HorizonTiming,
    beta: float,
    probabilities: np.ndarray | None = None,
) -> ReducedProgram:
    """``build_reduced`` on checked (S, 4, N) disturbance values, weighted
    by ``probabilities`` (None: equally).

    The template's costs are weighted 1/S.  Unequal weights scale each
    scenario's block costs and its terms of the shared hour-0 unit costs
    and of the offset by its probability times S.  The template's static
    costs of the shared columns are S equal terms, so they need no
    weighting: they sum to one scenario's at any probabilities.
    """
    s, _, n = values.shape
    scale = None if probabilities is None else probabilities * s
    template = _program_template(config, n, s)
    lay = template.layout
    load_e, load_cw, load_hw, price_e = (values[:, ch, :] for ch in range(4))

    # Each peak row bills to one register, the one of its step's month; the
    # template's bill every step to this month's.
    a_vals = template.a_vals
    if timing.next_month.any():
        a_vals = a_vals.copy()
        r1, r2 = template.registers(a_vals)
        r1[:] = np.where(timing.next_month, 0.0, -1.0)
        r2[:] = -1.0 - r1

    rhs = template.rows(template.rhs)
    per_scenario = rhs.reshape(s, -1)
    per_scenario[:, lay.row_block("cw_bal")] = load_cw
    per_scenario[:, lay.row_block("hw_bal")] = load_hw
    per_scenario[:, lay.row_block("peak")] = -load_e

    # What every scenario shares: the tank pins and storage box, the step-0
    # rate limits, this month's register bound and the register costs,
    # written once into the block and replicated.
    lower, upper = template.lower.copy(), template.upper.copy()
    E = lay.E
    rate_lower, rate_upper = template.rates
    for j, (lo, hi) in enumerate(storage_bounds(config, state, beta)):
        level = state.storage(STORAGE_UNITS[j])
        lower[E[j, 0]] = upper[E[j, 0]] = level
        lower[E[j, 1:]] = lo
        upper[E[j, 1:]] = hi
        # The step-0 rate limit, E_0 - E_1 within the tank's rate bounds.
        lower[E[j, 1]] = max(lo, level - rate_upper[_TANKS[j]])
        upper[E[j, 1]] = min(hi, level - rate_lower[_TANKS[j]])
    lower[lay.R1] = state.peak
    lower, upper = template.columns(lower), template.columns(upper)
    obj = template.objective.copy()
    obj[lay.R] = template.weight * (config.price_demand / timing.discount)
    obj = template.columns(obj)

    # The unit costs, per scenario.  The unit columns of steps 1.. lead
    # each block, unit by unit (``_ReducedLayout``); the shared hour-0
    # loads take every scenario's costs in turn, unbuffered.
    costs = (template.unit_draw[:, None] * price_e[:, None, :]
             + template.unit_fixed[:, None])
    later = costs[:, :, 1:].reshape(s, -1)
    template.blocks(obj)[:, :later.shape[1]] += later
    if scale is not None:
        template.blocks(obj)[:] *= scale[:, None]
        obj[-s:] *= scale
        costs *= scale[:, None, None]
        price_e, load_cw, load_hw = (
            scale[:, None] * x for x in (price_e, load_cw, load_hw))
    np.add.at(obj, np.broadcast_to(lay.P[:, 0], costs.shape[:2]), costs[:, :, 0])

    # The campus load's electricity, the unmet penalty on the water loads
    # and the integrators' values carried into every step.
    offset = float(
        template.weight * np.sum(price_e * load_e)
        + template.unmet_weight @ (config.rho_cw * load_cw.sum(axis=0)
                                   + config.rho_hw * load_hw.sum(axis=0))
        + n * (config.rho_cw * (state.ul_cw + state.ol_cw)
               + config.rho_hw * (state.ul_hw + state.ol_hw))
    )

    program = lp.LinearProgram(
        obj, lower, upper, template.row_sense, rhs, template.a_rows, a_vals,
        template.a_starts, rhs_lower=template.rows(template.rhs_lower))
    if s == 1:
        return ReducedProgram(program, offset, template, template.shift)
    start = functools.partial(_mean_start, template, state, values, timing, beta,
                              probabilities)
    return ReducedProgram(program, offset, template, template.shift, start)


def _mean_start(
    template: _ProgramTemplate,
    state: PlantState,
    values: np.ndarray,
    timing: HorizonTiming,
    beta: float,
    probabilities: np.ndarray | None = None,
) -> lp.Basis | None:
    """The optimal basis of the scenario-mean program, replicated into
    every scenario block of the program of ``template`` built from
    ``values``; None when the mean program has no optimum.  The mean is
    weighted by ``probabilities`` (None: equally).

    The shared first-stage columns take the mean program's status.  Every
    block copies them, but each counts once, so the copy is short of a
    full basis by S - 1 times the shared columns that are basic;
    ``lp.Basis.alien`` lets HiGHS repair that.
    """
    mean = (values.mean(axis=0, keepdims=True) if probabilities is None
            else np.tensordot(probabilities, values, 1)[None])
    mean = _fill(template.config, state, mean, timing, beta)
    session = lp.HighsSession()
    solution = session._run(mean.program)
    if not solution.is_optimal:
        return None
    seed = session.basis()
    return lp.Basis(template.columns(seed.col), template.rows(seed.row),
                    solution.iterations)


def extract_action(plan: Plan) -> ControlAction:
    """The hour-t unit loads of a decoded plan, shared by every scenario."""
    return ControlAction.from_array(plan.P[0, :, 0])
