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

The program is the reduced form of the plant model: residual demands and
the unmet/overmet integrators are eliminated by substitution, and the
cooling-tower column and condenser rows drop out when the tower limit can
never bind.  With horizon N, S scenarios and U unit columns (6, or 7 when
the tower stays) a single-month program has ``U + 4 + S*((U + 6)N - U - 1)``
columns and ``(U - 1)N * S`` rows; a horizon spanning a month boundary adds
one peak column per scenario.  For the default plant at N = 168 and
S = 100 that is 200,910 columns and 84,000 rows.

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
    demand_discount,
)


@dataclass(frozen=True)
class HorizonTiming:
    """Horizon placement relative to the billing calendar.

    ``month_end`` is the last hour index of the month containing ``t``,
    equal to ``t`` itself on the closing hour.  The horizon spans two
    months when the month ends strictly inside it; on the closing hour it
    does not, and every step is priced against one register.
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
    def spans_two_months(self) -> bool:
        return self.t < self.month_end < self.t + self.n - 1

    @property
    def hours_to_month_end(self) -> int:
        return self.month_end - self.t

    @property
    def discount(self) -> float:
        return demand_discount(self.hours_to_month_end, self.n)


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
    """Coordinate entries of a constraint matrix, in the order they are put."""

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

    def program(self, objective, lower, upper, sense, rhs) -> lp.LinearProgram:
        return lp.LinearProgram(
            objective=objective,
            lower=lower,
            upper=upper,
            row_sense=sense,
            rhs=rhs,
            a_rows=np.concatenate(self.rows),
            a_cols=np.concatenate(self.cols),
            a_vals=np.concatenate(self.vals),
        )


class _ReducedLayout:
    """Column/row indices of the program for one shape, all scenarios stacked.

    Residual columns and the unmet/overmet integrators are definitional:
    the residuals substitute into the objective and peak rows, and each
    integrator chain turns into triangular weights on the slack columns
    plus a constant offset.  When the cooling-tower limit can never bind
    (``fold_ct``) its load column and the condenser rows drop out as well.
    What remains per scenario: unit loads ``P`` (s, U, n) in ``units``
    order, four slacks ``S`` (s, 4, n), storage states ``E`` (s, 2, n+1)
    and the peak register(s) ``R`` (s, 1 or 2); ``R2`` is ``R1`` unless the
    horizon spans a month end.  The hour-0 loads and the storage columns
    of steps 0 and 1 are shared by all scenarios.
    """

    def __init__(self, n: int, s: int, spans: bool, fold_ct: bool):
        self.n, self.s, self.spans, self.fold_ct = n, s, spans, fold_ct
        self.units = tuple(u for u in UNITS if not (fold_ct and u == "ct"))
        self.unit_index = {u: i for i, u in enumerate(self.units)}
        #: Position of each program unit in ``UNITS``.
        self.unit_order = np.array([UNITS.index(u) for u in self.units])
        nu = len(self.units)
        peaks = 2 if spans else 1
        self.row_blocks = (() if fold_ct else ("cond",)) + (
            "cw_bal", "hw_bal", "e_dyn_cw", "e_dyn_hw", "peak",
        )
        nb = len(self.row_blocks)
        self.shared = nu + 4  # first-stage loads, storage pins, next-hour
        self.block = (nu + 6) * n - nu - 2 + peaks
        self.num_vars = self.shared + s * self.block
        self.num_rows = nb * n * s

        xi = np.arange(s, dtype=np.int64)
        base = self.shared + xi * self.block
        units = np.arange(nu, dtype=np.int64)
        tanks = np.arange(2, dtype=np.int64)
        k1 = np.arange(n - 1, dtype=np.int64)

        self.P = np.empty((s, nu, n), dtype=np.int64)
        self.P[:, :, 0] = units
        self.P[:, :, 1:] = base[:, None, None] + units[None, :, None] * (n - 1) + k1
        soff = base + nu * (n - 1)
        self.S = (
            soff[:, None, None]
            + np.arange(4 * n, dtype=np.int64).reshape(1, 4, n)
        )
        self.E = np.empty((s, 2, n + 1), dtype=np.int64)
        self.E[:, :, 0] = nu + tanks
        self.E[:, :, 1] = nu + 2 + tanks
        self.E[:, :, 2:] = (
            (soff + 4 * n)[:, None, None] + tanks[None, :, None] * (n - 1) + k1
        )
        self.R = (base + self.block - peaks)[:, None] + np.arange(peaks)
        self.rows = (
            (nb * n * xi)[:, None, None]
            + np.arange(nb * n, dtype=np.int64).reshape(1, nb, n)
        )
        for arr in (self.P, self.S, self.E, self.R, self.rows):
            arr.setflags(write=False)
        self.R1 = self.R[:, 0]
        self.R2 = self.R[:, -1]

    def row_block(self, name: str) -> np.ndarray:
        return self.rows[:, self.row_blocks.index(name)]


@functools.lru_cache(maxsize=32)
def _reduced_layout(n: int, s: int, spans: bool, fold_ct: bool) -> _ReducedLayout:
    return _ReducedLayout(n, s, spans, fold_ct)


def _can_fold_ct(config: PlantConfig) -> bool:
    """The tower bound never binds if it covers max condenser duty."""
    duty = config.alpha_cond_cs * config.pmax_cs + config.pmax_hx
    return config.pmax_ct >= duty - 1e-9


@dataclass(frozen=True)
class Plan:
    """An optimal solution of a controller program, in plant terms.

    Per scenario: unit loads ``P`` (s, 7, n) in ``UNITS`` order, slacks
    ``S`` (s, 4, n) (unmet and overmet chilled water, then hot water),
    storage levels ``E`` (s, 2, n + 1) from the current state on, and the
    peak registers ``peaks`` (s, 1), or (s, 2) when the horizon spans a
    month end.  The hour-0 loads and hour-1 storage levels are the same in
    every scenario.  ``objective`` includes the program's constant offset.
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
    objective.
    """

    program: lp.LinearProgram
    offset: float
    layout: _ReducedLayout
    config: PlantConfig

    def expand(self, sol: lp.LpSolution) -> Plan:
        """Decode an optimal solution of ``program``."""
        if not sol.is_optimal:
            raise ValueError(f"cannot decode a {sol.status} solution")
        lay, x = self.layout, sol.x
        p = np.empty((lay.s, len(UNITS), lay.n))
        p[:, lay.unit_order] = x[lay.P]
        if lay.fold_ct:
            # Condenser balance: P_ct = alpha_cond * P_cs + P_hx.
            p[:, 3] = self.config.alpha_cond_cs * p[:, 0] + p[:, 4]
        return Plan(
            P=p,
            S=x[lay.S],
            E=x[lay.E],
            peaks=x[lay.R],
            objective=sol.objective + self.offset,
        )


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
    The horizon starts from ``state``: its tank levels pin step 0, and
    ``storage_bounds(config, state, beta)`` bounds every later level.
    The optimum of the returned program plus its ``offset`` is the
    expected cost over the horizon.
    """
    values = _scenario_values(forecast_or_scenarios)
    s, n_chan, n = values.shape
    if n != timing.n:
        raise ValueError(f"forecast length {n} != horizon {timing.n}")
    if n_chan != len(CHANNELS):
        raise ValueError("expected 4 disturbance channels")
    fold_ct = _can_fold_ct(config)
    red = _reduced_layout(n, s, timing.spans_two_months, fold_ct)

    obj = np.zeros(red.num_vars)
    lower = np.full(red.num_vars, -np.inf)
    upper = np.full(red.num_vars, np.inf)
    sense = np.empty(red.num_rows, dtype=np.int8)
    rhs = np.zeros(red.num_rows)
    matrix = _Triplets()
    put = matrix.put

    steps = np.arange(n)
    in_second_month = (timing.t + steps) > timing.month_end
    weight = 1.0 / s
    demand_coeff = config.price_demand / timing.discount
    # Known defect (ROADMAP item 1): on the closing hour (t == month_end)
    # every step, step 0 included, is priced against next month's register
    # with lower bound 0, although the closing month's bill holds step 0
    # and its peak so far, ``state.peak``.
    carry = state.peak if timing.t < timing.month_end else 0.0
    ui = red.unit_index
    P, S, E = red.P, red.S, red.E
    load_e, load_cw, load_hw, price_e = (values[:, ch, :] for ch in range(4))

    if not fold_ct:
        # Condenser balance: P_ct = alpha_cond * P_cs + P_hx.
        cond = red.row_block("cond")
        put(cond, P[:, ui["ct"]], 1.0)
        put(cond, P[:, ui["cs"]], -config.alpha_cond_cs)
        put(cond, P[:, ui["hx"]], -1.0)
        sense[cond] = lp.EQ

    # Chilled-water balance.
    cw_rows = red.row_block("cw_bal")
    for u in ("cs", "hrc", "cw"):
        put(cw_rows, P[:, ui[u]], 1.0)
    put(cw_rows, S[:, 0], 1.0)
    put(cw_rows, S[:, 1], -1.0)
    sense[cw_rows] = lp.EQ
    rhs[cw_rows] = load_cw

    # Hot-water balance.
    hw_rows = red.row_block("hw_bal")
    put(hw_rows, P[:, ui["hrc"]], config.alpha_h_hrc)
    put(hw_rows, P[:, ui["hwg"]], 1.0)
    put(hw_rows, P[:, ui["hx"]], -1.0)
    put(hw_rows, P[:, ui["hw"]], 1.0)
    put(hw_rows, S[:, 2], 1.0)
    put(hw_rows, S[:, 3], -1.0)
    sense[hw_rows] = lp.EQ
    rhs[hw_rows] = load_hw

    # Storage dynamics.
    for j, unit in enumerate(STORAGE_UNITS):
        dyn = red.row_block(f"e_dyn_{unit}")
        put(dyn, E[:, j, 1:], 1.0)
        put(dyn, E[:, j, :-1], -1.0)
        put(dyn, P[:, ui[unit]], 1.0)
        sense[dyn] = lp.EQ

    # Peak rows with the residual definition substituted in:
    # sum(alpha_e P) - R <= -L_e.  The electric coefficient per unit picks
    # up the tower draw when the condenser identity is folded.
    peak_rows = red.row_block("peak")
    elec = {u: getattr(config, f"alpha_e_{u}") for u in ("cs", "hrc", "hwg", "ct")}
    if fold_ct:
        peak_units = {
            "cs": elec["cs"] + elec["ct"] * config.alpha_cond_cs,
            "hrc": elec["hrc"],
            "hwg": elec["hwg"],
            "hx": elec["ct"],
        }
    else:
        peak_units = {u: elec[u] for u in ("cs", "hrc", "hwg", "ct")}
    for u, a in peak_units.items():
        put(peak_rows, P[:, ui[u]], a)
    if timing.spans_two_months:
        # Both registers appear in every peak row (one with coefficient
        # zero) so the sparsity pattern is stable while the split slides.
        r1_coeff = np.where(in_second_month, 0.0, -1.0)
        put(peak_rows, red.R1[:, None], r1_coeff[None, :])
        put(peak_rows, red.R2[:, None], -1.0 - r1_coeff[None, :])
    else:
        put(peak_rows, red.R1[:, None], -1.0)
    sense[peak_rows] = lp.LE
    rhs[peak_rows] = -load_e

    # Bounds.
    pmax_red = np.array([config.pmax(u) for u in red.units])
    is_storage = np.isin(np.array(red.units), STORAGE_UNITS)
    lower[P] = np.where(is_storage, -pmax_red, 0.0)[None, :, None]
    upper[P] = pmax_red[None, :, None]
    for j, (lo, hi) in enumerate(storage_bounds(config, state, beta)):
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = state.storage(STORAGE_UNITS[j])
        lower[E[:, j, 1:]] = lo
        upper[E[:, j, 1:]] = hi
    lower[S] = 0.0

    # Objective: substituted residual costs on the unit loads, triangular
    # integrator weights on the slacks, discounted demand charges.  The
    # shared first-stage columns accumulate over scenarios, so use
    # unbuffered adds.
    water = config.alpha_w_ct * config.price_water
    for u, a in peak_units.items():
        np.add.at(obj, P[:, ui[u]], weight * a * price_e)
    if fold_ct:
        np.add.at(obj, P[:, ui["cs"]], weight * water * config.alpha_cond_cs)
        np.add.at(obj, P[:, ui["hx"]], weight * water)
    else:
        np.add.at(obj, P[:, ui["ct"]], weight * water)
    np.add.at(obj, P[:, ui["hwg"]], weight * config.alpha_ng_hwg * config.price_gas)
    tri = (n - steps).astype(float)
    for j, unit in enumerate(STORAGE_UNITS):
        obj[S[:, 2 * j]] = weight * config.rho(unit) * tri
        obj[S[:, 2 * j + 1]] = weight * config.rho(unit) * tri
    lower[red.R1] = carry
    obj[red.R1] = weight * demand_coeff
    if timing.spans_two_months:
        lower[red.R2] = 0.0
        obj[red.R2] = weight * demand_coeff

    offset = float(
        weight * np.sum(price_e * load_e)
        + n * (config.rho_cw * (state.ul_cw + state.ol_cw)
               + config.rho_hw * (state.ul_hw + state.ol_hw))
    )

    program = matrix.program(obj, lower, upper, sense, rhs)
    return ReducedProgram(program, offset, red, config)


def extract_action(plan: Plan) -> ControlAction:
    """The hour-t unit loads of a decoded plan, shared by every scenario."""
    return ControlAction.from_array(plan.P[0, :, 0])
