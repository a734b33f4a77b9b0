"""The LP that all three receding-horizon controllers solve.

The deterministic, stochastic and perfect-information controllers build
one program, ``build_reduced``, and differ only in the disturbance data fed
to it: the mean forecast, a scenario set, or the realized trajectory.  The
single-trajectory programs are the one-scenario case; the stochastic
program replicates every recourse quantity per scenario while first-stage
decisions (the hour-t unit loads and the hour t+1 storage levels) live in
shared columns, which enforces nonanticipativity exactly.

The program is the reduced form of the extensive-form model: residual
demands and the unmet/overmet integrators are eliminated by substitution,
and the cooling-tower column and condenser rows drop out when the tower
limit can never bind.  With horizon N, S scenarios and U unit columns
(6, or 7 when the tower stays) a single-month program has
``U + 4 + S*((U + 6)N - U - 1)`` columns and ``(U - 1)N * S`` rows; a horizon
spanning a month boundary adds one peak column per scenario.  For the
default plant at N = 168 and S = 100 that is 200,910 columns and 84,000
rows.

``ReducedProgram.expand`` maps a solution onto the extensive-form columns
of ``VariableMap`` (``20N + 7`` for S = 1), which ``extract_action`` reads.
The extensive-form program itself is built only by the test suite
(``tests/full_form.py``), as the oracle the reduced program is checked
against.
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

SLACKS = ("S_un_cw", "S_ov_cw", "S_un_hw", "S_ov_hw")
RESIDUALS = ("r_e", "r_w", "r_ng")

#: Constraint-row blocks per scenario, each of horizon length, in order.
ROW_BLOCKS = (
    "re_def", "rw_def", "rng_def", "cond", "cw_bal", "hw_bal",
    "e_dyn_cw", "e_dyn_hw", "ul_dyn_cw", "ul_dyn_hw", "ol_dyn_cw",
    "ol_dyn_hw", "peak",
)


@dataclass(frozen=True)
class HorizonTiming:
    """Horizon placement relative to the billing calendar.

    ``month_end`` is the last hour index of the month containing ``t``
    (equal to ``t`` itself on the closing hour, in which case the carried
    peak switches to the second-month register).
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


@dataclass(frozen=True)
class TankBounds:
    """Active storage bounds applied to every in-horizon step (kWh)."""

    lower_cw: float
    upper_cw: float
    lower_hw: float
    upper_hw: float

    def lower(self, unit: str) -> float:
        return getattr(self, f"lower_{unit}")

    def upper(self, unit: str) -> float:
        return getattr(self, f"upper_{unit}")


class _Layout:
    """Stacked column/row index arrays for all scenarios of one shape.

    Arrays: P (s, 7, n), r (s, 3, n), S (s, 4, n), E/ul/ol (s, 2, n+1),
    R1/R2 (s,), rows (s, 13, n).  Shared first-stage columns repeat across
    the scenario axis.
    """

    def __init__(self, n: int, s: int, spans: bool):
        self.n, self.s, self.spans = n, s, spans
        peaks = 2 if spans else 1
        self.peaks_per_scenario = peaks
        self.shared = 15
        self.block = 20 * n - 9 + peaks
        self.num_vars = self.shared + s * self.block
        self.num_rows = 13 * n * s

        xi = np.arange(s, dtype=np.int64)
        base = self.shared + xi * self.block  # (s,)
        units = np.arange(7, dtype=np.int64)
        tanks = np.arange(2, dtype=np.int64)

        self.P = np.empty((s, 7, n), dtype=np.int64)
        self.E = np.empty((s, 2, n + 1), dtype=np.int64)
        self.ul = np.empty((s, 2, n + 1), dtype=np.int64)
        self.ol = np.empty((s, 2, n + 1), dtype=np.int64)
        self.P[:, :, 0] = units
        self.E[:, :, 0] = 7 + tanks
        self.E[:, :, 1] = 9 + tanks
        self.ul[:, :, 0] = 11 + tanks
        self.ol[:, :, 0] = 13 + tanks
        k1 = np.arange(n - 1, dtype=np.int64)
        self.P[:, :, 1:] = (
            base[:, None, None] + units[None, :, None] * (n - 1) + k1
        )
        roff = base + 7 * (n - 1)
        self.r = (
            roff[:, None, None]
            + np.arange(3 * n, dtype=np.int64).reshape(1, 3, n)
        )
        self.S = (
            (roff + 3 * n)[:, None, None]
            + np.arange(4 * n, dtype=np.int64).reshape(1, 4, n)
        )
        eoff = roff + 7 * n
        self.E[:, :, 2:] = (
            eoff[:, None, None] + tanks[None, :, None] * (n - 1) + k1
        )
        uloff = eoff + 2 * (n - 1)
        kn = np.arange(n, dtype=np.int64)
        self.ul[:, :, 1:] = (
            uloff[:, None, None] + tanks[None, :, None] * n + kn
        )
        self.ol[:, :, 1:] = (
            (uloff + 2 * n)[:, None, None] + tanks[None, :, None] * n + kn
        )
        self.R1 = base + self.block - peaks
        self.R2 = self.R1 + 1 if spans else self.R1

        self.rows = (
            (13 * n * xi)[:, None, None]
            + np.arange(13 * n, dtype=np.int64).reshape(1, 13, n)
        )
        for arr in (self.P, self.r, self.S, self.E, self.ul, self.ol,
                    self.R1, self.R2, self.rows):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _layout(n: int, s: int, spans: bool) -> _Layout:
    return _Layout(n, s, spans)


class VariableMap:
    """Index lookup from (quantity, step, scenario) to LP column.

    First-stage quantities (unit loads at step 0, storage at steps 0/1,
    integrators at step 0) map to one column regardless of scenario.
    """

    def __init__(self, n: int, s: int, spans: bool):
        self.n, self.s, self.spans = n, s, spans
        self.layout = _layout(n, s, spans)
        self.num_vars = self.layout.num_vars
        self.num_rows = self.layout.num_rows
        self.shared = self.layout.shared
        self.block = self.layout.block

    def columns(self, xi: int) -> dict[str, np.ndarray]:
        """Column arrays for one scenario: 'P' (7, n), 'r' (3, n),
        'S' (4, n), 'E'/'ul'/'ol' (2, n+1), scalars 'R1'/'R2'."""
        if not 0 <= xi < self.s:
            raise IndexError(f"scenario {xi} out of range")
        lay = self.layout
        out = {
            "P": lay.P[xi], "r": lay.r[xi], "S": lay.S[xi],
            "E": lay.E[xi], "ul": lay.ul[xi], "ol": lay.ol[xi],
            "R1": lay.R1[xi],
        }
        if self.spans:
            out["R2"] = lay.R2[xi]
        return out

    def col(self, quantity: str, k: int, xi: int = 0) -> int:
        cols = self.columns(xi)
        if quantity.startswith("P_"):
            return int(cols["P"][UNITS.index(quantity[2:]), k])
        if quantity.startswith("E_"):
            return int(cols["E"][STORAGE_UNITS.index(quantity[2:]), k])
        if quantity.startswith(("ul_", "ol_")):
            kind, unit = quantity.split("_")
            return int(cols[kind][STORAGE_UNITS.index(unit), k])
        if quantity in RESIDUALS:
            return int(cols["r"][RESIDUALS.index(quantity), k])
        if quantity in SLACKS:
            return int(cols["S"][SLACKS.index(quantity), k])
        if quantity in ("R1", "R2"):
            if quantity == "R2" and not self.spans:
                raise KeyError("R2 only exists for month-spanning horizons")
            return int(cols[quantity])
        raise KeyError(f"unknown quantity {quantity!r}")

    def row(self, block: str, k: int, xi: int = 0) -> int:
        return int(self.layout.rows[xi, ROW_BLOCKS.index(block), k])


def _scenario_values(forecast_or_scenarios) -> np.ndarray:
    if isinstance(forecast_or_scenarios, ScenarioSet):
        return forecast_or_scenarios.values
    if isinstance(forecast_or_scenarios, DisturbanceTrajectory):
        return forecast_or_scenarios.values[None, :, :]
    raise TypeError("expected DisturbanceTrajectory or ScenarioSet")


# --- reduced solver form ------------------------------------------------------

class _ReducedLayout:
    """Column/row indices for the eliminated-definition solver form.

    Residual columns and the unmet/overmet integrators are definitional:
    the residuals substitute into the objective and peak rows, and each
    integrator chain turns into triangular weights on the slack columns
    plus a constant offset.  When the cooling-tower limit can never bind
    (``fold_ct``) its load column and the condenser rows drop out as well.
    What remains per scenario: unit loads, four slacks, interior storage
    states, and the peak register(s).
    """

    def __init__(self, n: int, s: int, spans: bool, fold_ct: bool):
        self.n, self.s, self.spans, self.fold_ct = n, s, spans, fold_ct
        self.units = tuple(u for u in UNITS if not (fold_ct and u == "ct"))
        self.unit_index = {u: i for i, u in enumerate(self.units)}
        nu = len(self.units)
        peaks = 2 if spans else 1
        self.peaks_per_scenario = peaks
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
        self.R1 = base + self.block - peaks
        self.R2 = self.R1 + 1 if spans else self.R1
        self.rows = (
            (nb * n * xi)[:, None, None]
            + np.arange(nb * n, dtype=np.int64).reshape(1, nb, n)
        )
        for arr in (self.P, self.S, self.E, self.R1, self.R2, self.rows):
            arr.setflags(write=False)

    def row_block(self, name: str) -> np.ndarray:
        return self.rows[:, self.row_blocks.index(name)]


@functools.lru_cache(maxsize=32)
def _reduced_layout(n: int, s: int, spans: bool, fold_ct: bool) -> _ReducedLayout:
    return _ReducedLayout(n, s, spans, fold_ct)


def _can_fold_ct(config: PlantConfig) -> bool:
    """The tower bound never binds if it covers max condenser duty."""
    duty = config.alpha_cond_cs * config.pmax_cs + config.pmax_hx
    return config.pmax_ct >= duty - 1e-9


@dataclass
class ReducedProgram:
    """Solver-form program plus the recipe to expand solutions back."""

    program: lp.LinearProgram
    offset: float
    vmap: VariableMap
    values: np.ndarray
    config: PlantConfig
    state: PlantState

    def expand(self, sol: lp.LpSolution) -> lp.LpSolution:
        """Reconstruct a full-formulation solution from the reduced one."""
        if not sol.is_optimal:
            return sol
        lay = self.vmap.layout
        red = _reduced_layout(
            self.vmap.n, self.vmap.s, self.vmap.spans, _can_fold_ct(self.config)
        )
        cfg = self.config
        x = np.empty(self.vmap.num_vars)
        xr = sol.x
        s, _, n = self.values.shape
        p = np.empty((s, 7, n))  # full unit order
        for i, u in enumerate(UNITS):
            if red.fold_ct and u == "ct":
                continue
            p[:, i] = xr[red.P[:, red.unit_index[u]]]
        if red.fold_ct:
            p[:, 3] = cfg.alpha_cond_cs * p[:, 0] + p[:, 4]
        x[lay.P] = p
        x[lay.S] = xr[red.S]
        x[lay.E] = xr[red.E]
        x[lay.R1] = xr[red.R1]
        if self.vmap.spans:
            x[lay.R2] = xr[red.R2]
        alpha_e = np.array(
            [cfg.alpha_e_cs, cfg.alpha_e_hrc, cfg.alpha_e_hwg, cfg.alpha_e_ct]
        )
        x[lay.r[:, 0]] = self.values[:, 0, :] + np.einsum(
            "u,sun->sn", alpha_e, p[:, :4]
        )
        x[lay.r[:, 1]] = cfg.alpha_w_ct * p[:, 3]
        x[lay.r[:, 2]] = cfg.alpha_ng_hwg * p[:, 2]
        initial_ul = (self.state.ul_cw, self.state.ul_hw)
        initial_ol = (self.state.ol_cw, self.state.ol_hw)
        slacks = xr[red.S]  # (s, 4, n)
        for j in range(2):
            x[lay.ul[:, j, 0]] = initial_ul[j]
            x[lay.ul[:, j, 1:]] = initial_ul[j] + np.cumsum(slacks[:, 2 * j], axis=1)
            x[lay.ol[:, j, 0]] = initial_ol[j]
            x[lay.ol[:, j, 1:]] = initial_ol[j] + np.cumsum(slacks[:, 2 * j + 1], axis=1)
        return lp.LpSolution(
            sol.status, x, sol.objective + self.offset, sol.iterations
        )


def build_reduced(
    config: PlantConfig,
    state: PlantState,
    forecast_or_scenarios,
    timing: HorizonTiming,
    bounds: TankBounds,
) -> ReducedProgram:
    """Build the eliminated-definition solver form of any controller LP.

    Exactly equivalent to the extensive-form program: optimal values match
    after adding the returned constant offset and expanded solutions
    satisfy every extensive-form constraint.
    """
    values = _scenario_values(forecast_or_scenarios)
    s, n_chan, n = values.shape
    if n != timing.n:
        raise ValueError(f"forecast length {n} != horizon {timing.n}")
    if n_chan != len(CHANNELS):
        raise ValueError("expected 4 disturbance channels")
    fold_ct = _can_fold_ct(config)
    vmap = VariableMap(n, s, timing.spans_two_months)
    red = _reduced_layout(n, s, timing.spans_two_months, fold_ct)

    obj = np.zeros(red.num_vars)
    lower = np.full(red.num_vars, -np.inf)
    upper = np.full(red.num_vars, np.inf)
    sense = np.empty(red.num_rows, dtype=np.int8)
    rhs = np.zeros(red.num_rows)
    trip_r: list[np.ndarray] = []
    trip_c: list[np.ndarray] = []
    trip_v: list[np.ndarray] = []

    def put(rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        trip_r.append(rows.reshape(-1).astype(np.int64, copy=False))
        trip_c.append(cols.reshape(-1).astype(np.int64, copy=False))
        trip_v.append(vals.reshape(-1).astype(float))

    steps = np.arange(n)
    in_second_month = (timing.t + steps) > timing.month_end
    weight = 1.0 / s
    demand_coeff = config.price_demand / timing.discount
    carry = state.peak if timing.t < timing.month_end else state.peak_next
    ui = red.unit_index
    rows, P, S, E = red.rows, red.P, red.S, red.E
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
    for j, unit in enumerate(STORAGE_UNITS):
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = state.storage(unit)
        lower[E[:, j, 1:]] = bounds.lower(unit)
        upper[E[:, j, 1:]] = bounds.upper(unit)
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
        lower[red.R2] = state.peak_next
        obj[red.R2] = weight * demand_coeff

    offset = float(
        weight * np.sum(price_e * load_e)
        + n * (config.rho_cw * (state.ul_cw + state.ol_cw)
               + config.rho_hw * (state.ul_hw + state.ol_hw))
    )

    program = lp.LinearProgram(
        objective=obj,
        lower=lower,
        upper=upper,
        row_sense=sense,
        rhs=rhs,
        a_rows=np.concatenate(trip_r),
        a_cols=np.concatenate(trip_c),
        a_vals=np.concatenate(trip_v),
    )
    return ReducedProgram(program, offset, vmap, values, config, state)


@dataclass(frozen=True)
class FirstStage:
    """Committed hour-t decisions extracted from a solved program."""

    action: ControlAction
    e_cw_next: float
    e_hw_next: float
    peak1: float
    peak2: float
    slacks: tuple[float, float, float, float]


def extract_action(solution: lp.LpSolution, vmap: VariableMap) -> FirstStage:
    """First-stage action and predicted next states from an optimal solve."""
    if not solution.is_optimal:
        raise ValueError(f"cannot extract action from {solution.status} solution")
    x = solution.x
    lay = vmap.layout
    action = ControlAction.from_array(x[lay.P[0, :, 0]])
    peak1 = float(x[lay.R1].max())
    peak2 = float(x[lay.R2].max()) if vmap.spans else 0.0
    slacks = tuple(float(v) for v in x[lay.S[:, :, 0]].mean(axis=0))
    return FirstStage(
        action=action,
        e_cw_next=float(x[lay.E[0, 0, 1]]),
        e_hw_next=float(x[lay.E[0, 1, 1]]),
        peak1=peak1,
        peak2=peak2,
        slacks=slacks,  # type: ignore[arg-type]
    )
