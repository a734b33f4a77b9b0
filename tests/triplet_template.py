"""The controller program assembled from the triplets of all its scenario
blocks: the oracle of ``mpc``'s replicated build.

``mpc._ProgramTemplate`` keeps one scenario block's static data and
replicates that block's column-major matrix S times.  Here every block's
entries, objective terms, bounds and right-hand sides are written out over
the whole S-scenario layout (``stacked_layout``) and the entries sorted
together, and ``fill`` writes an hour's data into copies of them, so a
program built either way must hold the same arrays, byte for byte.
"""

import numpy as np

from plantmpc import lp, mpc
from plantmpc.plant import (
    STORAGE_UNITS,
    balance_matrix,
    rate_bounds,
    utility_matrix,
)

from stacked_layout import StackedLayout


def accumulate(obj, index, costs):
    """Add ``costs`` to ``obj`` at ``index``, unbuffered, in index order."""
    np.add.at(obj, index, np.broadcast_to(costs, index.shape))


class Template:
    """The static program of one plant, horizon N and S scenarios, every
    array over the S-scenario layout; ``entries`` holds the matrix
    triplets in assembly order, ``program`` the sorted program."""

    def __init__(self, config, n, s):
        tower = mpc._tower(config)
        red = self.layout = StackedLayout(n, s, mpc._tower_binds(config))
        units, tanks = mpc._UNITS, mpc._TANKS
        obj = np.zeros(red.num_vars)
        lower = np.full(red.num_vars, -np.inf)
        upper = np.full(red.num_vars, np.inf)
        sense = np.empty(red.num_rows, dtype=np.int8)
        rhs = np.zeros(red.num_rows)
        rhs_lower = np.zeros(red.num_rows)
        entries = ([], [], [])

        def put(rows, cols, vals):
            rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
            for part, arr, dtype in zip(entries, (rows, cols, vals),
                                        (np.int64, np.int64, float)):
                part.append(arr.reshape(-1).astype(dtype))

        weight = self.weight = 1.0 / s
        P, O, E = red.P, red.O, red.E
        balance = balance_matrix(config)
        utility = utility_matrix(config)
        utility = utility[:, units] + np.outer(utility[:, mpc._CT], tower)
        rate_lower, rate_upper = self.rates = rate_bounds(config)

        def put_units(rows, coeffs):
            for i in np.flatnonzero(coeffs):
                put(rows, P[:, i], coeffs[i])

        if "tower" in red.row_blocks:
            tower_rows = red.row_block("tower")
            put_units(tower_rows, tower)
            sense[tower_rows] = lp.LE
            rhs[tower_rows] = config.pmax_ct

        tri = (n - np.arange(n)).astype(float)
        self.cw_rows, self.hw_rows = (red.row_block(b) for b in ("cw_bal", "hw_bal"))
        for j, rows in enumerate((self.cw_rows, self.hw_rows)):
            penalty = weight * config.rho(STORAGE_UNITS[j]) * tri
            put_units(rows, balance[j, units])
            accumulate(obj, P, -np.multiply.outer(balance[j, units], penalty))
            for i in np.flatnonzero(balance[j, tanks]):
                coeff = balance[j, tanks[i]]
                put(rows, E[:, i, :-1], coeff)
                put(rows, E[:, i, 1:], -coeff)
                accumulate(obj, E[:, i, :-1], -coeff * penalty)
                accumulate(obj, E[:, i, 1:], coeff * penalty)
            put(rows, O[:, j], -1.0)
            obj[O[:, j]] = 2.0 * penalty
            sense[rows] = lp.LE

        for j, unit in enumerate(STORAGE_UNITS):
            dyn = red.row_block(f"e_dyn_{unit}")
            put(dyn, E[:, j, 1:-1], 1.0)
            put(dyn, E[:, j, 2:], -1.0)
            sense[dyn] = lp.RANGE
            rhs_lower[dyn] = rate_lower[tanks[j]]
            rhs[dyn] = rate_upper[tanks[j]]

        self.peak_rows = red.row_block("peak")
        put_units(self.peak_rows, utility[0])
        put(self.peak_rows, red.R1[:, None], -1.0)
        put(self.peak_rows, red.R2[:, None], 0.0)
        sense[self.peak_rows] = lp.LE

        lower[P] = rate_lower[units][None, :, None]
        upper[P] = rate_upper[units][None, :, None]
        lower[O] = 0.0
        lower[red.R2] = 0.0

        self.unit_draw = weight * utility[0]
        self.unit_fixed = weight * (
            utility[1] * config.price_water + utility[2] * config.price_gas)
        self.unmet_weight = weight * tri

        self.entries = tuple(np.concatenate(part) for part in entries)
        self.program = lp.LinearProgram(
            obj, lower, upper, sense, rhs,
            **lp.column_major(*self.entries, red.num_vars), rhs_lower=rhs_lower)
        self.r1, self.r2 = (
            (self.program.a_starts[cols][:, None] + np.arange(n)).reshape(-1)
            for cols in (red.R1, red.R2))


def fill(config, state, values, timing, beta):
    """The hour's program and offset from (S, 4, N) disturbance values."""
    s, _, n = values.shape
    template = Template(config, n, s)
    red, shared = template.layout, template.program
    load_e, load_cw, load_hw, price_e = (values[:, ch, :] for ch in range(4))

    a_vals = shared.a_vals.copy()
    if timing.next_month.any():
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
    for j, (lo, hi) in enumerate(mpc.storage_bounds(config, state, beta)):
        level = state.storage(STORAGE_UNITS[j])
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = level
        lower[E[:, j, 1:]] = lo
        upper[E[:, j, 1:]] = hi
        lower[E[0, j, 1]] = max(lo, level - rate_upper[mpc._TANKS[j]])
        upper[E[0, j, 1]] = min(hi, level - rate_lower[mpc._TANKS[j]])
    lower[red.R1] = state.peak

    obj = shared.objective.copy()
    accumulate(obj, red.P, template.unit_draw[:, None] * price_e[:, None, :]
               + template.unit_fixed[:, None])
    obj[red.R] = template.weight * (config.price_demand / timing.discount)

    offset = float(
        template.weight * np.sum(price_e * load_e)
        + template.unmet_weight @ (config.rho_cw * load_cw.sum(axis=0)
                                   + config.rho_hw * load_hw.sum(axis=0))
        + n * (config.rho_cw * (state.ul_cw + state.ol_cw)
               + config.rho_hw * (state.ul_hw + state.ol_hw))
    )
    program = lp.LinearProgram(
        obj, lower, upper, shared.row_sense, rhs, shared.a_rows, a_vals,
        shared.a_starts, rhs_lower=shared.rhs_lower)
    return program, offset
