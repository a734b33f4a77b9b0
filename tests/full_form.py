"""Extensive-form controller program, kept as a test oracle.

Every quantity of the plant model has its own column: unit loads, residual
demands, slacks, storage levels, the unmet/overmet integrators and the peak
registers, with ``20N + 7`` columns and ``13N`` rows per single-month
scenario.  The controllers solve ``mpc.build_reduced``, which eliminates
the definitional quantities; the tests check that its optimum matches this
program's and that its expanded solutions satisfy every row here.
"""

import numpy as np

from plantmpc import lp, mpc
from plantmpc.plant import CHANNELS, STORAGE_UNITS, UNITS


def build(config, state, data, timing, bounds):
    """Extensive-form program for a trajectory or a scenario set.

    Returns the program and the ``VariableMap`` of its columns.
    """
    values = mpc._scenario_values(data)
    s, n_chan, n = values.shape
    if n != timing.n:
        raise ValueError(f"forecast length {n} != horizon {timing.n}")
    if n_chan != len(CHANNELS):
        raise ValueError("expected 4 disturbance channels")
    vmap = mpc.VariableMap(n, s, timing.spans_two_months)
    lay = vmap.layout

    obj = np.zeros(vmap.num_vars)
    lower = np.full(vmap.num_vars, -np.inf)
    upper = np.full(vmap.num_vars, np.inf)
    sense = np.empty(vmap.num_rows, dtype=np.int8)
    rhs = np.zeros(vmap.num_rows)
    trip_r: list[np.ndarray] = []
    trip_c: list[np.ndarray] = []
    trip_v: list[np.ndarray] = []

    def put(rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        trip_r.append(rows.reshape(-1).astype(np.int64, copy=False))
        trip_c.append(cols.reshape(-1).astype(np.int64, copy=False))
        trip_v.append(vals.reshape(-1).astype(float))

    steps = np.arange(n)
    # Steps whose absolute hour lies past the month end bill into the
    # second peak register.
    in_second_month = (timing.t + steps) > timing.month_end
    weight = 1.0 / s
    demand_coeff = config.price_demand / timing.discount
    carry = state.peak if timing.t < timing.month_end else state.peak_next

    pmax = np.array([config.pmax(u) for u in UNITS])
    alpha_e = np.array(
        [config.alpha_e_cs, config.alpha_e_hrc, config.alpha_e_hwg, config.alpha_e_ct]
    )
    ui = {u: i for i, u in enumerate(UNITS)}
    rows = lay.rows  # (s, 13, n)
    P, r, S, E, ul, ol = lay.P, lay.r, lay.S, lay.E, lay.ul, lay.ol
    load_e, load_cw, load_hw, price_e = (values[:, ch, :] for ch in range(4))

    # Residual definitions: r_e - sum(alpha_e P) = L_e, etc.
    put(rows[:, 0], r[:, 0], 1.0)
    for i, a in enumerate(alpha_e):
        put(rows[:, 0], P[:, i], -a)
    rhs[rows[:, 0]] = load_e

    put(rows[:, 1], r[:, 1], 1.0)
    put(rows[:, 1], P[:, ui["ct"]], -config.alpha_w_ct)

    put(rows[:, 2], r[:, 2], 1.0)
    put(rows[:, 2], P[:, ui["hwg"]], -config.alpha_ng_hwg)

    # Condenser balance: P_ct = alpha_cond * P_cs + P_hx.
    put(rows[:, 3], P[:, ui["ct"]], 1.0)
    put(rows[:, 3], P[:, ui["cs"]], -config.alpha_cond_cs)
    put(rows[:, 3], P[:, ui["hx"]], -1.0)

    # Chilled-water balance.
    for u in ("cs", "hrc", "cw"):
        put(rows[:, 4], P[:, ui[u]], 1.0)
    put(rows[:, 4], S[:, 0], 1.0)
    put(rows[:, 4], S[:, 1], -1.0)
    rhs[rows[:, 4]] = load_cw

    # Hot-water balance.
    put(rows[:, 5], P[:, ui["hrc"]], config.alpha_h_hrc)
    put(rows[:, 5], P[:, ui["hwg"]], 1.0)
    put(rows[:, 5], P[:, ui["hx"]], -1.0)
    put(rows[:, 5], P[:, ui["hw"]], 1.0)
    put(rows[:, 5], S[:, 2], 1.0)
    put(rows[:, 5], S[:, 3], -1.0)
    rhs[rows[:, 5]] = load_hw

    # Storage, unmet, and overmet dynamics.
    for j, unit in enumerate(STORAGE_UNITS):
        put(rows[:, 6 + j], E[:, j, 1:], 1.0)
        put(rows[:, 6 + j], E[:, j, :-1], -1.0)
        put(rows[:, 6 + j], P[:, ui[unit]], 1.0)
        put(rows[:, 8 + j], ul[:, j, 1:], 1.0)
        put(rows[:, 8 + j], ul[:, j, :-1], -1.0)
        put(rows[:, 8 + j], S[:, 2 * j], -1.0)
        put(rows[:, 10 + j], ol[:, j, 1:], 1.0)
        put(rows[:, 10 + j], ol[:, j, :-1], -1.0)
        put(rows[:, 10 + j], S[:, 2 * j + 1], -1.0)

    # Peak tracking: r_e,k <= R for the month containing step k.
    peak_col = np.where(in_second_month, lay.R2[:, None], lay.R1[:, None])
    put(rows[:, 12], r[:, 0], 1.0)
    put(rows[:, 12], peak_col, -1.0)

    sense_blocks = sense.reshape(s, 13, n)
    sense_blocks[:, :12, :] = lp.EQ
    sense_blocks[:, 12, :] = lp.LE

    # Bounds.
    is_storage = np.isin(np.array(UNITS), STORAGE_UNITS)
    lower[P] = np.where(is_storage, -pmax, 0.0)[None, :, None]
    upper[P] = pmax[None, :, None]
    initial_ul = (state.ul_cw, state.ul_hw)
    initial_ol = (state.ol_cw, state.ol_hw)
    for j, unit in enumerate(STORAGE_UNITS):
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = state.storage(unit)
        lower[E[:, j, 1:]] = bounds.lower(unit)
        upper[E[:, j, 1:]] = bounds.upper(unit)
        lower[ul[:, j, 0]] = upper[ul[:, j, 0]] = initial_ul[j]
        lower[ol[:, j, 0]] = upper[ol[:, j, 0]] = initial_ol[j]
        lower[ul[:, j, 1:]] = 0.0
        lower[ol[:, j, 1:]] = 0.0
        # Decided integrator states carry the violation penalty; the
        # pinned initial value would only add a constant.
        obj[ul[:, j, 1:]] = weight * config.rho(unit)
        obj[ol[:, j, 1:]] = weight * config.rho(unit)
    lower[S] = 0.0

    # Objective: utility purchases plus discounted demand charges.
    obj[r[:, 0]] = weight * price_e
    obj[r[:, 1]] = weight * config.price_water
    obj[r[:, 2]] = weight * config.price_gas
    lower[lay.R1] = carry
    obj[lay.R1] = weight * demand_coeff
    if vmap.spans:
        lower[lay.R2] = state.peak_next
        obj[lay.R2] = weight * demand_coeff

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
    return program, vmap
