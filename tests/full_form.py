"""Extensive-form controller program, kept as a test oracle.

Every quantity of the plant model has its own column: unit loads, residual
demands, slacks, storage levels, the unmet/overmet integrators and the peak
registers, with ``20N + 7`` columns and ``13N`` rows per single-month
scenario.  The controllers solve ``mpc.build_reduced``, which eliminates
the definitional quantities; the tests check that its optimum matches this
program's and that its decoded plans, mapped onto these columns by
``FullForm.vector``, satisfy every row and bound here.
"""

from dataclasses import dataclass

import numpy as np

from plantmpc import lp, mpc
from plantmpc.plant import CHANNELS, STORAGE_UNITS, UNITS, PlantConfig, PlantState


class Layout:
    """Stacked column/row index arrays for all scenarios of one shape.

    Arrays: P (s, 7, n), r (s, 3, n) for r_e, r_w, r_ng, S (s, 4, n),
    E/ul/ol (s, 2, n+1), R1/R2 (s,), rows (s, 13, n).  The hour-0 loads and
    the step-0/1 storage and step-0 integrator columns are shared by all
    scenarios; ``R2`` is ``R1`` unless a step of the horizon bills to next
    month.
    """

    def __init__(self, n: int, s: int, spans: bool):
        self.n, self.s, self.spans = n, s, spans
        peaks = 2 if spans else 1
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


@dataclass
class FullForm:
    """The extensive-form program with the data it was built from."""

    program: lp.LinearProgram
    layout: Layout
    config: PlantConfig
    state: PlantState
    values: np.ndarray

    def vector(self, plan: mpc.Plan) -> np.ndarray:
        """The column vector of a plan decoded from the reduced program.

        The residual demands and the integrator states, which the reduced
        program eliminates, follow from their definitions.
        """
        lay, cfg, state = self.layout, self.config, self.state
        x = np.empty(lay.num_vars)
        x[lay.P] = plan.P
        x[lay.S] = plan.S
        x[lay.E] = plan.E
        x[lay.R1] = plan.peaks[:, 0]
        if lay.spans:
            x[lay.R2] = plan.peaks[:, 1]
        alpha_e = np.array(
            [cfg.alpha_e_cs, cfg.alpha_e_hrc, cfg.alpha_e_hwg, cfg.alpha_e_ct]
        )
        x[lay.r[:, 0]] = self.values[:, 0, :] + np.einsum(
            "u,sun->sn", alpha_e, plan.P[:, :4]
        )
        x[lay.r[:, 1]] = cfg.alpha_w_ct * plan.P[:, 3]
        x[lay.r[:, 2]] = cfg.alpha_ng_hwg * plan.P[:, 2]
        initial_ul = (state.ul_cw, state.ul_hw)
        initial_ol = (state.ol_cw, state.ol_hw)
        for j in range(2):
            x[lay.ul[:, j, 0]] = initial_ul[j]
            x[lay.ul[:, j, 1:]] = initial_ul[j] + np.cumsum(plan.S[:, 2 * j], axis=1)
            x[lay.ol[:, j, 0]] = initial_ol[j]
            x[lay.ol[:, j, 1:]] = initial_ol[j] + np.cumsum(plan.S[:, 2 * j + 1], axis=1)
        return x


def build(config, state, data, timing, beta) -> FullForm:
    """Extensive-form program for a trajectory or a scenario set.

    Planned storage levels stay in the buffered tank [beta * cap,
    (1 - beta) * cap], widened to hold the current level.  Each scenario's
    costs are weighted by its probability.
    """
    values = mpc._scenario_values(data)
    probabilities = getattr(data, "probabilities", np.ones(1))
    s, n_chan, n = values.shape
    if n != timing.n:
        raise ValueError(f"forecast length {n} != horizon {timing.n}")
    if n_chan != len(CHANNELS):
        raise ValueError("expected 4 disturbance channels")
    # Step k bills to next month's register when t + k > month_end; the
    # second register exists only when some step does.
    in_second_month = timing.t + np.arange(n) > timing.month_end
    lay = Layout(n, s, bool(in_second_month.any()))

    obj = np.zeros(lay.num_vars)
    lower = np.full(lay.num_vars, -np.inf)
    upper = np.full(lay.num_vars, np.inf)
    sense = np.empty(lay.num_rows, dtype=np.int8)
    rhs = np.zeros(lay.num_rows)
    matrix = mpc._Triplets()
    put = matrix.put

    weight = probabilities[:, None]
    demand_coeff = config.price_demand / timing.discount

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
        level, cap = state.storage(unit), config.cap(unit)
        lower[E[:, j, 0]] = upper[E[:, j, 0]] = level
        lower[E[:, j, 1:]] = min(beta * cap, level)
        upper[E[:, j, 1:]] = max((1.0 - beta) * cap, level)
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
    lower[lay.R1] = state.peak
    obj[lay.R1] = probabilities * demand_coeff
    if lay.spans:
        lower[lay.R2] = 0.0
        obj[lay.R2] = probabilities * demand_coeff

    program = lp.LinearProgram(obj, lower, upper, sense, rhs,
                               **matrix.column_major(obj.size))
    return FullForm(program, lay, config, state, values)
