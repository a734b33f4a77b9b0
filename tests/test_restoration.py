import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from plantmpc import forecast as fc, lp, restoration, simulate
from plantmpc.plant import (
    PRODUCTION_UNITS,
    STORAGE_UNITS,
    UNITS,
    ControlAction,
    Disturbance,
    PlantConfig,
    PlantState,
    balance_residuals,
)

import cold_solve
from oracles import correction_program_built
from simplex import LpBuilder, solve_simplex


def row_form_correction(config, state, action, realized):
    """Restoration solved on its former program by the simplex oracle.

    Columns delta+ and delta- per unit are nonnegative and unbounded; the
    unit limits and tank capacities are rows on delta+ - delta-, and the
    balances are the same three equality rows.
    """
    builder = LpBuilder()
    plus = builder.add_variables(len(UNITS), 0.0, np.inf, 1.0)
    minus = builder.add_variables(len(UNITS), 0.0, np.inf, 1.0)
    ui = {u: i for i, u in enumerate(UNITS)}

    def delta_row(sense, rhs, coeffs):
        cols = [ui[u] for u in coeffs]
        vals = list(coeffs.values())
        builder.add_row(
            sense, rhs, np.concatenate([plus[cols], minus[cols]]),
            np.concatenate([vals, np.negative(vals)]),
        )

    cw_res, hw_res, cond_res = balance_residuals(config, action, realized)
    delta_row(lp.EQ, -cw_res, {"cs": 1.0, "hrc": 1.0, "cw": 1.0})
    delta_row(lp.EQ, -hw_res, {"hrc": config.alpha_h_hrc, "hwg": 1.0,
                               "hx": -1.0, "hw": 1.0})
    delta_row(lp.EQ, -cond_res, {"ct": 1.0, "cs": -config.alpha_cond_cs,
                                 "hx": -1.0})
    for u in UNITS:
        rate = action.rate(u)
        if u in ("cw", "hw"):
            lo = max(-config.pmax(u) - rate, state.storage(u) - config.cap(u) - rate)
            hi = min(config.pmax(u) - rate, state.storage(u) - rate)
        else:
            lo, hi = -rate, config.pmax(u) - rate
        delta_row(lp.GE, lo, {u: 1.0})
        delta_row(lp.LE, hi, {u: 1.0})
    return solve_simplex(builder.build())


def recorded_cases(monkeypatch):
    """Restoration inputs (config, state, action, realized) of a
    deterministic and a stochastic closed loop."""
    cases = []
    original = restoration.restore

    def record(config, state, action, realized, session=None):
        cases.append((config, state, action, realized))
        return original(config, state, action, realized, session)

    monkeypatch.setattr(restoration, "restore", record)
    truth = fc.generate_synthetic_campus(43, days=10)
    for controller in (simulate.ControllerSpec("det", beta=0.1),
                       simulate.ControllerSpec("sto", beta=0.0, scenarios=4)):
        spec = simulate.RunSpec(
            controller=controller, sim_hours=150, horizon=6, ar_order=6,
            history_hours=60,
        )
        simulate.run_closed_loop(PlantConfig(), spec, truth)
    monkeypatch.undo()
    return cases


def random_cases(rng, config, count):
    """Random states and actions, some with rates outside their limits so
    that a unit's correction box excludes zero."""
    cases = []
    pmax = np.array([config.pmax(u) for u in UNITS])
    for _ in range(count):
        state = PlantState(
            e_cw=float(rng.uniform(0, config.cap_cw)),
            e_hw=float(rng.uniform(0, config.cap_hw)),
        )
        rates = rng.uniform(-0.2, 1.2, len(UNITS)) * pmax
        rates[5:] = rng.uniform(-1.0, 1.0, 2) * pmax[5:]
        if rng.random() < 0.5:  # drain a tank below empty
            j = int(rng.integers(2))
            rates[5 + j] = state.storage(("cw", "hw")[j]) + rng.uniform(1.0, 500.0)
        realized = Disturbance(
            load_elec=float(rng.uniform(0, 10_000)),
            load_cw=float(rng.uniform(0, 9_000)),
            load_hw=float(rng.uniform(0, 5_000)),
            price_elec=0.06,
        )
        cases.append((config, state, ControlAction.from_array(rates), realized))
    return cases


def deltas(solution):
    """Each unit's correction, delta+ - delta-, of a correction solution."""
    plus, minus = solution.x.reshape(2, len(UNITS))
    return plus - minus


def untie_broken_minimum(program):
    """The least total correction of ``program``'s constraints, the
    tie-break dropped, by the embedded simplex."""
    return solve_simplex(dataclasses.replace(program, objective=np.ones(2 * len(UNITS))))


def scipy_min_correction(config, state, action, realized):
    """Independent restoration oracle via scipy.optimize.linprog.

    Variables are (plus, minus) pairs per unit; the formulation is written
    out directly rather than through the library's builders.
    """
    units = ("cs", "hrc", "hwg", "ct", "hx", "cw", "hw")
    n = 14  # plus_i at 2i, minus_i at 2i + 1
    c = np.ones(n)

    def delta_row(coeffs):
        row = np.zeros(n)
        for unit, v in coeffs.items():
            i = units.index(unit)
            row[2 * i] = v
            row[2 * i + 1] = -v
        return row

    cw_res, hw_res, cond_res = balance_residuals(config, action, realized)
    a_eq = [
        delta_row({"cs": 1, "hrc": 1, "cw": 1}),
        delta_row({"hrc": config.alpha_h_hrc, "hwg": 1, "hx": -1, "hw": 1}),
        delta_row({"ct": 1, "cs": -config.alpha_cond_cs, "hx": -1}),
    ]
    b_eq = [-cw_res, -hw_res, -cond_res]
    a_ub, b_ub = [], []
    for unit in units:
        rate = action.rate(unit)
        if unit in ("cw", "hw"):
            lo = max(-config.pmax(unit) - rate,
                     state.storage(unit) - config.cap(unit) - rate)
            hi = min(config.pmax(unit) - rate, state.storage(unit) - rate)
        else:
            lo, hi = -rate, config.pmax(unit) - rate
        a_ub.append(delta_row({unit: 1}))
        b_ub.append(hi)
        a_ub.append(-delta_row({unit: 1}))
        b_ub.append(-lo)
    res = scipy.optimize.linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=np.array(a_eq), b_eq=np.array(b_eq),
        bounds=[(0, None)] * n, method="highs",
    )
    return res


@pytest.fixture
def config():
    return PlantConfig()


@pytest.fixture
def balanced_case(config):
    action = ControlAction(
        p_cs=3000.0, p_hrc=1000.0, p_hwg=2000.0,
        p_ct=config.alpha_cond_cs * 3000.0 + 500.0, p_hx=500.0,
        p_cw=1000.0, p_hw=500.0,
    )
    realized = Disturbance(
        load_elec=8000.0,
        load_cw=3000.0 + 1000.0 + 1000.0,
        load_hw=config.alpha_h_hrc * 1000.0 + 2000.0 - 500.0 + 500.0,
        price_elec=0.06,
    )
    return action, realized


class TestUnchanged:
    def test_balanced_action_untouched(self, config, balanced_case):
        action, realized = balanced_case
        state = PlantState(e_cw=10_000.0, e_hw=6_000.0)
        outcome = restoration.restore(config, state, action, realized)
        assert outcome.kind == restoration.UNCHANGED
        assert outcome.total_correction == 0.0
        assert outcome.action == action


class TestCorrected:
    def test_overshoot_absorbed_with_minimal_correction(self):
        # Tank about to overflow by 10 kWh; the committed charge must back
        # off (or production rise).  Oracle: coarse-to-fine grid over the
        # only two meaningful deltas (chiller, chilled storage).
        config = PlantConfig(
            alpha_e_cs=0.2, alpha_cond_cs=1.0, alpha_h_hrc=1.0,
            cap_cw=1000.0, cap_hw=1000.0,
            pmax_cs=100.0, pmax_hrc=0.0, pmax_hwg=0.0, pmax_ct=200.0,
            pmax_hx=0.0, pmax_cw=80.0, pmax_hw=0.0,
        )
        state = PlantState(e_cw=995.0, e_hw=500.0)
        # charging 15 kW -> e_next = 1010 > cap: infeasible by 10 kWh
        action = ControlAction(p_cs=65.0, p_ct=65.0, p_cw=-15.0)
        realized = Disturbance(0.0, 50.0, 0.0, 0.05)
        outcome = restoration.restore(config, state, action, realized)
        assert outcome.kind == restoration.CORRECTED
        best = np.inf
        grid = np.arange(-30.0, 30.01, 0.05)
        for d_cs in grid:
            p_cs = 65.0 + d_cs
            if not 0 <= p_cs <= 100.0:
                continue
            p_cw = 50.0 - p_cs  # chilled balance fixes storage rate
            d_cw = p_cw - (-15.0)
            if abs(p_cw) > 80.0:
                continue
            e_next = 995.0 - p_cw
            if not -1e-9 <= e_next <= 1000.0 + 1e-9:
                continue
            d_ct = (p_cs - 65.0) * config.alpha_cond_cs
            best = min(best, abs(d_cs) + abs(d_cw) + abs(d_ct))
        assert outcome.total_correction == pytest.approx(best, abs=0.2)
        res = balance_residuals(config, outcome.action, realized)
        assert max(abs(r) for r in res) <= 1e-6
        assert 0 <= state.e_cw - outcome.action.p_cw <= config.cap_cw + 1e-6

    def test_matches_independent_lp_oracle(self, config):
        rng = np.random.default_rng(14)
        for trial in range(25):
            state = PlantState(
                e_cw=float(rng.uniform(0, config.cap_cw)),
                e_hw=float(rng.uniform(0, config.cap_hw)),
            )
            p_cs = float(rng.uniform(0, config.pmax_cs * 0.6))
            p_hrc = float(rng.uniform(0, config.pmax_hrc * 0.6))
            p_hx = float(rng.uniform(0, config.pmax_hx * 0.5))
            action = ControlAction(
                p_cs=p_cs, p_hrc=p_hrc,
                p_hwg=float(rng.uniform(0, config.pmax_hwg * 0.6)),
                p_ct=config.alpha_cond_cs * p_cs + p_hx, p_hx=p_hx,
                p_cw=float(rng.uniform(-config.pmax_cw, config.pmax_cw) * 0.3),
                p_hw=float(rng.uniform(-config.pmax_hw, config.pmax_hw) * 0.3),
            )
            realized = Disturbance(
                load_elec=float(rng.uniform(0, 10_000)),
                load_cw=float(rng.uniform(0, 9_000)),
                load_hw=float(rng.uniform(0, 5_000)),
                price_elec=0.06,
            )
            outcome = restoration.restore(config, state, action, realized)
            oracle = scipy_min_correction(config, state, action, realized)
            if outcome.kind == restoration.FALLBACK:
                assert oracle.status != 0
                continue
            assert oracle.status == 0
            assert outcome.total_correction == pytest.approx(
                oracle.fun, abs=1e-5 * (1.0 + oracle.fun)
            )
            res = balance_residuals(config, outcome.action, realized)
            assert max(abs(r) for r in res) <= 1e-6
            for unit in ("cw", "hw"):
                e_next = state.storage(unit) - outcome.action.rate(unit)
                assert -1e-6 <= e_next <= config.cap(unit) + 1e-6
            assert outcome.action.within_bounds(config, tol=1e-6)


class TestAgainstRowFormulation:
    def test_l1_correction_matches_simplex_oracle(self, config, monkeypatch):
        cases = recorded_cases(monkeypatch)
        recorded = len(cases)
        cases += random_cases(np.random.default_rng(8), config, 120)
        session = lp.HighsSession()
        solved = corrected = boxed_out = 0
        for cfg, state, action, realized in cases:
            outcome = restoration.restore(cfg, state, action, realized, session)
            oracle = row_form_correction(cfg, state, action, realized)
            if outcome.kind == restoration.FALLBACK:
                assert oracle.status == lp.INFEASIBLE
                continue
            solved += 1
            corrected += outcome.kind == restoration.CORRECTED
            assert oracle.is_optimal
            assert outcome.total_correction == pytest.approx(
                oracle.objective, rel=1e-9, abs=1e-9
            )
            rates = action.as_array()
            boxed_out += bool(
                np.any(rates[:5] < 0)
                or np.any(rates[:5] > [cfg.pmax(u) for u in UNITS[:5]])
                or any(state.storage(u) - action.rate(u) < 0 for u in ("cw", "hw"))
            )
        assert recorded >= 300
        assert corrected >= 200
        assert boxed_out >= 30

    def test_never_uses_the_controller_session(self, config, monkeypatch):
        """Corrections run through ``HighsSession._run``, on a session of
        their own: never through ``HighsSession.solve``, the seam that
        perfbench times as the controllers' solves, and in a closed loop
        never on the controller's session."""
        def forbidden(self, *args, **kwargs):
            raise AssertionError("restoration solved through HighsSession.solve")

        with monkeypatch.context() as patched:
            patched.setattr(lp.HighsSession, "solve", forbidden)
            session = lp.HighsSession()
            for case in random_cases(np.random.default_rng(2), config, 10):
                restoration.restore(*case)
                restoration.restore(*case, session)

        solve, restore = lp.HighsSession.solve, restoration.restore
        controller, corrections = set(), set()

        def solving(self, *args, **kwargs):
            controller.add(id(self))
            return solve(self, *args, **kwargs)

        def restoring(*args):
            corrections.add(id(args[-1]))
            return restore(*args)

        monkeypatch.setattr(lp.HighsSession, "solve", solving)
        monkeypatch.setattr(restoration, "restore", restoring)
        spec = simulate.RunSpec(controller=simulate.ControllerSpec("det", beta=0.1),
                                sim_hours=12, horizon=6, ar_order=6, history_hours=60)
        simulate.run_closed_loop(config, spec, fc.generate_synthetic_campus(43, days=4))
        assert len(controller) == len(corrections) == 1
        assert controller.isdisjoint(corrections)


class TestReusedInstance:
    """A run solves all its corrections on one ``lp.HighsSession``, each
    warm from the last optimal correction's basis, and each must come out
    as a fresh session's cold solve does: to 1e-9 kW per unit, and bit for
    bit after a fallback, which leaves the session no basis."""

    @staticmethod
    def program(cfg, state, action, realized):
        residuals = balance_residuals(cfg, action, realized)
        return restoration._correction_program(cfg, state, action, residuals,
                                               realized.price_elec)

    @staticmethod
    def infeasible_case(config):
        # No storage rate brings this tank back inside its capacity.
        state = PlantState(e_cw=config.cap_cw + config.pmax_cw + 100.0, e_hw=0.0)
        action = ControlAction(p_cs=100.0, p_ct=config.alpha_cond_cs * 100.0)
        return config, state, action, Disturbance(0.0, 100.0, 0.0, 0.05)

    def test_matches_a_fresh_solve(self, config, monkeypatch):
        cases = recorded_cases(monkeypatch)
        cases += random_cases(np.random.default_rng(11), config, 200)
        cases.append(self.infeasible_case(config))
        session = lp.HighsSession()
        statuses = []
        for case in cases:
            program = self.program(*case)
            reused, fresh = session._run(program), lp.HighsSession()._run(program)
            statuses.append(fresh.status)
            assert reused.status == fresh.status
            if fresh.is_optimal:
                assert np.abs(deltas(reused) - deltas(fresh)).max() <= 1e-9
        assert statuses.count(lp.OPTIMAL) >= 450
        assert lp.INFEASIBLE in statuses

    def test_a_fallback_leaves_no_state_behind(self, config):
        feasible = random_cases(np.random.default_rng(3), config, 12)
        blocked = self.infeasible_case(config)
        # Reference outcomes, each cold on a session of its own.
        expected = [restoration.restore(*case) for case in feasible]
        assert sum(o.kind == restoration.CORRECTED for o in expected) >= 8
        session = lp.HighsSession()
        for case, reference in zip(feasible, expected):
            assert restoration.restore(*blocked, session).kind == restoration.FALLBACK
            assert session._optimum is None
            outcome = restoration.restore(*case, session)
            assert outcome.kind == reference.kind
            assert outcome.deltas.tobytes() == reference.deltas.tobytes()
            assert outcome.action == reference.action


#: Electricity prices of the hours of a closed loop ($/kWh): all positive.
HOURLY_PRICES = st.floats(0.01, 0.3)


#: The kW grid of ``correction_inputs(grid=True)``.
GRID_KW = 2.0 ** -10


@st.composite
def correction_inputs(draw, price_elec=st.one_of(st.just(0.0), HOURLY_PRICES),
                      grid=False):
    """Arguments of one ``restoration._correction_program`` call: a plant
    whose balance matrix may lose an entry and whose water and gas may be
    free, tanks empty, full or between, rates inside and outside their
    limits, any balance residuals, and an electricity price drawn from
    ``price_elec``.

    With ``grid`` every capacity, level, rate and residual is a multiple
    of ``GRID_KW``, so each bound and right-hand side of the program is
    zero or at least 1e-3 kW.  Off the grid, an edge within HiGHS's 1e-7
    kW feasibility tolerance may be met with or without a correction of
    that size, and presolve and the simplex then differ by it.
    """

    def real(lo, hi):
        value = draw(st.floats(lo, hi))
        return round(value / GRID_KW) * GRID_KW if grid else value

    def coefficient():
        return draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))

    def price():
        return draw(st.one_of(st.just(0.0), st.floats(0.001, 0.05)))

    config = PlantConfig(
        cap_cw=real(5000.0, 40000.0), cap_hw=real(3000.0, 30000.0),
        alpha_h_hrc=coefficient(), alpha_cond_cs=coefficient(),
        price_water=price(), price_gas=price(),
    )
    state = PlantState(**{
        f"e_{u}": draw(st.one_of(st.just(0.0), st.just(config.cap(u)),
                                 st.just(real(0.0, config.cap(u)))))
        for u in STORAGE_UNITS
    })
    rates = [real(-0.2 * config.pmax(u), 1.2 * config.pmax(u)) for u in PRODUCTION_UNITS]
    rates += [real(-1.2 * config.pmax(u), 1.2 * config.pmax(u)) for u in STORAGE_UNITS]
    residuals = tuple(real(-1e4, 1e4) for _ in range(3))
    return config, state, ControlAction(*rates), residuals, draw(price_elec)


class TestCorrectionTemplate:
    """Each hour's correction program writes its bounds, right-hand side and
    tie-broken objective into the plant's cached template
    (``restoration._correction_template``)."""

    @given(correction_inputs())
    def test_equals_the_program_built_whole(self, case):
        templated = restoration._correction_program(*case)
        built = correction_program_built(*case)
        for f in dataclasses.fields(lp.LinearProgram):
            a, b = getattr(templated, f.name), getattr(built, f.name)
            if a is None or b is None:  # ``rhs_lower``: no two-sided rows
                assert a is b, f.name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name

    def test_shared_arrays_are_read_only(self, config):
        fixed, utility, lower, upper, cap = restoration._correction_template(config)
        for arr in (*fixed.values(), utility, lower, upper, cap):
            assert arr.flags.owndata and not arr.flags.writeable
        state = PlantState(e_cw=0.0, e_hw=config.cap_hw)
        program = restoration._correction_program(
            config, state, ControlAction(p_cs=100.0), (1.0, 2.0, 3.0), 0.06)
        for name, arr in fixed.items():
            assert getattr(program, name) is arr, name
        for arr in (program.objective, program.lower, program.upper, program.rhs):
            assert arr.flags.writeable



class TestPathIndependence:
    """With the tie-break the correction's optimum is unique, so the warm
    path of a run's session returns the correction that a presolved cold
    solve does, whatever corrections the session solved before."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(correction_inputs(HOURLY_PRICES, grid=True), min_size=2, max_size=8))
    def test_warm_corrections_equal_cold_presolved_solves(self, cases):
        session = lp.HighsSession()
        for case in cases:
            program = restoration._correction_program(*case)
            warm, cold = session._run(program), cold_solve.solve(program)
            assert warm.status == cold.status
            if not cold.is_optimal:
                continue
            assert np.abs(deltas(warm) - deltas(cold)).max() <= 1e-9
            # The tie-break moves each kW's cost by at most TIE_BREAK:
            # T (1 - w) <= T* (1 + w) for the total T and the least T*.
            least = untie_broken_minimum(program)
            assert least.is_optimal
            total = np.abs(deltas(warm)).sum()
            w = restoration.TIE_BREAK
            slack = 1e-9 * (1.0 + least.objective)
            assert least.objective - slack <= total
            assert total * (1 - w) <= least.objective * (1 + w) + slack


class TestFallback:
    def test_no_capacity_anywhere(self):
        config = PlantConfig(
            pmax_cs=0.0, pmax_hrc=0.0, pmax_hwg=0.0, pmax_ct=0.0,
            pmax_hx=0.0, pmax_cw=0.0, pmax_hw=0.0,
        )
        state = PlantState(e_cw=0.0, e_hw=0.0)
        outcome = restoration.restore(
            config, state, ControlAction(), Disturbance(0.0, 100.0, 50.0, 0.05)
        )
        assert outcome.kind == restoration.FALLBACK
        assert np.allclose(outcome.action.as_array(), 0.0)

    def test_empty_correction_box(self, config):
        # A tank holding more than capacity plus one hour's discharge
        # cannot be brought inside its capacity by any storage rate.
        state = PlantState(e_cw=config.cap_cw + config.pmax_cw + 100.0, e_hw=0.0)
        realized = Disturbance(0.0, 100.0, 0.0, 0.05)
        action = ControlAction(p_cs=100.0, p_ct=config.alpha_cond_cs * 100.0)
        outcome = restoration.restore(config, state, action, realized)
        assert outcome.kind == restoration.FALLBACK
        oracle = row_form_correction(config, state, action, realized)
        assert oracle.status == lp.INFEASIBLE


class TestIdempotence:
    def test_restoring_corrected_action_is_unchanged(self, config):
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = PlantState(
                e_cw=float(rng.uniform(0, config.cap_cw)),
                e_hw=float(rng.uniform(0, config.cap_hw)),
            )
            action = ControlAction(
                p_cs=float(rng.uniform(0, 4000)),
                p_hrc=float(rng.uniform(0, 2000)),
                p_hwg=float(rng.uniform(0, 4000)),
                p_ct=0.0, p_hx=0.0,
                p_cw=float(rng.uniform(-2000, 2000)),
                p_hw=float(rng.uniform(-1000, 1000)),
            )
            realized = Disturbance(
                0.0, float(rng.uniform(0, 8000)), float(rng.uniform(0, 4000)), 0.05
            )
            first = restoration.restore(config, state, action, realized)
            if first.kind == restoration.FALLBACK:
                continue
            second = restoration.restore(config, state, first.action, realized)
            assert second.kind == restoration.UNCHANGED
