import numpy as np
import pytest

from plantmpc import forecast as fc, lp, mpc
from plantmpc.plant import (
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_residuals,
)

import full_form
from oracles import grid_search_two_step
from simplex import solve_simplex


def full_bounds(config):
    return mpc.TankBounds(0.0, config.cap_cw, 0.0, config.cap_hw)


def solve_reduced(config, state, data, timing, bounds):
    """Production path: reduced program, HiGHS, expanded solution."""
    reduced = mpc.build_reduced(config, state, data, timing, bounds)
    return reduced.expand(lp.solve(reduced.program)), reduced.vmap


def explicit_nonanticipativity(prog, vmap):
    """The extensive-form program with per-scenario first-stage columns.

    Scenarios 1..S-1 get their own copies of the hour-t unit loads and the
    next-hour storage levels; 7(S - 1) equality rows tie their loads to
    scenario 0's.  Sharing the columns must give the same optimum.
    """
    lay, s = vmap.layout, vmap.s
    first = np.concatenate([lay.P[0, :, 0], lay.E[0, :, 1]])
    copies = prog.num_vars + np.arange((s - 1) * first.size).reshape(s - 1, -1)
    row_scenario = np.empty(prog.num_rows, dtype=np.int64)
    row_scenario[lay.rows.reshape(s, -1)] = np.arange(s)[:, None]
    position = np.full(prog.num_vars, -1)
    position[first] = np.arange(first.size)
    xi = row_scenario[prog.a_rows]
    moved = (xi > 0) & (position[prog.a_cols] >= 0)
    a_cols = prog.a_cols.copy()
    a_cols[moved] = copies[xi[moved] - 1, position[prog.a_cols[moved]]]
    tie = prog.num_rows + np.arange(7 * (s - 1))
    return lp.LinearProgram(
        objective=np.concatenate([prog.objective, np.tile(prog.objective[first], s - 1)]),
        lower=np.concatenate([prog.lower, np.tile(prog.lower[first], s - 1)]),
        upper=np.concatenate([prog.upper, np.tile(prog.upper[first], s - 1)]),
        row_sense=np.concatenate([prog.row_sense, np.full(tie.size, lp.EQ, np.int8)]),
        rhs=np.concatenate([prog.rhs, np.zeros(tie.size)]),
        a_rows=np.concatenate([prog.a_rows, tie, tie]),
        a_cols=np.concatenate(
            [a_cols, copies[:, :7].reshape(-1), np.tile(first[:7], s - 1)]
        ),
        a_vals=np.concatenate([prog.a_vals, np.ones(tie.size), -np.ones(tie.size)]),
    ), copies


def trajectory(load_e, load_cw, load_hw, price):
    return DisturbanceTrajectory(np.array([load_e, load_cw, load_hw, price], dtype=float))


def toy_config(**overrides):
    """Single chiller + chilled tank; everything else disabled."""
    defaults = dict(
        alpha_e_cs=0.5, alpha_e_hrc=0.0, alpha_e_hwg=0.0, alpha_e_ct=0.0,
        alpha_w_ct=0.1, alpha_ng_hwg=0.0, alpha_cond_cs=1.0, alpha_h_hrc=0.0,
        cap_cw=100.0, cap_hw=10.0,
        pmax_cs=80.0, pmax_hrc=0.0, pmax_hwg=0.0, pmax_ct=200.0, pmax_hx=0.0,
        pmax_cw=60.0, pmax_hw=0.0,
        price_demand=2.0, rho_cw=10.0, rho_hw=10.0,
    )
    defaults.update(overrides)
    return PlantConfig(**defaults)


class TestZeroInstance:
    def test_all_zero_action_and_peak_carry_objective(self):
        config = PlantConfig()
        state = PlantState(e_cw=0.0, e_hw=0.0, peak=500.0)
        n = 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        traj = trajectory([0] * n, [0] * n, [0] * n, [0] * n)
        sol, vmap = solve_reduced(config, state, traj, timing, full_bounds(config))
        assert sol.is_optimal
        expected = config.price_demand / timing.discount * 500.0
        assert sol.objective == pytest.approx(expected)
        prog, _ = full_form.build(config, state, traj, timing, full_bounds(config))
        prog.validate()
        assert solve_simplex(prog).objective == pytest.approx(expected)
        first = mpc.extract_action(sol, vmap)
        assert np.allclose(first.action.as_array(), 0.0, atol=1e-9)
        assert first.peak1 == pytest.approx(500.0)


class TestAgainstGridSearch:
    def test_two_step_toy_matches_exhaustive_search(self):
        config = toy_config()
        state = PlantState(e_cw=50.0, e_hw=0.0, peak=0.0)
        loads = np.array([70.0, 30.0])
        prices = np.array([0.05, 0.25])
        timing = mpc.HorizonTiming(t=0, n=2, month_end=743)
        bounds = full_bounds(config)
        traj = trajectory([0.0, 0.0], loads, [0.0, 0.0], prices)

        sol, vmap = solve_reduced(config, state, traj, timing, bounds)
        assert sol.is_optimal
        oracle = solve_simplex(full_form.build(config, state, traj, timing, bounds)[0])
        assert sol.objective == pytest.approx(oracle.objective, rel=1e-9)

        demand_weight = config.price_demand / timing.discount
        best_obj, best_p = grid_search_two_step(
            config, state, loads, prices, (0.0, config.cap_cw),
            demand_weight, carry=0.0, points=241,
        )
        assert sol.objective == pytest.approx(best_obj, abs=1e-4 * (1 + abs(best_obj)))
        first = mpc.extract_action(sol, vmap)
        assert first.action.p_cs == pytest.approx(best_p[0], abs=0.5)

    def test_extract_round_trip(self):
        config = toy_config()
        state = PlantState(e_cw=20.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=2, month_end=743)
        traj = trajectory([0, 0], [50.0, 10.0], [0, 0], [0.1, 0.1])
        sol, vmap = solve_reduced(config, state, traj, timing, full_bounds(config))
        first = mpc.extract_action(sol, vmap)
        assert first.e_cw_next == pytest.approx(state.e_cw - first.action.p_cw)


class TestCountingFormulas:
    """Sizes documented in ``mpc``: U = 6 unit columns when the tower
    folds (default plant), 7 otherwise; the extensive form is the oracle."""

    @pytest.mark.parametrize("n", [6, 48, 168])
    def test_deterministic_counts(self, n):
        state = PlantState(e_cw=0.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=n, month_end=10_000)
        zeros = [0.0] * n
        traj = trajectory(zeros, zeros, zeros, zeros)
        for config, u in ((PlantConfig(), 6), (PlantConfig(pmax_ct=6000.0), 7)):
            reduced = mpc.build_reduced(
                config, state, traj, timing, full_bounds(config)
            )
            assert reduced.program.num_vars == u + 4 + (u + 6) * n - u - 1
            assert reduced.program.num_rows == (u - 1) * n
            prog, vmap = full_form.build(
                config, state, traj, timing, full_bounds(config)
            )
            assert prog.num_vars == 20 * n + 7
            assert prog.num_rows == 13 * n
            assert reduced.vmap.num_vars == vmap.num_vars == prog.num_vars

    @pytest.mark.parametrize("n,s", [(6, 3), (24, 10)])
    def test_stochastic_counts(self, n, s):
        config = PlantConfig()
        state = PlantState(e_cw=0.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=n, month_end=10_000)
        values = np.abs(np.random.default_rng(0).normal(50, 5, (s, 4, n)))
        scen = fc.ScenarioSet(values=values, unclamped=values)
        reduced = mpc.build_reduced(config, state, scen, timing, full_bounds(config))
        assert reduced.program.num_vars == 10 + s * (12 * n - 7)
        assert reduced.program.num_rows == 5 * n * s
        prog, _ = full_form.build(config, state, scen, timing, full_bounds(config))
        assert prog.num_vars == 15 + s * (20 * n - 8)
        assert prog.num_rows == 13 * n * s

    def test_spanning_adds_one_peak_per_scenario(self):
        config = PlantConfig()
        state = PlantState(e_cw=0.0, e_hw=0.0)
        n, s = 6, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=2)
        assert timing.spans_two_months
        values = np.full((s, 4, n), 10.0)
        scen = fc.ScenarioSet(values=values, unclamped=values)
        reduced = mpc.build_reduced(config, state, scen, timing, full_bounds(config))
        assert reduced.program.num_vars == 10 + s * (12 * n - 6)
        prog, _ = full_form.build(config, state, scen, timing, full_bounds(config))
        assert prog.num_vars == 15 + s * (20 * n - 7)


class TestStochasticStructure:
    def make_scenarios(self, s, n, seed=0, spread=5.0):
        rng = np.random.default_rng(seed)
        base = np.array(
            [np.full(n, 100.0), np.full(n, 60.0), np.full(n, 40.0),
             np.full(n, 0.08)]
        )
        values = np.stack([
            np.abs(base + rng.normal(0, spread, (4, n)) * [[1], [1], [1], [0.001]])
            for _ in range(s)
        ])
        return fc.ScenarioSet(values=values, unclamped=values)

    def test_single_scenario_identical_to_deterministic(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0, peak=200.0)
        n = 8
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(1, n)
        red_s = mpc.build_reduced(config, state, scen, timing, full_bounds(config))
        red_d = mpc.build_reduced(
            config, state, DisturbanceTrajectory(scen.values[0]), timing,
            full_bounds(config),
        )
        assert red_s.offset == red_d.offset
        prog_s, prog_d = red_s.program, red_d.program
        assert np.array_equal(prog_s.objective, prog_d.objective)
        assert np.array_equal(prog_s.rhs, prog_d.rhs)
        assert np.array_equal(prog_s.lower, prog_d.lower)
        assert np.array_equal(prog_s.upper, prog_d.upper)

    def test_identical_scenarios_match_deterministic_optimum(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 5
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        one = self.make_scenarios(1, n, seed=3)
        values = np.tile(one.values, (s, 1, 1))
        scen = fc.ScenarioSet(values=values, unclamped=values)
        sol_s, _ = solve_reduced(config, state, scen, timing, full_bounds(config))
        sol_d, _ = solve_reduced(
            config, state, DisturbanceTrajectory(values[0]), timing,
            full_bounds(config),
        )
        assert sol_s.objective == pytest.approx(sol_d.objective, rel=1e-8)

    def test_scenario_order_invariance(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 6
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=7)
        bounds = full_bounds(config)
        sol_a, vmap_a = solve_reduced(config, state, scen, timing, bounds)
        perm = np.array([3, 1, 5, 0, 4, 2])
        scen_p = fc.ScenarioSet(
            values=scen.values[perm], unclamped=scen.unclamped[perm]
        )
        sol_b, vmap_b = solve_reduced(config, state, scen_p, timing, bounds)
        assert sol_a.objective == pytest.approx(sol_b.objective, rel=1e-9)
        a = mpc.extract_action(sol_a, vmap_a)
        b = mpc.extract_action(sol_b, vmap_b)
        assert np.allclose(a.action.as_array(), b.action.as_array(), atol=1e-5)

    def test_explicit_nonanticipativity_equivalent(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0, peak=100.0)
        n, s = 5, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=11)
        bounds = full_bounds(config)
        shared_prog, vmap = full_form.build(config, state, scen, timing, bounds)
        explicit_prog, copies = explicit_nonanticipativity(shared_prog, vmap)
        assert explicit_prog.num_rows == shared_prog.num_rows + 7 * (s - 1)
        sol_shared = lp.solve(shared_prog)
        sol_explicit = lp.solve(explicit_prog)
        assert sol_shared.objective == pytest.approx(
            sol_explicit.objective, rel=1e-8
        )
        sol_reduced, _ = solve_reduced(config, state, scen, timing, bounds)
        assert sol_reduced.objective == pytest.approx(
            sol_shared.objective, rel=1e-8
        )
        x = sol_explicit.x
        first = vmap.layout.P[0, :, 0]
        assert np.allclose(x[copies[:, :7]], x[first], atol=1e-6)
        a = mpc.extract_action(sol_shared, vmap)
        b = mpc.extract_action(
            lp.LpSolution(sol_explicit.status, x[: shared_prog.num_vars], None),
            vmap,
        )
        assert np.allclose(
            a.action.as_array(), b.action.as_array(), atol=1e-4
        )

    def test_recourse_value_nonnegative(self):
        # Fixing the deterministic first stage inside the stochastic LP can
        # never beat the stochastic optimum.
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 8
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=13, spread=15.0)
        bounds = full_bounds(config)
        prog_s, vmap_s = full_form.build(config, state, scen, timing, bounds)
        sol_s = lp.solve(prog_s)

        mean_traj = DisturbanceTrajectory(scen.values.mean(axis=0))
        sol_d, vmap_d = solve_reduced(config, state, mean_traj, timing, bounds)
        det_first = mpc.extract_action(sol_d, vmap_d).action.as_array()

        pinned = prog_s
        cols = vmap_s.columns(0)["P"][:, 0]
        lower = pinned.lower.copy()
        upper = pinned.upper.copy()
        lower[cols] = det_first
        upper[cols] = det_first
        fixed = lp.LinearProgram(
            objective=pinned.objective, lower=lower, upper=upper,
            row_sense=pinned.row_sense, rhs=pinned.rhs,
            a_rows=pinned.a_rows, a_cols=pinned.a_cols, a_vals=pinned.a_vals,
        )
        sol_fixed = lp.solve(fixed)
        assert sol_fixed.is_optimal
        assert sol_s.objective <= sol_fixed.objective + 1e-6 * abs(sol_fixed.objective)

    def test_rho_monotonicity(self):
        # Force active slack: load beyond total capacity.
        state = PlantState(e_cw=0.0, e_hw=0.0)
        n = 3
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        loads = [500.0] * n
        objectives = []
        for rho in (1.0, 10.0, 100.0):
            config = toy_config(rho_cw=rho, rho_hw=rho)
            traj = trajectory([0] * n, loads, [0] * n, [0.1] * n)
            sol, _ = solve_reduced(config, state, traj, timing, full_bounds(config))
            assert sol.is_optimal
            objectives.append(sol.objective)
        assert objectives == sorted(objectives)
        assert objectives[0] < objectives[-1]

    def test_solution_satisfies_plant_balances(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=17, spread=10.0)
        sol, vmap = solve_reduced(config, state, scen, timing, full_bounds(config))
        assert sol.is_optimal
        from plantmpc.plant import ControlAction, Disturbance

        for xi in range(s):
            cols = vmap.columns(xi)
            for k in range(n):
                action = ControlAction.from_array(sol.x[cols["P"][:, k]])
                slacks = tuple(sol.x[cols["S"][:, k]])
                dist = Disturbance(*scen.values[xi, :, k])
                res = balance_residuals(config, action, dist, slacks)
                assert max(abs(r) for r in res) <= 1e-6


class TestReducedEquivalence:
    @pytest.mark.parametrize("spanning", [False, True])
    @pytest.mark.parametrize("fold", [False, True])
    def test_matches_full_formulation(self, spanning, fold):
        config = PlantConfig() if fold else PlantConfig(pmax_ct=6000.0)
        assert mpc._can_fold_ct(config) == fold
        state = PlantState(
            e_cw=8000.0, e_hw=4000.0, ul_cw=2.0, ol_hw=1.0, peak=7000.0
        )
        n, s = 8, 5
        month_end = 4 if spanning else 743
        timing = mpc.HorizonTiming(t=0, n=n, month_end=month_end)
        assert timing.spans_two_months == spanning
        rng = np.random.default_rng(23)
        values = np.abs(
            np.array([[9000.0], [5000.0], [3000.0], [0.07]])
            + rng.normal(0, 300.0, (s, 4, n)) * [[1], [1], [1], [0.00001]]
        )
        scen = fc.ScenarioSet(values=values, unclamped=values)
        bounds = full_bounds(config)

        prog_full, _ = full_form.build(config, state, scen, timing, bounds)
        sol_full = lp.solve(prog_full)
        reduced = mpc.build_reduced(config, state, scen, timing, bounds)
        reduced.program.validate()
        sol_red = reduced.expand(lp.solve(reduced.program))
        assert sol_red.objective == pytest.approx(sol_full.objective, rel=1e-9)

        # The expanded solution must satisfy every full-form constraint.
        a = prog_full.matrix()
        residual = a @ sol_red.x - prog_full.rhs
        ineq = prog_full.row_sense == lp.LE
        assert np.abs(residual[~ineq]).max() <= 1e-6
        assert residual[ineq].max(initial=0.0) <= 1e-6
        assert np.all(sol_red.x >= prog_full.lower - 1e-9)
        assert np.all(sol_red.x <= prog_full.upper + 1e-9)


class TestHorizonTiming:
    def test_spanning_example(self):
        timing = mpc.HorizonTiming(t=700, n=168, month_end=744)
        assert timing.spans_two_months

    def test_non_spanning_example(self):
        timing = mpc.HorizonTiming(t=10, n=168, month_end=744)
        assert not timing.spans_two_months

    def test_closing_hour_is_single_month(self):
        timing = mpc.HorizonTiming(t=744, n=168, month_end=744)
        assert not timing.spans_two_months
        assert timing.discount == pytest.approx(1.0 / 168)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mpc.HorizonTiming(t=10, n=0, month_end=100)
        with pytest.raises(ValueError):
            mpc.HorizonTiming(t=10, n=5, month_end=9)


class TestVariableMap:
    def test_bijective_over_columns(self):
        vmap = mpc.VariableMap(n=5, s=3, spans=True)
        seen = {}
        quantities = (
            [f"P_{u}" for u in
             ("cs", "hrc", "hwg", "ct", "hx", "cw", "hw")]
        )
        for xi in range(3):
            for q in quantities:
                for k in range(5):
                    col = vmap.col(q, k, xi)
                    key = (q, k, xi if k > 0 else -1)  # first stage shared
                    if key in seen:
                        assert seen[key] == col
                    seen[key] = col
        cols = list(seen.values())
        assert len(set(cols)) == len(set(seen))

    def test_first_stage_shared_across_scenarios(self):
        vmap = mpc.VariableMap(n=4, s=5, spans=False)
        for q in ("P_cs", "P_hw", "E_cw", "ul_hw"):
            k = 1 if q.startswith("E") else 0
            cols = {vmap.col(q, k, xi) for xi in range(5)}
            assert len(cols) == 1

    def test_recourse_not_shared(self):
        vmap = mpc.VariableMap(n=4, s=5, spans=False)
        cols = {vmap.col("P_cs", 2, xi) for xi in range(5)}
        assert len(cols) == 5

    def test_r2_requires_spanning(self):
        vmap = mpc.VariableMap(n=4, s=2, spans=False)
        with pytest.raises(KeyError):
            vmap.col("R2", 0, 0)
