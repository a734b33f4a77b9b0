import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from plantmpc import forecast as fc, lp, mpc
from plantmpc.plant import (
    STORAGE_UNITS,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_residuals,
)

import full_form
import triplet_template
from stacked_layout import StackedLayout
from oracles import grid_search_two_step
from simplex import matrix, solve_simplex


def solve_reduced(config, state, data, timing, beta):
    """Production path: reduced program, HiGHS, decoded plan."""
    reduced = mpc.build_reduced(config, state, data, timing, beta)
    sol = lp.solve(reduced.program)
    assert sol.is_optimal
    return reduced.expand(sol)


def explicit_nonanticipativity(prog, lay):
    """The extensive-form program with per-scenario first-stage columns.

    Scenarios 1..S-1 get their own copies of the hour-t unit loads and the
    next-hour storage levels; 7(S - 1) equality rows tie their loads to
    scenario 0's.  Sharing the columns must give the same optimum.
    """
    s = lay.s
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
    matrix = lp.column_major(
        np.concatenate([prog.a_rows, tie, tie]),
        np.concatenate([a_cols, copies[:, :7].reshape(-1), np.tile(first[:7], s - 1)]),
        np.concatenate([prog.a_vals, np.ones(tie.size), -np.ones(tie.size)]),
        prog.num_vars + copies.size,
    )
    return lp.LinearProgram(
        objective=np.concatenate([prog.objective, np.tile(prog.objective[first], s - 1)]),
        lower=np.concatenate([prog.lower, np.tile(prog.lower[first], s - 1)]),
        upper=np.concatenate([prog.upper, np.tile(prog.upper[first], s - 1)]),
        row_sense=np.concatenate([prog.row_sense, np.full(tie.size, lp.EQ, np.int8)]),
        rhs=np.concatenate([prog.rhs, np.zeros(tie.size)]),
        **matrix,
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
        plan = solve_reduced(config, state, traj, timing, 0.0)
        expected = config.price_demand / timing.discount * 500.0
        assert plan.objective == pytest.approx(expected)
        prog = full_form.build(config, state, traj, timing, 0.0).program
        prog.validate()
        assert solve_simplex(prog).objective == pytest.approx(expected)
        action = mpc.extract_action(plan)
        assert np.allclose(action.as_array(), 0.0, atol=1e-9)
        assert plan.peaks.shape == (1, 2)
        assert plan.peaks[0] == pytest.approx([500.0, 0.0])


class TestAgainstGridSearch:
    def test_two_step_toy_matches_exhaustive_search(self):
        config = toy_config()
        state = PlantState(e_cw=50.0, e_hw=0.0, peak=0.0)
        loads = np.array([70.0, 30.0])
        prices = np.array([0.05, 0.25])
        timing = mpc.HorizonTiming(t=0, n=2, month_end=743)
        traj = trajectory([0.0, 0.0], loads, [0.0, 0.0], prices)

        plan = solve_reduced(config, state, traj, timing, 0.0)
        oracle = solve_simplex(
            full_form.build(config, state, traj, timing, 0.0).program
        )
        assert plan.objective == pytest.approx(oracle.objective, rel=1e-9)

        demand_weight = config.price_demand / timing.discount
        best_obj, best_p = grid_search_two_step(
            config, state, loads, prices, (0.0, config.cap_cw),
            demand_weight, carry=0.0, points=241,
        )
        assert plan.objective == pytest.approx(best_obj, abs=1e-4 * (1 + abs(best_obj)))
        assert mpc.extract_action(plan).p_cs == pytest.approx(best_p[0], abs=0.5)

    def test_extract_round_trip(self):
        config = toy_config()
        state = PlantState(e_cw=20.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=2, month_end=743)
        traj = trajectory([0, 0], [50.0, 10.0], [0, 0], [0.1, 0.1])
        plan = solve_reduced(config, state, traj, timing, 0.0)
        e0 = np.array([state.e_cw, state.e_hw])
        assert np.array_equal(plan.E[0, :, 0], e0)
        assert np.allclose(plan.E[0, :, 1], e0 - plan.P[0, 5:7, 0])
        action = mpc.extract_action(plan)
        assert plan.E[0, 0, 1] == pytest.approx(state.e_cw - action.p_cw)

    def test_expand_rejects_non_optimal(self):
        config = toy_config()
        state = PlantState(e_cw=20.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=2, month_end=743)
        traj = trajectory([0, 0], [50.0, 10.0], [0, 0], [0.1, 0.1])
        reduced = mpc.build_reduced(config, state, traj, timing, 0.0)
        with pytest.raises(ValueError, match="infeasible"):
            reduced.expand(lp.LpSolution(lp.INFEASIBLE, None, None))


class TestCountingFormulas:
    """Sizes documented in ``mpc``: 8 + S(8N - 4) columns and 5NS - 2S rows,
    plus NS tower rows when the tower limit can bind (not on the default
    plant); the extensive form is the oracle."""

    @pytest.mark.parametrize("n", [6, 48, 168])
    def test_deterministic_counts(self, n):
        state = PlantState(e_cw=0.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=n, month_end=10_000)
        zeros = [0.0] * n
        traj = trajectory(zeros, zeros, zeros, zeros)
        for config, binds in ((PlantConfig(), False), (PlantConfig(pmax_ct=6000.0), True)):
            assert mpc._tower_binds(config) == binds
            reduced = mpc.build_reduced(
                config, state, traj, timing, 0.0
            )
            assert reduced.program.num_vars == 8 + 8 * n - 4
            assert reduced.program.num_rows == 5 * n - 2 + (n if binds else 0)
            full = full_form.build(
                config, state, traj, timing, 0.0
            )
            assert full.program.num_vars == full.layout.num_vars == 20 * n + 7
            assert full.program.num_rows == 13 * n

    @pytest.mark.parametrize("n,s", [(6, 3), (24, 10)])
    def test_stochastic_counts(self, n, s):
        config = PlantConfig()
        state = PlantState(e_cw=0.0, e_hw=0.0)
        timing = mpc.HorizonTiming(t=0, n=n, month_end=10_000)
        values = np.abs(np.random.default_rng(0).normal(50, 5, (s, 4, n)))
        scen = fc.ScenarioSet(values)
        reduced = mpc.build_reduced(config, state, scen, timing, 0.0)
        assert reduced.program.num_vars == 8 + s * (8 * n - 4)
        assert reduced.program.num_rows == 5 * n * s - 2 * s
        prog = full_form.build(config, state, scen, timing, 0.0).program
        assert prog.num_vars == 15 + s * (20 * n - 8)
        assert prog.num_rows == 13 * n * s

    def test_spanning_adds_one_peak_per_scenario(self):
        """In the extensive form only; the reduced program always carries
        both registers and keeps its pattern across the month end."""
        config = PlantConfig()
        state = PlantState(e_cw=0.0, e_hw=0.0)
        n, s = 6, 4
        spanning = mpc.HorizonTiming(t=0, n=n, month_end=2)
        one_month = mpc.HorizonTiming(t=0, n=n, month_end=743)
        assert spanning.next_month.any() and not one_month.next_month.any()
        values = np.full((s, 4, n), 10.0)
        scen = fc.ScenarioSet(values)
        reduced = mpc.build_reduced(config, state, scen, spanning, 0.0).program
        inside = mpc.build_reduced(config, state, scen, one_month, 0.0).program
        assert reduced.num_vars == 8 + s * (8 * n - 4)
        assert (reduced.num_rows, reduced.num_vars) == (inside.num_rows, inside.num_vars)
        assert np.array_equal(reduced.a_rows, inside.a_rows)
        assert np.array_equal(reduced.a_cols, inside.a_cols)
        prog = full_form.build(config, state, scen, spanning, 0.0).program
        assert prog.num_vars == 15 + s * (20 * n - 7)

    def test_paper_shape_layout(self):
        """N = 168 and S = 100 on the default plant, layout only."""
        lay = StackedLayout(168, 100, mpc._tower_binds(PlantConfig()))
        assert (lay.num_vars, lay.num_rows) == (134_008, 83_800)
        one = mpc._ReducedLayout(168, False)
        assert (one.num_vars, one.num_rows) == (1_348, 838)


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
        return fc.ScenarioSet(values)

    def test_single_scenario_identical_to_deterministic(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0, peak=200.0)
        n = 8
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(1, n)
        red_s = mpc.build_reduced(config, state, scen, timing, 0.0)
        red_d = mpc.build_reduced(
            config, state, DisturbanceTrajectory(scen.values[0]), timing,
            0.0,
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
        scen = fc.ScenarioSet(values)
        plan_s = solve_reduced(config, state, scen, timing, 0.0)
        plan_d = solve_reduced(
            config, state, DisturbanceTrajectory(values[0]), timing,
            0.0,
        )
        assert plan_s.objective == pytest.approx(plan_d.objective, rel=1e-8)

    def test_scenario_order_invariance(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 6
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=7)
        plan_a = solve_reduced(config, state, scen, timing, 0.0)
        perm = np.array([3, 1, 5, 0, 4, 2])
        scen_p = fc.ScenarioSet(scen.values[perm])
        plan_b = solve_reduced(config, state, scen_p, timing, 0.0)
        assert plan_a.objective == pytest.approx(plan_b.objective, rel=1e-9)
        a = mpc.extract_action(plan_a)
        b = mpc.extract_action(plan_b)
        assert np.allclose(a.as_array(), b.as_array(), atol=1e-5)

    def test_explicit_nonanticipativity_equivalent(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0, peak=100.0)
        n, s = 5, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=11)
        full = full_form.build(config, state, scen, timing, 0.0)
        shared_prog = full.program
        explicit_prog, copies = explicit_nonanticipativity(shared_prog, full.layout)
        assert explicit_prog.num_rows == shared_prog.num_rows + 7 * (s - 1)
        sol_shared = lp.solve(shared_prog)
        sol_explicit = lp.solve(explicit_prog)
        assert sol_shared.objective == pytest.approx(
            sol_explicit.objective, rel=1e-8
        )
        plan = solve_reduced(config, state, scen, timing, 0.0)
        assert plan.objective == pytest.approx(sol_shared.objective, rel=1e-8)
        x = sol_explicit.x
        first = full.layout.P[0, :, 0]
        assert np.allclose(x[copies[:, :7]], x[first], atol=1e-6)
        assert np.allclose(sol_shared.x[first], x[first], atol=1e-4)

    def test_recourse_value_nonnegative(self):
        # Fixing the deterministic first stage inside the stochastic LP can
        # never beat the stochastic optimum.
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 8
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=13, spread=15.0)
        full = full_form.build(config, state, scen, timing, 0.0)
        sol_s = lp.solve(full.program)

        mean_traj = DisturbanceTrajectory(scen.values.mean(axis=0))
        plan_d = solve_reduced(config, state, mean_traj, timing, 0.0)
        det_first = mpc.extract_action(plan_d).as_array()

        pinned = full.program
        cols = full.layout.P[0, :, 0]
        lower = pinned.lower.copy()
        upper = pinned.upper.copy()
        lower[cols] = det_first
        upper[cols] = det_first
        fixed = dataclasses.replace(pinned, lower=lower, upper=upper)
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
            plan = solve_reduced(config, state, traj, timing, 0.0)
            objectives.append(plan.objective)
        assert objectives == sorted(objectives)
        assert objectives[0] < objectives[-1]

    def test_solution_satisfies_plant_balances(self):
        config = PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0)
        n, s = 6, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=743)
        scen = self.make_scenarios(s, n, seed=17, spread=10.0)
        plan = solve_reduced(config, state, scen, timing, 0.0)
        from plantmpc.plant import ControlAction, Disturbance

        for xi in range(s):
            for k in range(n):
                action = ControlAction.from_array(plan.P[xi, :, k])
                slacks = tuple(plan.S[xi, :, k])
                dist = Disturbance(*scen.values[xi, :, k])
                res = balance_residuals(config, action, dist, slacks)
                assert max(abs(r) for r in res) <= 1e-6


#: Plants for the equivalence test, keyed by id, with whether their tower
#: limit can bind: the default plant, a smaller tower, and a plant whose
#: tower draws no electricity or water, with a less efficient heat-recovery
#: chiller and a larger condenser ratio (its tower can bind at 10 500 kW).
EQUIVALENCE_PLANTS = {
    False: (PlantConfig(), False),
    True: (PlantConfig(pmax_ct=6000.0), True),
    "zero_alphas": (PlantConfig(alpha_e_ct=0.0, alpha_w_ct=0.0,
                                alpha_h_hrc=0.8, alpha_cond_cs=1.35), True),
}


class TestReducedEquivalence:
    @pytest.mark.parametrize("spanning", [False, True])
    @pytest.mark.parametrize("plant", list(EQUIVALENCE_PLANTS))
    def test_matches_full_formulation(self, spanning, plant):
        config, binds = EQUIVALENCE_PLANTS[plant]
        assert mpc._tower_binds(config) == binds
        state = PlantState(
            e_cw=8000.0, e_hw=4000.0, ul_cw=2.0, ol_hw=1.0, peak=7000.0
        )
        n, s = 8, 5
        month_end = 4 if spanning else 743
        timing = mpc.HorizonTiming(t=0, n=n, month_end=month_end)
        assert timing.next_month.any() == spanning
        rng = np.random.default_rng(23)
        values = np.abs(
            np.array([[9000.0], [5000.0], [3000.0], [0.07]])
            + rng.normal(0, 300.0, (s, 4, n)) * [[1], [1], [1], [0.00001]]
        )
        scen = fc.ScenarioSet(values)

        full = full_form.build(config, state, scen, timing, 0.0)
        prog_full = full.program
        sol_full = lp.solve(prog_full)
        reduced = mpc.build_reduced(config, state, scen, timing, 0.0)
        reduced.program.validate()
        plan = reduced.expand(lp.solve(reduced.program))
        assert plan.objective == pytest.approx(sol_full.objective, rel=1e-9)
        x = full.vector(plan)
        assert prog_full.objective @ x == pytest.approx(plan.objective, rel=1e-9)

        # The decoded plan must satisfy every full-form constraint.
        a = matrix(prog_full)
        residual = a @ x - prog_full.rhs
        ineq = prog_full.row_sense == lp.LE
        assert np.abs(residual[~ineq]).max() <= 1e-6
        assert residual[ineq].max(initial=0.0) <= 1e-6
        assert np.all(x >= prog_full.lower - 1e-9)
        assert np.all(x <= prog_full.upper + 1e-9)


class TestWeightedProgram:
    """A scenario of probability m_i / M counts as m_i copies of it in the
    equally weighted program of M scenarios."""

    @staticmethod
    def case(spanning, plant, counts=(3, 1, 2), peak=7000.0):
        config, _ = EQUIVALENCE_PLANTS[plant]
        state = PlantState(e_cw=8000.0, e_hw=4000.0, ul_cw=2.0, ol_hw=1.0, peak=peak)
        n = 8
        timing = mpc.HorizonTiming(t=0, n=n, month_end=4 if spanning else 743)
        rng = np.random.default_rng(29)
        values = np.abs(np.array([[9000.0], [5000.0], [3000.0], [0.0]])
                        + rng.normal(0, 300.0, (len(counts), 4, n)))
        values[:, 3] = (0.07 + 0.03 * np.sin(np.arange(n))
                        + rng.normal(0, 0.01, (len(counts), n)))
        counts = np.array(counts)
        weighted = fc.ScenarioSet(values, counts / counts.sum())
        copies = fc.ScenarioSet(np.repeat(values, counts, axis=0))
        return config, state, timing, weighted, copies

    @pytest.mark.parametrize("peak", [7000.0, 20000.0])
    @pytest.mark.parametrize("spanning", [False, True])
    @pytest.mark.parametrize("plant", list(EQUIVALENCE_PLANTS))
    def test_equals_the_program_with_copies(self, spanning, plant, peak):
        """Same optimum; and the same hour-0 action where it is unique.
        While this month's register binds (a peak of 7 000 kW against draws
        near 9 000 kW), the hour-0 loads are degenerate, and HiGHS returns
        different optimal ones for the two programs.  Above every draw
        (20 000 kW) they are unique."""
        config, state, timing, weighted, copies = self.case(spanning, plant, peak=peak)
        plan, twin = (solve_reduced(config, state, data, timing, 0.0)
                      for data in (weighted, copies))
        assert plan.objective == pytest.approx(twin.objective, rel=1e-9)
        if peak > 9000.0:
            assert np.allclose(plan.P[0, :, 0], twin.P[0, :, 0], rtol=0.0, atol=1e-6)
            assert np.allclose(plan.E[0, :, 1], twin.E[0, :, 1], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("spanning", [False, True])
    @pytest.mark.parametrize("plant", list(EQUIVALENCE_PLANTS))
    def test_equals_the_weighted_extensive_form(self, spanning, plant):
        config, state, timing, weighted, _ = self.case(spanning, plant)
        full = full_form.build(config, state, weighted, timing, 0.0)
        plan = solve_reduced(config, state, weighted, timing, 0.0)
        assert plan.objective == pytest.approx(lp.solve(full.program).objective, rel=1e-9)
        assert full.program.objective @ full.vector(plan) == pytest.approx(
            plan.objective, rel=1e-9)

    def test_equal_probabilities_build_the_equal_weight_program(self):
        config, state, timing, weighted, _ = self.case(True, False, counts=(1, 1, 1))
        assert weighted.equally_weighted
        plain = fc.ScenarioSet(weighted.values)
        assert program_bytes(mpc.build_reduced(config, state, weighted, timing, 0.1)) \
            == program_bytes(mpc.build_reduced(config, state, plain, timing, 0.1))

    def test_mean_start_takes_the_weighted_mean(self):
        config, state, timing, weighted, _ = self.case(False, False)
        reduced = mpc.build_reduced(config, state, weighted, timing, 0.0)
        mean = DisturbanceTrajectory(
            np.tensordot(weighted.probabilities, weighted.values, 1))
        session = lp.HighsSession()
        solution = session.solve(mpc.build_reduced(config, state, mean, timing, 0.0).program)
        seed, basis = session.basis(), reduced.start()
        assert basis.iterations == solution.iterations
        template = reduced.template
        assert np.array_equal(basis.col, template.columns(seed.col))
        assert np.array_equal(basis.row, template.rows(seed.row))


def horizon_timing(kind: str, n: int) -> mpc.HorizonTiming:
    """A horizon of n steps inside a month, across its end (from n = 2 on)
    or on its closing hour."""
    t = 700
    month_end = {"in-month": 743, "spanning": t + (n - 1) // 2, "closing": t}[kind]
    return mpc.HorizonTiming(t=t, n=n, month_end=month_end)


@st.composite
def oracle_cases(draw):
    """Controller programs for the extensive-form oracle.

    The default plant or one whose tower limit binds; tanks empty, full or
    in between; S of 1 or 3 and the three horizon timings.  Loads are noisy
    around a typical hour, or the water loads are far above what the plant
    and its tanks can supply ("discharge": every tank discharges at hour 0
    as far as its rate limit and its storage box let it), or none for two
    steps and that surge after them ("charge": an empty tank charges at its
    rate limit at steps 0 and 1).
    """
    config = PlantConfig(pmax_ct=6000.0) if draw(st.booleans()) else PlantConfig()
    fill = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for _ in range(2)]
    state = PlantState(e_cw=fill[0] * config.cap_cw, e_hw=fill[1] * config.cap_hw,
                       ul_cw=3.0, ol_hw=2.0, peak=draw(st.sampled_from([0.0, 9000.0])))
    n, s = draw(st.integers(1, 6)), draw(st.sampled_from([1, 3]))
    timing = horizon_timing(draw(st.sampled_from(["in-month", "spanning", "closing"])), n)
    pattern = draw(st.sampled_from(["noise", "discharge", "charge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([9000.0, 5000.0, 3000.0, 0.07])[None, :, None] * (
        1.0 + rng.normal(0.0, 0.1, (s, 4, n)))
    if pattern != "noise":
        values[:, 1:3] = np.array([25000.0, 15000.0])[:, None]
    if pattern == "charge":
        values[:, 1:3, :2] = 0.0
    data = fc.ScenarioSet(values) if s > 1 else DisturbanceTrajectory(values[0])
    return config, state, data, timing, draw(st.sampled_from([0.0, 0.1])), pattern


class TestAgainstTheExtensiveForm:
    """The reduced program, solved as the controllers solve it, against the
    extensive form of ``tests/full_form.py``."""

    @settings(deadline=None, max_examples=60)
    @given(oracle_cases())
    def test_optimum_and_decoded_plan(self, case):
        *args, pattern = case
        config, state, _, _, beta = args
        full = full_form.build(*args)
        oracle = lp.solve(full.program)
        reduced = mpc.build_reduced(*args)
        reduced.program.validate()
        solution = lp.HighsSession().solve(reduced.program, start=reduced.start)
        assert oracle.is_optimal and solution.is_optimal
        plan = reduced.expand(solution)
        assert plan.objective == pytest.approx(oracle.objective, rel=1e-9)

        x = full.vector(plan)
        row_lower, row_upper = lp._row_sides(full.program)
        rows = matrix(full.program) @ x
        assert np.all(rows >= row_lower - 1e-6) and np.all(rows <= row_upper + 1e-6)
        assert np.all(x >= full.program.lower - 1e-6)
        assert np.all(x <= full.program.upper + 1e-6)
        assert np.all(plan.S >= 0.0)

        action = mpc.extract_action(plan)
        assert action.within_bounds(config)
        if pattern == "discharge":
            for j, (lo, _) in enumerate(mpc.storage_bounds(config, state, beta)):
                unit = STORAGE_UNITS[j]
                level = state.storage(unit)
                assert getattr(action, f"p_{unit}") == pytest.approx(
                    min(config.pmax(unit), level - lo), rel=1e-9, abs=1e-6)


class TestClosingHour:
    def test_step_zero_bills_the_closing_month(self):
        """On the closing hour step 0 goes on this month's register, held at
        the carried 12 000 kW, and steps 1.. on next month's.  Hour 0 then
        costs no demand charge below 12 000 kW, so the plan runs the chiller
        flat out and charges the tank for the next month's hours."""
        config = PlantConfig()
        state = PlantState(e_cw=10_000.0, e_hw=6_000.0, peak=12_000.0)
        n = 4
        timing = mpc.HorizonTiming(t=743, n=n, month_end=743)
        traj = trajectory([9000.0] * n, [5000.0] * n, [3000.0] * n, [0.06] * n)
        reduced = mpc.build_reduced(config, state, traj, timing, 0.1)
        lay = StackedLayout(n, 1, mpc._tower_binds(config))
        assert np.array_equal(reduced.program.lower[lay.R], [[12_000.0, 0.0]])
        plan = reduced.expand(lp.solve(reduced.program))
        assert plan.peaks[0, 0] == pytest.approx(12_000.0)
        assert plan.peaks[0, 1] < 12_000.0
        action = mpc.extract_action(plan)
        assert action.p_cs == pytest.approx(config.pmax_cs, rel=1e-9)
        assert action.p_cw < 0.0
        oracle = lp.solve(full_form.build(config, state, traj, timing, 0.1).program)
        assert plan.objective == pytest.approx(oracle.objective, rel=1e-9)


class TestBindingTower:
    def test_decoded_tower_load_meets_its_limit(self):
        """A tower rated below the condenser duty of chiller plus dump
        exchanger, under a chilled-water load the chiller alone could carry:
        the tower rows cap the substituted load, as the extensive form's ct
        column bound does."""
        config = PlantConfig(pmax_ct=5000.0)
        assert config.pmax_ct < config.alpha_cond_cs * config.pmax_cs + config.pmax_hx
        assert mpc._tower_binds(config)
        state = PlantState(e_cw=2000.0, e_hw=6000.0, peak=9000.0)
        n, s = 6, 3
        rng = np.random.default_rng(5)
        values = np.abs(
            np.array([[9000.0], [5500.0], [2500.0], [0.06]])
            + rng.normal(0, 300.0, (s, 4, n)) * [[1], [1], [1], [0.0001]]
        )
        scen = fc.ScenarioSet(values)
        reduced = mpc.build_reduced(config, state, scen, mpc.HorizonTiming(0, n, 743), 0.0)
        reduced.program.validate()
        plan = reduced.expand(lp.solve(reduced.program))
        p_ct = plan.P[:, 3]
        assert np.all(p_ct <= config.pmax_ct + 1e-6)
        assert np.isclose(p_ct, config.pmax_ct, rtol=0.0, atol=1e-6).any()
        assert np.allclose(
            p_ct, config.alpha_cond_cs * plan.P[:, 0] + plan.P[:, 4], rtol=0.0, atol=1e-9
        )
        full = full_form.build(config, state, scen, mpc.HorizonTiming(0, n, 743), 0.0)
        oracle = lp.solve(full.program)
        assert plan.objective == pytest.approx(oracle.objective, rel=1e-9)


class TestHorizonTiming:
    def test_spanning_example(self):
        timing = mpc.HorizonTiming(t=700, n=168, month_end=744)
        assert np.array_equal(timing.next_month, np.arange(168) > 44)

    def test_non_spanning_example(self):
        timing = mpc.HorizonTiming(t=10, n=168, month_end=744)
        assert not timing.next_month.any()

    def test_closing_hour_bills_later_steps_to_next_month(self):
        timing = mpc.HorizonTiming(t=744, n=168, month_end=744)
        assert np.array_equal(timing.next_month, np.arange(168) > 0)
        # Both registers are then priced at N times the demand price.
        assert timing.discount == pytest.approx(1.0 / 168)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mpc.HorizonTiming(t=10, n=0, month_end=100)
        with pytest.raises(ValueError):
            mpc.HorizonTiming(t=10, n=5, month_end=9)


class TestReducedLayout:
    CASES = pytest.mark.parametrize(
        "binds,spans", [(False, False), (False, True), (True, False), (True, True)]
    )

    @staticmethod
    def reduced(binds, spans, n=5, s=3):
        """The program of a plant whose tower limit can bind or not, for a
        horizon inside one month or across a month end."""
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        timing = mpc.HorizonTiming(t=0, n=n, month_end=2 if spans else 743)
        values = np.full((s, 4, n), 10.0)
        return mpc.build_reduced(
            config, PlantState(e_cw=0.0, e_hw=0.0),
            fc.ScenarioSet(values), timing, 0.0,
        )

    @staticmethod
    def stacked(binds, n=5, s=3):
        """The stacked layout of ``reduced``'s program."""
        return StackedLayout(n, s, binds)

    @staticmethod
    def recourse(lay):
        """Per-scenario columns that no other scenario uses, (s, k)."""
        parts = [lay.P[:, :, 1:], lay.O, lay.E[:, :, 2:], lay.R]
        return np.concatenate([p.reshape(lay.s, -1) for p in parts], axis=1)

    @CASES
    def test_columns_used_once_except_shared_first_stage(self, binds, spans):
        lay = self.stacked(binds)
        assert self.reduced(binds, spans).program.num_vars == lay.num_vars
        first = np.concatenate([lay.P[0, :, 0], lay.E[0, :, :2].ravel()])
        cols = np.concatenate([first, self.recourse(lay).ravel()])
        assert np.array_equal(np.sort(cols), np.arange(lay.num_vars))
        assert lay.P.shape[1] == 4 and lay.O.shape[1] == 2
        assert lay.num_rows == ((6 if binds else 5) * lay.n - 2) * lay.s

    @CASES
    def test_first_stage_shared_across_scenarios(self, binds, spans):
        lay = self.stacked(binds)
        assert np.all(lay.P[:, :, 0] == lay.P[0, :, 0])
        assert np.all(lay.E[:, :, :2] == lay.E[0, :, :2])

    @CASES
    def test_recourse_not_shared(self, binds, spans):
        lay = self.stacked(binds)
        rec = self.recourse(lay)
        assert np.unique(rec).size == rec.size

    @CASES
    def test_r2_own_column_only_when_spanning(self, binds, spans):
        """R2 has its own columns, after the last scenario block, in every
        program; only a horizon that spans a month end bills steps to it."""
        lay, prog = self.stacked(binds), self.reduced(binds, spans).program
        assert lay.R.shape == (lay.s, 2)
        assert np.array_equal(lay.R2, lay.num_vars - lay.s + np.arange(lay.s))
        billed = prog.a_cols[prog.a_vals != 0.0]
        assert np.isin(lay.R2, billed).all() == spans
        assert np.isin(lay.R1, billed).all()

    @pytest.mark.parametrize("binds", [False, True])
    def test_the_block_replicated_is_the_stacked_layout(self, binds):
        """Scenario xi's columns and rows are the block's, split back per
        scenario (``_ProgramTemplate.scenarios``) and offset by xi row
        blocks."""
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        template = mpc._program_template(config, 5, 3)
        lay, block = self.stacked(binds), template.layout
        assert (template.num_vars, template.num_rows) == (lay.num_vars, lay.num_rows)
        columns = template.scenarios(np.arange(template.num_vars))
        for full, one in ((lay.P, block.P), (lay.O, block.O), (lay.E, block.E),
                          (lay.R, block.R)):
            assert np.array_equal(columns[:, one], full)
        rows = np.arange(template.num_rows).reshape(3, -1)
        assert np.array_equal(rows, lay.rows)
        assert block.row_blocks == lay.row_blocks
        for name in block.row_blocks:
            assert np.array_equal(rows[:, block.row_block(name)], lay.row_block(name))


class TestMeanStart:
    """A multi-scenario program starts from the scenario-mean program's
    optimal basis, copied into every scenario block."""

    @staticmethod
    def scenarios(s, n, seed=4):
        rng = np.random.default_rng(seed)
        values = np.array([3000.0, 4000.0, 2000.0, 0.08])[None, :, None] * (
            1.0 + rng.normal(0.0, 0.1, (s, 4, n)))
        return fc.ScenarioSet(values)

    def test_one_scenario_has_no_start(self):
        config, state = PlantConfig(), PlantState(e_cw=5000.0, e_hw=3000.0)
        timing = mpc.HorizonTiming(t=0, n=6, month_end=743)
        one = self.scenarios(1, 6)
        for data in (one, DisturbanceTrajectory(one.values[0])):
            reduced = mpc.build_reduced(config, state, data, timing, 0.0)
            assert reduced.start is None
            assert reduced.shift is reduced.template.shift

    @TestReducedLayout.CASES
    def test_every_block_copies_the_mean_basis(self, binds, spans):
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        state = PlantState(e_cw=5000.0, e_hw=3000.0, peak=1000.0)
        n, s = 8, 4
        timing = mpc.HorizonTiming(t=0, n=n, month_end=3 if spans else 743)
        scen = self.scenarios(s, n)
        reduced = mpc.build_reduced(config, state, scen, timing, 0.1)
        mean = mpc.build_reduced(
            config, state, DisturbanceTrajectory(scen.values.mean(axis=0)),
            timing, 0.1)
        session = lp.HighsSession()
        solution = session.solve(mean.program)
        seed = session.basis()
        basis = reduced.start()
        assert basis.iterations == solution.iterations
        lay, one = StackedLayout(n, s, binds), StackedLayout(n, 1, binds)
        for full, single in ((lay.P, one.P), (lay.O, one.O), (lay.E, one.E),
                             (lay.R, one.R)):
            for xi in range(s):
                assert np.array_equal(basis.col[full[xi]], seed.col[single[0]])
        for xi in range(s):
            assert np.array_equal(basis.row[lay.rows[xi]], seed.row[one.rows[0]])

        started = lp.HighsSession().solve(reduced.program, start=reduced.start)
        slack = lp.HighsSession().solve(reduced.program)
        assert started.is_optimal and slack.is_optimal
        assert started.objective == pytest.approx(slack.objective, rel=1e-9)


class TestShift:
    """The one-step rotation from hour t's program to hour t + 1's: step 0
    keeps its places, each later step takes the place of its next step,
    and the last step that of step 1."""

    @staticmethod
    def expected(lay):
        """The rotation's maps, one column and one row at a time.  A
        column's later steps are those past step 0 that its scenario owns:
        the storage levels of step 1 are shared.  A tank's dynamics rows
        start at step 1, so all of them are later steps."""
        n = lay.n
        col = np.full(lay.num_vars, -1)
        row = np.full(lay.num_rows, -1)
        for xi in range(lay.s):
            for index, last in ((lay.P, n - 1), (lay.O, n - 1), (lay.E, n)):
                for c in range(index.shape[1]):
                    later = [k for k in range(1, last + 1)
                             if index[xi, c, k] >= lay.shared]
                    for k in range(last + 1):
                        col[index[xi, c, k]] = index[xi, c, k]
                    for k, after in zip(later, later[1:] + later[:1]):
                        col[index[xi, c, k]] = index[xi, c, after]
            for r in lay.R[xi]:
                col[r] = r
            for name in lay.row_blocks:
                block = lay.row_block(name)[xi]
                assert block.size == (n - 1 if name.startswith("e_dyn") else n)
                first = 0 if name.startswith("e_dyn") else 1
                row[block[:first]] = block[:first]
                later = list(range(first, block.size))
                for k, after in zip(later, later[1:] + later[:1]):
                    row[block[k]] = block[after]
        assert np.all(col >= 0) and np.all(row >= 0)
        return col, row

    @pytest.mark.parametrize("n", [1, 2, 24])
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("binds", [False, True])
    def test_maps_follow_the_steps(self, n, s, binds):
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        template = mpc._program_template(config, n, s)
        lay = StackedLayout(n, s, binds)
        shift = template.shift
        assert shift is template.shift
        col, row = self.expected(lay)
        assert shift.col.dtype == shift.row.dtype == np.int32
        assert not shift.col.flags.writeable and not shift.row.flags.writeable
        assert np.array_equal(shift.col, col)
        assert np.array_equal(shift.row, row)
        assert np.array_equal(lay.shift.col, col) and np.array_equal(lay.shift.row, row)
        # The shared hour-0 loads, the pins and the next-hour levels keep
        # their places.
        head = np.arange(lay.shared)
        assert np.array_equal(shift.col[head], head)
        if n > 2:
            # Every scenario's last steps take the places of its step 1.
            for xi in range(s):
                assert np.array_equal(shift.col[lay.P[xi, :, -1]], lay.P[xi, :, 1])
                assert np.array_equal(shift.col[lay.E[xi, :, -1]], lay.E[xi, :, 2])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 30), s=st.integers(1, 6), binds=st.booleans())
    def test_rotation_is_a_blockwise_permutation(self, n, s, binds):
        """The rotation is a permutation of the columns and of the rows;
        step 0 keeps its places and each later step of each scenario
        block takes its next step's place, the last step that of step 1;
        nothing moves between blocks; the registers keep their places."""
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        shift = mpc._program_template(config, n, s).shift
        lay = StackedLayout(n, s, binds)
        assert np.array_equal(np.sort(shift.col), np.arange(lay.num_vars))
        assert np.array_equal(np.sort(shift.row), np.arange(lay.num_rows))
        for quantity in (lay.P, lay.O, lay.E):
            for chain in quantity.reshape(-1, quantity.shape[2]):
                later = chain[1:][chain[1:] >= lay.shared]
                assert later.size == n - 1
                assert np.array_equal(shift.col[later[:-1]], later[1:])
                assert shift.col[later[-1]] == later[0]
                step0 = np.setdiff1d(chain, later)
                assert np.array_equal(shift.col[step0], step0)
        for name in lay.row_blocks:
            block = lay.row_block(name)
            later = block if name.startswith("e_dyn") else block[:, 1:]
            assert np.array_equal(shift.row[later[:, :-1]], later[:, 1:])
            assert np.array_equal(shift.row[later[:, -1]], later[:, 0])
            if not name.startswith("e_dyn"):
                assert np.array_equal(shift.row[block[:, 0]], block[:, 0])
        # Each column's scenario, -1 for the shared head, and each row's.
        owner = np.full(lay.num_vars, -1)
        for xi in range(s):
            owner[TestReducedLayout.recourse(lay)[xi]] = xi
        assert np.array_equal(owner[shift.col], owner)
        assert np.array_equal(shift.row // (lay.num_rows // s),
                              np.arange(lay.num_rows) // (lay.num_rows // s))
        assert np.array_equal(shift.col[lay.R], lay.R)

    def test_multi_scenario_programs_carry_their_layouts_shift(self):
        reduced = TestReducedLayout.reduced(False, True)
        assert reduced.shift is reduced.template.shift


def program_bytes(reduced):
    """The ten arrays and the offset of a built program, as bytes."""
    return arrays_bytes(reduced.program, reduced.offset)


def arrays_bytes(prog, offset):
    """The ten arrays of ``prog``, the derived ``a_cols`` among them, and
    ``offset``, as bytes."""
    return [
        (arr.dtype.str, arr.shape, arr.tobytes())
        for arr in (prog.objective, prog.lower, prog.upper, prog.row_sense,
                    prog.rhs, prog.rhs_lower, prog.a_rows, prog.a_cols,
                    prog.a_vals, prog.a_starts)
    ] + [repr(offset)]


class TestProgramTemplate:
    """``build_reduced`` writes each hour's data into a cached template; a
    program must not depend on what the cache held before."""

    @staticmethod
    def hours(n, s, month_end, count, binds=False):
        """Build arguments for ``count`` hours ending just past the month
        end, with tank levels, integrators, peaks and data that all move."""
        rng = np.random.default_rng(n * 100 + s)
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        out = []
        for t in range(month_end + 2 - count, month_end + 2):
            end = month_end if t <= month_end else month_end + 720
            values = rng.uniform(0.0, 6000.0, (s, 4, n))
            values[:, 3] = rng.uniform(0.02, 0.12, (s, n))
            data = (fc.ScenarioSet(values) if s > 1
                    else DisturbanceTrajectory(values[0]))
            state = PlantState(
                e_cw=float(rng.uniform(0, config.cap_cw)),
                e_hw=float(rng.uniform(0, config.cap_hw)),
                ul_cw=float(rng.uniform(0, 50)), ol_hw=float(rng.uniform(0, 50)),
                peak=float(rng.uniform(0, 9000)),
            )
            out.append((config, state, data, mpc.HorizonTiming(t, n, end),
                        float(rng.choice([0.0, 0.1]))))
        return out

    @staticmethod
    def cold(args):
        mpc._program_template.cache_clear()
        return program_bytes(mpc.build_reduced(*args))

    def test_month_end_loop_equals_cold_builds(self):
        # The horizon spans the month end from t = 14 on; t = 20 is the
        # closing hour and t = 21 the first hour of the next month.
        hours = self.hours(n=8, s=1, month_end=20, count=12)
        spans = [args[3].next_month.any() for args in hours]
        assert spans == [False] * 4 + [True] * 7 + [False]
        assert hours[-2][3].t == hours[-2][3].month_end
        warm = [program_bytes(mpc.build_reduced(*args)) for args in hours]
        assert warm == [self.cold(args) for args in hours]

    @pytest.mark.parametrize("binds", [False, True], ids=["free", "binding"])
    def test_switching_scenario_counts_equals_cold_builds(self, binds):
        one = self.hours(n=6, s=1, month_end=30, count=3, binds=binds)
        three = self.hours(n=6, s=3, month_end=30, count=3, binds=binds)
        sequence = [one[0], three[0], one[1], three[1], one[2], three[2]]
        warm = [program_bytes(mpc.build_reduced(*args)) for args in sequence]
        assert warm == [self.cold(args) for args in sequence]

    def test_mutating_a_program_leaves_the_next_unchanged(self):
        first, second = self.hours(n=6, s=3, month_end=4, count=2)
        expected = self.cold(second)
        prog = mpc.build_reduced(*first).program
        for arr in (prog.objective, prog.lower, prog.upper, prog.rhs, prog.a_vals):
            arr[:] = 12345.0
        assert program_bytes(mpc.build_reduced(*second)) == expected

    def test_shared_arrays_are_read_only(self):
        # Hours 4 and 5 of a month that ends at 4: the first horizon crosses
        # the month end, so its matrix values are a copy.  Hours 10 and 11 of
        # a month that ends at 20: neither crosses, and both share the
        # template's values.
        crossing = self.hours(n=6, s=3, month_end=4, count=2)
        in_month = self.hours(n=6, s=3, month_end=20, count=12)[:2]
        assert crossing[0][3].next_month.any()
        for first, second in (crossing, in_month):
            assert not second[3].next_month.any()
            a, b = (mpc.build_reduced(*args).program for args in (first, second))
            shared = ("row_sense", "a_rows", "a_starts")
            if first is in_month[0]:
                shared += ("a_vals",)
                template = mpc._program_template(first[0], 6, 3)
                assert a.a_vals is template.a_vals
            for name in shared:
                assert getattr(a, name) is getattr(b, name)
                assert not getattr(a, name).flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    getattr(a, name)[0] = 0
            for name in ("objective", "lower", "upper", "rhs", "rhs_lower", "a_vals"):
                if name not in shared:
                    assert getattr(a, name).flags.writeable
                    assert not np.shares_memory(getattr(a, name), getattr(b, name))


class TestReplicatedBlock:
    """The template keeps one scenario block and replicates it; every
    program equals the one assembled from all blocks' triplets
    (``triplet_template``) in value and dtype."""

    @pytest.mark.parametrize("crossing", [False, True], ids=["in_month", "crossing"])
    @pytest.mark.parametrize("binds", [False, True], ids=["free", "binding"])
    @pytest.mark.parametrize("n", [1, 2, 24])
    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_programs_equal_the_triplet_oracle(self, s, n, binds, crossing):
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        assert mpc._tower_binds(config) == binds
        rng = np.random.default_rng(1000 * s + n)
        values = rng.uniform(0.0, 6000.0, (s, 4, n))
        values[:, 3] = rng.uniform(0.02, 0.12, (s, n))
        data = fc.ScenarioSet(values) if s > 1 else DisturbanceTrajectory(values[0])
        state = PlantState(e_cw=float(rng.uniform(0, config.cap_cw)),
                           e_hw=float(rng.uniform(0, config.cap_hw)),
                           ul_cw=3.0, ol_hw=4.0, peak=float(rng.uniform(0, 9000)))
        # Crossing: the month ends mid-horizon, or, at N = 1, on this hour.
        timing = mpc.HorizonTiming(20, n, 20 + (n - 1) // 2 if crossing else 700)
        assert timing.next_month.any() == (crossing and n > 1)
        mpc._program_template.cache_clear()
        got = mpc.build_reduced(config, state, data, timing, 0.1)
        want = triplet_template.fill(config, state, values, timing, 0.1)
        assert program_bytes(got) == arrays_bytes(*want)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 6), s=st.integers(1, 5), binds=st.booleans(),
           dtype=st.sampled_from([np.float64, np.int8]), data=st.data())
    def test_scenarios_invert_columns(self, n, s, binds, dtype, data):
        """An array over one block's columns, replicated over the program's
        and split back per scenario, is that array in every scenario."""
        config = PlantConfig(pmax_ct=6000.0) if binds else PlantConfig()
        template = mpc._program_template(config, n, s)
        block = data.draw(hnp.arrays(dtype, template.layout.num_vars))
        program = template.columns(block)
        assert program.dtype == dtype and program.shape == (template.num_vars,)
        assert not np.shares_memory(program, block)
        per_scenario = template.scenarios(program)
        assert per_scenario.shape == (s, block.size)
        assert per_scenario.tobytes() == np.broadcast_to(block, (s, block.size)).tobytes()

    def test_template_keeps_one_block(self):
        """Besides the matrix values, no float array of the template is
        longer than one scenario block's columns or rows."""
        n, s = 24, 20
        template = mpc._ProgramTemplate(PlantConfig(), n, s)
        one = template.layout
        held = [(f"{name}.{inner}", arr)
                for name, value in vars(template).items()
                for inner, arr in ([("", value)] if isinstance(value, np.ndarray)
                                   else vars(value).items() if hasattr(value, "__dict__")
                                   else [])
                if isinstance(arr, np.ndarray)]
        floats = [(name, arr.size) for name, arr in held
                  if arr.dtype.kind == "f" and arr is not template.a_vals]
        assert floats
        assert all(size <= max(one.num_vars, one.num_rows) for _, size in floats), floats
