import numpy as np
import pytest

from plantmpc import lp

from oracles import random_box_lp, vertex_enumeration_optimum
from simplex import BOUND_TOL, ROW_TOL, LpBuilder, solve_simplex

#: The in-tree simplex oracle and the production HiGHS path.
SOLVERS = {"embedded": solve_simplex, "highs": lp.solve}


def simple_program():
    builder = LpBuilder()
    x = builder.add_variable(-np.inf, np.inf, 1.0)
    builder.add_row(lp.GE, 3.0, [x], [1.0])
    return builder.build()


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
class TestBasics:
    def test_single_bound(self, solve):
        sol = solve(simple_program())
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[0] == pytest.approx(3.0)

    def test_box_corner(self, solve):
        builder = LpBuilder()
        xy = builder.add_variables(2, 0.0, 1.0, -1.0)
        builder.add_row(lp.LE, 1.0, xy, [1.0, 1.0])
        sol = solve(builder.build())
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-1.0)

    def test_infeasible(self, solve):
        builder = LpBuilder()
        x = builder.add_variable(-np.inf, np.inf, 0.0)
        builder.add_row(lp.LE, 1.0, [x], [1.0])
        builder.add_row(lp.GE, 2.0, [x], [1.0])
        sol = solve(builder.build())
        assert sol.status == lp.INFEASIBLE

    def test_unbounded(self, solve):
        builder = LpBuilder()
        builder.add_variable(0.0, np.inf, -1.0)
        sol = solve(builder.build())
        assert sol.status == lp.UNBOUNDED


class TestAgainstVertexEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        optimal = 0
        for _ in range(120):
            prog = random_box_lp(rng)
            status, expected = vertex_enumeration_optimum(prog)
            for solve in SOLVERS.values():
                sol = solve(prog)
                assert sol.status == status
                if status == lp.OPTIMAL:
                    assert sol.objective == pytest.approx(
                        expected, rel=1e-6, abs=1e-6
                    )
            optimal += status == lp.OPTIMAL
        assert optimal > 40  # the generator must exercise the solver


class TestSolverProperties:
    """Each property is checked on both the simplex oracle and HiGHS."""

    def test_determinism(self):
        prog = random_box_lp(np.random.default_rng(7))
        for solve in SOLVERS.values():
            first = solve(prog)
            second = solve(prog)
            assert first.status == second.status
            if first.is_optimal:
                assert np.array_equal(first.x, second.x)
                assert first.objective == second.objective
                assert first.iterations == second.iterations

    def test_weak_duality_spot_check(self):
        for solve in SOLVERS.values():
            rng = np.random.default_rng(11)
            checked = 0
            while checked < 20:
                prog = random_box_lp(rng)
                sol = solve(prog)
                if not sol.is_optimal:
                    continue
                a = prog.matrix().toarray()
                samples = rng.uniform(
                    prog.lower, prog.upper, size=(400, prog.num_vars)
                )
                rows = samples @ a.T
                feasible = np.ones(len(samples), dtype=bool)
                for i in range(prog.num_rows):
                    if prog.row_sense[i] == lp.LE:
                        feasible &= rows[:, i] <= prog.rhs[i] + 1e-9
                    elif prog.row_sense[i] == lp.GE:
                        feasible &= rows[:, i] >= prog.rhs[i] - 1e-9
                    else:
                        feasible &= np.abs(rows[:, i] - prog.rhs[i]) <= 1e-9
                if feasible.any():
                    assert (samples[feasible] @ prog.objective).min() >= (
                        sol.objective - 1e-6
                    )
                    checked += 1

    def test_objective_scaling_keeps_argmin(self):
        builder = LpBuilder()
        xy = builder.add_variables(2, 0.0, 10.0, [1.0, 2.0])
        builder.add_row(lp.GE, 5.0, xy, [1.0, 1.0])
        prog = builder.build()
        prog_scaled = lp.LinearProgram(
            objective=prog.objective * 7.5,
            lower=prog.lower, upper=prog.upper,
            row_sense=prog.row_sense, rhs=prog.rhs,
            a_rows=prog.a_rows, a_cols=prog.a_cols, a_vals=prog.a_vals,
        )
        for solve in SOLVERS.values():
            base = solve(prog)
            scaled = solve(prog_scaled)
            assert np.allclose(base.x, scaled.x, atol=1e-9)

    def test_iteration_limit_status(self):
        rng = np.random.default_rng(5)
        prog = random_box_lp(rng)
        sol = solve_simplex(prog, max_iters=1)
        assert sol.status in (lp.ITERATION_LIMIT, lp.OPTIMAL, lp.INFEASIBLE)

    def test_bound_and_row_feasibility_of_solutions(self):
        for solve in SOLVERS.values():
            rng = np.random.default_rng(99)
            for _ in range(40):
                prog = random_box_lp(rng)
                sol = solve(prog)
                if not sol.is_optimal:
                    continue
                assert np.all(sol.x >= prog.lower - BOUND_TOL)
                assert np.all(sol.x <= prog.upper + BOUND_TOL)
                rows = prog.matrix() @ sol.x
                scale = ROW_TOL * (1.0 + np.abs(prog.rhs).max(initial=0.0))
                for i in range(prog.num_rows):
                    if prog.row_sense[i] == lp.LE:
                        assert rows[i] <= prog.rhs[i] + scale
                    elif prog.row_sense[i] == lp.GE:
                        assert rows[i] >= prog.rhs[i] - scale
                    else:
                        assert abs(rows[i] - prog.rhs[i]) <= scale


class TestValidation:
    def test_duplicate_entries_rejected(self):
        builder = LpBuilder()
        x = builder.add_variable(0.0, 1.0, 1.0)
        row = builder.add_row(lp.LE, 1.0)
        builder.add_entries([row, row], [x, x], [1.0, 2.0])
        with pytest.raises(ValueError, match="duplicate"):
            builder.build(validate=True)

    def test_non_finite_rejected(self):
        builder = LpBuilder()
        x = builder.add_variable(0.0, 1.0, np.nan)
        with pytest.raises(ValueError):
            builder.build(validate=True)

    def test_out_of_range_rejected(self):
        builder = LpBuilder()
        x = builder.add_variable(0.0, 1.0, 1.0)
        builder.add_row(lp.LE, 1.0, [x + 5], [1.0])
        with pytest.raises(ValueError):
            builder.build(validate=True)

    def test_crossed_bounds_rejected(self):
        builder = LpBuilder()
        builder.add_variable(2.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="crossed"):
            builder.build(validate=True)


class TestHighsSession:
    def test_warm_chain_matches_one_shot(self):
        rng = np.random.default_rng(21)
        session = lp.HighsSession()
        builder = LpBuilder()
        x = builder.add_variables(4, 0.0, 10.0, [1.0, 2.0, 3.0, 4.0])
        builder.add_row(lp.GE, 8.0, x, [1.0, 1.0, 1.0, 1.0])
        base = builder.build()
        for _ in range(6):
            prog = lp.LinearProgram(
                objective=base.objective + rng.uniform(0, 1, 4),
                lower=base.lower,
                upper=base.upper + rng.uniform(0, 2, 4),
                row_sense=base.row_sense,
                rhs=base.rhs + rng.uniform(-1, 1),
                a_rows=base.a_rows, a_cols=base.a_cols, a_vals=base.a_vals,
            )
            warm = session.solve(prog)
            cold = solve_simplex(prog)
            assert warm.status == cold.status == lp.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-8)

    def test_dimension_change_falls_back_cold(self):
        session = lp.HighsSession()
        session.solve(simple_program())
        builder = LpBuilder()
        xy = builder.add_variables(2, 0.0, 1.0, -1.0)
        builder.add_row(lp.LE, 1.0, xy, [1.0, 1.0])
        sol = session.solve(builder.build())
        assert sol.objective == pytest.approx(-1.0)

    def test_coefficient_patch_path(self):
        session = lp.HighsSession()
        builder = LpBuilder()
        x = builder.add_variables(2, 0.0, 10.0, [1.0, 1.0])
        builder.add_row(lp.GE, 4.0, x, [1.0, 2.0])
        prog = builder.build()
        first = session.solve(prog)
        assert first.objective == pytest.approx(2.0)  # x2 = 2 via coeff 2
        patched = lp.LinearProgram(
            objective=prog.objective, lower=prog.lower, upper=prog.upper,
            row_sense=prog.row_sense, rhs=prog.rhs,
            a_rows=prog.a_rows, a_cols=prog.a_cols,
            a_vals=np.array([1.0, 4.0]),
        )
        warm = session.solve(patched)
        cold = solve_simplex(patched)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
