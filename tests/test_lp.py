import dataclasses

import numpy as np
import pytest

from plantmpc import forecast as fc, lp, mpc, restoration
from plantmpc.plant import (
    ControlAction,
    PlantConfig,
    PlantState,
    balance_matrix,
    balance_residuals,
)

from oracles import csc_pattern, random_box_lp, vertex_enumeration_optimum
from simplex import BOUND_TOL, ROW_TOL, LpBuilder, solve_simplex
from test_restoration import random_cases

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
        prog_scaled = dataclasses.replace(prog, objective=prog.objective * 7.5)
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


def two_sided(prog, rng):
    """``prog`` with about half its rows two-sided, each reaching down from
    its right-hand side by up to 3."""
    ranged = rng.random(prog.num_rows) < 0.5
    return dataclasses.replace(
        prog, row_sense=np.where(ranged, lp.RANGE, prog.row_sense).astype(np.int8),
        rhs_lower=prog.rhs - rng.uniform(0.0, 3.0, prog.num_rows))


def split(prog):
    """``prog`` with each two-sided row as a ``<=`` row and a ``>=`` row."""
    ranged = np.flatnonzero(prog.row_sense == lp.RANGE)
    extra = prog.num_rows + np.arange(ranged.size)
    copied = np.isin(prog.a_rows, ranged)
    position = np.zeros(prog.num_rows, dtype=np.int64)
    position[ranged] = extra
    matrix = lp.column_major(
        np.concatenate([prog.a_rows, position[prog.a_rows[copied]]]),
        np.concatenate([prog.a_cols, prog.a_cols[copied]]),
        np.concatenate([prog.a_vals, prog.a_vals[copied]]), prog.num_vars)
    sense = np.where(prog.row_sense == lp.RANGE, lp.LE, prog.row_sense)
    return dataclasses.replace(
        prog, row_sense=np.concatenate([sense, np.full(ranged.size, lp.GE)]).astype(np.int8),
        rhs=np.concatenate([prog.rhs, prog.rhs_lower[ranged]]), rhs_lower=None, **matrix)


class TestTwoSidedRows:
    """A ``RANGE`` row lies between ``rhs_lower`` and ``rhs``."""

    def test_validate_rejects_crossed_and_missing_sides(self):
        prog = dataclasses.replace(simple_program(), row_sense=np.array([lp.RANGE], np.int8))
        with pytest.raises(ValueError, match="lower side"):
            prog.validate()
        dataclasses.replace(prog, rhs_lower=np.array([3.0])).validate()
        with pytest.raises(ValueError, match="crossed row sides"):
            dataclasses.replace(prog, rhs_lower=np.array([3.5])).validate()

    def test_solvers_agree_with_the_split_rows(self):
        rng = np.random.default_rng(31)
        optimal = 0
        for _ in range(120):
            prog = two_sided(random_box_lp(rng), rng)
            prog.validate()
            oracle = solve_simplex(split(prog))
            for solve in (solve_simplex, lp.solve, lp.HighsSession().solve):
                sol = solve(prog)
                assert sol.status == oracle.status
                if oracle.is_optimal:
                    assert sol.objective == pytest.approx(oracle.objective, rel=1e-6, abs=1e-6)
                    rows = prog.matrix() @ sol.x
                    row_lower, row_upper = lp._row_sides(prog)
                    assert np.all(rows >= row_lower - 1e-6)
                    assert np.all(rows <= row_upper + 1e-6)
            optimal += oracle.is_optimal
        assert optimal > 40

    def test_restarts_at_the_lower_side(self):
        """min x + 2y over 1 <= x + y <= 3: the row ends nonbasic at its
        lower side, ``basis`` says so, and both warm restarts take no
        iteration."""
        builder = LpBuilder()
        xy = builder.add_variables(2, 0.0, 10.0, [1.0, 2.0])
        builder.add_row(lp.LE, 3.0, xy, [1.0, 1.0])
        prog = dataclasses.replace(builder.build(), row_sense=np.array([lp.RANGE], np.int8),
                                   rhs_lower=np.array([1.0]))
        session = lp.HighsSession()
        assert session.solve(prog).objective == pytest.approx(1.0)
        assert session.basis().row[0] == 0
        assert status_codes(session._h.getBasis()).row[0] == 0
        assert session.solve(prog).iterations == 0
        identity = lp.Shift(np.arange(2, dtype=np.int32), np.arange(1, dtype=np.int32))
        assert session.solve(prog, shift=identity).iterations == 0
        assert session.basis().row[0] == 0


class TestLoad:
    def test_loaded_program_reads_back_exactly(self):
        matrix = lp.column_major(
            [2, 0, 1, 0, 2, 1], [0, 1, 2, 0, 2, 0], [5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 3)
        prog = lp.LinearProgram(
            objective=np.array([1.0, -2.0, 0.5]),
            lower=np.array([-np.inf, 0.0, -1.0]),
            upper=np.array([np.inf, 4.0, np.inf]),
            row_sense=np.array([lp.LE, lp.EQ, lp.GE], dtype=np.int8),
            rhs=np.array([3.0, -1.0, 2.0]),
            **matrix,
        )
        prog.validate()
        h = lp._highs()
        lp._pass_model(h, prog)

        model = h.getLp()
        assert (model.num_col_, model.num_row_) == (3, 3)
        assert np.array_equal(model.col_cost_, prog.objective)
        assert np.array_equal(model.col_lower_, prog.lower)
        assert np.array_equal(model.col_upper_, prog.upper)
        assert np.array_equal(model.row_lower_, [-np.inf, -1.0, 2.0])
        assert np.array_equal(model.row_upper_, [3.0, -1.0, np.inf])
        csc = prog.matrix().tocsc()
        csc.sort_indices()
        assert model.a_matrix_.format_ == lp._highs_core.MatrixFormat.kColwise
        assert np.array_equal(model.a_matrix_.start_, csc.indptr)
        assert np.array_equal(model.a_matrix_.index_, csc.indices)
        assert np.array_equal(model.a_matrix_.value_, csc.data)


class TestHighsSession:
    def test_warm_chain_matches_one_shot(self):
        rng = np.random.default_rng(21)
        session = lp.HighsSession()
        builder = LpBuilder()
        x = builder.add_variables(4, 0.0, 10.0, [1.0, 2.0, 3.0, 4.0])
        builder.add_row(lp.GE, 8.0, x, [1.0, 1.0, 1.0, 1.0])
        base = builder.build()
        for _ in range(6):
            prog = dataclasses.replace(
                base,
                objective=base.objective + rng.uniform(0, 1, 4),
                upper=base.upper + rng.uniform(0, 2, 4),
                rhs=base.rhs + rng.uniform(-1, 1),
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
        patched = dataclasses.replace(prog, a_vals=np.array([1.0, 4.0]))
        warm = session.solve(patched)
        cold = solve_simplex(patched)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_receding_horizon_chain_across_a_month_end(self):
        """Smoke-scale stochastic programs, hour by hour, on one session.

        The horizon spans the month end from t = 18 through the closing
        hour t = 40.  Every program has one shape and one pattern; while
        the horizon spans, the peak split moves matrix values under it.
        Hour 30 gets an infeasible program of the same shape.  Each program
        is also solved cold, with presolve, as the reference.
        """
        config = PlantConfig()
        n, s, month_end, infeasible_at = 24, 3, 40, 30
        base = fc.generate_synthetic_campus(5, 4).values
        rng = np.random.default_rng(8)
        e = 0.5 * np.array([config.cap_cw, config.cap_hw])
        session = lp.HighsSession()
        warm_iterations = cold_iterations = 0
        previous = None
        shape_changes = value_changes = 0
        for t in range(10, 46):
            end = month_end if t <= month_end else month_end + 720
            values = base[:, t:t + n] * (1.0 + rng.normal(0.0, 0.05, (s, 4, n)))
            values[:, :3] = np.maximum(values[:, :3], 0.0)
            reduced = mpc.build_reduced(
                config, PlantState(e_cw=e[0], e_hw=e[1], peak=9000.0),
                fc.ScenarioSet(values),
                mpc.HorizonTiming(t, n, end), 0.0,
            )
            prog = reduced.program
            if previous is not None:
                if not (prog.num_rows == previous.num_rows
                        and prog.num_vars == previous.num_vars
                        and np.array_equal(prog.a_rows, previous.a_rows)
                        and np.array_equal(prog.a_cols, previous.a_cols)):
                    shape_changes += 1
                elif not np.array_equal(prog.a_vals, previous.a_vals):
                    value_changes += 1
            previous = prog
            if t == infeasible_at:
                zero = np.zeros(prog.num_vars)
                prog = dataclasses.replace(prog, lower=zero, upper=zero)
                assert session.solve(prog).status == lp.INFEASIBLE
                assert lp.solve(prog).status == lp.INFEASIBLE
                continue
            warm = session.solve(prog)
            cold = lp.solve(prog)
            assert warm.is_optimal and cold.is_optimal
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            warm_iterations += warm.iterations
            cold_iterations += cold.iterations
            e = reduced.expand(cold).E[0, :, 1]
        assert shape_changes == 0
        assert value_changes >= 10
        # Without the saved basis the warm runs start from the slack basis
        # and take about as many iterations as the cold ones.
        assert warm_iterations < 0.5 * cold_iterations


def receding_chain(session, peak_at=lambda t: 9000.0, tied=False, s=3,
                   shifted=False):
    """Smoke-scale stochastic programs (N = 24), hour by hour, on ``session``.

    The horizon spans the month end at t = 40 from t = 18 on.  ``peak_at``
    gives this month's register lower bound of hour t; ``tied`` makes the
    ``s`` scenarios identical.  Yields each program with its solution on
    ``session`` (given the program's one-step shift when ``shifted``), the
    number of times that solve loaded a model (two when a warm run fell
    back cold), and the program's cold solution, whose storage levels start
    the next hour.
    """
    config = PlantConfig()
    n, month_end = 24, 40
    base = fc.generate_synthetic_campus(5, 4).values
    rng = np.random.default_rng(8)
    e = 0.5 * np.array([config.cap_cw, config.cap_hw])
    for t in range(10, 34):
        noise = rng.normal(0.0, 0.05, (1 if tied else s, 4, n))
        values = np.broadcast_to(base[:, t:t + n] * (1.0 + noise), (s, 4, n)).copy()
        values[:, :3] = np.maximum(values[:, :3], 0.0)
        reduced = mpc.build_reduced(
            config, PlantState(e_cw=e[0], e_hw=e[1], peak=peak_at(t)),
            fc.ScenarioSet(values),
            mpc.HorizonTiming(t, n, month_end), 0.0,
        )
        prog = reduced.program
        loads = []
        original = lp._pass_model
        lp._pass_model = lambda *args: (loads.append(1), original(*args))
        try:
            solution = session.solve(prog, shift=reduced.shift if shifted else None)
        finally:
            lp._pass_model = original
        cold = lp.solve(prog)
        yield prog, solution, len(loads), cold
        e = reduced.expand(cold).E[0, :, 1]


#: The degenerate receding chains that both warm-restart paths must solve.
DEGENERATE_CHAINS = pytest.mark.parametrize("case", [
    dict(tied=True),
    # This month's register bound ratchets above the planned peak twice.
    dict(peak_at=lambda t: 9000.0 if t < 20 else 11000.0 if t < 26 else 12500.0),
    dict(tied=True, peak_at=lambda t: 9000.0 if t < 20 else 16000.0),
], ids=["tied", "ratchet", "tied-ratchet"])


class TestWarmRestartOptions:
    """A session runs every program, cold or warm, without presolve and
    cost perturbation; ``lp.solve`` keeps HiGHS's defaults."""

    @DEGENERATE_CHAINS
    def test_degenerate_warm_restarts_terminate_optimal(self, case):
        # Each warm restart ends optimal without a cold fallback, feasible
        # to HiGHS's primal tolerance, and no worse than the cold solve by
        # 1e-9 relative.  It may end lower: in the ratchet chain at hour 11
        # the cold solve stops 2.0e-9 relative above the warm objective,
        # which a cold solve at 1e-10 primal and dual tolerances reproduces.
        session = lp.HighsSession()
        for hour, (prog, warm, loads, cold) in enumerate(
                receding_chain(session, **case)):
            assert warm.is_optimal and cold.is_optimal, hour
            assert loads == 1, hour
            row_lower, row_upper = lp._row_sides(prog)
            rows = prog.matrix() @ warm.x
            assert np.all(rows >= row_lower - 1e-7), hour
            assert np.all(rows <= row_upper + 1e-7), hour
            assert warm.objective <= cold.objective + 1e-9 * abs(cold.objective), hour

    def test_no_option_leaks_into_cold_solves(self):
        session = lp.HighsSession()
        programs = [prog for prog, *_ in receding_chain(session)]
        for prog in programs[-3:]:
            reused, fresh = lp.solve(prog, session), lp.solve(prog)
            assert reused.is_optimal and fresh.is_optimal
            assert reused.iterations == fresh.iterations
            assert reused.objective == fresh.objective
            assert reused.x.tobytes() == fresh.x.tobytes()


class TestSessionAgreesWithOneShot:
    """A fresh session's cold solve, without presolve and cost
    perturbation, agrees with ``lp.solve`` on status and objective, and
    its solution is feasible; among alternate optima it may return
    another vertex."""

    @staticmethod
    def assert_agrees(prog):
        cold, one_shot = lp.HighsSession().solve(prog), lp.solve(prog)
        assert cold.status == one_shot.status
        if not cold.is_optimal:
            return cold
        assert cold.objective == pytest.approx(one_shot.objective, rel=1e-9)
        assert np.all(cold.x >= prog.lower - 1e-7)
        assert np.all(cold.x <= prog.upper + 1e-7)
        row_lower, row_upper = lp._row_sides(prog)
        rows = prog.matrix() @ cold.x
        assert np.all(rows >= row_lower - 1e-7)
        assert np.all(rows <= row_upper + 1e-7)
        return cold

    def test_random_box_programs(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            self.assert_agrees(random_box_lp(rng))

    def test_correction_programs(self):
        config = PlantConfig()
        for cfg, state, action, realized in random_cases(
                np.random.default_rng(11), config, 100):
            residuals = balance_residuals(cfg, action, realized)
            self.assert_agrees(
                restoration._correction_program(cfg, state, action, residuals))

    def test_receding_chain_programs(self):
        for prog, *_ in receding_chain(lp.HighsSession()):
            self.assert_agrees(prog)

    def test_infeasible_and_unbounded(self):
        builder = LpBuilder()
        x = builder.add_variable(-np.inf, np.inf, 0.0)
        builder.add_row(lp.LE, 1.0, [x], [1.0])
        builder.add_row(lp.GE, 2.0, [x], [1.0])
        infeasible = builder.build()
        builder = LpBuilder()
        builder.add_variable(0.0, np.inf, -1.0)
        unbounded = builder.build()
        assert self.assert_agrees(infeasible).status == lp.INFEASIBLE
        assert self.assert_agrees(unbounded).status == lp.UNBOUNDED


class TestStart:
    """A session's cold run starts from the caller's basis when given one,
    and from the slack basis when that run ends non-optimal."""

    @staticmethod
    def counted(basis):
        calls = []

        def start():
            calls.append(None)
            return basis

        return start, calls

    def test_binding_accepts_alien_bases(self):
        # HiGHS 1.12 constructs a basis as alien; ``Basis.alien`` still
        # sets the flag, so it does not depend on that default.
        basis = lp._highs_core.HighsBasis()
        for flag in (False, True):
            basis.alien = flag
            assert basis.alien is flag

    @pytest.mark.parametrize("codes", ["random", "basic"])
    def test_random_box_programs_agree_with_the_slack_start(self, codes):
        rng = np.random.default_rng(7)
        for _ in range(120):
            prog = random_box_lp(rng)
            if codes == "random":
                basis = lp.Basis(rng.integers(0, 3, prog.num_vars).astype(np.int8),
                                 rng.integers(0, 3, prog.num_rows).astype(np.int8))
            else:
                basis = lp.Basis(np.ones(prog.num_vars, np.int8),
                                 np.ones(prog.num_rows, np.int8))
            start, calls = self.counted(basis)
            started = lp.HighsSession().solve(prog, start=start)
            slack = lp.HighsSession().solve(prog)
            assert len(calls) == 1
            assert started.status == slack.status
            if slack.is_optimal:
                assert started.objective == pytest.approx(slack.objective, rel=1e-9)

    def test_found_iterations_count_into_the_solution(self):
        prog = simple_program()
        first = lp.HighsSession()
        solution = first.solve(prog)
        found = first.basis()
        found.iterations = 1000
        started = lp.HighsSession().solve(prog, start=lambda: found)
        assert started.objective == solution.objective
        assert started.iterations == 1000

    def test_never_called_on_a_warm_restart(self):
        rng = np.random.default_rng(21)
        builder = LpBuilder()
        x = builder.add_variables(4, 0.0, 10.0, [1.0, 2.0, 3.0, 4.0])
        builder.add_row(lp.GE, 8.0, x, [1.0, 1.0, 1.0, 1.0])
        base = builder.build()
        session = lp.HighsSession()
        start, calls = self.counted(None)
        for _ in range(6):
            prog = dataclasses.replace(
                base, objective=base.objective + rng.uniform(0, 1, 4),
                upper=base.upper + rng.uniform(0, 2, 4),
                rhs=base.rhs + rng.uniform(-1, 1),
            )
            assert session.solve(prog, start=start).is_optimal
        assert len(calls) == 1
        session.solve(simple_program(), start=start)
        assert len(calls) == 2

    def test_non_optimal_start_falls_back_to_the_slack_basis(self, monkeypatch):
        # The run from the start is cut at zero iterations, so the session
        # must load the program again and solve it from the slack basis.
        prog = next(receding_chain(lp.HighsSession()))[0]
        start, calls = self.counted(
            lp.Basis(np.ones(prog.num_vars, np.int8),
                     np.ones(prog.num_rows, np.int8), iterations=50))
        original, loads = lp._pass_model, []

        def limited(h, *args):
            loads.append(None)
            limit = 0 if len(loads) == 1 else 2**31 - 1
            h.setOptionValue("simplex_iteration_limit", limit)
            original(h, *args)

        monkeypatch.setattr(lp, "_pass_model", limited)
        started = lp.HighsSession().solve(prog, start=start)
        monkeypatch.setattr(lp, "_pass_model", original)
        slack = lp.HighsSession().solve(prog)
        assert len(calls) == 1 and len(loads) == 2
        assert started.is_optimal
        assert started.iterations == slack.iterations
        assert started.x.tobytes() == slack.x.tobytes()

    def test_no_basis_runs_from_the_slack_basis(self):
        prog = next(receding_chain(lp.HighsSession()))[0]
        start, calls = self.counted(None)
        started = lp.HighsSession().solve(prog, start=start)
        slack = lp.HighsSession().solve(prog)
        assert len(calls) == 1
        assert started.iterations == slack.iterations
        assert started.x.tobytes() == slack.x.tobytes()


def status_codes(basis) -> lp.Basis:
    """A binding ``HighsBasis`` as status codes, element by element."""
    return lp.Basis(np.array([int(c) for c in basis.col_status], np.int8),
                    np.array([int(r) for r in basis.row_status], np.int8))


class TestShiftedRestart:
    """A warm restart given a shift starts from the last optimal basis moved
    one step, as an alien basis; a run from it that ends non-optimal falls
    back to the caller's start, then to the slack basis."""

    @DEGENERATE_CHAINS
    def test_receding_chains_reach_the_one_shot_objective(self, case):
        session = lp.HighsSession()
        for hour, (prog, warm, loads, cold) in enumerate(
                receding_chain(session, shifted=True, **case)):
            assert warm.is_optimal and cold.is_optimal, hour
            assert loads == 1, hour
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9), hour

    @staticmethod
    def assert_reads_get_basis(session, prog):
        # Nonbasic fixed columns and equality rows may sit at either side;
        # HiGHS does not move them, so only their nonbasic status matters.
        read, full = session.basis(), status_codes(session._h.getBasis())
        fixed = prog.lower == prog.upper
        assert np.array_equal(read.col == 1, full.col == 1)
        assert np.array_equal(read.col[~fixed], full.col[~fixed])
        equality = prog.row_sense == lp.EQ
        assert np.array_equal(read.row == 1, full.row == 1)
        assert np.array_equal(read.row[~equality], full.row[~equality])

    def test_basis_reads_what_get_basis_reads(self):
        session = lp.HighsSession()
        for prog, *_ in receding_chain(session, shifted=True):
            self.assert_reads_get_basis(session, prog)

    def test_basis_reads_one_sided_and_free_columns(self):
        rng = np.random.default_rng(11)
        optimal = 0
        for _ in range(200):
            box = random_box_lp(rng)
            kinds = rng.integers(0, 4, box.num_vars)  # boxed, >=, <=, free
            lower = np.where(np.isin(kinds, (2, 3)), -np.inf, box.lower)
            upper = np.where(np.isin(kinds, (1, 3)), np.inf, box.upper)
            prog = dataclasses.replace(box, lower=lower, upper=upper)
            session = lp.HighsSession()
            if session.solve(prog).is_optimal:
                optimal += 1
                self.assert_reads_get_basis(session, prog)
        assert optimal > 50
        # A free column in no row and at no cost stays nonbasic at zero.
        builder = LpBuilder()
        builder.add_variable(-np.inf, np.inf, 0.0)
        y = builder.add_variable(0.0, 1.0, 1.0)
        builder.add_row(lp.GE, 0.5, [y], [1.0])
        prog, session = builder.build(), lp.HighsSession()
        assert session.solve(prog).is_optimal
        assert session.basis().col[0] == 3
        self.assert_reads_get_basis(session, prog)

    def test_basis_needs_an_optimal_run(self):
        session = lp.HighsSession()
        with pytest.raises(ValueError, match="optimal"):
            session.basis()
        builder = LpBuilder()
        x = builder.add_variable(0.0, 1.0, 1.0)
        builder.add_row(lp.GE, 3.0, [x], [1.0])
        assert session.solve(builder.build()).status == lp.INFEASIBLE
        with pytest.raises(ValueError, match="optimal"):
            session.basis()

    def test_one_shot_run_leaves_no_basis(self):
        prog = next(receding_chain(lp.HighsSession()))[0]
        session = lp.HighsSession()
        assert lp.solve(prog, session).is_optimal
        with pytest.raises(ValueError, match="optimal"):
            session.basis()
        again, cold = session.solve(prog), lp.HighsSession().solve(prog)
        assert again.iterations == cold.iterations > 0

    @pytest.mark.parametrize("start_fails", [False, True])
    def test_non_optimal_shifted_run_falls_back(self, start_fails, monkeypatch):
        # The shifted run, and the run from the start when ``start_fails``,
        # are cut at zero iterations.
        chain = receding_chain(lp.HighsSession())
        first, second = (next(chain)[0] for _ in range(2))
        shift = mpc._reduced_layout(24, 3, mpc._tower_binds(PlantConfig())).shift
        basis = lp.Basis(np.ones(second.num_vars, np.int8),
                         np.ones(second.num_rows, np.int8), iterations=50)
        session = lp.HighsSession()
        assert session.solve(first).is_optimal
        start, calls = TestStart.counted(basis)
        original, loads = lp._pass_model, []

        def limited(h, *args):
            loads.append(None)
            cut = len(loads) == 1 or (start_fails and len(loads) == 2)
            h.setOptionValue("simplex_iteration_limit", 0 if cut else 2**31 - 1)
            original(h, *args)

        monkeypatch.setattr(lp, "_pass_model", limited)
        solution = session.solve(second, start=start, shift=shift)
        monkeypatch.setattr(lp, "_pass_model", original)
        if start_fails:
            want = lp.HighsSession().solve(second)
        else:
            want = lp.HighsSession().solve(second, start=lambda: basis)
        assert len(calls) == 1 and len(loads) == (3 if start_fails else 2)
        assert solution.is_optimal
        assert solution.iterations == want.iterations
        assert solution.x.tobytes() == want.x.tobytes()

    def test_restart_sets_the_last_basis_moved(self):
        chain = receding_chain(lp.HighsSession())
        first, second = (next(chain)[0] for _ in range(2))
        shift = mpc._reduced_layout(24, 3, mpc._tower_binds(PlantConfig())).shift
        session = lp.HighsSession()
        session.solve(first)
        last = session.basis()
        moved = last.shifted(shift)
        assert not np.array_equal(moved.col, last.col)
        set_bases = []

        class Recording:
            def __init__(self, h):
                self.h = h

            def __getattr__(self, name):
                return getattr(self.h, name)

            def setBasis(self, basis):
                set_bases.append(basis)
                return self.h.setBasis(basis)

        session._h = Recording(session._h)
        assert session.solve(second, shift=shift).is_optimal
        assert len(set_bases) == 1 and set_bases[0].alien
        assert np.array_equal(status_codes(set_bases[0]).col, moved.col)
        assert np.array_equal(status_codes(set_bases[0]).row, moved.row)

    def test_shift_is_ignored_without_a_warm_basis(self):
        prog = next(receding_chain(lp.HighsSession()))[0]
        shift = mpc._reduced_layout(24, 3, mpc._tower_binds(PlantConfig())).shift
        shifted = lp.HighsSession().solve(prog, shift=shift)
        slack = lp.HighsSession().solve(prog)
        assert shifted.iterations == slack.iterations
        assert shifted.x.tobytes() == slack.x.tobytes()


class TestFailedCalls:
    """A HiGHS call that fails raises instead of leaving the run to
    HiGHS's defaults or to the slack basis."""

    def test_unknown_option_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "_SESSION_OPTIONS",
                            lp._SESSION_OPTIONS + (("no_such_option", 1),))
        with pytest.raises(RuntimeError, match="no_such_option"):
            lp.HighsSession().solve(simple_program())

    def test_malformed_start_raises(self):
        prog = simple_program()
        wrong = lp.Basis(np.ones(prog.num_vars + 1, np.int8),
                         np.ones(prog.num_rows, np.int8))
        with pytest.raises(RuntimeError, match="setBasis"):
            lp.HighsSession().solve(prog, start=lambda: wrong)


class TestColumnMajor:
    """Programs hold their matrices in the column-major order of
    ``oracles.csc_pattern``, with the column starts it computes."""

    @staticmethod
    def assert_sorts_like_the_oracle(given, held):
        """``held`` holds the matrix entries of ``given``, which come in any
        order, where the oracle puts them."""
        order, indptr, indices = csc_pattern(given)
        assert held.a_rows.dtype == held.a_cols.dtype == held.a_starts.dtype == np.int32
        assert np.array_equal(held.a_rows, indices)
        assert np.array_equal(held.a_cols, given.a_cols[order])
        assert held.a_vals.tobytes() == given.a_vals[order].tobytes()
        assert np.array_equal(held.a_starts, indptr)

    def test_random_programs_sort_like_the_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            built = random_box_lp(rng)
            shuffle = rng.permutation(built.num_entries)
            given = dataclasses.replace(
                built, a_rows=built.a_rows[shuffle].astype(np.int64),
                a_cols=built.a_cols[shuffle].astype(np.int64),
                a_vals=built.a_vals[shuffle])
            held = dataclasses.replace(given, **lp.column_major(
                given.a_rows, given.a_cols, given.a_vals, given.num_vars))
            self.assert_sorts_like_the_oracle(given, held)
            held.validate()
            # ``LpBuilder`` sorts its entries the same way.
            self.assert_sorts_like_the_oracle(given, built)

    def test_paper_shape_template_sorts_like_the_oracle(self, monkeypatch):
        column_major, put = lp.column_major, []

        def spy(*entries):
            put.append(entries[:3])
            return column_major(*entries)

        monkeypatch.setattr(lp, "column_major", spy)
        n, s = 168, 100
        template = mpc._ProgramTemplate(PlantConfig(), n, s)
        (a_rows, a_cols, a_vals), = put
        held = template.program
        self.assert_sorts_like_the_oracle(
            dataclasses.replace(held, a_rows=a_rows, a_cols=a_cols, a_vals=a_vals),
            held)
        # The register entries, in (scenario, step) order.
        red = template.layout
        peak_rows = template.peak_rows.reshape(-1)
        for at, registers, coeff in ((template.r1, red.R1, -1.0),
                                     (template.r2, red.R2, 0.0)):
            assert np.array_equal(held.a_rows[at], peak_rows)
            assert np.array_equal(held.a_cols[at], np.repeat(registers, n))
            assert np.all(held.a_vals[at] == coeff)

    def test_restoration_template_sorts_like_the_oracle(self):
        config = PlantConfig()
        coeff = balance_matrix(config)
        a = np.hstack([coeff, -coeff])
        a_rows, a_cols = np.nonzero(a)  # row by row
        prog = restoration._correction_program(
            config, PlantState(e_cw=0.0, e_hw=0.0), ControlAction(), (0.0, 0.0, 0.0))
        self.assert_sorts_like_the_oracle(
            dataclasses.replace(prog, a_rows=a_rows, a_cols=a_cols,
                                a_vals=a[a_rows, a_cols]), prog)

    def test_entries_out_of_column_order_raise(self):
        prog = lp.LinearProgram(
            objective=np.array([1.0, 1.0]), lower=np.zeros(2),
            upper=np.full(2, 10.0), row_sense=np.array([lp.GE, lp.GE], np.int8),
            rhs=np.array([2.0, 3.0]),
            a_rows=np.array([0, 1], np.int32), a_cols=np.array([1, 0], np.int32),
            a_vals=np.array([1.0, 1.0]), a_starts=np.array([0, 1, 2], np.int32),
        )
        with pytest.raises(ValueError, match="column order"):
            lp.HighsSession().solve(prog)
        with pytest.raises(ValueError, match="column order"):
            lp.solve(prog)
        with pytest.raises(ValueError, match="column-major"):
            prog.validate()
