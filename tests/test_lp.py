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

import cold_solve
import triplet_template
from stacked_layout import StackedLayout
from oracles import csc_pattern, random_box_lp, vertex_enumeration_optimum
from simplex import BOUND_TOL, ROW_TOL, LpBuilder, matrix, solve_simplex
from test_restoration import random_cases

#: The in-tree simplex oracle and the production HiGHS path.
SOLVERS = {"embedded": solve_simplex, "highs": cold_solve.solve}


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
                a = matrix(prog).toarray()
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
                rows = matrix(prog) @ sol.x
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

    @pytest.mark.parametrize("field,size", [
        ("objective", 2), ("lower", 1), ("lower", 3), ("upper", 1),
        ("row_sense", 1), ("row_sense", 3), ("rhs_lower", 1), ("rhs_lower", 3),
    ])
    def test_short_or_long_arrays_rejected(self, field, size):
        """Every per-column array has one entry per column, and the row
        senses and lower sides one per row; each is checked by name."""
        builder = LpBuilder()
        xy = builder.add_variables(2, 0.0, 10.0, [1.0, 2.0])
        builder.add_row(lp.GE, 1.0, xy, [1.0, 1.0])
        builder.add_row(lp.LE, 8.0, xy, [1.0, 1.0])
        prog = dataclasses.replace(builder.build(), rhs_lower=np.zeros(2))
        prog.validate()
        if field == "objective":
            # The objective fixes the column count: a 2-D one has no length.
            wrong = dataclasses.replace(prog, objective=np.ones((2, 1)))
        else:
            wrong = dataclasses.replace(
                prog, **{field: np.resize(getattr(prog, field), size)})
        with pytest.raises(ValueError, match=field):
            wrong.validate()

    def test_two_row_senses_and_one_rhs_rejected(self):
        prog = dataclasses.replace(
            simple_program(), row_sense=np.array([lp.GE, lp.GE], np.int8))
        with pytest.raises(ValueError, match="row_sense needs 1 entries"):
            prog.validate()


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
            for solve in (solve_simplex, cold_solve.solve, lp.HighsSession().solve):
                sol = solve(prog)
                assert sol.status == oracle.status
                if oracle.is_optimal:
                    assert sol.objective == pytest.approx(oracle.objective, rel=1e-6, abs=1e-6)
                    rows = matrix(prog) @ sol.x
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
        entries = lp.column_major(
            [2, 0, 1, 0, 2, 1], [0, 1, 2, 0, 2, 0], [5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 3)
        prog = lp.LinearProgram(
            objective=np.array([1.0, -2.0, 0.5]),
            lower=np.array([-np.inf, 0.0, -1.0]),
            upper=np.array([np.inf, 4.0, np.inf]),
            row_sense=np.array([lp.LE, lp.EQ, lp.GE], dtype=np.int8),
            rhs=np.array([3.0, -1.0, 2.0]),
            **entries,
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
        csc = matrix(prog).tocsc()
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
                assert cold_solve.solve(prog).status == lp.INFEASIBLE
                continue
            warm = session.solve(prog)
            cold = cold_solve.solve(prog)
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
        cold = cold_solve.solve(prog)
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
    cost perturbation; ``cold_solve.solve`` keeps HiGHS's defaults.  Each instance
    keeps its options for all its runs."""

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
            rows = matrix(prog) @ warm.x
            assert np.all(rows >= row_lower - 1e-7), hour
            assert np.all(rows <= row_upper + 1e-7), hour
            assert warm.objective <= cold.objective + 1e-9 * abs(cold.objective), hour

    def test_each_instance_keeps_its_own_options(self):
        # A session's options are set when it is made, before any run.
        session = lp.HighsSession()
        for _ in range(2):
            for h, want in ((session._h, ["off", 0.0]), (cold_solve._solver(), ["choose", 1.0])):
                read = [h.getOptionValue(name)[1] for name, _ in lp._SESSION_OPTIONS]
                assert read == want
            session.solve(simple_program())
            cold_solve.solve(simple_program())

    def test_no_option_leaks_into_cold_solves(self, monkeypatch):
        session = lp.HighsSession()
        programs = [prog for prog, *_ in receding_chain(session)]
        for prog in programs[-3:]:
            reused = cold_solve.solve(prog)
            with monkeypatch.context() as patched:
                patched.setattr(cold_solve, "_solver", lp._highs)
                fresh = cold_solve.solve(prog)
            assert reused.is_optimal and fresh.is_optimal
            assert reused.iterations == fresh.iterations
            assert reused.objective == fresh.objective
            assert reused.x.tobytes() == fresh.x.tobytes()


class TestSessionAgreesWithOneShot:
    """A fresh session's cold solve, without presolve and cost
    perturbation, agrees with ``cold_solve.solve`` on status and objective, and
    its solution is feasible; among alternate optima it may return
    another vertex."""

    @staticmethod
    def assert_agrees(prog):
        cold, one_shot = lp.HighsSession().solve(prog), cold_solve.solve(prog)
        assert cold.status == one_shot.status
        if not cold.is_optimal:
            return cold
        assert cold.objective == pytest.approx(one_shot.objective, rel=1e-9)
        assert np.all(cold.x >= prog.lower - 1e-7)
        assert np.all(cold.x <= prog.upper + 1e-7)
        row_lower, row_upper = lp._row_sides(prog)
        rows = matrix(prog) @ cold.x
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
            self.assert_agrees(restoration._correction_program(
                cfg, state, action, residuals, realized.price_elec))

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
    """A warm restart given a shift loads the program with each column and
    row at the HiGHS position of the one the shift names in the last
    program, and restarts from HiGHS's own basis, not an alien one.  A run
    from it that ends non-optimal falls back to the caller's start, then to
    the slack basis, each loaded at the program's own indices."""

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
        # ``getBasis`` reads HiGHS's positions, ``basis`` the program's.
        read, full = session.basis(), status_codes(session._h.getBasis())
        if session._places is not None:
            full = lp.Basis(full.col[session._places.col],
                            full.row[session._places.row])
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

    @pytest.mark.parametrize("start_fails", [False, True])
    def test_non_optimal_shifted_run_falls_back(self, start_fails, monkeypatch):
        # The shifted run, and the run from the start when ``start_fails``,
        # are cut at zero iterations.  Only the shifted run is loaded at
        # moved positions; the fallback puts every column and row back.
        chain = receding_chain(lp.HighsSession())
        first, second = (next(chain)[0] for _ in range(2))
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        basis = lp.Basis(np.ones(second.num_vars, np.int8),
                         np.ones(second.num_rows, np.int8), iterations=50)
        session = lp.HighsSession()
        assert session.solve(first).is_optimal
        start, calls = TestStart.counted(basis)
        original, loads = lp._pass_model, []

        def limited(h, prog, places=None):
            loads.append(places)
            cut = len(loads) == 1 or (start_fails and len(loads) == 2)
            h.setOptionValue("simplex_iteration_limit", 0 if cut else 2**31 - 1)
            original(h, prog, places)

        monkeypatch.setattr(lp, "_pass_model", limited)
        solution = session.solve(second, start=start, shift=shift)
        monkeypatch.setattr(lp, "_pass_model", original)
        if start_fails:
            want = lp.HighsSession().solve(second)
        else:
            want = lp.HighsSession().solve(second, start=lambda: basis)
        assert len(calls) == 1 and len(loads) == (3 if start_fails else 2)
        assert np.array_equal(loads[0].col, shift.col)
        assert np.array_equal(loads[0].row, shift.row)
        assert all(places is None for places in loads[1:])
        assert session._places is None
        assert solution.is_optimal
        assert solution.iterations == want.iterations
        assert solution.x.tobytes() == want.x.tobytes()

    def test_restart_sets_the_last_basis_moved(self):
        """One load per warm solve, between ``getBasis`` and ``setBasis`` of
        the same binding object, which is not alien: each column and row of
        the new program sits where the one it moved from sat, and starts
        from that one's status."""
        chain = receding_chain(lp.HighsSession())
        first, second = (next(chain)[0] for _ in range(2))
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        session = lp.HighsSession()
        session.solve(first)
        last = status_codes(session._h.getBasis())
        moved = lp.Basis(last.col[shift.col], last.row[shift.row])
        assert not np.array_equal(moved.col, last.col)
        calls = []

        class Recording:
            def __init__(self, h):
                self.h = h

            def __getattr__(self, name):
                return getattr(self.h, name)

            def getBasis(self):
                calls.append(("get", self.h.getBasis()))
                return calls[-1][1]

            def setBasis(self, basis):
                calls.append(("set", basis))
                return self.h.setBasis(basis)

            def passModel(self, *args):
                calls.append(("load", None))
                return self.h.passModel(*args)

        session._h = Recording(session._h)
        solution = session.solve(second, shift=shift)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(cold_solve.solve(second).objective, rel=1e-9)
        assert [call for call, _ in calls] == ["get", "load", "set"]
        assert calls[2][1] is calls[0][1] and not calls[2][1].alien
        places = session._places
        assert np.array_equal(places.col, shift.col)
        assert np.array_equal(places.row, shift.row)
        basis = status_codes(calls[2][1])
        assert np.array_equal(basis.col[places.col], moved.col)
        assert np.array_equal(basis.row[places.row], moved.row)
        model = session._h.getLp()
        assert np.array_equal(np.asarray(model.col_cost_)[places.col], second.objective)
        assert np.array_equal(np.asarray(model.row_upper_)[places.row],
                              lp._row_sides(second)[1])

    def test_positions_compose_over_restarts(self):
        """Each warm restart moves the positions once more; HiGHS holds the
        program at them, and the solution reads back through them."""
        session = lp.HighsSession()
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        col = row = None
        for hour, (prog, warm, loads, cold) in enumerate(
                receding_chain(session, shifted=True)):
            assert warm.is_optimal and loads == 1, hour
            if hour == 0:
                assert session._places is None
                col, row = np.arange(prog.num_vars), np.arange(prog.num_rows)
                continue
            col, row = col[shift.col], row[shift.row]
            assert np.array_equal(session._places.col, col), hour
            assert np.array_equal(session._places.row, row), hour
            model = session._h.getLp()
            assert np.array_equal(np.asarray(model.col_lower_)[col], prog.lower), hour
            assert np.array_equal(np.asarray(model.col_upper_)[col], prog.upper), hour
            x = np.asarray(session._h.getSolution().col_value)[col]
            assert np.array_equal(warm.x, np.clip(x, prog.lower, prog.upper)), hour

    def test_a_load_that_raises_leaves_no_warm_restart(self):
        """A warm load that raises leaves the session to start the next
        program cold, at its own indices, as a fresh session does."""
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        chain = receding_chain(lp.HighsSession())
        first, second, third = (next(chain)[0] for _ in range(3))
        session = lp.HighsSession()
        session.solve(first)
        starts = second.a_starts.copy()
        starts[1], starts[2] = starts[2], starts[1]
        with pytest.raises(ValueError, match="column order"):
            session.solve(dataclasses.replace(second, a_starts=starts), shift=shift)
        solution, fresh = session.solve(third, shift=shift), lp.HighsSession().solve(third)
        assert session._places is None
        assert solution.iterations == fresh.iterations
        assert solution.x.tobytes() == fresh.x.tobytes()

    def test_no_shift_keeps_the_positions(self):
        """A warm restart without a shift loads the program at the last
        program's positions."""
        session = lp.HighsSession()
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        chain = receding_chain(lp.HighsSession())
        first, second, third = (next(chain)[0] for _ in range(3))
        session.solve(first)
        session.solve(second, shift=shift)
        places = session._places
        solution = session.solve(third)
        assert solution.is_optimal and session._places is places
        assert solution.objective == pytest.approx(cold_solve.solve(third).objective, rel=1e-9)

    def test_shift_is_ignored_without_a_warm_basis(self):
        prog = next(receding_chain(lp.HighsSession()))[0]
        shift = StackedLayout(24, 3, mpc._tower_binds(PlantConfig())).shift
        shifted = lp.HighsSession().solve(prog, shift=shift)
        slack = lp.HighsSession().solve(prog)
        assert shifted.iterations == slack.iterations
        assert shifted.x.tobytes() == slack.x.tobytes()


class TestShiftIsAPermutation:
    """A ``Shift`` names one place for every column and row, so it must
    be a permutation; a repeated index would read one column's value as
    another's."""

    def test_repeated_or_missing_indices_rejected(self):
        lp.Shift(np.array([1, 2, 0], np.int32), np.array([0], np.int32))
        # [1, 2, 3, 3]: a shift whose last step keeps its own status while
        # its neighbour takes it too.
        for col, row, name in (([1, 1, 0], [0], "col"), ([0, 1, 3], [0], "col"),
                               ([1, 2, 3, 3], [0], "col"), ([0, 1, 2], [1], "row"),
                               ([0, 1], [-1], "row")):
            with pytest.raises(ValueError, match=f"{name} map is not a permutation"):
                lp.Shift(np.array(col, np.int32), np.array(row, np.int32))

    def test_shift_of_another_shape_raises(self):
        session = lp.HighsSession()
        prog = simple_program()
        assert session.solve(prog).is_optimal
        wrong = lp.Shift(np.arange(2, dtype=np.int32), np.arange(1, dtype=np.int32))
        with pytest.raises(ValueError, match="shape"):
            session.solve(prog, shift=wrong)


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
    def assert_sorts_like_the_oracle(entries, held):
        """``held`` holds the matrix entries (rows, columns, values), which
        come in any order, where the oracle puts them."""
        a_rows, a_cols, a_vals = (np.asarray(part) for part in entries)
        order, indptr, indices = csc_pattern(a_rows, a_cols, held.num_vars)
        assert held.a_rows.dtype == held.a_cols.dtype == held.a_starts.dtype == np.int32
        assert np.array_equal(held.a_rows, indices)
        assert np.array_equal(held.a_cols, a_cols[order])
        assert held.a_vals.tobytes() == a_vals[order].tobytes()
        assert np.array_equal(held.a_starts, indptr)

    def test_random_programs_sort_like_the_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            built = random_box_lp(rng)
            shuffle = rng.permutation(built.num_entries)
            entries = (built.a_rows[shuffle].astype(np.int64),
                       built.a_cols[shuffle].astype(np.int64), built.a_vals[shuffle])
            held = dataclasses.replace(
                built, **lp.column_major(*entries, built.num_vars))
            self.assert_sorts_like_the_oracle(entries, held)
            held.validate()
            # ``LpBuilder`` sorts its entries the same way.
            self.assert_sorts_like_the_oracle(entries, built)

    def test_paper_shape_template_sorts_like_the_oracle(self):
        """The replicated paper-shape matrix holds every scenario block's
        triplets (``triplet_template``) where the oracle's sort puts them."""
        n, s = 168, 100
        template = mpc._ProgramTemplate(PlantConfig(), n, s)
        held = lp.LinearProgram(
            np.zeros(template.num_vars), np.zeros(template.num_vars),
            np.zeros(template.num_vars), template.row_sense,
            np.zeros(template.num_rows), template.a_rows, template.a_vals,
            template.a_starts)
        oracle = triplet_template.Template(PlantConfig(), n, s)
        self.assert_sorts_like_the_oracle(oracle.entries, held)
        # The register entries, in (scenario, step) order.
        red = oracle.layout
        peak_rows = red.row_block("peak")
        for at, registers, coeff in zip(template.registers(np.arange(held.num_entries)),
                                        (red.R1, red.R2), (-1.0, 0.0)):
            assert at.shape == (s, n)
            assert np.array_equal(held.a_rows[at], peak_rows)
            assert np.array_equal(held.a_cols[at], np.repeat(registers, n).reshape(s, n))
            assert np.all(held.a_vals[at] == coeff)

    def test_restoration_template_sorts_like_the_oracle(self):
        config = PlantConfig()
        coeff = balance_matrix(config)
        a = np.hstack([coeff, -coeff])
        a_rows, a_cols = np.nonzero(a)  # row by row
        prog = restoration._correction_program(
            config, PlantState(e_cw=0.0, e_hw=0.0), ControlAction(), (0.0, 0.0, 0.0),
            0.06)
        self.assert_sorts_like_the_oracle((a_rows, a_cols, a[a_rows, a_cols]), prog)

    def test_entries_out_of_column_order_raise(self):
        """Column starts that decrease cannot hold entries in column order;
        rows that decrease inside a column are not column-major either."""
        prog = lp.LinearProgram(
            objective=np.ones(3), lower=np.zeros(3),
            upper=np.full(3, 10.0), row_sense=np.array([lp.GE, lp.GE], np.int8),
            rhs=np.array([2.0, 3.0]),
            a_rows=np.array([0, 1], np.int32),
            a_vals=np.array([1.0, 1.0]), a_starts=np.array([0, 2, 1, 2], np.int32),
        )
        with pytest.raises(ValueError, match="column order"):
            lp.HighsSession().solve(prog)
        with pytest.raises(ValueError, match="column order"):
            cold_solve.solve(prog)
        with pytest.raises(ValueError, match="column-major"):
            prog.validate()
        rows_down = dataclasses.replace(
            prog, a_rows=np.array([1, 0], np.int32),
            a_starts=np.array([0, 2, 2, 2], np.int32))
        with pytest.raises(ValueError, match="column-major"):
            rows_down.validate()

    def test_column_indices_are_derived_from_the_starts(self):
        """A program stores no column indices: ``a_cols`` is a fresh int32
        array, each column's index repeated over its entries."""
        prog = random_box_lp(np.random.default_rng(5))
        assert "a_cols" not in vars(prog)
        cols = prog.a_cols
        assert cols.dtype == np.int32 and cols is not prog.a_cols
        assert np.array_equal(
            cols, np.repeat(np.arange(prog.num_vars), np.diff(prog.a_starts)))
