import csv
import dataclasses
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantmpc import bench, forecast as fc, lp, mpc, restoration, simulate
from plantmpc.plant import (
    PRODUCTION_UNITS,
    STORAGE_UNITS,
    ControlAction,
    Disturbance,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    residual_demands,
    stage_cost,
)

import cold_solve


def scripted_step_through(config, spec, truth, forecast_fn):
    """Straight-line re-implementation of the per-hour bookkeeping.

    Independent of the engine in its bookkeeping, not its solver: it
    maintains its own state variables and walks the documented order
    (solve, restore, residuals, storage + noise, fallback drain, clamp +
    bounds, peak/month reset) step by step using only the public builder,
    its own HiGHS sessions, and the restoration operation.  Sharing the
    solver path, the program's start and one-step shift included, keeps
    degenerate LP ties from splitting the two.  The
    storage bounds follow their own five-case update, hour by hour.
    """
    h, y, n = spec.history_hours, spec.sim_hours, spec.horizon
    calendar = spec.resolved_calendar()
    beta = spec.controller.beta
    caps = {"cw": config.cap_cw, "hw": config.cap_hw}
    e = {"cw": spec.initial_soc * caps["cw"], "hw": spec.initial_soc * caps["hw"]}
    lo = {j: beta * caps[j] for j in ("cw", "hw")}
    hi = {j: (1 - beta) * caps[j] for j in ("cw", "hw")}
    ul = {"cw": 0.0, "hw": 0.0}
    ol = {"cw": 0.0, "hw": 0.0}
    peak = 0.0
    noise, _ = simulate.precompute_storage_noise(truth, spec)
    session, corrections = lp.HighsSession(), lp.HighsSession()
    rows = []
    for t in range(y):
        timing = simulate.month_timing(t, calendar, n)
        state = PlantState(
            e_cw=e["cw"], e_hw=e["hw"], ul_cw=ul["cw"], ul_hw=ul["hw"],
            ol_cw=ol["cw"], ol_hw=ol["hw"], peak=peak,
        )
        reduced = mpc.build_reduced(config, state, forecast_fn(t), timing, beta)
        solution = session.solve(reduced.program, start=reduced.start,
                                 shift=reduced.shift)
        assert solution.is_optimal
        action = mpc.extract_action(reduced.expand(solution))
        realized = truth.at(h + t)
        outcome = restoration.restore(config, state, action, realized, corrections)
        fallback = outcome.kind == restoration.FALLBACK
        final = ControlAction() if fallback else outcome.action
        r_e, _, _ = residual_demands(config, final, realized.load_elec)
        cost = stage_cost(config, final, realized)
        for j, rate, load, v in (
            ("cw", final.p_cw, realized.load_cw, noise[t, 0]),
            ("hw", final.p_hw, realized.load_hw, noise[t, 1]),
        ):
            e_next = e[j] - rate + v
            if fallback:
                e_next -= load
            # Interior levels restore the buffered box; a level inside a
            # buffer zone relaxes the nearer bound to itself; a level
            # outside the tank is clamped and the excess booked.
            lo[j], hi[j] = beta * caps[j], (1 - beta) * caps[j]
            if e_next > caps[j]:
                ol[j] += e_next - caps[j]
                e[j] = hi[j] = caps[j]
            elif e_next < 0.0:
                ul[j] += -e_next
                e[j] = lo[j] = 0.0
            else:
                e[j] = e_next
                if e_next > hi[j]:
                    hi[j] = e_next
                elif e_next < lo[j]:
                    lo[j] = e_next
        peak = max(peak, r_e)
        rows.append(
            (e["cw"], e["hw"], ul["cw"], ul["hw"], ol["cw"], ol["hw"], peak,
             cost, lo["cw"], hi["cw"], lo["hw"], hi["hw"])
        )
        if t == timing.month_end:
            peak = 0.0
    return np.array(rows)


def check_hour(config, state, action, realized, noise, fallback, beta, floor):
    """Run ``simulate.step`` and check every per-hour invariant of its result.

    ``beta`` is the buffer of the storage bounds checked on the next state.
    """
    hour = simulate.step(config, state, action, realized, noise, fallback, floor)
    nxt = hour.state
    flags = dict(zip(simulate.VIOLATION_TYPES, hour.flags))
    bounds = mpc.storage_bounds(config, nxt, beta)
    for j, unit in enumerate(STORAGE_UNITS):
        cap = config.cap(unit)
        raw = state.storage(unit) - action.rate(unit) + noise[j]
        if fallback:
            raw -= getattr(realized, f"load_{unit}")
        # Tank identity: E' = clamp(E - P + v - drain).
        assert nxt.storage(unit) == min(max(raw, 0.0), cap)
        # The integrators grow by exactly the clamped amount (above 1e-9).
        unmet, overmet = max(-raw, 0.0), max(raw - cap, 0.0)
        ul, ol = f"ul_{unit}", f"ol_{unit}"
        assert getattr(nxt, ul) == getattr(state, ul) + (unmet if unmet > 1e-9 else 0.0)
        assert getattr(nxt, ol) == getattr(state, ol) + (overmet if overmet > 1e-9 else 0.0)
        assert getattr(nxt, ul) >= getattr(state, ul)
        assert getattr(nxt, ol) >= getattr(state, ol)
        lower, upper = bounds[j]
        assert 0.0 <= lower <= nxt.storage(unit) <= upper <= cap
        assert flags[f"dryup_{unit}"] == (unmet > 1e-9 and unmet > floor[j])
        assert flags[f"overflow_{unit}"] == (overmet > 1e-9 and overmet > floor[j])
    assert flags["fallback"] == fallback
    residuals = residual_demands(config, action, realized.load_elec)
    assert hour.residuals == residuals
    assert nxt.peak == max(state.peak, residuals[0])
    assert hour.cost == stage_cost(config, action, realized)
    return hour


@st.composite
def hours(draw):
    """Arguments of one ``simulate.step`` call, extremes included."""

    def real(lo, hi):
        return draw(st.floats(lo, hi))

    config = PlantConfig(cap_cw=real(5000.0, 40000.0), cap_hw=real(3000.0, 30000.0))
    state = PlantState(
        e_cw=real(0.0, config.cap_cw), e_hw=real(0.0, config.cap_hw),
        ul_cw=real(0.0, 1e5), ul_hw=real(0.0, 1e5),
        ol_cw=real(0.0, 1e5), ol_hw=real(0.0, 1e5), peak=real(0.0, 3e4),
    )
    rates = [real(0.0, config.pmax(u)) for u in PRODUCTION_UNITS]
    rates += [real(-config.pmax(u), config.pmax(u)) for u in STORAGE_UNITS]
    realized = Disturbance(
        real(0.0, 3e4), real(0.0, 1e5), real(0.0, 1e5), real(-1.0, 1.0)
    )
    noise = np.array([real(-5e3, 5e3), real(-5e3, 5e3)])
    floor = np.array([real(0.0, 1e3), real(0.0, 1e3)])
    return (config, state, ControlAction(*rates), realized, noise,
            draw(st.booleans()), real(0.0, 0.49), floor)


class TestUpdateStorageBounds:
    """The tank update of one hour and the storage bounds derived from it.

    Each case books an hour that moves an empty 1000 kWh chilled-water
    tank to the raw level ``e_next`` and reads the booked level, the
    bounds ``mpc.storage_bounds`` derives from it at buffer ``beta``, and
    the energy booked as unmet and overmet.
    """

    @staticmethod
    def update(e_next, beta=0.1):
        config = PlantConfig(cap_cw=1000.0, pmax_cw=100.0)
        hour = check_hour(
            config, PlantState(e_cw=0.0, e_hw=0.0), ControlAction(),
            Disturbance(0, 0, 0, 0), np.array([e_next, 0.0]), False, beta,
            np.zeros(2),
        )
        nxt = hour.state
        lower, upper = mpc.storage_bounds(config, nxt, beta)[0]
        return nxt.e_cw, lower, upper, nxt.ul_cw, nxt.ol_cw

    def test_interior(self):
        assert self.update(500.0) == (500.0, 100.0, 900.0, 0.0, 0.0)

    def test_upper_buffer_zone_relaxes_upper(self):
        assert self.update(950.0) == (950.0, 100.0, 950.0, 0.0, 0.0)

    def test_overflow_clamps_and_books_overmet(self):
        assert self.update(1050.0) == (1000.0, 100.0, 1000.0, 0.0, 50.0)

    def test_dryup_clamps_and_books_unmet(self):
        assert self.update(-20.0) == (0.0, 0.0, 900.0, 20.0, 0.0)

    def test_lower_buffer_zone_relaxes_lower(self):
        assert self.update(50.0) == (50.0, 50.0, 900.0, 0.0, 0.0)

    @given(
        e=st.floats(-500, 1500),
        beta=st.floats(0.0, 0.49),
    )
    def test_invariants(self, e, beta):
        clamped, lower, upper, unmet, overmet = self.update(e, beta)
        assert 0.0 <= clamped <= 1000.0
        assert 0.0 <= lower <= upper <= 1000.0
        assert lower <= clamped <= upper
        assert unmet >= 0.0 and overmet >= 0.0

    def test_beta_zero_full_box(self):
        assert self.update(400.0, beta=0.0)[1:3] == (0.0, 1000.0)

    def test_bad_arguments(self):
        # A negative buffer would plan below an empty tank.
        state = PlantState(e_cw=0.0, e_hw=0.0)
        for beta in (-0.1, 0.5):
            with pytest.raises(ValueError, match="beta"):
                mpc.storage_bounds(PlantConfig(), state, beta)

    def test_tankless_plant(self):
        # A plant without a hot-water tank books it at zero, in a [0, 0] box.
        config = PlantConfig(cap_hw=0.0, pmax_hw=0.0)
        hour = check_hour(
            config, PlantState(e_cw=500.0, e_hw=0.0), ControlAction(),
            Disturbance(0, 0, 0, 0), np.array([0.0, 30.0]), False, 0.1,
            np.zeros(2),
        )
        assert (hour.state.e_hw, hour.state.ol_hw) == (0.0, 30.0)
        assert mpc.storage_bounds(config, hour.state, 0.1)[1] == (0.0, 0.0)


class TestStep:
    """``simulate.step``, the per-hour bookkeeping of the closed loop."""

    @staticmethod
    def quiet_hour(state, action=ControlAction(), realized=Disturbance(0, 0, 0, 0)):
        """An hour on the default plant without noise, buffer or fallback."""
        return check_hour(PlantConfig(), state, action, realized, np.zeros(2),
                          False, 0.0, np.zeros(2))

    @given(hours())
    def test_invariants(self, args):
        check_hour(*args)

    def test_discharge(self):
        state = PlantState(e_cw=500.0, e_hw=0.0)
        hour = self.quiet_hour(state, ControlAction(p_cw=100.0))
        assert hour.state.e_cw == pytest.approx(400.0)

    def test_peak_ratchets_up(self):
        state = PlantState(e_cw=0.0, e_hw=0.0, peak=900.0)
        hour = self.quiet_hour(state, realized=Disturbance(950.0, 0, 0, 0))
        assert hour.state.peak == pytest.approx(950.0)

    def test_peak_holds(self):
        state = PlantState(e_cw=0.0, e_hw=0.0, peak=900.0)
        hour = self.quiet_hour(state, realized=Disturbance(850.0, 0, 0, 0))
        assert hour.state.peak == pytest.approx(900.0)

    @given(e_cw=st.floats(0, 1e4), e_hw=st.floats(0, 1e4))
    def test_idle_plant_keeps_storage(self, e_cw, e_hw):
        state = PlantState(e_cw=e_cw, e_hw=e_hw)
        hour = self.quiet_hour(state)
        assert hour.state == state
        assert not any(hour.flags)


class TestMonthTiming:
    def test_spanning(self):
        timing = simulate.month_timing(700, (744, 1487), 168)
        assert timing.month_end == 744
        assert timing.next_month.sum() == 168 - 45

    def test_not_spanning(self):
        timing = simulate.month_timing(10, (744, 1487), 168)
        assert not timing.next_month.any()

    def test_closing_hour_bills_only_step_zero_to_closing_month(self):
        timing = simulate.month_timing(744, (744, 1487), 168)
        assert timing.month_end == 744
        assert np.flatnonzero(~timing.next_month).tolist() == [0]
        # The clamped discount prices both registers at N times the demand
        # price on the closing hour.
        assert timing.discount == pytest.approx(1.0 / 168)

    def test_beyond_calendar(self):
        with pytest.raises(ValueError, match="beyond"):
            simulate.month_timing(2000, (744, 1487), 24)

    def test_unsorted_calendar(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate.month_timing(0, (900, 744), 24)

    def test_empty_calendar(self):
        # It once raised IndexError while naming the last month end.
        with pytest.raises(ValueError, match="empty"):
            simulate.month_timing(0, (), 24)

    def test_default_calendar_months(self):
        cal = simulate.default_calendar(24 * 365)
        assert cal[0] == 31 * 24 - 1
        assert cal[1] == (31 + 28) * 24 - 1
        assert cal[-1] >= 24 * 365


def make_spec(**overrides):
    defaults = dict(
        controller=simulate.ControllerSpec("det", beta=0.1),
        sim_hours=48, horizon=6, ar_order=6, history_hours=60,
    )
    defaults.update(overrides)
    return simulate.RunSpec(**defaults)


class TestSolutionLifetime:
    @pytest.mark.parametrize("kind", ["det", "sto", "perf"])
    def test_last_solution_is_gone_when_the_next_solve_starts(self, kind, monkeypatch):
        """No hour's solution is alive through the next hour's solve, whose
        peak memory it would add to."""
        solve, last, alive = lp.HighsSession.solve, [], []

        def watched(session, prog, **kwargs):
            alive.append(bool(last) and last[-1]() is not None)
            solution = solve(session, prog, **kwargs)
            last.append(weakref.ref(solution))
            return solution

        monkeypatch.setattr(lp.HighsSession, "solve", watched)
        spec = make_spec(controller=simulate.ControllerSpec(kind, beta=0.1, scenarios=3),
                         sim_hours=6)
        simulate.run_closed_loop(PlantConfig(), spec,
                                 fc.generate_synthetic_campus(3, days=6))
        assert alive == [False] * 6


class TestRunSpec:
    @pytest.mark.parametrize("field", ["horizon", "ar_order"])
    def test_nonpositive_orders_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            make_spec(**{field: 0})

    @pytest.mark.parametrize("calendar", [(30, 11), (11, 11, 60)])
    def test_unsorted_calendar_rejected(self, calendar):
        with pytest.raises(ValueError, match="strictly ascending"):
            make_spec(sim_hours=30, calendar=calendar)

    @pytest.mark.parametrize("field", ["scenario_seed", "zoh_seed"])
    def test_negative_seed_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            make_spec(**{field: -1})
        make_spec(**{field: 0})

    def test_negative_month_end_rejected(self):
        # Once accepted: the run billed every hour to month end 100, and
        # bench.annual_cost then failed on the empty month ending at -1.
        with pytest.raises(ValueError, match="calendar month ends must be >= 0"):
            make_spec(sim_hours=30, calendar=(-1, 100))
        assert make_spec(sim_hours=30, calendar=(0, 100)).calendar == (0, 100)

    def test_calendar_must_reach_the_last_hour(self):
        with pytest.raises(ValueError, match="before the last simulated hour"):
            make_spec(sim_hours=20, calendar=(10,))
        assert make_spec(sim_hours=20, calendar=(10, 19)).calendar == (10, 19)

    @pytest.mark.parametrize("value", [6.5, 6.0, True, "6"])
    @pytest.mark.parametrize("field", ["sim_hours", "horizon", "ar_order",
                                       "history_hours", "refit_every",
                                       "scenario_seed", "zoh_seed"])
    def test_non_integers_rejected_by_name(self, field, value):
        """Once accepted: horizon 6.5 failed mid-run in numpy, after the
        hour-0 AR fits."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            make_spec(**{field: value})
        good = getattr(make_spec(), field)
        assert getattr(make_spec(**{field: np.int64(good)}), field) == good

    @pytest.mark.parametrize("entry", [19.5, 19.0, True])
    def test_non_integer_calendar_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="^calendar entry must be an integer"):
            make_spec(sim_hours=2, calendar=(0, entry))

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_scenario_count_rejected(self, value):
        for kind in ("sto", "det"):
            with pytest.raises(ValueError, match="^scenarios must be an integer"):
                simulate.ControllerSpec(kind, scenarios=value)


class TestClosedLoop:
    def test_zero_disturbances_zero_cost(self):
        spec = make_spec(apply_storage_noise=False, initial_soc=0.0,
                         controller=simulate.ControllerSpec("det", beta=0.0))
        truth = DisturbanceTrajectory(
            np.zeros((4, spec.required_truth_hours()))
        )
        trace = simulate.run_closed_loop(PlantConfig(), spec, truth)
        assert trace.cost.sum() == 0.0
        assert trace.violation_hours == 0
        assert np.all(trace.implemented == 0.0)

    @pytest.mark.parametrize("kind", ["det", "perf", "sto"])
    def test_scheme_matches_scripted_step_through(self, kind):
        # 48-hour toy with a 6-hour horizon, realistic loads and noise, and
        # two month ends inside the run.
        config = PlantConfig()
        spec = make_spec(
            controller=simulate.ControllerSpec(
                kind, beta=0.1 if kind == "det" else 0.0, scenarios=3
            ),
            calendar=(17, 35, 60),
        )
        truth = fc.generate_synthetic_campus(17, days=7)
        trace = simulate.run_closed_loop(config, spec, truth)
        assert len(trace.monthly_peaks) == 3
        h, n = spec.history_hours, spec.horizon
        if kind == "det":
            forecast_fn = simulate.ArForecaster(truth, spec).mean_trajectory
        elif kind == "sto":
            # A second sampler on the same seed draws the same scenarios.
            forecast_fn = simulate._ScenarioSampler(
                simulate.ArForecaster(truth, spec), spec
            ).scenario_set
        else:
            def forecast_fn(t):
                return truth.slice(h + t, h + t + n)
        expected = scripted_step_through(config, spec, truth, forecast_fn)
        got = np.column_stack(
            [trace.storage, trace.unmet, trace.overmet, trace.peak,
             trace.cost, trace.bounds_lower[:, :1], trace.bounds_upper[:, :1],
             trace.bounds_lower[:, 1:], trace.bounds_upper[:, 1:]]
        )
        assert got.shape == expected.shape
        assert np.allclose(got, expected, atol=1e-9)

    def test_non_optimal_solve_books_a_fallback_hour(self, monkeypatch):
        # Hours whose solve is not optimal commit the zero action and are
        # booked as fallback hours; they never reach the decoder.
        solve = lp.HighsSession.solve
        calls = []

        def every_third_infeasible(session, program, **kwargs):
            calls.append(None)
            sol = solve(session, program, **kwargs)
            if len(calls) % 3 == 0:
                return lp.LpSolution(lp.INFEASIBLE, None, None, sol.iterations)
            return sol

        monkeypatch.setattr(lp.HighsSession, "solve", every_third_infeasible)
        spec = make_spec(sim_hours=12)
        trace = simulate.run_closed_loop(
            PlantConfig(), spec, fc.generate_synthetic_campus(31, days=5)
        )
        failed = np.arange(12) % 3 == 2
        assert np.all(trace.violation_flags("fallback")[failed])
        assert np.all(trace.committed[failed] == 0.0)
        assert np.all(trace.implemented[failed] == 0.0)

    def test_full_tank_inside_the_buffer_plans_at_hour_zero(self):
        # A full 20 000 kWh tank at beta = 0.45 lies above the buffered box
        # [9 000, 11 000] kWh, which one hour at pmax_cw = 5 000 kW cannot
        # reach.  The box widens to hold the level, so hour 0 is planned.
        spec = make_spec(
            controller=simulate.ControllerSpec("det", beta=0.45),
            sim_hours=6, initial_soc=1.0,
        )
        trace = simulate.run_closed_loop(
            PlantConfig(), spec, fc.generate_synthetic_campus(17, days=5)
        )
        assert not trace.violation_flags("fallback")[0]
        assert trace.bounds_lower[0, 0] == 0.45 * 20000.0
        assert trace.bounds_upper[0, 0] == trace.storage[0, 0] > 11000.0

    def test_one_program_shape_per_run(self, monkeypatch):
        # The horizon spans the month end at hour 30 from t = 7 on, and
        # t = 30 is the closing hour; every hour's program still has the
        # same size and sparsity pattern.
        build = mpc.build_reduced
        shapes = []

        def recording(*args):
            reduced = build(*args)
            prog = reduced.program
            shapes.append((prog.num_rows, prog.num_vars,
                           prog.a_rows.tobytes(), prog.a_cols.tobytes()))
            return reduced

        monkeypatch.setattr(mpc, "build_reduced", recording)
        spec = make_spec(horizon=24, ar_order=24, history_hours=14 * 24,
                         sim_hours=40, calendar=(30, 100))
        trace = simulate.run_closed_loop(
            PlantConfig(), spec, fc.generate_synthetic_campus(37, days=18)
        )
        assert len(trace.monthly_peaks) == 2
        assert len(shapes) == 40
        assert len(set(shapes)) == 1

    def test_trace_reproducible(self):
        spec = make_spec(controller=simulate.ControllerSpec("sto", beta=0.0, scenarios=4))
        truth = fc.generate_synthetic_campus(23, days=7)
        a = simulate.run_closed_loop(PlantConfig(), spec, truth)
        b = simulate.run_closed_loop(PlantConfig(), spec, truth)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.storage, b.storage)
        assert np.array_equal(a.violations, b.violations)

    def test_trace_invariants(self):
        config = PlantConfig()
        spec = make_spec(sim_hours=72,
                         controller=simulate.ControllerSpec("det", beta=0.0))
        truth = fc.generate_synthetic_campus(29, days=8)
        trace = simulate.run_closed_loop(config, spec, truth)
        assert np.all(trace.storage[:, 0] >= -1e-9)
        assert np.all(trace.storage[:, 0] <= config.cap_cw + 1e-9)
        assert np.all(np.diff(trace.unmet, axis=0) >= -1e-12)
        assert np.all(np.diff(trace.overmet, axis=0) >= -1e-12)
        # peak is the running max of realized residual load within a month
        assert np.all(np.diff(trace.peak) >= -1e-12)  # 72 h < first month end
        running = np.maximum.accumulate(trace.residuals[:, 0])
        assert np.allclose(trace.peak, running, atol=1e-9)

    def test_peak_resets_at_month_boundary(self):
        config = PlantConfig()
        spec = make_spec(
            sim_hours=30, calendar=(11, 23, 60),
            apply_storage_noise=False,
        )
        truth = fc.generate_synthetic_campus(31, days=6)
        trace = simulate.run_closed_loop(config, spec, truth)
        assert len(trace.monthly_peaks) == 3
        assert trace.monthly_peaks[0] == pytest.approx(trace.peak[11])
        assert trace.monthly_peaks[1] == pytest.approx(trace.peak[23])
        # after the boundary the register restarts from the fresh hour
        assert trace.peak[12] == pytest.approx(trace.residuals[12, 0])
        assert trace.monthly_peaks[2] == pytest.approx(trace.peak[29])

    def test_truth_too_short_rejected(self):
        spec = make_spec()
        truth = DisturbanceTrajectory(np.zeros((4, 50)))
        with pytest.raises(ValueError, match="need history"):
            simulate.run_closed_loop(PlantConfig(), spec, truth)

    def test_zero_uncertainty_controllers_collapse(self, monkeypatch):
        # With exact forecasts injected and no storage noise, all three
        # controllers see identical data and produce identical costs.
        monkeypatch.setattr(simulate, "ArForecaster", ExactForecaster)
        config = PlantConfig()
        truth = fc.generate_synthetic_campus(37, days=8, profile=_noiseless())
        base = make_spec(apply_storage_noise=False, sim_hours=36)
        costs = {}
        for spec_kind, scen in (("det", 1), ("sto", 3), ("perf", 1)):
            spec = dataclasses.replace(
                base,
                controller=simulate.ControllerSpec(
                    spec_kind, beta=0.0, scenarios=scen
                ),
            )
            trace = simulate.run_closed_loop(config, spec, truth)
            costs[spec_kind] = trace.cost.sum()
        assert costs["det"] == pytest.approx(costs["perf"], rel=1e-6)
        assert costs["sto"] == pytest.approx(costs["perf"], rel=1e-6)

    def test_csv_and_summary_outputs(self, tmp_path):
        spec = make_spec(sim_hours=12)
        truth = fc.generate_synthetic_campus(41, days=5)
        trace = simulate.run_closed_loop(PlantConfig(), spec, truth)
        csv_path = tmp_path / "trace.csv"
        trace.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("hour,committed_p_cs_kw")
        summary_path = tmp_path / "trace.json"
        trace.write_summary(summary_path)
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["hours"] == 12
        assert summary["controller"] == "det:0.1"


#: The trace CSV's columns, in order; the storage box is written tank by tank.
TRACE_CSV_HEADER = [
    "hour",
    "committed_p_cs_kw", "committed_p_hrc_kw", "committed_p_hwg_kw",
    "committed_p_ct_kw", "committed_p_hx_kw", "committed_p_cw_kw",
    "committed_p_hw_kw",
    "implemented_p_cs_kw", "implemented_p_hrc_kw", "implemented_p_hwg_kw",
    "implemented_p_ct_kw", "implemented_p_hx_kw", "implemented_p_cw_kw",
    "implemented_p_hw_kw",
    "load_elec_kw", "load_cw_kw", "load_hw_kw", "price_elec_usd_per_kwh",
    "e_cw_kwh", "e_hw_kwh", "ul_cw_kwh", "ul_hw_kwh", "ol_cw_kwh", "ol_hw_kwh",
    "peak_kw",
    "r_e_kw", "r_w_gal_per_h", "r_ng_kw", "stage_cost_usd",
    "violation",
    "lower_cw_kwh", "upper_cw_kwh", "lower_hw_kwh", "upper_hw_kwh",
]


@pytest.fixture(scope="module")
def flagged_trace():
    """A perfect-information loop across two month ends with flagged hours.

    The chillers and heat-recovery chillers are cut to a third of the
    default plant's, below the campus's loads, so tanks run dry and hours
    fall back whichever of the LPs' equal-cost vertices HiGHS returns.
    """
    spec = make_spec(controller=simulate.ControllerSpec("perf"), sim_hours=60,
                     calendar=(11, 30, 47, 100))
    trace = simulate.run_closed_loop(
        PlantConfig(pmax_cs=2000.0, pmax_hrc=500.0), spec,
        fc.generate_synthetic_campus(41, days=8),
    )
    assert trace.violations.any()
    return trace


def smoke_sto_loop(sim_hours, solve=None, build=None, calendar=(), kind="sto"):
    """The benchmark's smoke-scale sto-paper run at seed 0 (N = q = 24,
    S = 5, 14-day history), ``sim_hours`` long, with ``HighsSession.solve``
    and ``mpc.build_reduced`` replaced by ``solve`` and ``build`` if given,
    on ``calendar`` if given; or the same run of the controller ``kind``."""
    def seed(stream):
        return int(np.random.SeedSequence((0, stream)).generate_state(1)[0])

    spec = simulate.RunSpec(
        controller=simulate.ControllerSpec(kind, beta=0.0, scenarios=5),
        sim_hours=sim_hours, horizon=24, ar_order=24, history_hours=24 * 14,
        calendar=calendar, scenario_seed=seed(1), zoh_seed=seed(2),
    )
    base = fc.generate_synthetic_campus(0, -(-spec.required_truth_hours() // 24))
    truth = bench.make_validation_set(base, 1, 0)[0]
    with pytest.MonkeyPatch.context() as patch:
        if solve is not None:
            patch.setattr(lp.HighsSession, "solve", solve)
        if build is not None:
            patch.setattr(mpc, "build_reduced", build)
        return simulate.run_closed_loop(PlantConfig(), spec, truth)


class TestHistoryIndependence:
    def test_a_run_does_not_depend_on_the_runs_before_it(self, monkeypatch):
        """A smoke-scale det run's trace is byte-identical whether or not
        the process ran another closed loop just before it, and each run
        corrects its hours on a session of its own that starts with no
        basis.

        The second check is the one that catches a correction session kept
        from run to run: a warm restart from another run's basis changes
        the corrections only in their last bits, and on the smoke-scale
        and benchmark loops tried it left the traces byte-identical.
        """
        restore, sessions = restoration.restore, []

        def restoring(*args):
            session = args[-1]
            if not sessions or sessions[-1][0] is not session:
                sessions.append((session, session._optimum is None))
            return restore(*args)

        monkeypatch.setattr(restoration, "restore", restoring)

        def record():
            trace = smoke_sto_loop(24, kind="det")
            return [value.tobytes() if isinstance(value, np.ndarray) else repr(value)
                    for f in dataclasses.fields(trace) if f.name != "runtime_seconds"
                    for value in [getattr(trace, f.name)]]

        first = record()
        smoke_sto_loop(8)
        assert record() == first
        assert len(sessions) == 3
        assert all(fresh for _, fresh in sessions)


@pytest.fixture(scope="module")
def smoke_sto_run():
    """``smoke_sto_loop`` over 24 hours: its trace, the number of programs
    built, and (program, start, shift, solution) of every controller solve
    in order.  The first solve is the session's cold solve, the rest its
    warm restarts.  The wrappers forward keyword arguments, as the loop
    passes the program's start and shift by name."""
    solve, build = lp.HighsSession.solve, mpc.build_reduced
    solved, built = [], []

    def counted(session, prog, **kwargs):
        solution = solve(session, prog, **kwargs)
        solved.append((prog, kwargs.get("start"), kwargs.get("shift"), solution))
        return solution

    def building(*args, **kwargs):
        built.append(None)
        return build(*args, **kwargs)

    trace = smoke_sto_loop(24, counted, building)
    return SimpleNamespace(trace=trace, builds=len(built), solves=solved)


def warm_iterations(kind):
    """The simplex iterations of the 23 warm restarts of ``kind``'s
    24-hour ``smoke_sto_loop``, each ended optimal at the objective of
    ``cold_solve.solve`` to 1e-9 relative."""
    solve, solved = lp.HighsSession.solve, []

    def counted(session, prog, **kwargs):
        solved.append((prog, solve(session, prog, **kwargs)))
        return solved[-1][1]

    smoke_sto_loop(24, counted, kind=kind)
    _, *warm = solved
    assert len(warm) == 23 and all(s.is_optimal for _, s in warm)
    for prog, solution in warm:
        assert solution.objective == pytest.approx(cold_solve.solve(prog).objective, rel=1e-9)
    return sum(s.iterations for _, s in warm)


class TestWarmRestartIterations:
    def test_stochastic_warm_restarts_stay_cheap(self, smoke_sto_run):
        """Iteration guard for warm restarts from the last optimal basis,
        each program loaded at the last one's positions rotated one step,
        on the noise window shifted with it, without cost perturbation.

        With HiGHS 1.12.0 (scipy 1.17.1) the smoke run's 23 warm restarts
        take 1 253 simplex iterations.  Rotated through the shared head
        instead, the head in the place of scenario 0's step 1 and every
        other scenario's last step in that of its own step 1, they took
        1 578.  From the alien basis moved one step, the last step keeping
        its own status, they took 1 435, and from the unmoved basis on the
        same noise windows 2 198.  Before the tank rates and unmet slacks
        were substituted out of the program the moved and unmoved bases
        took 1 299 and 2 180; before the noise window moved with the
        horizon, the unmoved restarts took 1 390, and 2 824 with the cost
        perturbation left on.  The bound is the rotated count plus 4.5 %,
        the margin the guard kept over 1 435.
        """
        _, *warm = (solution for *_, solution in smoke_sto_run.solves)
        assert len(warm) == 23 and all(s.is_optimal for s in warm)
        assert sum(s.iterations for s in warm) < 1310

    @pytest.mark.parametrize("kind,bound", [("det", 202), ("perf", 99)])
    def test_one_scenario_warm_restarts_stay_cheap(self, kind, bound):
        """Iteration guard for rotated warm restarts of the one-scenario
        programs, on the smoke run's inputs with the mean forecast or the
        realized trajectory.

        With HiGHS 1.12.0 (scipy 1.17.1) the 23 warm restarts take 193
        simplex iterations (det) and 94 (perf); restarted at the last
        program's own positions, 363 and 343.  The bounds are the rotated
        counts plus 4.5 %, the sto guard's margin.
        """
        assert warm_iterations(kind) < bound


class TestColdStartIterations:
    def test_stochastic_cold_start_stays_cheap(self, smoke_sto_run):
        """Iteration guard for a session's cold solve from the replicated
        scenario-mean basis, without presolve and cost perturbation.

        With HiGHS 1.12.0 (scipy 1.17.1) the smoke run's first solve takes
        175 simplex iterations, 78 of them the mean program's; from the
        slack basis 399, and with presolve and cost perturbation on, as
        ``cold_solve.solve`` still runs it, 436.  Before the tank rates and unmet
        slacks were substituted out of the program: 223, 130, 605 and 686.
        """
        program, _, _, cold = smoke_sto_run.solves[0]
        assert cold.is_optimal and cold.iterations < 300
        assert lp.HighsSession().solve(program).iterations == 399
        assert cold_solve.solve(program).iterations == 436


class TestMeanStart:
    """The stochastic controller's cold solve starts from the scenario-mean
    program's basis; the other controllers' programs have no start.  Every
    program carries its template's one-step rotation, which its warm
    restart loads it by."""

    def test_each_hour_builds_and_solves_once(self, smoke_sto_run):
        assert smoke_sto_run.builds == len(smoke_sto_run.solves) == 24
        assert all(start is not None and shift is not None
                   for _, start, shift, _ in smoke_sto_run.solves)

    def test_first_action_matches_the_slack_start(self, smoke_sto_run):
        solve = lp.HighsSession.solve

        def slack(session, prog, start=None, shift=None):
            return solve(session, prog)

        trace = smoke_sto_loop(1, slack)
        assert np.allclose(trace.committed[0], smoke_sto_run.trace.committed[0],
                           rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["det", "perf"])
    def test_single_trajectory_programs_have_no_start(self, kind, monkeypatch):
        build = mpc.build_reduced
        starts = []

        def recording(*args):
            reduced = build(*args)
            starts.append((reduced.start, reduced.shift is reduced.template.shift))
            return reduced

        monkeypatch.setattr(mpc, "build_reduced", recording)
        simulate.run_closed_loop(
            PlantConfig(), make_spec(controller=simulate.ControllerSpec(kind),
                                     sim_hours=4),
            fc.generate_synthetic_campus(3, days=5),
        )
        assert starts == [(None, True)] * 4

    def test_each_solve_passes_the_program_shift(self, monkeypatch):
        build, solve = mpc.build_reduced, lp.HighsSession.solve
        built, passed = [], []

        def building(*args):
            built.append(build(*args))
            return built[-1]

        def solving(session, prog, **kwargs):
            passed.append((kwargs["start"], kwargs["shift"]))
            return solve(session, prog, **kwargs)

        monkeypatch.setattr(mpc, "build_reduced", building)
        monkeypatch.setattr(lp.HighsSession, "solve", solving)
        simulate.run_closed_loop(
            PlantConfig(),
            make_spec(controller=simulate.ControllerSpec("sto", scenarios=3),
                      sim_hours=4),
            fc.generate_synthetic_campus(3, days=5),
        )
        assert len(passed) == len(built) == 4
        for (start, shift), reduced in zip(passed, built):
            assert start is reduced.start is not None
            assert shift is reduced.shift is reduced.template.shift


def placed_entries(starts, index, values, col, row):
    """The (column, row, value) triplets of a column-major matrix whose
    column j and row i sit at positions ``col[j]`` and ``row[i]``, in
    position order."""
    cols = col[np.repeat(np.arange(starts.size - 1), np.diff(starts))]
    rows = row[index]
    order = np.lexsort((rows, cols))
    return cols[order], rows[order], np.asarray(values)[order]


class TestProgramArrays:
    def test_highs_loads_the_programs_own_arrays(self, monkeypatch):
        """Every cold model load hands HiGHS the program's own column
        starts, row indices and values, and a warm one the same entries at
        the program's HiGHS positions; an in-month controller program's
        values are its template's.

        The month ends at hour 12, so the horizons of hours 0-12 cross it
        and hours 13-15 lie inside the next month.  The loads include the
        scenario-mean programs' and restoration's.
        """
        build, pass_model = mpc.build_reduced, lp._pass_model
        built, loads = [], []

        def building(*args):
            built.append(build(*args))
            return built[-1]

        class Loader:
            def __init__(self, h, prog, places):
                self.h, self.prog, self.places = h, prog, places

            def passModel(self, *args):
                loads.append((self.prog, self.places, args[11:14]))
                return self.h.passModel(*args)

        monkeypatch.setattr(
            lp, "_pass_model", lambda h, prog, places=None:
            pass_model(Loader(h, prog, places), prog, places))
        smoke_sto_loop(16, build=building, calendar=(12, 100))
        cold = [(prog, arrays) for prog, places, arrays in loads if places is None]
        assert all(starts is prog.a_starts and index is prog.a_rows
                   and value is prog.a_vals for prog, (starts, index, value) in cold)
        warm = [load for load in loads if load[1] is not None]
        assert len(warm) == 15
        for prog, places, arrays in warm:
            loaded = placed_entries(*arrays, np.arange(prog.num_vars),
                                    np.arange(prog.num_rows))
            held = placed_entries(prog.a_starts, prog.a_rows, prog.a_vals,
                                  places.col, places.row)
            for a, b in zip(loaded, held):
                assert np.array_equal(a, b)
        template = mpc._program_template(PlantConfig(), 24, 5)
        controller = [next(prog for prog, *_ in loads if prog is reduced.program)
                      for reduced in built]
        in_month = [prog.a_vals is template.a_vals for prog in controller]
        assert in_month == [False] * 13 + [True] * 3


class TestTraceOutputs:
    def test_csv_reads_back_bit_for_bit(self, flagged_trace, tmp_path):
        trace = flagged_trace
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == TRACE_CSV_HEADER
            rows = list(reader)
        assert [int(r["hour"]) for r in rows] == list(range(len(trace)))
        assert [r["violation"] for r in rows] == [
            "+".join(k for k, on in zip(simulate.VIOLATION_TYPES, flags) if on)
            for flags in trace.violations
        ]
        numeric = [n for n in TRACE_CSV_HEADER if n not in ("hour", "violation")]
        read = np.array([[float(r[n]) for n in numeric] for r in rows])
        lower, upper = trace.bounds_lower, trace.bounds_upper
        expected = np.column_stack([
            trace.committed, trace.implemented, trace.realized, trace.storage,
            trace.unmet, trace.overmet, trace.peak, trace.residuals, trace.cost,
            lower[:, 0], upper[:, 0], lower[:, 1], upper[:, 1],
        ])
        assert read.tobytes() == expected.tobytes()

    def test_summary_reads_the_last_row_per_tank(self, flagged_trace):
        trace = flagged_trace
        summary = trace.summary()
        assert list(summary) == [
            "controller", "hours", "total_stage_cost", "monthly_peaks_kw",
            "violation_hours", "violations", "final_storage_kwh", "unmet_kwh",
            "overmet_kwh", "solver_iterations", "runtime_seconds",
        ]
        for key, values in (("final_storage_kwh", trace.storage),
                            ("unmet_kwh", trace.unmet),
                            ("overmet_kwh", trace.overmet)):
            assert summary[key] == {"cw": values[-1, 0], "hw": values[-1, 1]}
            assert all(type(v) is float for v in summary[key].values())

    def test_array_shapes_and_dtypes(self, flagged_trace):
        trace, y = flagged_trace, len(flagged_trace)
        shapes = {
            "committed": (y, 7), "implemented": (y, 7), "realized": (y, 4),
            "storage": (y, 2), "unmet": (y, 2), "overmet": (y, 2), "peak": (y,),
            "residuals": (y, 3), "cost": (y,), "violations": (y, 5),
            "bounds_lower": (y, 2), "bounds_upper": (y, 2),
        }
        for name, shape in shapes.items():
            values = getattr(trace, name)
            assert values.shape == shape, name
            assert values.dtype == (bool if name == "violations" else np.float64)


@st.composite
def short_loops(draw):
    """A short closed loop with month ends inside it and extreme hours."""
    kind = draw(st.sampled_from(["det", "sto", "perf"]))
    config = PlantConfig(
        cap_cw=draw(st.floats(5000.0, 40000.0)),
        cap_hw=draw(st.floats(3000.0, 30000.0)),
        price_demand=draw(st.floats(0.0, 20.0)),
        rho_cw=draw(st.floats(0.0, 50.0)),
        rho_hw=draw(st.floats(0.0, 50.0)),
    )
    y, n = draw(st.integers(2, 10)), draw(st.integers(1, 6))
    ends = draw(st.sets(st.integers(0, y - 2), min_size=1, max_size=3))
    spec = make_spec(
        controller=simulate.ControllerSpec(
            kind, beta=0.0 if kind == "perf" else draw(st.floats(0.0, 0.4)),
            scenarios=draw(st.integers(1, 3)),
        ),
        sim_hours=y, horizon=n, ar_order=3, history_hours=72,
        calendar=(*sorted(ends), y - 1 + draw(st.integers(0, n))),
        scenario_seed=draw(st.integers(0, 99)), zoh_seed=draw(st.integers(0, 99)),
    )
    h = spec.history_hours
    values = fc.generate_synthetic_campus(
        draw(st.integers(0, 99)), days=-(-spec.required_truth_hours() // 24)
    ).values.copy()
    for t, extreme in enumerate(draw(st.lists(
        st.sampled_from(["none", "zero loads", "spike", "negative price"]),
        min_size=y + n, max_size=y + n,
    ))):
        if extreme == "zero loads":
            values[:3, h + t] = 0.0
        elif extreme == "spike":
            # Loads above what production and a full tank can serve.
            values[:3, h + t] = (
                3e4, 2.0 * config.cap_cw + 1e4, 2.0 * config.cap_hw + 1e4
            )
        elif extreme == "negative price":
            values[3, h + t] = -abs(values[3, h + t]) - 0.05
    return config, spec, DisturbanceTrajectory(values)


class TestClosedLoopProperties:
    @settings(deadline=None, max_examples=50)
    @given(short_loops())
    def test_bill_integrators_and_bounds(self, loop):
        config, spec, truth = loop
        trace = simulate.run_closed_loop(config, spec, truth)
        demand = config.price_demand * sum(trace.monthly_peaks)
        total, _ = bench.annual_cost(trace)
        scale = np.abs(trace.cost).sum() + demand
        assert total == pytest.approx(trace.cost.sum() + demand, rel=1e-9,
                                      abs=1e-9 * scale)
        assert trace.monthly_peaks == pytest.approx(
            bench._monthly_peaks(trace.residuals[:, 0], trace.calendar),
            rel=1e-12,
        )
        for integrator in (trace.unmet, trace.overmet):
            assert np.all(integrator[0] >= 0.0)
            assert np.all(np.diff(integrator, axis=0) >= 0.0)
        caps = np.array([config.cap_cw, config.cap_hw])
        assert np.all(0.0 <= trace.bounds_lower)
        assert np.all(trace.bounds_lower <= trace.storage)
        assert np.all(trace.storage <= trace.bounds_upper)
        assert np.all(trace.bounds_upper <= caps)


@st.composite
def smoke_loops(draw):
    """A smoke-scale closed loop of any controller (N = q = 24, S = 3) that
    crosses one or two month ends."""
    kind = draw(st.sampled_from(["det", "sto", "perf"]))
    sim_hours = draw(st.integers(2, 60))
    ends = draw(st.sets(st.integers(0, sim_hours - 2), min_size=1, max_size=2))
    spec = make_spec(
        controller=simulate.ControllerSpec(kind, scenarios=3),
        sim_hours=sim_hours, horizon=24, ar_order=24, history_hours=7 * 24,
        calendar=(*sorted(ends), sim_hours - 1 + draw(st.integers(0, 24))),
        scenario_seed=draw(st.integers(0, 99)), zoh_seed=draw(st.integers(0, 99)),
    )
    values = fc.generate_synthetic_campus(
        draw(st.integers(0, 99)), days=-(-spec.required_truth_hours() // 24)
    ).values.copy()
    # A month that starts lower than the last one ended: its peak register
    # must restart, not carry the last month's.
    values[0, spec.history_hours + min(ends) + 1:] *= draw(st.floats(0.1, 1.0))
    return (PlantConfig(price_demand=draw(st.floats(0.0, 20.0))), spec,
            DisturbanceTrajectory(values))


class TestBillIdentity:
    @settings(deadline=None, max_examples=20)
    @given(smoke_loops())
    def test_bill_is_energy_plus_demand_on_the_loops_peaks(self, loop):
        """The bill ``bench.annual_cost`` recomputes from the residual
        loads (``bench._monthly_peaks``) is the loop's own hourly costs plus
        the demand charge on the peak registers it carried."""
        config, spec, truth = loop
        trace = simulate.run_closed_loop(config, spec, truth)
        total, _ = bench.annual_cost(trace)
        assert len(trace.monthly_peaks) > 1
        assert total == pytest.approx(
            trace.cost.sum() + trace.price_demand * sum(trace.monthly_peaks),
            rel=1e-9)


class EagerForecaster(simulate.ArForecaster):
    """Forecaster that factors the forecast covariances at every refit.

    Its factors come straight from ``forecast`` on the refit window: the
    reference that the factors ``ArForecaster`` computes on demand must
    match bit for bit.
    """

    def refresh(self, t):
        refit = super().refresh(t)
        if refit:
            q, n = self.spec.ar_order, self.spec.horizon
            tau = self.offset + t
            window = self.values[:, tau - self.spec.history_hours : tau]
            self._eager = []
            for ch in range(4):
                model = fc.fit_ar(window[ch], q)
                _, cov = fc.forecast(model, window[ch][-q:], n)
                self._eager.append(fc._jittered_cholesky(cov))
        return refit

    @property
    def cholesky_factors(self):
        return self._eager


class TestLazyFactors:
    """Forecast covariances are factored only when the sampler reads them."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"ar_forecast": 0, "_jittered_cholesky": 0, "refits": 0}

        def spy(name):
            original = getattr(simulate, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(simulate, name, counted)

        spy("ar_forecast")
        spy("_jittered_cholesky")
        refresh = simulate.ArForecaster.refresh

        def counted_refresh(forecaster, t):
            refit = refresh(forecaster, t)
            calls["refits"] += refit
            return refit

        monkeypatch.setattr(simulate.ArForecaster, "refresh", counted_refresh)
        return calls

    def test_deterministic_loop_never_factors(self, spies):
        truth = fc.generate_synthetic_campus(43, days=7)
        simulate.run_closed_loop(PlantConfig(), make_spec(), truth)
        assert spies == {"ar_forecast": 0, "_jittered_cholesky": 0, "refits": 2}

    def test_stochastic_loop_factors_each_channel_once_per_refit(self, spies):
        spec = make_spec(controller=simulate.ControllerSpec("sto", scenarios=3))
        truth = fc.generate_synthetic_campus(43, days=7)
        simulate.run_closed_loop(PlantConfig(), spec, truth)
        assert spies == {"ar_forecast": 8, "_jittered_cholesky": 8, "refits": 2}

    def test_recursion_matrices_are_built_once_per_refit(self, monkeypatch):
        # 48 hours at the 24-hour cadence refit twice; the hourly mean
        # forecasts of the four channels, and the stochastic controller's
        # covariance factors, reuse each refit's matrices.
        built = []
        original = fc._recursion_matrix

        def counted(model, n):
            built.append(n)
            return original(model, n)

        monkeypatch.setattr(fc, "_recursion_matrix", counted)
        truth = fc.generate_synthetic_campus(43, days=7)
        for controller in (simulate.ControllerSpec("det", beta=0.1),
                           simulate.ControllerSpec("sto", scenarios=3)):
            built.clear()
            spec = make_spec(controller=controller)
            simulate.run_closed_loop(PlantConfig(), spec, truth)
            assert spec.sim_hours == 48 and spec.refit_every == 24
            assert built == [spec.horizon] * 8, controller.kind

    def test_scenarios_equal_those_from_eager_factors(self):
        spec = make_spec(controller=simulate.ControllerSpec("sto", scenarios=5))
        truth = fc.generate_synthetic_campus(47, days=7)
        lazy = simulate._ScenarioSampler(simulate.ArForecaster(truth, spec), spec)
        eager = simulate._ScenarioSampler(EagerForecaster(truth, spec), spec)
        for t in range(spec.sim_hours):
            a, b = lazy.scenario_set(t), eager.scenario_set(t)
            assert np.array_equal(a.values, b.values), t


class TestScenarioReductionInTheLoop:
    """Above ``KEPT_SCENARIOS`` the sampler reduces each refit's full set
    and slides the kept paths until the next refit."""

    S, K = 8, 3

    def sampler(self, monkeypatch, s=S):
        monkeypatch.setattr(simulate, "KEPT_SCENARIOS", self.K)
        spec = make_spec(controller=simulate.ControllerSpec("sto", scenarios=s),
                         sim_hours=50)
        truth = fc.generate_synthetic_campus(47, days=7)
        forecaster = simulate.ArForecaster(truth, spec)
        forecaster.refresh(0)
        full = simulate._ScenarioSampler(simulate.ArForecaster(truth, spec), spec)
        return simulate._ScenarioSampler(forecaster, spec), full

    def test_kept_paths_slide_between_refits(self, monkeypatch):
        sampler, full = self.sampler(monkeypatch)
        for t in range(50):
            got = sampler.scenario_set(t)
            sample = full.draw(t)
            if t % 24 == 0:
                kept, want = fc.reduce_scenarios(fc.ScenarioSet(sample), self.K)
                assert np.array_equal(got.values, want.values), t
                assert not got.equally_weighted
            else:
                assert np.allclose(got.values, sample[kept], rtol=1e-12, atol=0.0), t
            assert np.array_equal(got.probabilities, want.probabilities), t

    def test_at_most_k_scenarios_are_not_reduced(self, monkeypatch):
        sampler, full = self.sampler(monkeypatch, s=self.K)
        for t in range(30):
            got = sampler.scenario_set(t)
            assert np.array_equal(got.values, full.draw(t)) and got.equally_weighted

    def test_the_program_keeps_its_shape(self, monkeypatch):
        """``8 + K(8N - 4)`` columns every hour, refits included."""
        sampler, _ = self.sampler(monkeypatch)
        config, state = PlantConfig(), PlantState(e_cw=5000.0, e_hw=3000.0)
        n = sampler.spec.horizon
        for t in range(0, 50, 5):
            program = mpc.build_reduced(config, state, sampler.scenario_set(t),
                                        mpc.HorizonTiming(t, n, 743), 0.0).program
            assert program.num_vars == 8 + self.K * (8 * n - 4)


class TestCausality:
    """Changing the truth from hour k + 1 on leaves every hour before k
    bit-identical: the loop, its forecasts and the scenario reduction read
    nothing ahead.  (Hour k's tank noise reads hour k + 1's load for the
    intra-hour ramp.)"""

    @staticmethod
    def trace(controller, values):
        spec = simulate.RunSpec(
            controller=controller, sim_hours=40, horizon=12, ar_order=12,
            history_hours=24 * 4, scenario_seed=3, zoh_seed=4,
        )
        return simulate.run_closed_loop(PlantConfig(), spec,
                                        DisturbanceTrajectory(values))

    @pytest.mark.parametrize("kind", ["det", "sto"])
    @settings(deadline=None, max_examples=3)
    @given(k=st.integers(26, 38), factor=st.sampled_from([0.7, 1.3]))
    def test_hours_before_k_ignore_the_truth_after_it(self, kind, k, factor):
        controller = (simulate.ControllerSpec("sto", scenarios=6) if kind == "sto"
                      else simulate.ControllerSpec("det", beta=0.1))
        values = fc.generate_synthetic_campus(11, days=7).values
        changed = values.copy()
        changed[:, 24 * 4 + k + 1:] *= factor
        with pytest.MonkeyPatch.context() as patch:
            # Six sampled scenarios reduced to three, with a refit at hour 24.
            patch.setattr(simulate, "KEPT_SCENARIOS", 3)
            a, b = (self.trace(controller, v) for v in (values, changed))
        for f in simulate._HOURLY:
            assert np.array_equal(getattr(a, f.name)[:k], getattr(b, f.name)[:k]), f.name
        assert not np.array_equal(a.realized, b.realized)


class TestNoiseWindow:
    """Each scenario continues its own noise path: hour t's window holds
    the draws of absolute hours [t, t + N)."""

    S, N = 3, 6

    def windows(self, sim_hours):
        spec = make_spec(
            controller=simulate.ControllerSpec("sto", scenarios=self.S),
            sim_hours=sim_hours, horizon=self.N,
        )
        sampler = simulate._ScenarioSampler(None, spec)
        return spec, [sampler._noise(t) for t in range(sim_hours)]

    def test_windows_slide_along_one_path(self):
        # Hour 0 draws the whole (S, 4, N) window, as one draw for the whole
        # run did, and each later hour one (S, 4) column from the same stream.
        spec, windows = self.windows(30)
        rng = np.random.default_rng(spec.scenario_seed)
        path = np.concatenate(
            [rng.standard_normal((self.S, 4, self.N))]
            + [rng.standard_normal((self.S, 4))[:, :, None] for _ in range(29)],
            axis=2,
        )
        for t, window in enumerate(windows):
            assert np.array_equal(window, path[:, :, t:t + self.N]), t

    def test_next_window_is_this_one_moved_one_column(self):
        _, windows = self.windows(30)
        for now, later in zip(windows, windows[1:]):
            assert np.array_equal(later[:, :, :-1], now[:, :, 1:])
            assert not np.any(later[:, :, -1] == now[:, :, -1])

    def test_an_hour_draws_the_same_noise_in_a_longer_run(self):
        _, short = self.windows(10)
        _, long = self.windows(30)
        for a, b in zip(short, long):
            assert np.array_equal(a, b)

    def test_window_does_not_move_back(self):
        spec = make_spec(controller=simulate.ControllerSpec("sto", scenarios=2))
        sampler = simulate._ScenarioSampler(None, spec)
        sampler._noise(3)
        with pytest.raises(ValueError, match="precedes"):
            sampler._noise(2)


class TestStorageNoise:
    def test_draws_match_inline_reference(self):
        # The per-tank formula precompute_storage_noise once spelled out
        # itself, kept here as the reference for its zoh_noise draws.
        spec = make_spec(sim_hours=40, zoh_seed=11)
        truth = fc.generate_synthetic_campus(5, days=5)
        noise, floor = simulate.precompute_storage_noise(truth, spec)

        rng = np.random.default_rng(spec.zoh_seed)
        h, y = spec.history_hours, spec.sim_hours
        for j, ch in enumerate((1, 2)):
            series = truth.values[ch]
            var_err, var_int = fc.estimate_zoh_variances(series[:h], spec.ar_order)
            ramp = series[h + 1 : h + y + 1] - series[h : h + y]
            std = np.sqrt(0.25 * var_err + var_int)
            assert np.array_equal(noise[:, j], rng.normal(-0.5 * ramp, std))
            assert floor[j] == 4.0 * std

    @pytest.mark.parametrize("apply", [True, False])
    def test_forecaster_models_give_the_same_draws(self, apply):
        spec = make_spec(sim_hours=40, zoh_seed=11, apply_storage_noise=apply)
        truth = fc.generate_synthetic_campus(5, days=5)
        forecaster = simulate.ArForecaster(truth, spec)
        forecaster.refresh(0)
        own = simulate.precompute_storage_noise(truth, spec)
        reused = simulate.precompute_storage_noise(truth, spec, forecaster._models)
        for a, b in zip(own, reused, strict=True):
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


class TestOneFitPerWindow:
    """A run fits each (channel, history window) once: the storage-noise
    estimate reuses the load models of its own forecaster's hour-0 refit.
    Smoke scale (N = q = 24, 14-day history), 60 hours at the 24-hour
    cadence, so three refits."""

    @staticmethod
    def run(kind, apply_storage_noise=True):
        controller = simulate.ControllerSpec(kind, scenarios=5)
        spec = simulate.RunSpec(
            controller=controller, sim_hours=60, horizon=24, ar_order=24,
            history_hours=24 * 14, apply_storage_noise=apply_storage_noise,
        )
        truth = fc.generate_synthetic_campus(0, 19)
        return simulate.run_closed_loop(PlantConfig(), spec, truth)

    @pytest.fixture
    def fits(self, monkeypatch):
        """The (order, window) of every ``fit_ar`` call, in either namespace."""
        calls = []
        for module in (simulate, fc):
            def counted(history, q, original=module.fit_ar):
                calls.append((q, np.asarray(history).tobytes()))
                return original(history, q)

            monkeypatch.setattr(module, "fit_ar", counted)
        return calls

    @pytest.mark.parametrize("apply_storage_noise", [True, False])
    @pytest.mark.parametrize("kind,refit_fits,noise_fits", [
        ("det", 12, 0), ("sto", 12, 0), ("perf", 0, 2),
    ])
    def test_fit_calls(self, fits, kind, refit_fits, noise_fits, apply_storage_noise):
        self.run(kind, apply_storage_noise)
        assert len(fits) == refit_fits + noise_fits * apply_storage_noise
        assert len(set(fits)) == len(fits)


def _noiseless():
    def quiet(p):
        return dataclasses.replace(p, noise_std=0.0)

    return fc.SeasonalProfile(
        load_elec=quiet(fc.DEFAULT_PROFILE.load_elec),
        load_cw=quiet(fc.DEFAULT_PROFILE.load_cw),
        load_hw=quiet(fc.DEFAULT_PROFILE.load_hw),
        price_elec=quiet(fc.DEFAULT_PROFILE.price_elec),
    )


class ExactForecaster(simulate.ArForecaster):
    """Forecast source that returns the truth itself (zero error)."""

    def means(self, t):
        tau = self.offset + t
        return self.values[:, tau : tau + self.spec.horizon].copy()

    @property
    def cholesky_factors(self):
        return [np.zeros((self.spec.horizon,) * 2)] * 4
