import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plantmpc import forecast as fc, lp, mpc, restoration, simulate
from plantmpc.plant import (
    ControlAction,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    residual_demands,
    stage_cost,
)


def scripted_step_through(config, spec, truth, forecast_fn):
    """Straight-line re-implementation of the per-hour bookkeeping.

    Independent of the engine in its bookkeeping, not its solver: it
    maintains its own state variables and walks the documented order
    (solve, restore, residuals, storage + noise, fallback drain, clamp +
    bounds, peak/month reset) step by step using only the public builder,
    its own HiGHS session, and the restoration operation.  Sharing the
    solver path keeps degenerate LP ties from splitting the two.
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
    session = lp.HighsSession()
    rows = []
    for t in range(y):
        timing = simulate.month_timing(t, calendar, n)
        state = PlantState(
            e_cw=e["cw"], e_hw=e["hw"], ul_cw=ul["cw"], ul_hw=ul["hw"],
            ol_cw=ol["cw"], ol_hw=ol["hw"], peak=peak,
        )
        bounds = mpc.TankBounds(lo["cw"], hi["cw"], lo["hw"], hi["hw"])
        reduced = mpc.build_reduced(config, state, forecast_fn(t), timing, bounds)
        solution = reduced.expand(session.solve(reduced.program))
        assert solution.is_optimal
        action = mpc.extract_action(solution, reduced.vmap).action
        realized = truth.at(h + t)
        outcome = restoration.restore(config, state, action, realized)
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
            upd = simulate.update_storage_bounds(e_next, caps[j], beta)
            e[j] = upd.clamped
            lo[j], hi[j] = upd.lower, upd.upper
            ul[j] += upd.ul_increment
            ol[j] += upd.ol_increment
        peak = max(peak, r_e)
        rows.append(
            (e["cw"], e["hw"], ul["cw"], ul["hw"], ol["cw"], ol["hw"], peak,
             cost, lo["cw"], hi["cw"], lo["hw"], hi["hw"])
        )
        if t == timing.month_end:
            peak = 0.0
    return np.array(rows)


class TestUpdateStorageBounds:
    def test_interior(self):
        upd = simulate.update_storage_bounds(500.0, 1000.0, 0.1)
        assert upd == (500.0, 100.0, 900.0, 0.0, 0.0)

    def test_upper_buffer_zone_relaxes_upper(self):
        upd = simulate.update_storage_bounds(950.0, 1000.0, 0.1)
        assert upd == (950.0, 100.0, 950.0, 0.0, 0.0)

    def test_overflow_clamps_and_books_overmet(self):
        upd = simulate.update_storage_bounds(1050.0, 1000.0, 0.1)
        assert upd == (1000.0, 100.0, 1000.0, 0.0, 50.0)

    def test_dryup_clamps_and_books_unmet(self):
        upd = simulate.update_storage_bounds(-20.0, 1000.0, 0.1)
        assert upd == (0.0, 0.0, 900.0, 20.0, 0.0)

    def test_lower_buffer_zone_relaxes_lower(self):
        upd = simulate.update_storage_bounds(50.0, 1000.0, 0.1)
        assert upd == (50.0, 50.0, 900.0, 0.0, 0.0)

    @given(
        e=st.floats(-500, 1500),
        beta=st.floats(0.0, 0.49),
    )
    def test_invariants(self, e, beta):
        cap = 1000.0
        upd = simulate.update_storage_bounds(e, cap, beta)
        assert 0.0 <= upd.clamped <= cap
        assert 0.0 <= upd.lower <= upd.upper <= cap
        assert upd.lower <= upd.clamped <= upd.upper
        assert upd.ul_increment >= 0.0 and upd.ol_increment >= 0.0

    def test_beta_zero_full_box(self):
        upd = simulate.update_storage_bounds(400.0, 1000.0, 0.0)
        assert (upd.lower, upd.upper) == (0.0, 1000.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate.update_storage_bounds(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            simulate.update_storage_bounds(0.0, 100.0, 0.5)


class TestMonthTiming:
    def test_spanning(self):
        timing = simulate.month_timing(700, (744, 1487), 168)
        assert timing.month_end == 744
        assert timing.spans_two_months

    def test_not_spanning(self):
        timing = simulate.month_timing(10, (744, 1487), 168)
        assert not timing.spans_two_months

    def test_closing_hour_rolls_to_single_month(self):
        timing = simulate.month_timing(744, (744, 1487), 168)
        assert timing.month_end == 744
        assert not timing.spans_two_months

    def test_beyond_calendar(self):
        with pytest.raises(ValueError, match="beyond"):
            simulate.month_timing(2000, (744, 1487), 24)

    def test_unsorted_calendar(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate.month_timing(0, (900, 744), 24)

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

    @pytest.mark.parametrize("kind", ["det", "perf"])
    def test_scheme_matches_scripted_step_through(self, kind):
        # 48-hour toy with a 6-hour horizon, realistic loads and noise.
        config = PlantConfig()
        spec = make_spec(controller=simulate.ControllerSpec(
            kind, beta=0.1 if kind == "det" else 0.0))
        truth = fc.generate_synthetic_campus(17, days=7)
        trace = simulate.run_closed_loop(config, spec, truth)
        h, n = spec.history_hours, spec.horizon
        forecast_fn = (
            simulate.ArForecaster(truth, spec).mean_trajectory if kind == "det"
            else lambda t: truth.slice(h + t, h + t + n)
        )
        expected = scripted_step_through(config, spec, truth, forecast_fn)
        got = np.column_stack(
            [trace.storage, trace.unmet, trace.overmet, trace.peak,
             trace.cost, trace.bounds_lower[:, :1], trace.bounds_upper[:, :1],
             trace.bounds_lower[:, 1:], trace.bounds_upper[:, 1:]]
        )
        assert got.shape == expected.shape
        assert np.allclose(got, expected, atol=1e-9)

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

    def test_zero_uncertainty_controllers_collapse(self):
        # With exact forecasts injected and no storage noise, all three
        # controllers see identical data and produce identical costs.
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
            forecaster = (
                ExactForecaster(truth, spec) if spec_kind != "perf" else None
            )
            trace = simulate.run_closed_loop(config, spec, truth, forecaster)
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


def _noiseless():
    def quiet(p):
        return dataclasses.replace(p, noise_std=0.0)

    return fc.SeasonalProfile(
        load_elec=quiet(fc.DEFAULT_PROFILE.load_elec),
        load_cw=quiet(fc.DEFAULT_PROFILE.load_cw),
        load_hw=quiet(fc.DEFAULT_PROFILE.load_hw),
        price_elec=quiet(fc.DEFAULT_PROFILE.price_elec),
    )


class ExactForecaster:
    """Forecast source that returns the truth itself (zero error)."""

    def __init__(self, truth, spec):
        self.values = truth.values
        self.spec = spec
        n = spec.horizon
        self._chols = [np.zeros((n, n))] * 4

    def refresh(self, t):
        return False

    def means(self, t):
        tau = self.spec.history_hours + t
        return self.values[:, tau : tau + self.spec.horizon].copy()

    def mean_trajectory(self, t):
        return DisturbanceTrajectory(self.means(t))

    @property
    def cholesky_factors(self):
        return self._chols
