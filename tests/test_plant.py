
import numpy as np
import pytest
from hypothesis import given, strategies as st

from plantmpc.plant import (
    UNITS,
    ControlAction,
    Disturbance,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_residuals,
    demand_discount,
    rate_bounds,
    residual_demands,
    stage_cost,
)

from oracles import balance_residuals_terms, residual_demands_terms, within_bounds_loops


@pytest.fixture
def config():
    return PlantConfig()


class TestResidualDemands:
    def test_zero_action_passes_load_through(self, config):
        r_e, r_w, r_ng = residual_demands(config, ControlAction(), 100.0)
        assert (r_e, r_w, r_ng) == (100.0, 0.0, 0.0)

    def test_chiller_draw(self):
        config = PlantConfig(alpha_e_cs=0.2)
        r_e, _, _ = residual_demands(config, ControlAction(p_cs=50.0), 100.0)
        assert r_e == pytest.approx(110.0)

    def test_gas_draw(self):
        config = PlantConfig(alpha_ng_hwg=1.25)
        _, _, r_ng = residual_demands(config, ControlAction(p_hwg=40.0), 0.0)
        assert r_ng == pytest.approx(50.0)


class TestBalanceResiduals:
    def test_all_zero(self, config):
        res = balance_residuals(config, ControlAction(), Disturbance(0, 0, 0, 0))
        assert res == (0.0, 0.0, 0.0)

    def test_chilled_water_balance(self, config):
        action = ControlAction(p_cs=30.0, p_hrc=20.0, p_cw=10.0)
        dist = Disturbance(0.0, 60.0, 0.0, 0.0)
        cw_res, _, _ = balance_residuals(config, action, dist)
        assert cw_res == pytest.approx(0.0)

    def test_condenser_balance(self):
        config = PlantConfig(alpha_cond_cs=1.2)
        action = ControlAction(p_cs=50.0, p_hx=5.0, p_ct=65.0)
        _, _, cond_res = balance_residuals(config, action, Disturbance(0, 0, 0, 0))
        assert cond_res == pytest.approx(0.0)


class TestStageCost:
    def test_zero_action(self, config):
        cost = stage_cost(config, ControlAction(), Disturbance(100.0, 0, 0, 0.05))
        assert cost == pytest.approx(5.0)

    def test_water_price(self):
        # 1000 gal/h of make-up water at the fixed tariff.
        config = PlantConfig(alpha_w_ct=1.0, alpha_e_ct=0.0)
        action = ControlAction(p_ct=1000.0)
        cost = stage_cost(config, action, Disturbance(0, 0, 0, 0.0))
        assert cost == pytest.approx(0.009 * 1000.0)

    def test_gas_price(self):
        config = PlantConfig(alpha_ng_hwg=1.0, alpha_e_hwg=0.0)
        action = ControlAction(p_hwg=100.0)
        cost = stage_cost(config, action, Disturbance(0, 0, 0, 0.0))
        assert cost == pytest.approx(0.018 * 100.0)

    @given(lam=st.floats(0.0, 4.0))
    def test_linear_in_action(self, lam):
        config = PlantConfig()
        base = ControlAction(p_cs=100.0, p_hrc=50.0, p_hwg=80.0, p_ct=150.0)
        scaled = ControlAction(*(lam * v for v in base.as_array()))
        dist = Disturbance(0.0, 0.0, 0.0, 0.07)
        assert stage_cost(config, scaled, dist) == pytest.approx(
            lam * stage_cost(config, base, dist), abs=1e-9
        )


ALPHAS = ("alpha_e_cs", "alpha_e_hrc", "alpha_e_hwg", "alpha_e_ct",
          "alpha_w_ct", "alpha_ng_hwg", "alpha_cond_cs", "alpha_h_hrc")
TOLS = (0.0, 1e-9, 1e-6)


@st.composite
def model_cases(draw):
    """A random plant, zero coefficients included, with a tolerance and an
    action whose every rate sits on, just inside or just outside a limit,
    or anywhere in (and a little beyond) its range."""
    alphas = {a: draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))) for a in ALPHAS}
    pmax = {f"pmax_{u}": draw(st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
            for u in UNITS}
    config = PlantConfig(**alphas, **pmax, cap_cw=2e4, cap_hw=2e4)
    tol = draw(st.sampled_from(TOLS))
    lower, upper = rate_bounds(config)
    nudges = st.sampled_from((0.0, 0.5, 1.0, 2.0, 1e3))
    rates = []
    for lo, hi in zip(lower, upper):
        edge = st.tuples(st.sampled_from((lo, hi)), nudges, st.sampled_from((-1.0, 1.0)))
        rate = draw(st.one_of(
            edge.map(lambda e: e[0] + e[2] * e[1] * tol),
            st.sampled_from((lo, hi)).map(lambda b: float(np.nextafter(b + tol, np.inf))),
            st.floats(lo - 10.0, hi + 10.0),
        ))
        rates.append(rate)
    loads = draw(st.tuples(*[st.floats(0.0, 1e5)] * 3, st.floats(-1.0, 1.0)))
    slacks = draw(st.tuples(*[st.floats(0.0, 1e4)] * 4))
    return config, tol, ControlAction(*rates), Disturbance(*loads), slacks


class TestLinearModel:
    """The matrix forms against the formulas written out term by term."""

    @given(model_cases())
    def test_matches_the_term_by_term_formulas(self, case):
        config, tol, action, dist, slacks = case
        scale = (1.0 + max(getattr(config, a) for a in ALPHAS)) * (
            np.abs(action.as_array()).sum() + sum(slacks) + dist.load_elec
            + dist.load_cw + dist.load_hw)
        np.testing.assert_allclose(
            residual_demands(config, action, dist.load_elec),
            residual_demands_terms(config, action, dist.load_elec),
            rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(
            balance_residuals(config, action, dist, slacks),
            balance_residuals_terms(config, action, dist, slacks),
            rtol=1e-12, atol=1e-12 * scale)
        assert action.within_bounds(config, tol) == within_bounds_loops(action, config, tol)

    def test_rate_bounds(self, config):
        lower, upper = rate_bounds(config)
        assert lower.tolist() == [0.0] * 5 + [-config.pmax_cw, -config.pmax_hw]
        assert upper.tolist() == [config.pmax(u) for u in UNITS]


class TestDemandDiscount:
    def test_clamped_above(self):
        assert demand_discount(336, 168) == 1.0

    def test_midway(self):
        assert demand_discount(84, 168) == 0.5

    def test_clamped_below(self):
        assert demand_discount(0, 168) == pytest.approx(1.0 / 168)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            demand_discount(10, 0)

    @given(hours=st.integers(0, 2000), n=st.integers(1, 500))
    def test_bounded_and_monotone(self, hours, n):
        value = demand_discount(hours, n)
        assert 1.0 / n <= value <= 1.0
        if hours > 0:
            assert demand_discount(hours - 1, n) <= value


class TestConfigValidation:
    def test_discharge_exceeds_capacity(self):
        with pytest.raises(ValueError, match="pmax_cw"):
            PlantConfig(pmax_cw=1000.0, cap_cw=500.0)

    def test_negative_coefficient(self):
        with pytest.raises(ValueError):
            PlantConfig(alpha_e_cs=-0.1)


class TestDisturbance:
    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            Disturbance(-1.0, 0.0, 0.0, 0.05)

    def test_negative_price_accepted(self):
        assert Disturbance(0.0, 0.0, 0.0, -0.02).price_elec == -0.02

    def test_trajectory_shape_checked(self):
        with pytest.raises(ValueError):
            DisturbanceTrajectory(np.zeros((3, 10)))

    def test_trajectory_slicing(self):
        values = np.arange(40, dtype=float).reshape(4, 10)
        traj = DisturbanceTrajectory(values)
        part = traj.slice(2, 5)
        assert len(part) == 3
        assert part.at(0).load_elec == values[0, 2]


class TestPlantState:
    def test_negative_integrator_rejected(self):
        with pytest.raises(ValueError):
            PlantState(e_cw=0.0, e_hw=0.0, ul_cw=-1.0)

    def test_negative_peak_rejected(self):
        with pytest.raises(ValueError):
            PlantState(e_cw=0.0, e_hw=0.0, peak=-5.0)
