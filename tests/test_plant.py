import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plantmpc.plant import (
    ControlAction,
    Disturbance,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_residuals,
    demand_discount,
    residual_demands,
    stage_cost,
)


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

    def test_json_round_trip(self):
        config = PlantConfig(alpha_e_cs=0.33, cap_cw=12345.0)
        again = PlantConfig.from_json(config.to_json())
        assert again == config

    def test_json_field_names(self):
        data = json.loads(PlantConfig().to_json())
        expected = {
            "alpha_e_cs", "alpha_e_hrc", "alpha_e_hwg", "alpha_e_ct",
            "alpha_w_ct", "alpha_ng_hwg", "alpha_cond_cs", "alpha_h_hrc",
            "cap_cw", "cap_hw", "pmax_cs", "pmax_hrc", "pmax_hwg", "pmax_ct",
            "pmax_hx", "pmax_cw", "pmax_hw", "price_water", "price_gas",
            "price_demand", "rho_cw", "rho_hw",
        }
        assert set(data) == expected

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PlantConfig.from_json('{"alpha_e_cs": 0.2, "bogus": 1}')


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
