"""Central-plant domain types and the plant's linear model.

The plant couples a chiller subplant (cs), a heat-recovery chiller (hrc), a
hot-water generator (hwg), cooling towers (ct), a dump heat exchanger (hx),
and two thermal storage tanks (cw, hw).  All dynamics use a one-hour
sampling time so kW and kWh interconvert with factor 1.

The linear model is stated here once, as arrays over ``UNITS``: the balance
rows (``balance_matrix``), the utility draws (``utility_matrix``) and the
rate limits (``rate_bounds``).  The controller program, restoration and the
hour's bookkeeping read it from these.  Every operation here is a pure
function of immutable inputs.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: All controllable units, in canonical order.  The first five are
#: production units (rates >= 0); the last two are the storage tanks
#: (signed rates, discharge > 0).
UNITS = ("cs", "hrc", "hwg", "ct", "hx", "cw", "hw")
PRODUCTION_UNITS = UNITS[:5]
STORAGE_UNITS = UNITS[5:]

#: Disturbance channels, in canonical order.
CHANNELS = ("load_elec", "load_cw", "load_hw", "price_elec")


@dataclass(frozen=True)
class PlantConfig:
    """Conversion coefficients, capacities, rate limits, and tariffs.

    Electric coefficients are kW of electricity per kW of product; the
    cooling towers additionally consume ``alpha_w_ct`` gal of water per kWh
    of condenser duty and the hot-water generator ``alpha_ng_hwg`` kW of
    gas per kW of hot water.
    """

    alpha_e_cs: float = 0.20
    alpha_e_hrc: float = 0.25
    alpha_e_hwg: float = 0.02
    alpha_e_ct: float = 0.03
    alpha_w_ct: float = 1.5
    alpha_ng_hwg: float = 1.25
    alpha_cond_cs: float = 1.2
    alpha_h_hrc: float = 1.0
    # Production is sized below the coincident load peaks so the tanks are
    # needed for peak shaving; capacities run about four mean daily load
    # swings.
    cap_cw: float = 20000.0
    cap_hw: float = 12000.0
    pmax_cs: float = 6000.0
    pmax_hrc: float = 1500.0
    pmax_hwg: float = 4800.0
    pmax_ct: float = 10500.0
    pmax_hx: float = 3000.0
    pmax_cw: float = 5000.0
    pmax_hw: float = 3000.0
    price_water: float = 0.009
    price_gas: float = 0.018
    price_demand: float = 4.5
    rho_cw: float = 10.0
    rho_hw: float = 10.0

    def __post_init__(self) -> None:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        bad = [k for k, v in values.items() if not math.isfinite(v) or v < 0]
        if bad:
            raise ValueError(f"negative or non-finite plant parameters: {bad}")
        # One hour of maximum discharge must fit inside the tank.
        if self.pmax_cw > self.cap_cw:
            raise ValueError("pmax_cw exceeds cap_cw")
        if self.pmax_hw > self.cap_hw:
            raise ValueError("pmax_hw exceeds cap_hw")

    def pmax(self, unit: str) -> float:
        return getattr(self, f"pmax_{unit}")

    def cap(self, unit: str) -> float:
        return getattr(self, f"cap_{unit}")

    def rho(self, unit: str) -> float:
        return getattr(self, f"rho_{unit}")


@dataclass(frozen=True)
class Disturbance:
    """Realized or forecast exogenous conditions for one hour."""

    load_elec: float
    load_cw: float
    load_hw: float
    price_elec: float

    def __post_init__(self) -> None:
        # Electricity prices may be negative; loads may not.
        if min(self.load_elec, self.load_cw, self.load_hw) < 0:
            raise ValueError("loads must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.load_elec, self.load_cw, self.load_hw, self.price_elec]
        )


class DisturbanceTrajectory:
    """Hourly disturbance series stored channel-major as a (4, n) array.

    Row order follows :data:`CHANNELS`.  Load rows are expected to be
    nonnegative; the electricity price row is unrestricted.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != len(CHANNELS):
            raise ValueError(f"expected (4, n) array, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory contains non-finite values")
        if np.any(values[:3] < 0):
            raise ValueError("load channels must be nonnegative")
        self.values = values

    def __len__(self) -> int:
        return self.values.shape[1]

    def at(self, t: int) -> Disturbance:
        return Disturbance(*self.values[:, t])

    def slice(self, start: int, stop: int) -> "DisturbanceTrajectory":
        return DisturbanceTrajectory(self.values[:, start:stop])


@dataclass(frozen=True)
class ControlAction:
    """Operating loads for all units over one hour, in kW.

    Production rates are nonnegative; storage rates are signed with
    discharge positive and charge negative.
    """

    p_cs: float = 0.0
    p_hrc: float = 0.0
    p_hwg: float = 0.0
    p_ct: float = 0.0
    p_hx: float = 0.0
    p_cw: float = 0.0
    p_hw: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.p_cs, self.p_hrc, self.p_hwg, self.p_ct, self.p_hx,
             self.p_cw, self.p_hw]
        )

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ControlAction":
        return cls(*(float(v) for v in values))

    def rate(self, unit: str) -> float:
        return getattr(self, f"p_{unit}")

    def within_bounds(self, config: PlantConfig, tol: float = 1e-9) -> bool:
        lower, upper = rate_bounds(config)
        rates = self.as_array()
        return bool(np.all((rates >= lower - tol) & (rates <= upper + tol)))


ZERO_ACTION = ControlAction()


@dataclass(frozen=True)
class PlantState:
    """Storage levels, unmet/overmet integrators and the monthly peak.

    ``e_cw``/``e_hw`` are the tank contents in kWh.  The integrators hold
    the energy the capacity clamp has cut since the run began: ``ul`` what
    a tank could not deliver, ``ol`` what it could not take.  ``peak`` is
    the largest residual electrical demand realized so far in the current
    month; the closed loop resets it to zero after the month's last hour.
    """

    e_cw: float
    e_hw: float
    ul_cw: float = 0.0
    ul_hw: float = 0.0
    ol_cw: float = 0.0
    ol_hw: float = 0.0
    peak: float = 0.0

    def __post_init__(self) -> None:
        if min(self.ul_cw, self.ul_hw, self.ol_cw, self.ol_hw) < 0:
            raise ValueError("unmet/overmet integrators must be nonnegative")
        if self.peak < 0:
            raise ValueError("peak must be nonnegative")

    def storage(self, unit: str) -> float:
        return getattr(self, f"e_{unit}")


def balance_matrix(config: PlantConfig) -> np.ndarray:
    """Rate coefficients (3, 7) of the chilled-water and hot-water supply and
    of the condenser balance P_ct - alpha_cond * P_cs - P_hx."""
    c = config
    return np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                     [0.0, c.alpha_h_hrc, 1.0, 0.0, -1.0, 0.0, 1.0],
                     [-c.alpha_cond_cs, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0]])


def utility_matrix(config: PlantConfig) -> np.ndarray:
    """Utility draw (3, 7) per kW of each unit: electricity in kW, cooling
    tower make-up water in gal/h and hot-water generator gas in kW."""
    c = config
    return np.array([[c.alpha_e_cs, c.alpha_e_hrc, c.alpha_e_hwg, c.alpha_e_ct, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, c.alpha_w_ct, 0.0, 0.0, 0.0],
                     [0.0, 0.0, c.alpha_ng_hwg, 0.0, 0.0, 0.0, 0.0]])


def rate_bounds(config: PlantConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rate limits (lower, upper): production units run in [0, pmax], tanks
    charge and discharge in [-pmax, pmax]."""
    c = config
    return (np.array([0.0, 0.0, 0.0, 0.0, 0.0, -c.pmax_cw, -c.pmax_hw]),
            np.array([c.pmax_cs, c.pmax_hrc, c.pmax_hwg, c.pmax_ct, c.pmax_hx,
                      c.pmax_cw, c.pmax_hw]))


def residual_demands(
    config: PlantConfig, action: ControlAction, load_elec: float
) -> tuple[float, float, float]:
    """Utility quantities purchased from the market, given a control action.

    Returns ``(r_e, r_w, r_ng)``: residual electricity in kW (campus load
    plus equipment draw), cooling-tower make-up water in gal/h, and hot
    water generator gas in kW.
    """
    r_e, r_w, r_ng = utility_matrix(config).dot(action.as_array()).tolist()
    return r_e + load_elec, r_w, r_ng


def balance_residuals(
    config: PlantConfig,
    action: ControlAction,
    dist: Disturbance,
    slacks: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
) -> tuple[float, float, float]:
    """Chilled-water, hot-water, and condenser balance residuals.

    ``slacks`` is ``(s_un_cw, s_ov_cw, s_un_hw, s_ov_hw)``.  All three
    residuals are zero (within solver tolerance) for any feasible dispatch.
    """
    s_un_cw, s_ov_cw, s_un_hw, s_ov_hw = slacks
    cw_res, hw_res, cond_res = balance_matrix(config).dot(action.as_array()).tolist()
    return (
        cw_res + s_un_cw - s_ov_cw - dist.load_cw,
        hw_res + s_un_hw - s_ov_hw - dist.load_hw,
        cond_res,
    )


def stage_cost(config: PlantConfig, action: ControlAction, dist: Disturbance) -> float:
    """Hourly utility cost in $/h: electricity + water + natural gas."""
    residuals = residual_demands(config, action, dist.load_elec)
    return purchase_cost(config, residuals, dist.price_elec)


def purchase_cost(
    config: PlantConfig, residuals: tuple[float, float, float], price_elec: float
) -> float:
    """Cost in $/h of the purchases ``(r_e, r_w, r_ng)`` at ``price_elec``."""
    r_e, r_w, r_ng = residuals
    return price_elec * r_e + config.price_water * r_w + config.price_gas * r_ng


def demand_discount(hours_to_month_end: int, horizon_n: int) -> float:
    """Demand-charge discount factor, clamped to [1/N, 1].

    The raw factor min{(t_m - t)/N, 1} reaches zero at the month boundary
    where it would divide the objective coefficient; the lower clamp keeps
    that coefficient finite.
    """
    if horizon_n < 1:
        raise ValueError("horizon_n must be >= 1")
    raw = min(hours_to_month_end / horizon_n, 1.0)
    return max(raw, 1.0 / horizon_n)

