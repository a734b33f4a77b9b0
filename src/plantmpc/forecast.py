"""Autoregressive forecasting, scenario sampling, and synthetic campus data.

Each disturbance channel (electrical load, chilled/hot water load,
electricity price) gets its own AR(q) model fit by ordinary least squares.
Multi-step forecasts are Gaussian: the mean follows the noise-free AR
recursion and the covariance accumulates impulse-response weights, which
is exact for a linear AR process.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .plant import CHANNELS, DisturbanceTrajectory

#: Ill-conditioning threshold beyond which the OLS normal equations are
#: re-solved with a ridge term.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ArModel:
    """AR(q) model x_t = sum_k phi_k x_{t-k} + c + eps, eps ~ N(0, sigma^2)."""

    coefficients: np.ndarray
    intercept: float
    noise_variance: float

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.coefficients)


def fit_ar(history: np.ndarray, q: int) -> ArModel:
    """Least-squares AR(q) fit with a ridge fallback on singular designs."""
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("history contains non-finite values")
    if len(x) < 2 * q + 1:
        raise ValueError(f"history of {len(x)} too short for AR({q}) fit")

    rows = len(x) - q
    design = np.empty((rows, q + 1))
    for k in range(q):
        design[:, k] = x[q - 1 - k : len(x) - 1 - k]
    design[:, q] = 1.0
    target = x[q:]

    gram = design.T @ design
    moment = design.T @ target
    cond = np.linalg.cond(gram)
    lam = 0.0
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        lam = max(1e-6 * np.trace(gram[:q, :q]) / q, 1e-12)
    theta = None
    for _ in range(8):
        try:
            ridge = np.diag(np.append(np.full(q, lam), 0.0)) if lam else 0.0
            theta = np.linalg.solve(gram + ridge, moment)
            break
        except np.linalg.LinAlgError:
            lam = max(10.0 * lam, 1e-12)
    if theta is None:
        raise ValueError("AR normal equations unsolvable even with ridge")

    residuals = target - design @ theta
    return ArModel(
        coefficients=theta[:q],
        intercept=float(theta[q]),
        noise_variance=float(np.mean(residuals**2)),
    )


def impulse_weights(model: ArModel, n: int) -> np.ndarray:
    """First n weights of the AR impulse response (psi_0 = 1)."""
    q = model.order
    psi = np.zeros(n)
    psi[0] = 1.0
    for k in range(1, n):
        upto = min(k, q)
        psi[k] = model.coefficients[:upto] @ psi[k - upto : k][::-1]
    return psi


def mean_forecast(model: ArModel, recent_history: np.ndarray, n: int) -> np.ndarray:
    """Noise-free continuation of the AR recursion for n steps."""
    recent = np.asarray(recent_history, dtype=float)
    q = model.order
    if len(recent) < q:
        raise ValueError(f"need at least {q} recent values")
    if n < 1:
        raise ValueError("forecast horizon must be >= 1")
    window = np.concatenate([recent[-q:], np.zeros(n)])
    coeffs = model.coefficients
    for i in range(n):
        window[q + i] = coeffs @ window[i : q + i][::-1] + model.intercept
    return window[q:]


def forecast(
    model: ArModel, recent_history: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian n-step forecast: (mean trajectory, n x n covariance).

    The covariance entry for steps (i, j) is sigma^2 times the accumulated
    product of impulse weights, cov[i, j] = sigma^2 * sum_{k<=min(i,j)}
    psi_k psi_{k+|i-j|}.
    """
    mean = mean_forecast(model, recent_history, n)

    psi = impulse_weights(model, n)
    cov = np.zeros((n, n))
    for lag in range(n):
        csum = np.cumsum(psi[: n - lag] * psi[lag:])
        idx = np.arange(n - lag)
        cov[idx, idx + lag] = model.noise_variance * csum
        if lag:
            cov[idx + lag, idx] = cov[idx, idx + lag]
    return mean, cov


@dataclass(frozen=True)
class ForecastDistribution:
    """Per-channel Gaussian forecast: means (4, n) and covariances (4, n, n).

    Channel order follows :data:`plantmpc.plant.CHANNELS`.
    """

    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        if self.means.shape[0] != len(CHANNELS) or self.means.ndim != 2:
            raise ValueError("means must have shape (4, n)")
        n = self.means.shape[1]
        if self.covariances.shape != (len(CHANNELS), n, n):
            raise ValueError("covariances must have shape (4, n, n)")
        if not (np.all(np.isfinite(self.means))
                and np.all(np.isfinite(self.covariances))):
            raise ValueError("non-finite forecast distribution")

    @property
    def horizon(self) -> int:
        return self.means.shape[1]

    def mean_trajectory(self) -> DisturbanceTrajectory:
        return DisturbanceTrajectory(np.maximum(self.means, _load_floor(self.horizon)))


@dataclass(frozen=True)
class ScenarioSet:
    """Equally weighted disturbance scenarios, values shaped (s, 4, n)."""

    values: np.ndarray
    unclamped: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 3 or self.values.shape[1] != len(CHANNELS):
            raise ValueError("values must have shape (s, 4, n)")
        if np.any(self.values[:, :3, :] < 0):
            raise ValueError("load channels must be clamped nonnegative")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[2]

    @property
    def probability(self) -> float:
        return 1.0 / self.count

    def scenario(self, i: int) -> DisturbanceTrajectory:
        return DisturbanceTrajectory(self.values[i])


def _load_floor(n: int) -> np.ndarray:
    floor = np.full((len(CHANNELS), n), -np.inf)
    floor[:3] = 0.0
    return floor


def _jittered_cholesky(cov: np.ndarray) -> np.ndarray:
    if not np.any(cov):
        return np.zeros_like(cov)
    scale = max(float(np.max(np.diag(cov))), 1.0)
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            bump = jitter * scale * np.eye(cov.shape[0])
            return np.linalg.cholesky(cov + bump)
        except np.linalg.LinAlgError:
            continue
    raise ValueError("covariance is not PSD even after 1e-8 jitter")


def sample_scenarios(
    dist: ForecastDistribution, s: int, seed
) -> ScenarioSet:
    """Monte Carlo scenarios: mean + L z per channel, loads clamped at 0.

    ``seed`` may be an int or a numpy Generator; a fixed seed yields a
    bit-identical scenario set.
    """
    if s < 1:
        raise ValueError("scenario count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = dist.horizon
    raw = np.empty((s, len(CHANNELS), n))
    for ch in range(len(CHANNELS)):
        factor = _jittered_cholesky(dist.covariances[ch])
        z = rng.standard_normal((s, n))
        raw[:, ch, :] = dist.means[ch] + z @ factor.T
    clamped = np.maximum(raw, _load_floor(n))
    return ScenarioSet(values=clamped, unclamped=raw)


# --- synthetic campus data ---------------------------------------------------

@dataclass(frozen=True)
class ChannelProfile:
    """Shape parameters for one synthetic disturbance channel.

    The deterministic part is ``base + daily + annual`` scaled by the
    weekend factor on Saturdays/Sundays; AR(1) noise with stationary
    standard deviation ``noise_std`` rides on top.
    """

    base: float
    daily_amp: float = 0.0
    annual_amp: float = 0.0
    daily_phase: float = 15.0
    annual_peak_day: float = 200.0
    weekend_factor: float = 1.0
    noise_std: float = 0.0
    noise_phi: float = 0.8
    #: Optional cap on the colored noise, in stationary standard
    #: deviations; bounds worst-case excursions so plant sizing can
    #: guarantee feasibility under full information.
    noise_clip: float | None = None
    floor: float | None = 0.0


@dataclass(frozen=True)
class SeasonalProfile:
    load_elec: ChannelProfile
    load_cw: ChannelProfile
    load_hw: ChannelProfile
    price_elec: ChannelProfile
    start_weekday: int = 0


#: Out-of-the-box campus: summer-peaking cooling, winter-peaking heating,
#: weekday/weekend structure, and a volatile afternoon-peaking price.
DEFAULT_PROFILE = SeasonalProfile(
    load_elec=ChannelProfile(
        base=9000.0, daily_amp=2500.0, annual_amp=1500.0,
        weekend_factor=0.75, noise_std=400.0,
    ),
    load_cw=ChannelProfile(
        base=5000.0, daily_amp=2000.0, annual_amp=2500.0,
        weekend_factor=0.8, noise_std=350.0,
    ),
    load_hw=ChannelProfile(
        base=3500.0, daily_amp=1000.0, annual_amp=-1800.0,
        weekend_factor=0.8, noise_std=250.0,
    ),
    price_elec=ChannelProfile(
        base=0.06, daily_amp=0.025, annual_amp=0.01,
        weekend_factor=0.9, noise_std=0.006, floor=None,
    ),
)


def generate_synthetic_campus(
    seed, days: int, profile: SeasonalProfile = DEFAULT_PROFILE
) -> DisturbanceTrajectory:
    """Hourly synthetic disturbance data with weekly and annual structure."""
    if days < 1:
        raise ValueError("days must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    hours = 24 * days
    t = np.arange(hours)
    hour_of_day = t % 24
    day = t // 24
    weekend = (profile.start_weekday + day) % 7 >= 5

    values = np.empty((len(CHANNELS), hours))
    for ch, name in enumerate(CHANNELS):
        p: ChannelProfile = getattr(profile, name)
        det = (
            p.base
            + p.daily_amp * np.sin(2 * np.pi * (hour_of_day - p.daily_phase + 6.0) / 24.0)
            + p.annual_amp * np.sin(2 * np.pi * (day - p.annual_peak_day + 91.25) / 365.0)
        )
        det = np.where(weekend, p.weekend_factor * det, det)
        noise = np.zeros(hours)
        if p.noise_std > 0:
            innov = rng.standard_normal(hours) * p.noise_std * np.sqrt(
                max(1.0 - p.noise_phi**2, 0.0)
            )
            noise[0] = rng.standard_normal() * p.noise_std
            for i in range(1, hours):
                noise[i] = p.noise_phi * noise[i - 1] + innov[i]
        else:
            # Keep the stream position independent of noise settings.
            rng.standard_normal(hours + 1)
        if p.noise_clip is not None:
            bound = p.noise_clip * p.noise_std
            noise = np.clip(noise, -bound, bound)
        series = det + noise
        if p.floor is not None:
            series = np.maximum(series, p.floor)
        values[ch] = series
    return DisturbanceTrajectory(values)


# --- zero-order-hold storage noise -------------------------------------------

def zoh_noise(load_now, load_next, var_err, var_int, rng: np.random.Generator):
    """Draws of the intra-hour storage tracking error, in kWh.

    One draw per element of ``load_now``/``load_next`` (scalars or arrays
    of consecutive hourly loads).  The mean is negative when the load rises
    (the tank discharges more than planned to follow it); the variance
    combines the one-step load prediction error with the integrated
    sub-hourly variability.
    """
    if var_err < 0 or var_int < 0:
        raise ValueError("variances must be nonnegative")
    mean = -0.5 * (load_next - load_now)
    return rng.normal(mean, zoh_std(var_err, var_int))


def zoh_std(var_err: float, var_int: float) -> float:
    """Standard deviation of one intra-hour tracking-error draw (kWh)."""
    return np.sqrt(0.25 * var_err + var_int)


def estimate_zoh_variances(
    history: np.ndarray, q: int, interpolation_divisor: float = 12.0
) -> tuple[float, float]:
    """Estimate (prediction-error variance, integrated-load variance).

    The one-step prediction error comes from an AR(q) fit; the integrated
    variance assumes linear interpolation of the hourly samples, whose
    integral over an hour has variance Var(diff)/12 (divisor overridable).
    """
    x = np.asarray(history, dtype=float)
    var_err = fit_ar(x, q).noise_variance
    var_int = float(np.var(np.diff(x)) / interpolation_divisor)
    return var_err, var_int


# --- CSV interchange ----------------------------------------------------------

CSV_HEADER = ["hour", "load_elec_kw", "load_cw_kw", "load_hw_kw",
              "price_elec_usd_per_kwh"]


def write_trajectory_csv(path, traj: DisturbanceTrajectory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t in range(len(traj)):
            writer.writerow(
                [t] + [repr(float(traj.values[ch, t])) for ch in range(len(CHANNELS))]
            )


def read_trajectory_csv(path) -> DisturbanceTrajectory:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(CSV_HEADER)}"
            )
        rows = [[float(v) for v in row[1:]] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DisturbanceTrajectory(np.asarray(rows).T)
