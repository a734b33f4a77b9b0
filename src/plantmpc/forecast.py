"""Autoregressive forecasting, scenario sets, and synthetic campus data.

Each disturbance channel (electrical load, chilled/hot water load,
electricity price) gets its own AR(q) model fit by ordinary least squares
over a sliding history window.  ``fit_ar`` never forms the lagged design
matrix: it builds the (q+1) x (q+1) normal equations from lag products by
the covariance-method recursion of linear prediction (Makhoul, "Linear
prediction: a tutorial review", Proc. IEEE 1975), and adds a ridge only
when their 2-norm condition number exceeds ``_COND_LIMIT``.

Multi-step forecasts are Gaussian and both moments come from the unit
lower-triangular Toeplitz matrix A of the AR recursion over the horizon
(``_recursion_matrix``).  The mean is one forward substitution with A
(``mean_forecast``), equal up to roundoff to running the noise-free
recursion step by step.  The substitution is LAPACK's ``dtrtrs`` from
scipy's extension ``scipy.linalg._flapack``, loaded from its file
(``_extension``) because scipy.linalg's package would add 297 modules and
about 23 MB of peak memory to every process.  ``_solve_unit_lower`` calls
it with the arguments that ``scipy.linalg.solve_triangular`` passes it,
and it is the function object that ``solve_triangular`` calls, so the
forecasts have that function's roundoff, bit for bit.  A's inverse is the
lower-triangular Toeplitz matrix T of the impulse weights
(``impulse_weights``), so the covariance is sigma^2 T T^T, which is exact
for a linear AR process.  The closed loop draws its scenario sets from
these forecasts (``simulate._ScenarioSampler``).
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._extension import load_scipy_extension
from .plant import CHANNELS, DisturbanceTrajectory

_dtrtrs = load_scipy_extension("scipy.linalg._flapack").dtrtrs

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


def _normal_equations(x: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations (D^T D, D^T y) of the AR(q) least-squares fit.

    Row t = q..L-1 of the design D holds the lags x_{t-1}, ..., x_{t-q} and
    a trailing 1, and y_t = x_t; neither D nor y is formed.  Counting the
    target as lag 0, the lag products
    phi[i, j] = sum_{t=q}^{L-1} x_{t-i} x_{t-j} (i, j = 0..q) shift along
    each diagonal by two boundary terms,
    phi[i+1, j+1] = phi[i, j] + x_{q-1-i} x_{q-1-j} - x_{L-1-i} x_{L-1-j}.
    So one correlation gives the first row phi[0, d], and diagonal d is that
    entry plus the exclusive cumulative sum of its boundary terms.  The lag
    block of D^T D is phi[1:, 1:] and the lag moments are phi[1:, 0]; the
    intercept entries are window sums, taken from one cumulative sum of x.
    """
    length, n = len(x), q + 1
    # head[m] = x_{q-1-m} and tail[m] = x_{L-1-m} for m < q, zero after, so
    # the Hankel views hold head[m+d] and tail[m+d] at [d, m].
    head = np.zeros(2 * q)
    head[:q] = x[q - 1 :: -1]
    tail = np.zeros(2 * q)
    tail[:q] = x[length - 1 : length - 1 - q : -1]
    boundary = (sliding_window_view(head, q)[:q] * head[:q]
                - sliding_window_view(tail, q)[:q] * tail[:q])
    # work[d, c] = phi[c + d, c] for d <= q; the last row holds the
    # intercept entries, and ``_gram_index`` gathers D^T D from it all.
    work = np.zeros((n + 1, n))
    diagonals = work[:n]
    np.cumsum(boundary, axis=1, out=diagonals[:q, 1:])
    diagonals += np.correlate(x, x[q:], "valid")[::-1, None]

    sums = np.concatenate(([0.0], np.cumsum(x)))
    lag = np.arange(q)
    work[n, :q] = sums[length - 1 - lag] - sums[q - 1 - lag]
    work[n, q] = length - q
    gram = work.ravel()[_gram_index(q)]
    moment = np.empty(n)
    moment[:q] = diagonals[1:, 0]
    moment[q] = sums[length] - sums[q]
    return gram, moment


@functools.lru_cache(maxsize=8)
def _gram_index(q: int) -> np.ndarray:
    """Where ``_normal_equations`` finds each entry of the AR(q) normal
    matrix in its flattened (q + 2) x (q + 1) work array (int32): the lag
    product of lags i and j at diagonal |i - j|, column min(i, j), and the
    intercept entries in the last row.  Cached: at q = 168 the indices
    would otherwise be three (q + 1)^2 temporaries per fit."""
    n = q + 1
    lag = np.arange(1, n, dtype=np.int32)
    index = np.empty((n, n), dtype=np.int32)
    index[:q, :q] = np.abs(lag[:, None] - lag) * n + np.minimum(lag[:, None], lag)
    index[:q, q] = index[q, :q] = n * n + np.arange(q, dtype=np.int32)
    index[q, q] = n * n + q
    index.setflags(write=False)
    return index


def fit_ar(history: np.ndarray, q: int) -> ArModel:
    """Least-squares AR(q) fit with an intercept, from lag-product sums.

    Solves the normal equations of ``_normal_equations`` for
    (phi_1, ..., phi_q, c).  When their 2-norm condition number (largest
    over smallest absolute eigenvalue) is not finite or exceeds
    ``_COND_LIMIT``, a ridge of 1e-6 times the mean lag-block diagonal is
    added to the lag coefficients, and raised tenfold while the solve
    still fails.  The noise variance is the mean squared one-step residual
    over the window, computed by one correlation of the history with the
    coefficients.

    A ridge fit is refined once.  Without a ridge the residual sum of
    squares is stationary at the solution, so the roundoff of the
    lag-product sums moves the noise variance only to second order; with
    one it moves it to first order: 6e-10 relative on a length-23 window at
    q = 11 (condition number 1e12), against 5e-11 for a fit from the
    explicit design (60-digit reference).  The refinement step solves the
    same ridge system for the normal-equation residual taken from the
    one-step residuals themselves; on that window the result is within
    1e-13 relative.
    """
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("history contains non-finite values")
    if q < 1:
        raise ValueError("AR order must be >= 1")
    if len(x) < 2 * q + 1:
        raise ValueError(f"history of {len(x)} too short for AR({q}) fit")

    gram, moment = _normal_equations(x, q)
    eigenvalues = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = eigenvalues.max() / eigenvalues.min()
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

    residuals = _residuals(x, theta)
    if lam:
        gradient = np.append(np.correlate(x[:-1], residuals, "valid")[::-1],
                             residuals.sum())
        gradient[:q] -= lam * theta[:q]
        theta = theta + np.linalg.solve(gram + ridge, gradient)
        residuals = _residuals(x, theta)
    return ArModel(
        coefficients=theta[:q],
        intercept=float(theta[q]),
        noise_variance=float(np.mean(residuals**2)),
    )


def _residuals(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One-step residuals of the AR fit (phi_1, ..., phi_q, c) over ``x``."""
    q = len(theta) - 1
    return x[q:] - (np.correlate(x[:-1], theta[q - 1 :: -1], "valid") + theta[q])


def _lower_toeplitz(column: np.ndarray) -> np.ndarray:
    """C-contiguous lower-triangular Toeplitz matrix with first column ``column``.

    Row i is the window of [column reversed, n - 1 zeros] that starts at
    n - 1 - i, i.e. [column[i], ..., column[0], 0, ...].
    """
    n = len(column)
    padded = np.concatenate((column[::-1], np.zeros(n - 1)))
    return np.ascontiguousarray(sliding_window_view(padded, n)[::-1])


def _solve_unit_lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a unit lower-triangular ``a``, by LAPACK's dtrtrs.

    It makes the call that scipy 1.17's ``solve_triangular(a, b,
    lower=True, unit_diagonal=True, check_finite=False)`` makes: dtrtrs
    reads a Fortran-ordered matrix, so a C-ordered ``a`` is passed as its
    transpose, an upper-triangular system solved transposed.  ``b`` may be
    a vector or a matrix of right-hand sides.
    """
    if a.flags.f_contiguous:
        x, info = _dtrtrs(a, b, lower=1, trans=0, unitdiag=1)
    else:
        x, info = _dtrtrs(a.T, b, lower=0, trans=1, unitdiag=1)
    if info != 0:
        raise ValueError(f"LAPACK dtrtrs failed with info = {info}")
    return x


def _recursion_matrix(model: ArModel, n: int) -> np.ndarray:
    """Unit lower-triangular Toeplitz A of the AR recursion over n steps.

    Its first column is [1, -phi_1, ..., -phi_min(q, n-1), 0, ...].
    """
    reach = min(model.order, n - 1)
    column = np.zeros(n)
    column[0] = 1.0
    column[1 : reach + 1] = -model.coefficients[:reach]
    return _lower_toeplitz(column)


def impulse_weights(
    model: ArModel, n: int, recursion: np.ndarray | None = None
) -> np.ndarray:
    """First n weights of the AR impulse response (psi_0 = 1).

    psi solves A psi = e_0 with A the recursion matrix, so it is the first
    column of A's inverse.  ``recursion`` is A when the caller holds it,
    as in ``mean_forecast``.
    """
    unit = np.zeros(n)
    unit[0] = 1.0
    if recursion is None:
        recursion = _recursion_matrix(model, n)
    return _solve_unit_lower(recursion, unit)


def mean_forecast(
    model: ArModel,
    recent_history: np.ndarray,
    n: int,
    recursion: np.ndarray | None = None,
) -> np.ndarray:
    """Noise-free n-step continuation of the AR model, without a step loop.

    The forecast y follows y_i = c + sum_k phi_k y_{i-k}, where y_{-1},
    y_{-2}, ... are the history values x_{-1} (the last), x_{-2}, ...
    Moving the forecast terms to the left gives the unit lower-triangular
    Toeplitz system A y = b, with A from ``_recursion_matrix`` and
    b_i = c + sum_j phi_{i+1+j} x_{-1-j} for i < min(q, n), b_i = c after
    that.  One forward substitution solves it, so the result equals the
    step-by-step recursion up to roundoff.  A caller that forecasts from
    the same model many times passes A as ``recursion``, built once by
    ``_recursion_matrix(model, n)``.
    """
    recent = np.asarray(recent_history, dtype=float)
    q = model.order
    if len(recent) < q:
        raise ValueError(f"need at least {q} recent values")
    if n < 1:
        raise ValueError("forecast horizon must be >= 1")
    # Lag i of the correlation is sum_j phi_{i+1+j} x_{-1-j}.
    history = np.correlate(model.coefficients, recent[::-1][:q], "full")[q - 1 :]
    rhs = np.full(n, model.intercept)
    rhs[: min(q, n)] += history[:n]
    if recursion is None:
        recursion = _recursion_matrix(model, n)
    return _solve_unit_lower(recursion, rhs)


def forecast(
    model: ArModel,
    recent_history: np.ndarray,
    n: int,
    recursion: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian n-step forecast: (mean trajectory, n x n covariance).

    The forecast error is T eps over the horizon's innovations eps, with T
    the lower-triangular Toeplitz matrix of the impulse weights, so the
    covariance is sigma^2 T T^T: cov[i, j] = sigma^2 *
    sum_{k<=min(i,j)} psi_k psi_{k+|i-j|}.  For sigma > 0 its Cholesky
    factor is sigma T.  ``recursion``, A when the caller holds it, is
    passed on to ``mean_forecast`` and ``impulse_weights``.
    """
    mean = mean_forecast(model, recent_history, n, recursion)
    weights = _lower_toeplitz(impulse_weights(model, n, recursion))
    return mean, model.noise_variance * (weights @ weights.T)


@dataclass(frozen=True)
class ScenarioSet:
    """Disturbance scenarios, values shaped (s, 4, n), and their
    probabilities, (s,), nonnegative and summing to 1; 1/s each when not
    given."""

    values: np.ndarray
    probabilities: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.values.ndim != 3 or self.values.shape[1] != len(CHANNELS):
            raise ValueError("values must have shape (s, 4, n)")
        if np.any(self.values[:, :3, :] < 0):
            raise ValueError("load channels must be clamped nonnegative")
        s = self.values.shape[0]
        if self.probabilities is None:
            probabilities = np.full(s, 1.0 / s)
        else:
            probabilities = np.asarray(self.probabilities, dtype=float)
            if probabilities.shape != (s,):
                raise ValueError(f"expected {s} probabilities, got shape "
                                 f"{probabilities.shape}")
            if not (np.all(np.isfinite(probabilities)) and np.all(probabilities >= 0)
                    and abs(probabilities.sum() - 1.0) <= 1e-9):
                raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "probabilities", probabilities)

    @property
    def equally_weighted(self) -> bool:
        return bool(np.all(self.probabilities == 1.0 / len(self.probabilities)))


def scenario_distances(values: np.ndarray) -> np.ndarray:
    """Euclidean distances between the scenarios of (S, 4, N) ``values``.

    Each scenario is its (4, N) deviation from the scenario mean, each
    channel-step divided by its spread over the scenarios (its standard
    deviation, 1 where that is zero), so every channel and step counts
    alike.  Row by row, so the matrix is exactly symmetric.
    """
    spread = values.std(axis=0)
    spread[spread == 0.0] = 1.0
    z = ((values - values.mean(axis=0)) / spread).reshape(len(values), -1)
    return np.stack([np.linalg.norm(z - row, axis=1) for row in z])


def fast_forward_selection(distances: np.ndarray, probabilities: np.ndarray,
                           k: int) -> np.ndarray:
    """The indices of ``k`` scenarios, in the order fast forward selection
    picks them (Heitsch and Römisch, Scenario reduction algorithms in
    stochastic programming, Comput. Optim. Appl. 24, 2003).

    Each step adds the scenario that leaves the least probability-weighted
    distance from every scenario to its nearest selected one; ties go to
    the lowest index.
    """
    nearest = np.full(len(probabilities), np.inf)
    chosen: list[int] = []
    for _ in range(min(k, len(probabilities))):
        cost = probabilities @ np.minimum(nearest[:, None], distances)
        cost[chosen] = np.inf
        u = int(np.argmin(cost))
        chosen.append(u)
        nearest = np.minimum(nearest, distances[:, u])
    return np.array(chosen, dtype=np.intp)


def reduce_scenarios(scenarios: ScenarioSet, k: int) -> tuple[np.ndarray, ScenarioSet]:
    """Keep ``k`` of ``scenarios`` by fast forward selection over
    ``scenario_distances``: the kept indices, ascending, and their set.

    Each dropped scenario's probability goes to its nearest kept one (ties
    to the lowest index; Dupačová, Gröwe-Kuska and Römisch, Scenario
    reduction in stochastic programming, Math. Program. 95, 2003).  A set
    of at most ``k`` scenarios is returned as it is.
    """
    s = len(scenarios.values)
    if s <= k:
        return np.arange(s), scenarios
    distances = scenario_distances(scenarios.values)
    kept = np.sort(fast_forward_selection(distances, scenarios.probabilities, k))
    owner = np.argmin(distances[:, kept], axis=1)
    owner[kept] = np.arange(k)
    probabilities = np.bincount(owner, weights=scenarios.probabilities, minlength=k)
    return kept, ScenarioSet(scenarios.values[kept], probabilities)


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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in ("noise_clip", "floor"):
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not abs(self.noise_phi) < 1:
            raise ValueError(f"noise_phi must lie in (-1, 1), got {self.noise_phi}")
        if self.noise_clip is not None and self.noise_clip <= 0:
            raise ValueError(f"noise_clip must be > 0, got {self.noise_clip}")


@dataclass(frozen=True)
class SeasonalProfile:
    load_elec: ChannelProfile
    load_cw: ChannelProfile
    load_hw: ChannelProfile
    price_elec: ChannelProfile
    start_weekday: int = 0

    def __post_init__(self) -> None:
        if (isinstance(self.start_weekday, bool)
                or not isinstance(self.start_weekday, numbers.Integral)):
            raise ValueError(
                f"start_weekday must be an integer, got {self.start_weekday!r}"
            )


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
    history: np.ndarray, q: int, model: ArModel | None = None,
) -> tuple[float, float]:
    """Estimate (prediction-error variance, integrated-load variance).

    The one-step prediction error comes from an AR(q) fit of ``history``,
    ``model`` when the caller already holds that fit.
    """
    x = np.asarray(history, dtype=float)
    if model is None:
        model = fit_ar(x, q)
    elif model.order != q:
        raise ValueError(f"model has order {model.order}, expected {q}")
    var_err = model.noise_variance
    # The integrated variance assumes linear interpolation of the hourly
    # samples, whose integral over an hour has variance Var(diff)/12.
    var_int = float(np.var(np.diff(x)) / 12.0)
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
    """The trajectory of a CSV file in ``write_trajectory_csv``'s format.

    A malformed row raises ValueError naming the file and the line: one
    with another number of cells than the header, an hour other than the
    next of 0, 1, 2, ..., a load or price that is not a finite number, or a
    negative load.  Blank lines are skipped.
    """
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(CSV_HEADER)}"
            )
        for row in filter(None, reader):
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} cells, got {len(row)}")
                if row[0] != str(len(rows)):
                    raise ValueError(f"expected hour {len(rows)}, got {row[0]!r}")
                values = [float(v) for v in row[1:]]
                for name, value in zip(CSV_HEADER[1:], values):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} must be finite, got {value}")
                    if name.startswith("load_") and value < 0:
                        raise ValueError(f"{name} must be >= 0, got {value}")
                rows.append(values)
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DisturbanceTrajectory(np.asarray(rows).T)
