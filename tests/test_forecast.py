import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plantmpc import forecast as fc, simulate

from oracles import (
    ar_covariance_loop,
    ar_design,
    ar_fit_design,
    ar_impulse_weights_loop,
    ar_forecast_scipy,
    ar_mean_recursion,
    ar_recursion_matrix_scipy,
    solve_unit_lower_scipy,
)


def ar_series(coeffs, intercept, noise_std, length, seed, x0=None):
    rng = np.random.default_rng(seed)
    q = len(coeffs)
    x = np.zeros(length + q)
    if x0 is not None:
        x[:q] = x0
    for t in range(q, length + q):
        x[t] = (
            np.dot(coeffs, x[t - q : t][::-1])
            + intercept
            + rng.normal(0.0, noise_std)
        )
    return x[q:]


class TestFitAr:
    def test_noiseless_ar1_recovered_exactly(self):
        x = ar_series([0.5], 1.0, 0.0, 50, seed=0, x0=[0.0])
        model = fc.fit_ar(x, 1)
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)
        assert model.noise_variance == pytest.approx(0.0, abs=1e-9)

    def test_constant_series_uses_ridge_and_predicts_level(self):
        x = np.full(40, 5.0)
        model = fc.fit_ar(x, 1)
        prediction = model.coefficients[0] * 5.0 + model.intercept
        assert prediction == pytest.approx(5.0, abs=1e-6)

    def test_ar3_monte_carlo_consistency(self):
        true = np.array([0.4, 0.3, 0.1])
        x = ar_series(true, 0.5, 1.0, 10_000, seed=42)
        model = fc.fit_ar(x, 3)
        assert np.all(np.abs(model.coefficients - true) < 0.05)

    def test_too_short_history_rejected(self):
        with pytest.raises(ValueError, match="short"):
            fc.fit_ar(np.zeros(6), 3)

    def test_non_finite_rejected(self):
        x = np.ones(30)
        x[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fc.fit_ar(x, 2)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            fc.fit_ar(np.arange(10.0), 0)

    def test_sinusoid_takes_the_oracle_ridge(self):
        # A sinusoid obeys x_t = 2 cos(w) x_{t-1} - x_{t-2} + const exactly:
        # the six lag columns and the intercept column of the AR(6) design
        # span only three directions (sine, cosine, constant).
        x = 5.0 + 2.0 * np.sin(2 * np.pi * np.arange(400) / 24.0)
        design, _ = ar_design(x, 6)
        assert np.linalg.cond(design.T @ design) > fc._COND_LIMIT
        eigenvalues = np.abs(np.linalg.eigvalsh(fc._normal_equations(x, 6)[0]))
        assert eigenvalues.max() > fc._COND_LIMIT * eigenvalues.min()
        got, want = fc.fit_ar(x, 6), ar_fit_design(x, 6)
        np.testing.assert_allclose(
            np.append(got.coefficients, got.intercept),
            np.append(want.coefficients, want.intercept),
            rtol=1e-8, atol=1e-8,
        )
        assert got.noise_variance == pytest.approx(want.noise_variance, abs=1e-8)

    def test_fit_memory_stays_below_the_design_size(self):
        # An explicit 4 248 x 169 design alone would take 5.7 MB.
        x = fc.generate_synthetic_campus(0, days=184).values[0]
        assert len(x) == 4416
        tracemalloc.start()
        try:
            fc.fit_ar(x, 168)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


@st.composite
def ar_windows(draw):
    """(history, q): a level plus a scaled daily cycle and AR(1) noise.

    Levels reach the load channels' 1e4 and scales drop to the price
    channel's 1e-3, which makes the intercept nearly collinear with the lags.
    """
    q = draw(st.integers(1, 40))
    length = draw(st.integers(2 * q + 1, 600))
    level = draw(st.floats(0.0, 1e4))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    phi = draw(st.floats(0.0, 0.95))
    cycle = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    innovations = rng.standard_normal(length)
    noise = np.empty(length)
    noise[0] = innovations[0]
    for t in range(1, length):
        noise[t] = phi * noise[t - 1] + innovations[t]
    hours = np.arange(length)
    return level + scale * (noise + cycle * np.sin(2 * np.pi * hours / 24.0)), q


class TestFitAgainstDesignOracle:
    """The lag-product fit against the explicit-design fit it replaces."""

    @settings(deadline=None, max_examples=100)
    @given(ar_windows())
    def test_normal_equations_match_design_products(self, window):
        x, q = window
        gram, moment = fc._normal_equations(x, q)
        design, target = ar_design(x, q)
        want_gram, want_moment = design.T @ design, design.T @ target
        # Entry (i, j) is a sum of products bounded by sqrt(G_ii G_jj).
        scale = np.sqrt(np.diag(want_gram))
        assert np.all(np.abs(gram - want_gram) <= 1e-13 * np.outer(scale, scale))
        assert np.all(
            np.abs(moment - want_moment) <= 1e-13 * scale * np.linalg.norm(target)
        )

    @settings(deadline=None, max_examples=100)
    @given(ar_windows(), st.integers(1, 60))
    # A ridge fit (condition number 1e12) of a square design, 12 lagged rows
    # for 12 unknowns; before ``fit_ar`` refined ridge fits, its noise
    # variance was 2.3e-5 from the 60-digit value, above the 6.7e-6 bound.
    @example(window=(np.array([
        1976.964048, -743.52148588, 896.48884638, 424.95855943, 796.25246014,
        1202.92070938, 277.79480475, -1426.9745101, 113.28715339,
        807.18229224, 762.77343878, -891.2832626, 2167.75577665,
        -417.75792675, 2217.02630953, -1041.16444885, 872.74054662,
        439.63548638, -898.00499747, 680.02393555, 2594.13523643,
        1071.02935112, -284.89387074]), 11), n=1)
    def test_fit_and_forecast_match_oracles(self, window, n):
        x, q = window
        design, target = ar_design(x, q)
        gram, moment = design.T @ design, design.T @ target
        cond = np.linalg.cond(gram)
        # Both fits decide the ridge on the same 2-norm condition number;
        # a hair from the limit, roundoff may tip them apart.
        assume(not 0.99 < cond / fc._COND_LIMIT < 1.01)
        got, want = fc.fit_ar(x, q), ar_fit_design(x, q)

        # Backward error: the fit solves the oracle's normal equations, with
        # the oracle's ridge when the oracle adds one.
        lam = 0.0
        if cond > fc._COND_LIMIT:
            lam = max(1e-6 * np.trace(gram[:q, :q]) / q, 1e-12)
        system = gram + np.diag(np.append(np.full(q, lam), 0.0))
        theta = np.append(got.coefficients, got.intercept)
        residual = np.linalg.norm(system @ theta - moment)
        bound = np.linalg.norm(system) * np.linalg.norm(theta) + np.linalg.norm(moment)
        assert residual <= 1e-13 * bound
        assert abs(got.noise_variance - want.noise_variance) <= 1e-12 * np.max(x**2)

        recent = x[-q:]
        mean, cov = fc.forecast(got, recent, n)
        want_mean = ar_mean_recursion(got, recent, n)
        assert np.max(np.abs(mean - want_mean)) <= 1e-10 * np.max(np.abs(want_mean))
        want_cov = ar_covariance_loop(got, n)
        assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


class TestForecast:
    def test_ar1_variance_growth_matches_analytic(self):
        # Independent oracle: Var_h = sigma^2 (1 - phi^(2h)) / (1 - phi^2).
        model = fc.ArModel(np.array([0.5]), 0.0, 1.0)
        _, cov = fc.forecast(model, np.array([2.0]), 24)
        phi = 0.5
        for h in range(1, 25):
            expected = (1 - phi ** (2 * h)) / (1 - phi**2)
            assert cov[h - 1, h - 1] == pytest.approx(expected, abs=1e-9)
        assert cov[0, 0] == pytest.approx(1.0)
        assert cov[1, 1] == pytest.approx(1.25)
        assert cov[2, 2] == pytest.approx(1.3125)

    def test_ar2_covariance_matches_independent_recursion(self):
        coeffs = np.array([0.6, -0.2])
        model = fc.ArModel(coeffs, 0.3, 2.0)
        n = 12
        _, cov = fc.forecast(model, np.array([1.0, 0.5]), n)
        # Re-derive the moving-average weights directly in the test.
        psi = [1.0]
        for k in range(1, n):
            upto = min(k, 2)
            psi.append(sum(coeffs[m] * psi[k - 1 - m] for m in range(upto)))
        for i in range(n):
            for j in range(n):
                lag = abs(i - j)
                expected = 2.0 * sum(
                    psi[k] * psi[k + lag] for k in range(min(i, j) + 1)
                )
                assert cov[i, j] == pytest.approx(expected, abs=1e-9)

    def test_zero_noise_deterministic(self):
        model = fc.ArModel(np.array([0.5]), 1.0, 0.0)
        mean, cov = fc.forecast(model, np.array([2.0]), 5)
        assert np.all(cov == 0.0)
        assert mean == pytest.approx(np.full(5, 2.0))

    def test_fixed_point_mean(self):
        model = fc.ArModel(np.array([0.5]), 1.0, 0.0)
        mean, _ = fc.forecast(model, np.array([2.0]), 3)
        assert mean[0] == pytest.approx(2.0 * 0.5 + 1.0)
        assert np.allclose(mean, 2.0)

    def test_noiseless_fit_reproduces_continuation(self):
        true = np.array([0.7, -0.1])
        x = ar_series(true, 0.4, 0.0, 80, seed=1, x0=[1.0, 2.0])
        model = fc.fit_ar(x, 2)
        mean, _ = fc.forecast(model, x[-2:], 24)
        continuation = ar_series(true, 0.4, 0.0, 24, seed=2, x0=x[-2:])
        assert np.allclose(mean, continuation, atol=1e-6)

    def test_variance_nondecreasing(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = int(rng.integers(1, 4))
            coeffs = rng.uniform(-0.5, 0.5, q)
            coeffs *= 0.9 / max(np.abs(coeffs).sum(), 1.0)
            model = fc.ArModel(coeffs, 0.0, rng.uniform(0.1, 2.0))
            _, cov = fc.forecast(model, np.zeros(q), 20)
            diag = np.diag(cov)
            assert np.all(np.diff(diag) >= -1e-12)

    def test_bad_horizon(self):
        model = fc.ArModel(np.array([0.5]), 0.0, 1.0)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            fc.forecast(model, np.array([1.0]), 0)


def ar_model(q, seed, explosive=False):
    """AR(q) model with a nonzero intercept.

    Stable models scale random coefficients to an absolute sum of 0.95, so
    every root of the characteristic polynomial lies inside the unit
    circle.  The explosive one shrinks them to an absolute sum of 0.0475
    and adds 1.05 to phi_1, so the coefficients sum above 1 and the
    polynomial has a real root above 1.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, q)
    coeffs *= 0.95 / np.abs(coeffs).sum()
    if explosive:
        coeffs = coeffs * 0.05
        coeffs[0] += 1.05
    return fc.ArModel(coeffs, float(rng.uniform(0.5, 5.0)), 1.0)


MEAN_CASES = [(1, 1), (1, 24), (3, 24), (24, 24), (168, 24), (24, 168), (168, 168)]


class TestMeanForecast:
    @pytest.mark.parametrize("explosive", [False, True], ids=["stable", "explosive"])
    @pytest.mark.parametrize("q,n", MEAN_CASES, ids=[f"q{q}-n{n}" for q, n in MEAN_CASES])
    def test_matches_step_by_step_recursion(self, q, n, explosive):
        model = ar_model(q, seed=q * 1000 + n, explosive=explosive)
        largest_root = np.abs(np.roots(np.append(1.0, -model.coefficients))).max()
        assert (largest_root > 1.0) == explosive
        history = np.random.default_rng(n).normal(10.0, 3.0, q + 5)
        got = fc.mean_forecast(model, history, n)
        want = ar_mean_recursion(model, history, n)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("explosive", [False, True], ids=["stable", "explosive"])
    @pytest.mark.parametrize("q,n", MEAN_CASES, ids=[f"q{q}-n{n}" for q, n in MEAN_CASES])
    def test_covariance_matches_lag_loop(self, q, n, explosive):
        model = ar_model(q, seed=q * 1000 + n, explosive=explosive)
        psi = ar_impulse_weights_loop(model, n)
        np.testing.assert_allclose(fc.impulse_weights(model, n), psi,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(psi)))
        want = ar_covariance_loop(model, n)
        _, cov = fc.forecast(model, np.zeros(q), n)
        np.testing.assert_allclose(cov, want, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(want)))
        assert np.array_equal(cov, cov.T)

    def test_short_history_rejected(self):
        model = ar_model(4, seed=2)
        with pytest.raises(ValueError, match="need at least 4 recent values"):
            fc.mean_forecast(model, np.ones(3), 5)


class TestScipyPathOracle:
    """LAPACK's dtrtrs called directly against the scipy.linalg path it
    replaced, bit for bit: the same function with the same arguments."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 200), st.integers(1, 200), st.booleans(),
           st.sampled_from("CF"), st.sampled_from([None, 1, 4]),
           st.integers(0, 2**32 - 1))
    @example(q=168, n=168, explosive=False, order="C", columns=None, seed=0)
    @example(q=24, n=1, explosive=False, order="C", columns=3, seed=1)
    def test_solve_matches_solve_triangular(self, q, n, explosive, order,
                                            columns, seed):
        model = ar_model(q, seed, explosive)
        a = np.asarray(fc._recursion_matrix(model, n), order=order)
        rng = np.random.default_rng(seed)
        b = rng.normal(10.0, 3.0, n if columns is None else (n, columns))
        got = fc._solve_unit_lower(a, b)
        want = solve_unit_lower_scipy(a, b)
        assert got.shape == want.shape == b.shape
        assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 200), st.integers(1, 200), st.sampled_from("CF"),
           st.integers(0, 2**32 - 1))
    def test_forecasts_match_the_scipy_path(self, q, n, order, seed):
        model = ar_model(q, seed)
        recursion = fc._recursion_matrix(model, n)
        want = ar_recursion_matrix_scipy(model, n)
        assert recursion.flags.c_contiguous
        assert recursion.dtype == want.dtype and np.array_equal(recursion, want)

        history = np.random.default_rng(seed).normal(10.0, 3.0, q)
        # Built inside, or the caller's recursion matrix in either memory order.
        for held in (None, np.asarray(recursion, order=order)):
            want_mean, want_psi, want_cov = ar_forecast_scipy(model, history, n, held)
            assert np.array_equal(fc.mean_forecast(model, history, n, held), want_mean)
            assert np.array_equal(fc.impulse_weights(model, n, held), want_psi)
            mean, cov = fc.forecast(model, history, n, held)
            assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)


class GivenForecaster:
    """Forecast source with fixed means (4, n) and Cholesky factors."""

    def __init__(self, means, chols):
        self._means = means
        self._chols = list(chols)

    def means(self, t):
        return self._means

    @property
    def cholesky_factors(self):
        return self._chols


def sample(means, covs, s, seed):
    """Scenario set drawn the way the stochastic controller draws it."""
    spec = simulate.RunSpec(
        simulate.ControllerSpec(simulate.STOCHASTIC, scenarios=s),
        sim_hours=1, horizon=means.shape[1], scenario_seed=seed,
    )
    chols = [fc._jittered_cholesky(cov) for cov in covs]
    sampler = simulate._ScenarioSampler(GivenForecaster(means, chols), spec)
    return sampler.scenario_set(0)


def small_distribution(n=6, sigma=1.0):
    means = np.tile(np.linspace(50.0, 60.0, n), (4, 1))
    base = sigma * np.exp(-0.5 * np.abs(np.subtract.outer(range(n), range(n))))
    return means, np.stack([base] * 4)


class TestSampleScenarios:
    def test_zero_covariance_returns_mean(self):
        n = 8
        means = np.tile(np.arange(n, dtype=float) + 5.0, (4, 1))
        scen = sample(means, np.zeros((4, n, n)), 10, seed=0)
        assert np.array_equal(scen.values, np.tile(means, (10, 1, 1)))

    def test_seed_determinism(self):
        means, covs = small_distribution()
        a = sample(means, covs, 50, seed=123)
        b = sample(means, covs, 50, seed=123)
        assert np.array_equal(a.values, b.values)
        c = sample(means, covs, 50, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_empirical_mean_clt_bound(self):
        means, covs = small_distribution()
        s = 100_000
        scen = sample(means, covs, s, seed=5)
        std = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
        bound = 3.0 * std / np.sqrt(s)
        err = np.abs(scen.values.mean(axis=0) - means)
        assert np.all(err <= bound + 1e-12)

    def test_empirical_covariance_frobenius(self):
        means, covs = small_distribution()
        s = 100_000
        scen = sample(means, covs, s, seed=6)
        for ch in range(4):
            sample_cov = np.cov(scen.values[:, ch, :].T)
            target = covs[ch]
            dist_f = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
            assert dist_f < 0.10

    def test_clamping_never_raises_loads(self):
        # Zero means and identity factors: the scenarios are the noise itself.
        scen = sample(np.zeros((4, 5)), np.stack([np.eye(5)] * 4), 500, seed=1)
        noise = np.random.default_rng(1).standard_normal((500, 4, 5))
        assert np.array_equal(scen.values[:, :3], np.maximum(noise[:, :3], 0.0))
        # price channel is never clamped
        assert np.array_equal(scen.values[:, 3], noise[:, 3])

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            fc._jittered_cholesky(-np.eye(3))


def flat_profile(**kwargs):
    channel = fc.ChannelProfile(
        base=100.0, daily_amp=20.0, annual_amp=0.0, weekend_factor=0.7,
        noise_std=0.0, **kwargs,
    )
    return fc.SeasonalProfile(
        load_elec=channel, load_cw=channel, load_hw=channel,
        price_elec=fc.ChannelProfile(base=0.05, floor=None),
    )


class TestSyntheticCampus:
    def test_noiseless_weekly_periodicity(self):
        traj = fc.generate_synthetic_campus(0, days=28, profile=flat_profile())
        values = traj.values[0]
        assert np.allclose(values[:168], values[168:336], atol=1e-12)

    def test_weekend_ratio(self):
        profile = flat_profile()
        traj = fc.generate_synthetic_campus(1, days=364, profile=profile)
        day = np.arange(len(traj)) // 24
        weekend = (day % 7) >= 5
        ratio = traj.values[0][weekend].mean() / traj.values[0][~weekend].mean()
        assert ratio == pytest.approx(0.7, abs=0.02)

    def test_seed_determinism(self):
        a = fc.generate_synthetic_campus(3, days=10)
        b = fc.generate_synthetic_campus(3, days=10)
        assert np.array_equal(a.values, b.values)

    def test_loads_nonnegative(self):
        traj = fc.generate_synthetic_campus(4, days=60)
        assert np.all(traj.values[:3] >= 0.0)

    def test_bad_days(self):
        with pytest.raises(ValueError):
            fc.generate_synthetic_campus(0, days=0)


class TestZohNoise:
    def test_flat_load_zero_variance(self):
        rng = np.random.default_rng(0)
        assert fc.zoh_noise(100.0, 100.0, 0.0, 0.0, rng) == 0.0

    def test_rising_load_negative_mean(self):
        rng = np.random.default_rng(0)
        assert fc.zoh_noise(100.0, 110.0, 0.0, 0.0, rng) == pytest.approx(-5.0)

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(1)
        draws = np.array(
            [fc.zoh_noise(50.0, 50.0, 4.0, 1.0, rng) for _ in range(100_000)]
        )
        assert draws.var() == pytest.approx(2.0, rel=0.05)

    def test_negative_variance_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fc.zoh_noise(0.0, 0.0, -1.0, 0.0, rng)


class TestZohVarianceEstimation:
    def test_constant_history(self):
        var_err, var_int = fc.estimate_zoh_variances(np.full(50, 7.0), 2)
        assert var_err == pytest.approx(0.0, abs=1e-9)
        assert var_int == pytest.approx(0.0, abs=1e-9)

    def test_sawtooth_integral_variance(self):
        d = 3.0
        x = np.where(np.arange(200) % 2 == 0, d, -d)
        # Direct oracle: differences alternate +-2d with zero mean.
        diffs = np.diff(x)
        expected = diffs.var() / 12.0
        _, var_int = fc.estimate_zoh_variances(x, 2)
        assert var_int == pytest.approx(expected)
        # closed form up to the odd-length mean offset of the differences
        assert var_int == pytest.approx((2 * d) ** 2 / 12.0, rel=1e-3)

    def test_ar1_prediction_error_variance(self):
        x = ar_series([0.6], 0.0, 1.0, 20_000, seed=11)
        var_err, _ = fc.estimate_zoh_variances(x, 1)
        assert var_err == pytest.approx(1.0, rel=0.10)

    def test_given_fit_is_not_refitted(self, monkeypatch):
        x = ar_series([0.3], 0.0, 1.0, 500, seed=3)
        model = fc.fit_ar(x, 2)
        expected = fc.estimate_zoh_variances(x, 2)
        monkeypatch.setattr(fc, "fit_ar", None)
        assert fc.estimate_zoh_variances(x, 2, model=model) == expected
        with pytest.raises(ValueError, match="order 2"):
            fc.estimate_zoh_variances(x, 1, model=model)


class TestCsvInterchange:
    def test_round_trip(self, tmp_path):
        traj = fc.generate_synthetic_campus(5, days=3)
        path = tmp_path / "data.csv"
        fc.write_trajectory_csv(path, traj)
        again = fc.read_trajectory_csv(path)
        assert np.array_equal(traj.values, again.values)

    def test_header_is_documented_format(self, tmp_path):
        traj = fc.generate_synthetic_campus(5, days=1)
        path = tmp_path / "data.csv"
        fc.write_trajectory_csv(path, traj)
        header = path.read_text().splitlines()[0]
        assert header == "hour,load_elec_kw,load_cw_kw,load_hw_kw,price_elec_usd_per_kwh"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c,d\n0,1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            fc.read_trajectory_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("hour,load_elec_kw,load_cw_kw,load_hw_kw,price_elec_usd_per_kwh\n")
        with pytest.raises(ValueError, match="no data"):
            fc.read_trajectory_csv(path)
