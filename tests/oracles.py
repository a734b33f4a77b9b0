"""Independent oracles used across the test suite.

These deliberately avoid the library's own solution paths: the LP oracle
enumerates candidate vertices directly, the AR fit oracle forms the
lagged design matrix and decides its ridge by an SVD condition number,
the outer-index AR fit keeps the normal equations' gather as it was before
its indices were cached,
the AR mean oracle steps the recursion one forecast value at a time, the
AR covariance oracle accumulates impulse weights lag by lag, the scipy
forecast oracle runs the forecasts through scipy.linalg's ``toeplitz`` and
``solve_triangular`` as the library did before it called LAPACK's
``dtrtrs`` directly, the plant oracles write the purchase and balance
formulas and the rate limits out term by term, the restoration oracle
builds the whole correction program from the plant on every call, the
control oracles grid-search the decision space, the column-major oracle
sorts matrix entries with its own lexsort, and the scheme oracle
re-implements the per-hour bookkeeping as a straight-line script.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solve_triangular, toeplitz

from plantmpc import forecast as fc, lp
from plantmpc.plant import (
    PRODUCTION_UNITS,
    STORAGE_UNITS,
    UNITS,
    balance_matrix,
    rate_bounds,
)

from simplex import LpBuilder


def vertex_enumeration_optimum(prog: lp.LinearProgram, tol: float = 1e-7):
    """Brute-force optimum of a small LP with a bounded feasible box.

    Enumerates every choice of n active constraints among the rows and
    finite bounds, solves the square systems in one batched call, filters
    feasible candidates, and minimizes.  Returns (status, objective).
    """
    n = prog.num_vars
    a_dense = np.zeros((prog.num_rows, n))
    a_dense[prog.a_rows, prog.a_cols] = prog.a_vals

    normals = [a_dense[i] for i in range(prog.num_rows)]
    offsets = list(prog.rhs)
    for j in range(n):
        if np.isfinite(prog.lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            normals.append(e)
            offsets.append(prog.lower[j])
        if np.isfinite(prog.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            normals.append(e)
            offsets.append(prog.upper[j])
    normals = np.array(normals)
    offsets = np.array(offsets)

    combos = np.array(
        list(itertools.combinations(range(len(normals)), n)), dtype=np.int64
    )
    mats = normals[combos]
    rhs = offsets[combos]
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-10
    if not np.any(ok):
        return lp.INFEASIBLE, None
    points = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]

    rows = points @ a_dense.T
    feas = np.ones(len(points), dtype=bool)
    for i in range(prog.num_rows):
        if prog.row_sense[i] == lp.LE:
            feas &= rows[:, i] <= prog.rhs[i] + tol
        elif prog.row_sense[i] == lp.GE:
            feas &= rows[:, i] >= prog.rhs[i] - tol
        else:
            feas &= np.abs(rows[:, i] - prog.rhs[i]) <= tol
    feas &= np.all(points >= prog.lower - tol, axis=1)
    feas &= np.all(points <= prog.upper + tol, axis=1)
    if not np.any(feas):
        return lp.INFEASIBLE, None
    objectives = points[feas] @ prog.objective
    return lp.OPTIMAL, float(objectives.min())


def csc_pattern(a_rows, a_cols, num_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column-major order of matrix entries given in any order:
    (permutation, column starts, row indices)."""
    order = np.lexsort((a_rows, a_cols))
    counts = np.bincount(a_cols, minlength=num_vars)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return order, indptr, np.asarray(a_rows)[order].astype(np.int32)


def random_box_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 6):
    """A random LP whose variables are boxed, so the optimum is a vertex."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    builder = LpBuilder()
    lo = rng.uniform(-5.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 8.0, n)
    builder.add_variables(n, lo, hi, rng.normal(size=n))
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        builder.add_row(
            int(rng.choice([lp.LE, lp.EQ, lp.GE])),
            float(rng.normal()),
            cols,
            rng.normal(size=cols.size),
        )
    return builder.build()


def ar_design(history, q: int):
    """Explicit AR(q) least-squares design: (lags + intercept column, target)."""
    x = np.asarray(history, dtype=float)
    rows = len(x) - q
    design = np.empty((rows, q + 1))
    for k in range(q):
        design[:, k] = x[q - 1 - k : len(x) - 1 - k]
    design[:, q] = 1.0
    return design, x[q:]


def ar_normal_equations_outer(x: np.ndarray, q: int):
    """``forecast._normal_equations`` as it gathered the lag products
    before it cached its indices: through per-call ``np.subtract.outer``
    and ``np.minimum.outer`` index arrays and the whole gathered phi."""
    length, n = len(x), q + 1
    head = np.zeros(2 * q)
    head[:q] = x[q - 1 :: -1]
    tail = np.zeros(2 * q)
    tail[:q] = x[length - 1 : length - 1 - q : -1]
    boundary = (sliding_window_view(head, q)[:q] * head[:q]
                - sliding_window_view(tail, q)[:q] * tail[:q])
    diagonals = np.zeros((n, n))
    np.cumsum(boundary, axis=1, out=diagonals[:q, 1:])
    diagonals += np.correlate(x, x[q:], "valid")[::-1, None]
    lag = np.arange(n)
    phi = diagonals[np.abs(np.subtract.outer(lag, lag)), np.minimum.outer(lag, lag)]

    sums = np.concatenate(([0.0], np.cumsum(x)))
    gram = np.empty((n, n))
    gram[:q, :q] = phi[1:, 1:]
    gram[:q, q] = gram[q, :q] = sums[length - 1 - lag[:q]] - sums[q - 1 - lag[:q]]
    gram[q, q] = length - q
    moment = np.append(phi[1:, 0], sums[length] - sums[q])
    return gram, moment


def ar_fit_outer(history, q: int) -> fc.ArModel:
    """``forecast.fit_ar`` on the normal equations of
    ``ar_normal_equations_outer``, as it was before it cached its indices."""
    x = np.asarray(history, dtype=float)
    gram, moment = ar_normal_equations_outer(x, q)
    eigenvalues = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = eigenvalues.max() / eigenvalues.min()
    lam = 0.0
    if not np.isfinite(cond) or cond > fc._COND_LIMIT:
        lam = max(1e-6 * np.trace(gram[:q, :q]) / q, 1e-12)
    theta = None
    for _ in range(8):
        try:
            ridge = np.diag(np.append(np.full(q, lam), 0.0)) if lam else 0.0
            theta = np.linalg.solve(gram + ridge, moment)
            break
        except np.linalg.LinAlgError:
            lam = max(10.0 * lam, 1e-12)
    residuals = fc._residuals(x, theta)
    if lam:
        gradient = np.append(np.correlate(x[:-1], residuals, "valid")[::-1],
                             residuals.sum())
        gradient[:q] -= lam * theta[:q]
        theta = theta + np.linalg.solve(gram + ridge, gradient)
        residuals = fc._residuals(x, theta)
    return fc.ArModel(
        coefficients=theta[:q],
        intercept=float(theta[q]),
        noise_variance=float(np.mean(residuals**2)),
    )


def ar_fit_design(history, q: int) -> fc.ArModel:
    """Least-squares AR(q) fit from the explicit design matrix.

    Forms D^T D and D^T y by matrix products and adds the library's ridge
    when ``np.linalg.cond`` (an SVD) exceeds the library's limit.
    """
    design, target = ar_design(history, q)
    gram = design.T @ design
    moment = design.T @ target
    cond = np.linalg.cond(gram)
    lam = 0.0
    if not np.isfinite(cond) or cond > fc._COND_LIMIT:
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
    return fc.ArModel(
        coefficients=theta[:q],
        intercept=float(theta[q]),
        noise_variance=float(np.mean(residuals**2)),
    )


def ar_impulse_weights_loop(model, n: int) -> np.ndarray:
    """AR impulse response psi_k = sum_m phi_m psi_{k-m}, one lag at a time."""
    q = model.order
    psi = np.zeros(n)
    psi[0] = 1.0
    for k in range(1, n):
        upto = min(k, q)
        psi[k] = model.coefficients[:upto] @ psi[k - upto : k][::-1]
    return psi


def ar_covariance_loop(model, n: int) -> np.ndarray:
    """n-step forecast covariance, one lag (diagonal) at a time.

    cov[i, i + lag] is sigma^2 times the running sum of psi_k psi_{k+lag}.
    """
    psi = ar_impulse_weights_loop(model, n)
    cov = np.zeros((n, n))
    for lag in range(n):
        csum = np.cumsum(psi[: n - lag] * psi[lag:])
        idx = np.arange(n - lag)
        cov[idx, idx + lag] = model.noise_variance * csum
        if lag:
            cov[idx + lag, idx] = cov[idx, idx + lag]
    return cov


def ar_mean_recursion(model, recent_history, n: int) -> np.ndarray:
    """Noise-free AR continuation, one step of the recursion at a time.

    Each forecast value is c + sum_k phi_k w_{i-k} over the window w of
    the last q history values followed by the forecast so far.
    """
    q = model.order
    window = np.concatenate([np.asarray(recent_history, dtype=float)[-q:],
                             np.zeros(n)])
    for i in range(n):
        window[q + i] = model.coefficients @ window[i : q + i][::-1] + model.intercept
    return window[q:]


def solve_unit_lower_scipy(a, b):
    """x with a x = b for a unit lower-triangular ``a``, by scipy.linalg."""
    return solve_triangular(a, b, lower=True, unit_diagonal=True,
                            check_finite=False)


def ar_recursion_matrix_scipy(model, n: int) -> np.ndarray:
    """The AR recursion matrix A over n steps, by ``scipy.linalg.toeplitz``."""
    reach = min(model.order, n - 1)
    column = np.zeros(n)
    column[0] = 1.0
    column[1 : reach + 1] = -model.coefficients[:reach]
    return toeplitz(column, np.zeros(n))


def ar_forecast_scipy(model, recent_history, n: int, recursion=None):
    """(mean, impulse weights, covariance) of the n-step AR forecast through
    scipy.linalg, the way ``forecast`` computed them before it called
    LAPACK's dtrtrs directly."""
    q = model.order
    if recursion is None:
        recursion = ar_recursion_matrix_scipy(model, n)
    history = np.correlate(model.coefficients,
                           np.asarray(recent_history, dtype=float)[::-1][:q],
                           "full")[q - 1 :]
    rhs = np.full(n, model.intercept)
    rhs[: min(q, n)] += history[:n]
    unit = np.zeros(n)
    unit[0] = 1.0
    mean = solve_unit_lower_scipy(recursion, rhs)
    psi = solve_unit_lower_scipy(recursion, unit)
    weights = toeplitz(psi, np.zeros(n))
    return mean, psi, model.noise_variance * (weights @ weights.T)


def residual_demands_terms(config, action, load_elec):
    """``(r_e, r_w, r_ng)`` of ``plant.residual_demands``, term by term."""
    r_e = (
        config.alpha_e_cs * action.p_cs
        + config.alpha_e_hrc * action.p_hrc
        + config.alpha_e_hwg * action.p_hwg
        + config.alpha_e_ct * action.p_ct
        + load_elec
    )
    r_w = config.alpha_w_ct * action.p_ct
    r_ng = config.alpha_ng_hwg * action.p_hwg
    return r_e, r_w, r_ng


def balance_residuals_terms(config, action, dist, slacks=(0.0, 0.0, 0.0, 0.0)):
    """The three residuals of ``plant.balance_residuals``, term by term."""
    s_un_cw, s_ov_cw, s_un_hw, s_ov_hw = slacks
    cw_res = (
        action.p_cs + action.p_hrc + action.p_cw
        + s_un_cw - s_ov_cw - dist.load_cw
    )
    hw_res = (
        config.alpha_h_hrc * action.p_hrc + action.p_hwg - action.p_hx
        + action.p_hw + s_un_hw - s_ov_hw - dist.load_hw
    )
    cond_res = action.p_ct - config.alpha_cond_cs * action.p_cs - action.p_hx
    return cw_res, hw_res, cond_res


def correction_program_built(config, state, action, residuals) -> lp.LinearProgram:
    """``restoration._correction_program`` built whole from the plant, every
    array fresh: delta+ for every unit in UNITS order, then delta-."""
    coeff = balance_matrix(config)
    a = np.hstack([coeff, -coeff])
    a_rows, a_cols = np.nonzero(a)
    matrix = lp.column_major(a_rows, a_cols, a[a_rows, a_cols], a.shape[1])

    rates = action.as_array()
    lower, upper = rate_bounds(config)
    lo, hi = lower - rates, upper - rates
    for unit in STORAGE_UNITS:
        i = UNITS.index(unit)
        lo[i] = max(lo[i], state.storage(unit) - config.cap(unit) - rates[i])
        hi[i] = min(hi[i], state.storage(unit) - rates[i])

    return lp.LinearProgram(
        objective=np.ones(2 * len(UNITS)),
        lower=np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0)]),
        upper=np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0)]),
        row_sense=np.full(3, lp.EQ, dtype=np.int8),
        rhs=-np.array(residuals),
        **matrix,
    )


def within_bounds_loops(action, config, tol=1e-9):
    """``ControlAction.within_bounds`` as one comparison per unit."""
    for unit in PRODUCTION_UNITS:
        if not -tol <= action.rate(unit) <= config.pmax(unit) + tol:
            return False
    for unit in STORAGE_UNITS:
        if abs(action.rate(unit)) > config.pmax(unit) + tol:
            return False
    return True


def grid_search_two_step(
    config, state, loads, prices, bounds, demand_weight, carry, points=61
):
    """Exhaustive search for the spec toy: a 2-step single-tank dispatch.

    The toy uses only the chiller and the chilled-water tank (all other
    unit limits zero, no hot-water load), so a feasible dispatch is
    determined by the two production rates; the tank absorbs the balance.
    Returns the best (objective, p_cs trajectory).
    """
    p_grid = np.linspace(0.0, config.pmax_cs, points)
    best = (np.inf, None)
    for p0 in p_grid:
        for p1 in p_grid:
            p = np.array([p0, p1])
            discharge = loads - p  # tank covers the remainder exactly
            if np.any(np.abs(discharge) > config.pmax_cw + 1e-12):
                continue
            e = state.e_cw - np.cumsum(discharge)
            if np.any(e < bounds[0] - 1e-9) or np.any(e > bounds[1] + 1e-9):
                continue
            r_e = config.alpha_e_cs * p
            cond = config.alpha_cond_cs * p
            r_w = config.alpha_w_ct * cond
            peak = max(carry, r_e.max())
            obj = (
                prices @ r_e
                + config.price_water * r_w.sum()
                + demand_weight * peak
            )
            if obj < best[0]:
                best = (obj, p.copy())
    return best
