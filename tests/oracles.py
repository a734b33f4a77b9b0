"""Independent oracles used across the test suite.

These deliberately avoid the library's own solution paths: the LP oracle
enumerates candidate vertices directly, the control oracles grid-search
the decision space, and the scheme oracle re-implements the per-hour
bookkeeping as a straight-line script.
"""

import itertools

import numpy as np

from plantmpc import lp

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
