"""Embedded bounded-variable simplex and a program builder, for tests.

The simplex is the independent oracle that HiGHS (``cold_solve.solve`` and
``lp.HighsSession``) is checked against: two-phase primal simplex on the
equality form ``A x + s = b`` with general variable bounds, Dantzig
pricing, and a Bland's-rule fallback after a run of degenerate pivots.  A
row's slack s lies in [0, inf) for ``<=``, [0, 0] for ``=``, (-inf, 0] for
``>=`` and [0, rhs - rhs_lower] for a two-sided row.  It keeps a dense
m x m basis inverse, so it only suits small programs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from plantmpc.lp import (
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    RANGE,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    column_major,
)

#: Absolute feasibility tolerance on variable bounds.
BOUND_TOL = 1e-9
#: Relative feasibility tolerance on constraint rows.
ROW_TOL = 1e-6


class LpBuilder:
    """Incremental construction of a LinearProgram with bulk operations."""

    def __init__(self) -> None:
        self._obj: list[np.ndarray] = []
        self._lower: list[np.ndarray] = []
        self._upper: list[np.ndarray] = []
        self._senses: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._num_vars = 0
        self._num_rows = 0

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def add_variables(self, count: int, lower, upper, objective=0.0) -> np.ndarray:
        """Append ``count`` columns; scalar arguments broadcast."""
        idx = np.arange(self._num_vars, self._num_vars + count)
        self._obj.append(np.broadcast_to(np.asarray(objective, dtype=float), (count,)).copy())
        self._lower.append(np.broadcast_to(np.asarray(lower, dtype=float), (count,)).copy())
        self._upper.append(np.broadcast_to(np.asarray(upper, dtype=float), (count,)).copy())
        self._num_vars += count
        return idx

    def add_variable(self, lower: float, upper: float, objective: float = 0.0) -> int:
        return int(self.add_variables(1, lower, upper, objective)[0])

    def add_rows(self, count: int, sense, rhs) -> np.ndarray:
        idx = np.arange(self._num_rows, self._num_rows + count)
        self._senses.append(np.broadcast_to(np.asarray(sense, dtype=np.int8), (count,)).copy())
        self._rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), (count,)).copy())
        self._num_rows += count
        return idx

    def add_row(self, sense: int, rhs: float, cols=None, vals=None) -> int:
        row = int(self.add_rows(1, sense, rhs)[0])
        if cols is not None:
            self.add_entries(row, cols, vals)
        return row

    def add_entries(self, rows, cols, vals) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        self._rows.append(rows.ravel())
        self._cols.append(cols.ravel())
        self._vals.append(vals.ravel().copy())

    def build(self, validate: bool = False) -> LinearProgram:
        def cat(parts, dtype):
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        matrix = column_major(cat(self._rows, np.int64), cat(self._cols, np.int64),
                              cat(self._vals, float), self._num_vars)
        lp = LinearProgram(
            objective=cat(self._obj, float),
            lower=cat(self._lower, float),
            upper=cat(self._upper, float),
            row_sense=cat(self._senses, np.int8),
            rhs=cat(self._rhs, float),
            **matrix,
        )
        if validate:
            lp.validate()
        return lp


def matrix(lp: LinearProgram) -> scipy.sparse.csr_matrix:
    """The constraint matrix of ``lp`` as a sparse matrix."""
    return scipy.sparse.csr_matrix(
        (lp.a_vals, (lp.a_rows, lp.a_cols)), shape=(lp.num_rows, lp.num_vars))


_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3


def solve_simplex(
    lp: LinearProgram, tol: float = 1e-9, max_iters: int | None = None
) -> LpSolution:
    """Solve ``lp`` with the embedded simplex; deterministic."""
    m, n = lp.num_rows, lp.num_vars
    if max_iters is None:
        max_iters = 50 * (m + n)

    # Equality form: structural columns, one slack per row, then one
    # artificial per row for the phase-1 basis.
    n_slack = m
    n_total = n + n_slack + m

    lower = np.full(n_total, -np.inf)
    upper = np.full(n_total, np.inf)
    lower[:n] = lp.lower
    upper[:n] = lp.upper
    sl = np.arange(n, n + n_slack)
    lower[sl] = np.where(lp.row_sense == GE, -np.inf, 0.0)
    upper[sl] = np.where(lp.row_sense == LE, np.inf, 0.0)
    ranged = lp.row_sense == RANGE
    if ranged.any():
        upper[sl[ranged]] = lp.rhs[ranged] - lp.rhs_lower[ranged]

    # Nonbasic rest values: the finite bound nearest zero, else zero.
    rest = np.zeros(n_total)
    fin_lo = np.isfinite(lower)
    fin_up = np.isfinite(upper)
    rest[fin_lo] = lower[fin_lo]
    only_up = ~fin_lo & fin_up
    rest[only_up] = upper[only_up]
    status = np.full(n_total, _FREE, dtype=np.int8)
    status[fin_lo] = _AT_LOWER
    status[only_up] = _AT_UPPER

    cols = [
        scipy.sparse.csc_matrix(
            (lp.a_vals, (lp.a_rows, lp.a_cols)), shape=(m, n)
        ),
        scipy.sparse.identity(m, format="csc"),
    ]
    residual = lp.rhs - cols[0] @ rest[:n]  # all slacks rest at value 0
    art_sign = np.where(residual < 0, -1.0, 1.0)
    cols.append(scipy.sparse.dia_matrix((art_sign, 0), shape=(m, m)).tocsc())
    A = scipy.sparse.hstack(cols, format="csc")
    art = np.arange(n + n_slack, n_total)
    lower[art] = 0.0
    upper[art] = np.inf

    basis = art.copy()
    status[art] = _BASIC
    x_b = np.abs(residual)
    b_inv = np.diag(art_sign.copy()) if m else np.zeros((0, 0))
    state = _SimplexState(A, lower, upper, status, basis, x_b, rest, b_inv)

    # Phase 1: drive the artificial infeasibility to zero.
    c1 = np.zeros(n_total)
    c1[art] = 1.0
    iters1, stat1 = state.iterate(c1, tol, max_iters)
    if stat1 == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, None, iters1)
    phase1_obj = c1[state.basis] @ state.x_b
    if phase1_obj > ROW_TOL * (1.0 + np.abs(lp.rhs).max(initial=0.0)):
        return LpSolution(INFEASIBLE, None, None, iters1)

    # Phase 2: original costs; artificials pinned at zero.
    lower[art] = 0.0
    upper[art] = 0.0
    state.rest[art] = 0.0
    c2 = np.zeros(n_total)
    c2[:n] = lp.objective
    iters2, stat2 = state.iterate(c2, tol, max_iters - iters1)
    total_iters = iters1 + iters2
    if stat2 == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, None, total_iters)
    if stat2 == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, total_iters)

    x_full = state.rest.copy()
    x_full[state.basis] = state.x_b
    x = np.clip(x_full[:n], lp.lower, lp.upper)
    return LpSolution(OPTIMAL, x, float(lp.objective @ x), total_iters)


class _SimplexState:
    """Working memory for one solve; not shareable mid-solve."""

    # Consecutive degenerate pivots before switching to Bland's rule.
    PIVOT_TOL = 1e-10
    REFACTOR_EVERY = 150

    def __init__(self, A, lower, upper, status, basis, x_b, rest, b_inv):
        self.A = A
        self.a_csr = A.T.tocsr()  # for fast cᵀ - yᵀA pricing
        self.lower = lower
        self.upper = upper
        self.status = status
        self.basis = basis
        self.x_b = x_b
        self.rest = rest
        self.b_inv = b_inv

    def refactorize(self) -> None:
        dense = self.A[:, self.basis].toarray()
        self.b_inv = np.linalg.inv(dense)

    def column(self, j: int) -> np.ndarray:
        """Dense B⁻¹ A_j using the raw csc slices of column j."""
        start, end = self.A.indptr[j], self.A.indptr[j + 1]
        return self.b_inv[:, self.A.indices[start:end]] @ self.A.data[start:end]

    def iterate(self, c, tol, max_iters) -> tuple[int, str]:
        m = self.basis.size
        degenerate_run = 0
        bland_after = 2 * (m + self.A.shape[1])
        use_bland = False
        iters = 0
        since_refactor = 0
        movable = self.upper > self.lower

        while iters < max_iters:
            y = c[self.basis] @ self.b_inv
            reduced = c - (self.a_csr @ y)
            st = self.status
            cand = (
                ((st == _AT_LOWER) & (reduced < -tol) & movable)
                | ((st == _AT_UPPER) & (reduced > tol) & movable)
                | ((st == _FREE) & (np.abs(reduced) > tol))
            )
            cand_idx = np.flatnonzero(cand)
            if cand_idx.size == 0:
                return iters, OPTIMAL
            if use_bland:
                j = int(cand_idx[0])
            else:
                j = int(cand_idx[np.abs(reduced[cand_idx]).argmax()])
            direction = 1.0 if reduced[j] < 0 else -1.0

            w = self.column(j)
            sw = direction * w
            lo_b = self.lower[self.basis]
            up_b = self.upper[self.basis]
            ratios = np.full(m, np.inf)
            pos = sw > self.PIVOT_TOL
            neg = sw < -self.PIVOT_TOL
            ratios[pos] = (self.x_b[pos] - lo_b[pos]) / sw[pos]
            ratios[neg] = (self.x_b[neg] - up_b[neg]) / sw[neg]
            np.maximum(ratios, 0.0, out=ratios)

            span = self.upper[j] - self.lower[j]
            t_row = ratios.min() if m else np.inf
            t = min(t_row, span)
            if not np.isfinite(t):
                return iters, UNBOUNDED

            iters += 1
            if t <= self.PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > bland_after:
                    use_bland = True
            else:
                degenerate_run = 0

            if span <= t_row:
                # Bound flip: the entering variable crosses to its other
                # bound without changing the basis.
                self.x_b -= sw * span
                if self.status[j] == _AT_LOWER:
                    self.status[j] = _AT_UPPER
                    self.rest[j] = self.upper[j]
                else:
                    self.status[j] = _AT_LOWER
                    self.rest[j] = self.lower[j]
                continue

            blocking = np.flatnonzero(ratios <= t + self.PIVOT_TOL)
            if use_bland:
                r = int(blocking[self.basis[blocking].argmin()])
            else:
                r = int(blocking[np.abs(sw[blocking]).argmax()])
            leave = self.basis[r]
            self.x_b -= sw * t
            enter_val = self.rest[j] + direction * t  # free vars rest at 0
            # Classify the leaving variable at whichever bound blocked.
            self.rest[leave] = up_b[r] if sw[r] < 0 else lo_b[r]
            self.status[leave] = _AT_UPPER if sw[r] < 0 else _AT_LOWER
            self.basis[r] = j
            self.status[j] = _BASIC
            self.x_b[r] = enter_val

            w_r = w[r]
            if abs(w_r) < self.PIVOT_TOL:
                self.refactorize()
                since_refactor = 0
                continue
            br = self.b_inv[r] / w_r
            self.b_inv -= np.outer(w, br)
            self.b_inv[r] = br
            since_refactor += 1
            if since_refactor >= self.REFACTOR_EVERY:
                self.refactorize()
                since_refactor = 0

        return iters, ITERATION_LIMIT
