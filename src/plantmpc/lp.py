"""Sparse linear programs solved by HiGHS through scipy's bindings.

``solve`` runs one program once; ``HighsSession`` re-solves a sequence of
programs on one HiGHS instance and warm-starts each from the last basis.
Both load the program, run HiGHS and map its status the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize._highspy import _core as _highs_core

LE, EQ, GE = -1, 0, 1

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class LinearProgram:
    """min cᵀx subject to sparse rows with senses and per-variable bounds."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_sense: np.ndarray
    rhs: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rhs.shape[0]

    @property
    def num_entries(self) -> int:
        return self.a_vals.shape[0]

    def matrix(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.a_vals, (self.a_rows, self.a_cols)),
            shape=(self.num_rows, self.num_vars),
        )

    def validate(self) -> None:
        """Raise ValueError on malformed programs (duplicates, NaNs, ...)."""
        m, n = self.num_rows, self.num_vars
        if not (np.all(np.isfinite(self.objective))
                and np.all(np.isfinite(self.rhs))
                and np.all(np.isfinite(self.a_vals))):
            raise ValueError("non-finite coefficients")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("NaN bounds")
        if np.any(self.lower > self.upper):
            raise ValueError("crossed variable bounds")
        if self.num_entries:
            if self.a_rows.min() < 0 or self.a_rows.max() >= m:
                raise ValueError("row index out of range")
            if self.a_cols.min() < 0 or self.a_cols.max() >= n:
                raise ValueError("column index out of range")
            keys = self.a_rows.astype(np.int64) * n + self.a_cols
            if np.unique(keys).size != keys.size:
                raise ValueError("duplicate (row, col) entries")
        if not np.all(np.isin(self.row_sense, (LE, EQ, GE))):
            raise ValueError("invalid row sense")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


_STATUS = _highs_core.HighsModelStatus


def _highs() -> _highs_core._Highs:
    """A HiGHS instance with the options every solve here uses.

    Matrix scaling is disabled: the plant matrices are naturally well
    ranged and the scaling pass both costs time and degrades basis reuse.
    """
    h = _highs_core._Highs()
    opts = _highs_core.HighsOptions()
    opts.output_flag = False
    opts.threads = 1
    opts.simplex_scale_strategy = 0
    opts.simplex_dual_edge_weight_strategy = 0  # devex
    h.passOptions(opts)
    return h


def _csc_pattern(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-major entry order: (permutation, column starts, row indices)."""
    order = np.lexsort((lp.a_rows, lp.a_cols))
    counts = np.bincount(lp.a_cols, minlength=lp.num_vars)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return order, indptr, lp.a_rows[order].astype(np.int32)


def _row_sides(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    return (np.where(lp.row_sense == LE, -np.inf, lp.rhs),
            np.where(lp.row_sense == GE, np.inf, lp.rhs))


def _pass_model(h, lp: LinearProgram, indptr, indices, data) -> None:
    model = _highs_core.HighsLp()
    model.num_col_ = lp.num_vars
    model.num_row_ = lp.num_rows
    model.col_cost_ = lp.objective
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_, model.row_upper_ = _row_sides(lp)
    model.a_matrix_.num_col_ = lp.num_vars
    model.a_matrix_.num_row_ = lp.num_rows
    model.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
    model.a_matrix_.start_ = indptr
    model.a_matrix_.index_ = indices
    model.a_matrix_.value_ = data
    h.passModel(model)


def _result(h, lp: LinearProgram) -> LpSolution:
    """The outcome of the last run of ``h`` on ``lp``."""
    status = h.getModelStatus()
    iterations = int(h.getInfo().simplex_iteration_count)
    if status == _STATUS.kOptimal:
        x = np.clip(np.asarray(h.getSolution().col_value), lp.lower, lp.upper)
        return LpSolution(OPTIMAL, x, float(lp.objective @ x), iterations)
    if status == _STATUS.kInfeasible:
        return LpSolution(INFEASIBLE, None, None, iterations)
    if status in (_STATUS.kUnbounded, _STATUS.kUnboundedOrInfeasible):
        return LpSolution(UNBOUNDED, None, None, iterations)
    return LpSolution(ITERATION_LIMIT, None, None, iterations)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve one program from scratch, with presolve; deterministic."""
    h = _highs()
    order, indptr, indices = _csc_pattern(lp)
    _pass_model(h, lp, indptr, indices, lp.a_vals[order])
    h.run()
    return _result(h, lp)


class HighsSession:
    """Persistent HiGHS instance that warm-starts receding-horizon solves.

    Re-solving each hour's program through one session lets the solver
    start from the previous optimal basis, which cuts re-solve time by an
    order of magnitude.  Programs with an unchanged sparsity pattern are
    updated in place (costs, bounds, sides); a dimension change falls back
    to a cold solve with presolve.
    """

    def __init__(self) -> None:
        self._h = _highs()
        self._pattern_key = None
        self._perm = None
        self._indptr = None
        self._indices = None
        self._loaded_pattern = None
        self._loaded_dims = None
        self._have_basis = False
        self._prev: dict[str, np.ndarray] = {}

    def _csc(self, lp: LinearProgram) -> tuple:
        key = (
            lp.num_rows,
            lp.num_vars,
            lp.a_rows.tobytes(),
            lp.a_cols.tobytes(),
        )
        if key != self._pattern_key:
            self._perm, self._indptr, self._indices = _csc_pattern(lp)
            self._pattern_key = key
        return key, self._indptr, self._indices, lp.a_vals[self._perm]

    def _update_in_place(self, lp: LinearProgram) -> None:
        h = self._h
        n = lp.num_vars
        prev = self._prev
        if not np.array_equal(prev["cost"], lp.objective):
            h.changeColsCost(n, self._all_cols(n), lp.objective)
        if not (np.array_equal(prev["lower"], lp.lower)
                and np.array_equal(prev["upper"], lp.upper)):
            h.changeColsBounds(n, self._all_cols(n), lp.lower, lp.upper)
        row_lower, row_upper = _row_sides(lp)
        changed = np.flatnonzero(
            (prev["row_lower"] != row_lower) | (prev["row_upper"] != row_upper)
        )
        for i in changed:
            h.changeRowBounds(int(i), row_lower[i], row_upper[i])

    def _all_cols(self, n: int) -> np.ndarray:
        cached = self._prev.get("all_cols")
        if cached is None or cached.size != n:
            cached = np.arange(n, dtype=np.int32)
            self._prev["all_cols"] = cached
        return cached

    def _remember(self, lp: LinearProgram) -> None:
        row_lower, row_upper = _row_sides(lp)
        self._prev.update(
            cost=lp.objective.copy(),
            lower=lp.lower.copy(),
            upper=lp.upper.copy(),
            row_lower=row_lower,
            row_upper=row_upper,
        )

    #: Above this many changed matrix entries a full reload beats patching.
    PATCH_LIMIT = 512

    def solve(self, lp: LinearProgram) -> LpSolution:
        h = self._h
        key, indptr, indices, data = self._csc(lp)
        dims = (lp.num_rows, lp.num_vars)

        same_pattern = self._have_basis and self._loaded_pattern == key
        if same_pattern:
            old_vals = self._prev["a_vals"]
            diff = np.flatnonzero(old_vals != data)
        if same_pattern and diff.size == 0:
            # Same matrix: update costs, bounds, and sides in place so the
            # solver keeps its factorized basis.
            h.setOptionValue("presolve", "off")
            self._update_in_place(lp)
        elif same_pattern and diff.size <= self.PATCH_LIMIT:
            # A few coefficients moved (e.g. the sliding peak split):
            # patch them individually, keeping the basis.
            h.setOptionValue("presolve", "off")
            cols = np.searchsorted(indptr, diff, side="right") - 1
            for pos, col in zip(diff, cols):
                h.changeCoeff(int(indices[pos]), int(col), data[pos])
            self._update_in_place(lp)
        elif self._have_basis and self._loaded_dims == dims:
            # Same shape, new matrix: reload but restart from the old basis.
            saved = h.getBasis()
            _pass_model(h, lp, indptr, indices, data)
            h.setOptionValue("presolve", "off")
            h.setBasis(saved)
        else:
            _pass_model(h, lp, indptr, indices, data)
            h.setOptionValue("presolve", "choose")
        h.run()
        if h.getModelStatus() != _STATUS.kOptimal and self._have_basis:
            # A stale basis can mislead the solver; retry cold.
            _pass_model(h, lp, indptr, indices, data)
            h.setOptionValue("presolve", "choose")
            h.run()
        solution = _result(h, lp)
        if solution.is_optimal:
            self._have_basis = True
            self._loaded_pattern = key
            self._loaded_dims = dims
            self._remember(lp)
            self._prev["a_vals"] = data.copy()
        else:
            self._have_basis = False
            self._loaded_pattern = None
            self._loaded_dims = None
        return solution
