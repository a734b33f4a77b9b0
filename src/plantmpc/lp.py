"""Sparse linear programs solved by HiGHS through scipy's binding.

The binding is scipy's HiGHS extension, ``scipy.optimize._highspy._core``.
This module loads it at import, from its file next to scipy's package and
under its own name (``_extension.load_scipy_extension``), so
``scipy/optimize/__init__.py`` never runs: it loads 238 modules that nothing
here uses, scipy.sparse, special, spatial and fft among them.  ``forecast``
loads LAPACK's extension the same way.  With scipy 1.17.1 "import plantmpc"
then peaks at 37.7 MB of resident memory (78.6 MB through both packages):
the interpreter with numpy takes 26.9 MB of it, a bare "import scipy"
1.2 MB more, the HiGHS binding 3.5 MB, LAPACK's extension 2.7 MB and
plantmpc's own modules the remaining 3.4 MB.  Loaded at import, the binding
is no part of a closed loop's set-up time.

``HighsSession`` solves a sequence of programs on one HiGHS instance.  It
loads every program whole through HiGHS's array ``passModel`` and runs it
from one of four starting bases.  When the program has the shape of the
last optimal one, it restarts warm from that program's basis: as it is,
or, given the caller's ``shift``, moved to the columns and rows that now
hold the same quantities (a receding horizon's one-step shift).  Else it
starts from the caller's ``start`` (a ``Basis``, which need not be
consistent), else from the slack basis.  ``solve`` runs one program once,
from the slack basis, with HiGHS's default options, on the one instance
the process keeps for such solves.

A ``LinearProgram`` holds its matrix in the column layout ``passModel``
reads: column starts, row indices and values (``column_major``), so every
load hands HiGHS the program's own arrays and a session keeps no sparsity
pattern from run to run.  The entries' column indices are not stored:
``a_cols`` derives them from the starts when asked, which only checks and
tests do (1.5 MB fewer held through every solve at S = 100).  A program
whose column starts decrease raises ValueError.

Each HiGHS instance keeps one option set for all its runs, and the two
callers differ in two options: a session runs every program, cold or
warm, without presolve and without the dual simplex's cost perturbation;
``solve``'s instance keeps HiGHS's defaults, presolve "choose" and
perturbation multiplier 1.0.  The perturbation guards the
dual simplex against degeneracy, but a restart from an optimal basis pays
to undo it: removing it at the end leaves dual infeasibilities that a
primal "perturbation cleanup" must repair.  On the paper-scale stochastic
program (S = 100, N = 168, sto-paper inputs, seed 0, hour 2) a warm
restart with the perturbation took 2 137 dual phase-2 iterations, then
1 988 cleanup iterations for 3 993 dual infeasibilities; without it 2 031
and 1 231 for 1 532.  Over the benchmark's sto-paper window that is 3 343
instead of 5 923 simplex iterations per warm hour (seed 0).  From the
slack basis the perturbation costs too: the same window's first, cold
solve takes 80 647 iterations without both options and 104 187 with
them, about 3.1 s instead of 8.7 s on a shared 2-CPU host (HiGHS 1.12.0).
Presolve saves that solve no iterations, and its reduced copy of the
program was the run's peak memory: 309 MB instead of 384 MB.  Started
from the scenario-mean program's basis (``mpc.ReducedProgram.start``),
that cold solve takes 6 311 iterations, 786 of them the mean program's,
and about 0.8 s instead of 3.3 s on one pinned CPU of the same host.

A receding horizon moves every step one hour earlier, so the unshifted
basis of the last hour is stale in every step: its warm restart ended in
a primal cleanup of about 1 500 dual infeasibilities.  Shifted
(``mpc.ReducedProgram.shift``), on scenario noise that moves with the
horizon, the same window's warm hours take 951 iterations instead of
3 343 (seed 0).  Moving that program's statuses, one per column and
row, cost about 25 ms of the roughly 310-340 ms warm solve: reading them
(``HighsSession.basis``) about 7 ms, shifting them 1 ms and writing the
alien basis 17 ms.  Read through ``getBasis``, whose statuses come as
lists of binding enums, they took 200-270 ms.  A nonbasic two-sided row
(``RANGE``, the tank rate limits of ``mpc``) sits at one of two sides;
the session finds which from the row activities of the optimum, one
``np.bincount`` over the matrix entries.

The paper-scale stochastic figures here and in ``_highs`` were
measured on the program of all S = 100 sampled scenarios (134 008
columns).  The stochastic controller now keeps 20 of them
(``simulate.KEPT_SCENARIOS``), a program of 26 808 columns whose warm
solve takes about 30 ms and 210-225 iterations on the same window (seeds
0, 1 and 7919).

``solve`` keeps the defaults because the vertex it returns among
alternate optima is what their callers were written against: the
tie-breaks of ``tests/test_mpc.py``'s scenario-order and
nonanticipativity comparisons, and restoration's correction LP, whose
alternate optima move the closed loop's cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._extension import load_scipy_extension

_highs_core = load_scipy_extension("scipy.optimize._highspy._core")

LE, EQ, GE, RANGE = -1, 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class LinearProgram:
    """min cᵀx subject to sparse rows with senses and per-variable bounds.

    A row of sense ``LE``, ``EQ`` or ``GE`` has one side, ``rhs``.  A
    two-sided row (``RANGE``) lies between ``rhs_lower`` and ``rhs``;
    ``rhs_lower`` has one entry per row and is read at ``RANGE`` rows only,
    so a program without them may leave it None.

    The matrix is held in HiGHS's column layout: its entries grouped by
    column in ascending order, rows ascending inside each column, and
    ``a_starts[j]`` the position of column j's first entry (the last of
    the ``num_vars + 1`` starts is the entry count).  Row indices and
    starts are int32; the column indices ``a_cols`` are derived from the
    starts.  ``column_major`` builds the three matrix fields from entries
    given in any order.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_sense: np.ndarray
    rhs: np.ndarray
    a_rows: np.ndarray
    a_vals: np.ndarray
    a_starts: np.ndarray
    rhs_lower: np.ndarray | None = None

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rhs.shape[0]

    @property
    def num_entries(self) -> int:
        return self.a_vals.shape[0]

    @property
    def a_cols(self) -> np.ndarray:
        """Each entry's column index (int32), a fresh array derived from the
        starts."""
        return np.repeat(np.arange(self.num_vars, dtype=np.int32),
                         np.diff(self.a_starts))

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
        starts = self.a_starts
        if (starts.shape != (n + 1,) or starts[0] != 0
                or starts[-1] != self.num_entries
                or self.a_rows.shape != self.a_vals.shape):
            raise ValueError("column starts do not match the entries")
        if np.any(starts[1:] < starts[:-1]):
            raise ValueError("column starts decrease: entries not in column-major order")
        if self.num_entries:
            if self.a_rows.min() < 0 or self.a_rows.max() >= m:
                raise ValueError("row index out of range")
            steps = np.diff(self.a_cols.astype(np.int64) * m + self.a_rows)
            if np.any(steps == 0):
                raise ValueError("duplicate (row, col) entries")
            if np.any(steps < 0):
                raise ValueError("entries not in column-major order")
        if not np.all(np.isin(self.row_sense, (LE, EQ, GE, RANGE))):
            raise ValueError("invalid row sense")
        ranged = self.row_sense == RANGE
        if ranged.any():
            if self.rhs_lower is None or self.rhs_lower.shape != self.rhs.shape:
                raise ValueError("two-sided rows need one lower side per row")
            if not np.all(np.isfinite(self.rhs_lower[ranged])):
                raise ValueError("non-finite coefficients")
            if np.any(self.rhs_lower[ranged] > self.rhs[ranged]):
                raise ValueError("crossed row sides")


def _starts(a_cols: np.ndarray, num_vars: int) -> np.ndarray:
    """The column starts of sorted column indices ``a_cols`` (int32)."""
    starts = np.zeros(num_vars + 1, dtype=np.int32)
    starts[1:] = np.bincount(a_cols, minlength=num_vars).cumsum()
    return starts


def column_major(a_rows, a_cols, a_vals, num_vars: int) -> dict:
    """Matrix entries given in any order, as ``LinearProgram`` holds them:
    the program's fields ``a_rows``, ``a_vals`` and ``a_starts`` for
    ``num_vars`` columns."""
    a_rows, a_cols = np.asarray(a_rows), np.asarray(a_cols)
    # lexsort's order from one stable sort of one int64 key per entry:
    # about a third of lexsort's time on the paper-scale template, whose
    # entries come in long sorted runs.
    num_rows = int(a_rows.max()) + 1 if a_rows.size else 1
    order = np.argsort(a_cols.astype(np.int64) * num_rows + a_rows, kind="stable")
    return dict(a_rows=a_rows[order].astype(np.int32),
                a_vals=np.asarray(a_vals, dtype=float)[order],
                a_starts=_starts(a_cols, num_vars))


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
#: ``HighsBasisStatus`` members indexed by their codes, as an object array:
#: indexing it with an array of codes is the cheapest way to build the
#: binding's lists of members.
_BASIS_STATUS = np.array(
    sorted(_highs_core.HighsBasisStatus.__members__.values(), key=int), dtype=object)
_COLWISE = int(_highs_core.MatrixFormat.kColwise)
_MINIMIZE = int(_highs_core.ObjSense.kMinimize)
#: The options a controller session sets once, through ``setOptionValue``,
#: for every run, cold or warm; scipy's ``HighsOptions`` has no attribute
#: for the perturbation.
_SESSION_OPTIONS = (("presolve", "off"),
                    ("dual_simplex_cost_perturbation_multiplier", 0.0))


@dataclass
class Basis:
    """A starting basis: one HiGHS basis status code per column and per row
    (``HighsBasisStatus``: 0 lower, 1 basic, 2 upper, 3 zero, 4 nonbasic),
    and the simplex iterations it took to find."""

    col: np.ndarray
    row: np.ndarray
    iterations: int = 0

    def alien(self) -> _highs_core.HighsBasis:
        """The basis for ``setBasis``, marked alien: HiGHS then accepts one
        whose basic count is off and repairs it itself."""
        basis = _highs_core.HighsBasis()
        basis.alien = True
        basis.col_status = _BASIS_STATUS[self.col].tolist()
        basis.row_status = _BASIS_STATUS[self.row].tolist()
        return basis

    def shifted(self, shift: Shift) -> Basis:
        """This basis moved to the next program: each of its columns and
        rows takes the status of the one ``shift`` maps it to."""
        return Basis(self.col[shift.col], self.row[shift.row])


@dataclass(frozen=True)
class Shift:
    """Where each column and row of a program takes its starting status
    from in the last program solved: ``col[j]`` is the index of the last
    program's column whose status column j takes, ``row[i]`` the same for
    rows (int32)."""

    col: np.ndarray
    row: np.ndarray


def _nonbasic_codes(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """The status codes of ``lp``'s columns at ``x``, were they all
    nonbasic: at the nearer finite bound (the lower one when fixed), zero
    when free."""
    codes = np.multiply(lp.upper - x < x - lp.lower, 2, dtype=np.int8)
    codes[np.isinf(lp.lower) & np.isinf(lp.upper)] = 3
    return codes


def _nonbasic_row_codes(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """The status codes of ``lp``'s rows at ``x``, were they all nonbasic:
    at the finite side of a one-sided row, the lower one of an equality,
    and at the nearer side of the activity of a two-sided row."""
    codes = np.multiply(lp.row_sense == LE, 2, dtype=np.int8)
    ranged = lp.row_sense == RANGE
    if ranged.any():
        activity = np.bincount(
            lp.a_rows, weights=lp.a_vals * np.repeat(x, np.diff(lp.a_starts)),
            minlength=lp.num_rows)[ranged]
        codes[ranged] = np.multiply(
            lp.rhs[ranged] - activity < activity - lp.rhs_lower[ranged], 2,
            dtype=np.int8)
    return codes


def _check(status, call: str) -> None:
    """Raise on a HiGHS call that failed; HiGHS itself only logs it."""
    if status == _highs_core.HighsStatus.kError:
        raise RuntimeError(f"HiGHS {call} failed")


def _highs() -> _highs_core._Highs:
    """A HiGHS instance with the options every solve here uses.

    Presolve and the cost perturbation multiplier are not among them:
    each instance keeps one setting of both for all its runs.  A
    controller session turns both off when it is made
    (``_SESSION_OPTIONS``); ``solve``'s instance keeps HiGHS's defaults,
    presolve "choose" and multiplier 1.0.

    Matrix scaling is disabled: the plant matrices are naturally well
    ranged and the scaling pass both costs time and degrades basis reuse.

    Dual edge weights use Dantzig pricing (0; in HiGHS 1.12 -1 chooses,
    1 is devex, 2 steepest edge).  On the paper-scale stochastic program
    (S = 100, N = 168, sto-paper seed 0, hour 0) neither alternative was
    faster for a session's cold solve from the slack basis, without
    presolve and cost perturbation, in three runs each on one pinned CPU
    of a shared 2-CPU host: Dantzig 80 647 iterations in 2.2-2.6 s, devex
    79 754 in 2.5-3.1 s, steepest edge 79 584 in 2.6-3.9 s.  With presolve
    and the perturbation, warm iteration counts moved by at most 11 %.
    """
    h = _highs_core._Highs()
    opts = _highs_core.HighsOptions()
    opts.output_flag = False
    opts.threads = 1
    opts.simplex_scale_strategy = 0
    opts.simplex_dual_edge_weight_strategy = 0
    h.passOptions(opts)
    return h


def _row_sides(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    lower = np.where(lp.row_sense == LE, -np.inf, lp.rhs)
    if lp.rhs_lower is not None:
        lower = np.where(lp.row_sense == RANGE, lp.rhs_lower, lower)
    return lower, np.where(lp.row_sense == GE, np.inf, lp.rhs)


def _pass_model(h, lp: LinearProgram) -> None:
    """Load ``lp`` whole, as a continuous LP, its own column starts, row
    indices and values passed as they are; raise ValueError if its column
    starts decrease.

    HiGHS reads ``num_vars`` integrality entries, so all-continuous is an
    explicit zero array rather than an empty one.
    """
    if (lp.a_starts[1:] < lp.a_starts[:-1]).any():
        raise ValueError("column starts decrease: entries not in column order")
    row_lower, row_upper = _row_sides(lp)
    _check(h.passModel(
        lp.num_vars, lp.num_rows, lp.num_entries, _COLWISE, _MINIMIZE, 0.0,
        lp.objective, lp.lower, lp.upper, row_lower, row_upper,
        lp.a_starts, lp.a_rows, lp.a_vals, np.zeros(lp.num_vars, dtype=np.int32),
    ), "passModel")


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


class HighsSession:
    """Persistent HiGHS instance that warm-starts receding-horizon solves.

    Every program is loaded whole, its column-major arrays passed as they
    are, and run with presolve and cost perturbation off, from one of four
    starting bases:

    - the last optimal basis, when the program has the shape (rows,
      columns) of the last program solved to optimality and the caller
      gives no ``shift``.  This warm restart cuts re-solve time by an
      order of magnitude;
    - the same basis moved by the caller's ``shift`` (``Basis.shifted``),
      as an alien basis, which HiGHS repairs;
    - the caller's ``start``, when there is no such basis or the warm run
      ended non-optimal (a stale basis can mislead the solver);
    - the slack basis, when there is no ``start``, it gives no basis, or
      the run from it ended non-optimal.
    """

    def __init__(self) -> None:
        self._h = _highs()
        for name, value in _SESSION_OPTIONS:
            _check(self._h.setOptionValue(name, value), f"setOptionValue({name!r})")
        self._optimum = None

    def _run(self, lp: LinearProgram,
             start: Callable[[], Basis | None] | None = None,
             shift: Shift | None = None) -> LpSolution:
        """Solve ``lp``; ``start`` is called only when no warm restart
        ended optimal, and ``shift`` only moves the basis of a warm restart.

        A solution from ``start``'s basis counts the iterations that found
        the basis too.  After a fallback, the iterations are those of the
        last run alone.
        """
        h = self._h
        dims = (lp.num_rows, lp.num_vars)
        warm = self._optimum is not None and self._optimum[0] == dims
        found, optimal = 0, False
        if warm:
            if shift is None:
                basis = h.getBasis()
            else:
                basis = self.basis().shifted(shift).alien()
            _pass_model(h, lp)
            _check(h.setBasis(basis), "setBasis")
            del basis
            h.run()
            optimal = h.getModelStatus() == _STATUS.kOptimal
        if not optimal and start is not None and (basis := start()) is not None:
            _pass_model(h, lp)
            _check(h.setBasis(basis.alien()), "setBasis")
            found = basis.iterations
            del basis
            h.run()
            optimal = h.getModelStatus() == _STATUS.kOptimal
        if not optimal:
            found = 0
            _pass_model(h, lp)
            h.run()
        solution = _result(h, lp)
        solution.iterations += found
        # The shape and nonbasic sides of the optimum, for warm restarts and
        # ``basis``.  Codes, not the bounds they come from: those would keep
        # 3 MB of the last program alive through the next solve at paper
        # scale.
        self._optimum = ((dims, _nonbasic_codes(lp, solution.x),
                          _nonbasic_row_codes(lp, solution.x))
                         if solution.is_optimal else None)
        return solution

    #: ``perfbench`` and the tests patch or time this attribute; the
    #: scenario-mean solves of ``mpc._mean_start`` call ``_run``, so it sees
    #: the controllers' own solves only.
    solve = _run

    def basis(self) -> Basis:
        """The optimal basis of the last run as status codes.

        The basic set comes from HiGHS; each nonbasic column sits at the
        bound its value is on, each nonbasic row at its finite side (the
        lower one of an equality) or, two-sided, at the side its activity
        is on.  Only the sides of fixed columns and of equality rows may
        differ from ``getBasis``, and HiGHS never moves those.
        ``getBasis`` returns lists of binding enums, which at paper scale
        took 200-270 ms to read as codes against about 7 ms here.
        """
        if self._optimum is None:
            raise ValueError("the last run did not end optimal")
        _, col, row = self._optimum
        col, row = col.copy(), row.copy()
        status, basic = self._h.getBasicVariables()
        _check(status, "getBasicVariables")
        col[basic[basic >= 0]] = 1
        row[-1 - basic[basic < 0]] = 1
        return Basis(col, row)


#: The HiGHS instance that ``solve`` runs every program on, one per process,
#: with HiGHS's default presolve and cost perturbation.
_solver = functools.cache(_highs)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve one program from scratch with HiGHS's defaults; deterministic.

    The program is loaded whole and solved cold from the slack basis, with
    presolve and cost perturbation, on the process's one instance for such
    solves (``_solver``): the outcome is the one a fresh instance gives,
    whatever the instance solved before.  It is not a session's cold
    solve, which runs without both.
    """
    h = _solver()
    _pass_model(h, lp)
    h.run()
    return _result(h, lp)
