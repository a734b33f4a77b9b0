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
from one of three starting bases.  When the program has the shape of the
last optimal one, it restarts warm from HiGHS's own basis of that program,
with each column and row of the new program loaded at the HiGHS position
of the one that the caller's ``shift`` names (a receding horizon's
one-step rotation).  Else it starts from the caller's ``start`` (a
``Basis``, which need not be consistent), else from the slack basis.
Every HiGHS solve of the package runs on a session: the controllers',
the scenario-mean programs' and restoration's corrections.

A ``LinearProgram`` holds its matrix in the column layout ``passModel``
reads: column starts, row indices and values (``column_major``), so a
load at the program's own indices hands HiGHS the program's own arrays, a
warm load gathers them into their positions, and a session keeps no
sparsity pattern from run to run.  The entries' column indices are not
stored: ``a_cols`` derives them from the starts when asked, which only
checks and tests do (1.5 MB fewer held through every solve at S = 100).
A program whose column starts decrease raises ValueError.

Each HiGHS instance keeps one option set for all its runs, and every
session has the same one: it runs every program, cold or warm, without
presolve and without the dual simplex's cost perturbation, which HiGHS's
defaults turn on (presolve "choose", perturbation multiplier 1.0).  The
perturbation guards the dual simplex against degeneracy, but a restart
from an optimal basis pays to undo it: removing it at the end leaves dual
infeasibilities that a primal "perturbation cleanup" must repair.  On the
paper-scale stochastic program (S = 100, N = 168, sto-paper inputs, seed
0, hour 2) a warm restart with the perturbation took 2 137 dual phase-2
iterations, then 1 988 cleanup iterations for 3 993 dual
infeasibilities; without it 2 031 and 1 231 for 1 532.  Over the
benchmark's sto-paper window that is 3 343 instead of 5 923 simplex
iterations per warm hour (seed 0).  From the
slack basis the perturbation costs too: the same window's first, cold
solve takes 80 647 iterations without both options and 104 187 with
them, about 3.1 s instead of 8.7 s on a shared 2-CPU host (HiGHS 1.12.0).
Presolve saves that solve no iterations, and its reduced copy of the
program was the run's peak memory: 309 MB instead of 384 MB.  Started
from the scenario-mean program's basis (``mpc.ReducedProgram.start``),
that cold solve takes 6 311 iterations, 786 of them the mean program's,
and about 0.8 s instead of 3.3 s on one pinned CPU of the same host.

A receding horizon moves every step one hour earlier, so the last basis
left where it was is stale in every step: on the program of all S = 100
scenarios its warm restart ended in a primal cleanup of about 1 500 dual
infeasibilities, and the same window's warm hours took 3 343 iterations
instead of 951 from the basis moved one step (seed 0).  That basis was
moved through Python, one status per column and row: read (the basic set
from ``getBasicVariables``, the sides from codes the session kept of every
optimum), shifted, and written back as an alien basis that HiGHS repaired
with a factorization of its own.  On the program of the 20 scenarios
the stochastic controller keeps (``simulate.KEPT_SCENARIOS``, 26 808
columns), that cost about 0.36 ms to read, 0.65 ms to build the binding's
basis and 0.7-0.9 ms in ``setBasis`` (sto-paper, seed 0, hour 2, one
pinned CPU), about a sixth of the warm solve, so the one-scenario
programs were restarted unmoved.

The session moves the program instead, as receding-horizon active-set
methods reuse the last solution moved along the horizon (Ferreau, Bock
and Diehl, Int. J. Robust Nonlinear Control, 2008).  Each column and row
is loaded at the HiGHS position of the one that the ``shift`` names in
the last program, between ``getBasis`` and ``setBasis`` of one binding
object, so the restart starts from HiGHS's own basis, not an alien one,
and no status crosses into Python.  The positions compose hour by hour;
the solution is read back through them, and a load from the caller's
``start`` or the slack basis resets them.  A ``Shift`` must be a
permutation (a rotation, ``mpc._ProgramTemplate.shift``): every position
then holds one column or row and the basis keeps its basic count.
Gathering the arrays into their positions takes about 0.4 ms at 26 808
columns and 0.03 ms at a one-scenario program's 1 348, and the basis
object's round trip 6 us.  A rotated basis can still be singular where
the last step meets the first: HiGHS then swaps slacks in for 5-17
columns of the 26 808 and runs a short dual phase 1.  Over the
benchmark's windows (seeds 0, 1 and 7919, HiGHS 1.12.0) the warm
restarts took these simplex iterations in all, against those of the
alien or unmoved basis: sto-paper's nine 1 880-1 942 (1 877-2 021),
det-monthend's 335 2 620-2 733 (16 411-19 785) and perf-monthend's 335
1 175-1 349 (19 429-21 258).  Their median solve, in process on one
pinned CPU, fell from 12.4-12.6 to 9.9-11.1 ms, from 0.60-0.61 to
0.49-0.51 ms and from 0.59-0.64 to 0.44 ms.
"""

from __future__ import annotations

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
        sized = [("objective", n), ("lower", n), ("upper", n), ("rhs", m),
                 ("row_sense", m)]
        if self.rhs_lower is not None:
            sized.append(("rhs_lower", m))
        for name, size in sized:
            if np.shape(getattr(self, name)) != (size,):
                raise ValueError(f"{name} needs {size} entries")
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
            if self.rhs_lower is None:
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
#: The options a session sets once, through ``setOptionValue``,
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


def _is_permutation(index: np.ndarray) -> bool:
    """Whether ``index`` holds each of 0 .. size - 1 once."""
    return index.ndim == 1 and np.array_equal(np.sort(index), np.arange(index.size))


@dataclass(frozen=True)
class Shift:
    """A one-step rotation of a program's columns and rows: ``col[j]`` is
    the column of the last program solved whose HiGHS position column j
    takes, ``row[i]`` the same for rows (int32).

    Both maps must be permutations, else ValueError: every position then
    holds one column or row, and the basis the last program left in HiGHS
    keeps its basic count for the next one (``HighsSession``).
    """

    col: np.ndarray
    row: np.ndarray

    def __post_init__(self) -> None:
        for name in ("col", "row"):
            if not _is_permutation(getattr(self, name)):
                raise ValueError(f"the shift's {name} map is not a permutation")


@dataclass(frozen=True)
class _Places:
    """The HiGHS positions of a loaded program's columns and rows:
    ``col[j]`` the position of column j, ``row[i]`` that of row i (intp)."""

    col: np.ndarray
    row: np.ndarray


def _moved(places: _Places | None, shift: Shift | None,
           lp: LinearProgram) -> _Places | None:
    """The positions of ``lp`` when each of its columns and rows takes the
    place that ``shift`` names in the last program, which sat at
    ``places``; without a ``shift``, the last program's positions.  None
    places each column and row at its own index."""
    if shift is None:
        return places
    if shift.col.size != lp.num_vars or shift.row.size != lp.num_rows:
        raise ValueError("the shift does not have the program's shape")
    if places is None:
        return _Places(shift.col.astype(np.intp), shift.row.astype(np.intp))
    return _Places(places.col[shift.col], places.row[shift.row])


def _inverse(index: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``index``."""
    out = np.empty_like(index)
    out[index] = np.arange(index.size, dtype=index.dtype)
    return out


def _nonbasic_codes(lower: np.ndarray, upper: np.ndarray,
                    value: np.ndarray) -> np.ndarray:
    """The status codes of columns or rows between ``lower`` and ``upper``
    at ``value``, were they all nonbasic: at the nearer finite bound (the
    lower one when fixed), zero when free."""
    value = np.clip(value, lower, upper)
    codes = np.multiply((upper - value < value - lower) & (lower < upper), 2,
                        dtype=np.int8)
    codes[np.isinf(lower) & np.isinf(upper)] = 3
    return codes


def _check(status, call: str) -> None:
    """Raise on a HiGHS call that failed; HiGHS itself only logs it."""
    if status == _highs_core.HighsStatus.kError:
        raise RuntimeError(f"HiGHS {call} failed")


def _highs() -> _highs_core._Highs:
    """A HiGHS instance with the options every solve here uses.

    Presolve and the cost perturbation multiplier are not among them: a
    session turns both off when it is made (``_SESSION_OPTIONS``), and an
    instance keeps one setting of both for all its runs.

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


def _pass_model(h, lp: LinearProgram, places: _Places | None = None) -> None:
    """Load ``lp`` whole, as a continuous LP, each column and row at its
    HiGHS position in ``places``; raise ValueError if its column starts
    decrease.

    Without ``places`` each column and row sits at its own index and the
    program's own column starts, row indices and values are passed as they
    are.  Else every array is gathered into HiGHS's order: the columns'
    entries keep their order, so their row indices, now positions, need
    not ascend inside a column, which HiGHS accepts.  HiGHS reads
    ``num_vars`` integrality entries, so all-continuous is an explicit
    zero array rather than an empty one.
    """
    starts = lp.a_starts
    if (starts[1:] < starts[:-1]).any():
        raise ValueError("column starts decrease: entries not in column order")
    row_lower, row_upper = _row_sides(lp)
    cost, col_lower, col_upper = lp.objective, lp.lower, lp.upper
    index, values = lp.a_rows, lp.a_vals
    if places is not None:
        cols, rows = _inverse(places.col), _inverse(places.row)
        cost, col_lower, col_upper, row_lower, row_upper = (
            a[at] for a, at in ((cost, cols), (col_lower, cols), (col_upper, cols),
                                (row_lower, rows), (row_upper, rows)))
        counts = np.diff(starts)[cols]
        first = starts[:-1][cols]
        starts = np.zeros(lp.num_vars + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        # Each entry's index in ``lp``: its column's first entry there plus
        # its offset inside the column.
        entries = np.repeat(first - starts[:-1], counts)
        entries += np.arange(lp.num_entries, dtype=np.int32)
        index, values = places.row[index[entries]], values[entries]
    _check(h.passModel(
        lp.num_vars, lp.num_rows, lp.num_entries, _COLWISE, _MINIMIZE, 0.0,
        cost, col_lower, col_upper, row_lower, row_upper,
        starts, index, values, np.zeros(lp.num_vars, dtype=np.int32),
    ), "passModel")


def _result(h, lp: LinearProgram, places: _Places | None = None) -> LpSolution:
    """The outcome of the last run of ``h`` on ``lp``, loaded at
    ``places`` (``_pass_model``)."""
    status = h.getModelStatus()
    iterations = int(h.getInfo().simplex_iteration_count)
    if status == _STATUS.kOptimal:
        x = np.asarray(h.getSolution().col_value)
        if places is not None:
            x = x[places.col]
        x = np.clip(x, lp.lower, lp.upper)
        return LpSolution(OPTIMAL, x, float(lp.objective @ x), iterations)
    if status == _STATUS.kInfeasible:
        return LpSolution(INFEASIBLE, None, None, iterations)
    if status in (_STATUS.kUnbounded, _STATUS.kUnboundedOrInfeasible):
        return LpSolution(UNBOUNDED, None, None, iterations)
    return LpSolution(ITERATION_LIMIT, None, None, iterations)


class HighsSession:
    """Persistent HiGHS instance that warm-starts receding-horizon solves.

    Every program is loaded whole and run with presolve and cost
    perturbation off, from one of three starting bases:

    - HiGHS's own basis of the last program, when the program has the
      shape (rows, columns) of the last program solved to optimality.
      The program is loaded with each column and row at the position of
      the one the caller's ``shift`` names in the last program (at the
      last program's positions when there is no ``shift``), between
      ``getBasis`` and ``setBasis`` of the same binding object: no status
      crosses into Python and the basis is not alien.  This warm restart
      cuts re-solve time by an order of magnitude;
    - the caller's ``start``, when there is no such basis or the warm run
      ended non-optimal (a stale basis can mislead the solver);
    - the slack basis, when there is no ``start``, it gives no basis, or
      the run from it ended non-optimal.

    The positions compose over warm restarts, and a load from ``start`` or
    from the slack basis puts every column and row back at its own index.
    """

    def __init__(self) -> None:
        self._h = _highs()
        for name, value in _SESSION_OPTIONS:
            _check(self._h.setOptionValue(name, value), f"setOptionValue({name!r})")
        #: The shape of the last program when it was solved to optimality.
        self._optimum = None
        #: The HiGHS positions of the loaded program (None: its own indices).
        self._places = None

    def _run(self, lp: LinearProgram,
             start: Callable[[], Basis | None] | None = None,
             shift: Shift | None = None) -> LpSolution:
        """Solve ``lp``; ``start`` is called only when no warm restart
        ended optimal, and ``shift`` only places a warm restart's program.

        A solution from ``start``'s basis counts the iterations that found
        the basis too.  After a fallback, the iterations are those of the
        last run alone.
        """
        h = self._h
        dims = (lp.num_rows, lp.num_vars)
        # Cleared first, so that a load that raises leaves no warm restart.
        warm, self._optimum = self._optimum == dims, None
        found, optimal = 0, False
        if warm:
            places = _moved(self._places, shift, lp)
            basis = h.getBasis()
            _pass_model(h, lp, places)
            self._places = places
            _check(h.setBasis(basis), "setBasis")
            del basis
            h.run()
            optimal = h.getModelStatus() == _STATUS.kOptimal
        if not optimal:
            self._places = None
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
        solution = _result(h, lp, self._places)
        solution.iterations += found
        self._optimum = dims if solution.is_optimal else None
        return solution

    #: ``perfbench`` and the tests patch or time this attribute; the
    #: scenario-mean solves of ``mpc._mean_start`` and restoration's
    #: corrections call ``_run``, so it sees the controllers' own solves only.
    solve = _run

    def basis(self) -> Basis:
        """The optimal basis of the last run as status codes, over the
        program's own columns and rows.

        The basic set comes from HiGHS; each nonbasic column sits at the
        bound its value is on and each nonbasic row at the side its
        activity is on, a fixed column or an equality row at its lower
        side.  Only those two sides may differ from ``getBasis``, and HiGHS
        never moves them.  The bounds and values are read from HiGHS as
        lists of floats, cheap on the one-scenario programs whose bases
        ``mpc._mean_start`` reads; ``getBasis``'s statuses come as lists of
        binding enums, which took 200-270 ms to read at paper scale.
        """
        if self._optimum is None:
            raise ValueError("the last run did not end optimal")
        h = self._h
        model, solution = h.getLp(), h.getSolution()
        col = _nonbasic_codes(np.asarray(model.col_lower_),
                              np.asarray(model.col_upper_),
                              np.asarray(solution.col_value))
        row = _nonbasic_codes(np.asarray(model.row_lower_),
                              np.asarray(model.row_upper_),
                              np.asarray(solution.row_value))
        status, basic = h.getBasicVariables()
        _check(status, "getBasicVariables")
        col[basic[basic >= 0]] = 1
        row[-1 - basic[basic < 0]] = 1
        if self._places is not None:
            col, row = col[self._places.col], row[self._places.row]
        return Basis(col, row)

