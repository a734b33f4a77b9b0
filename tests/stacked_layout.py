"""The controller program's column and row indices with every scenario
stacked: the oracle of ``mpc``'s one-block index space.

``mpc._ReducedLayout`` describes one scenario block, and
``mpc._ProgramTemplate`` replicates it (``columns``, ``rows``) or splits a
program's array back per scenario (``scenarios``).  Here every scenario's
indices are written out, as one (s, ...) array per quantity, so a test can
read scenario xi's columns and rows directly and check the replication
against them.
"""

import numpy as np

from plantmpc import lp, mpc


class StackedLayout:
    """Column/row indices of the program for N steps and S scenarios.

    Per scenario: unit loads ``P`` (s, 4, n), overmet slacks ``O``
    (s, 2, n), storage states ``E`` (s, 2, n+1) and the peak registers
    ``R`` (s, 2).  This month's ``R1`` is the last column of each scenario
    block; next month's ``R2`` columns follow the last block.  The hour-0
    loads and the storage columns of steps 0 and 1 are shared by all
    scenarios.  Each scenario's rows are its ``row_blocks`` in order, one
    row per step, but the dynamics rows start at step 1; ``row_block``
    gives one block (s, steps).
    """

    def __init__(self, n: int, s: int, tower_binds: bool):
        self.n, self.s = n, s
        nu = len(mpc._UNITS)
        steps = dict(cw_bal=n, hw_bal=n, e_dyn_cw=n - 1, e_dyn_hw=n - 1, peak=n)
        if tower_binds:
            steps["tower"] = n
        self.row_blocks = tuple(steps)
        per_scenario = sum(steps.values())
        self.shared = mpc._SHARED
        self.block = (nu + 4) * n - nu - 1
        self.num_vars = self.shared + s * (self.block + 1)
        self.num_rows = per_scenario * s

        xi = np.arange(s)
        base = self.shared + xi * self.block
        units = np.arange(nu)
        tanks = np.arange(2)
        k1 = np.arange(n - 1)

        self.P = np.empty((s, nu, n), dtype=np.intp)
        self.P[:, :, 0] = units
        self.P[:, :, 1:] = base[:, None, None] + units[None, :, None] * (n - 1) + k1
        ooff = base + nu * (n - 1)
        self.O = ooff[:, None, None] + np.arange(2 * n).reshape(1, 2, n)
        self.E = np.empty((s, 2, n + 1), dtype=np.intp)
        self.E[:, :, 0] = nu + tanks
        self.E[:, :, 1] = nu + 2 + tanks
        self.E[:, :, 2:] = (
            (ooff + 2 * n)[:, None, None] + tanks[None, :, None] * (n - 1) + k1
        )
        self.R = np.stack(
            [base + self.block - 1, self.shared + s * self.block + xi], axis=1
        )
        self.rows = (per_scenario * xi)[:, None] + np.arange(per_scenario)
        bounds = np.cumsum([0, *steps.values()])
        self._blocks = {
            name: self.rows[:, a:b] for name, a, b in zip(steps, bounds, bounds[1:])
        }
        self.R1 = self.R[:, 0]
        self.R2 = self.R[:, 1]

    def row_block(self, name: str) -> np.ndarray:
        return self._blocks[name]

    @property
    def shift(self) -> lp.Shift:
        """The one-step shift from the program of hour t to that of t + 1.

        Each step's columns and rows take the statuses of the next step's,
        and the last step keeps its own.  The shared columns take scenario
        0's next-step status; the peak registers keep theirs.
        """
        col = np.arange(self.num_vars, dtype=np.int32)
        for index in (self.P, self.O, self.E):
            nxt = _next_steps(index.shape[2])
            col[index] = index[:, :, nxt]
            col[index[0]] = index[0][:, nxt]
        row = np.empty(self.num_rows, dtype=np.int32)
        for block in self._blocks.values():
            row[block] = block[:, _next_steps(block.shape[1])]
        return lp.Shift(col, row)


def _next_steps(steps: int) -> np.ndarray:
    """Each step's next one, the last step its own."""
    return np.minimum(np.arange(1, steps + 1), steps - 1)
