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
        """The one-step rotation from the program of hour t to that of
        t + 1, one scenario and one step chain at a time.

        Step 0 keeps its places: the shared columns and every scenario's
        step-0 rows and overmet slacks.  Each later step takes the places
        of its next step, and the last step those of step 1.  The peak
        registers keep their places.
        """
        col = np.arange(self.num_vars, dtype=np.int32)
        for index in (self.P, self.O, self.E):
            for chain in index.reshape(-1, index.shape[2]):
                later = chain[1:][chain[1:] >= self.shared]
                col[later] = np.roll(later, -1)
        row = np.arange(self.num_rows, dtype=np.int32)
        for name, block in self._blocks.items():
            later = block if name.startswith("e_dyn") else block[:, 1:]
            row[later] = np.roll(later, -1, axis=1)
        return lp.Shift(col, row)
