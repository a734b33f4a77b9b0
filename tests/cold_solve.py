"""One-shot HiGHS solves with HiGHS's default options, for tests.

``solve`` runs one program once, from the slack basis, with presolve
"choose" and cost perturbation multiplier 1.0, on the one instance the
test process keeps for such solves (``_solver``).  It is the cold-solve
oracle that ``lp.HighsSession``, the controller programs and restoration
are compared against: a solver path that shares nothing with a session's
but HiGHS itself.

It keeps the defaults because the vertex it returns among alternate optima
is what some tests were written against: the tie-breaks of
``tests/test_mpc.py``'s scenario-order and nonanticipativity comparisons.
"""

from __future__ import annotations

import functools

from plantmpc import lp

#: The HiGHS instance that ``solve`` runs every program on, one per process,
#: with HiGHS's default presolve and cost perturbation.
_solver = functools.cache(lp._highs)


def solve(program: lp.LinearProgram) -> lp.LpSolution:
    """Solve one program from scratch with HiGHS's defaults; deterministic.

    The program is loaded whole and solved cold from the slack basis, with
    presolve and cost perturbation, on the process's one instance for such
    solves (``_solver``): the outcome is the one a fresh instance gives,
    whatever the instance solved before.  It is not a session's cold
    solve, which runs without both.
    """
    h = _solver()
    lp._pass_model(h, program)
    h.run()
    return lp._result(h, program)
