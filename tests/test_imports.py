"""Every name a module imports is used in that module, and the package
loads no heavy module it does not need.

``__init__.py`` is left out of the unused-import scan because it imports
names to re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/plantmpc/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nloads(system.argv)\n"
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


def test_modules_found():
    assert {"lp.py", "cli.py", "test_imports.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


# The package loads no scipy subpackage it does not use.  With scipy 1.17.1
# "import plantmpc" peaks at 61.1 MB of resident memory and the det-monthend
# benchmark at 70.3 MB, whose peak-RSS bound is 10 %.  scipy.optimize's
# package would add about 18 MB (238 modules, scipy.sparse, special, spatial
# and fft among them), so ``lp`` loads the HiGHS extension from its file.
# scipy.signal (lfilter/lfiltic would be the textbook way to continue an AR
# recursion) would raise "import plantmpc" to 103.9 MB, as it loads
# scipy.optimize too; the AR mean uses a triangular solve from scipy.linalg,
# which the package loads anyway.
UNUSED_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.special",
                "scipy.spatial", "scipy.fft", "scipy.signal")

SMOKE_LOOPS = f"""
import sys
import plantmpc
from plantmpc import forecast, simulate
truth = forecast.generate_synthetic_campus(0, days=4)
for controller in (simulate.ControllerSpec("det"),
                   simulate.ControllerSpec("sto", scenarios=2),
                   simulate.ControllerSpec("perf")):
    spec = simulate.RunSpec(controller, sim_hours=6, horizon=6, ar_order=6,
                            history_hours=60)
    simulate.run_closed_loop(plantmpc.PlantConfig(), spec, truth)
print(sorted(set(sys.modules) & set({UNUSED_SCIPY!r})))
"""


def run_python(source: str) -> str:
    """The standard output of ``source`` run by a fresh interpreter, which
    starts with no module that this pytest process has imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", source], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_closed_loop_does_not_load_scipy_signal():
    assert run_python(SMOKE_LOOPS).strip() == "[]"


# Both import orders end with one HiGHS module object, initialised once: the
# one ``lp`` holds, ``sys.modules`` lists under its name alone (with the
# submodules it made) and ``scipy.optimize._highspy`` has as an attribute,
# whose types plantmpc's and scipy's solves both use.
SHARED_BINDING = """
import sys
import numpy as np
{imports}
core = scipy.optimize._highspy._core
assert core is plantmpc.lp._highs_core is sys.modules[core.__name__]
modules = list(sys.modules.items())
assert [name for name, module in modules if module is core] == [core.__name__]
for name, module in modules:
    if name.startswith(core.__name__ + "."):
        assert getattr(core, name.rpartition(".")[2]) is module, name
assert plantmpc.lp._STATUS is core.HighsModelStatus

res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                             method="highs")
assert res.status == 0 and np.allclose(res.x, [1.0, 0.0])
res = scipy.optimize.milp(
    [-1.0, -2.0], integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 3),
    constraints=scipy.optimize.LinearConstraint([[2.0, 2.0]], -np.inf, 5.0))
assert res.status == 0 and res.fun == -4.0

one = np.ones(1)
prog = plantmpc.LinearProgram(
    objective=one, lower=np.zeros(1), upper=np.full(1, np.inf),
    row_sense=np.full(1, plantmpc.lp.GE, dtype=np.int8), rhs=one,
    **plantmpc.lp.column_major([0], [0], one, 1))
assert plantmpc.solve(prog).objective == 1.0
assert plantmpc.HighsSession().solve(prog).objective == 1.0
print("ok")
"""


@pytest.mark.parametrize("imports", [
    "import plantmpc\nassert 'scipy.optimize' not in sys.modules\nimport scipy.optimize",
    "import scipy.optimize\nimport plantmpc",
], ids=["plantmpc-first", "scipy-optimize-first"])
def test_scipy_optimize_shares_the_highs_binding(imports):
    assert run_python(SHARED_BINDING.format(imports=imports)).strip() == "ok"
