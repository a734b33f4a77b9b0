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


# scipy.signal (lfilter/lfiltic would be the textbook way to continue an
# AR recursion) costs about 25 MB of resident memory to import.  With
# scipy 1.17.1 it raised peak RSS from 78 to 104 MB for "import plantmpc"
# alone, and from 93.9 to 119.4 MB on the det-monthend benchmark (seed 0),
# whose peak-RSS bound is 10 %.  The AR mean uses a triangular solve from
# scipy.linalg, which the package loads anyway.
SMOKE_DET_LOOP = """
import sys
import plantmpc
from plantmpc import forecast, simulate
spec = simulate.RunSpec(simulate.ControllerSpec("det"), sim_hours=6,
                        horizon=6, ar_order=6, history_hours=60)
truth = forecast.generate_synthetic_campus(0, days=4)
simulate.run_closed_loop(plantmpc.PlantConfig(), spec, truth)
print(sorted(name for name in sys.modules if name.startswith("scipy.signal")))
"""


def test_closed_loop_does_not_load_scipy_signal():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SMOKE_DET_LOOP], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
