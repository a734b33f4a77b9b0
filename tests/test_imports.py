"""Every name a module imports is used in that module.

``__init__.py`` is left out because it imports names to re-export them.
"""

import ast
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
