"""The plant's linear model is stated once, in ``plant.py``.

The conversion coefficients ``alpha_*`` enter the balance, purchase and
rate-limit arrays there; every other module of the package reads those
arrays, never a coefficient.  This scan fails when a module reads an
``alpha_*`` attribute, or names one in a string (as ``getattr`` would).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in ROOT.glob("src/plantmpc/*.py") if path.name != "plant.py"
)


def coefficient_reads(source: str) -> list[str]:
    """``alpha_*`` attributes and strings in ``source``, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("alpha_"):
            found.append(f"{node.attr} (line {node.lineno})")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("alpha_")):
            found.append(f"{node.value!r} (line {node.lineno})")
    return found


def test_scan_finds_coefficient_reads():
    source = (
        "a = config.alpha_e_cs * p\n"
        "b = getattr(config, 'alpha_w_ct')\n"
        "c = config.pmax_cs\n"
    )
    assert coefficient_reads(source) == ["alpha_e_cs (line 1)", "'alpha_w_ct' (line 2)"]


def test_modules_found():
    assert {"mpc.py", "restoration.py", "simulate.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_plant_reads_coefficients(path):
    assert coefficient_reads(path.read_text()) == []
