"""Every call the benchmark traces is still where the tracer looks for it.

``perfbench/tracing.py`` replaces module and class attributes with timing
wrappers and restores them from the owner's own ``__dict__``.  A seam that
was renamed, moved or is only inherited would otherwise show only as a
benchmark worker exiting with an error.  The tracer is loaded from its
file and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from plantmpc import simulate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """The tracer module, registered only while it executes (its
    dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SEAMS = [(simulate, "month_timing")] + [
    (owner, attr) for owner, attr, _, _ in load_tracing().layer_calls()
]


@pytest.mark.parametrize(
    "owner,attr", SEAMS, ids=[f"{o.__name__}.{a}" for o, a in SEAMS]
)
def test_traced_seam_is_an_own_attribute(owner, attr):
    if attr not in owner.__dict__:
        pytest.fail(f"{owner.__name__}.{attr} is traced but not defined there")
