"""scipy's compiled extensions, loaded without their subpackages.

plantmpc calls two of scipy's extension modules: HiGHS's binding
``scipy.optimize._highspy._core`` (``lp``) and LAPACK's
``scipy.linalg._flapack`` (``forecast``).  Imported through its package, each
would first run that package's ``__init__.py``: scipy.optimize's loads 238
modules that nothing here uses (about 18 MB), scipy.linalg's 297 (about
23 MB).  ``load_scipy_extension`` loads the extension from its file instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import scipy


def load_scipy_extension(name: str) -> ModuleType:
    """scipy's extension module ``name``, without running its package.

    The module scipy loaded, if ``name`` is loaded; else the extension
    loaded from its file next to scipy's package, under its full dotted
    name.  A missing file raises ImportError; there is no fallback import.

    The module is left out of ``sys.modules``, so a later import of its
    package loads it through the import system, which makes it an
    attribute of the package; an entry in ``sys.modules`` would skip that.
    That import shares the functions plantmpc holds: HiGHS's binding hands
    back this very module object, and an f2py extension such as
    ``_flapack`` (single-phase initialisation, which lists itself in
    ``sys.modules`` as it loads) a new module object holding a copy of
    this one's namespace.
    """
    if name in sys.modules:
        return sys.modules[name]
    package, _, leaf = name.removeprefix("scipy.").rpartition(".")
    path = (Path(scipy.__file__).parent.joinpath(*package.split("."))
            / f"{leaf}{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    if not path.is_file():
        raise ImportError(f"scipy extension not found: {path}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module
