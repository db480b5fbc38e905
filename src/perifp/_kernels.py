"""The compiled scipy kernels perifp calls, loaded without scipy's packages.

``import scipy.linalg`` runs scipy's array-API layer, which loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, and ``import
scipy.optimize`` loads all of the optimizers: together about 0.6 s and
39 MB of peak RSS (2-core Xeon, scipy 1.17) for two LAPACK routines and
one assignment solver.  Even ``import scipy`` alone loads its test
utilities, ``subprocess`` and ``locale``.  So nothing of scipy's Python
package is imported: its directory is found on ``sys.path`` without
running any ``__init__``, each compiled module is loaded from there and
registered in ``sys.modules`` under its own name, so a later ``import
scipy.linalg`` reuses the same module object.  A scipy release that moves
or renames one of them fails here with an ImportError naming it; there is
no fallback.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _kernels(package: str, module: str, names: str):
    """The functions ``names`` of the compiled module ``package.module``."""
    full = f"{package}.{module}"
    mod = sys.modules.get(full)
    if mod is None:
        top, *subpackages = package.split(".")
        spec = importlib.machinery.PathFinder.find_spec(top)    # a lookup: imports nothing
        ext = spec and spec.submodule_search_locations and importlib.machinery.FileFinder(
            os.path.join(spec.submodule_search_locations[0], *subpackages),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(full)
        if not ext:
            raise ImportError(f"compiled module {full} not found", name=full)
        mod = importlib.util.module_from_spec(ext)
        sys.modules[full] = mod
        ext.loader.exec_module(mod)
    missing = [name for name in names.split() if not hasattr(mod, name)]
    if missing:
        raise ImportError(f"compiled module {full} has no {', '.join(missing)}", name=full)
    return [getattr(mod, name) for name in names.split()]


dgttrf, dgttrs = _kernels("scipy.linalg", "_flapack", "dgttrf dgttrs")
linear_sum_assignment, = _kernels("scipy.optimize", "_lsap", "linear_sum_assignment")
