"""The compiled scipy kernels perifp calls, loaded without scipy's packages.

``import scipy.linalg`` runs scipy's array-API layer, which loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, and ``import
scipy.optimize`` loads all of the optimizers: together about 0.6 s and
39 MB of peak RSS (2-core Xeon, scipy 1.17) for two LAPACK routines and
one assignment solver.  Each compiled module is loaded here from its
package's directory instead, without running the package's
``__init__``, and registered in ``sys.modules`` under its own name, so a
later ``import scipy.linalg`` reuses the same module object.  A scipy
release that moves or renames one of them fails here with an ImportError
naming it; there is no fallback.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys


def _kernels(package: str, module: str, names: str):
    """The functions ``names`` of the compiled module ``package.module``."""
    full = f"{package}.{module}"
    mod = sys.modules.get(full)
    if mod is None:
        spec = importlib.util.find_spec(package)   # imports scipy, not package
        ext = spec and importlib.machinery.FileFinder(
            spec.submodule_search_locations[0],
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(full)
        if ext is None:
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
