"""Import hygiene: the compiled scipy kernels loaded without scipy's packages and
shared with them; no subcommand pulls in numpy.ma."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import perifp
from perifp import _kernels

SRC = str(Path(perifp.__file__).resolve().parents[1])


def _fresh(code: str):
    """Run code in a fresh interpreter with perifp importable; return its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


LOADED = ("json.dumps({m: m in sys.modules for m in "
          "('scipy.linalg', 'scipy.optimize', 'scipy.sparse')})")


def test_cli_import_skips_scipy_packages():
    # start-up loads the two compiled modules and nothing of scipy's Python
    # package (whose __init__ alone loads subprocess and locale), and builds
    # no dataclass; scipy's own import later reuses the same module objects
    code = """import json, sys
import perifp.cli
names = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse", "dataclasses",
         "scipy.linalg._flapack", "scipy.optimize._lsap")
loaded = {name: name in sys.modules for name in names}
kernels = [sys.modules[name] for name in names[-2:]]
import scipy.linalg, scipy.optimize
loaded["reused"] = [sys.modules[name] for name in names[-2:]] == kernels
print(json.dumps(loaded))"""
    assert _fresh(code) == {
        "scipy": False, "scipy.linalg": False, "scipy.optimize": False, "scipy.sparse": False,
        "dataclasses": False, "scipy.linalg._flapack": True, "scipy.optimize._lsap": True,
        "reused": True}


def test_equal_weight_d2_dbl_skips_scipy_optimize():
    code = f"""import json, sys
import numpy as np
from perifp.bl_metric import EmpiricalMeasure, dbl
x = np.linspace(0.0, 1.0, 12).reshape(6, 2)
res = dbl(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(x[::-1] + 0.1))
assert res.status == "optimal" and res.distance > 0
print({LOADED})"""
    assert _fresh(code)["scipy.optimize"] is False


def test_unequal_d2_pair_solves_through_linprog():
    code = f"""import json, sys
import numpy as np
from perifp.bl_metric import EmpiricalMeasure, dbl
x = np.linspace(0.0, 1.0, 12).reshape(6, 2)
res = dbl(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(x[:5] + 0.1))
assert res.status == "optimal" and res.distance > 0
print({LOADED})"""
    assert _fresh(code)["scipy.optimize"] is True


@pytest.mark.parametrize("first", ["perifp", "scipy"])
def test_kernels_are_scipys_own_objects(first):
    imports = ["import perifp.cli", "import scipy.linalg.lapack, scipy.optimize"]
    if first == "scipy":
        imports.reverse()
    code = "\n".join(["import json"] + imports + [
        "from perifp import bl_metric, fpe_grid",
        "print(json.dumps([fpe_grid.dgttrf is scipy.linalg.lapack.dgttrf,",
        "                  fpe_grid.dgttrs is scipy.linalg.lapack.dgttrs,",
        "                  bl_metric.linear_sum_assignment is "
        "scipy.optimize.linear_sum_assignment]))"])
    assert _fresh(code) == [True, True, True]


def test_missing_kernel_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match="scipy.linalg._nowhere not found"):
        _kernels._kernels("scipy.linalg", "_nowhere", "dgetrf")
    with pytest.raises(ImportError, match="scipy.linalg._flapack has no dnothing"):
        _kernels._kernels("scipy.linalg", "_flapack", "dgetrf dnothing")


@pytest.mark.parametrize("package, module", [
    ("fakepkg.linalg", "_flapack"),      # a Python source of that name, not compiled
    ("fakepkg.nowhere", "_flapack"),     # no such subpackage
    ("perifp_no_such_package", "_flapack"),
])
def test_kernel_lookup_has_no_fallback(tmp_path, monkeypatch, package, module):
    # only a compiled module is loaded, found in the package's directory
    # without running any __init__; anything else is an ImportError naming it
    (tmp_path / "fakepkg" / "linalg").mkdir(parents=True)
    (tmp_path / "fakepkg" / "__init__.py").write_text("raise RuntimeError('ran __init__')\n")
    (tmp_path / "fakepkg" / "linalg" / "__init__.py").write_text("")
    (tmp_path / "fakepkg" / "linalg" / "_flapack.py").write_text("dgttrf = None\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    full = f"{package}.{module}"
    with pytest.raises(ImportError, match=f"compiled module {full} not found") as exc:
        _kernels._kernels(package, module, "dgttrf")
    assert exc.value.name == full
    assert not any(name.startswith(("fakepkg", "perifp_no_such")) for name in sys.modules)


def test_subcommands_skip_numpy_ma():
    # importing numpy.ma costs a fresh process about 10-14 ms (2-core Xeon);
    # np.unique reaches it through np.ma.is_masked, so the library keeps off it
    with tempfile.TemporaryDirectory() as tmp:
        files = {"P.csv": "0,0,1\n1,0,0\n0,1,0\n", "x0.csv": "0.2,0.3,0.5\n",
                 "mu.csv": "0.0,0.5\n0.3,0.5\n", "nu.csv": "0.1,0.25\n0.7,0.75\n",
                 "fp.json": json.dumps({"domain": {"lower": 0.0, "upper": 1.0},
                                        "period_T": 0.1, "drift": "0", "sigma": "1",
                                        "bc": "reflecting", "n_cells": 16}),
                 "sde.json": json.dumps({"domain": {"lower": [0.0], "upper": [1.0]},
                                         "period_T": 1.0, "dt": 1.0 / 32, "paths": 50,
                                         "periods": 2, "seed": 7, "drift": ["0"],
                                         "sigma": [["0.5"]], "init": {"point": [0.5]}})}
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        code = f"""import json, os, sys
from perifp.cli import run
os.chdir({tmp!r})
loaded = {{}}
for args in (["markov-check", "--matrix", "P.csv", "--init", "x0.csv"],
             ["dbl", "--mu", "mu.csv", "--nu", "nu.csv"],
             ["simulate-sde", "--config", "sde.json", "--out", "sde"],
             ["fp-solve", "--config", "fp.json", "--out", "fp"]):
    loaded[args[0]] = [run(args), "numpy.ma" in sys.modules]
print(json.dumps(loaded))"""
        assert _fresh(code) == {"markov-check": [0, False], "dbl": [0, False],
                                "simulate-sde": [0, False], "fp-solve": [0, False]}
