"""Command-line interface: strict configs, outputs, manifests, exit codes."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perifp import cli, fpe_grid, period_map, semilinear
from perifp.cli import _FP_COMMANDS, _FP_SCHEMA, _SDE_SCHEMA, _auto_pair, run
from perifp.coeff_dsl import CoefficientField

HEAT_CONFIG = {
    "domain": {"lower": 0.0, "upper": 1.0},
    "period_T": 0.1,
    "drift": "0",
    "sigma": "sqrt(2)",      # a_eff = sigma^2/2 = 1
    "bc": "absorbing",
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_selftest_exits_zero():
    assert run(["selftest"]) == 0


def test_unknown_key_rejected(tmp_path, capsys):
    doc = dict(HEAT_CONFIG)
    doc["sgima"] = "1"
    cfg = _write(tmp_path / "fp.json", doc)
    code = run(["--json-errors", "fp-solve", "--config", cfg,
                "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "sgima" in err["path"]


def test_bad_domain_bounds_rejected(tmp_path, capsys):
    doc = dict(HEAT_CONFIG)
    doc["domain"] = {"lower": 1.0, "upper": 0.0}
    cfg = _write(tmp_path / "fp.json", doc)
    code = run(["--json-errors", "fp-solve", "--config", cfg,
                "--out", str(tmp_path / "out")])
    assert code == 2


def test_missing_required_key(tmp_path):
    doc = {k: v for k, v in HEAT_CONFIG.items() if k != "period_T"}
    cfg = _write(tmp_path / "fp.json", doc)
    assert run(["fp-solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_defaults_recorded_in_manifest(tmp_path):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG))
    out = tmp_path / "out"
    assert run(["fp-solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "/dt" in manifest["defaults_applied"]
    assert "/n_cells" in manifest["defaults_applied"]
    assert manifest["config"]["n_cells"] == 200
    assert manifest["config"]["dt"] == pytest.approx(0.1 / 256)
    # every output file carries a checksum
    for name, digest in manifest["outputs"].items():
        assert _sha(out / name) == digest


def test_manifest_duration_spans_the_computation(tmp_path, monkeypatch):
    # duration_s runs from the end of argument parsing to the manifest write,
    # not only over the file writes
    power_iteration = period_map.power_iteration

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return power_iteration(*args, **kwargs)

    monkeypatch.setattr(period_map, "power_iteration", slow)
    out = tmp_path / "out"
    assert run(["eigen", "--config", _write(tmp_path / "fp.json", _TINY_FP),
                "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["duration_s"] >= 0.2


def test_argument_parser_is_built_once(monkeypatch):
    # the parser and its eight subparsers are built on the first run only
    assert run(["dbl"]) == 2            # a usage error: --mu is missing
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert run(["dbl"]) == 2
    assert built == []


def test_printed_document_is_the_written_text(tmp_path, monkeypatch, capsys):
    # dbl prints the text of dbl_result.json, encoded to JSON once
    for name, text in (("a.csv", "0.0,1.0\n"), ("b.csv", "1.0,1.0\n")):
        (tmp_path / name).write_text(text)
    dumps, encoded = json.dumps, []

    def counted(obj, *args, **kwargs):
        encoded.append("witness" in obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counted)
    out = tmp_path / "out"
    assert run(["dbl", "--mu", str(tmp_path / "a.csv"), "--nu", str(tmp_path / "b.csv"),
                "--out", str(out)]) == 0
    assert encoded.count(True) == 1
    assert capsys.readouterr().out == (out / "dbl_result.json").read_text() + "\n"


def test_fp_solve_reflecting_mass(tmp_path):
    doc = dict(HEAT_CONFIG)
    doc["bc"] = "reflecting"
    doc["drift"] = "sin(2*pi*t/0.1)*(1-2*x)"
    cfg = _write(tmp_path / "fp.json", doc)
    out = tmp_path / "out"
    assert run(["fp-solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["final_mass"] == pytest.approx(1.0, abs=1e-10)
    rows = np.loadtxt(out / "density.csv", delimiter=",")
    assert rows.shape == (200, 2)


def test_fp_solve_fine_grid_at_default_dt_stays_nonnegative(tmp_path):
    # n = 1600 at dt = T/256: plain Crank-Nicolson carries the stiff wall
    # mode to t = T (minimum -0.048, mass off by 5.4e-4); the start-up
    # damps it.  The mass of the absorbing heat equation from the uniform
    # density is sum over odd k of 8/(k pi)^2 exp(-(k pi)^2 T)
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=1600))
    out = tmp_path / "out"
    assert run(["fp-solve", "--config", cfg, "--out", str(out)]) == 0
    p = np.loadtxt(out / "density.csv", delimiter=",")[:, 1]
    assert p.min() >= 0.0
    k = np.arange(1, 200, 2) * math.pi
    series = float(np.sum(8 / k**2 * np.exp(-k**2 * 0.1)))
    final_mass = json.loads((out / "manifest.json").read_text())["headline"]["final_mass"]
    assert final_mass == pytest.approx(p.sum() / 1600, rel=1e-12)
    assert abs(final_mass - series) <= 1e-4


def test_eigen_heat_headline(tmp_path, capsys):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG))
    out = tmp_path / "out"
    assert run(["eigen", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    exact = math.exp(-math.pi**2 * 0.1)
    assert abs(doc["r"] - exact) / exact < 0.01
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["r"] == pytest.approx(doc["r"])


def test_eigen_fine_grid_at_default_dt(tmp_path, capsys):
    # n = 1600 at dt = T/256: Crank-Nicolson alone reports a stiff grid
    # mode (r = 0.774); the start-up leaves the physical e^{-pi^2 T}
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=1600))
    out = tmp_path / "out"
    assert run(["eigen", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    exact = math.exp(-math.pi**2 * 0.1)
    assert abs(doc["r"] - exact) / exact < 0.01
    headline = json.loads((out / "manifest.json").read_text())["headline"]
    assert headline["periods_applied"] == doc["iterations"]
    # dt max|L_ii| / 2 with the wall cells' 3 a / dx^2
    assert headline["stiffness_ratio"] == pytest.approx(0.1 / 512 * 3 * 1600**2, rel=1e-12)
    assert 0.0 < headline["eigvec_min_over_max"] < 0.01


def test_eigen_and_auto_pair_never_build_the_dense_map(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("build_period_map called")

    monkeypatch.setattr(period_map, "build_period_map", refuse)
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=300))
    assert run(["eigen", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    sl = _write(tmp_path / "sl.json", {
        "domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "drift": "0",
        "a_eff": "1", "bc": "neumann", "n_cells": 16, "dt": 1.0 / 16,
        "source_f": "u*(1-u)"})
    assert run(["semilinear", "--config", sl, "--out", str(tmp_path / "s")]) == 0


def test_eigen_sign_change_is_reported(tmp_path, monkeypatch, capsys):
    # a period operator whose dominant eigenvector changes sign must end in
    # a typed error naming the stiffness ratio, not in a reported r
    def rank_one(self, V):
        v = np.linspace(1.0, -0.5, self.n)   # not orthogonal to the uniform start
        return 0.9 * v * (v @ V) / (v @ v)

    monkeypatch.setattr(period_map.PeriodOperator, "apply", rank_one)
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=40))
    assert run(["--json-errors", "eigen", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SignIndefinite"
    assert "stiffness ratio dt*max|L_ii|/2 = " in err["message"]
    assert not (tmp_path / "o").exists()


def test_eigen_reruns_are_byte_identical(tmp_path):
    doc = dict(HEAT_CONFIG, bc="reflecting", drift="sin(2*pi*t/0.1)*(1-2*x)", n_cells=100)
    cfg = _write(tmp_path / "fp.json", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["eigen", "--config", cfg, "--out", str(out)]) == 0
    for name in ("eigvec.csv", "spectral.json"):
        assert _sha(out1 / name) == _sha(out2 / name)
    h1, h2 = (json.loads((out / "manifest.json").read_text())["headline"]
              for out in (out1, out2))
    assert h1 == h2


def test_stationary_subcommand(tmp_path, capsys):
    doc = {"domain": {"lower": -2.0, "upper": 2.0}, "period_T": 1.0,
           "drift": "0 - x", "sigma": "1", "n_cells": 400}
    cfg = _write(tmp_path / "fp.json", doc)
    out = tmp_path / "out"
    assert run(["stationary", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["mass"] == pytest.approx(1.0, abs=1e-12)
    assert res["stationarity_residual"] <= 1e-8
    rows = np.loadtxt(out / "stationary.csv", delimiter=",")
    exact = np.exp(-rows[:, 0] ** 2)
    exact /= exact.sum() * (rows[1, 0] - rows[0, 0])
    assert np.max(np.abs(rows[:, 1] - exact)) < 1e-10


def test_markov_check_identity(tmp_path, capsys):
    m = tmp_path / "P.csv"
    np.savetxt(m, np.eye(3), delimiter=",")
    x = tmp_path / "x0.csv"
    np.savetxt(x, np.array([0.2, 0.3, 0.5]), delimiter=",")
    assert run(["markov-check", "--matrix", str(m), "--init", str(x)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["period"] == 1
    assert doc["strong"]


def test_dbl_subcommand(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("0.0,1.0\n")
    b = tmp_path / "b.csv"
    b.write_text("1.0,1.0\n")
    assert run(["dbl", "--mu", str(a), "--nu", str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance"] == pytest.approx(1.0, abs=1e-9)


def _sde_config(tmp_path, seed=7, **change):
    doc = {"domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
           "dt": 1.0 / 64, "paths": 200, "periods": 2, "seed": seed,
           "drift": ["sin(2*pi*t)*(1-2*x)"], "sigma": [["0.5"]],
           "init": {"point": [0.5]}}
    doc.update(change)
    return _write(tmp_path / "sde.json", doc)


def test_simulate_sde_reproducible(tmp_path):
    cfg = _sde_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate-sde", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["simulate-sde", "--config", cfg, "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]  # byte-identical primary outputs
    assert sorted(m1["outputs"]) == [f"snapshot_{k:04d}.csv" for k in range(3)]


def test_simulate_sde_seed_changes_outputs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate-sde", "--config", _sde_config(tmp_path, 1),
                "--out", str(out1)]) == 0
    assert run(["simulate-sde", "--config", _sde_config(tmp_path, 2),
                "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] != m2["outputs"]


def test_semilinear_subcommand(tmp_path, capsys):
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0,
           "drift": "0", "a_eff": "1", "bc": "neumann", "n_cells": 32,
           "dt": 1.0 / 32, "source_f": "u*(1-u)", "tol": 1e-8}
    cfg = _write(tmp_path / "sl.json", doc)
    out = tmp_path / "out"
    assert run(["semilinear", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["gap"] <= 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert "iteration_trace.json" in manifest["outputs"]
    cfg = _write(tmp_path / "sl1.json", dict(doc, max_iter=1))
    assert run(["--json-errors", "semilinear", "--config", cfg,
                "--out", str(tmp_path / "o1")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotConverged"


@pytest.mark.parametrize("dt, source_f", [
    (1.0 / 64, "u*((1 + 0.45*sin(2*pi*t)) - u)"),
    (1.0 / 32, "u*(0.9 - u)"),
], ids=["logistic", "const"])
def test_semilinear_bench_configs_converge_in_tens_of_iterations(tmp_path, capsys, dt,
                                                                 source_f):
    # the configs of the benchmark's sl-logistic-24 and sl-const-24 jobs
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "n_cells": 24,
           "dt": dt, "drift": "0", "a_eff": "1", "bc": "neumann", "source_f": source_f,
           "tol": 1e-9}
    out = tmp_path / "out"
    assert run(["semilinear", "--config", _write(tmp_path / "sl.json", doc),
                "--out", str(out)]) == 0
    trace = json.loads((out / "iteration_trace.json").read_text())
    assert trace["iterations"] <= 30 and trace["gap"] <= 1e-9


def test_semilinear_violation_names_the_lower_candidate(tmp_path, capsys):
    # absorbing logistic: the auto pair's lower candidate 1e-3 * phi is no
    # lower solution, as lambda_1 = pi^2 > 1 = f_u(0)
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "n_cells": 24,
           "dt": 1.0 / 64, "drift": "0", "a_eff": "1", "bc": "absorbing",
           "source_f": "u*(1-u)"}
    assert run(["--json-errors", "semilinear", "--config", _write(tmp_path / "sl.json", doc),
                "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MonotonicityViolation"
    head, slack = re.fullmatch(r"(.*) \(slack (\S+)\)", err["message"]).groups()
    assert head.endswith("the lower candidate is not a lower solution")
    assert float(slack) == pytest.approx(-8.9e-3, abs=1e-4)


@pytest.mark.parametrize("K", [1e5, 9e5], ids=["slack", "scan"])
def test_semilinear_scaled_logistic_is_the_unscaled_one_scaled(tmp_path, K):
    # the logistic with u scaled by K: at 1e5 a monotonicity slack that did
    # not grow with the iterates ended in a spurious MonotonicityViolation,
    # and at 9e5 the first upper candidate, 1.35e6, lay past the M0 scan
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "n_cells": 8,
           "dt": 1.0 / 128, "drift": "0", "a_eff": "1", "bc": "neumann"}
    for name, scale in (("unscaled", 1.0), ("scaled", K)):
        cfg = _write(tmp_path / f"{name}.json", dict(
            doc, source_f=f"u*((1 + 0.5*sin(2*pi*t)) - u/{scale:g})", tol=scale * 1e-9))
        assert run(["semilinear", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    profiles = sorted(p.name for p in (tmp_path / "unscaled").glob("profile_t*.csv"))
    assert len(profiles) == 9
    for name in profiles:
        unscaled, scaled = (np.loadtxt(tmp_path / d / name, delimiter=",", skiprows=1)[:, 1]
                            for d in ("unscaled", "scaled"))
        assert np.max(np.abs(scaled / K - unscaled)) <= 1e-9


@pytest.mark.parametrize("max_iter", [2, None])
def test_semilinear_standing_iterates_are_a_singular_system(tmp_path, capsys, max_iter):
    # with f = 0 on Neumann walls every constant is a periodic solution: the
    # auto pair's iterates stand still 1e-3 apart from the first iteration on
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "n_cells": 16,
           "dt": 1.0 / 32, "drift": "0", "a_eff": "1", "bc": "neumann", "source_f": "0"}
    if max_iter is not None:
        doc["max_iter"] = max_iter
    assert run(["--json-errors", "semilinear", "--config", _write(tmp_path / "sl.json", doc),
                "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularSystem"
    assert err["message"] == ("the iterates stand still 1.000e-03 apart: "
                              "the periodic solution is not unique")


@pytest.mark.parametrize("command, change, path", [
    ("fp-solve", {"integrator": "CN"}, "/integrator"),     # unknown keys
    ("eigen", {"integrator": "euler"}, "/integrator"),
    ("fp-solve", {"form": "div"}, "/form"),
    ("fp-solve", {"dt": 0.03}, "/dt"),                 # t1 = period_T = 0.1
    ("fp-solve", {"t1": 0.15, "dt": 0.1}, "/dt"),      # divides T, not t1
    ("eigen", {"dt": 0.03}, "/dt"),
    ("semilinear", {"dt": 0.03}, "/dt"),
    ("fp-solve", {"n_cells": 3}, "/n_cells"),
    ("eigen", {"n_cells": 2}, "/n_cells"),
    ("fp-solve", {"bc": "robin"}, "/bc"),               # divergence form
    ("eigen", {"bc": "robin", "form": "divergence"}, "/bc"),
    ("eigen", {"robin": "x"}, "/robin"),                # bc is not robin
    ("eigen", {"robin": [1.0]}, "/robin"),
    ("fp-solve", {"a0": "1"}, "/a0"),                   # divergence form
    ("stationary", {"a0": "5"}, "/a0"),
    ("stationary", {}, "/bc"),                          # absorbing
    ("stationary", {"bc": "reflecting", "form": "nondivergence"}, "/form"),
    ("semilinear", {"integrator": "ie"}, "/integrator"),
    ("semilinear", {"c_shift": -1}, "/c_shift"),
    ("semilinear", {"max_iter": 0}, "/max_iter"),
    ("fp-solve", {"source_f": "100"}, "/source_f"),     # only semilinear reads these
    ("eigen", {"c_shift": 1.0}, "/c_shift"),
    ("stationary", {"max_iter": 10, "bc": "reflecting"}, "/max_iter"),
    ("fp-solve", {"tol": 1e-6}, "/tol"),                # only eigen and semilinear
    ("stationary", {"tol": 1e-6, "bc": "reflecting"}, "/tol"),
    ("fp-solve", {"seed": 3}, "/seed"),
    ("fp-solve", {"init": {"kind": "gaussian"}}, "/init/kind"),
    ("fp-solve", {"init": {"csv": "missing.csv"}}, "/init/csv"),
    ("fp-solve", {"init": {"csv": "text.csv"}}, "/init/csv"),
    ("fp-solve", {"init": {"csv": "negative.csv"}}, "/init/csv"),
    ("fp-solve", {"init": {"expr": "0"}}, "/init"),       # zero mass
    ("fp-solve", {"init": {"expr": "1", "csv": "missing.csv"}}, "/init"),
    ("fp-solve", {"bc": "neumann"}, "/bc"),             # a Robin wall, divergence form
    ("eigen", {"bc": "neumann"}, "/bc"),
    ("fp-solve", {"domain": {"lower": math.nan, "upper": 1.0}}, "/domain/lower"),
    ("fp-solve", {"bc": "robin", "form": "nondivergence", "robin": [math.nan, 1.0]},
     "/robin/0"),
    ("eigen", {"period_T": math.inf}, "/period_T"),
    ("fp-solve", {"dt": -math.inf}, "/dt"),
    ("semilinear", {"c_shift": math.inf}, "/c_shift"),
    ("fp-solve", {"alpha": "2"}, "/alpha"),
    ("eigen", {"robin": [5.0, 7.0]}, "/robin"),         # absorbing walls
    ("fp-solve", {"bc": "reflecting", "robin": [0.0, 0.0]}, "/robin"),
    ("fp-solve", {"period_T": 0.1, "t1": 0.3, "dt": 0.03}, "/dt"),  # divides t1, not T
    ("fp-solve", {"drift": "x $ 2"}, "/drift"),         # unexpected character
    ("fp-solve", {"drift": "u"}, "/drift"),             # only source_f reads u
    ("eigen", {"sigma": "1 + u"}, "/sigma"),
    ("stationary", {"bc": "reflecting", "sigma": None, "a_eff": "u*x"}, "/a_eff"),
    ("eigen", {"form": "nondivergence", "a0": "sin(u)"}, "/a0"),
    ("semilinear", {"drift": "u"}, "/drift"),
    ("fp-solve", {"init": {"expr": "1 + t"}}, "/init/expr"),  # read at x only
    ("fp-solve", {"n_cells": 16, "init": {"csv": "short.csv"}}, "/init/csv"),
    ("semilinear", {"source_f": None}, "/source_f"),
    ("semilinear", {"source_f": "1 + u*u"}, "/source_f"),   # f > 0: no M0
    ("fp-solve", {"drift": "1e400*x"}, "/drift"),       # a literal that overflows
    ("eigen", {"sigma": "sqrt(2) + 0*1.8e308"}, "/sigma"),
    ("fp-solve", {"init": {"expr": "u"}}, "/init/expr"),  # every fp subcommand checks init
    ("eigen", {"init": {"expr": "u"}}, "/init/expr"),
    ("stationary", {"init": {"expr": "u"}}, "/init/expr"),
    ("semilinear", {"init": {"expr": "u"}}, "/init/expr"),
    ("eigen", {"init": 0.05}, "/init"),
    ("stationary", {"init": "u*(1-u)"}, "/init"),
    ("semilinear", {"init": {"expr": "0"}}, "/init"),     # zero mass
    ("eigen", {"init": {"csv": "missing.csv"}}, "/init/csv"),
])
def test_bad_config_reports_path(tmp_path, capsys, command, change, path):
    doc = dict(HEAT_CONFIG, source_f="u*(1-u)") if command == "semilinear" \
        else dict(HEAT_CONFIG)
    doc.update(change)
    (tmp_path / "text.csv").write_text("x,p\n")
    np.savetxt(tmp_path / "negative.csv", np.column_stack([np.arange(200), np.full(200, -1.0)]),
               delimiter=",")
    np.savetxt(tmp_path / "short.csv", np.ones((3, 2)), delimiter=",")
    cfg = _write(tmp_path / "fp.json", doc)
    code = run(["--json-errors", command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["path"] == path
    if path in ("/integrator", "/alpha"):
        assert err["message"] == f"{path}: unknown key"
    if change.get("init") == {"csv": "short.csv"}:
        assert err["message"] == "/init/csv: expected 16 rows"
    if change.get("init") == {"expr": "u"}:
        assert err["message"] == "/init/expr: reads u; this coefficient is given only x"
    if change.get("drift") == "1e400*x":
        assert err["message"] == ("/drift: bad expression: "
                                  "at offset 0: number '1e400' is out of range")


@pytest.mark.parametrize("change, path", [
    ({"dt": 0.3}, "/dt"),                               # period_T = 1
    ({"paths": 0}, "/paths"),
    ({"domain": {"lower": [1.0], "upper": [0.0]}}, "/domain"),
    ({"domain": {"lower": [0.0, 0.0], "upper": [1.0]}}, "/domain"),
    ({"init": {"point": [0.5, 0.5]}}, "/init"),
    ({"periods": -1}, "/periods"),
    ({"burn_in": -1}, "/burn_in"),
    ({"seed": -1}, "/seed"),
    ({"drift": "0"}, "/drift"),
    ({"sigma": [["0.5", 1]]}, "/sigma/0/1"),
    ({"init": {"csv": "missing.csv"}}, "/init/csv"),
    ({"init": {"csv": "three.csv"}}, "/init/csv"),     # 200 paths need 200 rows
    ({"init": {"point": [0.5], "csv": "missing.csv"}}, "/init"),
    ({"init": {"point": [7.5]}}, "/init"),              # outside [0, 1]
    ({"init": {"point": [-1e-9]}}, "/init"),
    ({"init": {"csv": "outside.csv"}}, "/init/csv"),
    ({"init": {"csv": "nan.csv"}}, "/init/csv"),
    ({"domain": {"lower": [0.0], "upper": [math.inf]}}, "/domain/upper/0"),
    ({"drift": ["u"]}, "/drift/0"),                     # no SDE coefficient reads u
    ({"sigma": [["t*u"]]}, "/sigma/0/0"),
    ({"drift": ["1e400"]}, "/drift/0"),                 # a literal that overflows
    ({"snap_resolution": 1e-310}, "/snap_resolution"),  # 1 / 1e-310 overflows
    ({"domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},   # one drift row in d = 2
      "init": {"point": [0.5, 0.5]}}, "/drift"),
    ({"domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "drift": ["0", "0"],
      "sigma": [["0.5"], ["0.5", "0.5"]], "init": {"point": [0.5, 0.5]}}, "/sigma"),  # ragged
])
def test_bad_sde_config_reports_path(tmp_path, capsys, change, path):
    np.savetxt(tmp_path / "three.csv", np.full((3, 1), 0.5), delimiter=",")
    for name, bad in (("outside.csv", 1.5), ("nan.csv", math.nan)):
        np.savetxt(tmp_path / name, np.append(np.full(199, 0.5), bad)[:, None],
                   delimiter=",")
    cfg = _sde_config(tmp_path, **change)
    code = run(["--json-errors", "simulate-sde", "--config", cfg,
                "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["path"] == path


@pytest.mark.parametrize("argv, path", [
    (["markov-check", "--matrix", "missing.csv", "--init", "x0.csv"], "--matrix"),
    (["markov-check", "--matrix", "text.csv", "--init", "x0.csv"], "--matrix"),
    (["markov-check", "--matrix", "Q.csv", "--init", "x0.csv"], "--matrix"),
    (["markov-check", "--matrix", "nan.csv", "--init", "x0.csv"], "--matrix"),
    (["markov-check", "--matrix", "P.csv", "--init", "missing.csv"], "--init"),
    (["markov-check", "--matrix", "P.csv", "--init", "y0.csv"], "--init"),
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--nmax", "0"], "--nmax"),
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--tol", "0"], "--tol"),
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--tol=-1e-9"], "--tol"),
    (["dbl", "--mu", "missing.csv", "--nu", "mu.csv"], "--mu"),
    (["dbl", "--mu", "mu.csv", "--nu", "text.csv"], "--nu"),
    (["dbl", "--mu", "mu.csv", "--nu", "negative.csv"], "--nu"),
    (["markov-check", "--matrix", "I3.csv", "--init", "x0.csv"], "--init"),   # length 2
    (["dbl", "--mu", "one.csv", "--nu", "mu.csv"], "--mu"),
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--tol", "inf"], "--tol"),
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--tol", "1e400"], "--tol"),
    (["dbl", "--mu", "huge2.csv", "--nu", "half.csv"], "--nu"),     # mass(mu) overflows
    (["dbl", "--mu", "huge0.csv", "--nu", "huge1.csv"], "--nu"),    # only the sum overflows
    (["dbl", "--mu", "mu.csv", "--nu", "plane.csv"], "--nu"),       # d = 1 against d = 2
])
def test_bad_csv_input_reports_flag(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    files = {"P.csv": "1,0\n0,1\n", "I3.csv": "1,0,0\n0,1,0\n0,0,1\n", "Q.csv": "0.5,0\n0.6,1\n", "nan.csv": "nan,0\n0,1\n",
             "x0.csv": "0.5,0.5\n", "y0.csv": "0.7,0.7\n", "mu.csv": "0.0,1.0\n",
             "negative.csv": "0.0,-0.5\n1.0,1.5\n", "text.csv": "x,weight\n",
             "one.csv": "0.5\n1.0\n", "huge2.csv": "0,1e308\n0,1e308\n", "half.csv": "1,0.5\n",
             "huge0.csv": "0,1e308\n", "huge1.csv": "1,1e308\n", "plane.csv": "0,0,1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(["--json-errors"] + argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["path"] == path
    if "one.csv" in argv:
        assert err["message"].endswith("need columns x1..xd,weight")


@pytest.mark.parametrize("argv, path", [
    (["markov-check", "--matrix", "P.csv", "--init", "empty.csv"], "--init"),
    (["dbl", "--mu", "empty.csv", "--nu", "mu.csv"], "--mu"),
    (["fp-solve", "--config", "fp.json", "--out", "o"], "/init/csv"),
    (["simulate-sde", "--config", "sde.json", "--out", "o"], "/init/csv"),
])
def test_empty_csv_is_one_json_error(tmp_path, monkeypatch, capsys, argv, path):
    # loadtxt warns on a file with no data; nothing may precede the JSON error
    monkeypatch.chdir(tmp_path)
    for name, text in {"empty.csv": "", "P.csv": "1,0\n0,1\n", "mu.csv": "0.0,1.0\n"}.items():
        (tmp_path / name).write_text(text)
    _write(tmp_path / "fp.json", dict(HEAT_CONFIG, init={"csv": "empty.csv"}))
    _sde_config(tmp_path, init={"csv": "empty.csv"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--json-errors"] + argv) == 2
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["path"] == path


@pytest.mark.parametrize("argv", [
    ["fp-solve", "--config", "fp.json", "--out", "afile"],
    ["eigen", "--config", "fp.json", "--out", "afile/sub"],
    ["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--out", "afile"],
    ["dbl", "--mu", "mu.csv", "--nu", "mu.csv", "--out", "afile"],
], ids=["fp-solve-file", "eigen-under-file", "markov-check-file", "dbl-file"])
def test_unusable_out_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # --out names a regular file, or a path under one: no directory can be
    # made, and nothing is printed, as stdout comes after the outputs
    monkeypatch.chdir(tmp_path)
    for name, text in {"afile": "", "P.csv": "0,1\n1,0\n", "x0.csv": "0.5,0.5\n",
                       "mu.csv": "0.0,1.0\n"}.items():
        (tmp_path / name).write_text(text)
    _write(tmp_path / "fp.json", _TINY_FP)
    assert run(["--json-errors"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["path"] == "--out"


def test_out_of_memory_is_one_error_line(tmp_path, capsys):
    # 10**15 residuals cannot be allocated, so this fails before any work
    (tmp_path / "P.csv").write_text("0,1\n1,0\n")
    (tmp_path / "x0.csv").write_text("1,0\n")
    argv = ["markov-check", "--matrix", str(tmp_path / "P.csv"),
            "--init", str(tmp_path / "x0.csv"), "--nmax", str(10**15)]
    assert run(["--json-errors"] + argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "MemoryError"
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("perifp: MemoryError: Unable to allocate")


_TINY_FP = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 0.1, "n_cells": 16,
            "drift": "0", "sigma": "1"}


@pytest.mark.parametrize("command, change, error", [
    ("fp-solve", {"drift": "exp(1000*x)"}, "NonFiniteState"),
    ("fp-solve", {"form": "nondivergence", "a0": "-1e5*x", "t1": 1}, "NonFiniteState"),
    ("eigen", {"form": "nondivergence", "a0": "-1e4*x"}, "NonFiniteState"),
    ("semilinear", {"period_T": 1, "n_cells": 8, "dt": 1 / 32, "bc": "neumann",
                    "sigma": None, "a_eff": "1", "source_f": "u*(1-u)*exp(700*u)"},
     "NonFiniteState"),
    ("stationary", {"drift": "exp(800*x)", "bc": "reflecting"}, "QuadratureOverflow"),
    ("simulate-sde", {"drift": ["1e308*(1+x)"]}, "NonFiniteState"),
], ids=["fp-drift-overflow", "fp-a0-growth", "eigen-a0-growth", "semilinear-overflow",
        "stationary-overflow", "sde-drift-overflow"])
def test_non_finite_numbers_are_one_typed_error(tmp_path, capsys, command, change, error):
    # no exit 0 with NaN output, no traceback, no 20000 power iterations on NaN
    cfg = _sde_config(tmp_path, **change) if command == "simulate-sde" \
        else _write(tmp_path / "c.json", {**_TINY_FP, **change})
    assert run(["--json-errors", command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [line["error"] for line in lines if "error" in line] == [error]


def test_stationarity_residual_overflow_is_one_typed_error(tmp_path, capsys):
    # the drift is finite at t = 0, where the closed form reads it, and
    # overflows at later sample times of the stationarity condition
    cfg = _write(tmp_path / "c.json", {**_TINY_FP, "bc": "reflecting",
                                       "drift": "exp(800*x*(1 - cos(2*pi*t/0.1)))"})
    assert run(["--json-errors", "stationary", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [line["error"] for line in lines if "error" in line] == ["QuadratureOverflow"]


def test_eigen_with_a_large_a0_keeps_its_scale(tmp_path, capsys):
    # the a0 mean's factor exp(-8000 T) underflows and exp(8000 T)
    # overflows; lambda_1 is the a0 = 0 value plus 8000 either way
    mus = []
    for a0 in ("0", "8000"):
        cfg = _write(tmp_path / "c.json", {**_TINY_FP, "n_cells": 32, "sigma": "sqrt(2)",
                                           "bc": "absorbing", "form": "nondivergence",
                                           "a0": a0})
        assert run(["eigen", "--config", cfg, "--out", str(tmp_path / a0)]) == 0
        doc = json.loads(capsys.readouterr().out)
        mus.append(doc["mu"])
        # log r stays readable where r underflows to 0
        assert doc["log_r"] == pytest.approx(-doc["mu"] * 0.1, rel=1e-14)
        assert json.loads((tmp_path / a0 / "spectral.json").read_text()) == doc
        headline = json.loads((tmp_path / a0 / "manifest.json").read_text())["headline"]
        assert headline["log_r"] == doc["log_r"]
    assert mus[1] - mus[0] == pytest.approx(8000, rel=1e-12)
    assert doc["r"] == 0.0 and doc["log_r"] == pytest.approx(-800.99, abs=0.01)
    cfg = _write(tmp_path / "c.json", {**_TINY_FP, "n_cells": 32, "sigma": "sqrt(2)",
                                       "bc": "absorbing", "form": "nondivergence",
                                       "a0": "-8000"})
    assert run(["--json-errors", "eigen", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "QuadratureOverflow"


@pytest.mark.parametrize("drift", ["(" * 300 + "x" + ")" * 300, "+".join(["x"] * 1500)],
                         ids=["parentheses", "long-sum"])
def test_too_deep_expression_is_a_config_error(tmp_path, capsys, drift):
    cfg = _write(tmp_path / "c.json", {**_TINY_FP, "drift": drift})
    assert run(["--json-errors", "fp-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["path"]) == ("ConfigError", "/drift")
    assert "nested deeper than 100 levels" in err["message"]


def test_warnings_are_reported_as_stderr_lines(tmp_path, capsys):
    # absorbing walls with f(t, x, 0) = 0.1 violate Dirichlet compatibility,
    # which semilinear only warns about
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0, "drift": "0",
           "a_eff": "1", "bc": "absorbing", "n_cells": 24, "dt": 1.0 / 64,
           "source_f": "u*(1-u) + 0.1"}
    cfg = _write(tmp_path / "sl.json", doc)
    outputs = []
    for flags in (["--json-errors"], []):
        out = tmp_path / f"out{len(outputs)}"
        assert run(flags + ["semilinear", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        if flags:
            line = json.loads(err[0])
            assert line["warning"] == "UserWarning"
            assert "Dirichlet compatibility is violated" in line["message"]
        else:
            assert err[0].startswith("perifp: warning: UserWarning: f(t, 0.0, 0) != 0")
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("nu", ["0,0.5,0.5\n1,0,0.5\n", "0,0.5,1\n"],
                         ids=["assignment", "lp"])
def test_dbl_huge_coordinate_is_a_capped_distance(tmp_path, capsys, nu):
    # the square of a 1e200 offset overflows; the distance is the cap, 2,
    # as for a point moved to (10, 0)
    (tmp_path / "nu.csv").write_text(nu)
    distances = []
    for far in ("1e200", "10"):
        (tmp_path / "mu.csv").write_text(f"0,0,0.5\n{far},0,0.5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["dbl", "--mu", str(tmp_path / "mu.csv"),
                        "--nu", str(tmp_path / "nu.csv")]) == 0
        assert caught == []
        out = capsys.readouterr()
        assert out.err == ""
        distances.append(json.loads(out.out)["distance"])
    assert distances[0] == distances[1]


@pytest.mark.parametrize("snapshots, message", [
    ("0.05,abc", "'abc' is not a number"),
    ("0.05,0.5", "snapshot time 0.5 is outside [0, t1"),  # t1 = period_T = 0.1
    ("0.05,0.0123", "must divide the time span 0.0123"),  # dt = 0.1/256
], ids=["not-a-number", "outside-span", "off-step"])
def test_bad_snapshot_times_report_flag(tmp_path, capsys, snapshots, message):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=16))
    code = run(["--json-errors", "fp-solve", "--config", cfg, "--out", str(tmp_path / "o"),
                "--snapshots", snapshots])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["path"] == "--snapshots"
    assert message in err["message"]
    assert not (tmp_path / "o").exists()


def test_snapshot_times_on_step_boundaries_are_written(tmp_path):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG, n_cells=16))
    out = tmp_path / "o"
    assert run(["fp-solve", "--config", cfg, "--out", str(out),
                "--snapshots", "0,0.05,0.1"]) == 0
    for t in ("0", "0.05", "0.1"):
        assert (out / f"density_t{t}.csv").exists()


@pytest.mark.parametrize("argv, path", [
    (["markov-check", "--matrix", "P.csv", "--init", "x0.csv", "--nmax", "abc"], "--nmax"),
    (["markov-check", "--matrix", "P.csv"], "--init"),
    (["eigen", "--config", "fp.json", "--bc", "dirichlet", "--out", "o"], "--bc"),
    (["dbl", "--mu", "mu.csv", "--nu"], "--nu"),
    ([], "argv"),
    (["frobnicate"], "argv"),
    (["dbl", "--mu", "mu.csv", "--nu", "mu.csv", "extra"], "argv"),
])
def test_usage_error_reports_flag(capsys, argv, path):
    # argparse's usage errors follow the ConfigError contract too
    assert run(["--json-errors"] + argv) == 2
    err = json.loads(capsys.readouterr().err)   # one JSON object and nothing else
    assert err["error"] == "ConfigError"
    assert err["path"] == path
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("perifp: ConfigError: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eigen", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


# small valid configs; each example changes one key, at the top level or
# inside domain or init, to a bad value or drops it
_SMALL = {
    "fp-solve": {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 0.1, "dt": 0.025,
                 "n_cells": 8, "drift": "0", "sigma": "1", "bc": "reflecting",
                 "init": {"expr": "1 + x"}},
    "simulate-sde": {"domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
                     "dt": 0.25, "paths": 4, "periods": 1, "drift": ["0"],
                     "sigma": [["1"]], "init": {"point": [0.5]}},
    "semilinear": {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 0.1, "dt": 0.025,
                   "n_cells": 8, "drift": "0", "sigma": "1", "bc": "neumann",
                   "source_f": "u*(1-u)", "tol": 1e-8, "max_iter": 64, "c_shift": 2.0},
}
_NESTED = {"fp-solve": {"domain": ("lower", "upper"), "init": ("expr", "csv")},
           "simulate-sde": {"domain": ("lower", "upper"), "init": ("point", "csv")},
           "semilinear": {"domain": ("lower", "upper")}}
_MUTABLE = [(command, (key,)) for command in _SMALL
            for key in sorted(_SDE_SCHEMA if command == "simulate-sde"
                              else {**_FP_SCHEMA, **_FP_COMMANDS[command][0]})] + \
    [(command, (outer, key)) for command, nested in _NESTED.items()
     for outer, keys in nested.items() for key in keys]
_REMOVED = object()


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_MUTABLE), st.sampled_from([True, None, {}, -1, 0, [], "x", _REMOVED]))
def test_single_key_mutation_never_raises(mutation, value):
    command, (*outer, key) = mutation
    doc = json.loads(json.dumps(_SMALL[command]))
    target = doc[outer[0]] if outer else doc
    target.pop(key, None)
    if value is not _REMOVED:
        target[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = run(["--json-errors", command, "--config", _write(Path(tmp) / "c.json", doc),
                    "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        report = json.loads(err.getvalue())   # one JSON object and nothing else
        assert (report["error"] == "ConfigError") == (code == 2) == ("path" in report)


# small valid CSV inputs; each example changes one cell of one file to a
# bad value, or drops or repeats one of its rows or columns
_CSV_SMALL = {
    "markov-check": {"--matrix": [["0", "1"], ["1", "0"]], "--init": [["0.25", "0.75"]]},
    "dbl": {"--mu": [["0", "0", "0.5"], ["1", "0.5", "0.5"]],      # d = 2, equal weights
            "--nu": [["0.5", "0.5", "0.5"], ["0.2", "0.9", "0.5"]]},
}
_CSV_MUTATIONS = [
    (command, flag, change)
    for command, files in _CSV_SMALL.items() for flag, rows in files.items()
    for change in [("cell", r, c, v) for r in range(len(rows)) for c in range(len(rows[0]))
                   for v in ("nan", "inf", "-1", "0", "2", "1e308", "x", "")]
    + [(shape, axis) for shape in ("drop", "repeat") for axis in (0, 1)]]


def _csv_text(rows, change=None):
    rows = [list(row) for row in rows]
    if change is None:
        pass
    elif change[0] == "cell":
        _, r, c, value = change
        rows[r][c] = value
    elif change == ("drop", 0):
        rows.pop()
    elif change == ("drop", 1):
        rows = [row[:-1] for row in rows]
    elif change == ("repeat", 0):
        rows.append(rows[0])
    else:
        rows = [row + row[-1:] for row in rows]
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CSV_MUTATIONS))
def test_single_csv_mutation_never_raises(mutation):
    command, mutated, change = mutation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        argv = ["--json-errors", command]
        for flag, rows in _CSV_SMALL[command].items():
            path = Path(tmp) / f"{flag[2:]}.csv"
            path.write_text(_csv_text(rows, change if flag == mutated else None))
            argv += [flag, str(path)]
        code = run(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        report = json.loads(err.getvalue())   # one JSON object and nothing else
        assert (report["error"] == "ConfigError") == (code == 2) == ("path" in report)


def test_auto_pair_stops_at_first_upper_candidate():
    # f(t, x, u) = u(1 - u) + sqrt(2 - u) is undefined for u > 2; the upper
    # solution search must stop at its first candidate M0 with f <= 0,
    # 10^(2/7) ~ 1.93, before reaching one it cannot evaluate
    T = 1.0
    one, zero = (CoefficientField.from_string(s, T) for s in ("1", "0"))
    problem = semilinear.SemilinearProblem(
        fpe_grid.FpCoefficients(a_eff=one, b=zero),
        CoefficientField.from_string("u*(1 - u) + sqrt(2 - u)", T),
        fpe_grid.neumann(), T, fpe_grid.Grid1D(8, 0.0, 1.0))
    pair = _auto_pair(problem, T / 8)
    np.testing.assert_array_equal(pair.upper.values, 2 * np.geomspace(1e-3, 1e6, 64)[23])


def test_auto_pair_scans_past_1e6():
    # u(1 + 0.5 sin(2 pi t) - u/9e5) <= 0 from u = 1.35e6 on: the scan goes
    # on past 1e6 at the ratio of its first 64 points, which stay as they were
    T = 1.0
    one, zero = (CoefficientField.from_string(s, T) for s in ("1", "0"))
    problem = semilinear.SemilinearProblem(
        fpe_grid.FpCoefficients(a_eff=one, b=zero),
        CoefficientField.from_string("u*((1 + 0.5*sin(2*pi*t)) - u/900000)", T),
        fpe_grid.neumann(), T, fpe_grid.Grid1D(8, 0.0, 1.0))
    pair = _auto_pair(problem, T / 8)
    np.testing.assert_array_equal(pair.upper.values, 2 * np.geomspace(1e6, 1e15, 64)[1])


def test_sigma_and_its_a_eff_text_march_to_one_density(tmp_path):
    # the CLI builds the tree of sigma*sigma/2 itself; the same expression
    # written out as a_eff text must give the same bytes
    sigma = "1 + 0.5*x*sin(2*pi*t/0.1)"
    doc = dict(HEAT_CONFIG, bc="reflecting", drift="sin(2*pi*t/0.1)*(1-2*x)")
    del doc["sigma"]
    for name, key, value in (("s", "sigma", sigma), ("a", "a_eff", f"({sigma})*({sigma})/2")):
        cfg = _write(tmp_path / f"{name}.json", dict(doc, **{key: value}))
        assert run(["fp-solve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "s" / "density.csv").read_bytes() == \
        (tmp_path / "a" / "density.csv").read_bytes()


def test_both_sigma_and_a_eff_rejected(tmp_path):
    doc = dict(HEAT_CONFIG)
    doc["a_eff"] = "1"
    cfg = _write(tmp_path / "fp.json", doc)
    assert run(["fp-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_deterministic_fp_solve_outputs(tmp_path):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["fp-solve", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["fp-solve", "--config", cfg, "--out", str(out2)]) == 0
    assert _sha(out1 / "density.csv") == _sha(out2 / "density.csv")


def test_every_config_key_is_documented():
    # each key of every fp subcommand's schema and of the SDE config appears
    # in README.md as `key` or "key"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {*_FP_SCHEMA, *_SDE_SCHEMA, *(key for own, _ in _FP_COMMANDS.values() for key in own)}
    assert {"tol", "source_f", "max_iter", "c_shift"} <= keys
    missing = [key for key in sorted(keys) if not re.search(rf'[`"]{key}\b', readme)]
    assert missing == []


# the fp keys only some subcommands accept, and a valid value of each; dt, t1
# and init are accepted by every one, so that one fp.json serves them all
_FP_ALL = ("fp-solve", "eigen", "stationary", "semilinear")
_FP_ACCEPTORS = {"tol": ("eigen", "semilinear"), "source_f": ("semilinear",),
               "max_iter": ("semilinear",), "c_shift": ("semilinear",),
               "dt": _FP_ALL, "t1": _FP_ALL, "init": _FP_ALL}
_FP_VALUES = {"tol": 1e-8, "source_f": "u*(2-u)", "max_iter": 64, "c_shift": 5.0,
              "dt": 0.05, "t1": 0.2, "init": {"expr": "1 + x"}}


@pytest.mark.parametrize("command", _FP_ALL)
@pytest.mark.parametrize("key", sorted(_FP_ACCEPTORS))
def test_fp_key_accepted_only_by_its_readers(tmp_path, capsys, command, key):
    doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": 0.1, "dt": 0.025,
           "n_cells": 8, "drift": "0", "sigma": "1", "bc": "reflecting"}
    if command == "semilinear":
        doc.update(bc="neumann", source_f="u*(1-u)")
    doc[key] = _FP_VALUES[key]
    out = tmp_path / "o"
    code = run(["--json-errors", command, "--config", _write(tmp_path / "fp.json", doc),
                "--out", str(out)])
    if command in _FP_ACCEPTORS[key]:
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["config"][key] == doc[key]
    else:
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["path"], err["message"]) == (f"/{key}", f"/{key}: unknown key")


def test_bench_tracer_targets_resolve():
    # the traced benchmark wraps each (module, attribute path) of its TARGETS
    # by name; read them without importing anything from bench/
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    assign = next(node for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TARGETS")
    targets = ast.literal_eval(assign.value)
    assert targets
    for module, attr, _, _ in targets:
        obj = importlib.import_module(f"perifp.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{attr}"


def _referenced_names(node):
    """Identifiers a node uses, once per use, including dotted names in string
    literals such as bench/tracer.py's TARGETS, but not dict keys such as the
    CLI's output field "lambda1"."""
    keys = {id(key) for sub in ast.walk(node) if isinstance(sub, ast.Dict) for key in sub.keys}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in keys \
                and all(part.isidentifier() for part in sub.value.split(".")):
            yield from sub.value.split(".")


def test_every_public_library_name_has_a_program_caller():
    # a public top-level function or class of the package, and a public
    # method of a public class, must be used by a program (the CLI, another
    # module, scripts/ or bench/), not only by tests; its own body does not count
    root = Path(__file__).resolve().parents[1]
    programs = [path for folder in ("src/perifp", "scripts", "bench")
                for path in sorted((root / folder).glob("*.py"))]
    assert root / "src/perifp/cli.py" in programs
    trees = {path: ast.parse(path.read_text()) for path in programs}
    uses = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    defined = []    # (name, module, definition)
    for path, tree in trees.items():
        if path.parent.name != "perifp":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_":
                defined.append((stmt.name, path.stem, stmt))
            if isinstance(stmt, ast.ClassDef) and stmt.name[0] != "_":
                defined += [(f"{stmt.name}.{m.name}", path.stem, m) for m in stmt.body
                            if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
    assert "Tridiag.matvec" in {name for name, _, _ in defined}
    unused = [f"{module}.{name}" for name, module, node in defined
              if uses[node.name] == Counter(_referenced_names(node))[node.name]]
    assert unused == []
