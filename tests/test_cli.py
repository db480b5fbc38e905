"""Command-line interface: strict configs, outputs, manifests, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from perifp.cli import run

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


def test_eigen_heat_headline(tmp_path, capsys):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG))
    out = tmp_path / "out"
    assert run(["eigen", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    exact = math.exp(-math.pi**2 * 0.1)
    assert abs(doc["r"] - exact) / exact < 0.01
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["r"] == pytest.approx(doc["r"])


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


def _sde_config(tmp_path, seed=7):
    doc = {"domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
           "dt": 1.0 / 64, "paths": 200, "periods": 2, "seed": seed,
           "drift": ["sin(2*pi*t)*(1-2*x)"], "sigma": [["0.5"]],
           "init": {"point": [0.5]}}
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


@pytest.mark.parametrize("command, change, path", [
    ("fp-solve", {"integrator": "CN"}, "/integrator"),
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
])
def test_bad_config_reports_path(tmp_path, capsys, command, change, path):
    doc = dict(HEAT_CONFIG, source_f="u*(1-u)") if command == "semilinear" \
        else dict(HEAT_CONFIG)
    doc.update(change)
    cfg = _write(tmp_path / "fp.json", doc)
    code = run(["--json-errors", command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["path"] == path


def test_eigen_bc_override_robin_needs_nondivergence(tmp_path, capsys):
    cfg = _write(tmp_path / "fp.json", dict(HEAT_CONFIG))
    code = run(["--json-errors", "eigen", "--config", cfg, "--bc", "robin",
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["path"] == "/bc"


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
