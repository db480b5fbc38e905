"""Command-line entry point: config loading, output files, run manifests.

Subcommands: markov-check, dbl, simulate-sde, fp-solve, eigen,
stationary, semilinear, selftest.  Configs are strict JSON documents
(unknown keys rejected, defaults recorded in the manifest); every run
that writes files also writes manifest.json with the resolved config,
version, duration and per-output checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bl_metric, fpe_grid, markov, period_map, sde_reflect, semilinear
from .coeff_dsl import Bin, CoefficientField, Num, parse_expr
from .errors import ConfigError, DimensionMismatch, PerifpError

_REQUIRED = object()


# ---------------------------------------------------------------------------
# strict config handling

def _schema_check(doc, schema, path=""):
    """Validate a JSON object against {key: (default, checker)}.

    Unknown keys are rejected; missing keys take defaults.  Returns
    (resolved dict, list of keys that were defaulted).
    """
    if not isinstance(doc, dict):
        raise ConfigError(path or "/", f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(schema)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}/{key}", "unknown key")
    resolved = {}
    defaulted = []
    for key, (default, check) in schema.items():
        here = f"{path}/{key}"
        value = doc.get(key)    # JSON null counts as missing
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(here, "required key is missing")
            value = default
            defaulted.append(here)
        if value is not None and check is not None:
            value = check(value, here)
        resolved[key] = value
    return resolved, defaulted


def _num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    return float(value)


def _pos(value, path):
    v = _num(value, path)
    if v <= 0:
        raise ConfigError(path, "must be positive")
    return v


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    return value


def _bounded(check, lo, hi=float("inf")):
    """check, then require lo <= value < hi."""
    def checked(value, path):
        v = check(value, path)
        if not lo <= v < hi:
            raise ConfigError(path, f"must lie in [{lo}, {hi})")
        return v
    return checked


def _list_of(check, size=None):
    """A non-empty JSON list (of exactly size items when size is given)."""
    def checked(value, path):
        if not isinstance(value, list) or not value or size not in (None, len(value)):
            raise ConfigError(path, f"expected a list of {size or 'one or more'} items")
        return [check(v, f"{path}/{i}") for i, v in enumerate(value)]
    return checked


def _str(value, path):
    if not isinstance(value, str):
        raise ConfigError(path, "expected a string")
    return value


def _one_of(*choices):
    def check(value, path):
        if _str(value, path) not in choices:
            raise ConfigError(path, f"expected one of {', '.join(choices)}")
        return value
    return check


def _expr(value, path):
    source = _str(value, path)
    try:
        parse_expr(source)
    except PerifpError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from exc
    return source


def load_config(path):
    """Read a JSON config file; paths inside are resolved relative to it."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError("/", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"invalid JSON: {exc}") from exc
    return doc, p.parent


_BOUNDARIES = {"absorbing": fpe_grid.absorbing, "dirichlet": fpe_grid.absorbing,
               "reflecting": fpe_grid.reflecting, "neumann": fpe_grid.neumann}


def _bc_from_name(name, cfg):
    if name != "robin":
        return _BOUNDARIES[name]()
    if cfg["form"] == "divergence":
        raise ConfigError("/bc", "robin boundaries need form 'nondivergence'")
    return fpe_grid.robin(*cfg["robin"])


def _check_divides(span, dt, span_key):
    try:
        fpe_grid.step_count(span, dt)
    except ValueError as exc:
        raise ConfigError("/dt", f"{exc} ({span_key})") from exc


_FP_SCHEMA = {
    "domain": (_REQUIRED, None),
    "n_cells": (200, _bounded(_int, 4)),
    "period_T": (_REQUIRED, _pos),
    "dt": (None, _pos),                 # default period_T / 256
    "t1": (None, _pos),                 # fp-solve horizon, default period_T
    "bc": ("reflecting", _one_of(*_BOUNDARIES, "robin")),
    "robin": ([0.0, 0.0], _list_of(_num, 2)),
    "drift": (_REQUIRED, _expr),
    "sigma": (None, _expr),
    "a_eff": (None, _expr),
    "a0": (None, _expr),
    "alpha": (None, _expr),
    "source_f": (None, _expr),
    "form": ("divergence", _one_of(*fpe_grid.FORMS)),
    "integrator": ("cn", _one_of(*fpe_grid.INTEGRATORS)),
    "init": ({"kind": "uniform"}, None),
    "tol": (1e-9, _pos),
    "max_iter": (500, _bounded(_int, 1)),
    "c_shift": (None, _bounded(_num, 0.0)),
    "seed": (0, _int),
}


def _parse_fp_config(doc, span_key=None, default_form="divergence"):
    """Resolve an fp config; dt must divide cfg[span_key], the span marched."""
    cfg, defaulted = _schema_check(doc, _FP_SCHEMA)
    if "/form" in defaulted:
        cfg["form"] = default_form
    dom, dom_def = _schema_check(cfg["domain"], {
        "lower": (_REQUIRED, _num), "upper": (_REQUIRED, _num)}, "/domain")
    defaulted += dom_def
    if dom["lower"] >= dom["upper"]:
        raise ConfigError("/domain", "need lower < upper")
    cfg["domain"] = dom
    if cfg["dt"] is None:
        cfg["dt"] = cfg["period_T"] / 256
    if cfg["t1"] is None:
        cfg["t1"] = cfg["period_T"]
    if span_key is not None:
        _check_divides(cfg[span_key], cfg["dt"], span_key)
    if (cfg["sigma"] is None) == (cfg["a_eff"] is None):
        raise ConfigError("/sigma", "give exactly one of 'sigma' or 'a_eff'")
    if cfg["a0"] is not None and cfg["form"] == "divergence":
        # the flux-form operator has no zero-order term
        raise ConfigError("/a0", "a0 needs form 'nondivergence'")
    T = cfg["period_T"]
    if cfg["a_eff"] is not None:
        a_expr = parse_expr(cfg["a_eff"])
    else:
        s = parse_expr(cfg["sigma"])
        a_expr = Bin("/", Bin("*", s, s), Num(2.0))
    b_expr = parse_expr(cfg["drift"])
    if cfg["alpha"] is not None:
        alpha = parse_expr(cfg["alpha"])
        a_expr = Bin("*", alpha, a_expr)
        b_expr = Bin("*", alpha, b_expr)
    coeffs = fpe_grid.FpCoefficients(
        a_eff=CoefficientField(a_expr, T),
        b=CoefficientField(b_expr, T),
        a0=None if cfg["a0"] is None else CoefficientField(parse_expr(cfg["a0"]), T))
    grid = fpe_grid.Grid1D(cfg["n_cells"], dom["lower"], dom["upper"])
    bc = _bc_from_name(cfg["bc"], cfg)
    return cfg, defaulted, grid, coeffs, bc


def _initial_density(cfg, grid, base_dir):
    init = cfg["init"]
    spec, _ = _schema_check(init, {"kind": (None, _str), "expr": (None, _expr),
                                   "csv": (None, _str)}, "/init")
    if spec["expr"] is not None:
        f = CoefficientField(parse_expr(spec["expr"]))
        vals = f(x=grid.centers)
        if np.any(vals < 0):
            raise ConfigError("/init/expr", "initial density must be nonnegative")
    elif spec["csv"] is not None:
        vals = np.loadtxt(base_dir / spec["csv"], delimiter=",", usecols=1)
        if len(vals) != grid.n_cells:
            raise ConfigError("/init/csv", f"expected {grid.n_cells} rows")
    else:
        vals = np.ones(grid.n_cells)
    vals = vals / (vals.sum() * grid.dx)
    return fpe_grid.DensityField(grid, vals)


# ---------------------------------------------------------------------------
# manifest helpers

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class _Run:
    def __init__(self, out_dir, config_echo, defaults):
        self.out = Path(out_dir) if out_dir is not None else None
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
        self.t0 = time.monotonic()
        self.config = config_echo
        self.defaults = defaults
        self.files = []
        self.headline = {}

    def write_text(self, name, text):
        if self.out is None:
            return None
        p = self.out / name
        p.write_text(text)
        self.files.append(p)
        return p

    def write_csv(self, name, array, header=None):
        if self.out is None:
            return None
        p = self.out / name
        with open(p, "w") as fh:
            if header:
                fh.write("# " + header + "\n")
            np.savetxt(fh, np.atleast_2d(array), delimiter=",", fmt="%.17g")
        self.files.append(p)
        return p

    def finish(self):
        if self.out is None:
            return
        manifest = {
            "tool": "perifp",
            "version": __version__,
            "config": self.config,
            "defaults_applied": self.defaults,
            "duration_s": time.monotonic() - self.t0,
            "outputs": {p.name: _sha256(p) for p in self.files},
            "headline": self.headline,
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_markov_check(args):
    P = markov.TransitionMatrix.from_array(
        np.loadtxt(args.matrix, delimiter=",", ndmin=2),
        row_stochastic=args.row_stochastic)
    x0 = markov.DistributionVector(np.loadtxt(args.init, delimiter=","))
    report = markov.detect_period(P, x0, N_max=args.nmax, tol=args.tol)
    doc = {"period": report.period, "strong": bool(report.strong),
           "tol": report.tol, "residuals": report.residuals.tolist()}
    print(json.dumps(doc, indent=2))
    run = _Run(args.out, {"matrix": args.matrix, "init": args.init,
                          "nmax": args.nmax, "tol": args.tol,
                          "row_stochastic": args.row_stochastic}, [])
    run.write_text("period_report.json", json.dumps(doc, indent=2))
    run.headline["period"] = report.period
    run.headline["strong"] = bool(report.strong)
    run.finish()
    return 0


def _load_measure_csv(path):
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] < 2:
        raise ConfigError("/", f"{path}: need columns x1..xd,weight")
    return bl_metric.EmpiricalMeasure(rows[:, :-1], rows[:, -1])


def _cmd_dbl(args):
    mu = _load_measure_csv(args.mu)
    nu = _load_measure_csv(args.nu)
    res = bl_metric.dbl(mu, nu)
    doc = {"distance": res.distance, "status": res.status,
           "witness": res.witness.tolist(),
           "support": res.support.tolist()}
    print(json.dumps(doc, indent=2))
    run = _Run(args.out, {"mu": args.mu, "nu": args.nu}, [])
    run.write_text("dbl_result.json", json.dumps(doc, indent=2))
    run.headline["distance"] = res.distance
    run.finish()
    return 0


_SDE_SCHEMA = {
    "domain": (_REQUIRED, None),
    "period_T": (_REQUIRED, _pos),
    "dt": (None, _pos),
    "paths": (_REQUIRED, _bounded(_int, 1)),
    "periods": (_REQUIRED, _bounded(_int, 0)),
    "seed": (0, _bounded(_int, 0, 2**64)),     # a Philox key word
    "drift": (_REQUIRED, _list_of(_expr)),
    "sigma": (_REQUIRED, _list_of(_list_of(_expr))),
    "init": (_REQUIRED, None),
    "snap_resolution": (None, _pos),
    "burn_in": (0, _bounded(_int, 0)),
}


def _cmd_simulate_sde(args):
    doc, base = load_config(args.config)
    cfg, defaulted = _schema_check(doc, _SDE_SCHEMA)
    dom, _ = _schema_check(cfg["domain"], {
        "lower": (_REQUIRED, _list_of(_num)), "upper": (_REQUIRED, _list_of(_num))},
        "/domain")
    try:
        domain = sde_reflect.BoxDomain(dom["lower"], dom["upper"])
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError("/domain", str(exc)) from exc
    T = cfg["period_T"]
    if cfg["dt"] is None:
        cfg["dt"] = T / 256
    _check_divides(T, cfg["dt"], "period_T")
    drift = tuple(CoefficientField(parse_expr(e), T) for e in cfg["drift"])
    sigma = tuple(tuple(CoefficientField(parse_expr(e), T) for e in row)
                  for row in cfg["sigma"])
    sys_ = sde_reflect.SdeSystem(drift=drift, diffusion=sigma, period_T=T,
                                 domain=domain, brownian_dim=len(sigma[0]))
    init_spec, _ = _schema_check(cfg["init"], {"point": (None, _list_of(_num)),
                                               "csv": (None, _str)}, "/init")
    if init_spec["point"] is not None:
        init = np.array(init_spec["point"])
        if len(init) != domain.dim:
            raise ConfigError("/init", f"point needs {domain.dim} coordinates")
    elif init_spec["csv"] is not None:
        init = np.loadtxt(base / init_spec["csv"], delimiter=",", ndmin=2)
    else:
        raise ConfigError("/init", "give 'point' or 'csv'")

    batch = sde_reflect.sample_laws(sys_, init, M=cfg["paths"],
                                    n_periods=cfg["periods"], dt=cfg["dt"],
                                    seed=cfg["seed"],
                                    snap_resolution=cfg["snap_resolution"])
    run = _Run(args.out, cfg, defaulted)
    for k, snap in enumerate(batch.snapshots):
        rows = np.hstack([snap.points, snap.weights[:, None]])
        run.write_csv(f"snapshot_{k:04d}.csv", rows, header="x1..xd,weight")
    if len(batch.snapshots) > cfg["burn_in"] + 1:
        diag = sde_reflect.periodicity_diagnostic(batch, cfg["burn_in"],
                                                  snap_resolution=cfg["snap_resolution"])
        run.headline["cesaro_defect"] = diag["defect"]
        run.headline["cesaro_defect_restricted"] = diag["defect_restricted"]
        run.headline["max_pairwise_tail_dbl"] = diag["max_pairwise_tail_dbl"]
    run.headline["reflections_total"] = int(batch.reflection_counts.sum())
    run.finish()
    return 0


def _cmd_fp_solve(args):
    doc, base = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, "t1")
    p0 = _initial_density(cfg, grid, base)
    snapshot_times = [0.0, cfg["t1"]]
    if args.snapshots:
        snapshot_times = [float(s) for s in args.snapshots.split(",")]
    p, snaps = fpe_grid.solve_ivp(p0, coeffs, bc, 0.0, cfg["t1"], cfg["dt"],
                                  form=cfg["form"], integrator=cfg["integrator"],
                                  snapshot_times=snapshot_times)
    run = _Run(args.out, cfg, defaulted)
    rows = np.column_stack([grid.centers, p.values])
    run.write_csv("density.csv", rows, header="x,p")
    mass_ledger = []
    for s in snaps:
        run.write_csv(f"density_t{s.time_stamp:.6g}.csv",
                      np.column_stack([grid.centers, s.values]), header="x,p")
        mass_ledger.append({"t": s.time_stamp, "mass": s.mass})
    run.headline["final_mass"] = p.mass
    run.headline["mass_ledger"] = mass_ledger
    run.finish()
    return 0


def _cmd_eigen(args):
    doc, _ = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, "period_T")
    if args.bc:
        bc = _bc_from_name(args.bc, cfg)
    pm = period_map.build_period_map(grid, coeffs, bc, cfg["period_T"], cfg["dt"],
                                     form=cfg["form"], integrator=cfg["integrator"])
    spec = period_map.power_iteration(pm, tol=cfg["tol"])
    run = _Run(args.out, cfg, defaulted)
    doc_out = {"r": spec.r, "mu": spec.mu, "lambda1": spec.mu,
               "residual": spec.residual, "iterations": spec.iterations,
               "bc": bc.kind, "form": cfg["form"]}
    run.write_text("spectral.json", json.dumps(doc_out, indent=2))
    run.write_csv("eigvec.csv", np.column_stack([grid.centers, spec.eigvec]),
                  header="x,v")
    run.headline.update({"r": spec.r, "mu": spec.mu})
    run.finish()
    print(json.dumps(doc_out, indent=2))
    return 0


def _cmd_stationary(args):
    doc, _ = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc)
    # the closed form is the zero-flux density of the flux-form equation
    if bc.kind != "reflecting":
        raise ConfigError("/bc", "the stationary closed form needs reflecting walls")
    if cfg["form"] != "divergence":
        raise ConfigError("/form", "the stationary closed form needs form 'divergence'")
    density = fpe_grid.stationary_closed_form(coeffs, grid, t=0.0)
    times = np.linspace(0.0, cfg["period_T"], 9)
    cond = fpe_grid.check_stationarity_condition(coeffs, grid, times)
    run = _Run(args.out, cfg, defaulted)
    run.write_csv("stationary.csv", np.column_stack([grid.centers, density.values]),
                  header="x,p")
    run.headline["mass"] = density.mass
    run.headline["stationarity_residual"] = cond["max_abs_residual"]
    run.finish()
    print(json.dumps({"mass": density.mass,
                      "stationarity_residual": cond["max_abs_residual"]}, indent=2))
    return 0


def _auto_pair(problem, dt):
    """Default ordered pair: eps * principal eigenfunction below, 2*M0 above."""
    ts = np.linspace(0, problem.T, 8, endpoint=False)[:, None]
    # stop at the first candidate: f need not be defined for larger u
    M0 = next((cand for cand in np.geomspace(1e-3, 1e6, 64)
               if np.max(problem.f(t=ts, x=problem.grid.centers, u=cand)) <= 0), None)
    if M0 is None:
        raise ConfigError("/source_f", "could not find M0 with f(t,x,M0) <= 0")
    pm = period_map.build_period_map(problem.grid, problem.coeffs, problem.bc,
                                     problem.T, dt, form=problem.form)
    spec = period_map.power_iteration(pm)
    phi = np.abs(spec.eigvec) / np.max(np.abs(spec.eigvec))
    lower = fpe_grid.DensityField(problem.grid, 1e-3 * phi)
    upper = fpe_grid.DensityField(problem.grid, np.full(problem.grid.n_cells, 2 * M0))
    return semilinear.OrderedPair(lower, upper)


def _cmd_semilinear(args):
    doc, _ = load_config(args.config)
    # semilinear problems march u, not p
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, "period_T", "nondivergence")
    if cfg["source_f"] is None:
        raise ConfigError("/source_f", "required for the semilinear solver")
    if cfg["integrator"] != "cn":
        raise ConfigError("/integrator", "the semilinear solver marches Crank-Nicolson only")
    T = cfg["period_T"]
    problem = semilinear.SemilinearProblem(
        coeffs=coeffs, f=CoefficientField(parse_expr(cfg["source_f"]), T),
        bc=bc, T=T, grid=grid, form=cfg["form"])
    pair = _auto_pair(problem, cfg["dt"])
    result = semilinear.monotone_iterate(problem, pair, cfg["dt"],
                                         c=cfg["c_shift"], tol=cfg["tol"],
                                         max_iter=cfg["max_iter"])
    run = _Run(args.out, cfg, defaulted)
    n_steps = result.trajectory.shape[0] - 1
    for k in range(0, n_steps + 1, max(1, n_steps // 8)):
        run.write_csv(f"profile_t{k * cfg['dt']:.6g}.csv",
                      np.column_stack([grid.centers, result.trajectory[k]]),
                      header="x,u")
    trace = {"iterations": result.iterations, "gap": result.gap,
             "periodicity_residual": result.periodicity_residual,
             "c": result.c,
             "deltas_upper": result.deltas_upper,
             "deltas_lower": result.deltas_lower}
    run.write_text("iteration_trace.json", json.dumps(trace, indent=2))
    run.headline.update({"gap": result.gap, "iterations": result.iterations,
                         "periodicity_residual": result.periodicity_residual})
    run.finish()
    print(json.dumps({k: trace[k] for k in ("iterations", "gap", "periodicity_residual")},
                     indent=2))
    return 0


def _cmd_selftest(args):
    checks = []

    def check(name, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    node = parse_expr("x*(1-x)")
    from .coeff_dsl import eval_expr
    check("coeff_dsl: x*(1-x) at 0.5", eval_expr(node, {"x": 0.5}) == 0.25)
    f = CoefficientField.from_string("t", period_T=1.0)
    check("coeff_dsl: periodic reduction", float(f(t=2.5)) == 0.5)

    P = markov.TransitionMatrix(np.eye(3))
    x0 = markov.DistributionVector(np.array([1.0, 0.0, 0.0]))
    check("markov: identity has period 1", markov.detect_period(P, x0).period == 1)

    d = bl_metric.dbl(bl_metric.EmpiricalMeasure.dirac([0.0]),
                      bl_metric.EmpiricalMeasure.dirac([1.0])).distance
    check("bl_metric: d(delta0, delta1) = 1", abs(d - 1.0) < 1e-9)

    T = 1.0
    zero = CoefficientField.from_string("0", T)
    one = CoefficientField.from_string("1", T)
    dom = sde_reflect.BoxDomain([0.0], [1.0])
    sys_ = sde_reflect.SdeSystem((zero,), ((zero,),), T, dom, 1)
    batch = sde_reflect.sample_laws(sys_, [0.5], M=8, n_periods=2, dt=T / 8, seed=1)
    check("sde_reflect: frozen dynamics stays put",
          all(np.allclose(s.points, 0.5) for s in batch.snapshots))

    grid = fpe_grid.Grid1D(32, 0.0, 1.0)
    coeffs = fpe_grid.FpCoefficients(a_eff=one, b=zero)
    p0 = fpe_grid.DensityField(grid, np.ones(32))
    p1 = fpe_grid.step_cn(p0, coeffs, fpe_grid.reflecting(), 0.01)
    check("fpe_grid: reflecting CN conserves mass", abs(p1.mass - p0.mass) < 1e-13)

    pm = period_map.PeriodMap(np.eye(8), fpe_grid.reflecting(), T)
    spec = period_map.power_iteration(pm)
    check("period_map: K = I gives r = 1", abs(spec.r - 1.0) < 1e-12)

    prob = semilinear.SemilinearProblem(
        coeffs=fpe_grid.FpCoefficients(a_eff=one, b=zero,
                                       a0=CoefficientField.from_string("1", T)),
        f=CoefficientField.from_string("0", T), bc=fpe_grid.absorbing(),
        T=T, grid=grid)
    zero_field = fpe_grid.DensityField(grid, np.zeros(32))
    res = semilinear.monotone_iterate(
        prob, semilinear.OrderedPair(zero_field, zero_field), dt=T / 32, tol=1e-10)
    check("semilinear: f = 0 gives the zero solution",
          float(np.max(np.abs(res.trajectory))) < 1e-12)

    return 0 if all(checks) else 1


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="perifp",
                                     description="Distributional periodicity toolkit")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit structured JSON diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("markov-check", help="detect distributional N-periodicity")
    p.add_argument("--matrix", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--row-stochastic", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_markov_check)

    p = sub.add_parser("dbl", help="bounded-Lipschitz distance of two CSV measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_dbl)

    p = sub.add_parser("simulate-sde", help="reflected SDE Monte Carlo")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate_sde)

    p = sub.add_parser("fp-solve", help="Fokker-Planck initial value solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshots", default=None, help="comma-separated times")
    p.set_defaults(fn=_cmd_fp_solve)

    p = sub.add_parser("eigen", help="period map spectral analysis")
    p.add_argument("--config", required=True)
    p.add_argument("--bc", default=None,
                   choices=["dirichlet", "reflecting", "robin", "neumann"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("stationary", help="closed-form stationary density")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_stationary)

    p = sub.add_parser("semilinear", help="periodic semilinear monotone iteration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_semilinear)

    p = sub.add_parser("selftest", help="run the built-in smoke suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _report_error(args, exc)
        return 2
    except PerifpError as exc:
        _report_error(args, exc)
        return 1


def _report_error(args, exc):
    if getattr(args, "json_errors", False):
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            doc["path"] = exc.path
        print(json.dumps(doc), file=sys.stderr)
    else:
        print(f"perifp: {type(exc).__name__}: {exc}", file=sys.stderr)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
