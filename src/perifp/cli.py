"""Command-line entry point: config loading, output files, run manifests.

Subcommands: markov-check, dbl, simulate-sde, fp-solve, eigen,
stationary, semilinear, selftest.  Configs are strict JSON documents
(unknown keys rejected, defaults recorded in the manifest).  Each
subcommand returns what it made; run() then writes the output files and
manifest.json (resolved config, version, duration from the end of
argument parsing, per-output checksums) and prints last.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

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
    # Python's json reads NaN and +-Infinity, and an integer past the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, "expected a finite number")
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


def _expr(*variables):
    """An expression that reads no variable outside variables."""
    def check(value, path):
        source = _str(value, path)
        try:
            unread = CoefficientField.from_string(source).reads - set(variables)
        except PerifpError as exc:
            raise ConfigError(path, f"bad expression: {exc}") from exc
        if unread:
            raise ConfigError(path, f"reads {', '.join(sorted(unread))}; "
                              f"this coefficient is given only {', '.join(variables)}")
        return source
    return check


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
    "drift": (_REQUIRED, _expr("t", "x")),
    "sigma": (None, _expr("t", "x")),
    "a_eff": (None, _expr("t", "x")),
    "a0": (None, _expr("t", "x")),
    "source_f": (None, _expr("t", "x", "u")),
    "form": ("divergence", _one_of(*fpe_grid.FORMS)),
    "init": ({}, None),                 # default: the uniform density
    "tol": (1e-9, _pos),
    "max_iter": (500, _bounded(_int, 1)),
    "c_shift": (None, _bounded(_num, 0.0)),
}
# the spans dt must divide in each fp subcommand, and the keys that only
# some subcommands read; the others reject them
_FP_SPANS = {"fp-solve": ("t1", "period_T"), "eigen": ("period_T",), "stationary": (),
             "semilinear": ("period_T",)}
_FP_READERS = {"tol": ("eigen", "semilinear"), "source_f": ("semilinear",),
               "c_shift": ("semilinear",), "max_iter": ("semilinear",)}


def _parse_fp_config(doc, command):
    """Resolve the fp config of one subcommand."""
    cfg, defaulted = _schema_check(doc, _FP_SCHEMA)
    for key, readers in _FP_READERS.items():
        if command not in readers:
            if f"/{key}" not in defaulted:
                raise ConfigError(f"/{key}", f"{command} does not read this key")
            del cfg[key]
            defaulted.remove(f"/{key}")
    if "/form" in defaulted and command == "semilinear":
        cfg["form"] = "nondivergence"   # semilinear problems march u, not p
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
    for span_key in _FP_SPANS[command]:
        _check_divides(cfg[span_key], cfg["dt"], span_key)
    if (cfg["sigma"] is None) == (cfg["a_eff"] is None):
        raise ConfigError("/sigma", "give exactly one of 'sigma' or 'a_eff'")
    if cfg["bc"] != "robin" and "/robin" not in defaulted:
        raise ConfigError("/robin", f"bc {cfg['bc']!r} does not read robin coefficients")
    if cfg["a0"] is not None and cfg["form"] == "divergence":
        # the flux-form operator has no zero-order term
        raise ConfigError("/a0", "a0 needs form 'nondivergence'")
    T = cfg["period_T"]
    if cfg["a_eff"] is not None:
        a_expr = parse_expr(cfg["a_eff"])
    else:
        s = parse_expr(cfg["sigma"])
        a_expr = Bin("/", Bin("*", s, s), Num(2.0))
    coeffs = fpe_grid.FpCoefficients(
        a_eff=CoefficientField(a_expr, T),
        b=CoefficientField(parse_expr(cfg["drift"]), T),
        a0=None if cfg["a0"] is None else CoefficientField(parse_expr(cfg["a0"]), T))
    grid = fpe_grid.Grid1D(cfg["n_cells"], dom["lower"], dom["upper"])
    bc = fpe_grid.robin(*cfg["robin"]) if cfg["bc"] == "robin" else _BOUNDARIES[cfg["bc"]]()
    if bc.kind == "robin" and cfg["form"] == "divergence":
        raise ConfigError("/bc", f"{cfg['bc']} boundaries need form 'nondivergence'")
    return cfg, defaulted, grid, coeffs, bc


def _load_csv(path, where, **kwargs):
    """Comma-separated numbers; a missing, malformed or empty file is a ConfigError at where."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no data; that is reported below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(where, f"cannot read {path}: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(where, f"{path} holds no data")
    return rows


def _initial_density(cfg, grid, base_dir):
    spec, _ = _schema_check(cfg["init"], {"expr": (None, _expr("x")), "csv": (None, _str)},
                            "/init")
    if spec["expr"] is not None and spec["csv"] is not None:
        raise ConfigError("/init", "give at most one of 'expr' or 'csv'")
    if spec["expr"] is not None:
        key, vals = "/init/expr", CoefficientField(parse_expr(spec["expr"]))(x=grid.centers)
    elif spec["csv"] is not None:
        key, vals = "/init/csv", _load_csv(base_dir / spec["csv"], "/init/csv",
                                           usecols=1, ndmin=1)
        if len(vals) != grid.n_cells:
            raise ConfigError(key, f"expected {grid.n_cells} rows")
    else:
        key, vals = "/init", np.ones(grid.n_cells)
    if not np.all(vals >= 0):
        raise ConfigError(key, "initial density must be nonnegative")
    mass = vals.sum() * grid.dx
    if not 0 < mass < np.inf:
        raise ConfigError("/init", "initial density must have positive finite mass")
    return fpe_grid.DensityField(grid, vals / mass)


# ---------------------------------------------------------------------------
# run records

class _Made(NamedTuple):
    """What a subcommand made; run() writes, times and prints it.

    files holds (name, content) pairs: content is a JSON document (a dict)
    or a CSV table (header, column, ...), stacked only when it is written.
    stdout is a JSON document, or the text that selftest prints.
    """
    config: dict
    defaults: list
    files: list
    headline: dict
    stdout: dict | str | None = None
    code: int = 0


def _record(made, out, t0):
    """Write made's files and manifest.json under out, if given; then print made.stdout."""
    shown = json.dumps(made.stdout, indent=2) if isinstance(made.stdout, dict) else made.stdout
    if out is not None:
        out = Path(out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file in the way, or no permission
            raise ConfigError("--out", f"cannot create the output directory: {exc}") from exc
        checksums = {}
        for name, content in made.files:
            if content is made.stdout:     # a printed document is encoded once
                text = shown
            elif isinstance(content, dict):
                text = json.dumps(content, indent=2)
            else:
                # one % over every row: np.savetxt's format, without its row loop
                header, *columns = content
                table = np.column_stack(columns)
                row = ",".join(["%.17g"] * table.shape[1]) + "\n"
                text = f"# {header}\n" + (row * len(table)) % tuple(table.ravel().tolist())
            (out / name).write_text(text)
            checksums[name] = hashlib.sha256(text.encode()).hexdigest()
        manifest = {"tool": "perifp", "version": __version__, "config": made.config,
                    "defaults_applied": made.defaults,
                    "duration_s": time.monotonic() - t0,
                    "outputs": checksums, "headline": made.headline}
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    if shown is not None:
        print(shown)
    return made.code


# ---------------------------------------------------------------------------
# subcommands

def _cmd_markov_check(args):
    _bounded(_int, 1)(args.nmax, "--nmax")
    _pos(args.tol, "--tol")
    try:
        P = markov.TransitionMatrix.from_array(
            _load_csv(args.matrix, "--matrix", ndmin=2), row_stochastic=args.row_stochastic)
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError("--matrix", str(exc)) from exc
    try:
        x0 = markov.DistributionVector(_load_csv(args.init, "--init", ndmin=1))
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError("--init", str(exc)) from exc
    if len(x0.probs) != P.m:
        raise ConfigError("--init", f"expected {P.m} entries for a {P.m}x{P.m} matrix, "
                          f"got {len(x0.probs)}")
    report = markov.detect_period(P, x0, N_max=args.nmax, tol=args.tol)
    doc = {"period": report.period, "strong": bool(report.strong),
           "tol": report.tol, "residuals": report.residuals.tolist()}
    return _Made({"matrix": args.matrix, "init": args.init, "nmax": args.nmax,
                  "tol": args.tol, "row_stochastic": args.row_stochastic}, [],
                 files=[("period_report.json", doc)],
                 headline={"period": report.period, "strong": bool(report.strong)},
                 stdout=doc)


def _cmd_dbl(args):
    measures = []
    for flag, path in (("--mu", args.mu), ("--nu", args.nu)):
        rows = _load_csv(path, flag, ndmin=2)
        if rows.shape[1] < 2:
            raise ConfigError(flag, f"{path}: need columns x1..xd,weight")
        if not np.all(np.isfinite(rows)):
            raise ConfigError(flag, f"{path}: entries must be finite")
        try:
            measures.append(bl_metric.EmpiricalMeasure(rows[:, :-1], rows[:, -1]))
        except ValueError as exc:
            raise ConfigError(flag, str(exc)) from exc
    mu, nu = measures
    with np.errstate(over="ignore"):    # d_BL <= mass(mu) + mass(nu)
        if not np.isfinite(mu.weights.sum() + nu.weights.sum()):
            raise ConfigError("--nu", "the summed mass of the two measures is not finite")
    res = bl_metric.dbl(mu, nu)
    doc = {"distance": res.distance, "status": res.status,
           "witness": res.witness.tolist(),
           "support": res.support.tolist()}
    return _Made({"mu": args.mu, "nu": args.nu}, [], files=[("dbl_result.json", doc)],
                 headline={"distance": res.distance}, stdout=doc)


_SDE_SCHEMA = {
    "domain": (_REQUIRED, None),
    "period_T": (_REQUIRED, _pos),
    "dt": (None, _pos),
    "paths": (_REQUIRED, _bounded(_int, 1)),
    "periods": (_REQUIRED, _bounded(_int, 0)),
    "seed": (0, _bounded(_int, 0, 2**64)),     # a Philox key word
    "drift": (_REQUIRED, _list_of(_expr("t", "x"))),
    "sigma": (_REQUIRED, _list_of(_list_of(_expr("t", "x")))),
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
    snap = cfg["snap_resolution"]
    # coarsen divides each coordinate by it: the quotient must stay finite
    if snap is not None and max(map(abs, dom["lower"] + dom["upper"])) / snap == float("inf"):
        raise ConfigError("/snap_resolution", "too small for the domain's bounds")
    T = cfg["period_T"]
    if cfg["dt"] is None:
        cfg["dt"] = T / 256
    _check_divides(T, cfg["dt"], "period_T")
    drift = tuple(CoefficientField(parse_expr(e), T) for e in cfg["drift"])
    sigma = tuple(tuple(CoefficientField(parse_expr(e), T) for e in row)
                  for row in cfg["sigma"])
    sys_ = sde_reflect.SdeSystem(drift=drift, diffusion=sigma, period_T=T, domain=domain)
    init_spec, _ = _schema_check(cfg["init"], {"point": (None, _list_of(_num)),
                                               "csv": (None, _str)}, "/init")
    if (init_spec["point"] is None) == (init_spec["csv"] is None):
        raise ConfigError("/init", "give exactly one of 'point' or 'csv'")
    if init_spec["point"] is not None:
        key, init = "/init", np.array(init_spec["point"])
        if len(init) != domain.dim:
            raise ConfigError(key, f"point needs {domain.dim} coordinates")
    else:
        key, init = "/init/csv", _load_csv(base / init_spec["csv"], "/init/csv", ndmin=2)
        if init.shape != (cfg["paths"], domain.dim):
            raise ConfigError(key, f"expected {cfg['paths']} rows of "
                              f"{domain.dim} coordinates")
    if not np.all((domain.lower <= init) & (init <= domain.upper)):
        raise ConfigError(key, "start points must lie in the domain")

    batch = sde_reflect.sample_laws(sys_, init, M=cfg["paths"],
                                    n_periods=cfg["periods"], dt=cfg["dt"],
                                    seed=cfg["seed"],
                                    snap_resolution=cfg["snap_resolution"])
    headline = {"reflections_total": int(batch.reflection_counts.sum())}
    if len(batch.snapshots) > cfg["burn_in"] + 1:
        diag = sde_reflect.periodicity_diagnostic(batch, cfg["burn_in"])
        headline["cesaro_defect"] = diag["defect"]
        headline["cesaro_defect_restricted"] = diag["defect_restricted"]
        headline["max_pairwise_tail_dbl"] = diag["max_pairwise_tail_dbl"]
    files = [(f"snapshot_{k:04d}.csv", ("x1..xd,weight", snap.points, snap.weights))
             for k, snap in enumerate(batch.snapshots)]
    return _Made(cfg, defaulted, files, headline)


def _snapshot_times(text):
    """The comma-separated numbers of --snapshots; solve_ivp checks the times."""
    times = []
    for item in text.split(","):
        try:
            times.append(float(item))
        except ValueError:
            raise ConfigError("--snapshots", f"{item!r} is not a number") from None
    return times


def _cmd_fp_solve(args):
    doc, base = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, args.command)
    p0 = _initial_density(cfg, grid, base)
    snapshot_times = [0.0, cfg["t1"]]
    if args.snapshots:
        snapshot_times = _snapshot_times(args.snapshots)
    try:
        p, snaps = fpe_grid.solve_ivp(p0, coeffs, bc, cfg["period_T"], cfg["t1"], cfg["dt"],
                                      form=cfg["form"], snapshot_times=snapshot_times)
    except ValueError as exc:   # the config checks leave only a snapshot time to reject
        raise ConfigError("--snapshots", str(exc)) from None
    files = [("density.csv", ("x,p", grid.centers, p.values))]
    files += [(f"density_t{s.time_stamp:.6g}.csv", ("x,p", grid.centers, s.values))
              for s in snaps]
    mass_ledger = [{"t": s.time_stamp, "mass": s.mass} for s in snaps]
    return _Made(cfg, defaulted, files, {"final_mass": p.mass, "mass_ledger": mass_ledger})


def _cmd_eigen(args):
    doc, _ = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, args.command)
    op = period_map.PeriodOperator(grid, coeffs, bc, cfg["period_T"], cfg["dt"],
                                   form=cfg["form"])
    spec = period_map.power_iteration(op, tol=cfg["tol"])
    doc_out = {"r": spec.r, "log_r": spec.log_r, "mu": spec.mu, "lambda1": spec.mu,
               "residual": spec.residual, "iterations": spec.iterations,
               "bc": bc.kind, "form": cfg["form"]}
    return _Made(cfg, defaulted,
                 files=[("spectral.json", doc_out),
                        ("eigvec.csv", ("x,v", grid.centers, spec.eigvec))],
                 headline={"r": spec.r, "log_r": spec.log_r, "mu": spec.mu,
                           "periods_applied": spec.iterations,
                           "stiffness_ratio": op.stiffness_ratio,
                           "eigvec_min_over_max": spec.min_over_max},
                 stdout=doc_out)


def _cmd_stationary(args):
    doc, _ = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, args.command)
    # the closed form is the zero-flux density of the flux-form equation
    if bc.kind != "reflecting":
        raise ConfigError("/bc", "the stationary closed form needs reflecting walls")
    if cfg["form"] != "divergence":
        raise ConfigError("/form", "the stationary closed form needs form 'divergence'")
    density = fpe_grid.stationary_closed_form(coeffs, grid)
    times = np.linspace(0.0, cfg["period_T"], 9)
    cond = fpe_grid.check_stationarity_condition(coeffs, grid, times)
    headline = {"mass": density.mass, "stationarity_residual": cond["max_abs_residual"]}
    return _Made(cfg, defaulted, [("stationary.csv", ("x,p", grid.centers, density.values))],
                 headline, stdout=headline)


def _auto_pair(problem, dt):
    """Default ordered pair: eps * principal eigenfunction below, 2*M0 above."""
    ts = np.linspace(0, problem.T, 8, endpoint=False)[:, None]
    # stop at the first candidate: f need not be defined for larger u
    M0 = next((cand for cand in np.geomspace(1e-3, 1e6, 64)
               if np.max(problem.f(t=ts, x=problem.grid.centers, u=cand)) <= 0), None)
    if M0 is None:
        raise ConfigError("/source_f", "could not find M0 with f(t,x,M0) <= 0")
    op = period_map.PeriodOperator(problem.grid, problem.coeffs, problem.bc,
                                   problem.T, dt, form=problem.form)
    spec = period_map.power_iteration(op)
    phi = np.abs(spec.eigvec) / np.max(np.abs(spec.eigvec))
    lower = fpe_grid.DensityField(problem.grid, 1e-3 * phi)
    upper = fpe_grid.DensityField(problem.grid, np.full(problem.grid.n_cells, 2 * M0))
    return semilinear.OrderedPair(lower, upper)


def _cmd_semilinear(args):
    doc, _ = load_config(args.config)
    cfg, defaulted, grid, coeffs, bc = _parse_fp_config(doc, args.command)
    if cfg["source_f"] is None:
        raise ConfigError("/source_f", "required for the semilinear solver")
    T = cfg["period_T"]
    problem = semilinear.SemilinearProblem(
        coeffs=coeffs, f=CoefficientField(parse_expr(cfg["source_f"]), T),
        bc=bc, T=T, grid=grid, form=cfg["form"])
    pair = _auto_pair(problem, cfg["dt"])
    result = semilinear.monotone_iterate(problem, pair, cfg["dt"],
                                         c=cfg["c_shift"], tol=cfg["tol"],
                                         max_iter=cfg["max_iter"])
    n_steps = result.trajectory.shape[0] - 1
    files = [(f"profile_t{k * cfg['dt']:.6g}.csv", ("x,u", grid.centers, result.trajectory[k]))
             for k in range(0, n_steps + 1, max(1, n_steps // 8))]
    trace = {"iterations": result.iterations, "gap": result.gap,
             "periodicity_residual": result.periodicity_residual,
             "c": result.c,
             "deltas_upper": result.deltas_upper,
             "deltas_lower": result.deltas_lower}
    files.append(("iteration_trace.json", trace))
    summary = {k: trace[k] for k in ("iterations", "gap", "periodicity_residual")}
    return _Made(cfg, defaulted, files, headline=summary, stdout=summary)


def _cmd_selftest(args):
    lines = []

    def check(name, ok):
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")

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
    sys_ = sde_reflect.SdeSystem((zero,), ((zero,),), T, dom)
    batch = sde_reflect.sample_laws(sys_, [0.5], M=8, n_periods=2, dt=T / 8, seed=1)
    check("sde_reflect: frozen dynamics stays put",
          all(np.allclose(s.points, 0.5) for s in batch.snapshots))
    # the stream contract: step s draws sqrt(dt) * standard_normal((M, m))
    # from Philox key [seed, s]; a period of one step records step 0
    dt = 1 / 256
    walk = sde_reflect.SdeSystem((CoefficientField.from_string("0", dt),),
                                 ((CoefficientField.from_string("1", dt),),), dt, dom)
    batch = sde_reflect.sample_laws(walk, [0.5], M=4, n_periods=1, dt=dt, seed=7)
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    check("sde_reflect: step 0 moves by sqrt(dt) * N(0, 1) from Philox key [seed, 0]",
          np.array_equal(batch.snapshots[1].points, 0.5 + np.sqrt(dt) * gen.standard_normal((4, 1))))

    grid = fpe_grid.Grid1D(32, 0.0, 1.0)
    coeffs = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)", T), b=zero)
    reflect = fpe_grid.Propagator(grid, coeffs, fpe_grid.reflecting(), T, T / 8)
    V, _ = reflect.march(2 * grid.centers, 16)      # mass 1
    check("fpe_grid: reflecting CN conserves mass", abs(np.sum(V) * grid.dx - 1.0) < 1e-13)
    # two periods of N = 128 steps, the second on the first one's factors:
    # CN maps the sine mode to itself, times (1 + dt a_k lam/2)/(1 - dt a_k lam/2)
    dt = T / 128
    prop = fpe_grid.Propagator(grid, coeffs, fpe_grid.absorbing(), T, dt, startup=False)
    mode = np.sin(np.pi * grid.centers)
    V, _ = prop.march(mode, 256)
    z = dt / 2 * coeffs.a_eff(t=(np.arange(128) + 0.5) * dt) * (
        -4 / grid.dx**2 * np.sin(np.pi * grid.dx / 2) ** 2)
    amp = np.prod((1 + z) / (1 - z)) ** 2          # 2.7e-9, far above roundoff
    check("fpe_grid: CN march decays the sine mode exactly",
          np.max(np.abs(V - amp * mode)) < 1e-12 * amp)

    spec = period_map.power_iteration(
        period_map.PeriodOperator(grid, coeffs, fpe_grid.reflecting(), T, T / 8))
    check("period_map: reflecting walls give r = 1", abs(spec.r - 1.0) < 1e-12)

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
    # a time-periodic logistic source on Neumann walls: the limit is the
    # x-independent periodic solution of the ODE
    grid = fpe_grid.Grid1D(8, 0.0, 1.0)
    prob = semilinear.SemilinearProblem(
        coeffs=fpe_grid.FpCoefficients(a_eff=one, b=zero),
        f=CoefficientField.from_string("u*(1 + 0.5*sin(2*pi*t) - u)", T),
        bc=fpe_grid.neumann(), T=T, grid=grid)
    pair = semilinear.OrderedPair(*(fpe_grid.DensityField(grid, np.full(8, v))
                                    for v in (0.05, 2.0)))
    traj = semilinear.monotone_iterate(prob, pair, dt=T / 32, tol=1e-9).trajectory
    check("semilinear: logistic limit is periodic and flat in x",
          float(np.max(np.abs(traj[-1] - traj[0]))) <= 1e-9
          and float(np.max(np.ptp(traj, axis=1))) <= 1e-9)

    failed = any(line.startswith("FAIL") for line in lines)
    return _Made({}, [], [], {}, stdout="\n".join(lines), code=int(failed))


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 2)."""

    def error(self, message):
        # argparse names the argument at fault in the message: "argument
        # --nmax: invalid int value: 'abc'", "the following arguments are
        # required: --init", "unrecognized arguments: --bc robin"
        head, _, tail = message.partition(": ")
        if head.startswith("argument "):
            name, message = head.removeprefix("argument "), tail
        else:
            name = tail.replace(",", " ").split(" ")[0]
        raise ConfigError(name if name.startswith("-") else "argv", message)


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by every run."""
    parser = _Parser(prog="perifp", description="Distributional periodicity toolkit")
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

    for name, fn, text in (
            ("simulate-sde", _cmd_simulate_sde, "reflected SDE Monte Carlo"),
            ("fp-solve", _cmd_fp_solve, "Fokker-Planck initial value solve"),
            ("eigen", _cmd_eigen, "period map spectral analysis"),
            ("stationary", _cmd_stationary, "closed-form stationary density"),
            ("semilinear", _cmd_semilinear, "periodic semilinear monotone iteration")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "fp-solve":
            p.add_argument("--snapshots", default=None, help="comma-separated times")
        p.set_defaults(fn=fn)

    p = sub.add_parser("selftest", help="run the built-in smoke suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def run(argv) -> int:
    # read off argv, so that usage errors honour --json-errors too
    json_errors = "--json-errors" in argv

    def report(doc, text):
        print(json.dumps(doc) if json_errors else f"perifp: {text}", file=sys.stderr)

    def show_warning(message, category, *_):
        report({"warning": category.__name__, "message": str(message)},
               f"warning: {category.__name__}: {message}")

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            args = _build_parser().parse_args(argv)
            t0 = time.monotonic()
            return _record(args.fn(args), getattr(args, "out", None), t0)
        except (PerifpError, MemoryError) as exc:
            # numpy raises a private subclass of MemoryError: report the builtin
            name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            doc = {"error": name, "message": str(exc)}
            if isinstance(exc, ConfigError):
                doc["path"] = exc.path
            report(doc, f"{name}: {exc}")
            return 2 if isinstance(exc, ConfigError) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
