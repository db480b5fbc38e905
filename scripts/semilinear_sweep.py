#!/usr/bin/env python3
"""Monotone-iteration sweep: the default shift field against a fixed scalar shift.

Runs `perifp semilinear` on 54 configs: n in {24, 80, 200}, dt = 1/64,
a_eff = 1, Neumann, absorbing or Robin [1, 2] walls, and six sources.
Each config runs twice: with the default shift field, and with `c_shift`
set to 1.5 sup |df/du| over the auto pair's bracket, sampled on a 32 x 32
(t, u) lattice at the cell centres (the fixed scalar shift the solver
used before the shift field).  Prints each run's exit code, error type,
iterations and time (the median of --repeat runs), the largest profile
difference of the pair, and per grid size the summed times of the
configs where both runs converge.  Exits 1 on a mismatch: a pair whose
exit codes or error types differ, whose profiles differ by more than
tol, or, when n = 24 is run too, whose shift-field run takes more than
GROWTH iterations beyond its n = 24 config.

    PYTHONPATH=src python3 scripts/semilinear_sweep.py --n 24 200
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from perifp.cli import _auto_pair, run
from perifp.coeff_dsl import CoefficientField
from perifp.fpe_grid import FpCoefficients, Grid1D, absorbing, neumann, robin
from perifp.semilinear import SemilinearProblem

SIZES = (24, 80, 200)
WALLS = {"neumann": ({"bc": "neumann"}, neumann()),
         "absorbing": ({"bc": "absorbing"}, absorbing()),
         "robin": ({"bc": "robin", "robin": [1.0, 2.0]}, robin(1.0, 2.0))}
SOURCES = ("u*(1-u)", "u*(3 + sin(2*pi*t) - u)", "1 - u", "u*(1-u) + 0.1",
           "2 - u*u*u", "u*((1 + 0.45*sin(2*pi*t)) - u)")
T, DT, TOL = 1.0, 1.0 / 64, 1e-9
GROWTH = 5      # shift-field iterations a config may add from n = 24 to a larger n


def fixed_shift(problem: SemilinearProblem, u_min: float, u_max: float) -> float:
    """1.5 sup |df/du| by central differences on a 32-time, 32-level lattice."""
    ts = np.linspace(0.0, problem.T, 32, endpoint=False)[:, None, None]
    us = np.linspace(u_min, u_max, 32)[:, None]
    xs = problem.grid.centers
    h = max(1e-6, 1e-6 * (abs(u_max) + abs(u_min)))
    fp = problem.f(t=ts, x=xs, u=us + h)
    fm = problem.f(t=ts, x=xs, u=us - h)
    return 1.5 * (float(np.max(np.abs(fp - fm))) / (2 * h))


def run_once(doc: dict, work: Path) -> dict:
    """One `perifp semilinear` run of doc: exit code, error type, iterations,
    time and the profiles it wrote."""
    cfg, out = work / "config.json", work / "out"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["--json-errors", "semilinear", "--config", str(cfg), "--out", str(out)])
    seconds = perf_counter() - t0
    errors = [json.loads(line) for line in err.getvalue().splitlines()]
    error = next((e["error"] for e in reversed(errors) if "error" in e), "-")
    iterations, profiles = "-", {}
    if code == 0:
        iterations = json.loads((out / "iteration_trace.json").read_text())["iterations"]
        profiles = {p.name: np.loadtxt(p, delimiter=",", skiprows=1)[:, 1]
                    for p in sorted(out.glob("profile_t*.csv"))}
    return {"code": code, "error": error, "iterations": iterations, "s": seconds,
            "profiles": profiles}


def run_config(doc: dict, repeat: int) -> dict:
    """Runs doc repeat times; the first run's result with the median time."""
    runs = []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as work:
            runs.append(run_once(doc, Path(work)))
    return {**runs[0], "s": median(r["s"] for r in runs)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES), choices=SIZES,
                    help="grid sizes to run")
    ap.add_argument("--repeat", type=int, default=1, help="runs per config; times are medians")
    args = ap.parse_args(argv)

    one, zero = (CoefficientField.from_string(s, T) for s in ("1", "0"))
    print(f"{'n':>4} {'wall':<9} {'source':<32} {'field: exit error it s':<36} "
          f"{'fixed c: exit error it s':<36} profile diff")
    mismatches = 0
    base = {}       # (wall, source) -> shift-field iterations at n = 24
    for n in args.n:
        totals = {"field": 0.0, "fixed": 0.0}
        for wall, (wall_keys, bc) in WALLS.items():
            for source in SOURCES:
                doc = {"domain": {"lower": 0.0, "upper": 1.0}, "period_T": T,
                       "n_cells": n, "dt": DT, "drift": "0", "a_eff": "1",
                       "source_f": source, "tol": TOL, **wall_keys}
                problem = SemilinearProblem(FpCoefficients(a_eff=one, b=zero),
                                            CoefficientField.from_string(source, T),
                                            bc, T, Grid1D(n, 0.0, 1.0))
                pair = _auto_pair(problem, DT)
                c = fixed_shift(problem, float(pair.lower.values.min()),
                                float(pair.upper.values.max()))
                field = run_config(doc, args.repeat)
                fixed = run_config({**doc, "c_shift": c}, args.repeat)
                diff = "-"
                same = (field["code"], field["error"]) == (fixed["code"], fixed["error"])
                if same and field["code"] == 0:
                    diff = max(float(np.max(np.abs(field["profiles"][k] - v)))
                               for k, v in fixed["profiles"].items())
                    same = diff <= TOL
                    totals["field"] += field["s"]
                    totals["fixed"] += fixed["s"]
                if n == 24:
                    base[wall, source] = field["iterations"]
                elif isinstance(base.get((wall, source)), int) and field["code"] == 0:
                    same = same and field["iterations"] <= base[wall, source] + GROWTH
                mismatches += not same
                cells = [f"{r['code']} {r['error']:<21} {r['iterations']!s:>4} {r['s']:6.3f}"
                         for r in (field, fixed)]
                print(f"{n:>4} {wall:<9} {source:<32} {cells[0]:<36} {cells[1]:<36} "
                      f"{diff if diff == '-' else f'{diff:.1e}'}"
                      f"{'' if same else '  MISMATCH'}", flush=True)
        print(f"n = {n}: converging configs take {totals['field']:.3f} s with the "
              f"shift field, {totals['fixed']:.3f} s with fixed c", flush=True)
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
