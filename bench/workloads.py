"""Benchmark workloads: seeded input generation and job lists.

Each workload is a list of jobs.  A job is one ``perifp`` CLI invocation
(``argv`` without ``--out``) plus the parameters its output check needs.
Every input file a job reads is generated here from the workload seed;
the program under test receives only those files.  Job sizes are fixed,
so a different seed changes coefficients, samples and RNG streams but
not the amount of work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# one line per workload, printed in the run report
WHY = {
    "mc-compare": "d_BL LPs on merged supports of 100-400 points (d=1, d=2, "
                  "sub-probability, repeated diagnostic pairs) take most of the pass, "
                  "so any d_BL change shows here",
    "march": "thousands of small CN and Euler-Maruyama steps on vectors of <= 1e4 "
             "entries: per-step Python/scipy overhead and the monotone iteration "
             "count set the time; d_BL and dense maps are negligible",
    "spectrum": "dense O(n^2 * steps) period-map builds and power iteration at "
                "n = 200..800, working sets in and out of a 4 MiB L2; assembly "
                "is a few percent",
}

# which per-layer metrics should move which end-to-end metric, and where
PREDICTIONS = [
    {"layer": "bl_metric", "moves": ["dbl_s", "simulate_sde_s", "peak_rss_mb"],
     "on": "mc-compare", "unchanged_on": "spectrum (slightly on march)"},
    {"layer": "sde_reflect", "moves": ["simulate_sde_s"],
     "on": "march", "unchanged_on": "mc-compare (the LP dominates there)"},
    {"layer": "fpe_grid, coeff_dsl", "moves": ["fp_solve_s", "semilinear_s"],
     "on": "march", "unchanged_on": "mc-compare (small on spectrum)"},
    {"layer": "period_map", "moves": ["eigen_s", "peak_rss_mb"],
     "on": "spectrum", "unchanged_on": "mc-compare (small on march via the "
                                       "semilinear auto-pair)"},
    {"layer": "semilinear", "moves": ["semilinear_s"], "on": "march",
     "unchanged_on": "mc-compare, spectrum"},
    {"layer": "markov", "moves": ["wall_s"], "on": "mc-compare",
     "unchanged_on": "march, spectrum"},
    {"layer": "cli", "moves": ["wall_s"], "on": "all, mostly mc-compare",
     "unchanged_on": "-"},
]


class _Inputs:
    """Writes generated input files into one directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def json(self, name, doc) -> str:
        path = self.root / name
        path.write_text(json.dumps(doc, indent=2))
        return str(path)

    def csv(self, name, rows) -> str:
        path = self.root / name
        np.savetxt(path, np.atleast_2d(rows), delimiter=",", fmt="%.17g")
        return str(path)


def _job(name, cmd, argv, **check):
    return {"name": name, "cmd": cmd, "argv": [cmd] + argv, "check": check}


def _fp_config(inp, name, **doc):
    doc.setdefault("domain", {"lower": 0.0, "upper": 1.0})
    return inp.json(name, doc)


# ---------------------------------------------------------------------------
# mc-compare

def _measure(rng, n, d, center, spread, mass):
    pts = np.clip(rng.normal(center, spread, size=(n, d)), 0.0, 1.0)
    return np.column_stack([pts, np.full(n, mass / n)])


def _permutation_chain(rng, m):
    """Column-stochastic permutation matrix with a known period <= 64."""
    options = [(2, 3, 5), (3, 4, 5), (2, 5, 6), (2, 3, 7), (4, 5, 6), (2, 7, 8)]
    lengths = options[int(rng.integers(len(options)))]
    perm = np.arange(m)
    start = 0
    while start + max(lengths) <= m:
        for L in lengths:
            if start + L > m:
                break
            cycle = np.arange(start, start + L)
            perm[cycle] = np.roll(cycle, -1)
            start += L
    relabel = rng.permutation(m)
    P = np.zeros((m, m))
    P[relabel[perm], relabel] = 1.0          # state j moves to perm[j]
    x0 = rng.dirichlet(np.ones(m))
    return P, x0, int(np.lcm.reduce(lengths))


def _mc_compare(rng, inp):
    jobs = []
    sde1 = inp.json("sde_d1.json", {
        "domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
        "dt": 1.0 / 64, "paths": 100, "periods": 3,
        "seed": int(rng.integers(2**31)),
        "drift": ["0"], "sigma": [["1"]], "init": {"point": [0.5]}})
    jobs.append(_job("sde-d1-raw", "simulate-sde", ["--config", sde1],
                     kind="sde", paths=100, periods=3, dim=1))
    amp = float(rng.uniform(0.15, 0.3))
    ou = f"0 - (x - 0.5 - {amp!r}*sin(2*pi*t))"
    sde2 = inp.json("sde_d2.json", {
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "period_T": 1.0,
        "dt": 1.0 / 64, "paths": 90, "periods": 3,
        "seed": int(rng.integers(2**31)),
        "drift": [ou, ou], "sigma": [["0.5", "0"], ["0", "0.5"]],
        "init": {"point": [0.5, 0.5]}})
    jobs.append(_job("sde-d2-raw", "simulate-sde", ["--config", sde2],
                     kind="sde", paths=90, periods=3, dim=2))

    for name, n, d, mass in (("dbl-d1", 200, 1, 1.0), ("dbl-d1-sub", 200, 1, 0.7),
                             ("dbl-d2", 150, 2, 1.0)):
        mu = inp.csv(f"{name}_mu.csv", _measure(rng, n, d, 0.4, 0.15, mass))
        nu = inp.csv(f"{name}_nu.csv", _measure(rng, n, d, 0.6, 0.2, mass))
        jobs.append(_job(name, "dbl", ["--mu", mu, "--nu", nu],
                         kind="dbl", mu=mu, nu=nu))

    for m, row in ((300, False), (500, True)):
        P, x0, period = _permutation_chain(rng, m)
        mat = inp.csv(f"chain_{m}.csv", P.T if row else P)
        init = inp.csv(f"chain_{m}_x0.csv", x0[None, :])
        argv = ["--matrix", mat, "--init", init] + (["--row-stochastic"] if row else [])
        jobs.append(_job(f"markov-{m}", "markov-check", argv,
                         kind="markov", period=period))
    return jobs


# ---------------------------------------------------------------------------
# march

def _march(rng, inp):
    T = 0.1
    jobs = []
    amp = float(rng.uniform(0.5, 1.5))
    cfg = _fp_config(inp, "fp_reflect.json", period_T=T, n_cells=200, t1=10 * T,
                     drift=f"{amp!r}*sin(2*pi*t/0.1)*(1-2*x)", sigma="1",
                     bc="reflecting")
    jobs.append(_job("fp-reflect-200", "fp-solve", ["--config", cfg],
                     kind="fp_mass"))

    a = float(rng.uniform(0.3, 0.6))
    cfg = _fp_config(inp, "fp_absorb.json", period_T=T, n_cells=400, t1=10 * T,
                     drift="0", a_eff=f"{a!r}*(1 + 0.5*sin(2*pi*t/0.1))",
                     bc="absorbing")
    jobs.append(_job("fp-absorb-400", "fp-solve", ["--config", cfg],
                     kind="fp_heat_mass", a_mean=a, t1=10 * T))

    b0 = [float(v) for v in rng.uniform(0.5, 2.0, size=2)]
    cfg = _fp_config(inp, "fp_robin.json", period_T=T, n_cells=100, t1=20 * T,
                     drift="0.5*cos(2*pi*t/0.1)", a_eff="1 + 0.5*x",
                     a0=f"1 + {float(rng.uniform(0.2, 0.8))!r}*sin(2*pi*t/0.1)",
                     bc="robin", robin=b0, form="nondivergence")
    jobs.append(_job("fp-robin-100", "fp-solve", ["--config", cfg],
                     kind="fp_max_principle"))

    k = float(rng.uniform(3.0, 5.0))
    sigma = float(rng.uniform(0.8, 1.2))
    cfg = _fp_config(inp, "fp_static.json", period_T=T, n_cells=300, t1=40 * T,
                     dt=T / 64,
                     drift=f"{k!r}*(0.5 - x)", sigma=f"{sigma!r}", bc="reflecting")
    jobs.append(_job("fp-static-300", "fp-solve", ["--config", cfg],
                     kind="fp_mass", ou_k=k, ou_a=sigma**2 / 2))

    # the auto pair's upper solution (2 * M0, M0 on a geometric grid) and so
    # c stay the same for every amplitude in this range
    amp = float(rng.uniform(0.42, 0.5))
    cfg = _fp_config(inp, "sl_logistic.json", period_T=1.0, n_cells=24,
                     dt=1.0 / 64, drift="0", a_eff="1", bc="neumann",
                     source_f=f"u*((1 + {amp!r}*sin(2*pi*t)) - u)")
    jobs.append(_job("sl-logistic-24", "semilinear", ["--config", cfg],
                     kind="semilinear_ode", amp=amp, tol=1e-9))

    cap = float(rng.uniform(0.8, 0.95))
    cfg = _fp_config(inp, "sl_const.json", period_T=1.0, n_cells=24,
                     dt=1.0 / 32, drift="0", a_eff="1", bc="neumann",
                     source_f=f"u*({cap!r} - u)")
    jobs.append(_job("sl-const-24", "semilinear", ["--config", cfg],
                     kind="semilinear_const", value=cap, tol=1e-9))

    sigma = float(rng.uniform(0.8, 1.2))
    cfg = inp.json("sde_bm.json", {
        "domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
        "dt": 1.0 / 256, "paths": 10000, "periods": 6,
        "seed": int(rng.integers(2**31)), "drift": ["0"],
        "sigma": [[f"{sigma!r}"]], "init": {"point": [0.5]},
        "snap_resolution": 1.0 / 64})
    jobs.append(_job("sde-bm-1e4", "simulate-sde", ["--config", cfg],
                     kind="sde_uniform", paths=10000, periods=6, dim=1))

    k = float(rng.uniform(1.0, 3.0))
    cfg = _fp_config(inp, "stationary.json", period_T=T, n_cells=200,
                     drift=f"{k!r}*(0.5 - x)", sigma="1", bc="reflecting")
    jobs.append(_job("stationary-200", "stationary", ["--config", cfg],
                     kind="stationary", ou_k=k, ou_a=0.5))
    return jobs


# ---------------------------------------------------------------------------
# spectrum

def _spectrum(rng, inp):
    T = 0.1
    jobs = []

    def heat(name, n, steps, a_range):
        # with CN the stiffest grid mode decays like exp(-T dx^2 / (a dt^2));
        # it stays below the physical exp(-pi^2 a T) only while dt < dx / (pi a)
        a = float(rng.uniform(*a_range))
        cfg = _fp_config(inp, f"{name}.json", period_T=T, n_cells=n, dt=T / steps,
                         drift="0", a_eff=f"{a!r}", bc="absorbing")
        return _job(name, "eigen", ["--config", cfg], kind="eigen_heat",
                    r_exact=float(np.exp(-np.pi**2 * a * T)))

    jobs.append(heat("eig-heat-200", 200, 512, (0.8, 1.2)))
    amp = float(rng.uniform(0.5, 1.5))
    cfg = _fp_config(inp, "eig_reflect.json", period_T=T, n_cells=400,
                     drift=f"{amp!r}*sin(2*pi*t/0.1)*(1-2*x)", sigma="1",
                     bc="reflecting")
    jobs.append(_job("eig-reflect-400", "eigen", ["--config", cfg], kind="eigen_one"))
    b0 = [float(v) for v in rng.uniform(0.5, 2.0, size=2)]
    cfg = _fp_config(inp, "eig_robin.json", period_T=T, n_cells=300, dt=T / 256,
                     drift="0.5*cos(2*pi*t/0.1)", a_eff="1 + 0.5*x",
                     a0=f"1 + {float(rng.uniform(0.2, 0.8))!r}*sin(2*pi*t/0.1)",
                     bc="robin", robin=b0, form="nondivergence")
    jobs.append(_job("eig-robin-300", "eigen", ["--config", cfg],
                     kind="eigen_dense", config=cfg))
    # K = 5 MB, larger than a 4 MiB L2; a close spurious mode needs ~50-150
    # power iterations
    jobs.append(heat("eig-heat-800", 800, 256, (0.9, 0.92)))
    # dt = T/64 lets a cluster of stiff CN modes dominate: power iteration
    # stops with NotConverged after 20000 iterations (a known defect)
    jobs.append(heat("eig-heat-600-stiff", 600, 64, (0.8, 1.2)))
    return jobs


_BUILDERS = {"mc-compare": _mc_compare, "march": _march, "spectrum": _spectrum}
NAMES = tuple(_BUILDERS)


def generate(workload: str, seed: int, root: Path) -> list:
    """Write the inputs of ``workload`` for ``seed`` under ``root``; return its jobs."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    return _BUILDERS[workload](rng, _Inputs(root))
