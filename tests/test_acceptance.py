"""End-to-end acceptance suite.

Each test checks one headline criterion at its stated tolerance and
prints a single PASS/FAIL line (visible under pytest -s or on failure).
"""

import hashlib
import json
import math
import time

import numpy as np

from perifp import bl_metric, fpe_grid, markov, period_map, sde_reflect, semilinear
from perifp.cli import run as cli_run
from perifp.coeff_dsl import CoefficientField

from oracles import decay_check, paper_five_state_matrix, shooting_oracle


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_markov_five_state_period():
    t0 = time.monotonic()
    x0 = markov.DistributionVector(np.array([0.1, 0.1, 7 / 20, 2 / 5, 1 / 20]))
    ok = True
    detail = ""
    for a1 in (0.3, 0.5, 0.8):
        P = paper_five_state_matrix(a1, 1.0 - a1)
        rep = markov.detect_period(P, x0)
        # brute-force oracle: scan powers directly
        x = x0.probs
        oracle = None
        for k in range(1, 65):
            x = P.entries @ x
            if oracle is None and np.max(np.abs(x - x0.probs)) <= 1e-9:
                oracle = k
        ok &= rep.period == oracle == 3
        # residuals agree with explicit powering
        for k in (1, 2, 3, 8):
            xk = np.linalg.matrix_power(P.entries, k) @ x0.probs
            ok &= abs(rep.residuals[k - 1] - np.max(np.abs(xk - x0.probs))) <= 1e-10
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report("criterion 1: 5-state minimal period = 3 (brute-force oracle)", ok,
            f"elapsed={elapsed:.3f}s")


def test_criterion_02_strong_period_is_lcm():
    t0 = time.monotonic()
    gen = np.random.Generator(np.random.Philox(key=np.uint64(101)))
    ok = True
    for _ in range(50):
        m = int(gen.integers(2, 13))
        perm = gen.permutation(m)
        P = np.zeros((m, m))
        P[perm, np.arange(m)] = 1.0
        found = markov.detect_strong_period(markov.TransitionMatrix(P),
                                            N_max=30000)
        ok &= found == markov.permutation_order(perm)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report("criterion 2: strong period equals lcm of cycle lengths", ok,
            f"elapsed={elapsed:.3f}s")


def _group_ascent_oracle(mu, nu):
    """Exact small-support d_BL by exhaustive uniform group moves."""
    support = np.vstack([mu.points, nu.points])
    uniq, inverse = np.unique(support, axis=0, return_inverse=True)
    c = np.zeros(len(uniq))
    np.add.at(c, inverse.ravel(), np.concatenate([mu.weights, -nu.weights]))
    K = len(uniq)
    D = np.sqrt(((uniq[:, None, :] - uniq[None, :, :]) ** 2).sum(axis=2))
    subsets = [[i for i in range(K) if mask >> i & 1] for mask in range(1, 2**K)]
    h = np.zeros(K)
    for _ in range(2000):
        moved = False
        for S in subsets:
            cS = float(c[S].sum())
            if abs(cS) < 1e-15:
                continue
            sign = 1.0 if cS > 0 else -1.0
            out = [j for j in range(K) if j not in S]
            lam = float(np.min(1.0 - sign * h[S]))
            for i in S:
                for j in out:
                    lam = min(lam, D[i, j] - sign * (h[i] - h[j]))
            if lam > 1e-12:
                h[S] += sign * lam
                moved = True
        if not moved:
            break
    return round(float(c @ h) / 0.001) * 0.001


def test_criterion_03_dbl_oracle_and_axioms():
    t0 = time.monotonic()
    gen = np.random.Generator(np.random.Philox(key=np.uint64(202)))

    def rand_measure(d, max_pts=3):
        n = int(gen.integers(1, max_pts + 1))
        w = gen.uniform(0.1, 1.0, n)
        return bl_metric.EmpiricalMeasure(gen.uniform(-2, 2, (n, d)), w / w.sum())

    ok = True
    worst = 0.0
    for trial in range(100):
        d = 1 + trial % 2
        mu, nu = rand_measure(d), rand_measure(d)
        lp = bl_metric.dbl(mu, nu).distance
        oracle = _group_ascent_oracle(mu, nu)
        worst = max(worst, abs(lp - oracle))
        ok &= abs(lp - oracle) <= 2e-3
    for _ in range(200):
        d = int(gen.integers(1, 3))
        a, b, c = (rand_measure(d) for _ in range(3))
        dab = bl_metric.dbl(a, b).distance
        ok &= dab >= -1e-8
        ok &= abs(dab - bl_metric.dbl(b, a).distance) <= 1e-8
        ok &= dab <= bl_metric.dbl(a, c).distance + bl_metric.dbl(c, b).distance + 1e-8
        ok &= bl_metric.dbl(a, a).distance <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report("criterion 3: d_BL oracle agreement (2e-3) and metric axioms (1e-8)",
            ok, f"worst_gap={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_04_conservation_of_probability():
    t0 = time.monotonic()
    T = 1.0
    grid = fpe_grid.Grid1D(200, 0.0, 1.0)
    co = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("1", T),
        b=CoefficientField.from_string("sin(2*pi*t)*(1-2*x)", T))
    p = fpe_grid.DensityField(grid, np.ones(200))
    dt = T / 10000
    worst = 0.0
    for _ in range(10000):
        p = fpe_grid.step_cn(p, co, fpe_grid.reflecting(), dt)
        worst = max(worst, abs(p.mass - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("criterion 4: reflecting CN conserves mass over 1e4 steps (1e-10)",
            ok, f"worst=|mass-1|={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_05_heat_equation_decay():
    t0 = time.monotonic()
    T = 0.1
    grid = fpe_grid.Grid1D(200, 0.0, 1.0)
    co = fpe_grid.FpCoefficients(a_eff=CoefficientField.from_string("1", T),
                                 b=CoefficientField.from_string("0", T))
    pm = period_map.build_period_map(grid, co, fpe_grid.absorbing(), T, T / 512)
    spec = period_map.power_iteration(pm)
    exact_r = math.exp(-math.pi**2 * T)
    r_err = abs(spec.r - exact_r) / exact_r
    mu_err = abs(spec.mu - math.pi**2) / math.pi**2
    decay = decay_check(pm, spec, 5)
    elapsed = time.monotonic() - t0
    ok = r_err < 0.01 and mu_err < 0.01 and decay <= 1e-5 and elapsed < 30.0
    _report("criterion 5: heat-equation decay r, mu within 1%, decay law 1e-5",
            ok, f"r_err={r_err:.2e} mu_err={mu_err:.2e} decay={decay:.2e}")


def test_criterion_06_absorbing_contraction_regime():
    # a0 := -a_xx/2 + b_x >= 0 with absorbing walls implies 0 < r < 1
    t0 = time.monotonic()
    T = 0.5
    grid = fpe_grid.Grid1D(120, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(303)))
    ok = True
    rs = []
    for _ in range(10):
        c0 = float(gen.uniform(0.0, 2.0))
        c1 = float(gen.uniform(0.0, 2.0))
        d = float(gen.uniform(0.0, 0.5))
        # a = 1 + d x(1-x): a_xx = -2d, b = (c0 + c1(1+sin)) x: b_x >= 0,
        # so a0 = d + b_x >= 0 everywhere
        co = fpe_grid.FpCoefficients(
            a_eff=CoefficientField.from_string(f"1 + ({d!r})*x*(1-x)", T),
            b=CoefficientField.from_string(
                f"(({c0!r}) + ({c1!r})*(1+sin(2*pi*t/0.5)))*x", T))
        pm = period_map.build_period_map(grid, co, fpe_grid.absorbing(), T, T / 256)
        spec = period_map.power_iteration(pm)
        rs.append(spec.r)
        ok &= 0.0 < spec.r < 1.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _report("criterion 6: absorbing + a0 >= 0 gives 0 < r < 1 strictly", ok,
            f"r_range=[{min(rs):.4f},{max(rs):.4f}] elapsed={elapsed:.1f}s")


def test_criterion_07_stationary_closed_form():
    t0 = time.monotonic()
    T = 1.0
    grid = fpe_grid.Grid1D(1000, -2.0, 2.0)
    co = fpe_grid.FpCoefficients(a_eff=CoefficientField.from_string("1", T),
                                 b=CoefficientField.from_string("0 - x", T))
    q = fpe_grid.stationary_closed_form(co, grid)
    exact = np.exp(-grid.centers**2 / 2)
    exact /= exact.sum() * grid.dx
    point_err = float(np.max(np.abs(q.values - exact)))

    grid2 = fpe_grid.Grid1D(200, -2.0, 2.0)
    q2 = fpe_grid.stationary_closed_form(co, grid2)
    p, _ = fpe_grid.solve_ivp(q2, co, fpe_grid.reflecting(), T, T, T / 256)
    drift_err = float(np.max(np.abs(p.values - q2.values)))
    elapsed = time.monotonic() - t0
    ok = point_err <= 1e-6 and drift_err <= 5e-3 and elapsed < 10.0
    _report("criterion 7: closed-form stationary density (1e-6) is a fixed "
            "point (5e-3)", ok,
            f"pointwise={point_err:.2e} one_period_move={drift_err:.2e}")


def test_criterion_08_stationarity_condition_residual():
    t0 = time.monotonic()
    T = 1.0
    grid = fpe_grid.Grid1D(400, 0.0, 1.0)
    times = np.linspace(0.0, T, 9)

    static = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("1 + x^2", T),
        b=CoefficientField.from_string("0 - x", T))
    r_static = fpe_grid.check_stationarity_condition(static, grid, times)

    alpha = "(2 + sin(2*pi*t))"
    factored = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string(alpha, T),
        b=CoefficientField.from_string(f"{alpha}*(0 - x)", T))
    r_factored = fpe_grid.check_stationarity_condition(factored, grid, times)

    counter = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("1", T),
        b=CoefficientField.from_string("sin(2*pi*t)*x", T))
    r_counter = fpe_grid.check_stationarity_condition(counter, grid, times)

    elapsed = time.monotonic() - t0
    ok = (r_static["max_abs_residual"] <= 1e-6
          and r_factored["max_abs_residual"] <= 1e-6
          and r_counter["max_abs_residual"] >= 0.1
          and elapsed < 1.0)
    _report("criterion 8: stationarity-condition residuals (1e-6 / >= 0.1)", ok,
            f"static={r_static['max_abs_residual']:.2e} "
            f"factored={r_factored['max_abs_residual']:.2e} "
            f"counter={r_counter['max_abs_residual']:.2f}")


def test_criterion_09_lambda1_properties():
    t0 = time.monotonic()
    T = 0.1
    grid = fpe_grid.Grid1D(100, 0.0, 1.0)
    one = CoefficientField.from_string("1", T)
    zero = CoefficientField.from_string("0", T)

    base = fpe_grid.FpCoefficients(a_eff=one, b=zero,
                                   a0=CoefficientField.from_string("1 + x", T))
    shifted = fpe_grid.FpCoefficients(
        a_eff=one, b=zero,
        a0=CoefficientField.from_string("(1 + x) + 0.7", T))

    def lambda1(co, bc, dt):
        op = period_map.PeriodOperator(grid, co, bc, T, dt, form="nondivergence")
        return period_map.power_iteration(op, tol=1e-12).mu

    l_base = lambda1(base, fpe_grid.absorbing(), T / 128)
    l_shift = lambda1(shifted, fpe_grid.absorbing(), T / 128)
    shift_err = abs((l_shift - l_base) - 0.7) / 0.7

    gen = np.random.Generator(np.random.Philox(key=np.uint64(404)))
    monotone_ok = True
    for _ in range(20):
        lo = float(gen.uniform(0.0, 2.0))
        gap = float(gen.uniform(0.1, 2.0))
        co_lo = fpe_grid.FpCoefficients(
            a_eff=one, b=zero,
            a0=CoefficientField.from_string(f"({lo!r})*(1 + x)", T))
        co_hi = fpe_grid.FpCoefficients(
            a_eff=one, b=zero,
            a0=CoefficientField.from_string(f"({lo!r})*(1 + x) + ({gap!r})", T))
        l_lo = lambda1(co_lo, fpe_grid.absorbing(), T / 128)
        l_hi = lambda1(co_hi, fpe_grid.absorbing(), T / 128)
        monotone_ok &= l_lo < l_hi

    heat = fpe_grid.FpCoefficients(a_eff=one, b=zero)
    l_neu = lambda1(heat, fpe_grid.neumann(), T / 256)
    elapsed = time.monotonic() - t0
    ok = (shift_err <= 1e-8 and monotone_ok and abs(l_neu) <= 2e-3 / T
          and elapsed < 300.0)
    _report("criterion 9: lambda1 shift identity (1e-8), strict monotonicity, "
            "Neumann zero", ok,
            f"shift_err={shift_err:.2e} neumann={l_neu:.2e} elapsed={elapsed:.1f}s")


def test_criterion_10_reflected_sde_periodicity():
    t0 = time.monotonic()
    T = 1.0
    res = 1.0 / 256

    # reflected Brownian motion: stationary law is uniform on [0, 1]
    one = CoefficientField.from_string("1", T)
    zero = CoefficientField.from_string("0", T)
    bm = sde_reflect.SdeSystem((zero,), ((one,),), T,
                               sde_reflect.BoxDomain([0.0], [1.0]))
    batch = sde_reflect.sample_laws(bm, [0.5], M=10000, n_periods=20, dt=T / 256,
                                    seed=2024, snap_resolution=res)
    diag = sde_reflect.periodicity_diagnostic(batch, burn_in=10)
    defect = diag["defect"]

    grid = fpe_grid.Grid1D(200, 0.0, 1.0)
    co_bm = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("0.5", T), b=zero)
    q_bm = fpe_grid.stationary_closed_form(co_bm, grid)
    d_bm = bl_metric.dbl(batch.snapshots[-1],
                         sde_reflect.density_to_measure(q_bm)).distance

    # periodically forced reflected Ornstein-Uhlenbeck vs the grid solve
    drift_src = "0 - (x - 0.5 - 0.25*sin(2*pi*t))"
    ou = sde_reflect.SdeSystem(
        (CoefficientField.from_string(drift_src, T),),
        ((CoefficientField.from_string("0.5", T),),), T,
        sde_reflect.BoxDomain([0.0], [1.0]))
    batch_ou = sde_reflect.sample_laws(ou, [0.5], M=10000, n_periods=20,
                                       dt=T / 256, seed=2025, snap_resolution=res)
    co_ou = fpe_grid.FpCoefficients(
        a_eff=CoefficientField.from_string("0.125", T),
        b=CoefficientField.from_string(drift_src, T))
    p0 = fpe_grid.DensityField(grid, np.ones(200))
    p, _ = fpe_grid.solve_ivp(p0, co_ou, fpe_grid.reflecting(), T, 20 * T,
                              T / 256)
    d_ou = bl_metric.dbl(batch_ou.snapshots[-1],
                         sde_reflect.density_to_measure(p)).distance
    elapsed = time.monotonic() - t0
    ok = defect <= 0.05 and d_bm <= 0.05 and d_ou <= 0.05 and elapsed < 300.0
    _report("criterion 10: reflected SDE Cesaro defect and d_BL to grid "
            "densities (0.05)", ok,
            f"defect={defect:.4f} d_bm={d_bm:.4f} d_ou={d_ou:.4f} "
            f"elapsed={elapsed:.0f}s")


def test_criterion_11_semilinear_logistic_oracle():
    t0 = time.monotonic()
    T = 1.0
    tol = 1e-9
    grid = fpe_grid.Grid1D(24, 0.0, 1.0)
    prob = semilinear.SemilinearProblem(
        coeffs=fpe_grid.FpCoefficients(
            a_eff=CoefficientField.from_string("1", T),
            b=CoefficientField.from_string("0", T)),
        f=CoefficientField.from_string("u*((1 + 0.5*sin(2*pi*t)) - u)", T),
        bc=fpe_grid.neumann(), T=T, grid=grid)
    n_steps = 256
    pair = semilinear.OrderedPair(
        fpe_grid.DensityField(grid, np.full(24, 0.05)),
        fpe_grid.DensityField(grid, np.full(24, 3.0)))
    res = semilinear.monotone_iterate(prob, pair, dt=T / n_steps, tol=tol)
    oracle = shooting_oracle(lambda t: 1 + 0.5 * math.sin(2 * math.pi * t), T, n_steps)
    err = float(np.max(np.abs(res.trajectory - oracle[:, None])))
    elapsed = time.monotonic() - t0
    ok = (err <= 1e-4 and res.gap <= tol
          and res.periodicity_residual <= 10 * tol and elapsed < 120.0)
    _report("criterion 11: logistic benchmark vs shooting oracle (1e-4), "
            "gap <= tol", ok,
            f"Linf={err:.2e} gap={res.gap:.2e} "
            f"resid={res.periodicity_residual:.2e} elapsed={elapsed:.0f}s")


def test_criterion_12_reproducibility(tmp_path):
    def sha_all(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.name != "manifest.json"}

    fp_cfg = tmp_path / "fp.json"
    fp_cfg.write_text(json.dumps({
        "domain": {"lower": 0.0, "upper": 1.0}, "period_T": 0.1,
        "drift": "sin(2*pi*t/0.1)*(1-2*x)", "sigma": "1",
        "bc": "reflecting", "n_cells": 100, "dt": 0.1 / 64}))
    sl_cfg = tmp_path / "sl.json"
    sl_cfg.write_text(json.dumps({
        "domain": {"lower": 0.0, "upper": 1.0}, "period_T": 1.0,
        "drift": "0", "a_eff": "1", "bc": "neumann", "n_cells": 24,
        "dt": 1.0 / 32, "source_f": "u*(1-u)"}))
    sde_cfg = tmp_path / "sde.json"
    sde_cfg.write_text(json.dumps({
        "domain": {"lower": [0.0], "upper": [1.0]}, "period_T": 1.0,
        "dt": 1.0 / 64, "paths": 500, "periods": 3, "seed": 77,
        "drift": ["0"], "sigma": [["1"]], "init": {"point": [0.5]}}))
    np.savetxt(tmp_path / "P.csv", np.eye(3), delimiter=",")
    np.savetxt(tmp_path / "x0.csv", np.full(3, 1 / 3), delimiter=",")
    (tmp_path / "a.csv").write_text("0.0,1.0\n")
    (tmp_path / "b.csv").write_text("0.7,1.0\n")

    jobs = [
        ("fp-solve", ["fp-solve", "--config", str(fp_cfg)]),
        ("eigen", ["eigen", "--config", str(fp_cfg)]),
        ("stationary", ["stationary", "--config", str(fp_cfg)]),
        ("semilinear", ["semilinear", "--config", str(sl_cfg)]),
        ("simulate-sde", ["simulate-sde", "--config", str(sde_cfg)]),
        ("markov-check", ["markov-check", "--matrix", str(tmp_path / "P.csv"),
                          "--init", str(tmp_path / "x0.csv")]),
        ("dbl", ["dbl", "--mu", str(tmp_path / "a.csv"),
                 "--nu", str(tmp_path / "b.csv")]),
    ]
    ok = True
    bad = []
    for name, argv in jobs:
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert cli_run(argv + ["--out", str(out1)]) == 0
        assert cli_run(argv + ["--out", str(out2)]) == 0
        if sha_all(out1) != sha_all(out2):
            ok = False
            bad.append(name)
    _report("criterion 12: byte-identical outputs on re-run for every "
            "subcommand", ok, f"mismatches={bad}")
