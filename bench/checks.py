"""Output checks, run after a pass has finished timing.

``check(job, out_dir, refs)`` returns (ok, detail).  Oracles are closed
forms, an ODE shooting solution, independent bounds, or (for eigen jobs
without a closed form) the dense spectrum of the same period map.  refs
caches reference values that cost a solve, so each is computed once per
benchmark run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _csv(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _json(path):
    return json.loads(Path(path).read_text())


def _manifest(out):
    return _json(out / "manifest.json")


def _snapshots(out):
    return [_csv(p) for p in sorted(out.glob("snapshot_*.csv"))]


def _fail(detail):
    return False, detail


# -- mc-compare ---------------------------------------------------------------

def _sde(job, out, refs):
    c = job["check"]
    snaps = _snapshots(out)
    if len(snaps) != c["periods"] + 1:
        return _fail(f"{len(snaps)} snapshots, expected {c['periods'] + 1}")
    for k, s in enumerate(snaps):
        if s.shape != (c["paths"], c["dim"] + 1):
            return _fail(f"snapshot {k} has shape {s.shape}")
        if abs(s[:, -1].sum() - 1.0) > 1e-12:
            return _fail(f"snapshot {k} mass {s[:, -1].sum()!r}")
        if s[:, :-1].min() < 0.0 or s[:, :-1].max() > 1.0:
            return _fail(f"snapshot {k} leaves the box")
    defect = _manifest(out)["headline"]["cesaro_defect"]
    if not 0.0 <= defect <= 2.0:
        return _fail(f"Cesaro defect {defect!r} outside [0, 2]")
    return True, f"defect={defect:.4f}"


def _sde_uniform(job, out, refs):
    """Reflected Brownian motion on [0, 1] equilibrates to the uniform law."""
    c = job["check"]
    snaps = _snapshots(out)
    if len(snaps) != c["periods"] + 1:
        return _fail(f"{len(snaps)} snapshots, expected {c['periods'] + 1}")
    last = snaps[-1]
    order = np.argsort(last[:, 0])
    x, w = last[order, 0], last[order, 1]
    if abs(w.sum() - 1.0) > 1e-12:
        return _fail(f"last snapshot mass {w.sum()!r}")
    # W1 to Uniform[0, 1] = integral of |F_emp(s) - s| ds
    knots = np.concatenate([[0.0], x, [1.0]])
    F = np.concatenate([[0.0], np.cumsum(w)])
    w1 = 0.0
    for a, b, f in zip(knots[:-1], knots[1:], F):
        if b > a:
            w1 += _abs_linear_integral(f, a, b)
    defect = _manifest(out)["headline"]["cesaro_defect"]
    if w1 > 0.03 or defect > 0.05:
        return _fail(f"W1 to uniform {w1:.4f} (0.03), defect {defect:.4f} (0.05)")
    return True, f"w1={w1:.4f} defect={defect:.4f}"


def _abs_linear_integral(f, a, b):
    """Integral of |f - s| over s in [a, b]."""
    if f <= a:
        return ((b - f) ** 2 - (a - f) ** 2) / 2
    if f >= b:
        return ((f - a) ** 2 - (f - b) ** 2) / 2
    return ((f - a) ** 2 + (b - f) ** 2) / 2


def _merged(mu, nu):
    pts = np.vstack([mu[:, :-1], nu[:, :-1]])
    signed = np.concatenate([mu[:, -1], -nu[:, -1]])
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    c = np.zeros(len(uniq))
    np.add.at(c, inverse.ravel(), signed)
    return uniq, c


def _dbl(job, out, refs):
    from perifp import bl_metric
    c = job["check"]
    res = _json(out / "dbl_result.json")
    d = res["distance"]
    if res["status"] != "optimal":
        return _fail(f"status {res['status']}")
    mu, nu = _csv(c["mu"]), _csv(c["nu"])
    key = ("dbl_swapped", c["mu"], c["nu"])
    if key not in refs:
        swapped = bl_metric.dbl(bl_metric.EmpiricalMeasure(nu[:, :-1], nu[:, -1]),
                                bl_metric.EmpiricalMeasure(mu[:, :-1], mu[:, -1]))
        refs[key] = swapped.distance
    if abs(d - refs[key]) > 1e-8:
        return _fail(f"asymmetric: {d!r} vs {refs[key]!r}")
    # the witness must be feasible and attain the distance
    support, weights = _merged(mu, nu)
    h = np.asarray(res["witness"])
    if not np.array_equal(np.asarray(res["support"]).reshape(support.shape), support):
        return _fail("support differs from the merged support")
    if np.max(np.abs(h)) > 1 + 1e-9:
        return _fail("witness exceeds 1")
    dist = np.sqrt(((support[:, None, :] - support[None, :, :]) ** 2).sum(axis=2))
    if np.max(np.abs(h[:, None] - h[None, :]) - dist) > 1e-7:
        return _fail("witness is not 1-Lipschitz")
    if abs(float(weights @ h) - d) > 1e-8:
        return _fail(f"witness value {float(weights @ h)!r} != distance {d!r}")
    lower = abs(mu[:, -1].sum() - nu[:, -1].sum())
    if not lower - 1e-12 <= d <= mu[:, -1].sum() + nu[:, -1].sum() + 1e-12:
        return _fail(f"distance {d!r} outside the mass bounds")
    return True, f"d={d:.6f}"


def _markov(job, out, refs):
    rep = _json(out / "period_report.json")
    want = job["check"]["period"]
    if rep["period"] != want or not rep["strong"]:
        return _fail(f"period {rep['period']} strong={rep['strong']}, expected {want}")
    return True, f"period={want}"


# -- march --------------------------------------------------------------------

def _density(out, name="density.csv"):
    data = _csv(out / name)
    x, p = data[:, 0], data[:, 1]
    return x, p, (x[1] - x[0])


def _ou_density(x, k, a):
    """Stationary density of dX = k(1/2 - X) dt + sqrt(2a) dW reflected on [0, 1]."""
    q = np.exp(-k * (x - 0.5) ** 2 / (2 * a))
    return q / (q.sum() * (x[1] - x[0]))


def _fp_mass(job, out, refs):
    c = job["check"]
    x, p, dx = _density(out)
    mass = p.sum() * dx
    if abs(mass - 1.0) > 1e-10:
        return _fail(f"mass drift {mass - 1.0:.3e} (1e-10)")
    detail = f"mass-1={mass - 1.0:.1e}"
    if "ou_k" in c:
        l1 = float(np.abs(p - _ou_density(x, c["ou_k"], c["ou_a"])).sum() * dx)
        if l1 > 1e-3:
            return _fail(f"L1 distance {l1:.2e} to the stationary law (1e-3)")
        detail += f" L1={l1:.1e}"
    return True, detail


def _fp_heat_mass(job, out, refs):
    """Absorbing heat flow with time-periodic diffusion a(t), whole periods."""
    c = job["check"]
    x, p, dx = _density(out)
    mass = p.sum() * dx
    k = np.arange(1, 2000, 2)
    decay = np.exp(-(k * np.pi) ** 2 * c["a_mean"] * c["t1"])
    exact = float(np.sum(8 / (np.pi**2 * k**2) * decay))
    err = abs(mass - exact) / exact
    if err > 0.01:
        return _fail(f"mass {mass:.6e} vs series {exact:.6e} (1%)")
    return True, f"rel_err={err:.1e}"


def _fp_max_principle(job, out, refs):
    """u_t = a u_xx - b u_x - a0 u with a0 >= 0, dissipative Robin walls, u(0) = 1."""
    x, u, dx = _density(out)
    if not np.all(np.isfinite(u)) or u.min() < -1e-9 or u.max() > 1 + 1e-9:
        return _fail(f"range [{u.min():.3e}, {u.max():.6f}] outside [0, 1]")
    return True, f"max={u.max():.3e}"


def _ode_periodic(amp):
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def rhs(t, u):
        return u * (1 + amp * math.sin(2 * math.pi * t) - u)

    def shoot(u0):
        return solve_ivp(rhs, (0.0, 1.0), [u0], rtol=1e-12, atol=1e-14).y[0, -1] - u0

    u_star = brentq(shoot, 0.2, 3.0, xtol=1e-13)
    return solve_ivp(rhs, (0.0, 1.0), [u_star], rtol=1e-12, atol=1e-14,
                     dense_output=True).sol


def _profiles(out):
    for path in sorted(out.glob("profile_t*.csv")):
        t = float(path.name[len("profile_t"):-len(".csv")])
        yield t, _csv(path)[:, 1]


def _semilinear(job, out, refs):
    c = job["check"]
    trace = _json(out / "iteration_trace.json")
    if trace["gap"] > c["tol"]:
        return _fail(f"gap {trace['gap']:.2e} > tol")
    if "amp" in c:
        key = ("ode", c["amp"])
        if key not in refs:
            refs[key] = _ode_periodic(c["amp"])
        oracle = refs[key]
        err = max(float(np.max(np.abs(u - oracle(t)[0]))) for t, u in _profiles(out))
    else:
        err = max(float(np.max(np.abs(u - c["value"]))) for t, u in _profiles(out))
    if err > 1e-4:
        return _fail(f"max error {err:.2e} vs oracle (1e-4)")
    return True, f"iterations={trace['iterations']} err={err:.1e}"


def _stationary(job, out, refs):
    c = job["check"]
    x, p, dx = _density(out, "stationary.csv")
    q = _ou_density(x, c["ou_k"], c["ou_a"])
    err = float(np.max(np.abs(p - q)) / q.max())
    if abs(p.sum() * dx - 1.0) > 1e-12 or err > 1e-6:
        return _fail(f"relative error {err:.2e} to the closed form")
    return True, f"rel_err={err:.1e}"


# -- spectrum -----------------------------------------------------------------

def _spectral(out):
    return _json(out / "spectral.json")["r"]


def _iterations(out):
    return _json(out / "spectral.json")["iterations"]


def _eigen_heat(job, out, refs):
    r, exact = _spectral(out), job["check"]["r_exact"]
    err = abs(r - exact) / exact
    if err > 0.01:
        return _fail(f"r={r:.6f} vs exp(-pi^2 a T)={exact:.6f} (1%)")
    return True, f"r_err={err:.1e} iterations={_iterations(out)}"


def _eigen_one(job, out, refs):
    r = _spectral(out)
    if abs(r - 1.0) > 1e-9:
        return _fail(f"reflecting r={r!r} != 1")
    return True, f"|r-1|={abs(r - 1.0):.1e} iterations={_iterations(out)}"


def _eigen_dense(job, out, refs):
    """Compare with the largest |eigenvalue| of the dense period map."""
    from perifp import fpe_grid, period_map
    from perifp.coeff_dsl import CoefficientField
    path = job["check"]["config"]
    if path not in refs:
        doc = _json(path)
        T = doc["period_T"]
        coeffs = fpe_grid.FpCoefficients(
            *(CoefficientField.from_string(doc[key], T) for key in ("a_eff", "drift", "a0")))
        pm = period_map.build_period_map(fpe_grid.Grid1D(doc["n_cells"], 0.0, 1.0), coeffs,
                                         fpe_grid.robin(*doc["robin"]), T, doc["dt"],
                                         form=doc["form"])
        refs[path] = float(np.max(np.abs(np.linalg.eigvals(pm.K))))
    r, ref = _spectral(out), refs[path]
    if abs(r - ref) > 1e-6 * ref:
        return _fail(f"r={r!r} vs dense {ref!r}")
    return True, f"r={r:.6f} iterations={_iterations(out)}"


CHECKS = {"sde": _sde, "sde_uniform": _sde_uniform, "dbl": _dbl, "markov": _markov,
          "fp_mass": _fp_mass, "fp_heat_mass": _fp_heat_mass,
          "fp_max_principle": _fp_max_principle, "semilinear_ode": _semilinear,
          "semilinear_const": _semilinear, "stationary": _stationary,
          "eigen_heat": _eigen_heat, "eigen_one": _eigen_one,
          "eigen_dense": _eigen_dense}


def check(job, out_dir: Path, refs: dict):
    """(ok, detail) for one finished job; an exception counts as a failed check."""
    try:
        return CHECKS[job["check"]["kind"]](job, Path(out_dir), refs)
    except Exception as exc:  # unreadable or missing output
        return False, f"check raised {type(exc).__name__}: {exc}"
