"""Monte Carlo simulation of reflected SDEs on box domains.

Euler-Maruyama with Euclidean projection onto the box (componentwise
clamp), the standard discrete Skorokhod scheme; the reflection process
is tracked only as per-path projection tallies.  Brownian increments
come from counter-based Philox streams keyed by (seed, step_index), so
identical (seed, config) runs are bitwise reproducible regardless of
scheduling.

Coefficient expressions are scalar in x: component i of the drift and
row i of the diffusion see x = X_i, their own coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bl_metric import (CesaroDefect, EmpiricalMeasure, cesaro_defect, coarsen,
                        optimal_distance)
from .errors import DimensionMismatch, NonFiniteState
from .fpe_grid import step_count


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("lower and upper must have the same length")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class SdeSystem:
    drift: tuple          # d CoefficientFields b_i(t, x_i)
    diffusion: tuple      # d rows of m CoefficientFields sigma_ij(t, x_i)
    period_T: float
    domain: BoxDomain
    brownian_dim: int

    def __post_init__(self):
        drift = tuple(self.drift)
        diffusion = tuple(tuple(row) for row in self.diffusion)
        d = self.domain.dim
        if len(drift) != d:
            raise DimensionMismatch(f"need {d} drift components, got {len(drift)}")
        if len(diffusion) != d or any(len(row) != self.brownian_dim for row in diffusion):
            raise DimensionMismatch(f"diffusion must be {d}x{self.brownian_dim}")
        for f in drift + tuple(f for row in diffusion for f in row):
            if f.period_T is None or abs(f.period_T - self.period_T) > 1e-12 * self.period_T:
                raise ValueError("all coefficients must be declared T-periodic with the system period")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)


@dataclass
class TrajectoryBatch:
    seed: int
    paths: int
    dt: float
    period_T: float
    snapshots: list            # EmpiricalMeasure at times 0, T, ..., nT
    snapshot_times: np.ndarray
    reflection_counts: np.ndarray  # per-path projection tallies


def _eval_componentwise(fields, t, X: np.ndarray) -> np.ndarray:
    """Field i at (t, X[:, i]), t one time or one per path; (M, len(fields))."""
    return np.stack([f(t=t, x=X[:, i]) for i, f in enumerate(fields)], axis=1)


def em_reflect_step(x: np.ndarray, t: float, dt: float, dW: np.ndarray,
                    sys: SdeSystem):
    """One projected Euler-Maruyama step for a batch of paths.

    x: (M, d) positions in the closed box; dW: (M, m) Brownian increments.
    Returns (x_next, reflected) where reflected is the per-path bool of
    whether the projection moved the point.
    """
    x = np.atleast_2d(x)
    dW = np.atleast_2d(dW)
    M, d = x.shape
    b = _eval_componentwise(sys.drift, t, x)
    noise = np.zeros((M, d))
    for i in range(d):
        for j in range(sys.brownian_dim):
            noise[:, i] += sys.diffusion[i][j](t=t, x=x[:, i]) * dW[:, j]
    free = x + b * dt + noise
    if not np.all(np.isfinite(free)):
        raise NonFiniteState("drift/diffusion produced non-finite state")
    projected = sys.domain.project(free)
    reflected = np.any(projected != free, axis=1)
    return projected, reflected


def _step_increments(seed: int, step: int, shape) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))
    return gen.standard_normal(shape)


def sample_laws(sys: SdeSystem, init, M: int, n_periods: int, dt: float,
                seed: int, snap_resolution: float | None = None) -> TrajectoryBatch:
    """Simulate M paths and record the empirical law at 0, T, ..., nT.

    init is a point (all paths start there), an (M, d) array of starting
    positions, or an EmpiricalMeasure to sample starts from.  Snapshot
    supports are optionally snapped to a grid of resolution
    snap_resolution at emission.
    """
    if M < 1:
        raise ValueError("need at least one path")
    T = sys.period_T
    steps_per_period = step_count(T, dt)
    d = sys.domain.dim

    if isinstance(init, EmpiricalMeasure):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed, 2**63], dtype=np.uint64)))
        idx = gen.choice(len(init.weights), size=M, p=init.weights / init.mass)
        X = init.points[idx]
    else:
        init = np.asarray(init, dtype=float)
        X = np.broadcast_to(init, (M, d)).copy() if init.ndim <= 1 else init.copy()
        if X.shape != (M, d):
            raise DimensionMismatch(f"init must broadcast to ({M}, {d})")
    X = sys.domain.project(X)

    sqrt_dt = np.sqrt(dt)
    reflections = np.zeros(M, dtype=np.int64)

    def emit(x):
        m = EmpiricalMeasure(x.copy(), np.full(M, 1.0 / M))
        if snap_resolution is not None:
            m = coarsen(m, snap_resolution)
        return m

    snapshots = [emit(X)]
    step_index = 0
    for _ in range(n_periods):
        for k in range(steps_per_period):
            t = (step_index % steps_per_period) * dt
            dW = sqrt_dt * _step_increments(seed, step_index, (M, sys.brownian_dim))
            X, hit = em_reflect_step(X, t, dt, dW, sys)
            reflections += hit
            step_index += 1
        snapshots.append(emit(X))
    times = np.arange(n_periods + 1) * T
    return TrajectoryBatch(seed=seed, paths=M, dt=dt, period_T=T,
                           snapshots=snapshots, snapshot_times=times,
                           reflection_counts=reflections)


def lipschitz_report(sys: SdeSystem, samples: int = 1000, seed: int = 0) -> dict:
    """Sampled estimates of the Lipschitz/growth quotients of b and sigma.

    Purely diagnostic: the four quotients are maximized over random
    (t, x, y) triples in [0, T) x box x box.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lo, hi = sys.domain.lower, sys.domain.upper
    ts = gen.uniform(0.0, sys.period_T, samples)
    xs = gen.uniform(lo, hi, (samples, sys.domain.dim))
    ys = gen.uniform(lo, hi, (samples, sys.domain.dim))

    def fields(X):   # drift (samples, d) and diffusion (samples, d, m) at (ts, X)
        return (_eval_componentwise(sys.drift, ts, X),
                np.stack([_eval_componentwise(col, ts, X) for col in zip(*sys.diffusion)],
                         axis=2))

    (bx, sx), (by, sy) = fields(xs), fields(ys)
    gap = np.linalg.norm(xs - ys, axis=1)
    far = gap > 1e-12
    cap = np.sqrt(1.0 + np.sum(xs * xs, axis=1))
    quotients = {"drift_lipschitz": np.linalg.norm(bx - by, axis=1)[far] / gap[far],
                 "sigma_lipschitz": np.linalg.norm(sx - sy, axis=(1, 2))[far] / gap[far],
                 "drift_growth": np.linalg.norm(bx, axis=1) / cap,
                 "sigma_growth": np.linalg.norm(sx, axis=(1, 2)) / cap}
    return {**{k: float(np.max(q, initial=0.0)) for k, q in quotients.items()},
            "samples": samples}


def periodicity_diagnostic(batch: TrajectoryBatch, burn_in: int,
                           snap_resolution: float | None = None) -> dict:
    """Theorem-style periodicity diagnostics over post-burn-in snapshots.

    Reports the Cesaro defect (the unrestricted one-period-apart average,
    which dominates the indicator-weighted variant; both are included),
    the max pairwise d_BL among the last 5 snapshots, and the empirical
    second moment at each retained snapshot time.
    """
    laws = batch.snapshots[burn_in:]
    if len(laws) < 2:
        raise ValueError("need more snapshots than burn_in + 1")
    if snap_resolution is not None:
        laws = [coarsen(m, snap_resolution) for m in laws]
    defect: CesaroDefect = cesaro_defect(laws)
    first = max(0, len(laws) - 5)   # the tail is laws[first:]
    # its consecutive pairs were already solved, and checked, for the defect
    max_pairwise = float(np.max(defect.terms[first:]))
    for i in range(first, len(laws)):
        for j in range(i + 2, len(laws)):
            max_pairwise = max(max_pairwise, optimal_distance(
                laws[i], laws[j], f"snapshots {burn_in + i} and {burn_in + j}"))
    second_moments = np.array([
        float(np.sum(m.weights * np.sum(m.points**2, axis=1)) / m.mass)
        for m in batch.snapshots])
    return {"defect": defect.unrestricted,
            "defect_restricted": defect.restricted,
            "defect_terms": defect.terms,
            "max_pairwise_tail_dbl": max_pairwise,
            "second_moments": second_moments,
            "burn_in": burn_in}


def density_to_measure(density) -> EmpiricalMeasure:
    """Grid density -> weighted point cloud at the cell centers."""
    w = density.values * density.grid.dx
    w = np.clip(w, 0.0, None)
    return EmpiricalMeasure(density.grid.centers[:, None], w / w.sum() * density.mass)
