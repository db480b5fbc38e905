"""Monte Carlo simulation of reflected SDEs on box domains.

Euler-Maruyama with Euclidean projection onto the box (componentwise
clamp), the standard discrete Skorokhod scheme; the reflection process
is tracked only as per-path projection tallies.  Step s of a run draws
its Brownian increments as sqrt(dt) * standard_normal((M, m)) from the
counter-based Philox stream with key [seed, s] and counter 0, so
identical (seed, config) runs are bitwise reproducible.

Coefficient expressions are scalar in x: component i of the drift and
row i of the diffusion see x = X_i, their own coordinate.
"""

from __future__ import annotations

import numpy as np

from .bl_metric import (CesaroDefect, EmpiricalMeasure, cesaro_defect, coarsen,
                        optimal_distance)
from .errors import DimensionMismatch, NonFiniteState
from .fpe_grid import step_count


class BoxDomain:
    def __init__(self, lower: np.ndarray, upper: np.ndarray):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("lower and upper must have the same length")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        self.lower, self.upper = lo, hi

    @property
    def dim(self) -> int:
        return len(self.lower)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Clamp the float array x onto the box in place; returns x."""
        return np.clip(x, self.lower, self.upper, out=x)


class SdeSystem:
    def __init__(self, drift: tuple, diffusion: tuple, period_T: float, domain: BoxDomain):
        drift = tuple(drift)    # d CoefficientFields b_i(t, x_i)
        # d rows of m CoefficientFields sigma_ij(t, x_i)
        diffusion = tuple(tuple(row) for row in diffusion)
        d = domain.dim
        if len(drift) != d:
            raise DimensionMismatch(f"need {d} drift components, got {len(drift)}")
        m = len(diffusion[0]) if diffusion else 0
        if len(diffusion) != d or any(len(row) != m for row in diffusion):
            raise DimensionMismatch(f"diffusion must be {d}x{m}")
        for f in drift + tuple(f for row in diffusion for f in row):
            if f.period_T is None or abs(f.period_T - period_T) > 1e-12 * period_T:
                raise ValueError("all coefficients must be declared T-periodic with the system period")
        self.drift, self.diffusion, self.period_T, self.domain = drift, diffusion, period_T, domain

    @property
    def brownian_dim(self) -> int:
        """m, the number of Brownian motions: the length of a diffusion row."""
        return len(self.diffusion[0])


class TrajectoryBatch:
    def __init__(self, snapshots: list, reflection_counts: np.ndarray):
        self.snapshots = snapshots      # EmpiricalMeasure at times 0, T, ..., nT
        self.reflection_counts = reflection_counts      # per-path projection tallies


def em_reflect_step(x: np.ndarray, t: float, dt: float, dW: np.ndarray,
                    sys: SdeSystem):
    """One projected Euler-Maruyama step for a batch of paths, in place.

    x: (M, d) float positions in the closed box, overwritten; dW: (M, m)
    Brownian increments.  Component i moves to (x_i + b_i dt) + the sum
    over j = 0, 1, ... of sigma_ij dW_j.  Returns (x, reflected) where
    reflected is the per-path bool of whether the projection moved the point.
    """
    drift, noise = np.empty((2, len(x)))
    for i, (b, row) in enumerate(zip(sys.drift, sys.diffusion)):
        xi = x[:, i]    # every coefficient of component i reads x_i before it moves
        # a folded constant b moves every x_i by the one scalar fl(b dt)
        bdt = (np.multiply(b(t=t, x=xi), dt, out=drift) if b.folded is None
               else float(b.folded) * dt)
        np.multiply(row[0](t=t, x=xi), dW[:, 0], out=noise)
        noise += 0.0    # the sum starts from +0.0: a -0.0 product adds as +0.0
        for j in range(1, len(row)):
            noise += row[j](t=t, x=xi) * dW[:, j]
        xi += bdt
        xi += noise
    if not np.isfinite(x).all():
        raise NonFiniteState("drift/diffusion produced non-finite state")
    reflected = ((x < sys.domain.lower) | (x > sys.domain.upper)).any(axis=1)
    return sys.domain.project(x), reflected


def sample_laws(sys: SdeSystem, init, M: int, n_periods: int, dt: float,
                seed: int, snap_resolution: float | None = None) -> TrajectoryBatch:
    """Simulate M paths and record the empirical law at 0, T, ..., nT.

    init is a point (all paths start there) or an (M, d) array of
    starting positions, each in the closed box.  Snapshot supports are
    optionally snapped to a grid of resolution snap_resolution at emission.
    """
    if M < 1:
        raise ValueError("need at least one path")
    T = sys.period_T
    steps_per_period = step_count(T, dt)
    d = sys.domain.dim

    init = np.asarray(init, dtype=float)
    X = np.broadcast_to(init, (M, d)).copy() if init.ndim <= 1 else init.copy()
    if X.shape != (M, d):
        raise DimensionMismatch(f"init must broadcast to ({M}, {d})")
    if not np.all((sys.domain.lower <= X) & (X <= sys.domain.upper)):
        raise ValueError("start points must lie in the box")

    sqrt_dt = np.sqrt(dt)
    reflections, tally = np.zeros(M, dtype=np.int64), np.zeros(M, dtype=np.uint8)
    # one generator, re-keyed every step to the bits of Generator(Philox(key=[seed, s]))
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    normal = np.random.Generator(bits).standard_normal
    state = bits.state
    key = state["state"]["key"]
    dW = np.empty((M, sys.brownian_dim))

    def emit(x):
        m = EmpiricalMeasure.from_samples(x.copy())
        if snap_resolution is not None:
            m = coarsen(m, snap_resolution)
        return m

    snapshots = [emit(X)]
    for period in range(n_periods):
        for k in range(steps_per_period):
            key[1] = step = period * steps_per_period + k
            bits.state = state
            normal(out=dW)
            dW *= sqrt_dt
            X, hit = em_reflect_step(X, k * dt, dt, dW, sys)
            tally += hit.view(np.uint8)
            if step % 255 == 254:     # flushed before a uint8 count can wrap
                reflections += tally
                tally.fill(0)
        snapshots.append(emit(X))
    reflections += tally
    return TrajectoryBatch(snapshots=snapshots, reflection_counts=reflections)


def periodicity_diagnostic(batch: TrajectoryBatch, burn_in: int) -> dict:
    """Theorem-style periodicity diagnostics over post-burn-in snapshots.

    Reports the Cesaro defect (the unrestricted one-period-apart average,
    which dominates the indicator-weighted variant; both are included)
    and the max pairwise d_BL among the last 5 snapshots.  The snapshots
    are compared as sample_laws emitted them, coarsened there or not.
    """
    laws = batch.snapshots[burn_in:]
    if len(laws) < 2:
        raise ValueError("need more snapshots than burn_in + 1")
    defect: CesaroDefect = cesaro_defect(laws)
    first = max(0, len(laws) - 5)   # the tail is laws[first:]
    # its consecutive pairs were already solved, and checked, for the defect
    max_pairwise = float(np.max(defect.terms[first:]))
    for i in range(first, len(laws)):
        for j in range(i + 2, len(laws)):
            max_pairwise = max(max_pairwise, optimal_distance(
                laws[i], laws[j], f"snapshots {burn_in + i} and {burn_in + j}"))
    return {"defect": defect.unrestricted,
            "defect_restricted": defect.restricted,
            "defect_terms": defect.terms,
            "max_pairwise_tail_dbl": max_pairwise}


def density_to_measure(density) -> EmpiricalMeasure:
    """Grid density -> weighted point cloud at the cell centers."""
    w = density.values * density.grid.dx
    w = np.clip(w, 0.0, None)
    return EmpiricalMeasure(density.grid.centers[:, None], w / w.sum() * density.mass)
