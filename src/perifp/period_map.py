"""Discrete period map K = U(T, 0) and its principal spectral data.

Columns of K are one-period evolutions of the unit cell densities, so K
is the matrix of the monodromy (period) operator on the grid.  The
spectral radius r = spr(K) gives mu = -(1/T) log r, the exponential rate
in p(nT) = e^{-mu n T} p0; with a zero-order term a0 the same machinery
yields the periodic-parabolic principal eigenvalue lambda_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveRadius, NotConverged
from .fpe_grid import BoundaryCondition, FpCoefficients, Grid1D, Propagator, step_count

DECAY_FLOOR = 1e-280


@dataclass(frozen=True)
class PeriodMap:
    K: np.ndarray
    T: float


@dataclass(frozen=True)
class SpectralResult:
    r: float
    mu: float
    eigvec: np.ndarray
    iterations: int
    residual: float


def build_period_map(grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                     T: float, dt: float, form: str = "divergence",
                     integrator: str = "cn") -> PeriodMap:
    """K = U(T,0) by evolving the n unit cell densities over one period.

    For the non-divergence form the spatial mean of the zero-order term
    is pulled out of each step and applied as an exact exponential
    factor at the end, so a constant added to a0 scales K by exactly
    e^{-c T} (up to a single exp rounding).
    """
    prop = Propagator(grid, coeffs, bc, dt, form, integrator,
                      a0_mean_out=form == "nondivergence")
    K, _ = prop.march(np.eye(grid.n_cells), prop.blocks(step_count(T, dt)))
    if prop.phase != 0.0:
        K *= math.exp(-prop.phase)
    return PeriodMap(K=K, T=T)


def power_iteration(pm: PeriodMap, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenpair by power iteration from the uniform density.

    The eigenvector is sign-fixed so its max-magnitude entry is positive;
    the Rayleigh quotient supplies the eigenvalue estimate.
    """
    max_iter = 20000
    K = pm.K
    n = K.shape[0]
    v = np.full(n, 1.0 / n)
    v /= np.linalg.norm(v)
    r = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = K @ v
        r = float(v @ w)
        residual = float(np.max(np.abs(w - r * v)))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise NonPositiveRadius("period map annihilated the start vector")
        v = w / norm
        if residual <= tol:
            break
    else:
        raise NotConverged(max_iter, residual)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if r <= 0:
        raise NonPositiveRadius(f"computed spectral radius {r!r} is not positive")
    return SpectralResult(r=r, mu=-math.log(r) / pm.T, eigvec=v, iterations=it,
                          residual=residual)


def decay_check(pm: PeriodMap, spec: SpectralResult, n_periods: int) -> float:
    """Max over n <= n_periods of ||K^n p0 - r^n p0||_inf / ||r^n p0||_inf.

    Verifies the decay law p(nT) = e^{-mu n T} p0 for the principal
    eigenfunction; truncates once r^n underflows toward the double floor.
    """
    p0 = spec.eigvec
    v = p0.copy()
    rn = 1.0
    worst = 0.0
    for _ in range(n_periods):
        v = pm.K @ v
        rn *= spec.r
        if rn < DECAY_FLOOR:
            break
        denom = rn * np.max(np.abs(p0))
        worst = max(worst, float(np.max(np.abs(v - rn * p0)) / denom))
    return worst


def lambda1(grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
            T: float, dt: float) -> float:
    """Principal periodic-parabolic eigenvalue lambda_1 = -(1/T) ln spr(K).

    K is the non-divergence period map of d_t u + A(t) u = 0 including
    the zero-order term a0 carried by coeffs.
    """
    pm = build_period_map(grid, coeffs, bc, T, dt, form="nondivergence")
    return power_iteration(pm, tol=1e-12).mu
