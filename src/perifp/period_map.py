"""Discrete period map K = U(T, 0) and its principal spectral data.

Columns of K are one-period evolutions of the unit cell densities, so K
is the matrix of the monodromy (period) operator on the grid.  The
spectral radius r = spr(K) gives mu = -(1/T) log r, the exponential rate
in p(nT) = e^{-mu n T} p0; with a zero-order term a0 the same machinery
yields the periodic-parabolic principal eigenvalue lambda_1.

PeriodOperator applies U(T, 0) to vectors without forming K, so the
spectrum costs a few periods on one vector instead of n columns;
build_period_map marches the same operators on the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveRadius, NotConverged, SignIndefinite
from .fpe_grid import BoundaryCondition, FpCoefficients, Grid1D, Propagator

DECAY_FLOOR = 1e-280
# a principal eigenvector entry below -SIGN_SLACK * (largest entry) is a
# sign change, not roundoff or power-iteration error
SIGN_SLACK = 1e-8


@dataclass(frozen=True)
class PeriodMap:
    K: np.ndarray
    T: float

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def apply(self, V: np.ndarray) -> np.ndarray:
        return self.K @ V


@dataclass(frozen=True)
class SpectralResult:
    r: float
    mu: float
    eigvec: np.ndarray
    iterations: int
    residual: float

    @property
    def min_over_max(self) -> float:
        """Smallest over largest eigenvector entry; negative on a sign change."""
        return float(self.eigvec.min() / self.eigvec.max())


class PeriodOperator:
    """U(T, 0) applied to a vector, or to the columns of a matrix, without forming K.

    U(T, 0) is one Propagator march over [0, T] from t = 0, Rannacher
    start-up included: the march fp-solve makes over [0, T].  Its
    operators are factored once and every apply back-substitutes them.
    In the non-divergence form the a0 mean of each step (each half step
    counting dt/2) is applied as one exact exponential factor.
    """

    def __init__(self, grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                 T: float, dt: float, form: str = "divergence"):
        self._prop = Propagator(grid, coeffs, bc, T, dt, form,
                                a0_mean_out=form == "nondivergence")
        # the start-up's half steps (phase 0, then t = dt) cover step 0
        m, N = self._prop.a0_means.tolist(), self._prop.n_phases
        self._scale = math.exp(-(dt / 2) * (m[0] + m[N]) - dt * sum(m[1:N]))
        self.T, self.n = T, grid.n_cells
        self.stiffness_ratio = self._prop.stiffness_ratio

    def apply(self, V: np.ndarray) -> np.ndarray:
        V, _ = self._prop.march(V, self._prop.n_phases)
        V *= self._scale
        return V


def build_period_map(grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                     T: float, dt: float, form: str = "divergence") -> PeriodMap:
    """K = U(T,0) by evolving the n unit cell densities over one period.

    The columns march the operators of PeriodOperator, Rannacher start-up
    included.  For the non-divergence form the spatial mean of the
    zero-order term is pulled out of each step and applied as an exact
    exponential factor at the end, so a constant added to a0 scales K by
    exactly e^{-c T} (up to a single exp rounding).
    """
    op = PeriodOperator(grid, coeffs, bc, T, dt, form)
    return PeriodMap(K=op.apply(np.eye(grid.n_cells)), T=T)


def power_iteration(pm, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenpair by power iteration from the uniform density.

    pm is a dense PeriodMap or a matrix-free PeriodOperator: each
    iteration applies one period.  The eigenvector is sign-fixed so its
    max-magnitude entry is positive; the Rayleigh quotient supplies the
    eigenvalue estimate.  The result is checked against Krein-Rutman:
    the principal eigenfunction of a period map is sign-definite, so an
    eigenvector with entries of both signs is a spurious (stiff) grid
    mode.  The error names the stiffness ratio of a PeriodOperator.
    """
    max_iter = 20000
    n = pm.n
    v = np.full(n, 1.0 / n)
    v /= np.linalg.norm(v)
    r = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = pm.apply(v)
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
    spec = SpectralResult(r=r, mu=-math.log(r) / pm.T, eigvec=v, iterations=it,
                          residual=residual)
    if spec.min_over_max < -SIGN_SLACK:
        raise SignIndefinite(spec.min_over_max, getattr(pm, "stiffness_ratio", None))
    return spec


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
        v = pm.apply(v)
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
    op = PeriodOperator(grid, coeffs, bc, T, dt, form="nondivergence")
    return power_iteration(op, tol=1e-12).mu
