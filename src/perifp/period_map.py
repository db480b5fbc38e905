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

from .errors import NonPositiveRadius, NotConverged, QuadratureOverflow, SignIndefinite
from .fpe_grid import (BLOCK_ENTRIES, BoundaryCondition, FpCoefficients, Grid1D, Propagator,
                       step_count)

# a principal eigenvector entry below -SIGN_SLACK * (largest entry) is a
# sign change, not roundoff or power-iteration error
SIGN_SLACK = 1e-8


@dataclass(frozen=True)
class PeriodMap:
    K: np.ndarray
    T: float
    log_scale = 0.0     # apply is U(T, 0) itself

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def apply(self, V: np.ndarray) -> np.ndarray:
        return self.K @ V


@dataclass(frozen=True)
class SpectralResult:
    r: float
    log_r: float        # log r, finite where r leaves the double range
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
    In the non-divergence form its shift is c = -m, m_k the spatial mean of
    a0 at phase k: U(T, 0) = exp(log_scale) apply with log_scale = -dt sum m_k
    (midpoint rule), a factor kept out of the march, where it could overflow.
    """

    def __init__(self, grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                 T: float, dt: float, form: str = "divergence"):
        m = 0.0
        if form == "nondivergence" and coeffs.a0 is not None:
            times = (np.arange(step_count(T, dt)) + 0.5) * dt
            size = max(1, BLOCK_ENTRIES // grid.n_cells)
            m = np.concatenate([coeffs.a0(t=t[:, None], x=grid.centers).mean(axis=1)
                                for t in np.split(times, range(size, len(times), size))])
        self._prop = Propagator(grid, coeffs, bc, T, dt, form, c=-m)
        self.log_scale = -dt * float(np.sum(m))
        self.T, self.n, self.stiffness_ratio = T, grid.n_cells, self._prop.stiffness_ratio

    def apply(self, V: np.ndarray) -> np.ndarray:
        return self._prop.march(V, self._prop.n_phases)[0]


def _rescaled(x, log_scale: float):
    """x exp(log_scale); QuadratureOverflow if that is above the double range."""
    with np.errstate(over="ignore"):
        x = x * np.exp(log_scale)
    if not np.all(np.isfinite(x)):
        raise QuadratureOverflow(f"the period factor exp({log_scale:.6g}) is out of range")
    return x


def build_period_map(grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                     T: float, dt: float, form: str = "divergence") -> PeriodMap:
    """K = U(T,0) by evolving the n unit cell densities over one period.

    The columns march the operators of PeriodOperator, Rannacher start-up
    included, and K is their end state times exp(log_scale), the factor of
    the a0 means, so a constant c added to a0 scales K by e^{-c T}.
    """
    op = PeriodOperator(grid, coeffs, bc, T, dt, form)
    return PeriodMap(K=_rescaled(op.apply(np.eye(grid.n_cells)), op.log_scale), T=T)


def power_iteration(pm, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenpair by power iteration from the uniform density.

    pm is a dense PeriodMap or a matrix-free PeriodOperator: each
    iteration applies one period.  It stops at max|apply(v) - r v| <= tol |r|,
    r the Rayleigh quotient, and reports r exp(log_scale), log_r = log r +
    log_scale and mu = -log_r/T.  The eigenvector is sign-fixed so its
    max-magnitude entry is positive.  The result is checked against Krein-Rutman: the principal
    eigenfunction of a period map is sign-definite, so an eigenvector with
    entries of both signs is a spurious (stiff) grid mode.  The error names
    the stiffness ratio of a PeriodOperator.
    """
    max_iter = 20000
    n = pm.n
    v = np.full(n, 1.0 / n)
    v /= np.linalg.norm(v)
    for it in range(1, max_iter + 1):
        w = pm.apply(v)
        r = float(v @ w)
        residual = float(np.max(np.abs(w - r * v)))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise NonPositiveRadius("period map annihilated the start vector")
        v = w / norm
        if residual <= tol * abs(r):
            break
    else:
        raise NotConverged(max_iter, residual)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if r <= 0:
        raise NonPositiveRadius(f"computed spectral radius {r!r} is not positive")
    log_r = math.log(r) + pm.log_scale
    spec = SpectralResult(r=float(_rescaled(r, pm.log_scale)), log_r=log_r, mu=-log_r / pm.T,
                          eigvec=v, iterations=it, residual=residual)
    if spec.min_over_max < -SIGN_SLACK:
        raise SignIndefinite(spec.min_over_max, getattr(pm, "stiffness_ratio", None))
    return spec

