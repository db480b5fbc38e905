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

import numpy as np

from .errors import (NonFiniteState, NonPositiveRadius, NotConverged, QuadratureOverflow,
                     SignIndefinite)
from .fpe_grid import (BLOCK_ENTRIES, BoundaryCondition, FpCoefficients, Grid1D, Propagator,
                       step_count)

# a principal eigenvector entry below -SIGN_SLACK * (largest entry) is a
# sign change, not roundoff or power-iteration error
SIGN_SLACK = 1e-8
# Arnoldi steps of power_iteration before a restart from the Ritz vector; a
# stiff period map (n = 100, dt = T/64, absorbing walls) needs 55
ARNOLDI_MAX = 64
MAX_APPLIES = 20000     # periods power_iteration applies before NotConverged


class PeriodMap:
    def __init__(self, K: np.ndarray):
        self.K = K


class SpectralResult:
    def __init__(self, r: float, log_r: float, mu: float, eigvec: np.ndarray,
                 iterations: int, residual: float):
        self.r = r
        self.log_r = log_r      # log r, finite where r leaves the double range
        self.mu, self.eigvec, self.iterations, self.residual = mu, eigvec, iterations, residual

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
    return PeriodMap(K=_rescaled(op.apply(np.eye(grid.n_cells)), op.log_scale))


def arnoldi(apply, v: np.ndarray, steps: int):
    """The Arnoldi process from v, ||v|| = 1, by modified Gram-Schmidt (Saad 2011, ch. 6).

    apply maps a vector like v to one like it.  After the k-th of at most
    steps products it yields (basis, H), H the (k+1) x k Hessenberg
    matrix of apply(V_k) = V_{k+1} H and basis V's columns, k + 1 of them;
    only k after a breakdown (H[k, k-1] = 0, an invariant subspace), which
    ends the run.  basis grows in place, so read it before the next step.
    NonFiniteState if a product has no finite norm.
    """
    basis, H = [v], np.zeros((1, 0))
    for k in range(steps):
        w = apply(basis[k])
        H = np.pad(H, ((0, 1), (0, 1)))
        for i, q in enumerate(basis):
            H[i, k] = q @ w
            w -= H[i, k] * q
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[k + 1, k]):
            raise NonFiniteState(f"Krylov vector {k + 1} has no finite norm: the operator "
                                 "takes a unit vector out of the double range")
        if H[k + 1, k] != 0.0:
            basis.append(w / H[k + 1, k])
        yield basis, H
        if H[k + 1, k] == 0.0:
            return


def power_iteration(op: PeriodOperator, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenpair of U(T, 0) by Arnoldi from the uniform density.

    Each Arnoldi step applies op, one period.  After step k,
    (theta, y = V_k s) is the dominant Ritz pair of the k x k Hessenberg
    matrix, and the Arnoldi relation gives max|apply(y) - theta y| =
    |h_{k+1,k} s_k| max|v_{k+1}| with no further apply.  It stops when that
    is <= tol |theta|, and after ARNOLDI_MAX steps restarts from y.  A
    converged theta that is not real or not positive raises
    NonPositiveRadius; an unconverged one does not stop the solve.  It
    reports r = theta exp(log_scale), log_r = log theta + log_scale,
    mu = -log_r/T and iterations, the periods applied.  The eigenvector is
    sign-fixed so its max-magnitude entry is positive.  The result is
    checked against Krein-Rutman: the principal eigenfunction of a period
    map is sign-definite, so an eigenvector with entries of both signs is a
    spurious (stiff) grid mode.  The error names op's stiffness ratio.
    """
    it, converged = 0, False
    v = np.full(op.n, 1.0 / op.n)
    while not converged:
        if it == MAX_APPLIES:
            raise NotConverged(it, residual)
        steps = min(ARNOLDI_MAX, MAX_APPLIES - it)
        for basis, H in arnoldi(op.apply, v / np.linalg.norm(v), steps):
            it, k = it + 1, H.shape[1]
            thetas, S = np.linalg.eig(H[:k, :k])
            j = int(np.argmax(np.abs(thetas)))
            theta, s = thetas[j], S[:, j]
            tail = np.max(np.abs(basis[k])) if len(basis) > k else 0.0
            residual = float(abs(H[k, k - 1] * s[k - 1]) * tail)
            converged = residual <= tol * abs(theta)
            if converged:
                break
        # y for a real theta; for a complex pair a real start in its span
        v = (np.stack(basis[:k], axis=1) @ s).real
    if theta.imag != 0.0:
        with np.errstate(over="ignore"):
            z = theta * np.exp(op.log_scale)
        raise NonPositiveRadius(f"the dominant eigenvalues {z.real:.6g} +- {abs(z.imag):.6g}i "
                                "of the period map are not real")
    r, v = float(theta.real), v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if r <= 0:
        raise NonPositiveRadius(f"computed spectral radius {r!r} is not positive")
    log_r = math.log(r) + op.log_scale
    spec = SpectralResult(r=float(_rescaled(r, op.log_scale)), log_r=log_r, mu=-log_r / op.T,
                          eigvec=v, iterations=it, residual=residual)
    if spec.min_over_max < -SIGN_SLACK:
        raise SignIndefinite(spec.min_over_max, op.stiffness_ratio)
    return spec
