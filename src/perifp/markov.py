"""Distributional periodicity of discrete-time, discrete-state systems.

A particle system with one-step transition matrix P and initial
distribution x0 is N-periodic (in distribution) when P^N x0 = x0, and
strongly N-periodic when P^N is the identity.  Matrices are stored
column-stochastic so that P @ x maps distributions to distributions;
row-stochastic input can be transposed on load.

Strong periodicity is read off the structure of P.  If P^N = I, P^(N-1)
is a nonnegative inverse of P, so P is a permutation matrix Pi (Berman &
Plemmons 1994).  With sigma(j) = argmax_i P[i, j] and dist = ||P - Pi||_1,
P^N counts as I exactly when sigma is a bijection whose order divides N
and N * dist <= tol; as ||P^N - Pi^N||_1 <= N * dist by telescoping, tol
then bounds ||P^N - I||_1 >= ||P^N - I||_max.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import DimensionMismatch

DEFAULT_TOL = 1e-9
_STOCHASTIC_TOL = 1e-12


class TransitionMatrix:
    def __init__(self, entries: np.ndarray):
        self.entries = P = np.asarray(entries, dtype=float)    # (m, m), column-stochastic
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionMismatch(f"transition matrix must be square, got {P.shape}")
        if not np.all((P >= -_STOCHASTIC_TOL) & (P <= 1 + _STOCHASTIC_TOL)):
            raise ValueError("transition probabilities must lie in [0, 1]")
        colsums = P.sum(axis=0)
        if not np.all(np.abs(colsums - 1.0) <= _STOCHASTIC_TOL):
            raise ValueError(f"columns must sum to 1 (max deviation {np.max(np.abs(colsums - 1)):.3e})")

    @classmethod
    def from_array(cls, arr, row_stochastic: bool = False) -> "TransitionMatrix":
        P = np.asarray(arr, dtype=float)
        return cls(P.T.copy() if row_stochastic else P)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


class DistributionVector:
    def __init__(self, probs: np.ndarray):
        self.probs = x = np.asarray(probs, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch("distribution must be a vector")
        if not np.all(x >= -_STOCHASTIC_TOL):
            raise ValueError("probabilities must be nonnegative")
        if not abs(x.sum() - 1.0) <= _STOCHASTIC_TOL:
            raise ValueError(f"probabilities must sum to 1, got {float(x.sum())!r}")


class PeriodReport:
    def __init__(self, period: int | None, residuals: np.ndarray, strong: bool,
                 tol: float = DEFAULT_TOL):
        self.period = period
        self.residuals = residuals  # residuals[k-1] = ||P^k x0 - x0||_inf, k = 1..N_max
        self.strong, self.tol = strong, tol


def detect_period(P: TransitionMatrix, x0: DistributionVector,
                  N_max: int = 64, tol: float = DEFAULT_TOL) -> PeriodReport:
    """Smallest N <= N_max with ||P^N x0 - x0||_inf <= tol, scanning all steps."""
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if P.m != x0.probs.shape[0]:
        raise DimensionMismatch(f"matrix is {P.m}x{P.m} but vector has length {x0.probs.shape[0]}")
    residuals = np.empty(N_max)
    x = x0.probs
    period = None
    for k in range(1, N_max + 1):
        x = P.entries @ x
        residuals[k - 1] = np.max(np.abs(x - x0.probs))
        if period is None and residuals[k - 1] <= tol:
            period = k
    # the rule holds at the weak period N only if N is the strong period s,
    # as s | N and N * dist <= tol bound the residual at s by tol, so N <= s
    strong = period is not None and detect_strong_period(P, period, tol) == period
    return PeriodReport(period=period, residuals=residuals, strong=strong, tol=tol)


def detect_strong_period(P: TransitionMatrix, N_max: int = 64,
                         tol: float = DEFAULT_TOL) -> int | None:
    """Smallest N <= N_max at which P^N counts as I (the module's rule), or None."""
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    sigma, cols = np.argmax(P.entries, axis=0), np.arange(P.m)
    if np.bincount(sigma, minlength=P.m).max() != 1:    # sigma is not a bijection
        return None
    off = np.abs(P.entries)
    off[sigma, cols] = np.abs(1.0 - P.entries[sigma, cols])
    dist = float(np.max(off.sum(axis=0)))
    order = permutation_order(sigma)
    return order if order <= N_max and order * dist <= tol else None


def permutation_order(perm) -> int:
    """lcm of cycle lengths of a permutation given as an index array."""
    seen = np.zeros(len(perm), dtype=bool)
    order = 1
    for start in range(len(perm)):
        length, j = 0, start
        while not seen[j]:
            seen[j], j, length = True, perm[j], length + 1
        order = lcm(order, max(length, 1))
    return order

