"""Time-periodic semilinear problems by monotone upper/lower iteration.

Problem: d_t u + A(t) u = f(t, x, u) with T-periodic data, where A(t)
is the (non-divergence or divergence) elliptic part assembled by
fpe_grid, so the marching form is du/dt = L(t) u + f.

The constructive scheme is the classical c-shift iteration: given an
iterate u^k, solve the linear periodic problem

    d_t v + (A(t) + c) v = f(t, x, u^k) + c u^k

with c >= sup |df/du|.  Starting from an upper solution the iterates
decrease, from a lower solution they increase, and both limits squeeze
the periodic solution; the limit gap certifies uniqueness empirically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .coeff_dsl import CoefficientField
from .errors import (MonotonicityViolation, NotConverged, SingularSystem)
from .fpe_grid import (BoundaryCondition, DensityField, FpCoefficients, Grid1D,
                       Propagator, assemble_generator, step_count)
from .period_map import power_iteration

SPR_SINGULAR_MARGIN = 1e-8
MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class SemilinearProblem:
    coeffs: FpCoefficients          # elliptic part incl. optional a0
    f: CoefficientField             # source f(t, x, u)
    bc: BoundaryCondition
    T: float
    grid: Grid1D
    form: str = "nondivergence"


@dataclass(frozen=True)
class OrderedPair:
    lower: DensityField
    upper: DensityField

    def __post_init__(self):
        if np.any(self.lower.values > self.upper.values):
            raise ValueError("need lower <= upper pointwise")


@dataclass
class PeriodicLinearSolver:
    """Solver for d_t v + (A(t) + c) v = g(t, x), v(0) = v(T).

    Precomputes the per-step Crank-Nicolson operators and the one-period
    homogeneous map K_c, then solves (I - K_c) v0 = w where w is the
    one-period evolution of zero data under the source.
    """

    grid: Grid1D
    coeffs: FpCoefficients
    bc: BoundaryCondition
    T: float
    dt: float
    c: float = 0.0
    form: str = "nondivergence"

    def __post_init__(self):
        self.n_steps = step_count(self.T, self.dt)
        self._prop = Propagator(self.grid, self.coeffs, self.bc, self.dt, self.form,
                                c=self.c)
        self._period = [self._prop.operators(0.0, 0, self.n_steps)]
        n = self.grid.n_cells
        self.K = self._prop.march(np.eye(n), self._period)[0]
        spec = power_iteration(self.K, tol=1e-12, T=self.T)
        self.spr = spec.r
        if self.spr >= 1.0 - SPR_SINGULAR_MARGIN:
            raise SingularSystem(
                f"homogeneous period map has spr {self.spr:.8f} >= 1; "
                "periodic problem not uniquely solvable")
        self._lu = lu_factor(np.eye(n) - self.K)

    def solve(self, source: np.ndarray):
        """source: (n_steps, n) half-step values of g, or (n_steps, n, m) for m
        problems at once.  Returns (u0, trajectory).

        trajectory[0] = u0 and trajectory[-1] is the recomputed end state
        (periodicity residual is ||trajectory[-1] - u0||_inf, bounded by
        the linear-solve accuracy).
        """
        g = source.__getitem__
        w, _ = self._prop.march(np.zeros(source.shape[1:]), self._period, g)
        u0 = lu_solve(self._lu, w)
        _, states = self._prop.march(u0, self._period, g,
                                     record=range(self.n_steps + 1))
        return u0, np.stack(list(states.values()))


def poincare_solve(grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                   T: float, dt: float, source, c: float = 0.0,
                   form: str = "nondivergence"):
    """Solve the linear periodic problem d_t v + (A(t) + c) v = g.

    source is either an (n_steps, n) array of half-step values or a
    callable g(t, x) evaluated at the half steps.  Returns
    (u0, trajectory, periodicity_residual).
    """
    solver = PeriodicLinearSolver(grid, coeffs, bc, T, dt, c=c, form=form)
    n_steps = solver.n_steps
    if callable(source):
        xs = grid.centers
        source = np.stack([np.broadcast_to(
            np.asarray(source((k + 0.5) * dt, xs), dtype=float), xs.shape)
            for k in range(n_steps)])
    else:
        source = np.asarray(source, dtype=float)
        if source.shape != (n_steps, grid.n_cells):
            raise ValueError(f"source must be ({n_steps}, {grid.n_cells})")
    u0, traj = solver.solve(source)
    residual = float(np.max(np.abs(traj[-1] - traj[0])))
    return u0, traj, residual


def estimate_c(problem: SemilinearProblem, u_min: float, u_max: float,
               margin: float = 1.5, n_t: int = 32, n_u: int = 32) -> float:
    """sup |df/du| by central differences on a (t, x, u) sample lattice."""
    ts = np.linspace(0.0, problem.T, n_t, endpoint=False)[:, None, None]
    us = np.linspace(u_min, u_max, n_u)[:, None]
    xs = problem.grid.centers
    h = max(1e-6, 1e-6 * (abs(u_max) + abs(u_min)))
    fp = problem.f(t=ts, x=xs, u=us + h)
    fm = problem.f(t=ts, x=xs, u=us - h)
    return margin * (float(np.max(np.abs(fp - fm))) / (2 * h))


def _source_from_trajectory(problem: SemilinearProblem, traj: np.ndarray,
                            c: float, dt: float) -> np.ndarray:
    """g[k] = f(t_half, x, u_half) + c u_half with u_half = (u_k + u_{k+1})/2.

    traj is (n_steps + 1, n), or (n_steps + 1, n, m) for m trajectories;
    f is evaluated in one broadcast call over the whole (t, x, column) block.
    """
    u_half = (traj[:-1] + traj[1:]) / 2
    columns = (1,) * (traj.ndim - 2)
    t_half = ((np.arange(len(u_half)) + 0.5) * dt).reshape((-1, 1) + columns)
    xs = problem.grid.centers.reshape((-1,) + columns)
    return problem.f(t=t_half, x=xs, u=u_half) + c * u_half


@dataclass
class MonotoneResult:
    solution0: DensityField          # periodic solution profile at t = 0
    trajectory: np.ndarray           # (n_steps + 1, n)
    gap: float                       # sup |upper limit - lower limit|
    iterations: int
    deltas_upper: list
    deltas_lower: list
    periodicity_residual: float
    c: float


def monotone_iterate(problem: SemilinearProblem, pair: OrderedPair, dt: float,
                     c: Optional[float] = None, tol: float = 1e-8,
                     max_iter: int = 500) -> MonotoneResult:
    """Monotone iteration between ordered lower and upper solutions."""
    lo0, up0 = pair.lower.values, pair.upper.values
    if c is None:
        c = estimate_c(problem, float(lo0.min()), float(up0.max()))
    if c < 0:
        raise ValueError("c must be nonnegative")
    if problem.bc.kind == "absorbing":
        _warn_boundary_compatibility(problem)
    solver = PeriodicLinearSolver(problem.grid, problem.coeffs, problem.bc,
                                  problem.T, dt, c=c, form=problem.form)
    n_steps = solver.n_steps

    # column 0 marches the upper iterates, column 1 the lower ones
    traj = np.tile(np.stack([up0, lo0], axis=1), (n_steps + 1, 1, 1))
    deltas_up, deltas_lo = [], []
    for it in range(1, max_iter + 1):
        new = solver.solve(_source_from_trajectory(problem, traj, c, dt))[1]
        new_up, new_lo = new[..., 0], new[..., 1]
        if it > 1:
            # after the first correction the sequences must be monotone
            if np.any(new_up > traj[..., 0] + MONOTONE_SLACK):
                raise MonotonicityViolation(
                    "upper iterates increased; c is too small")
            if np.any(new_lo < traj[..., 1] - MONOTONE_SLACK):
                raise MonotonicityViolation(
                    "lower iterates decreased; c is too small")
        if np.any(new_lo > new_up + MONOTONE_SLACK):
            raise MonotonicityViolation("iterates crossed; c is too small")
        d_up, d_lo = np.max(np.abs(new - traj), axis=(0, 1)).tolist()
        deltas_up.append(d_up)
        deltas_lo.append(d_lo)
        traj = new
        gap = float(np.max(np.abs(new_up - new_lo)))
        # the limits coincide for a unique solution, so both the step
        # sizes and the two-sided gap must fall below tol
        if max(d_up, d_lo) <= tol and gap <= tol:
            break
    else:
        raise NotConverged(max_iter, max(deltas_up[-1], deltas_lo[-1]))

    traj_up = np.ascontiguousarray(traj[..., 0])
    residual = float(np.max(np.abs(traj_up[-1] - traj_up[0])))
    return MonotoneResult(
        solution0=DensityField(problem.grid, traj_up[0]),
        trajectory=traj_up, gap=gap, iterations=it,
        deltas_upper=deltas_up, deltas_lower=deltas_lo,
        periodicity_residual=residual, c=c)


def _warn_boundary_compatibility(problem: SemilinearProblem):
    # Dirichlet case needs f(t, x, 0) = 0 on the boundary; only warn,
    # since no remedy is prescribed when it fails.
    ts = np.linspace(0.0, problem.T, 8, endpoint=False)
    for xb in (problem.grid.x_left, problem.grid.x_right):
        worst = float(np.max(np.abs(problem.f(t=ts, x=xb, u=0.0))))
        if worst > 1e-9:
            warnings.warn(
                f"f(t, {xb}, 0) != 0 on the boundary (max {worst:.2e}); "
                "Dirichlet compatibility is violated", stacklevel=3)
            break


def verify_upper_lower(candidate, problem: SemilinearProblem, kind: str,
                       dt: float) -> dict:
    """Slack report for the upper/lower-solution inequalities.

    candidate: DensityField (held constant in time) or an (n_steps+1, n)
    trajectory over one period.  For an upper solution all three slacks
    (interior, boundary, time endpoint) must be nonnegative; lower
    solutions use the reversed inequalities, reported with flipped sign
    so nonnegative slack always certifies.
    """
    if kind not in ("upper", "lower"):
        raise ValueError("kind must be 'upper' or 'lower'")
    sign = 1.0 if kind == "upper" else -1.0
    if isinstance(candidate, DensityField):
        n_steps = step_count(problem.T, dt)
        traj = np.tile(candidate.values, (n_steps + 1, 1))
    else:
        traj = np.asarray(candidate, dtype=float)
        n_steps = traj.shape[0] - 1
        dt = problem.T / n_steps

    L = assemble_generator(problem.grid, problem.coeffs, (np.arange(n_steps) + 0.5) * dt,
                           problem.bc, problem.form)
    # residual of d_t u + A u - f, with A u = -L u
    resid = (np.diff(traj, axis=0) / dt - L.matvec((traj[:-1] + traj[1:]) / 2)
             - _source_from_trajectory(problem, traj, 0.0, dt))
    interior = float(np.min(sign * resid))

    boundary = np.inf
    dx = problem.grid.dx
    for k in range(n_steps + 1):
        u = traj[k]
        if problem.bc.kind == "absorbing":
            wall = [1.5 * u[0] - 0.5 * u[1], 1.5 * u[-1] - 0.5 * u[-2]]
        else:
            # B u = d_nu u + b0 u, one-sided differences toward the wall
            left = -(u[1] - u[0]) / dx + problem.bc.b0_left * (1.5 * u[0] - 0.5 * u[1])
            right = (u[-1] - u[-2]) / dx + problem.bc.b0_right * (1.5 * u[-1] - 0.5 * u[-2])
            wall = [left, right]
        boundary = min(boundary, float(min(sign * w for w in wall)))

    endpoint = float(np.min(sign * (traj[0] - traj[-1])))
    return {"interior_slack": interior, "boundary_slack": boundary,
            "endpoint_slack": endpoint,
            "certified": min(interior, boundary, endpoint) >= 0.0}
