"""Time-periodic semilinear problems by monotone upper/lower iteration.

Problem: d_t u + A(t) u = f(t, x, u) with T-periodic data, A(t) the
(non-divergence or divergence) elliptic part assembled by fpe_grid, so
the marching form is du/dt = L(t) u + f.  Given an iterate u^k, the
shifted iteration solves the linear periodic problem

    d_t v + (A(t) + q) v = f(t, x, u^k) + q u^k

with q >= -df/du between the lower and the upper iterate, so that
f + q u is nondecreasing there.  From an upper solution the iterates
decrease, from a lower one they increase, and both limits squeeze the
periodic solution; the limit gap certifies uniqueness empirically.  A
given scalar q = c keeps one shift throughout; the default shift is a
field q(t, x) read off the current bracket, which shrinks with it toward
the Newton slope -df/du(u*): generalized quasilinearization
(Lakshmikantham & Vatsala 1998).
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

import numpy as np

from .coeff_dsl import CoefficientField
from .errors import MonotonicityViolation, NotConverged, SingularSystem
from .fpe_grid import (BLOCK_ENTRIES, BoundaryCondition, DensityField, FpCoefficients,
                       Grid1D, Propagator, assemble_generator, step_count)
from .period_map import arnoldi

KRYLOV_TOL, KRYLOV_RCOND = 1e-13, 1e-8
MONOTONE_SLACK = 1e-10  # times max(1, max |iterate|): rounding grows with the iterates
U_LEVELS = 17          # u-levels between the iterates at which estimate_c samples -df/du


class SemilinearProblem:
    def __init__(self, coeffs: FpCoefficients, f: CoefficientField, bc: BoundaryCondition,
                 T: float, grid: Grid1D, form: str = "nondivergence"):
        self.coeffs = coeffs        # elliptic part incl. optional a0
        self.f = f                  # source f(t, x, u)
        self.bc, self.T, self.grid, self.form = bc, T, grid, form


class OrderedPair:
    def __init__(self, lower: DensityField, upper: DensityField):
        if np.any(lower.values > upper.values):
            raise ValueError("need lower <= upper pointwise")
        self.lower, self.upper = lower, upper


class PeriodicLinearSolver:
    """Solver for d_t v + (A(t) + c) v = g(t, x), v(0) = v(T).

    c is a scalar or an (N, n) field of half-step values.  Marches plain
    Crank-Nicolson from the periodic state, so with no start-up, its
    sources at the half steps.  gmres solves (I - K_c) v0 = w, K_c the
    homogeneous one-period map (one march per product, never formed) and
    w the one-period march of zero data under the source."""

    def __init__(self, grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition, T: float,
                 dt: float, c: Union[float, np.ndarray] = 0.0, form: str = "nondivergence"):
        self.grid, self.coeffs, self.bc, self.T, self.dt = grid, coeffs, bc, T, dt
        self.c, self.form = c, form
        self.__post_init__()

    def __post_init__(self):
        """Builds the march's Propagator, which factors every step once: the
        solver's one build, a method of its own so that it is timed apart."""
        self._prop = Propagator(self.grid, self.coeffs, self.bc, self.T, self.dt, self.form,
                                c=self.c, startup=False)
        self.n_steps = self._prop.n_phases

    def solve(self, source: np.ndarray, guess: Optional[np.ndarray] = None):
        """Solves from the state guess (zero if None) for source, the (n_steps, n)
        half-step values of g or (n_steps, n, m) for m problems.  Returns (u0,
        trajectory); the periodicity residual ||trajectory[-1] - u0|| is gmres's,
        KRYLOV_TOL of the larger of the guess's residual and end state."""
        march, g = self._prop.march, np.zeros(source.shape[1:]) if guess is None else guess
        end = march(g, self.n_steps, source)[0]     # w - (I - K_c) g = end - g
        u0 = g + gmres(lambda v: v - march(v, self.n_steps)[0], end - g,
                       scale=float(np.linalg.norm(end)))
        _, states = march(u0, self.n_steps, source, record=range(self.n_steps + 1))
        return u0, np.stack(list(states.values()))


def gmres(apply, b: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """x with ||apply(x) - b|| <= KRYLOV_TOL max(||b||, scale), apply linear on arrays
    shaped like b: GMRES from x = 0 (Saad & Schultz 1986), the least-squares step
    on period_map.arnoldi from b, with no restart.  The least squares drop the
    singular values below KRYLOV_RCOND of the largest (they would fit roundoff).
    SingularSystem if the residual stays above the bound after b.size products
    or a breakdown."""
    beta = float(np.linalg.norm(b))
    atol = KRYLOV_TOL * max(beta, scale)
    if beta <= atol:
        return np.zeros_like(b)
    rhs = np.r_[beta, np.zeros(b.size)]
    for basis, H in arnoldi(lambda q: np.ravel(apply(q.reshape(b.shape))), b.ravel() / beta,
                            b.size):
        k = H.shape[1]
        y = np.linalg.lstsq(H, rhs[:k + 1], rcond=KRYLOV_RCOND)[0]
        residual = float(np.linalg.norm(H @ y - rhs[:k + 1]))
        if residual <= atol:
            return (np.stack(basis[:k], axis=1) @ y).reshape(b.shape)
    raise SingularSystem(f"periodic problem not uniquely solvable: the Krylov residual "
                         f"stays at {residual / beta:.3g} of b after {k} products")


def estimate_c(problem: SemilinearProblem, lower, upper, dt: float) -> np.ndarray:
    """Shift field q = max(0, sup of -df/du over [lower, upper]) at the half steps.

    lower and upper are the bracket's half-step values, broadcastable to
    (N, n) with N = T/dt; returns the (N, n) field.  -df/du is taken by
    central differences on U_LEVELS evenly spaced u-levels from lower to
    upper, both ends included, stacked into calls of f on BLOCK_ENTRIES values.
    """
    n_steps = step_count(problem.T, dt)
    ts = ((np.arange(n_steps) + 0.5) * dt)[:, None]
    xs = problem.grid.centers
    h = max(1e-6, 1e-6 * (float(np.max(np.abs(lower))) + float(np.max(np.abs(upper)))))
    s = np.linspace(0.0, 1.0, U_LEVELS)[:, None, None]
    q = np.zeros((n_steps, problem.grid.n_cells))
    per_call = max(1, BLOCK_ENTRIES // q.size)     # u-levels per call of f
    for k in range(0, U_LEVELS, per_call):
        u = lower + s[k:k + per_call] * (upper - lower)
        slopes = (problem.f(t=ts, x=xs, u=u - h) - problem.f(t=ts, x=xs, u=u + h)) / (2 * h)
        np.maximum(q, np.max(slopes, axis=0), out=q)
    return q


def _source_from_trajectory(problem: SemilinearProblem, traj: np.ndarray,
                            c, dt: float) -> np.ndarray:
    """g[k] = f(t_half, x, u_half) + c u_half with u_half = (u_k + u_{k+1})/2.

    traj is (n_steps + 1, n), or (n_steps + 1, n, m) for m trajectories;
    c is a scalar or an (n_steps, n) field shared by the columns.  f is
    evaluated in one broadcast call over the whole (t, x, column) block.
    """
    u_half = (traj[:-1] + traj[1:]) / 2
    columns = (1,) * (traj.ndim - 2)
    t_half = ((np.arange(len(u_half)) + 0.5) * dt).reshape((-1, 1) + columns)
    xs = problem.grid.centers.reshape((-1,) + columns)
    c = np.reshape(c, np.shape(c) + columns)
    return problem.f(t=t_half, x=xs, u=u_half) + c * u_half


class MonotoneResult:
    def __init__(self, trajectory: np.ndarray, gap: float, iterations: int,
                 deltas_upper: list, deltas_lower: list, periodicity_residual: float,
                 c: float):
        self.trajectory = trajectory    # (n_steps + 1, n), the periodic solution
        self.gap = gap                  # sup |upper limit - lower limit|
        self.iterations, self.periodicity_residual = iterations, periodicity_residual
        self.deltas_upper, self.deltas_lower = deltas_upper, deltas_lower
        self.c = c                      # the largest shift of the last iteration


def monotone_iterate(problem: SemilinearProblem, pair: OrderedPair, dt: float,
                     c: Optional[float] = None, tol: float = 1e-8,
                     max_iter: int = 500) -> MonotoneResult:
    """Monotone iteration between ordered lower and upper solutions.

    A given c >= sup |df/du| over the bracket is the one scalar shift of
    every iteration, with one solver.  Otherwise every iteration shifts by
    estimate_c's field over the current bracket, with a solver for it.
    Each periodic solve starts from the previous iterate's periodic state.
    """
    if c is not None and c < 0:
        raise ValueError("c must be nonnegative")
    if problem.bc.kind == "absorbing":
        _warn_boundary_compatibility(problem)

    # column 0 marches the upper iterates, column 1 the lower ones
    traj = np.tile(np.stack([pair.upper.values, pair.lower.values], axis=1),
                   (step_count(problem.T, dt) + 1, 1, 1))
    deltas_up, deltas_lo = [], []
    for it in range(1, max_iter + 1):
        if it == 1 or c is None:
            u_half = (traj[:-1] + traj[1:]) / 2
            shift = c if c is not None else estimate_c(problem, u_half[..., 1], u_half[..., 0], dt)
            solver = PeriodicLinearSolver(problem.grid, problem.coeffs, problem.bc,
                                          problem.T, dt, c=shift, form=problem.form)
        new = solver.solve(_source_from_trajectory(problem, traj, shift, dt), traj[0])[1]
        new_up, new_lo = new[..., 0], new[..., 1]
        slack = MONOTONE_SLACK * max(1.0, float(np.max(np.abs(traj))))
        if it > 1:
            # after the first correction the sequences must be monotone
            if np.any(new_up > traj[..., 0] + slack):
                raise _violation(problem, pair, dt, "upper iterates increased")
            if np.any(new_lo < traj[..., 1] - slack):
                raise _violation(problem, pair, dt, "lower iterates decreased")
        if np.any(new_lo > new_up + slack):
            raise _violation(problem, pair, dt, "iterates crossed")
        d_up, d_lo = np.max(np.abs(new - traj), axis=(0, 1)).tolist()
        deltas_up.append(d_up)
        deltas_lo.append(d_lo)
        traj = new
        gap = float(np.max(np.abs(new_up - new_lo)))
        # the limits coincide for a unique solution, so both the step
        # sizes and the two-sided gap must fall below tol
        if max(d_up, d_lo) <= tol and gap <= tol:
            break
        if d_up == d_lo == 0.0:     # every later iteration would repeat this one
            raise SingularSystem(f"the iterates stand still {gap:.3e} apart: "
                                 "the periodic solution is not unique")
    else:
        raise NotConverged(max_iter, max(deltas_up[-1], deltas_lo[-1]))

    traj_up = np.ascontiguousarray(traj[..., 0])
    residual = float(np.max(np.abs(traj_up[-1] - traj_up[0])))
    return MonotoneResult(trajectory=traj_up, gap=gap, iterations=it, deltas_upper=deltas_up,
                          deltas_lower=deltas_lo, periodicity_residual=residual,
                          c=float(np.max(shift)))


def _violation(problem: SemilinearProblem, pair: OrderedPair, dt: float,
               what: str) -> MonotonicityViolation:
    """The error for a non-monotone step.  It names the first candidate of
    the pair that is no lower or upper solution, with its slack, and
    otherwise the shift."""
    for kind in ("lower", "upper"):
        report = verify_upper_lower(getattr(pair, kind), problem, kind, dt)
        if not report["certified"]:
            slack = min(report["interior_slack"], report["endpoint_slack"])
            return MonotonicityViolation(
                f"{what}: the {kind} candidate is not a {kind} solution "
                f"(slack {slack:.3g})")
    return MonotonicityViolation(f"{what}; c is too small")


def _warn_boundary_compatibility(problem: SemilinearProblem):
    """Warns, as no remedy is prescribed, unless f(t, x, 0) = 0 on absorbing walls."""
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
    trajectory over one period.  The interior slack is the residual of
    the solver's own CN step, whose generator carries each wall
    condition into its wall cell's row; the endpoint slack compares the
    trajectory's two ends.  For an upper solution both must be
    nonnegative; lower solutions use the reversed inequalities, reported
    with flipped sign so nonnegative slack always certifies.
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
    endpoint = float(np.min(sign * (traj[0] - traj[-1])))
    return {"interior_slack": interior, "endpoint_slack": endpoint,
            "certified": min(interior, endpoint) >= 0.0}
