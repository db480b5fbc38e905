"""Conservative 1D finite-difference Fokker-Planck solver.

Divergence (flux) form:  p_t = d/dx [ (a_eff p)_x - b p ],  a_eff = sigma^2/2.
Non-divergence form:     u_t = a u_xx - b u_x - a0 u   (i.e. u_t + A(t)u = 0).

Cell-centered grid; fluxes live on faces.  Reflecting boundaries zero the
boundary face fluxes exactly, so the generator has zero column sums and
Crank-Nicolson conserves the discrete mass to roundoff.  Absorbing
boundaries use antisymmetric ghost cells (density zero at the wall),
which keeps the scheme second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .coeff_dsl import CoefficientField
from .errors import EllipticityViolation, QuadratureOverflow, SolverFailure

ELLIPTICITY_FLOOR = 1e-12
EXP_OVERFLOW = 700.0
FORMS = ("divergence", "nondivergence")
INTEGRATORS = ("cn", "ie")
# entries of each stacked (steps, n) array of a marching block (64 KiB):
# larger blocks save little time but raise peak memory
BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class Grid1D:
    n_cells: int
    x_left: float
    x_right: float

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not self.x_right > self.x_left:
            raise ValueError("x_right must exceed x_left")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class DensityField:
    grid: Grid1D
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(f"expected {self.grid.n_cells} values, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # 'absorbing' | 'reflecting' | 'robin'
    b0_left: float = 0.0
    b0_right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("absorbing", "reflecting", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


def absorbing() -> BoundaryCondition:
    return BoundaryCondition("absorbing")


def reflecting() -> BoundaryCondition:
    return BoundaryCondition("reflecting")


def robin(b0_left: float, b0_right: float) -> BoundaryCondition:
    return BoundaryCondition("robin", b0_left, b0_right)


def neumann() -> BoundaryCondition:
    return BoundaryCondition("robin", 0.0, 0.0)


@dataclass(frozen=True)
class FpCoefficients:
    a_eff: CoefficientField            # = sigma^2/2 in the divergence form
    b: CoefficientField
    a0: Optional[CoefficientField] = None


@dataclass
class Tridiag:
    """dp/dt = L p with L tridiagonal: lower[i] = L[i,i-1], upper[i] = L[i,i+1].

    Arrays of shape (..., n) stack generators; matvec takes p stacked alike.
    """

    lower: np.ndarray  # (n,), lower[0] unused
    diag: np.ndarray   # (n,)
    upper: np.ndarray  # (n,), upper[n-1] unused

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, p: np.ndarray) -> np.ndarray:
        out = self.diag * p
        out[..., 1:] += self.lower[..., 1:] * p[..., :-1]
        out[..., :-1] += self.upper[..., :-1] * p[..., 1:]
        return out

    def column_sums(self) -> np.ndarray:
        # off-diagonal gains first, diagonal last: the conservative
        # assembly stores diag[j] = -(upper[j-1] + lower[j+1]) rounded
        # once, so this grouping cancels exactly in floating point
        gains = np.zeros(self.n)
        gains[1:] += self.upper[:-1]
        gains[:-1] += self.lower[1:]
        return gains + self.diag

    def to_dense(self) -> np.ndarray:
        A = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        A[idx + 1, idx] = self.lower[1:]
        A[idx, idx + 1] = self.upper[:-1]
        return A


def _check_ellipticity(a_vals: np.ndarray, t, xs: np.ndarray):
    """Raise at the first time t (then the smallest value) with a_eff < floor."""
    rows = a_vals.reshape(-1, a_vals.shape[-1])
    k = int(np.argmax(rows.min(axis=1) < ELLIPTICITY_FLOOR))
    i = int(np.argmin(rows[k]))
    if rows[k, i] < ELLIPTICITY_FLOOR:
        raise EllipticityViolation(float(np.ravel(t)[k]), float(xs[i]), float(rows[k, i]))


def assemble_generator(grid: Grid1D, coeffs: FpCoefficients, t, bc: BoundaryCondition,
                       form: str = "divergence", a0_offset=0.0) -> Tridiag:
    """Spatial generator L(t) with dp/dt = L(t) p.

    For an array of times t each coefficient is evaluated in one broadcast
    call over the (t, x) block, giving one stacked generator per time.
    form='divergence' discretizes the Fokker-Planck flux form;
    form='nondivergence' discretizes u_t = a u_xx - b u_x - a0 u, with
    a0_offset (a scalar, or one value per time) subtracted from a0.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "divergence" and bc.kind == "robin":
        raise ValueError("robin boundaries are only supported in non-divergence form")
    dx, xc = grid.dx, grid.centers
    t = np.asarray(t, dtype=float)
    tt = t[..., None]
    a = coeffs.a_eff(t=tt, x=xc)
    _check_ellipticity(a, t, xc)
    if form == "divergence":
        return _assemble_divergence(grid, coeffs, tt, a, bc)

    b = coeffs.b(t=tt, x=xc)
    a0 = 0.0 if coeffs.a0 is None else coeffs.a0(t=tt, x=xc)
    a0 = a0 - np.asarray(a0_offset, dtype=float)[..., None]

    lower = a / dx**2 + b / (2 * dx)
    upper = a / dx**2 - b / (2 * dx)
    diag = -2 * a / dx**2 - a0

    # ghost value u_g = gamma * u_adjacent folds into the diagonal
    if bc.kind == "absorbing":
        gamma_left = gamma_right = -1.0
    elif bc.kind == "reflecting":
        # zero-flux has no meaning for the non-divergence operator
        gamma_left = gamma_right = 1.0
    else:
        gamma_left = (1.0 / dx - bc.b0_left / 2) / (1.0 / dx + bc.b0_left / 2)
        gamma_right = (1.0 / dx - bc.b0_right / 2) / (1.0 / dx + bc.b0_right / 2)
    diag[..., 0] += gamma_left * lower[..., 0]
    diag[..., -1] += gamma_right * upper[..., -1]
    lower[..., 0] = 0.0
    upper[..., -1] = 0.0
    return Tridiag(lower, diag, upper)


def _assemble_divergence(grid: Grid1D, coeffs: FpCoefficients, tt: np.ndarray,
                         a: np.ndarray, bc: BoundaryCondition) -> Tridiag:
    n, dx = grid.n_cells, grid.dx
    b_face = coeffs.b(t=tt, x=grid.faces)

    lower = np.zeros(a.shape)
    diag = np.zeros(a.shape)
    upper = np.zeros(a.shape)

    # interior face k (1..n-1) separates cells k-1 | k, flux
    # F_k = (a_k p_k - a_{k-1} p_{k-1})/dx - b_k (p_{k-1}+p_k)/2;
    # dp_i/dt = (F_{i+1} - F_i)/dx.  Assembled as per-column transfer
    # rates so the same float appears as a gain off the diagonal and a
    # loss on it, keeping column sums of the closed system exactly zero.
    bf = b_face[..., 1:n]
    up_gain = (a[..., 1:] / dx - bf / 2) / dx    # entry (k-1, k): left cell gains from p_k
    dn_gain = (a[..., :-1] / dx + bf / 2) / dx   # entry (k, k-1): right cell gains from p_{k-1}
    upper[..., :-1] = up_gain
    lower[..., 1:] = dn_gain
    diag[..., 1:] -= up_gain                     # loss of p_k through its left face
    diag[..., :-1] -= dn_gain                    # loss of p_{k-1} through its right face

    # reflecting: boundary fluxes exactly zero
    if bc.kind == "absorbing":
        # antisymmetric ghost: p_g = -p_adjacent, density zero at the wall;
        # the drift term vanishes there since (p_g + p)/2 = 0
        xc = grid.centers
        a_gl = coeffs.a_eff(t=tt, x=xc[0] - dx)[..., 0]
        a_gr = coeffs.a_eff(t=tt, x=xc[-1] + dx)[..., 0]
        diag[..., 0] -= (a[..., 0] + a_gl) / dx**2   # -F_0/dx with F_0 = (a_0+a_g) p_0/dx
        diag[..., -1] -= (a[..., -1] + a_gr) / dx**2
    return Tridiag(lower, diag, upper)


def solve_shifted(factor: float, L: Tridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - factor*L) out = rhs for one generator L (LAPACK dgtsv)."""
    _, _, _, out, info = dgtsv(-factor * L.lower[1:], 1.0 - factor * L.diag,
                               -factor * L.upper[:-1], rhs)
    if info:
        raise SolverFailure(f"singular tridiagonal system (LAPACK info {info})")
    return out


def step_cn(p: DensityField, coeffs: FpCoefficients, bc: BoundaryCondition,
            dt: float, form: str = "divergence", source=None) -> DensityField:
    """One Crank-Nicolson step; coefficients evaluated at the half step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    L = assemble_generator(p.grid, coeffs, p.time_stamp + dt / 2, bc, form)
    rhs = p.values + (dt / 2) * L.matvec(p.values)
    if source is not None:
        rhs = rhs + dt * source
    return DensityField(p.grid, solve_shifted(dt / 2, L, rhs), p.time_stamp + dt)


def step_ie(p: DensityField, coeffs: FpCoefficients, bc: BoundaryCondition,
            dt: float, form: str = "divergence", source=None) -> DensityField:
    """One implicit-Euler step (positivity-preserving M-matrix fallback)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    L = assemble_generator(p.grid, coeffs, p.time_stamp + dt, bc, form)
    rhs = p.values if source is None else p.values + dt * source
    return DensityField(p.grid, solve_shifted(dt, L, rhs), p.time_stamp + dt)


def step_count(span: float, dt: float) -> int:
    """Number of steps of size dt in span > 0; ValueError unless dt divides span."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"dt = {dt!r} must divide the time span {span!r}")
    return n_steps


class Propagator:
    """Marches dV/dt = (L(t) - c) V + g(t) in steps dt, V of shape (n,) or (n, m).

    Crank-Nicolson ('cn') evaluates L at each half step, implicit Euler
    ('ie') at each step's end.  Operators are assembled for a block of
    steps from one broadcast coefficient evaluation; each step solves by
    LAPACK dgtsv.  blocks() drops each block once marched, while a caller
    that marches one period many times keeps its operators() to reuse.
    With a0_mean_out, the spatial mean m(t) of a0 is pulled out of each
    step and m dt added to phase: the evolution is exp(-phase) times V.
    """

    def __init__(self, grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                 dt: float, form: str = "divergence", integrator: str = "cn",
                 c: float = 0.0, a0_mean_out: bool = False):
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.grid, self.coeffs, self.bc, self.dt = grid, coeffs, bc, dt
        self.form, self.c = form, c
        self.cn = integrator == "cn"
        self.a0_mean_out = a0_mean_out and coeffs.a0 is not None
        self.phase = 0.0

    def operators(self, t0: float, k0: int, k1: int):
        """Operators of steps k0..k1-1 of a march that starts at t0.

        Returns (explicit, implicit, phase): the stacked tridiagonals
        I + theta (L - c) (None for implicit Euler) and I - theta (L - c),
        and the steps' a0 means times dt.
        """
        times = t0 + (np.arange(k0, k1) + (0.5 if self.cn else 1.0)) * self.dt
        offset = 0.0
        if self.a0_mean_out:
            offset = self.coeffs.a0(t=times[:, None], x=self.grid.centers).mean(axis=1)
        L = assemble_generator(self.grid, self.coeffs, times, self.bc, self.form,
                               a0_offset=offset)
        theta = self.dt / 2 if self.cn else self.dt
        lower, diag, upper = theta * L.lower, theta * (L.diag - self.c), theta * L.upper
        explicit = Tridiag(lower, 1.0 + diag, upper) if self.cn else None
        implicit = Tridiag(-lower, 1.0 - diag, -upper)
        return explicit, implicit, float(np.sum(offset)) * self.dt

    def blocks(self, n_steps: int, t0: float = 0.0):
        """Operators of n_steps steps from t0, a block of about BLOCK_ENTRIES at a time."""
        size = max(1, BLOCK_ENTRIES // self.grid.n_cells)
        for k0 in range(0, n_steps, size):
            yield self.operators(t0, k0, min(k0 + size, n_steps))

    def march(self, V, blocks, sources=None, record=()):
        """Advance V through every step of blocks (operators(), in order).

        sources(k), if given, is the source g of step k, shaped like V.
        Returns (V, states), states mapping each k in record to the state
        after k steps (0 is the initial state).
        """
        V = np.asarray(V, dtype=float)
        shape = V.shape
        V = np.asfortranarray(V.reshape(shape[0], -1))
        states = {0: V.reshape(shape)} if 0 in record else {}
        k = 0
        for explicit, implicit, phase in blocks:
            self.phase += phase
            for j in range(implicit.diag.shape[0]):
                if explicit is None:
                    rhs = V.copy(order="F")
                else:
                    rhs = np.multiply(explicit.diag[j, :, None], V, order="F")
                    rhs[1:] += explicit.lower[j, 1:, None] * V[:-1]
                    rhs[:-1] += explicit.upper[j, :-1, None] * V[1:]
                if sources is not None:
                    rhs += self.dt * np.reshape(sources(k), rhs.shape)
                *_, V, info = dgtsv(implicit.lower[j, 1:], implicit.diag[j],
                                    implicit.upper[j, :-1], rhs, overwrite_b=True)
                if info:
                    raise SolverFailure(f"singular tridiagonal system (LAPACK info {info})")
                k += 1
                if k in record:
                    states[k] = V.reshape(shape)
        return V.reshape(shape), states


def solve_ivp(p0: DensityField, coeffs: FpCoefficients, bc: BoundaryCondition,
              t0: float, t1: float, dt: float, form: str = "divergence",
              integrator: str = "cn", snapshot_times=None):
    """March from t0 to t1; returns (final DensityField, list of snapshots).

    Snapshots are emitted at the requested times (matched to the nearest
    step boundary).
    """
    n_steps = step_count(t1 - t0, dt)
    snap_steps = set()
    if snapshot_times is not None:
        snap_steps = {int(round((s - t0) / dt)) for s in snapshot_times}
    prop = Propagator(p0.grid, coeffs, bc, dt, form, integrator)
    p, states = prop.march(p0.values, prop.blocks(n_steps, t0), record=snap_steps)
    snapshots = [DensityField(p0.grid, v, t0 + k * dt) for k, v in states.items()]
    return DensityField(p0.grid, p, t0 + n_steps * dt), snapshots


def _a_eff_dx(coeffs: FpCoefficients, t, xs: np.ndarray, dx: float) -> np.ndarray:
    """d(a_eff)/dx along xs by central differences, one-sided at the ends."""
    a = coeffs.a_eff(t=t, x=xs)
    da = np.empty_like(a)
    da[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2 * dx)
    da[..., 0] = (a[..., 1] - a[..., 0]) / dx
    da[..., -1] = (a[..., -1] - a[..., -2]) / dx
    return da


def stationary_closed_form(coeffs: FpCoefficients, grid: Grid1D,
                           t: float = 0.0) -> DensityField:
    """Stationary density q(x) = exp(int (b - a_x)/a dx), normalized to mass 1.

    Valid for time-independent coefficients or when the stationarity
    condition holds (see check_stationarity_condition).
    """
    xs = grid.centers
    a = coeffs.a_eff(t=t, x=xs)
    _check_ellipticity(a, t, xs)
    b = coeffs.b(t=t, x=xs)
    integrand = (b - _a_eff_dx(coeffs, t, xs, grid.dx)) / a
    # cumulative trapezoid from the first cell center; the constant offset
    # drops out in the normalization
    exponent = np.concatenate([[0.0],
                               np.cumsum((integrand[1:] + integrand[:-1]) / 2 * grid.dx)])
    exponent -= exponent.max()
    if exponent.min() < -EXP_OVERFLOW:
        raise QuadratureOverflow(f"exponent range {exponent.min():.1f} exceeds double range")
    q = np.exp(exponent)
    q /= q.sum() * grid.dx
    return DensityField(grid, q, time_stamp=t)


def check_stationarity_condition(coeffs: FpCoefficients, grid: Grid1D,
                                 times, dt_fd: float = 1e-5) -> dict:
    """Residual of the stationarity identity
    int (a (b_t - a_xt) - a_t (b - a_x)) / a^2 dx = 0 at sampled times.

    Time derivatives by central differences with step dt_fd; the spatial
    integral by the composite trapezoid rule over all n cell centers,
    dx * (f_0/2 + f_1 + ... + f_{n-2} + f_{n-1}/2), the two end values
    weighted 1/2.
    """
    xs, dx = grid.centers, grid.dx
    times = np.asarray(times, dtype=float)

    def fields(t):   # one row per time
        return (coeffs.a_eff(t=t[:, None], x=xs), coeffs.b(t=t[:, None], x=xs),
                _a_eff_dx(coeffs, t[:, None], xs, dx))

    a, b, ax = fields(times)
    _check_ellipticity(a, times, xs)
    ap, bp, axp = fields(times + dt_fd)
    am, bm, axm = fields(times - dt_fd)
    b_t = (bp - bm) / (2 * dt_fd)
    a_t = (ap - am) / (2 * dt_fd)
    a_xt = (axp - axm) / (2 * dt_fd)
    integrand = (a * (b_t - a_xt) - a_t * (b - ax)) / a**2
    residuals = dx * (integrand.sum(axis=1) - (integrand[:, 0] + integrand[:, -1]) / 2)
    return {"times": times, "residuals": residuals,
            "max_abs_residual": float(np.max(np.abs(residuals)))}
