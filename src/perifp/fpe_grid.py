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

from typing import Optional

import numpy as np

from ._kernels import dgttrf, dgttrs
from .coeff_dsl import CoefficientField
from .errors import (EllipticityViolation, NonFiniteState, QuadratureOverflow,
                     SolverFailure)

ELLIPTICITY_FLOOR = 1e-12
EXP_OVERFLOW = 700.0
FORMS = ("divergence", "nondivergence")
# entries of each stacked (steps, n) array of a marching block (64 KiB):
# larger blocks save little time but raise peak memory
BLOCK_ENTRIES = 8192


class Grid1D:
    def __init__(self, n_cells: int, x_left: float, x_right: float):
        if n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not x_right > x_left:
            raise ValueError("x_right must exceed x_left")
        self.n_cells, self.x_left, self.x_right = n_cells, x_left, x_right

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_cells + 1) * self.dx


class DensityField:
    def __init__(self, grid: Grid1D, values: np.ndarray, time_stamp: float = 0.0):
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n_cells,):
            raise ValueError(f"expected {grid.n_cells} values, got {v.shape}")
        self.grid, self.values, self.time_stamp = grid, v, time_stamp

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)


class BoundaryCondition:
    def __init__(self, kind: str, b0_left: float = 0.0, b0_right: float = 0.0):
        if kind not in ("absorbing", "reflecting", "robin"):
            raise ValueError(f"unknown boundary kind {kind!r}")
        self.kind, self.b0_left, self.b0_right = kind, b0_left, b0_right


def absorbing() -> BoundaryCondition:
    return BoundaryCondition("absorbing")


def reflecting() -> BoundaryCondition:
    return BoundaryCondition("reflecting")


def robin(b0_left: float, b0_right: float) -> BoundaryCondition:
    return BoundaryCondition("robin", b0_left, b0_right)


def neumann() -> BoundaryCondition:
    return BoundaryCondition("robin", 0.0, 0.0)


class FpCoefficients:
    def __init__(self, a_eff: CoefficientField, b: CoefficientField,
                 a0: Optional[CoefficientField] = None):
        self.a_eff = a_eff      # = sigma^2/2 in the divergence form
        self.b, self.a0 = b, a0


class Tridiag:
    """dp/dt = L p with L tridiagonal: lower[i] = L[i,i-1], upper[i] = L[i,i+1].

    Arrays of shape (..., n) stack generators; matvec takes p stacked alike.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self.lower = lower      # (n,), lower[0] unused
        self.diag = diag        # (n,)
        self.upper = upper      # (n,), upper[n-1] unused

    def matvec(self, p: np.ndarray) -> np.ndarray:
        out = self.diag * p
        out[..., 1:] += self.lower[..., 1:] * p[..., :-1]
        out[..., :-1] += self.upper[..., :-1] * p[..., 1:]
        return out


def _check_ellipticity(a_vals: np.ndarray, t, xs: np.ndarray):
    """Raise at the first time t (then the smallest value) with a_eff < floor."""
    rows = a_vals.reshape(-1, a_vals.shape[-1])
    k = int(np.argmax(rows.min(axis=1) < ELLIPTICITY_FLOOR))
    i = int(np.argmin(rows[k]))
    if rows[k, i] < ELLIPTICITY_FLOOR:
        raise EllipticityViolation(float(np.ravel(t)[k]), float(xs[i]), float(rows[k, i]))


def assemble_generator(grid: Grid1D, coeffs: FpCoefficients, t, bc: BoundaryCondition,
                       form: str = "divergence") -> Tridiag:
    """Spatial generator L(t) with dp/dt = L(t) p.

    For an array of times t each coefficient is evaluated in one broadcast
    call over the (t, x) block, giving one stacked generator per time.
    form='divergence' discretizes the Fokker-Planck flux form;
    form='nondivergence' discretizes u_t = a u_xx - b u_x - a0 u.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "divergence" and (bc.kind == "robin" or coeffs.a0 is not None):
        raise ValueError("robin boundaries and a0 are only supported in non-divergence form")
    dx, xc = grid.dx, grid.centers
    t = np.asarray(t, dtype=float)
    tt = t[..., None]
    a = coeffs.a_eff(t=tt, x=xc)
    _check_ellipticity(a, t, xc)
    if form == "divergence":
        return _assemble_divergence(grid, coeffs, tt, a, bc)

    b = coeffs.b(t=tt, x=xc)
    a0 = 0.0 if coeffs.a0 is None else coeffs.a0(t=tt, x=xc)

    lower = a / dx**2 + b / (2 * dx)
    upper = a / dx**2 - b / (2 * dx)
    diag = -2 * a / dx**2 - a0

    # ghost value u_g = gamma * u_adjacent folds into the diagonal
    if bc.kind == "absorbing":
        gamma_left = gamma_right = -1.0
    else:
        # Robin; reflecting is b0 = 0, gamma = 1: zero flux is a divergence-form notion
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
        # ghost antisymmetric in a p: (a p)_g = -(a p)_adjacent, density zero
        # at the wall, a_eff read only inside the domain; the drift term is
        # dropped, as (p_g + p)/2 = O(dx^2) there
        diag[..., 0] -= 2 * a[..., 0] / dx**2     # -F_0/dx with F_0 = 2 a_0 p_0/dx
        diag[..., -1] -= 2 * a[..., -1] / dx**2
    return Tridiag(lower, diag, upper)


def solve_shifted(factor: float, L: Tridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - factor*L) out = rhs for one generator L (LAPACK dgttrf, dgttrs)."""
    *lu, info = dgttrf(-factor * L.lower[1:], 1.0 - factor * L.diag, -factor * L.upper[:-1])
    if info:
        raise SolverFailure(f"singular tridiagonal system (LAPACK info {info})")
    return dgttrs(*lu, rhs)[0]


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
    """One implicit-Euler step; coefficients evaluated at its end."""
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
    """Marches dV/dt = (L(t) - c) V + g(t) by Crank-Nicolson in steps dt, V of shape (n,) or (n, m).

    The coefficients repeat with period T, so do the implicit operators
    M_k = I - (dt/2)(L - c_k) of the steps, c a scalar, one shift per
    phase or an (N, n) field with one per phase and cell: CN step k (from
    t = k dt) uses the phase k mod N, M at (k mod N + 0.5) dt with N = T/dt.
    The constructor assembles the N operators a block of about
    BLOCK_ENTRIES at a time and LU factors each once (LAPACK dgttrf) into
    phases; as the explicit operator is 2I - M, a step is one dgttrs
    back-substitution Y = M^-1 (V + (dt/2) g), V <- 2Y - V.  If no
    coefficient reads t and c is equal in every phase, the N operators are
    one, and phases holds its one factor.

    With startup, every march makes its first step two implicit-Euler half
    steps with phase 0, V <- M_0^-1 (V + (dt/2) g_0) twice (Rannacher
    start-up): CN maps a stiff grid mode z = dt*lambda -> -inf to
    (1+z/2)/(1-z/2) -> -1 each step, so it would outlive the physical modes
    and drive a density negative; the half steps damp it by (1-z/2)^-2.
    stiffness_ratio is dt max|L_ii - c| / 2 over phases.
    """

    def __init__(self, grid: Grid1D, coeffs: FpCoefficients, bc: BoundaryCondition,
                 T: float, dt: float, form: str = "divergence", c=0.0, startup: bool = True):
        self.n_phases = step_count(T, dt)
        # the factors repeat only if every coefficient repeats within T
        fields = [f for f in (coeffs.a_eff, coeffs.b, coeffs.a0) if f is not None]
        periods = [f.period_T for f in fields]
        if not all(p and abs(T / p - round(T / p)) <= 1e-9 * T / p for p in periods):
            raise ValueError(f"coefficient periods {periods!r} must divide T = {T!r}")
        self.grid, self.coeffs, self.bc, self.dt = grid, coeffs, bc, dt
        self.form, self.startup = form, startup
        times = (np.arange(self.n_phases) + 0.5) * dt
        c = np.asarray(c, dtype=float)
        c = c.reshape(c.shape + (1,) * (2 - c.ndim))
        shifts = np.broadcast_to(c, (self.n_phases, grid.n_cells))
        if not any("t" in f.reads for f in fields) and np.all(c == c[:1]):
            times, shifts = times[:1], shifts[:1]   # every phase has the same operator
        size = max(1, BLOCK_ENTRIES // grid.n_cells)
        self.phases = []
        self.stiffness_ratio = max(self._factor(times[k0:k0 + size], shifts[k0:k0 + size])
                                   for k0 in range(0, len(times), size))

    def _factor(self, times: np.ndarray, c: np.ndarray) -> float:
        """Append the LU factors of the operators at times, shifted by c (one
        row of cell values per time), to phases; returns their stiffness ratio."""
        L = assemble_generator(self.grid, self.coeffs, times, self.bc, self.form)
        theta = self.dt / 2
        diag = 1.0 - theta * (L.diag - c)
        ratio = float(np.max(np.abs(1.0 - diag)))
        for lower, d, upper in zip(-theta * L.lower[:, 1:], diag, -theta * L.upper[:, :-1]):
            *lu, info = dgttrf(lower, d, upper, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info:
                raise SolverFailure(f"singular tridiagonal system (LAPACK info {info})")
            self.phases.append(lu)
        return ratio

    def march(self, V, n_steps: int, sources=None, record=()):
        """Advance V by n_steps steps from t = 0, the first one the start-up if startup.

        sources, if given, stacks the source g of each step k, sources[k]
        shaped like V; the start-up applies sources[0] over each dt/2.
        Returns (V, states), states mapping each k in record to the state
        after k steps (0 is the initial state); NonFiniteState if V is not finite.
        """
        shape = np.shape(V)
        V = np.asfortranarray(np.reshape(V, (shape[0], -1)), dtype=float)
        states = {0: V.reshape(shape)} if 0 in record else {}
        if sources is not None:     # scaled by dt/2 once, each sources[k] column-major like V
            sources = (self.dt / 2) * np.reshape(sources, (-1,) + V.shape)
            sources = np.ascontiguousarray(sources.transpose(0, 2, 1)).transpose(0, 2, 1)
        # dgttrs copies V; it solves V + (dt/2) g, a new column-major array, in place
        fresh = sources is not None
        phases, n_phases = self.phases, len(self.phases)
        for k in range(n_steps):
            rhs = V if sources is None else V + sources[k]
            Y, _ = dgttrs(*phases[k % n_phases], rhs, overwrite_b=fresh)
            if k == 0 and self.startup:
                rhs = Y if sources is None else Y + sources[0]
                V, _ = dgttrs(*phases[0], rhs, overwrite_b=fresh)
            else:
                Y += Y
                Y -= V
                V = Y
            if k + 1 in record:
                states[k + 1] = V.reshape(shape)
        if not np.all(np.isfinite(V)):
            raise NonFiniteState(f"march state is not finite after {n_steps} steps")
        return V.reshape(shape), states


def solve_ivp(p0: DensityField, coeffs: FpCoefficients, bc: BoundaryCondition, T: float,
              t1: float, dt: float, form: str = "divergence", snapshot_times=None):
    """March p0 with T-periodic coefficients from t = 0 to t1 (Rannacher
    start-up, then Crank-Nicolson); returns (final DensityField, list of snapshots).

    Snapshots are emitted at the requested times, each a step boundary
    k dt in [0, t1]; any other time raises ValueError.
    """
    n_steps = step_count(t1, dt)
    snap_steps = set()
    for s in map(float, () if snapshot_times is None else snapshot_times):
        if not 0.0 <= s <= t1:
            raise ValueError(f"snapshot time {s!r} is outside [0, t1 = {t1!r}]")
        # step_count raises a ValueError naming a time that dt does not divide
        snap_steps.add(step_count(s, dt) if s > 0 else 0)
    prop = Propagator(p0.grid, coeffs, bc, T, dt, form)
    p, states = prop.march(p0.values, n_steps, record=snap_steps)
    snapshots = [DensityField(p0.grid, v, k * dt) for k, v in states.items()]
    return DensityField(p0.grid, p, n_steps * dt), snapshots


def _a_eff_dx(coeffs: FpCoefficients, t, xs: np.ndarray, dx: float) -> np.ndarray:
    """d(a_eff)/dx along xs by central differences, one-sided at the ends."""
    a = coeffs.a_eff(t=t, x=xs)
    da = np.empty_like(a)
    da[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2 * dx)
    da[..., 0] = (a[..., 1] - a[..., 0]) / dx
    da[..., -1] = (a[..., -1] - a[..., -2]) / dx
    return da


def stationary_closed_form(coeffs: FpCoefficients, grid: Grid1D) -> DensityField:
    """Stationary density q(x) = exp(int (b - a_x)/a dx) of the coefficients
    at t = 0, normalized to mass 1.

    Valid for time-independent coefficients or when the stationarity
    condition holds (see check_stationarity_condition).
    """
    xs = grid.centers
    a = coeffs.a_eff(t=0.0, x=xs)
    _check_ellipticity(a, 0.0, xs)
    b = coeffs.b(t=0.0, x=xs)
    integrand = (b - _a_eff_dx(coeffs, 0.0, xs, grid.dx)) / a
    if not np.all(np.isfinite(integrand)):
        raise QuadratureOverflow("(b - a_x)/a is not finite on the grid")
    # cumulative trapezoid from the first cell center; the constant offset
    # drops out in the normalization
    exponent = np.concatenate([[0.0],
                               np.cumsum((integrand[1:] + integrand[:-1]) / 2 * grid.dx)])
    exponent -= exponent.max()
    if exponent.min() < -EXP_OVERFLOW:
        raise QuadratureOverflow(f"exponent range {exponent.min():.1f} exceeds double range")
    q = np.exp(exponent)
    q /= q.sum() * grid.dx
    return DensityField(grid, q)


def check_stationarity_condition(coeffs: FpCoefficients, grid: Grid1D,
                                 times) -> dict:
    """Residual of the stationarity identity
    int (a (b_t - a_xt) - a_t (b - a_x)) / a^2 dx = 0 at sampled times.

    Time derivatives by central differences with step 1e-5; the spatial
    integral by the composite trapezoid rule over all n cell centers,
    dx * (f_0/2 + f_1 + ... + f_{n-2} + f_{n-1}/2), the two end values
    weighted 1/2.  QuadratureOverflow if a residual is not finite.
    """
    dt_fd = 1e-5
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
    if not np.all(np.isfinite(residuals)):
        raise QuadratureOverflow("stationarity residual is not finite at t = "
                                 f"{float(times[np.argmin(np.isfinite(residuals))])!r}")
    return {"times": times, "residuals": residuals,
            "max_abs_residual": float(np.max(np.abs(residuals)))}
