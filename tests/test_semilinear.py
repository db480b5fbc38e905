"""Periodic semilinear problems: linear Poincare solves and monotone iteration."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from perifp import semilinear
from perifp.coeff_dsl import CoefficientField
from perifp.errors import MonotonicityViolation, NotConverged, SingularSystem
from perifp.fpe_grid import (DensityField, FpCoefficients, Grid1D, absorbing,
                             assemble_generator, neumann, robin, step_cn, step_count)
from perifp.semilinear import (OrderedPair, PeriodicLinearSolver,
                               SemilinearProblem, estimate_c, monotone_iterate,
                               verify_upper_lower)

from oracles import shooting_oracle, to_dense

T = 1.0
ONE = CoefficientField.from_string("1", T)
ZERO = CoefficientField.from_string("0", T)
HEAT = FpCoefficients(a_eff=ONE, b=ZERO)


def _const_field(grid, value):
    return DensityField(grid, np.full(grid.n_cells, float(value)))


# ---------------------------------------------------------------------------
# linear periodic solves

def test_poincare_zero_source_gives_zero():
    grid = Grid1D(40, 0.0, 1.0)
    solver = PeriodicLinearSolver(grid, HEAT, absorbing(), T, T / 32)
    traj = solver.solve(np.zeros((32, 40)))
    u0 = traj[0]
    resid = np.max(np.abs(traj[-1] - traj[0]))
    assert np.max(np.abs(u0)) < 1e-14
    assert np.max(np.abs(traj)) < 1e-14
    assert resid < 1e-14


def test_solve_is_exact_where_cn_stiff_modes_dominate():
    # at n = 40, dt = T/15 the largest eigenvalues of K_c are negative CN
    # stiff modes (about -0.908); the Krylov solve must still reach the
    # dense solve of (I - K_c) v0 = w
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T),
                        b=CoefficientField.from_string("0.5*cos(2*pi*t)", T))
    grid = Grid1D(40, 0.0, 1.0)
    solver = PeriodicLinearSolver(grid, co, absorbing(), T, T / 15, c=1.0)
    source = np.ones((15, 40))
    traj = solver.solve(source)
    u0 = traj[0]
    dense = _dense_periodic_cn(SemilinearProblem(co, ZERO, absorbing(), T, grid,
                                                 "nondivergence"), T / 15, 1.0)(source)
    assert np.max(np.abs(u0 - dense[0])) <= 1e-12 * np.max(np.abs(dense[0]))
    assert np.max(np.abs(traj[-1] - u0)) <= 1e-12 * np.max(np.abs(u0))


def test_poincare_static_elliptic_oracle():
    # time-independent g: the periodic solution solves -u'' + c u = g,
    # which a dense solve of the stationary system reproduces
    grid = Grid1D(80, 0.0, 1.0)
    c = 2.0
    g = np.sin(np.pi * grid.centers)
    solver = PeriodicLinearSolver(grid, HEAT, absorbing(), T, T / 64, c=c)
    traj = solver.solve(np.tile(g, (64, 1)))
    u0 = traj[0]
    resid = np.max(np.abs(traj[-1] - traj[0]))
    L = assemble_generator(grid, HEAT, 0.0, absorbing(), form="nondivergence")
    u_exact = np.linalg.solve(-to_dense(L) + c * np.eye(80), g)
    assert np.max(np.abs(u0 - u_exact)) < 1e-6
    assert resid < 1e-10
    # analytic check: sin(pi x) is an eigenfunction, u = g/(pi^2 + c)
    assert np.max(np.abs(u0 - g / (math.pi**2 + c))) < 1e-3


def test_poincare_positive_source_positive_solution():
    # resolvent positivity below the principal eigenvalue
    grid = Grid1D(60, 0.0, 1.0)
    t_half = (np.arange(32) + 0.5) * T / 32
    source = np.tile((1.0 + 0.5 * np.sin(2 * np.pi * t_half))[:, None], (1, 60))
    u0 = PeriodicLinearSolver(grid, HEAT, absorbing(), T, T / 32).solve(source)[0]
    assert np.all(u0 > 0)


def test_two_column_solve_matches_one_column_solves_and_step_loop():
    # the monotone iteration solves its upper and lower problems as two
    # columns of one march; each column must equal its own solve, and a
    # solve's trajectory must be a plain CN loop of d_t v = L v - c v + g
    grid = Grid1D(24, 0.0, 1.0)
    c, n_steps = 3.0, 64
    dt = T / n_steps
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                        b=CoefficientField.from_string("cos(2*pi*t)", T),
                        a0=CoefficientField.from_string("0.5 + x", T))
    solver = PeriodicLinearSolver(grid, co, neumann(), T, dt, c=c)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    source = gen.uniform(0.0, 2.0, (n_steps, grid.n_cells, 2))
    traj = solver.solve(source)
    u0 = traj[0]
    assert u0.shape == (24, 2) and traj.shape == (n_steps + 1, 24, 2)
    shifted = FpCoefficients(a_eff=co.a_eff, b=co.b,
                             a0=CoefficientField.from_string(f"0.5 + x + {c!r}", T))
    for j in range(2):
        traj_j = solver.solve(source[..., j])
        u0_j = traj_j[0]
        scale = np.max(np.abs(traj_j))
        assert np.max(np.abs(u0[:, j] - u0_j)) <= 1e-12 * scale
        assert np.max(np.abs(traj[..., j] - traj_j)) <= 1e-12 * scale
        p = DensityField(grid, u0_j, time_stamp=0.0)
        for k in range(n_steps):
            p = step_cn(p, shifted, neumann(), dt, form="nondivergence",
                        source=source[k, :, j])
            assert np.max(np.abs(p.values - traj_j[k + 1])) <= 1e-12 * scale


def _dense_spr(grid, lam, dt, n_steps):
    """Independent oracle for the solver's homogeneous period map spectrum."""
    co = FpCoefficients(a_eff=ONE, b=ZERO,
                        a0=CoefficientField.from_string(f"0 - ({lam!r})", T))
    L = assemble_generator(grid, co, 0.0, absorbing(), form="nondivergence")
    A = to_dense(L)
    n = grid.n_cells
    S = np.linalg.solve(np.eye(n) - dt / 2 * A, np.eye(n) + dt / 2 * A)
    K = np.linalg.matrix_power(S, n_steps)
    return float(np.max(np.abs(np.linalg.eigvals(K))))


def test_solvability_dichotomy_at_principal_eigenvalue():
    # shifting the zero-order term to -lambda makes the periodic problem
    # singular exactly when lambda hits the (discrete) principal eigenvalue
    grid = Grid1D(50, 0.0, 1.0)
    n_steps = 32
    dt = T / n_steps
    lam_star = brentq(lambda lam: _dense_spr(grid, lam, dt, n_steps) - 1.0,
                      9.0, 11.0, xtol=1e-12)
    assert abs(lam_star - math.pi**2) < 0.05  # sanity: near pi^2

    def shifted(lam):
        return FpCoefficients(a_eff=ONE, b=ZERO,
                              a0=CoefficientField.from_string(f"0 - ({lam!r})", T))

    source = np.ones((n_steps, grid.n_cells))
    with pytest.raises(SingularSystem):
        PeriodicLinearSolver(grid, shifted(lam_star), absorbing(), T, dt).solve(source)
    traj = PeriodicLinearSolver(grid, shifted(lam_star - 0.05), absorbing(), T,
                                dt).solve(source)
    u0 = traj[0]
    assert np.max(np.abs(traj[-1] - u0)) <= 1e-12 * np.max(np.abs(u0))


def test_gmres_matches_a_dense_solve():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    A = np.eye(30) + gen.standard_normal((30, 30)) / 10     # nonsymmetric
    b = gen.standard_normal((15, 2))
    x = semilinear.gmres(lambda v: (A @ v.ravel()).reshape(v.shape), b)
    exact = np.linalg.solve(A, b.ravel()).reshape(b.shape)
    assert x.shape == b.shape
    assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_gmres_inconsistent_singular_system_and_zero_source():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(6)))
    U, _, Vt = np.linalg.svd(gen.standard_normal((20, 20)))
    A = U @ np.diag(np.r_[np.linspace(1.0, 2.0, 19), 0.0]) @ Vt

    def apply(v):
        return A @ v
    with pytest.raises(SingularSystem):
        semilinear.gmres(apply, gen.standard_normal(20))
    # an invariant Krylov space: the first product is exactly zero
    with pytest.raises(SingularSystem, match="after 1 products"):
        semilinear.gmres(lambda v: np.array([2.0, 3.0, 0.0]) * v, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_array_equal(semilinear.gmres(apply, np.zeros(20)), np.zeros(20))


# ---------------------------------------------------------------------------
# c estimation

def test_estimate_c_logistic():
    grid = Grid1D(16, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    # -df/du = 2u - 1 peaks at 3 on [0, 2], at every half step and cell
    q = estimate_c(prob, 0.0, 2.0, T / 8)
    assert q.shape == (8, 16)
    np.testing.assert_allclose(q, 3.0, rtol=1e-8)
    # the field follows the bracket and is floored at 0: on [0, 0.25]
    # -df/du is at most -0.5
    lower = np.zeros((8, 16))
    upper = np.tile(np.linspace(0.25, 2.0, 16), (8, 1))
    np.testing.assert_allclose(estimate_c(prob, lower, upper, T / 8),
                               np.maximum(2 * upper - 1, 0.0), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("n", [24, 200])
def test_estimate_c_equals_the_level_by_level_loop(n):
    # f called on stacked u-levels (five at a time at n = 24, one at n = 200)
    # gives the field of a loop over the levels, bit for bit
    grid, dt = Grid1D(n, 0.0, 1.0), T / 64
    prob = SemilinearProblem(coeffs=HEAT, bc=neumann(), T=T, grid=grid,
                             f=CoefficientField.from_string("u*(3 + sin(2*pi*t) - x*u*u)", T))
    gen = np.random.Generator(np.random.Philox(key=np.uint64(4)))
    lower = gen.uniform(-1.0, 0.5, (64, n))
    upper = lower + gen.uniform(0.0, 2.0, (64, n))
    ts = ((np.arange(64) + 0.5) * dt)[:, None]
    h = max(1e-6, 1e-6 * (np.max(np.abs(lower)) + np.max(np.abs(upper))))
    q = np.zeros((64, n))
    for s in np.linspace(0.0, 1.0, semilinear.U_LEVELS):
        u = lower + s * (upper - lower)
        fp = prob.f(t=ts, x=grid.centers, u=u + h)
        fm = prob.f(t=ts, x=grid.centers, u=u - h)
        np.maximum(q, (fm - fp) / (2 * h), out=q)
    assert np.max(q) > 0.0 and np.min(q) == 0.0
    np.testing.assert_array_equal(estimate_c(prob, lower, upper, dt), q)


# ---------------------------------------------------------------------------
# monotone iteration

def test_zero_nonlinearity_zero_solution():
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO, a0=CoefficientField.from_string("1", T))
    prob = SemilinearProblem(coeffs=co, f=ZERO, bc=absorbing(), T=T, grid=grid)
    z = _const_field(grid, 0.0)
    res = monotone_iterate(prob, OrderedPair(z, z), dt=T / 32, tol=1e-10)
    assert np.max(np.abs(res.trajectory)) < 1e-12
    assert res.gap < 1e-12


def test_logistic_autonomous_fixed_point():
    grid = Grid1D(48, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, 0.05), _const_field(grid, 2.0))
    res = monotone_iterate(prob, pair, dt=T / 64, tol=1e-9)
    assert np.max(np.abs(res.trajectory - 1.0)) < 1e-7
    assert res.gap <= 1e-9
    assert res.periodicity_residual <= 1e-8
    # deltas decay monotonically after the first couple of corrections
    assert res.deltas_upper[-1] < res.deltas_upper[2]
    with pytest.raises(NotConverged) as exc:
        monotone_iterate(prob, pair, dt=T / 64, tol=1e-9, max_iter=1)
    assert exc.value.iterations == 1


def test_logistic_periodic_forcing_matches_shooting_oracle():
    # x-independent data: the PDE solution collapses to the periodic ODE
    grid = Grid1D(24, 0.0, 1.0)
    prob = SemilinearProblem(
        coeffs=HEAT,
        f=CoefficientField.from_string("u*((1 + 0.5*sin(2*pi*t)) - u)", T),
        bc=neumann(), T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, 0.05), _const_field(grid, 3.0))
    n_steps = 256
    res = monotone_iterate(prob, pair, dt=T / n_steps, tol=1e-10)
    oracle = shooting_oracle(lambda t: 1 + 0.5 * math.sin(2 * math.pi * t), T, n_steps)
    err = np.max(np.abs(res.trajectory - oracle[:, None]))
    assert err <= 1e-4
    assert res.gap <= 1e-10
    assert res.periodicity_residual <= 1e-9


def _dense_periodic_cn(problem, dt, c):
    """Exact periodic CN solve of d_t v + (A(t) + c) v = g from dense matrices:
    v(0) = (I - K_c)^-1 w, K_c the homogeneous one-period map and w the
    one-period march of zero data.  Returns solve(g at the half steps) ->
    trajectory over one period."""
    grid = problem.grid
    n, n_steps = grid.n_cells, step_count(problem.T, dt)
    eye = np.eye(n)
    steps = []     # v -> S v + R g for each CN step
    for k in range(n_steps):
        L = to_dense(assemble_generator(grid, problem.coeffs, (k + 0.5) * dt, problem.bc,
                                        problem.form)) - c * eye
        M = eye - dt / 2 * L
        steps.append((np.linalg.solve(M, eye + dt / 2 * L), dt * np.linalg.inv(M)))
    K = eye
    for S, _ in steps:
        K = S @ K

    def march(v, source):
        traj = [v]
        for (S, R), g in zip(steps, source):
            traj.append(S @ traj[-1] + R @ g)
        return np.stack(traj)

    return lambda source: march(np.linalg.solve(eye - K, march(np.zeros(n), source)[-1]),
                                source)


def _half_step_source(problem, traj, c, dt):
    u_half = (traj[:-1] + traj[1:]) / 2
    t_half = ((np.arange(len(u_half)) + 0.5) * dt)[:, None]
    return problem.f(t=t_half, x=problem.grid.centers, u=u_half) + c * u_half


@pytest.mark.parametrize("source_f, lower, upper", [
    ("1 + sin(2*pi*t)*x", 0.0, 4.0),            # u-independent: one dense solve
    ("u*(3 + sin(2*pi*t) - u)", 0.05, 4.0),
], ids=["linear", "logistic"])
def test_converged_trajectory_is_the_dense_periodic_cn_solution(source_f, lower, upper):
    # the fixed point of the iteration is the periodic CN trajectory, which
    # a Picard iteration of exact periodic solves built here from dense
    # generators, run to roundoff, also reaches
    grid = Grid1D(24, 0.0, 1.0)
    dt, tol = T / 64, 1e-9
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                        b=CoefficientField.from_string("cos(2*pi*t)", T),
                        a0=CoefficientField.from_string("0.5 + x", T))
    prob = SemilinearProblem(coeffs=co, f=CoefficientField.from_string(source_f, T),
                             bc=neumann(), T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, lower), _const_field(grid, upper))
    for kind in ("lower", "upper"):
        assert verify_upper_lower(getattr(pair, kind), prob, kind, dt)["certified"]
    res = monotone_iterate(prob, pair, dt=dt, tol=tol)
    solve = _dense_periodic_cn(prob, dt, res.c)
    oracle = np.tile(pair.upper.values, (65, 1))
    for _ in range(1000):
        new = solve(_half_step_source(prob, oracle, res.c, dt))
        step, oracle = np.max(np.abs(new - oracle)), new
        if step <= 1e-13:
            break
    assert step <= 1e-13
    assert np.max(np.abs(res.trajectory - oracle)) <= tol


def test_monotonicity_violation_when_c_too_small():
    # f_u = 1 - 2u spans [-3, 0.9] on the bracket [0.05, 2]; with c = 0.5 the
    # shifted source f + c u is not monotone there, while the periodic
    # linear problem is still well posed (spr(K_c) = e^{-cT} on Neumann walls)
    grid = Grid1D(32, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, 0.05), _const_field(grid, 2.0))
    with pytest.raises(MonotonicityViolation, match="c is too small"):
        monotone_iterate(prob, pair, dt=T / 32, c=0.5, tol=1e-9)
    # with c = sup|f_u| the same pair converges
    assert monotone_iterate(prob, pair, dt=T / 32, c=3.0, tol=1e-9).gap <= 1e-9


def test_stalled_krylov_solve_is_a_singular_system():
    # c = 0 on Neumann walls: K_c keeps the constants, so I - K_c is singular
    # and a constant source's w lies outside its range.  Roundoff in the
    # products must not pass for a solution: fail, do not warn and solve on
    solver = PeriodicLinearSolver(Grid1D(24, 0.0, 1.0), HEAT, neumann(), T, T / 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="after 48 products"):
            solver.solve(np.ones((32, 24, 2)))


def test_ordered_pair_validation():
    grid = Grid1D(8, 0.0, 1.0)
    with pytest.raises(ValueError):
        OrderedPair(_const_field(grid, 1.0), _const_field(grid, 0.0))


def test_dirichlet_compatibility_warning():
    # f = 1 on absorbing walls: f(t, x, 0) != 0 at the walls.  The pair is a
    # certified one; the constant 1 is no upper solution (u_t + Au - f = -1)
    grid = Grid1D(16, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("1 + 0*u", T),
                             bc=absorbing(), T=T, grid=grid)
    x = grid.centers
    pair = OrderedPair(_const_field(grid, 0.0), DensityField(grid, x * (1 - x)))
    for kind in ("lower", "upper"):
        assert verify_upper_lower(getattr(pair, kind), prob, kind, T / 16)["certified"]
    with pytest.warns(UserWarning, match="compatibility"):
        res = monotone_iterate(prob, pair, dt=T / 16, tol=1e-8)
    assert res.gap <= 1e-8


# ---------------------------------------------------------------------------
# upper/lower certificates

def test_verify_constant_upper_solution():
    # M = 2 dominates the logistic: M_t + A M - M(1-M) = 2 > 0
    grid = Grid1D(32, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    rep = verify_upper_lower(_const_field(grid, 2.0), prob, "upper", dt=T / 16)
    assert rep["certified"]
    assert rep["interior_slack"] == pytest.approx(2.0, abs=1e-6)


def test_verify_small_constant_lower_solution():
    grid = Grid1D(32, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    rep = verify_upper_lower(_const_field(grid, 0.1), prob, "lower", dt=T / 16)
    assert rep["certified"]


def test_verify_rejects_wrong_side():
    grid = Grid1D(32, 0.0, 1.0)
    prob = SemilinearProblem(coeffs=HEAT,
                             f=CoefficientField.from_string("u*(1-u)", T),
                             bc=neumann(), T=T, grid=grid)
    rep = verify_upper_lower(_const_field(grid, 0.1), prob, "upper", dt=T / 16)
    assert not rep["certified"]


@pytest.mark.parametrize("bc, source_f, lower, upper, c", [
    (neumann(), "u*(1 + 0.5*sin(2*pi*t) - u)", 0.05, 2.0, 5.0),
    (robin(1.0, 2.0), "u*(1-u) + 0.1", 0.0, 2.0, 4.5),
    (absorbing(), "(1 + 0.5*sin(2*pi*t))*x*(1-x)*(1 - u*u)", 0.0, 1.0, 1.5),
], ids=["neumann", "robin", "absorbing"])
def test_converged_trajectory_is_its_own_certificate(bc, source_f, lower, upper, c):
    # the certificate is the solver's discrete inequality, walls included:
    # the converged periodic CN trajectory has zero slack on both sides.
    # A fixed shift c = 1.5 sup |df/du| over the bracket reaches the same
    # solution as the default shift field, in more iterations
    grid = Grid1D(24, 0.0, 1.0)
    dt, tol = T / 64, 1e-10
    prob = SemilinearProblem(coeffs=HEAT, f=CoefficientField.from_string(source_f, T),
                             bc=bc, T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, lower), _const_field(grid, upper))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # the absorbing case's compatibility warning
        res = monotone_iterate(prob, pair, dt=dt, tol=tol)
        fixed = monotone_iterate(prob, pair, dt=dt, c=c, tol=tol)
    for kind in ("upper", "lower"):
        rep = verify_upper_lower(res.trajectory, prob, kind, dt)
        assert abs(rep["interior_slack"]) <= 1e-8
        assert abs(rep["endpoint_slack"]) <= 1e-12
    assert fixed.c == c
    assert np.max(np.abs(res.trajectory - fixed.trajectory)) <= tol
    assert res.iterations < fixed.iterations


def test_shift_field_reruns_are_bit_identical():
    # the shift field is re-read from the bracket every iteration, deterministically
    grid = Grid1D(24, 0.0, 1.0)
    prob = SemilinearProblem(
        coeffs=HEAT, f=CoefficientField.from_string("u*((1 + 0.45*sin(2*pi*t)) - u)", T),
        bc=neumann(), T=T, grid=grid)
    pair = OrderedPair(_const_field(grid, 1e-3), _const_field(grid, 2.0))
    first, second = (monotone_iterate(prob, pair, dt=T / 64, tol=1e-9) for _ in range(2))
    np.testing.assert_array_equal(first.trajectory, second.trajectory)
    assert (first.iterations, first.c, first.deltas_upper, first.deltas_lower) \
        == (second.iterations, second.c, second.deltas_upper, second.deltas_lower)
    assert first.iterations <= 30


def test_iterations_do_not_grow_with_the_grid():
    # each iteration's shift is read off its own bracket, at every grid size
    iterations = {}
    for n in (24, 200):
        grid = Grid1D(n, 0.0, 1.0)
        prob = SemilinearProblem(coeffs=HEAT, f=CoefficientField.from_string("u*(1-u)", T),
                                 bc=neumann(), T=T, grid=grid)
        pair = OrderedPair(_const_field(grid, 1e-3), _const_field(grid, 2.0))
        iterations[n] = monotone_iterate(prob, pair, dt=T / 64, tol=1e-9).iterations
    assert iterations[200] <= iterations[24] + 5

