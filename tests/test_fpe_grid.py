"""Conservative Fokker-Planck finite differences in one dimension."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgttrf

from perifp import fpe_grid
from perifp.coeff_dsl import CoefficientField
from perifp.errors import EllipticityViolation, QuadratureOverflow
from perifp.fpe_grid import (BLOCK_ENTRIES, DensityField, FpCoefficients, Grid1D,
                             Propagator, absorbing, assemble_generator,
                             check_stationarity_condition, neumann, reflecting,
                             robin, solve_ivp, stationary_closed_form, step_cn,
                             step_ie)
from perifp.period_map import PeriodOperator, power_iteration
from perifp.semilinear import PeriodicLinearSolver

from oracles import step_loop, to_dense

T = 1.0
ONE = CoefficientField.from_string("1", T)
HALF = CoefficientField.from_string("0.5", T)
ZERO = CoefficientField.from_string("0", T)


def column_sums(L):
    # off-diagonal gains first, diagonal last: the conservative
    # assembly stores diag[j] = -(upper[j-1] + lower[j+1]) rounded
    # once, so this grouping cancels exactly in floating point
    gains = np.zeros(len(L.diag))
    gains[1:] += L.upper[:-1]
    gains[:-1] += L.lower[1:]
    return gains + L.diag


def _uniform(grid):
    return DensityField(grid, np.full(grid.n_cells, 1.0 / (grid.x_right - grid.x_left)))


# ---------------------------------------------------------------------------
# generator assembly

def test_divergence_reduces_to_laplacian_stencil():
    grid = Grid1D(8, 0.0, 1.0)
    L = assemble_generator(grid, FpCoefficients(a_eff=ONE, b=ZERO), 0.0, reflecting())
    dx2 = grid.dx**2
    # interior rows are the standard [1, -2, 1]/dx^2
    dense = to_dense(L)
    for i in range(1, 7):
        np.testing.assert_allclose(dense[i, i - 1:i + 2] * dx2, [1.0, -2.0, 1.0],
                                   atol=1e-12)


def test_reflecting_column_sums_exactly_zero():
    # zero column sums <=> discrete conservation of probability
    grid = Grid1D(64, 0.0, 1.0)
    drift = CoefficientField.from_string("sin(2*pi*t)*(1-2*x)", T)
    co = FpCoefficients(a_eff=ONE, b=drift)
    for t in (0.0, 0.13, 0.77):
        L = assemble_generator(grid, co, t, reflecting())
        assert np.max(np.abs(column_sums(L))) <= 1e-13


def test_absorbing_column_sums_negative_at_walls():
    grid = Grid1D(16, 0.0, 1.0)
    L = assemble_generator(grid, FpCoefficients(a_eff=ONE, b=ZERO), 0.0, absorbing())
    s = column_sums(L)
    assert s[0] < 0 and s[-1] < 0
    assert np.max(np.abs(s[1:-1])) <= 1e-13


def test_absorbing_divergence_reads_a_eff_inside_the_domain_only():
    # the ghost is antisymmetric in a p, so no a_eff value outside [x_left,
    # x_right] is needed: a_eff = 0.1 + sqrt(x) is not defined left of 0
    xs_read = []

    def a_eff(t, x):
        xs_read.append(np.ravel(x))
        return 0.1 + np.sqrt(x) + 0.0 * t

    grid = Grid1D(25, 0.0, 1.0)
    co = FpCoefficients(a_eff=a_eff, b=CoefficientField.from_string("sin(2*pi*t)", T))
    sums = column_sums(assemble_generator(grid, co, 0.25, absorbing()))
    xs = np.concatenate(xs_read)
    assert grid.x_left <= xs.min() and xs.max() <= grid.x_right
    # the wall cells lose 2 a/dx^2 through the wall
    a = a_eff(0.25, grid.centers)
    assert sums[0] == pytest.approx(-2 * a[0] / grid.dx**2, rel=1e-14)
    assert sums[-1] == pytest.approx(-2 * a[-1] / grid.dx**2, rel=1e-14)


def test_absorbing_divergence_eigenvalue_is_second_order():
    # principal eigenvalue of the generator against n = 800: the error falls
    # about 4x per doubling of n
    co = FpCoefficients(a_eff=CoefficientField.from_string("0.1 + sqrt(x)", T), b=ZERO)

    def lam(n):
        L = to_dense(assemble_generator(Grid1D(n, 0.0, 1.0), co, 0.0, absorbing()))
        return -np.max(np.linalg.eigvals(L).real)

    ref = lam(800)
    errors = [abs(lam(n) - ref) for n in (25, 50, 100)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_zero_order_term_needs_nondivergence_form():
    grid = Grid1D(16, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO, a0=CoefficientField.from_string("100", T))
    with pytest.raises(ValueError, match="non-divergence"):
        assemble_generator(grid, co, 0.0, reflecting())
    with pytest.raises(ValueError, match="non-divergence"):
        PeriodOperator(grid, co, reflecting(), T, T / 16)
    assemble_generator(grid, co, 0.0, reflecting(), form="nondivergence")


def test_ellipticity_violation_raised():
    bad = FpCoefficients(a_eff=CoefficientField.from_string("x - 0.5", T), b=ZERO)
    with pytest.raises(EllipticityViolation):
        assemble_generator(Grid1D(16, 0.0, 1.0), bad, 0.0, reflecting())


def test_robin_only_nondivergence():
    grid = Grid1D(16, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    with pytest.raises(ValueError):
        assemble_generator(grid, co, 0.0, robin(1.0, 1.0), form="divergence")
    L = assemble_generator(grid, co, 0.0, robin(0.0, 0.0), form="nondivergence")
    Ln = assemble_generator(grid, co, 0.0, neumann(), form="nondivergence")
    np.testing.assert_allclose(to_dense(L), to_dense(Ln), atol=1e-14)
    # a reflecting wall in this form is the Neumann ghost, to the bit
    Lr = assemble_generator(grid, co, 0.0, reflecting(), form="nondivergence")
    assert all(np.array_equal(getattr(Lr, k), getattr(Ln, k)) for k in ("lower", "diag", "upper"))


# ---------------------------------------------------------------------------
# time stepping

def test_cn_mass_conservation_reflecting():
    grid = Grid1D(100, 0.0, 1.0)
    drift = CoefficientField.from_string("sin(2*pi*t)*(1-2*x)", T)
    co = FpCoefficients(a_eff=ONE, b=drift)
    p = _uniform(grid)
    for _ in range(50):
        p = step_cn(p, co, reflecting(), T / 256)
        assert abs(p.mass - 1.0) <= 1e-12


def test_heat_equation_decay_absorbing():
    # p_t = p_xx on (0,1), p(0)=p(1)=0: mode sin(pi x) decays at rate pi^2
    grid = Grid1D(200, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    p0 = DensityField(grid, np.sin(np.pi * grid.centers))
    t1 = 0.05
    p, _ = solve_ivp(p0, co, absorbing(), T, t1, t1 / 512)
    exact = math.exp(-math.pi**2 * t1) * np.sin(np.pi * grid.centers)
    assert np.max(np.abs(p.values - exact)) / np.max(exact) < 5e-4


def test_cn_second_order_in_time():
    grid = Grid1D(400, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    p0 = DensityField(grid, np.sin(np.pi * grid.centers))
    t1 = 0.02
    errs = []
    for n_steps in (8, 16, 32):
        p, _ = solve_ivp(p0, co, absorbing(), T, t1, t1 / n_steps)
        exact = math.exp(-math.pi**2 * t1) * np.sin(np.pi * grid.centers)
        errs.append(np.max(np.abs(p.values - exact)))
    rate1 = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert rate1 > 1.7 and rate2 > 1.7


def test_implicit_euler_preserves_positivity():
    # a sharp spike under strong drift: CN can undershoot, IE must not
    grid = Grid1D(100, 0.0, 1.0)
    drift = CoefficientField.from_string("25*(1-2*x)", T)
    co = FpCoefficients(a_eff=HALF, b=drift)
    vals = np.zeros(100)
    vals[5] = 1.0 / grid.dx
    p = DensityField(grid, vals)
    for _ in range(20):
        p = step_ie(p, co, reflecting(), 0.05)
        assert np.all(p.values >= -1e-15)
        assert abs(p.mass - 1.0) <= 1e-10


def test_snapshots_at_requested_times():
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    p, snaps = solve_ivp(_uniform(grid), co, reflecting(), T, 1.0, 1.0 / 16,
                         snapshot_times=[0.0, 0.5, 1.0])
    assert [s.time_stamp for s in snaps] == pytest.approx([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(snaps[-1].values, p.values)


def test_snapshot_times_outside_the_march_are_rejected():
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    for times in ([0.25, 0.9, -0.1], [0.75], [-1e-9]):
        with pytest.raises(ValueError, match=r"snapshot time \S+ is outside \[0, t1 = 0\.5\]"):
            solve_ivp(_uniform(grid), co, reflecting(), T, 0.5, 1.0 / 16,
                      snapshot_times=times)


def test_snapshot_times_between_steps_are_rejected():
    # 0.03 lies between the steps 0 and 1/16; it used to be rounded to 0,
    # and 0.3 to 0.3125, without a word
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=ZERO)
    for times in ([0.0, 0.03, 0.3], [0.3], [0.5 - 1e-6]):
        with pytest.raises(ValueError, match="must divide"):
            solve_ivp(_uniform(grid), co, reflecting(), T, 0.5, 1.0 / 16,
                      snapshot_times=times)


@pytest.mark.parametrize("form, bc, co", [
    ("divergence", reflecting(),
     FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                    b=CoefficientField.from_string("3*sin(2*pi*t)*(1-2*x)", T))),
    ("divergence", absorbing(),
     FpCoefficients(a_eff=CoefficientField.from_string("0.5 + 0.25*cos(2*pi*t)", T),
                    b=CoefficientField.from_string("x - 0.5", T))),
    ("nondivergence", robin(0.7, 1.3),
     FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T),
                    b=CoefficientField.from_string("0.5*cos(2*pi*t)", T),
                    a0=CoefficientField.from_string("1 + 0.6*sin(2*pi*t)", T))),
])
def test_propagator_matches_step_loop_over_periods(monkeypatch, form, bc, co):
    # three periods of 100 steps, each period four blocks of factors
    # (30 + 30 + 30 + 10); the march starts with two implicit-Euler half
    # steps, then CN
    monkeypatch.setattr(fpe_grid, "BLOCK_ENTRIES", 30 * 64)
    grid = Grid1D(64, 0.0, 1.0)
    dt = T / 100
    p0 = DensityField(grid, 1.0 + np.sin(3 * grid.centers), time_stamp=0.0)
    p, snaps = solve_ivp(p0, co, bc, T, 3 * T, dt, form=form,
                         snapshot_times=[0.0, T, 2 * T, 3 * T])
    ref = p0
    for k, snap in enumerate(snaps):
        if k == 1:
            ref = step_loop(ref, co, bc, dt, 100, form)
        elif k:
            ref = step_loop(ref, co, bc, dt, 100, form, startup=False)
        assert snap.time_stamp == pytest.approx(k * T)
        assert np.max(np.abs(snap.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))
    np.testing.assert_array_equal(p.values, snaps[-1].values)


def test_stiff_absorbing_march_matches_step_loop():
    # dt max|L_ii| / 2 >= 500: the stiff grid modes pass through the
    # start-up and then the CN factor ~ -1 of every step, where the march's
    # 2 M^-1 V - V and step_cn's explicit matvec must agree
    grid = Grid1D(400, 0.0, 1.0)
    dt, n_steps = T / 256, 32
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                        b=CoefficientField.from_string("3*cos(2*pi*t)*(1-2*x)", T))
    L = assemble_generator(grid, co, (np.arange(n_steps) + 0.5) * dt, absorbing())
    assert dt * np.max(np.abs(L.diag)) / 2 >= 500
    gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    V0 = gen.uniform(0.0, 1.0, (400, 2))
    prop = Propagator(grid, co, absorbing(), T, dt)
    V, _ = prop.march(V0, n_steps)
    for j in range(2):
        ref = step_loop(DensityField(grid, V0[:, j]), co, absorbing(), dt, n_steps).values
        assert np.max(np.abs(V[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))


_SHIFTED_CO = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                             b=CoefficientField.from_string("cos(2*pi*t)", T),
                             a0=CoefficientField.from_string("0.5 + x", T))


@pytest.mark.parametrize("bc", [neumann(), robin(1.0, 2.0)], ids=["neumann", "robin"])
def test_shift_field_matches_dense_step_loop(monkeypatch, bc):
    # an (N, n) shift field q: CN step k uses the generator L(t_k) - diag(q_k),
    # over one and a half periods, factored in blocks of 10 phases
    monkeypatch.setattr(fpe_grid, "BLOCK_ENTRIES", 10 * 24)
    grid = Grid1D(24, 0.0, 1.0)
    n_steps, dt = 32, T / 32
    gen = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    q = gen.uniform(0.0, 4.0, (n_steps, 24))
    g = gen.uniform(-1.0, 1.0, (48, 24, 2))
    V0 = gen.uniform(0.0, 1.0, (24, 2))
    prop = Propagator(grid, _SHIFTED_CO, bc, T, dt, "nondivergence", c=q, startup=False)
    V, _ = prop.march(V0, 48, g)
    eye, ref = np.eye(24), V0
    for k in range(48):
        A = to_dense(assemble_generator(grid, _SHIFTED_CO, (k % n_steps + 0.5) * dt, bc,
                                        "nondivergence")) - np.diag(q[k % n_steps])
        ref = np.linalg.solve(eye - dt / 2 * A, (eye + dt / 2 * A) @ ref + dt * g[k])
    assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_scalar_phase_and_field_shifts_march_alike():
    # one shift given as a scalar, per phase or per cell builds the same factors
    grid = Grid1D(24, 0.0, 1.0)
    V0 = np.linspace(0.0, 1.0, 24)
    marches = [Propagator(grid, _SHIFTED_CO, neumann(), T, T / 16, "nondivergence",
                          c=c).march(V0, 20)[0]
               for c in (1.5, np.full(16, 1.5), np.full((16, 24), 1.5))]
    for V in marches[1:]:
        np.testing.assert_array_equal(V, marches[0])


def test_marches_factor_each_operator_of_one_period_once(monkeypatch):
    # N = 64 steps per period: the N phases are factored once, however many
    # periods are marched, with or without the start-up (both of its half
    # steps are phase 0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(fpe_grid, "dgttrf", counted)
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                        b=CoefficientField.from_string("3*sin(2*pi*t)*(1-2*x)", T))
    solve_ivp(_uniform(grid), co, reflecting(), T, 10 * T, T / 64)     # ten periods
    assert len(calls) == 64
    calls.clear()
    spec = power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 64), tol=1e-12)
    assert spec.iterations >= 4
    assert len(calls) == 64
    calls.clear()
    solver = PeriodicLinearSolver(grid, co, neumann(), T, T / 64, c=1.0, form="nondivergence")
    solver.solve(np.ones((64, 32)))
    assert len(calls) == 64


def test_propagator_needs_coefficient_periods_that_divide_T():
    grid = Grid1D(32, 0.0, 1.0)
    for bad in (CoefficientField.from_string("1 + 0.5*sin(2*pi*t/0.3)", 0.3),
                CoefficientField.from_string("1", None),
                CoefficientField.from_string("1", 2 * T)):
        with pytest.raises(ValueError, match="must divide T"):
            Propagator(grid, FpCoefficients(a_eff=bad, b=ZERO), reflecting(), T, T / 64)
        with pytest.raises(ValueError, match="must divide T"):
            Propagator(grid, FpCoefficients(a_eff=ONE, b=ZERO, a0=bad), reflecting(), T,
                       T / 64, form="nondivergence")
    # a constant declared with period T/2, a drift with period T/4
    co = FpCoefficients(a_eff=CoefficientField.from_string("1", T / 2),
                        b=CoefficientField.from_string("sin(8*pi*t)", T / 4))
    assert Propagator(grid, co, reflecting(), T, T / 64).n_phases == 64


def test_reflecting_march_conserves_mass_over_many_steps():
    # 20 periods of 256 steps in one march; the mass after every period
    grid = Grid1D(64, 0.0, 1.0)
    dt, n_steps = T / 256, 5120
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*sin(2*pi*t)*x", T),
                        b=CoefficientField.from_string("3*sin(2*pi*t)*(1-2*x)", T))
    p0 = DensityField(grid, 1.0 + np.sin(3 * grid.centers), time_stamp=0.0)
    p, snaps = solve_ivp(p0, co, reflecting(), T, n_steps * dt, dt,
                         snapshot_times=np.arange(1, 21) * T)
    assert len(snaps) == 20
    for snap in snaps:
        assert abs(snap.mass - p0.mass) <= 1e-12 * p0.mass


def test_ellipticity_violation_mid_block_reports_its_time():
    # a_eff < 0 only at the half step of step 37 (t = 37.5/64), x < 0.3
    grid = Grid1D(32, 0.0, 1.0)
    t_bad = 37.5 / 64
    co = FpCoefficients(a_eff=CoefficientField.from_string(
        f"abs(t - {t_bad!r})*100 + x - 0.3", T), b=ZERO)
    assert BLOCK_ENTRIES // grid.n_cells > 64
    with pytest.raises(EllipticityViolation) as marched:
        solve_ivp(_uniform(grid), co, reflecting(), T, T, T / 64)
    with pytest.raises(EllipticityViolation) as stepped:
        step_loop(_uniform(grid), co, reflecting(), T / 64, 64, startup=False)
    for exc in (marched.value, stepped.value):
        assert exc.t == pytest.approx(t_bad, abs=1e-15)
        assert exc.x == grid.centers[0]
    assert marched.value.value == pytest.approx(stepped.value.value, abs=1e-13)


def test_phase_independent_operator_is_factored_once():
    # no coefficient reads t and the shift is one value: one factor serves
    # every phase (a table of 256 factors holds 46 MB at this size)
    grid = Grid1D(5000, 0.0, 1.0)
    tracemalloc.start()
    try:
        prop = Propagator(grid, FpCoefficients(a_eff=ONE, b=ZERO), absorbing(), T, T / 256)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prop.n_phases == 256 and len(prop.phases) == 1
    assert held < 2e6


@pytest.mark.parametrize("bc, form, a0, c", [
    (absorbing(), "divergence", None, 0.0),
    (reflecting(), "divergence", None, 0.0),
    (neumann(), "nondivergence", "1 + x", 0.5),
    (robin(1.0, 2.0), "nondivergence", "1 + x", np.full(64, 0.5)),
    (absorbing(), "nondivergence", None, np.full((64, 40), -0.5)),
])
@pytest.mark.parametrize("startup", [True, False])
def test_one_factor_marches_as_the_full_table(bc, form, a0, c, startup):
    # "+ 0*t" reads t without changing a value, so it keeps all 64 factors
    grid = Grid1D(40, 0.0, 1.0)

    def coeffs(tail):
        return FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x" + tail, T),
                              b=CoefficientField.from_string("2*(1 - 2*x)", T),
                              a0=None if a0 is None else CoefficientField.from_string(a0, T))

    one = Propagator(grid, coeffs(""), bc, T, T / 64, form, c=c, startup=startup)
    table = Propagator(grid, coeffs(" + 0*t"), bc, T, T / 64, form, c=c, startup=startup)
    assert (len(one.phases), len(table.phases)) == (1, 64)
    assert one.stiffness_ratio == table.stiffness_ratio
    V0 = np.column_stack([1.0 + np.sin(3 * grid.centers), grid.centers])
    sources = np.cos(np.arange(150))[:, None, None] * np.ones((150, 40, 2))
    for args in ((V0, 150), (V0, 150, sources)):
        assert one.march(*args)[0].tobytes() == table.march(*args)[0].tobytes()


def test_shift_that_changes_with_the_phase_keeps_every_factor():
    grid = Grid1D(40, 0.0, 1.0)
    prop = Propagator(grid, FpCoefficients(a_eff=ONE, b=ZERO), neumann(), T, T / 64,
                      "nondivergence", c=np.linspace(0.0, 1.0, 64))
    assert len(prop.phases) == 64


def test_whole_period_is_factored_before_a_shorter_march():
    # a_eff = 1 - 2t turns non-positive at t = T/2, after t1 = T/4: the
    # operators of all N phases are factored when the Propagator is built,
    # so a march over part of a period still checks the whole period
    grid = Grid1D(32, 0.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 - 2*t", T), b=ZERO)
    with pytest.raises(EllipticityViolation) as exc:
        solve_ivp(_uniform(grid), co, reflecting(), T, T / 4, T / 64)
    assert exc.value.t == 32.5 / 64


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_reflecting_mass_invariant_random_drift(seed):
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    c1, c2 = (float(v) for v in gen.uniform(-2, 2, 2))
    drift = CoefficientField.from_string(f"({c1!r})*sin(2*pi*t) + ({c2!r})*x", T)
    co = FpCoefficients(a_eff=ONE, b=drift)
    grid = Grid1D(50, 0.0, 1.0)
    p, _ = solve_ivp(_uniform(grid), co, reflecting(), T, 0.25, 1 / 64)
    assert abs(p.mass - 1.0) <= 1e-11


# ---------------------------------------------------------------------------
# stationary closed form

def test_stationary_gaussian_ou():
    # a = 1/2, b = -x: q ~ exp(-x^2), the N(0, 1/2) density
    grid = Grid1D(400, -4.0, 4.0)
    co = FpCoefficients(a_eff=HALF, b=CoefficientField.from_string("0 - x", T))
    q = stationary_closed_form(co, grid)
    exact = np.exp(-grid.centers**2)
    exact /= exact.sum() * grid.dx
    assert np.max(np.abs(q.values - exact)) < 1e-12
    assert q.mass == pytest.approx(1.0, abs=1e-12)


def test_stationary_uniform_when_b_equals_ax():
    # a = 1 + x^2/2 has a_x = x; with b = x the exponent vanishes: uniform
    grid = Grid1D(200, -1.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + x^2/2", T),
                        b=CoefficientField.from_string("x", T))
    q = stationary_closed_form(co, grid)
    assert np.max(np.abs(q.values - 0.5)) < 1e-4  # 1/(b-a) = 1/2


def test_stationary_is_fixed_point_of_solver():
    grid = Grid1D(200, -2.0, 2.0)
    co = FpCoefficients(a_eff=ONE, b=CoefficientField.from_string("0 - x", T))
    q = stationary_closed_form(co, grid)
    p, _ = solve_ivp(q, co, reflecting(), T, 1.0, 1 / 256)
    assert np.max(np.abs(p.values - q.values)) <= 5e-3


def test_stationary_overflow_guard():
    grid = Grid1D(100, 0.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("0.0001", T),
                        b=CoefficientField.from_string("0-1", T))
    with pytest.raises(QuadratureOverflow):
        stationary_closed_form(co, grid)


# ---------------------------------------------------------------------------
# stationarity condition for time-dependent coefficients

def test_condition_zero_for_static_coefficients():
    grid = Grid1D(200, -1.0, 1.0)
    co = FpCoefficients(a_eff=ONE, b=CoefficientField.from_string("0 - x", T))
    out = check_stationarity_condition(co, grid, np.linspace(0, 1, 5))
    assert out["max_abs_residual"] <= 1e-10


def test_condition_zero_for_common_time_factor():
    # a = alpha(t), b = alpha(t) b0(x): the integrand cancels identically
    grid = Grid1D(200, -1.0, 1.0)
    alpha = "(2 + sin(2*pi*t))"
    co = FpCoefficients(
        a_eff=CoefficientField.from_string(alpha, T),
        b=CoefficientField.from_string(f"{alpha}*(0 - x)", T))
    out = check_stationarity_condition(co, grid, np.linspace(0, 1, 9))
    assert out["max_abs_residual"] <= 1e-6


def test_condition_residual_that_overflows_is_an_error():
    # finite at t = 0, overflowing at later sample times: no NaN residuals
    grid = Grid1D(16, 0.0, 1.0)
    co = FpCoefficients(a_eff=HALF, b=CoefficientField.from_string(
        "exp(800*x*(1 - cos(2*pi*t)))", T))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(QuadratureOverflow, match="not finite at t = 0.25"):
        check_stationarity_condition(co, grid, np.linspace(0, 1, 9))


def test_condition_detects_genuine_time_dependence():
    grid = Grid1D(200, -1.0, 1.0)
    co = FpCoefficients(a_eff=ONE,
                        b=CoefficientField.from_string("sin(2*pi*t)*x^2", T))
    out = check_stationarity_condition(co, grid, [0.0])
    assert out["max_abs_residual"] >= 0.1
