"""Period map spectra: decay rates and principal eigenvalues."""

import math
import tracemalloc

import numpy as np
import pytest

from perifp import fpe_grid, period_map
from perifp.coeff_dsl import CoefficientField
from perifp.errors import NonFiniteState, NonPositiveRadius, NotConverged, SignIndefinite
from perifp.fpe_grid import (BLOCK_ENTRIES, DensityField, FpCoefficients, Grid1D,
                             Propagator, absorbing, neumann, reflecting, robin,
                             stationary_closed_form)
from perifp.period_map import PeriodOperator, build_period_map, power_iteration

from oracles import DenseOperator, decay_check, step_loop

T = 0.1
ONE = CoefficientField.from_string("1", T)
ZERO = CoefficientField.from_string("0", T)
HEAT = FpCoefficients(a_eff=ONE, b=ZERO)


def test_identity_map_spectrum():
    spec = power_iteration(DenseOperator(np.eye(10), T))
    assert spec.r == pytest.approx(1.0, abs=1e-12)
    assert spec.mu == pytest.approx(0.0, abs=1e-10)


def test_diagonal_matrix_dominant_eigenpair():
    K = np.diag([0.9, 0.5, 0.1])
    spec = power_iteration(DenseOperator(K))
    assert spec.r == pytest.approx(0.9, abs=1e-9)
    assert spec.mu == pytest.approx(-math.log(0.9), abs=1e-8)
    assert np.argmax(np.abs(spec.eigvec)) == 0
    # eigenvalue 2 on (1, 2) and 1 on (2, 3): the uniform start (1, 1) is
    # (2, 3) - (1, 2), so the iterates reach -(1, 2) and the sign is fixed
    spec = power_iteration(DenseOperator(np.array([[-2.0, 2.0], [-6.0, 5.0]])))
    assert spec.r == pytest.approx(2.0, rel=1e-9)
    np.testing.assert_allclose(spec.eigvec, np.array([1.0, 2.0]) / math.sqrt(5.0), rtol=1e-9)


def test_power_iteration_rejects_nilpotent():
    K = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonPositiveRadius):
        power_iteration(DenseOperator(K))
    with pytest.raises(NonPositiveRadius, match="spectral radius -1.99.* is not positive"):
        power_iteration(DenseOperator(-2.0 * np.eye(2)))
    # a rotation has no real dominant eigenvalue: two steps reach the pair +-i
    with pytest.raises(NonPositiveRadius, match=r"eigenvalues .* \+- 1i .* not real"):
        power_iteration(DenseOperator(np.array([[0.0, -1.0], [1.0, 0.0]])))
    # a product whose norm overflows is a typed error, not a LinAlgError
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(NonFiniteState, match="Krylov vector 1 has no finite norm"):
        power_iteration(DenseOperator(1e300 * np.eye(3)))


def test_heat_equation_dirichlet_rate():
    # principal mode sin(pi x) decays at rate pi^2 over one period
    grid = Grid1D(200, 0.0, 1.0)
    spec = power_iteration(PeriodOperator(grid, HEAT, absorbing(), T, T / 512))
    exact_r = math.exp(-math.pi**2 * T)
    assert abs(spec.r - exact_r) / exact_r < 0.01
    assert abs(spec.mu - math.pi**2) / math.pi**2 < 0.01
    assert 0.0 < spec.r < 1.0
    # eigenvector is the discrete sine mode
    mode = np.sin(np.pi * grid.centers)
    mode /= np.linalg.norm(mode)
    assert np.max(np.abs(spec.eigvec - mode)) < 1e-3


def test_reflecting_conservation_r_equals_one():
    grid = Grid1D(100, 0.0, 1.0)
    drift = CoefficientField.from_string("sin(2*pi*t/0.1)*(1-2*x)", T)
    co = FpCoefficients(a_eff=ONE, b=drift)
    pm = build_period_map(grid, co, reflecting(), T, T / 256)
    assert np.max(np.abs(pm.K.sum(axis=0) - 1.0)) < 1e-10  # column sums 1
    spec = power_iteration(PeriodOperator(grid, co, reflecting(), T, T / 256))
    assert spec.r == pytest.approx(1.0, abs=1e-10)


def test_reflecting_eigvec_is_stationary_density():
    grid = Grid1D(150, -2.0, 2.0)
    co = FpCoefficients(a_eff=ONE, b=CoefficientField.from_string("0 - x", T))
    spec = power_iteration(PeriodOperator(grid, co, reflecting(), T, T / 128))
    q = stationary_closed_form(co, grid).values
    v = spec.eigvec / (spec.eigvec.sum() * grid.dx)
    assert np.max(np.abs(v - q)) / np.max(q) < 1e-3


def test_dense_eigensolver_cross_check():
    grid = Grid1D(80, 0.0, 1.0)
    spec = power_iteration(PeriodOperator(grid, HEAT, absorbing(), T, T / 128))
    vals, vecs = np.linalg.eig(build_period_map(grid, HEAT, absorbing(), T, T / 128).K)
    i = int(np.argmax(np.abs(vals)))
    r_dense, v_dense = float(np.abs(vals[i])), np.real(vecs[:, i])
    v_dense *= np.sign(v_dense[np.argmax(np.abs(v_dense))]) / np.linalg.norm(v_dense)
    assert spec.r == pytest.approx(r_dense, rel=1e-9)
    assert np.max(np.abs(spec.eigvec - v_dense)) < 1e-7


def test_decay_law_over_many_periods():
    grid = Grid1D(120, 0.0, 1.0)
    op = PeriodOperator(grid, HEAT, absorbing(), T, T / 256)
    spec = power_iteration(op)
    assert decay_check(op, spec, 5) <= 1e-5
    assert decay_check(op, spec, 50) <= 1e-5  # underflow guard kicks in


def test_period_map_is_the_march_over_its_span():
    # the map over [0, 2T] is one march from t = 0 with one start-up, even
    # when a coefficient declares a shorter period (a constant a_eff is
    # T/2-periodic) than the drift
    grid = Grid1D(40, 0.0, 1.0)
    drift = CoefficientField.from_string("3*sin(2*pi*t/0.1)*(1-2*x)", T)
    co = FpCoefficients(a_eff=CoefficientField.from_string("1", T / 2), b=drift)
    dt = T / 64
    K = build_period_map(grid, co, reflecting(), 2 * T, dt).K
    prop = Propagator(grid, co, reflecting(), 2 * T, dt)
    V, _ = prop.march(np.eye(40), 128)
    assert np.max(np.abs(K - V)) <= 1e-12


@pytest.mark.parametrize("drift, startup", [
    ("sin(2*pi*t/0.1)*(1-2*x)", True),
    ("sin(2*pi*t/0.1)*(1-2*x)", False),
    # cell Peclet number b dx / (2 a) >= 1.875 at n = 40: dgttrf swaps rows
    ("200 + 50*sin(2*pi*t/0.1)", True),
    ("200 + 50*sin(2*pi*t/0.1)", False),
], ids=["startup", "plain", "peclet-startup", "peclet-plain"])
def test_evolve_matrix_with_sources_matches_step_loop(monkeypatch, drift, startup):
    # five periods of 64 steps, one table of three blocks of factors
    # (25 + 25 + 14): every period marches it, the start-up included
    monkeypatch.setattr(fpe_grid, "BLOCK_ENTRIES", 25 * 40)
    grid = Grid1D(40, 0.0, 1.0)
    n_steps, dt = 320, T / 64
    co = FpCoefficients(a_eff=ONE, b=CoefficientField.from_string(drift, T))
    xs = grid.centers
    gen = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    V0 = gen.uniform(0.0, 1.0, (40, 2))

    def sources(k):
        t = (k + 0.5) * dt
        return np.column_stack([np.sin(np.pi * xs) * np.cos(20 * np.pi * t),
                                np.full(40, 1.0 + t)])

    prop = Propagator(grid, co, absorbing(), T, dt, startup=startup)
    V, _ = prop.march(V0, n_steps, [sources(k) for k in range(n_steps)])
    assert len(prop.phases) == 64
    swapped = any(np.any(lu[4] != np.arange(1, 41)) for lu in prop.phases)
    assert swapped == drift.startswith("200")
    for j in range(2):
        ref = step_loop(DensityField(grid, V0[:, j]), co, absorbing(), dt, n_steps,
                        source=lambda k: sources(k)[:, j], startup=startup).values
        assert np.max(np.abs(V[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_evolve_matrix_a0_extraction_matches_step_loop():
    # the extracted mean of a0 = (1+x) s(t) over the cell centres is 1.5 s(t)
    # (up to rounding); marching a0 - 1.5 s(t) and applying exp(-sum 1.5 s dt)
    # is the same evolution written as a plain step loop over two periods:
    # two implicit-Euler half steps, then CN
    grid = Grid1D(64, 0.0, 1.0)
    s_t = "(1 + 0.5*sin(2*pi*t/0.1))"
    co = FpCoefficients(a_eff=ONE, b=ZERO,
                        a0=CoefficientField.from_string(f"(1+x)*{s_t}", T))
    mean_free = FpCoefficients(a_eff=ONE, b=ZERO, a0=CoefficientField.from_string(
        f"(1+x)*{s_t} - 1.5*{s_t}", T))
    n_steps, dt = 200, 2 * T / 200
    assert n_steps > BLOCK_ENTRIES // grid.n_cells

    def s(t):
        return 1 + 0.5 * math.sin(2 * math.pi * t / T)

    phase = sum(1.5 * s((k + 0.5) * dt) * dt for k in range(n_steps))
    K = build_period_map(grid, co, absorbing(), 2 * T, dt, form="nondivergence").K
    for j in (0, 21, 40):
        p = step_loop(DensityField(grid, np.eye(64)[:, j]), mean_free, absorbing(), dt,
                      n_steps, "nondivergence")
        ref = math.exp(-phase) * p.values
        assert np.max(np.abs(K[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_absorbing_positive_zero_order_contracts():
    # a0 >= 0 with absorbing walls forces strict decay: 0 < r < 1
    grid = Grid1D(100, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    for _ in range(5):
        c0, c1 = (float(v) for v in gen.uniform(0.0, 3.0, 2))
        co = FpCoefficients(
            a_eff=CoefficientField.from_string(f"1 + ({c0!r})*x*(1-x)", T),
            b=CoefficientField.from_string(f"({c1!r})*(1-2*x)", T),
            a0=CoefficientField.from_string(f"({c0!r})*(1+sin(2*pi*t/0.1))", T))
        spec = power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 128,
                                              form="nondivergence"))
        assert 0.0 < spec.r < 1.0


def _dominant_eig(K):
    vals, vecs = np.linalg.eig(K)
    i = int(np.argmax(np.abs(vals)))
    v = np.real(vecs[:, i])
    return float(np.abs(vals[i])), v * np.sign(v[np.argmax(np.abs(v))]) / np.linalg.norm(v)


@pytest.mark.parametrize("coeffs, bc, form", [
    (FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T),
                    b=CoefficientField.from_string("0.5*cos(2*pi*t/0.1)", T),
                    a0=CoefficientField.from_string("1 + 0.6*sin(2*pi*t/0.1)", T)),
     robin(0.7, 1.6), "nondivergence"),
    (FpCoefficients(a_eff=CoefficientField.from_string("0.5", T),
                    b=CoefficientField.from_string("sin(2*pi*t/0.1)*(1-2*x)", T)),
     reflecting(), "divergence"),
], ids=["robin-nondivergence", "reflecting-drift"])
def test_matrix_free_spectrum_matches_dense_eig(coeffs, bc, form):
    grid = Grid1D(120, 0.0, 1.0)
    op = PeriodOperator(grid, coeffs, bc, T, T / 128, form)
    K = build_period_map(grid, coeffs, bc, T, T / 128, form).K
    r_dense, (_, v_dense) = float(np.max(np.abs(np.linalg.eigvals(K)))), _dominant_eig(K)
    for tol in (1e-13, 1e-12, 1e-9):
        spec = power_iteration(op, tol=tol)
        # the residual read off the Arnoldi relation holds for one more apply
        Kv = op.apply(spec.eigvec) * math.exp(op.log_scale)
        assert np.max(np.abs(Kv - spec.r * spec.eigvec)) <= 2 * tol * spec.r
        assert spec.residual <= tol * spec.r
        assert spec.r == pytest.approx(r_dense, rel=1e-9)
        if tol == 1e-13:
            assert np.max(np.abs(spec.eigvec - v_dense)) <= 1e-9


def _heat_r(n, steps, a):
    """r of the absorbing heat map on [0, 1] in closed form: the first sine mode,
    eigenvalue z of dt a L, two implicit half steps, then steps - 1 CN steps."""
    dx, dt = 1.0 / n, T / steps
    z = -dt * (4 * a / dx**2) * math.sin(math.pi * dx / 2) ** 2
    return (1 + z / 2) ** (steps - 1) / (1 - z / 2) ** (steps + 1)


@pytest.mark.parametrize("n, steps, a", [(200, 512, 1.1), (800, 256, 0.91), (600, 64, 1.2),
                                         (12, 8, 1.0)], ids=["200", "800", "600-stiff", "coarse"])
def test_absorbing_heat_r_matches_closed_form(n, steps, a):
    co = FpCoefficients(a_eff=CoefficientField.from_string(f"{a!r}", T), b=ZERO)
    spec = power_iteration(PeriodOperator(Grid1D(n, 0.0, 1.0), co, absorbing(), T, T / steps),
                           tol=1e-12)
    assert spec.r == pytest.approx(_heat_r(n, steps, a), rel=1e-11, abs=0)


def test_stiff_map_ends_in_its_non_real_pair():
    # CN at n = 100, dt = T/64 leaves a complex pair of stiff modes near
    # -3.29e-5 above the physical radius e^{-12.27}: Arnoldi converges the
    # pair without a restart and names it
    T1 = 1.0
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T1),
                        b=CoefficientField.from_string("0.5*cos(2*pi*t)", T1))
    op = PeriodOperator(Grid1D(100, 0.0, 1.0), co, absorbing(), T1, T1 / 64, "nondivergence")
    applies, march = [], op.apply
    op.apply = lambda v: applies.append(v) or march(v)
    with pytest.raises(NonPositiveRadius, match=r"-3\.2946\d*e-05 \+- 2\.586\d*e-07i"):
        power_iteration(op, tol=1e-9)
    assert 0 < len(applies) <= period_map.ARNOLDI_MAX


def test_restarted_arnoldi_matches_one_run(monkeypatch):
    # a basis cap of 2 restarts from the Ritz vector: the same pair, more applies
    grid = Grid1D(120, 0.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T),
                        b=CoefficientField.from_string("3*sin(2*pi*t/0.1)", T))
    op = PeriodOperator(grid, co, robin(0.7, 1.6), T, T / 128, "nondivergence")
    one = power_iteration(op, tol=1e-12)
    monkeypatch.setattr(period_map, "ARNOLDI_MAX", 2)
    restarted = power_iteration(op, tol=1e-12)
    assert restarted.iterations > one.iterations
    assert restarted.r == pytest.approx(one.r, rel=1e-11)
    assert np.max(np.abs(restarted.eigvec - one.eigvec)) <= 1e-9
    # with one step per run the rotation never leaves its start vector
    monkeypatch.setattr(period_map, "ARNOLDI_MAX", 1)
    monkeypatch.setattr(period_map, "MAX_APPLIES", 50)
    with pytest.raises(NotConverged) as exc:
        power_iteration(DenseOperator(np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert exc.value.iterations == 50


def test_power_iteration_is_scale_invariant():
    # lambda_1(a0 + kappa) = lambda_1(a0) + kappa: the a0 mean stays out of
    # the march and the residual test is relative to r, so a shift of a0
    # neither stops the iteration early nor keeps it from converging
    grid = Grid1D(64, 0.0, 1.0)
    specs = []
    for kappa in (0, 300, -300):
        co = FpCoefficients(a_eff=CoefficientField.from_string("1 + 0.5*x", T),
                            b=CoefficientField.from_string("3*sin(2*pi*t/0.1)", T),
                            a0=CoefficientField.from_string(f"2*x + ({kappa})", T))
        specs.append(power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 64,
                                                    form="nondivergence")))
    for kappa, spec in zip((300, -300), specs[1:]):
        assert spec.mu - specs[0].mu == pytest.approx(kappa, rel=1e-10)
        assert spec.r == pytest.approx(specs[0].r * math.exp(-kappa * T), rel=1e-9, abs=0)
        assert spec.iterations == specs[0].iterations


def test_fast_decay_spectrum_matches_dense_eig():
    # r ~ 1e-16: an absolute residual test stopped after one iteration,
    # 2.1 away from the dense mu
    grid = Grid1D(64, 0.0, 1.0)
    co = FpCoefficients(a_eff=CoefficientField.from_string("30*(1 + 0.5*x)", T),
                        b=CoefficientField.from_string("3*sin(2*pi*t/0.1)", T))
    spec = power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 1024))
    r_dense, _ = _dominant_eig(build_period_map(grid, co, absorbing(), T, T / 1024).K)
    assert r_dense < 1e-15
    assert spec.r == pytest.approx(r_dense, rel=1e-9, abs=0)


def test_startup_removes_the_stiff_cn_mode():
    # n = 600, dt = T/64: without the start-up CN leaves a stiff pair of
    # modes above e^{-pi^2 T}; with it the physical mode dominates
    grid = Grid1D(600, 0.0, 1.0)
    op = PeriodOperator(grid, HEAT, absorbing(), T, T / 64)
    spec = power_iteration(op, tol=1e-9)
    exact_r = math.exp(-math.pi**2 * T)
    assert abs(spec.r - exact_r) / exact_r < 1e-3
    assert spec.iterations < 10
    assert spec.min_over_max > 0.0
    # dt max|L_ii| / 2, the wall cells losing 3/dx^2
    assert op.stiffness_ratio == pytest.approx(T / 128 * 3 * 600**2, rel=1e-12)


def test_matrix_free_spectrum_allocates_no_dense_map():
    grid = Grid1D(2000, 0.0, 1.0)
    tracemalloc.start()
    try:
        spec = power_iteration(PeriodOperator(grid, HEAT, absorbing(), T, T / 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.min_over_max > 0.0
    assert peak < 2000 * 2000 * 8 / 4


def test_sign_guard_rejects_sign_changing_eigenvector():
    # dominant eigenvector (1, -0.5, 0.3) of eigenvalue 0.9
    V = np.array([[1.0, 0.2, 0.1], [-0.5, 1.0, 0.3], [0.3, 0.1, 1.0]])
    K = V @ np.diag([0.9, 0.5, 0.2]) @ np.linalg.inv(V)
    with pytest.raises(SignIndefinite, match=r"changes sign \(min/max = -5\.000e-01\)"):
        power_iteration(DenseOperator(K))
    positive = np.abs(V[:, 0])
    K_pos = (positive[:, None] * positive[None, :]) * 0.9 / (positive @ positive)
    spec = power_iteration(DenseOperator(K_pos))
    assert spec.r == pytest.approx(0.9, rel=1e-9)
    assert spec.min_over_max > 0.0


# ---------------------------------------------------------------------------
# principal periodic-parabolic eigenvalue

def test_lambda1_dirichlet_heat():
    grid = Grid1D(200, 0.0, 1.0)
    l1 = power_iteration(PeriodOperator(grid, HEAT, absorbing(), T, T / 256, "nondivergence"),
                         tol=1e-12).mu
    assert abs(l1 - math.pi**2) / math.pi**2 < 1e-3


def test_lambda1_neumann_zero():
    grid = Grid1D(200, 0.0, 1.0)
    l1 = power_iteration(PeriodOperator(grid, HEAT, neumann(), T, T / 256, "nondivergence"),
                         tol=1e-12).mu
    assert abs(l1) <= 2e-3 / T


def test_lambda1_constant_shift_identity():
    grid = Grid1D(100, 0.0, 1.0)
    base = FpCoefficients(a_eff=ONE, b=ZERO,
                          a0=CoefficientField.from_string("1+x", T))
    shifted = FpCoefficients(a_eff=ONE, b=ZERO,
                             a0=CoefficientField.from_string("(1+x) + 2.5", T))
    l0, l1 = (power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 128, "nondivergence"),
                              tol=1e-12).mu for co in (base, shifted))
    assert abs((l1 - l0) - 2.5) / 2.5 < 1e-8


def test_lambda1_strictly_monotone_in_zero_order():
    grid = Grid1D(100, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(29)))
    for _ in range(5):
        lo = float(gen.uniform(0.0, 2.0))
        gap = float(gen.uniform(0.2, 2.0))
        co_lo = FpCoefficients(a_eff=ONE, b=ZERO,
                               a0=CoefficientField.from_string(f"({lo!r})*(1+x)", T))
        co_hi = FpCoefficients(a_eff=ONE, b=ZERO,
                               a0=CoefficientField.from_string(
                                   f"({lo!r})*(1+x) + ({gap!r})", T))
        l_lo, l_hi = (power_iteration(PeriodOperator(grid, co, absorbing(), T, T / 128,
                                                     "nondivergence"), tol=1e-12).mu
                      for co in (co_lo, co_hi))
        assert l_hi > l_lo
