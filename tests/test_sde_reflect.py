"""Projected Euler-Maruyama for reflected SDEs on boxes."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import perifp.bl_metric as bl_metric
from perifp.bl_metric import EmpiricalMeasure, coarsen, dbl
from perifp.coeff_dsl import CoefficientField
from perifp.errors import DimensionMismatch, SolverFailure
from perifp.sde_reflect import (BoxDomain, SdeSystem, TrajectoryBatch,
                                em_reflect_step, periodicity_diagnostic,
                                sample_laws)
from oracles import em_loop

T = 1.0


def _field(src):
    return CoefficientField.from_string(src, T)


def _scalar_system(drift="0", sigma="1", lo=0.0, hi=1.0):
    return SdeSystem(drift=(_field(drift),), diffusion=((_field(sigma),),),
                     period_T=T, domain=BoxDomain([lo], [hi]))


def test_box_projection_is_clamp():
    dom = BoxDomain([0.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(dom.project(np.array([1.5, -2.0])),
                                  np.array([1.0, -1.0]))
    assert dom.dim == 2


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        BoxDomain([1.0], [0.0])


def test_system_requires_matching_period():
    aperiodic = CoefficientField.from_string("0")  # no declared period
    with pytest.raises(ValueError):
        SdeSystem(drift=(aperiodic,), diffusion=((_field("1"),),),
                  period_T=T, domain=BoxDomain([0.0], [1.0]))


def test_system_rejects_ragged_diffusion_rows():
    # m is the length of a diffusion row, so every row must have it
    one = _field("1")
    dom = BoxDomain([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="diffusion must be 2x2"):
        SdeSystem(drift=(one, one), diffusion=((one, one), (one,)), period_T=T, domain=dom)
    with pytest.raises(DimensionMismatch, match="diffusion must be 2x1"):
        SdeSystem(drift=(one, one), diffusion=((one,), (one, one)), period_T=T, domain=dom)


def test_step_zero_dynamics_identity():
    sys_ = _scalar_system("0", "0")
    x = np.array([[0.25], [0.75]])
    out, hit = em_reflect_step(x.copy(), 0.0, 0.1, np.array([[1.0], [1.0]]), sys_)
    np.testing.assert_array_equal(out, x)
    assert not hit.any()


def test_step_clamps_at_wall():
    # x = 0.9, sigma = 1, dW = 0.5 overshoots to 1.4 and is clamped to 1.0
    sys_ = _scalar_system("0", "1")
    out, hit = em_reflect_step(np.array([[0.9]]), 0.0, 0.01,
                               np.array([[0.5]]), sys_)
    assert out[0, 0] == 1.0
    assert hit[0]


def test_step_deterministic_drift_euler():
    # b = -x from 0.5 with dt = 0.1: one Euler step gives 0.45
    sys_ = _scalar_system("0 - x", "0")
    out, _ = em_reflect_step(np.array([[0.5]]), 0.0, 0.1,
                             np.array([[0.0]]), sys_)
    assert out[0, 0] == pytest.approx(0.45, abs=1e-15)


def test_sample_laws_bitwise_reproducible():
    sys_ = _scalar_system("sin(2*pi*t)*(1-2*x)", "0.5")
    a = sample_laws(sys_, [0.5], M=64, n_periods=3, dt=T / 32, seed=123)
    b = sample_laws(sys_, [0.5], M=64, n_periods=3, dt=T / 32, seed=123)
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa.points, sb.points)
        np.testing.assert_array_equal(sa.weights, sb.weights)
    np.testing.assert_array_equal(a.reflection_counts, b.reflection_counts)


def _system(drift, sigma, lo, hi):
    return SdeSystem(drift=tuple(map(_field, drift)),
                     diffusion=tuple(tuple(map(_field, row)) for row in sigma),
                     period_T=T, domain=BoxDomain(lo, hi))


_WALLS = np.repeat([[0.0], [1.0]], 50, axis=0)      # 50 paths on each wall


@pytest.mark.parametrize("system, init, M, seed, dt", [
    (_scalar_system("0", "1"), [0.5], 300, 7, T / 32),           # constant coefficients
    (_system(["sin(2*pi*t)*(1-2*x)", "0.5 - x"],
             [["0.5", "0.2*x"], ["0.1 + 0.1*cos(2*pi*t)", "0.7"]],
             [0.0, -1.0], [1.0, 1.0]), [0.5, 0.0], 200, 11, T / 32),   # d = 2, full sigma
    (_system(["1 - 2*x"], [["0.3", "0.4*x"]], [0.0], [1.0]), [0.5], 200, 3, T / 32),  # m = 2
    (_scalar_system("0", "sin(2*pi*t)"), [0.25], 200, 5, T / 32),  # sigma reads only t
    (_scalar_system("1 - 2*x", "0.5"), _WALLS, 100, 1, T / 32),    # starts on both walls
    (_scalar_system("0.3*cos(2*pi*t)", "0.8"), [0.5], 1, 2, T / 32),  # one path
    (_scalar_system("0", "1"), [0.5], 100, 2**64 - 1, T / 32),     # the largest key word
    # zero noise from -0.0: x + b dt is -0.0, and sigma dW is -0.0 where dW < 0
    (_scalar_system("x", "0", -1.0, 1.0), [-0.0], 100, 4, T),
    # folded constant drifts on both components of a d = 2 box
    (_system(["0.7", "-1.5*pi"], [["0.3"], ["0.2"]], [0.0, -1.0], [1.0, 1.0]),
     [0.5, 0.0], 64, 9, T / 32),
    # a drift into the wall: most paths reflect at most of the 600 steps,
    # so the per-path counts pass 255
    (_scalar_system("-3", "0.2"), [0.0], 50, 6, T / 300),
])
def test_sample_laws_match_the_per_step_generator_loop(system, init, M, seed, dt):
    # bit for bit, the sign of every zero included
    batch = sample_laws(system, init, M=M, n_periods=2, dt=dt, seed=seed)
    laws, reflections = em_loop(system, init, M=M, n_periods=2, dt=dt, seed=seed)
    assert len(batch.snapshots) == len(laws) == 3
    for snap, X in zip(batch.snapshots, laws):
        assert snap.points.tobytes() == X.tobytes()
    assert batch.reflection_counts.tobytes() == reflections.tobytes()


def test_sample_laws_seed_changes_output():
    sys_ = _scalar_system("0", "1")
    a = sample_laws(sys_, [0.5], M=64, n_periods=1, dt=T / 32, seed=1)
    b = sample_laws(sys_, [0.5], M=64, n_periods=1, dt=T / 32, seed=2)
    assert not np.array_equal(a.snapshots[-1].points, b.snapshots[-1].points)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_paths_stay_in_box(seed):
    sys_ = _scalar_system("5*(1-2*x)", "2")
    batch = sample_laws(sys_, [0.5], M=32, n_periods=2, dt=T / 64, seed=seed)
    for snap in batch.snapshots:
        assert np.all(snap.points >= 0.0) and np.all(snap.points <= 1.0)


def test_snapshots_are_probability_measures():
    sys_ = _scalar_system("0", "1")
    batch = sample_laws(sys_, [0.5], M=100, n_periods=2, dt=T / 64, seed=5)
    assert len(batch.snapshots) == 3
    for snap in batch.snapshots:
        assert snap.mass == pytest.approx(1.0, abs=1e-12)


def test_start_point_outside_the_box_is_rejected():
    # no silent clamp onto the wall
    sys_ = _scalar_system()
    with pytest.raises(ValueError, match="start points must lie in the box"):
        sample_laws(sys_, [7.5], M=8, n_periods=1, dt=T / 8, seed=0)
    with pytest.raises(ValueError, match="start points must lie in the box"):
        sample_laws(sys_, [[0.5]] * 7 + [[-0.1]], M=8, n_periods=1, dt=T / 8, seed=0)


def test_dt_must_divide_period():
    sys_ = _scalar_system()
    with pytest.raises(ValueError):
        sample_laws(sys_, [0.5], M=8, n_periods=1, dt=0.3, seed=0)


def test_componentwise_coefficients_2d():
    # component i sees its own coordinate: drift (-x, 0) leaves y alone
    dom = BoxDomain([0.0, 0.0], [1.0, 1.0])
    sys_ = SdeSystem(drift=(_field("0 - x"), _field("0")),
                     diffusion=((_field("0"), _field("0")),
                                (_field("0"), _field("0"))),
                     period_T=T, domain=dom)
    assert sys_.brownian_dim == 2
    out, _ = em_reflect_step(np.array([[0.5, 0.5]]), 0.0, 0.1,
                             np.zeros((1, 2)), sys_)
    assert out[0, 0] == pytest.approx(0.45)
    assert out[0, 1] == 0.5


# ---------------------------------------------------------------------------
# periodicity diagnostics

def test_periodicity_diagnostic_frozen_dynamics():
    sys_ = _scalar_system("0", "0")
    batch = sample_laws(sys_, [0.5], M=32, n_periods=4, dt=T / 16, seed=0)
    diag = periodicity_diagnostic(batch, burn_in=0)
    assert diag["defect"] == pytest.approx(0.0, abs=1e-12)
    assert diag["max_pairwise_tail_dbl"] == pytest.approx(0.0, abs=1e-12)
    assert all(np.array_equal(s.points, np.full((32, 1), 0.5)) for s in batch.snapshots)


def test_periodicity_diagnostic_reuses_consecutive_pairs(monkeypatch):
    batch = sample_laws(_scalar_system("0.3*sin(2*pi*t)", "0.4"), [0.5], M=40,
                        n_periods=3, dt=T / 16, seed=11)
    laws = batch.snapshots
    terms = [dbl(laws[m + 1], laws[m]).distance for m in range(3)]
    tail_max = max(dbl(laws[i], laws[j]).distance
                   for i in range(4) for j in range(i + 1, 4))
    calls = []

    def counted(mu, nu):
        calls.append(1)
        return dbl(mu, nu)

    monkeypatch.setattr(bl_metric, "dbl", counted)
    diag = periodicity_diagnostic(batch, burn_in=0)
    assert len(calls) == 6   # 3 consecutive pairs once each, 3 non-consecutive
    np.testing.assert_allclose(diag["defect_terms"], terms, rtol=0, atol=1e-12)
    assert diag["max_pairwise_tail_dbl"] == pytest.approx(tail_max, abs=1e-12)


def test_periodicity_diagnostic_tail_max_at_last_consecutive_pair():
    # diracs at 0.2, 0.1, 0.0, 0.5: only the last transition moves by 0.5
    snaps = [EmpiricalMeasure.dirac([x]) for x in (0.2, 0.1, 0.0, 0.5)]
    batch = TrajectoryBatch(snapshots=snaps, reflection_counts=np.zeros(1, dtype=np.int64))
    diag = periodicity_diagnostic(batch, burn_in=0)
    np.testing.assert_allclose(diag["defect_terms"], [0.1, 0.1, 0.5], atol=1e-12)
    assert diag["max_pairwise_tail_dbl"] == pytest.approx(0.5, abs=1e-12)


def test_periodicity_diagnostic_raises_on_non_optimal_tail_pair(monkeypatch):
    one, zero = _field("1"), _field("0")
    sys_ = SdeSystem(drift=(zero, zero), diffusion=((one, zero), (zero, one)),
                     period_T=T, domain=BoxDomain([0.0, 0.0], [1.0, 1.0]))
    # coarsening merges weights (1, 3, 4 and 5 points of unequal weight),
    # so every pair takes the LP rather than the assignment
    batch = sample_laws(sys_, [0.5, 0.5], M=8, n_periods=3, dt=T / 8, seed=3,
                        snap_resolution=0.5)
    real, calls = scipy.optimize.linprog, [0]

    def linprog(*args, **kwargs):
        # the Cesaro defect's three solves succeed, the tail's first fails
        calls[0] += 1
        res = real(*args, **kwargs)
        if calls[0] > 3:
            res.status = 1
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    with pytest.raises(SolverFailure, match="snapshots 0 and 2"):
        periodicity_diagnostic(batch, burn_in=0)
    assert calls[0] > 3


def test_periodicity_diagnostic_needs_snapshots():
    sys_ = _scalar_system("0", "0")
    batch = sample_laws(sys_, [0.5], M=8, n_periods=1, dt=T / 8, seed=0)
    with pytest.raises(ValueError):
        periodicity_diagnostic(batch, burn_in=1)


@pytest.mark.parametrize("r", [1 / 64, 0.1, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_snapshots_are_coarsened_once(d, r):
    # the diagnostic compares the snapshots as sample_laws emitted them,
    # so a second coarsening at the same resolution must change nothing
    rng = np.random.default_rng([d, round(1 / r)])
    for n in (1, 7, 50, 400):
        m = EmpiricalMeasure(rng.normal(0.5, 2.0, (n, d)), rng.uniform(0.0, 1.0 / n, n))
        once = coarsen(m, r)
        twice = coarsen(once, r)
        np.testing.assert_array_equal(twice.points, once.points)
        np.testing.assert_array_equal(twice.weights, once.weights)
    one, zero = _field("1"), _field("0")
    sys_ = SdeSystem(drift=(zero,) * d,
                     diffusion=tuple(tuple(one if i == j else zero for j in range(d))
                                     for i in range(d)),
                     period_T=T, domain=BoxDomain([0.0] * d, [1.0] * d))
    batch = sample_laws(sys_, [0.5] * d, M=64, n_periods=2, dt=T / 16, seed=d,
                        snap_resolution=r)
    for snap in batch.snapshots:
        again = coarsen(snap, r)
        np.testing.assert_array_equal(again.points, snap.points)
        np.testing.assert_array_equal(again.weights, snap.weights)
