"""Projected Euler-Maruyama for reflected SDEs on boxes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import perifp.bl_metric as bl_metric
from perifp.bl_metric import EmpiricalMeasure, dbl
from perifp.coeff_dsl import CoefficientField
from perifp.errors import SolverFailure
from perifp.sde_reflect import (BoxDomain, SdeSystem, TrajectoryBatch,
                                em_reflect_step, lipschitz_report,
                                periodicity_diagnostic, sample_laws)

T = 1.0


def _field(src):
    return CoefficientField.from_string(src, T)


def _scalar_system(drift="0", sigma="1", lo=0.0, hi=1.0):
    return SdeSystem(drift=(_field(drift),), diffusion=((_field(sigma),),),
                     period_T=T, domain=BoxDomain([lo], [hi]), brownian_dim=1)


def test_box_projection_is_clamp():
    dom = BoxDomain([0.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(dom.project(np.array([1.5, -2.0])),
                                  np.array([1.0, -1.0]))
    assert dom.dim == 2
    assert dom.diameter == pytest.approx(np.sqrt(1 + 4))


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        BoxDomain([1.0], [0.0])


def test_system_requires_matching_period():
    aperiodic = CoefficientField.from_string("0")  # no declared period
    with pytest.raises(ValueError):
        SdeSystem(drift=(aperiodic,), diffusion=((_field("1"),),),
                  period_T=T, domain=BoxDomain([0.0], [1.0]), brownian_dim=1)


def test_step_zero_dynamics_identity():
    sys_ = _scalar_system("0", "0")
    x = np.array([[0.25], [0.75]])
    out, hit = em_reflect_step(x, 0.0, 0.1, np.array([[1.0], [1.0]]), sys_)
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


def test_initial_measure_sampling():
    sys_ = _scalar_system("0", "0")
    init = EmpiricalMeasure(np.array([[0.2], [0.8]]), np.array([0.5, 0.5]))
    batch = sample_laws(sys_, init, M=200, n_periods=1, dt=T / 8, seed=9)
    pts = batch.snapshots[0].points.ravel()
    assert set(np.unique(pts)) <= {0.2, 0.8}
    assert 0.3 < np.mean(pts == 0.2) < 0.7


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
                     period_T=T, domain=dom, brownian_dim=2)
    out, _ = em_reflect_step(np.array([[0.5, 0.5]]), 0.0, 0.1,
                             np.zeros((1, 2)), sys_)
    assert out[0, 0] == pytest.approx(0.45)
    assert out[0, 1] == 0.5


# ---------------------------------------------------------------------------
# coefficient regularity diagnostics

def test_lipschitz_linear_drift_quotient_one():
    rep = lipschitz_report(_scalar_system("0 - x", "1"), samples=500, seed=3)
    assert rep["drift_lipschitz"] == pytest.approx(1.0, abs=1e-6)
    assert rep["sigma_lipschitz"] == pytest.approx(0.0, abs=1e-12)


def test_lipschitz_sine_drift_bounded_by_one():
    rep = lipschitz_report(_scalar_system("sin(x)", "1"), samples=800, seed=4)
    assert rep["drift_lipschitz"] <= 1.0 + 1e-6


def test_lipschitz_linear_sigma():
    rep = lipschitz_report(_scalar_system("0", "x"), samples=500, seed=5)
    assert rep["sigma_lipschitz"] == pytest.approx(1.0, abs=1e-6)
    assert rep["sigma_growth"] <= 1.0 + 1e-9  # |x| <= sqrt(1 + x^2)


def test_lipschitz_report_matches_per_sample_loop():
    # the report evaluates every sample in one broadcast call per field;
    # a loop over the same draws, one sample at a time, is the reference
    dom = BoxDomain([0.0, -1.0], [1.0, 1.0])
    sys_ = SdeSystem(drift=(_field("sin(2*pi*t)*(1-2*x)"), _field("0.5")),
                     diffusion=((_field("x"), _field("x^2")),
                                (_field("0"), _field("cos(x) + t"))),
                     period_T=T, domain=dom, brownian_dim=2)
    rep = lipschitz_report(sys_, samples=300, seed=8)

    gen = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    ts = gen.uniform(0.0, T, 300)
    xs = gen.uniform(dom.lower, dom.upper, (300, 2))
    ys = gen.uniform(dom.lower, dom.upper, (300, 2))
    ref = dict.fromkeys(["drift_lipschitz", "sigma_lipschitz",
                         "drift_growth", "sigma_growth"], 0.0)
    for t, x, y in zip(ts, xs, ys):
        bx, by = (np.array([float(f(t=t, x=z[i])) for i, f in enumerate(sys_.drift)])
                  for z in (x, y))
        sx, sy = (np.array([[float(f(t=t, x=z[i])) for f in row]
                            for i, row in enumerate(sys_.diffusion)]) for z in (x, y))
        gap = float(np.linalg.norm(x - y))
        cap = float(np.sqrt(1.0 + np.dot(x, x)))
        for key, q in [("drift_lipschitz", np.linalg.norm(bx - by) / gap),
                       ("sigma_lipschitz", np.linalg.norm(sx - sy) / gap),
                       ("drift_growth", np.linalg.norm(bx) / cap),
                       ("sigma_growth", np.linalg.norm(sx) / cap)]:
            ref[key] = max(ref[key], float(q))
    for key, value in ref.items():
        assert rep[key] == pytest.approx(value, rel=1e-12), key
    assert rep["samples"] == 300


# ---------------------------------------------------------------------------
# periodicity diagnostics

def test_periodicity_diagnostic_frozen_dynamics():
    sys_ = _scalar_system("0", "0")
    batch = sample_laws(sys_, [0.5], M=32, n_periods=4, dt=T / 16, seed=0)
    diag = periodicity_diagnostic(batch, burn_in=0)
    assert diag["defect"] == pytest.approx(0.0, abs=1e-12)
    assert diag["max_pairwise_tail_dbl"] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(diag["second_moments"], 0.25, atol=1e-12)


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
    batch = TrajectoryBatch(seed=0, paths=1, dt=T, period_T=T, snapshots=snaps,
                            snapshot_times=np.arange(4) * T,
                            reflection_counts=np.zeros(1, dtype=np.int64))
    diag = periodicity_diagnostic(batch, burn_in=0)
    np.testing.assert_allclose(diag["defect_terms"], [0.1, 0.1, 0.5], atol=1e-12)
    assert diag["max_pairwise_tail_dbl"] == pytest.approx(0.5, abs=1e-12)


def test_periodicity_diagnostic_raises_on_non_optimal_tail_pair(monkeypatch):
    one, zero = _field("1"), _field("0")
    sys_ = SdeSystem(drift=(zero, zero), diffusion=((one, zero), (zero, one)),
                     period_T=T, domain=BoxDomain([0.0, 0.0], [1.0, 1.0]),
                     brownian_dim=2)
    batch = sample_laws(sys_, [0.5, 0.5], M=8, n_periods=3, dt=T / 8, seed=3)
    real, calls = bl_metric.linprog, [0]

    def linprog(*args, **kwargs):
        # the Cesaro defect's three solves succeed, the tail's first fails
        calls[0] += 1
        res = real(*args, **kwargs)
        if calls[0] > 3:
            res.status = 1
        return res

    monkeypatch.setattr(bl_metric, "linprog", linprog)
    with pytest.raises(SolverFailure, match="snapshots 0 and 2"):
        periodicity_diagnostic(batch, burn_in=0)


def test_periodicity_diagnostic_needs_snapshots():
    sys_ = _scalar_system("0", "0")
    batch = sample_laws(sys_, [0.5], M=8, n_periods=1, dt=T / 8, seed=0)
    with pytest.raises(ValueError):
        periodicity_diagnostic(batch, burn_in=1)
