"""Bounded-Lipschitz distance: oracle agreement, metric axioms, scaling."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from perifp.bl_metric import (EmpiricalMeasure, _dbl_lp, _merge_support,
                              _truncated_distances, cesaro_defect, coarsen, dbl)
from perifp.errors import DimensionMismatch, SolverFailure

from oracles import chain_dp


def grid_oracle(mu, nu, step=0.001):
    """Independent brute-force d_BL for small merged supports (K <= 8).

    The constraints are box bounds plus pairwise difference caps, so at
    any feasible h the extreme improving directions are +/- indicators of
    coordinate subsets moved uniformly.  Exhaustive group ascent over all
    2^K subsets therefore certifies global optimality without touching
    scipy.optimize.  The result is quantized to the value grid.
    """
    support = np.vstack([mu.points, nu.points])
    uniq, inverse = np.unique(support, axis=0, return_inverse=True)
    c = np.zeros(len(uniq))
    np.add.at(c, inverse.ravel(), np.concatenate([mu.weights, -nu.weights]))
    K = len(uniq)
    D = np.sqrt(((uniq[:, None, :] - uniq[None, :, :]) ** 2).sum(axis=2))

    subsets = [[i for i in range(K) if mask >> i & 1]
               for mask in range(1, 2**K)]
    h = np.zeros(K)
    for _ in range(2000):
        improved = False
        for S in subsets:
            cS = float(c[S].sum())
            if abs(cS) < 1e-15:
                continue
            sign = 1.0 if cS > 0 else -1.0
            out = [j for j in range(K) if j not in S]
            if sign > 0:
                lam = float(np.min(1.0 - h[S]))
                for i in S:
                    for j in out:
                        lam = min(lam, D[i, j] - (h[i] - h[j]))
            else:
                lam = float(np.min(h[S] + 1.0))
                for i in S:
                    for j in out:
                        lam = min(lam, D[i, j] - (h[j] - h[i]))
            if lam > 1e-12:
                h[S] += sign * lam
                improved = True
        if not improved:
            break
    assert np.all(np.abs(h) <= 1 + 1e-9)
    assert np.all(np.abs(h[:, None] - h[None, :]) <= D + 1e-9)
    return round(float(c @ h) / step) * step


def test_identical_measures_distance_zero():
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert dbl(mu, mu).distance == pytest.approx(0.0, abs=1e-12)


def test_unit_separation_diracs():
    # far-apart diracs saturate the sup-norm cap: distance 2, not |x - y|
    assert dbl(EmpiricalMeasure.dirac([0.0]),
               EmpiricalMeasure.dirac([1.0])).distance == pytest.approx(1.0, abs=1e-9)
    assert dbl(EmpiricalMeasure.dirac([0.0]),
               EmpiricalMeasure.dirac([3.0])).distance == pytest.approx(2.0, abs=1e-9)


def test_close_diracs_distance_is_separation():
    d = dbl(EmpiricalMeasure.dirac([0.0, 0.0]),
            EmpiricalMeasure.dirac([0.3, 0.4])).distance
    assert d == pytest.approx(0.5, abs=1e-9)


def test_sub_probability_mass_defect():
    # mu has mass 1, nu mass 0.5 on the same point: only the cap binds
    mu = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
    nu = EmpiricalMeasure(np.array([[0.0]]), np.array([0.5]))
    assert dbl(mu, nu).distance == pytest.approx(0.5, abs=1e-12)


def test_scaling_linearity():
    mu = EmpiricalMeasure(np.array([[0.0], [2.0]]), np.array([0.3, 0.7]))
    nu = EmpiricalMeasure(np.array([[1.0]]), np.array([1.0]))
    base = dbl(mu, nu).distance
    for c in (0.25, 0.5, 2.0):
        mu_c = EmpiricalMeasure(mu.points, c * mu.weights)
        nu_c = EmpiricalMeasure(nu.points, c * nu.weights)
        assert dbl(mu_c, nu_c).distance == pytest.approx(
            c * base, rel=1e-9)


def _random_measure(gen, d, max_pts=3):
    n = int(gen.integers(1, max_pts + 1))
    pts = gen.uniform(-2, 2, (n, d))
    w = gen.uniform(0.1, 1.0, n)
    return EmpiricalMeasure(pts, w / w.sum())


def test_oracle_agreement_random_pairs():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        mu = _random_measure(gen, d)
        nu = _random_measure(gen, d)
        lp = dbl(mu, nu).distance
        oracle = grid_oracle(mu, nu)
        assert abs(lp - oracle) <= 2e-3, (trial, lp, oracle)


def test_metric_axioms_random_triples():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    for _ in range(200):
        d = int(gen.integers(1, 3))
        a, b, c = (_random_measure(gen, d, max_pts=4) for _ in range(3))
        dab = dbl(a, b).distance
        dba = dbl(b, a).distance
        dac = dbl(a, c).distance
        dcb = dbl(c, b).distance
        assert dab >= -1e-12
        assert abs(dab - dba) <= 1e-8
        assert dab <= dac + dcb + 1e-8
        assert dbl(a, a).distance <= 1e-8


def test_upper_bound_two_plus_w1():
    # d_BL <= mass * 2 always, and <= separation for translated copies
    gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    for _ in range(20):
        mu = _random_measure(gen, 2)
        shift = gen.uniform(-0.2, 0.2, 2)
        nu = EmpiricalMeasure(mu.points + shift, mu.weights)
        d = dbl(mu, nu).distance
        assert d <= 2.0 + 1e-12
        assert d <= float(np.linalg.norm(shift)) + 1e-9


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        dbl(EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([0.0, 0.0]))


def test_witness_is_feasible_and_attains():
    mu = EmpiricalMeasure(np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.2, 0.3]))
    nu = EmpiricalMeasure(np.array([[0.5], [1.5]]), np.array([0.6, 0.4]))
    res = dbl(mu, nu)
    h, S = res.witness, res.support
    assert np.all(np.abs(h) <= 1 + 1e-9)
    D = np.sqrt(((S[:, None, :] - S[None, :, :]) ** 2).sum(axis=2))
    assert np.all(np.abs(h[:, None] - h[None, :]) <= D + 1e-9)
    assert float(res.distance) == pytest.approx(float(_merge_support(mu, nu)[1] @ h),
                                                abs=1e-12)


# ---------------------------------------------------------------------------
# the chain dynamic program on the line against the LP oracle

def _line_pair(gen, trial):
    """Seeded 1D pair: spreads 0.01..3, shared points, sub-probability masses."""
    spread = (0.01, 0.1, 0.5, 1.0, 3.0)[trial % 5]
    n, m = (int(k) for k in gen.integers(1, 7, 2))
    a = gen.uniform(-spread, spread, (n, 1))
    b = gen.uniform(-spread, spread, (m, 1))
    if trial % 3 == 0:                       # shared support points
        shared = int(gen.integers(1, min(n, m) + 1))
        b[:shared] = a[:shared]
    wa, wb = gen.uniform(0.05, 1.0, n), gen.uniform(0.05, 1.0, m)
    wa, wb = wa / wa.sum(), wb / wb.sum()
    if trial % 4 == 1:                       # sub-probability masses
        wa, wb = wa * gen.uniform(0.2, 1.0), wb * gen.uniform(0.2, 1.0)
    return EmpiricalMeasure(a, wa), EmpiricalMeasure(b, wb)


def _assert_chain_matches_lp(mu, nu):
    support, c = _merge_support(mu, nu)
    res = dbl(mu, nu)
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.support, support)
    assert abs(res.distance - _dbl_lp(support, c).distance) <= 1e-9
    h = res.witness
    assert np.all(np.abs(h) <= 1.0)
    gaps = np.abs(support[:, None, 0] - support[None, :, 0])
    assert np.all(np.abs(h[:, None] - h[None, :]) <= gaps + 1e-12)
    assert abs(float(c @ h) - res.distance) <= 1e-12
    return len(support)


def test_chain_matches_lp_random_line_pairs():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(1234)))
    sizes = [_assert_chain_matches_lp(*_line_pair(gen, trial)) for trial in range(320)]
    assert min(sizes) <= 2 and max(sizes) >= 10


def test_chain_matches_lp_two_points():
    for x, wa, wb in ((0.3, 1.0, 1.0), (2.5, 1.0, 1.0), (0.7, 0.4, 0.9), (5.0, 0.3, 0.2)):
        mu = EmpiricalMeasure(np.array([[0.0]]), np.array([wa]))
        nu = EmpiricalMeasure(np.array([[x]]), np.array([wb]))
        assert _assert_chain_matches_lp(mu, nu) == 2


def test_chain_matches_lp_sample_clouds():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(77)))
    for shift, scale in ((0.05, 0.2), (0.3, 1.0), (1.5, 2.0)):
        mu = EmpiricalMeasure.from_samples(gen.normal(0.0, scale, (60, 1)))
        nu = EmpiricalMeasure.from_samples(gen.normal(shift, scale, (50, 1)))
        _assert_chain_matches_lp(mu, nu)
        _assert_chain_matches_lp(EmpiricalMeasure(mu.points, 0.6 * mu.weights),
                                 EmpiricalMeasure(nu.points, 0.8 * nu.weights))


# ---------------------------------------------------------------------------
# the breakpoint-deque chain program against the dense DP of tests/oracles.py

CHAIN_FAMILIES = ("random", "alternating", "tiny-vs-large", "tiny-gaps", "zeros",
                  "wide-gaps", "sub-probability", "swing", "far-point")


def _chain_pair(gen, family, K):
    """A seeded 1D pair whose merged support has K points, in one stress family.

    alternating: signs alternate along the line; tiny-vs-large: masses of
    1e-6 against a few of order 1; tiny-gaps: gaps of 1e-9 to 1e-6; zeros:
    a third of the points carry equal mass in both measures, so c_i = 0;
    wide-gaps: every gap >= 2; sub-probability: total masses 0.3 and 0.8;
    swing: K/2 tiny masses, then large ones of alternating sign, so the
    peak swings across all the small slope changes at every step;
    far-point: the first point 10^9 left of the others.
    """
    gaps = gen.uniform(1e-3, 1.0, K - 1) / np.sqrt(K)
    if family == "tiny-gaps":
        gaps = gen.uniform(1e-9, 1e-6, K - 1)
    elif family == "wide-gaps":
        gaps = gen.uniform(2.0, 5.0, K - 1)
    z = np.concatenate([[gen.uniform(-1.0, 1.0)], gen.uniform(-1.0, 1.0) + np.cumsum(gaps)])
    if family == "far-point":
        z[0] -= 1e9
    w = gen.uniform(0.05, 1.0, K)
    sign = gen.choice([-1.0, 1.0], K)
    if family == "alternating":
        sign = np.where(np.arange(K) % 2 == 0, 1.0, -1.0)
    elif family == "tiny-vs-large":
        w = np.where(gen.random(K) < 0.05, w, 1e-6 * w)
    elif family == "swing":
        half = K // 2
        w[:half] *= 1e-6
        sign[:half] = 1.0
        sign[half:] = np.where(np.arange(K - half) % 2 == 0, -1.0, 1.0)
    w /= w.sum()
    if family == "sub-probability":
        w[sign > 0] *= 0.3 / max(w[sign > 0].sum(), 1e-300)
        w[sign < 0] *= 0.8 / max(w[sign < 0].sum(), 1e-300)
    pos, neg = sign > 0, sign < 0
    if family == "zeros":
        both = gen.random(K) < 1 / 3
        pos, neg = pos | both, neg | both
    return (EmpiricalMeasure(z[pos, None], w[pos]), EmpiricalMeasure(z[neg, None], w[neg]))


def _assert_chain_matches_dp(mu, nu):
    res = dbl(mu, nu)
    support, c = _merge_support(mu, nu)
    z = support[:, 0]
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.support, support)
    assert abs(res.distance - float(c @ chain_dp(z, c))) <= 1e-12
    h = res.witness
    assert np.all(np.abs(h) <= 1.0)
    assert np.all(np.abs(np.diff(h)) <= np.diff(z) + 1e-12)
    assert abs(float(c @ h) - res.distance) <= 1e-12
    return len(z)


@pytest.mark.parametrize("family", CHAIN_FAMILIES)
def test_chain_matches_dense_dp(family):
    seed = 60 + CHAIN_FAMILIES.index(family)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sizes = [_assert_chain_matches_dp(*_chain_pair(gen, family, K))
             for K in (2, 3, 4, 5, 8, 17, 40, 64, 130, 257, 600, 2000)]
    assert max(sizes) >= 1000


def test_chain_matches_dense_dp_random_chains():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(4141)))
    for trial in range(400):
        family = CHAIN_FAMILIES[trial % len(CHAIN_FAMILIES)]
        _assert_chain_matches_dp(*_chain_pair(gen, family, int(gen.integers(2, 60))))


def test_chain_at_scale_symmetric_within_mass_bounds():
    # K = 10^5: two sample clouds, one with sub-probability mass; the dense
    # DP is too slow here, so the checks are symmetry and the mass bounds
    gen = np.random.Generator(np.random.Philox(key=np.uint64(505)))
    mu = EmpiricalMeasure.from_samples(gen.normal(0.0, 1.0, (50_000, 1)))
    nu = EmpiricalMeasure.from_samples(gen.normal(0.2, 1.5, (50_000, 1)))
    nu = EmpiricalMeasure(nu.points, 0.9 * nu.weights)
    forward, backward = dbl(mu, nu), dbl(nu, mu)
    support, c = _merge_support(mu, nu)
    assert len(support) == 100_000
    assert abs(forward.distance - backward.distance) <= 1e-12
    assert abs(mu.mass - nu.mass) - 1e-12 <= forward.distance <= mu.mass + nu.mass + 1e-12
    h = forward.witness
    assert np.all(np.abs(h) <= 1.0)
    assert np.all(np.abs(np.diff(h)) <= np.diff(support[:, 0]) + 1e-12)
    assert abs(float(c @ h) - forward.distance) <= 1e-12


def test_coarsen_bounded_perturbation():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    mu = EmpiricalMeasure.from_samples(gen.uniform(0, 1, (50, 1)))
    nu = coarsen(mu, 0.05)
    assert nu.mass == pytest.approx(mu.mass, abs=1e-12)
    assert dbl(mu, nu).distance <= 2 * 0.05 + 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_merge_matches_unique_reference(d):
    # the stable sort must give np.unique's rows and, summing each row's
    # copies in input order, bit-for-bit the same weights
    gen = np.random.Generator(np.random.Philox(key=np.uint64(31 + d)))
    for trial in range(20):
        x = np.round(gen.normal(0.0, 1.0, (int(gen.integers(1, 80)), d)) * 4) / 4
        y = np.vstack([x[: len(x) // 2], gen.uniform(-1, 1, (5, d))])   # shared with mu
        x[gen.integers(0, len(x), len(x) // 3)] = x[0]                   # repeated rows
        x[gen.integers(0, len(x), 3)] = -0.0                             # -0.0 next to 0.0
        y[-1] = 0.0
        mu = EmpiricalMeasure(x, gen.uniform(0.0, 1.0, len(x)))
        nu = EmpiricalMeasure(y, gen.uniform(0.0, 1.0, len(y)))
        support, c = _merge_support(mu, nu)
        uniq, inverse = np.unique(np.vstack([x, y]), axis=0, return_inverse=True)
        ref = np.zeros(len(uniq))
        np.add.at(ref, inverse.ravel(), np.concatenate([mu.weights, -nu.weights]))
        np.testing.assert_array_equal(support, uniq)
        assert c.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_truncated_distances_match_broadcast_formula(d):
    # summed one coordinate at a time; numpy's reduction over the last axis
    # adds in the same order up to 7 terms, and pairwise from 8 on
    gen = np.random.Generator(np.random.Philox(key=np.uint64(53 + d)))
    a, b = gen.normal(0.0, 0.3, (60, d)), gen.normal(0.1, 0.3, (45, d))
    a[0, 0], b[0, 0] = 1e300, -1e300                   # a square that overflows: 2
    diff = a[:, None, :] - b[None, :, :]
    with np.errstate(over="ignore"):
        ref = np.minimum(np.sqrt(np.sum(diff * diff, axis=2)), 2.0)
    got = _truncated_distances(a, b)
    assert got[0, 0] == 2.0 and np.any(got < 2.0)
    if d <= 7:
        assert got.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_distance_symmetric_property(seed):
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mu = _random_measure(gen, 1)
    nu = _random_measure(gen, 1)
    assert dbl(mu, nu).distance == pytest.approx(dbl(nu, mu).distance, abs=1e-9)


# ---------------------------------------------------------------------------
# the assignment for equal-count, equal-weight clouds in d >= 2 against the LP

@pytest.fixture
def tight_lp(monkeypatch):
    """Run the LP oracle at HiGHS feasibility tolerances of 1e-10.

    At the default 1e-7 the pair rows may be violated by up to ~1e-7, so
    on clouds of spread 0.01 the LP over-reports d_BL by up to ~1e-9.
    """
    real = scipy.optimize.linprog

    def linprog(*args, **kwargs):
        return real(*args, **kwargs, options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)


def _assert_assignment_matches_lp(mu, nu):
    support, c = _merge_support(mu, nu)
    res = dbl(mu, nu)
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.support, support)
    assert abs(res.distance - _dbl_lp(support, c).distance) <= 1e-9
    h = res.witness
    assert np.all(np.abs(h) <= 1.0)
    dist = np.sqrt(((support[:, None, :] - support[None, :, :]) ** 2).sum(axis=2))
    assert np.all(np.abs(h[:, None] - h[None, :]) <= dist + 1e-12)
    assert abs(float(c @ h) - res.distance) <= 1e-12


def test_assignment_matches_lp_random_clouds(tight_lp):
    gen = np.random.Generator(np.random.Philox(key=np.uint64(4321)))
    for trial in range(60):
        d = 2 + trial % 2
        n = int(gen.integers(2, 61))
        spread = (0.01, 0.1, 0.5, 1.0, 3.0)[trial % 5]   # the cap at 2 binds at 3
        x = gen.uniform(0.0, spread, (n, d))
        y = gen.uniform(0.0, spread, (n, d)) + gen.uniform(0.0, 0.5 * spread, d)
        w = (1.0 if trial % 4 else gen.uniform(0.2, 1.0)) / n   # sub-probability masses
        _assert_assignment_matches_lp(EmpiricalMeasure(x, np.full(n, w)),
                                      EmpiricalMeasure(y, np.full(n, w)))


def test_assignment_matches_lp_coincident_points(tight_lp):
    gen = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    x = gen.uniform(0.0, 1.0, (12, 2))
    y = gen.uniform(0.0, 1.0, (12, 2))
    y[:5] = x[:5]                       # shared between mu and nu
    x[6:9] = x[5]                       # repeated within mu
    y[9:] = y[8]                        # repeated within nu
    _assert_assignment_matches_lp(EmpiricalMeasure.from_samples(x),
                                  EmpiricalMeasure.from_samples(y))
    # a point start: law 0 is M copies of one point
    _assert_assignment_matches_lp(EmpiricalMeasure.from_samples(np.full((30, 2), 0.5)),
                                  EmpiricalMeasure.from_samples(y[:1].repeat(30, axis=0)
                                                                + gen.normal(0, 0.3, (30, 2))))


def test_lp_witness_through_dbl_matches_tight_lp(monkeypatch, request):
    # pairs with unequal weights or counts, and coarsened laws, still take
    # the pairwise LP at HiGHS's default tolerances: its witness must be
    # feasible and attain the distance, which must match the tight oracle
    calls = _patch_linprog(monkeypatch)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(2718)))
    pairs = []
    for trial in range(24):
        d, spread = 2 + trial // 4 % 2, (0.01, 0.1)[trial // 2 % 2]
        n = int(gen.integers(2, 31))
        # unequal counts, or equal counts with unequal weights within mu
        m = n + int(gen.integers(1, 10)) if trial % 2 else n
        w = np.full(n, 1.0) if trial % 2 else gen.uniform(0.2, 1.0, n)
        pairs.append((EmpiricalMeasure(gen.uniform(0.0, spread, (n, d)), w / w.sum()),
                      EmpiricalMeasure.from_samples(gen.uniform(0.0, spread, (m, d)))))
    for trial in range(8):
        r, n = (1 / 64, 1 / 32, 0.05, 0.1)[trial % 4], int(gen.integers(50, 301))
        spread = 0.02 if r < 0.05 else 0.1
        pairs.append(tuple(coarsen(EmpiricalMeasure.from_samples(
            gen.normal(0.5, spread, (n, 2))), r) for _ in range(2)))
    results = [dbl(mu, nu) for mu, nu in pairs]
    assert calls[0] == len(pairs)              # every pair took the LP
    request.getfixturevalue("tight_lp")
    for (mu, nu), res in zip(pairs, results):
        support, c = _merge_support(mu, nu)
        assert res.status == "optimal"
        h = res.witness
        assert np.all(np.abs(h) <= 1.0)
        dist = np.sqrt(((support[:, None, :] - support[None, :, :]) ** 2).sum(axis=2))
        assert np.all(np.abs(h[:, None] - h[None, :]) <= dist + 1e-12)
        assert abs(float(c @ h) - res.distance) <= 1e-12
        assert abs(res.distance - _dbl_lp(support, c).distance) <= 1e-10


def _patch_linprog(monkeypatch, fail_after=None):
    """Count LP calls; report an iteration limit on every call after the first ``fail_after``."""
    real, calls = scipy.optimize.linprog, [0]

    def linprog(*args, **kwargs):
        calls[0] += 1
        res = real(*args, **kwargs)
        if fail_after is not None and calls[0] > fail_after:
            res.status = 1
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    return calls


def test_only_equal_count_equal_weight_pairs_skip_the_lp(monkeypatch):
    calls = _patch_linprog(monkeypatch)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    x, y = gen.uniform(0.0, 1.0, (6, 2)), gen.uniform(0.0, 1.0, (6, 2))
    dbl(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(y))
    dbl(EmpiricalMeasure(x, np.full(6, 0.1)), EmpiricalMeasure(y, np.full(6, 0.1)))
    assert calls[0] == 0
    dbl(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(y[:5]))
    assert calls[0] == 1                       # unequal counts
    dbl(EmpiricalMeasure(x, np.full(6, 0.1)), EmpiricalMeasure(y, np.full(6, 0.2)))
    assert calls[0] == 2                       # weights differ between mu and nu
    w = np.linspace(1.0, 2.0, 6) / 9.0
    dbl(EmpiricalMeasure(x, w), EmpiricalMeasure(y, w))
    assert calls[0] == 3                       # weights differ within mu and nu


# ---------------------------------------------------------------------------
# Cesaro averages of one-period-apart distances

def test_cesaro_exactly_periodic_sequence():
    a = EmpiricalMeasure.dirac([0.0])
    res = cesaro_defect([a, a, a, a])
    assert res.unrestricted == pytest.approx(0.0, abs=1e-12)
    assert res.restricted == pytest.approx(0.0, abs=1e-12)


def test_cesaro_alternating_far_diracs():
    # laws hop between points 3 apart: every term is 2 (the cap)
    a = EmpiricalMeasure.dirac([0.0])
    b = EmpiricalMeasure.dirac([3.0])
    res = cesaro_defect([a, b, a, b])   # n = 3 transitions
    np.testing.assert_allclose(res.terms, [2.0, 2.0, 2.0], atol=1e-9)
    assert res.unrestricted == pytest.approx(6.0 / 4.0, abs=1e-9)
    assert res.restricted == pytest.approx(3 * 2.0 / 16.0, abs=1e-9)


def test_cesaro_restricted_dominated_by_unrestricted():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    laws = [_random_measure(gen, 1, max_pts=4) for _ in range(6)]
    res = cesaro_defect(laws)
    assert res.restricted <= res.unrestricted + 1e-12


def test_cesaro_raises_on_non_optimal_term(monkeypatch):
    gen = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    laws = [_random_measure(gen, 2, max_pts=3) for _ in range(4)]
    _patch_linprog(monkeypatch, fail_after=1)
    with pytest.raises(SolverFailure, match=r"law\[2\] and law\[1\]"):
        cesaro_defect(laws)


def test_dbl_reports_non_optimal_status(monkeypatch):
    _patch_linprog(monkeypatch, fail_after=0)
    mu = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    nu = EmpiricalMeasure(np.array([[0.0, 0.5]]), np.array([1.0]))
    assert dbl(mu, nu).status == "iteration_limit"


def test_cesaro_needs_two_laws():
    with pytest.raises(ValueError):
        cesaro_defect([EmpiricalMeasure.dirac([0.0])])
