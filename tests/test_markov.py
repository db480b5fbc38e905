"""Distributional N-periodicity of finite Markov chains."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perifp.markov import (DEFAULT_TOL, DistributionVector, TransitionMatrix,
                           detect_period, detect_strong_period, permutation_order)

from oracles import paper_five_state_matrix


def _perm_matrix(perm):
    m = len(perm)
    P = np.zeros((m, m))
    for i, j in enumerate(perm):
        P[j, i] = 1.0  # column i sends mass to state perm[i]
    return TransitionMatrix(P)


def test_identity_period_one():
    P = TransitionMatrix(np.eye(4))
    x0 = DistributionVector(np.array([0.25, 0.25, 0.25, 0.25]))
    rep = detect_period(P, x0)
    assert rep.period == 1
    assert rep.strong


def test_three_cycle():
    P = _perm_matrix([1, 2, 0])
    x0 = DistributionVector(np.array([1.0, 0.0, 0.0]))
    rep = detect_period(P, x0)
    assert rep.period == 3
    assert rep.strong
    # symmetric start collapses the orbit: weak period 1, not strong
    uni = DistributionVector(np.full(3, 1 / 3))
    rep2 = detect_period(P, uni)
    assert rep2.period == 1
    assert not rep2.strong


def test_five_state_family_period_three():
    # two transient states feeding a 3-cycle; the minimal distributional
    # period is 3 by brute force, independent of the a parameters
    x0 = DistributionVector(np.array([0.1, 0.1, 0.35, 0.4, 0.05]))
    for a1 in (0.2, 0.3, 0.5, 0.9):
        P = paper_five_state_matrix(a1, 1.0 - a1)
        rep = detect_period(P, x0)
        assert rep.period == 3
        assert not rep.strong
        # frozen brute-force oracle: P^3 x0 = x0 but P x0 != x0, P^2 x0 != x0
        x = x0.probs
        orbit = [x]
        for _ in range(3):
            x = P.entries @ x
            orbit.append(x)
        assert np.max(np.abs(orbit[3] - orbit[0])) < 1e-12
        assert np.max(np.abs(orbit[1] - orbit[0])) > 1e-3
        assert np.max(np.abs(orbit[2] - orbit[0])) > 1e-3


def test_residuals_match_matrix_powers():
    P = paper_five_state_matrix(0.3, 0.7)
    x0 = DistributionVector(np.array([0.1, 0.1, 0.35, 0.4, 0.05]))
    rep = detect_period(P, x0, N_max=8)
    for k in range(1, 9):
        xk = np.linalg.matrix_power(P.entries, k) @ x0.probs
        assert abs(rep.residuals[k - 1] - np.max(np.abs(xk - x0.probs))) < 1e-10


def test_column_stochastic_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.5, 0.0], [0.6, 1.0]]))
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[-0.1, 0.0], [1.1, 1.0]]))


def test_row_stochastic_loader_transposes():
    rows = np.array([[0.2, 0.8], [0.7, 0.3]])
    P = TransitionMatrix.from_array(rows, row_stochastic=True)
    np.testing.assert_allclose(P.entries, rows.T)


def test_detect_period_none_when_aperiodic():
    # strictly positive chain converges to its stationary law; no exact return
    M = np.array([[0.9, 0.2], [0.1, 0.8]])
    x0 = DistributionVector(np.array([1.0, 0.0]))
    rep = detect_period(TransitionMatrix(M), x0, N_max=16)
    assert rep.period is None


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))))
def test_strong_period_is_lcm_of_cycles(perm):
    P = _perm_matrix(perm)
    assert detect_strong_period(P, N_max=900) == permutation_order(perm)


def test_permutation_order_lcm():
    assert permutation_order([1, 0, 3, 4, 2]) == 6  # 2-cycle + 3-cycle
    assert permutation_order(list(range(5))) == 1


def test_strong_implies_weak_divisor():
    # every start vector's weak period divides the strong period
    P = _perm_matrix([1, 0, 3, 4, 2])
    N = detect_strong_period(P, N_max=64)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    for _ in range(10):
        x = gen.uniform(0, 1, 5)
        x0 = DistributionVector(x / x.sum())
        rep = detect_period(P, x0, N_max=64)
        assert rep.period is not None
        assert N % rep.period == 0


def _dense_strong_period(P, N_max, tol=DEFAULT_TOL):
    """Oracle: smallest N <= N_max with ||P^N - I||_max <= tol, by dense powers."""
    eye = np.eye(P.m)
    power = eye
    for k in range(1, N_max + 1):
        power = P.entries @ power
        if np.max(np.abs(power - eye)) <= tol:
            return k
    return None


def _dense_is_identity(P, N, tol=DEFAULT_TOL):
    return np.max(np.abs(np.linalg.matrix_power(P.entries, N) - np.eye(P.m))) <= tol


def _random_start(gen, m):
    return DistributionVector(gen.dirichlet(np.ones(m)))


def test_random_permutations_match_the_dense_power_loop():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(22)))
    for _ in range(100):
        m = int(gen.integers(1, 13))
        perm = gen.permutation(m)
        P = _perm_matrix(perm)
        order = permutation_order(perm)
        assert detect_strong_period(P, N_max=64) == _dense_strong_period(P, 64) == order
        if order > 1:
            assert detect_strong_period(P, N_max=order - 1) is None
        rep = detect_period(P, _random_start(gen, m))
        assert rep.strong == _dense_is_identity(P, rep.period)


def _leaky_cycle(m, leak):
    """The m-cycle j -> j+1 that sends `leak` of each column to j+2 instead."""
    P = np.zeros((m, m))
    cols = np.arange(m)
    P[(cols + 1) % m, cols] = 1.0 - leak
    P[(cols + 2) % m, cols] = leak
    return TransitionMatrix(P)    # ||P - Pi||_1 = 2 * leak


@pytest.mark.parametrize("m", [3, 6, 11])
def test_near_permutation_is_strong_iff_period_times_distance_within_tol(m):
    x0 = DistributionVector(np.eye(m)[0])
    inside = _leaky_cycle(m, 0.9 * DEFAULT_TOL / (2 * m))     # m * dist = 0.9 tol
    outside = _leaky_cycle(m, 1.1 * DEFAULT_TOL / (2 * m))    # m * dist = 1.1 tol
    assert detect_strong_period(inside, N_max=64) == m
    rep = detect_period(inside, x0)
    assert rep.period == m and rep.strong
    assert _dense_is_identity(inside, m)
    assert detect_strong_period(outside, N_max=64) is None
    assert not detect_period(outside, x0).strong
    # the dense check still passes here: P^m misses I by about m * leak, half
    # of m * dist, so this is an input whose answer the rule changed
    assert _dense_is_identity(outside, m)


def test_strong_is_never_reported_where_dense_powers_miss_identity():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(23)))
    reported = 0
    for _ in range(200):
        m = int(gen.integers(2, 9))
        perm = gen.permutation(m)
        leak = 10.0 ** gen.uniform(-14, -8, m)
        P = gen.dirichlet(np.ones(m), size=m).T * leak
        P[perm, np.arange(m)] += 1.0 - leak
        P = TransitionMatrix(P)
        rep = detect_period(P, _random_start(gen, m))
        if rep.strong:
            assert _dense_is_identity(P, rep.period)
            reported += 1
        N = detect_strong_period(P, N_max=64)
        if N is not None:
            assert N == permutation_order(perm) and _dense_is_identity(P, N)
    assert 20 <= reported <= 180


def test_doubly_stochastic_non_permutations_are_never_strong():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(24)))
    for _ in range(50):
        m = int(gen.integers(2, 9))
        first, second = gen.permutation(m), gen.permutation(m)
        if np.array_equal(first, second):
            second = np.roll(first, 1)
        lam = gen.uniform(0.5, 0.99)
        P = TransitionMatrix(lam * _perm_matrix(first).entries
                             + (1 - lam) * _perm_matrix(second).entries)
        assert detect_strong_period(P, N_max=1000) is None
        assert _dense_strong_period(P, 64) is None
        for x0 in (DistributionVector(np.full(m, 1 / m)), _random_start(gen, m)):
            assert not detect_period(P, x0).strong
    uniform = TransitionMatrix(np.full((5, 5), 0.2))
    assert detect_strong_period(uniform, N_max=1000) is None
    rep = detect_period(uniform, DistributionVector(np.full(5, 0.2)))
    assert rep.period == 1 and not rep.strong


def test_chain_onto_fewer_states_is_never_strong():
    # every column is a unit vector, so ||P - Pi||_1 = 0 for Pi = P, but
    # sigma = (0, 0, 2) is no bijection
    P = TransitionMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert detect_strong_period(P, N_max=64) is None
    rep = detect_period(P, DistributionVector(np.array([0.5, 0.0, 0.5])))
    assert rep.period == 1 and not rep.strong


def test_order_60_chain_at_m_2000_takes_under_a_second():
    # cycles of lengths 3, 4 and 5, the remaining 1988 states in 2-cycles
    m = 2000
    perm = np.arange(m)
    start = 0
    for length in [3, 4, 5] + [2] * ((m - 12) // 2):
        perm[start:start + length] = np.roll(np.arange(start, start + length), -1)
        start += length
    P = _perm_matrix(perm)
    x0 = _random_start(np.random.Generator(np.random.Philox(key=np.uint64(25))), m)
    t0 = time.perf_counter()
    assert detect_strong_period(P, N_max=64) == 60
    t1 = time.perf_counter()
    rep = detect_period(P, x0)
    t2 = time.perf_counter()
    assert rep.period == 60 and rep.strong
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0
