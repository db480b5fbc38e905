"""Distributional N-periodicity of finite Markov chains."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perifp.markov import (DistributionVector, TransitionMatrix, detect_period,
                           detect_strong_period, paper_five_state_matrix,
                           permutation_order)


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
