"""Reference helpers shared by several test modules: each computes the
direct way what the library computes another way."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from perifp.coeff_dsl import eval_expr
from perifp.fpe_grid import DensityField, step_cn, step_ie
from perifp.markov import TransitionMatrix
from perifp.period_map import PeriodOperator, SpectralResult

DECAY_FLOOR = 1e-280


def to_dense(L) -> np.ndarray:
    """The n x n matrix of one Tridiag generator L."""
    A = np.diag(L.diag)
    idx = np.arange(len(L.diag) - 1)
    A[idx + 1, idx] = L.lower[1:]
    A[idx, idx + 1] = L.upper[:-1]
    return A


def paper_five_state_matrix(a1: float, a2: float) -> TransitionMatrix:
    """The 5-state example family: a 2-state mixing block plus a 3-cycle.

    Column-stochastic orientation; row i of the mixing block is
    (a_i, 1 - a_i).  Column j holds the outgoing probabilities of state j,
    so states 3 -> 5 -> 4 -> 3 form the permutation block.
    """
    P = np.zeros((5, 5))
    P[:2, :2] = [[a1, 1.0 - a1], [a2, 1.0 - a2]]
    P[[2, 3, 4], [3, 4, 2]] = 1.0
    return TransitionMatrix(P)


class DenseOperator:
    """A hand-made matrix K in the place of a PeriodOperator: U(T, 0) = K,
    with no a0 factor and no stiffness of its own."""
    log_scale, stiffness_ratio = 0.0, 0.0

    def __init__(self, K: np.ndarray, T: float = 1.0):
        self.K, self.T, self.n = K, T, K.shape[0]

    def apply(self, V: np.ndarray) -> np.ndarray:
        return self.K @ V


def decay_check(op: PeriodOperator, spec: SpectralResult, n_periods: int) -> float:
    """Max over n <= n_periods of ||K^n p0 - r^n p0||_inf / ||r^n p0||_inf.

    Verifies the decay law p(nT) = e^{-mu n T} p0 for the principal
    eigenfunction, K = exp(log_scale) op.apply; truncates once r^n
    underflows toward the double floor.
    """
    p0 = spec.eigvec
    v = p0.copy()
    rn = 1.0
    worst = 0.0
    for _ in range(n_periods):
        v = op.apply(v) * np.exp(op.log_scale)
        rn *= spec.r
        if rn < DECAY_FLOOR:
            break
        denom = rn * np.max(np.abs(p0))
        worst = max(worst, float(np.max(np.abs(v - rn * p0)) / denom))
    return worst


def step_loop(p, co, bc, dt, n_steps, form="divergence", source=lambda k: None,
              startup=True):
    """The march from p as single steps: two implicit-Euler half steps, each
    with the first step's source and its operator at t0 + dt/2, then CN;
    CN throughout without the start-up.  source(k) is step k's source."""
    t0 = p.time_stamp
    for _ in range(2 if startup else 0):
        p = step_ie(DensityField(p.grid, p.values, t0), co, bc, dt / 2, form=form,
                    source=source(0))
    p = DensityField(p.grid, p.values, t0 + dt if startup else t0)
    for k in range(1 if startup else 0, n_steps):
        p = step_cn(p, co, bc, dt, form=form, source=source(k))
    return p


def shooting_oracle(h, T, n_report):
    """Periodic solution of u' = u (h(t) - u) by shooting on the Poincare map,
    at n_report + 1 even times over [0, T]."""
    def ode(t, u):
        return u * (h(t) - u)

    def poincare(u0):
        sol = solve_ivp(ode, (0.0, T), [u0], rtol=1e-12, atol=1e-14, dense_output=True)
        return sol.y[0, -1] - u0

    u_star = brentq(poincare, 0.2, 3.0, xtol=1e-13)
    sol = solve_ivp(ode, (0.0, T), [u_star], rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.sol(np.linspace(0.0, T, n_report + 1))[0]


def em_loop(sys, init, M, n_periods, dt, seed):
    """sample_laws's positions at 0, T, ..., nT and its reflection counts,
    stepped the direct way: a new Philox generator for every step, every
    coefficient evaluated from its tree, and fresh arrays for every update."""
    steps = round(sys.period_T / dt)
    d = sys.domain.dim

    def field(f, t, x):     # 0 <= t < T: the period reduction is the identity
        return np.broadcast_to(np.asarray(eval_expr(f.expr, {"t": t, "x": x}), dtype=float),
                               x.shape)

    X = np.broadcast_to(np.asarray(init, dtype=float), (M, d)).copy()
    reflections = np.zeros(M, dtype=np.int64)
    laws = [X.copy()]
    step_index = 0
    for _ in range(n_periods):
        for k in range(steps):
            t = k * dt
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, step_index],
                                                                    dtype=np.uint64)))
            dW = np.sqrt(dt) * gen.standard_normal((M, sys.brownian_dim))
            b = np.stack([field(f, t, X[:, i]) for i, f in enumerate(sys.drift)], axis=1)
            noise = np.zeros((M, d))
            for i in range(d):
                for j in range(sys.brownian_dim):
                    noise[:, i] += field(sys.diffusion[i][j], t, X[:, i]) * dW[:, j]
            free = X + b * dt + noise
            X = np.clip(free, sys.domain.lower, sys.domain.upper)
            reflections += np.any(X != free, axis=1)
            step_index += 1
        laws.append(X.copy())
    return laws, reflections


def chain_dp(z, c):
    """Maximizer of c.h over |h_i| <= 1, |h_{i+1} - h_i| <= z_{i+1} - z_i,
    by the dense dynamic program: each concave piecewise-linear V_i is held
    as all its breakpoints xs and values vs, rebuilt every step (O(K) numpy
    work per step).  The max over the window moves the part left of the
    peak by -g_i and the part right of it by +g_i; the backward pass takes
    the point of h_i's window nearest to V_i's peak."""
    g = np.diff(z)
    K = len(c)
    xs, vs = np.array([-1.0, 1.0]), np.array([-c[0], c[0]])
    peaks = np.empty(K - 1)
    for i in range(K - 1):
        k = int(np.argmax(vs))
        peaks[i] = xs[k]
        xs = np.concatenate([xs[:k + 1] - g[i], xs[k:] + g[i]])
        vs = np.concatenate([vs[:k + 1], vs[k:]])
        inside = (xs > -1.0) & (xs < 1.0)
        lo, hi = np.interp([-1.0, 1.0], xs, vs)
        xs = np.concatenate([[-1.0], xs[inside], [1.0]])
        vs = np.concatenate([[lo], vs[inside], [hi]]) + c[i + 1] * xs
    h = np.empty(K)
    h[-1] = xs[np.argmax(vs)]
    for i in range(K - 2, -1, -1):
        h[i] = min(max(peaks[i], h[i + 1] - g[i]), h[i + 1] + g[i])
    return h


def dense_potentials(A):
    """(u, rounds): Bellman-Ford from u = 0 on u_i <= u_k + A[k, i], every
    round relaxing from all n rows, capped at n rounds; the loop that
    bl_metric._potentials restricts to the rows whose u fell."""
    u = np.zeros(len(A))
    for rounds in range(1, len(A) + 1):
        relaxed = np.min(u[:, None] + A, axis=0)   # A[k, k] = 0, so never above u
        if np.array_equal(relaxed, u):
            break
        u = relaxed
    return u, rounds
