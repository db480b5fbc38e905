"""Exact bounded-Lipschitz distance between finitely supported measures.

d_BL(mu, nu) = sup { |integral h d(mu - nu)| : ||h||_inf <= 1, Lip(h) <= 1 }.

On the merged support {z_i} this is the linear program

    maximize   sum_i c_i h_i,   c_i = mu({z_i}) - nu({z_i})
    subject to -1 <= h_i <= 1,  |h_i - h_j| <= ||z_i - z_j||_2.

The feasible set is symmetric under h -> -h, so the maximum already
equals the supremum of the absolute value.  Sub-probability measures
(total mass < 1) are allowed; the problem is linear in the weights, so
d_BL(c*mu, c*nu) = c*d_BL(mu, nu).

In d = 1 the sorted support is a chain: |z_i - z_j| is the sum of the
gaps between them, so the K - 1 adjacent constraints imply all the
others, and a dynamic program over concave piecewise-linear value
functions solves the chain exactly in one pass.  Each function is held
as its slope breakpoints in two deques, one each side of its peak, so a
step costs O(1) plus one per breakpoint the peak crosses.

In d >= 2, two measures with the same number of points and one common
weight w (the laws ``EmpiricalMeasure.from_samples`` builds, and every
uncoarsened SDE snapshot; the mass may be below 1) are solved as an
n x n assignment problem.  By Kantorovich-Rubinstein duality for the
metric min(|x - y|, 2) (Dudley, Real Analysis and Probability, 11.8),
d_BL is w times the cheapest matching cost, and an optimal plan between
equal-weight clouds is a permutation.  Every other d >= 2 pair is solved
as an explicit LP with a constraint for every pair.

The optimal witness h is in general not unique; the paths may return
different witnesses of the same distance.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ._kernels import linear_sum_assignment
from .errors import DimensionMismatch, SolverFailure


class EmpiricalMeasure:
    def __init__(self, points, weights):
        pts = np.atleast_2d(np.asarray(points, dtype=float))   # (n, d)
        w = np.asarray(weights, dtype=float)                   # (n,), nonnegative
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatch(f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not np.all(w >= 0):
            raise ValueError("weights must be nonnegative")
        self.points, self.weights = pts, w

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def dirac(cls, point) -> "EmpiricalMeasure":
        return cls(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalMeasure":
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        n = samples.shape[0]
        return cls(samples, np.full(n, 1.0 / n))


class BLResult:
    def __init__(self, distance: float, witness: np.ndarray, support: np.ndarray, status: str):
        self.distance = distance
        self.witness = witness      # optimal h_i at each merged-support point
        self.support = support      # (K, d) merged support the witness lives on
        self.status = status        # 'optimal' or 'iteration_limit'


def coarsen(measure: EmpiricalMeasure, resolution: float) -> EmpiricalMeasure:
    """Snap support points to a grid of the given resolution, merging weights.

    Lipschitz-1 test functions give a coarsening error of at most
    2*resolution in d_BL.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    snapped = np.round(measure.points / resolution) * resolution
    return EmpiricalMeasure(*_merge(snapped, measure.weights))


def _merge(points: np.ndarray, weights: np.ndarray):
    """The distinct rows of points, sorted, each with the summed weight of its copies.

    The sort is stable, so each row's copies are summed in their input order.
    """
    order = np.lexsort(points.T[::-1])           # the first column is the primary key
    rows = points[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    w = np.zeros(np.count_nonzero(first))
    np.add.at(w, np.cumsum(first) - 1, weights[order])
    return rows[first], w


def _merge_support(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    return _merge(np.vstack([mu.points, nu.points]), np.concatenate([mu.weights, -nu.weights]))


def dbl(mu: EmpiricalMeasure, nu: EmpiricalMeasure, witness: bool = True) -> BLResult:
    """Bounded-Lipschitz distance on the merged support.

    A chain DP in d = 1; in d >= 2 an assignment when both measures have
    the same number of points and one common weight, else an LP.  witness
    False leaves the assignment's witness out (None), and its potentials.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"measures live in dimensions {mu.dim} and {nu.dim}")
    support, c = _merge_support(mu, nu)
    K = len(support)
    if K == 1 or np.max(np.abs(c)) == 0.0:
        # identical supports with cancelling weights, or a single point:
        # the optimum is |sum c| from the cap ||h||_inf <= 1
        h = np.ones(K) if c.sum() >= 0 else -np.ones(K)
        return BLResult(distance=abs(float(c.sum())), witness=h, support=support,
                        status="optimal")
    if support.shape[1] > 1:
        w = mu.weights
        if len(w) == len(nu.weights) and np.all(w == w[0]) and np.all(nu.weights == w[0]):
            return _dbl_assignment(mu.points, nu.points, float(w[0]), support, witness)
        return _dbl_lp(support, c)
    h = _chain_witness(support[:, 0], c)   # _merge sorted the support
    return BLResult(distance=float(c @ h), witness=h, support=support, status="optimal")


def _chain_witness(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximizer of c.h over |h_i| <= 1, |h_{i+1} - h_i| <= g_i = z_{i+1} - z_i.

    Forward pass: V_1(h) = c_1 h and
    V_{i+1}(h) = c_{i+1} h + max_{|h' - h| <= g_i} V_i(h') on [-1, 1].
    Each V_i is concave piecewise linear, held as (position, slope drop)
    breakpoints in two deques, nearest the peak first: the left one at
    raw - s, the right one mirrored, at -(raw - s).  The max over the
    window moves each side outward by g_i, which is s += g_i; the clip to
    [-1, 1] pops from the far ends and pushes a wall of infinite drop;
    adding c_{i+1} h moves breakpoints across the peak until the slope
    changes sign, splitting at most one.  Only the peak's left end is
    kept, clamped to [-1, 1] against rounding.  Backward pass: given
    h_{i+1}, the best h_i is the point of its window nearest to V_i's peak.
    """
    g = np.diff(z, append=z[-1]).tolist()    # a last gap of 0 ends the forward pass
    c, K, inf, s = c.tolist(), len(c), float("inf"), 0.0
    left, right = deque([(-1.0, inf)]), deque([(-1.0, inf)])
    h = [0.0] * K                            # the peak of V_i, then h_i
    for i in range(K):
        a, src, dst = (c[i], right, left) if c[i] > 0.0 else (-c[i], left, right)
        while a > 0.0:
            x, d = src.popleft()
            if d > a:
                src.appendleft((x, d - a))
                d = a
            dst.appendleft((2.0 * s - x, d))
            a -= d
        h[i] = min(max(left[0][0] - s, -1.0), 1.0)
        s += g[i]
        for side in (left, right):
            while side and side[-1][0] - s <= -1.0:
                side.pop()
            side.append((s - 1.0, inf))
        if s > 2.0:     # back to s = 0: a raw position near s keeps only ulp(s)
            left, right = (deque((x - s, d) for x, d in side) for side in (left, right))
            s = 0.0
    for i in range(K - 2, -1, -1):
        h[i] = min(max(h[i], h[i + 1] - g[i]), h[i + 1] + g[i])
    return np.array(h)


def _truncated_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(||a_i - b_j||_2, 2) for every pair of rows; a square that
    overflows gives inf, hence 2."""
    with np.errstate(over="ignore"):
        total, diff = np.zeros((len(a), len(b))), np.empty((len(a), len(b)))
        for k in range(a.shape[1]):     # no (n, n, d) temporaries
            total += np.square(np.subtract.outer(a[:, k], b[:, k], out=diff), out=diff)
        return np.minimum(np.sqrt(total, out=total), 2.0, out=total)


def _dbl_assignment(x: np.ndarray, y: np.ndarray, w: float, support: np.ndarray,
                    witness: bool) -> BLResult:
    """d_BL of sum_k w delta_{x_k} and sum_k w delta_{y_k} as an assignment.

    With C(a, b) = min(||a - b||, 2), an optimal matching sigma gives
    d = w * sum_k C_k, C_k = C(x_k, y_sigma(k)).  The witness comes from
    potentials u on the x's with u_i <= u_k + C(x_i, y_sigma(k)) - C_k,
    shortest paths by Bellman-Ford relaxation from u = 0 (an optimal
    sigma leaves no negative cycle).  Then

        h(z) = min_k u_k - C_k + C(z, y_sigma(k))

    is 1-Lipschitz for the truncated metric, so its range is at most 2
    wide; h(x_i) = u_i and h(y_sigma(k)) <= u_k - C_k give c.h >= d,
    hence c.h = d.  Shifting h by its midrange moves it into [-1, 1]
    without changing c.h, since both measures have the same mass.
    """
    C = _truncated_distances(x, y)
    _, sigma = linear_sum_assignment(C)
    Ck = C[np.arange(len(x)), sigma]
    h = None
    if witness:
        u, _ = _potentials(C[:, sigma].T - Ck[:, None])   # A[k, i] = C(x_i, y_sigma(k)) - C_k
        h = np.min(u - Ck + _truncated_distances(support, y[sigma]), axis=1)
        h = np.clip(h - (h.max() + h.min()) / 2, -1.0, 1.0)
    return BLResult(distance=w * float(Ck.sum()), witness=h, support=support,
                    status="optimal")


def _potentials(A: np.ndarray):
    """(u, rounds): Bellman-Ford from u = 0 on u_i <= u_k + A[k, i], A[k, k] = 0.

    A round relaxes only from the rows whose u fell in the round before, as
    the others bound u already.  Rounding can leave cycles of about -1e-17
    that never settle, but the witness is 1-Lipschitz whatever u is: n rounds cap it.
    """
    u, changed = np.zeros(len(A)), np.arange(len(A))
    for rounds in range(1, len(A) + 1):
        relaxed = np.minimum(u, np.min(u[changed][:, None] + A[changed], axis=0))
        changed = np.flatnonzero(relaxed < u)
        if not changed.size:
            break
        u = relaxed
    return u, rounds


def _dbl_lp(support: np.ndarray, c: np.ndarray) -> BLResult:
    """The LP with a pair constraint per pair of support points (any d).

    The pair distances are capped at 2: a row with d_ij >= 2 is already
    implied by |h| <= 1.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    K = len(support)
    dist = _truncated_distances(support, support)
    iu, ju = np.triu_indices(K, k=1)

    # rows: D h <= d and -D h <= d, row p of D being e_i - e_j for pair p = (i, j)
    E = sparse.eye(K, format="csr")
    D = E[iu] - E[ju]
    A_ub = sparse.vstack([D, -D], format="csr")
    b_ub = np.tile(dist[iu, ju], 2)

    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs")
    if res.status == 1:
        return BLResult(distance=float(-res.fun), witness=res.x, support=support,
                        status="iteration_limit")
    if res.status != 0:
        raise SolverFailure(f"LP failed with status {res.status}: {res.message}")
    return BLResult(distance=float(-res.fun), witness=res.x, support=support,
                    status="optimal")


def optimal_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure, pair: str) -> float:
    """d_BL(mu, nu), witness not needed; SolverFailure naming ``pair`` if not optimal."""
    res = dbl(mu, nu, witness=False)
    if res.status != "optimal":
        raise SolverFailure(f"d_BL of {pair} ended with status {res.status!r}, "
                            "not at the optimum")
    return res.distance


def cesaro_defect(laws):
    """Averaged one-period-apart d_BL over a sequence of law snapshots.

    laws[m] is the law at time m*T.  Returns (unrestricted, restricted,
    terms): terms[m] = d_BL(law_{m+1}, law_m), their sum over n + 1, and,
    with uniform weights p_m = 1/(n+1), sum_m p_m d_BL(p_m law_{m+1}, p_m law_m),
    the indicator-weighted (sub-probability) value that the first dominates.
    """
    laws = list(laws)
    n = len(laws) - 1
    if n < 1:
        raise ValueError("need at least 2 laws")
    p = 1.0 / (n + 1)
    terms = np.array([optimal_distance(laws[m + 1], laws[m], f"law[{m + 1}] and law[{m}]")
                      for m in range(n)])
    return float(np.sum(terms) / (n + 1)), float(np.sum(p * p * terms)), terms
