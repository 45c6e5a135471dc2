"""Independent reference computations for the benchmark's output checks.

Nothing here calls wperturb: each function recomputes a quantity the
package also computes, by another route, so that a check compares two
computations rather than one computation with itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def w1_line(xs, p, q) -> float:
    """W1 on the real line: the integral of |F_p - F_q| between the points."""
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    xs = xs[order]
    gap = np.cumsum(np.asarray(p, dtype=float)[order] - np.asarray(q, dtype=float)[order])
    return float(np.abs(gap[:-1]) @ np.diff(xs))


def w1_trivial(p, q) -> float:
    """W1 under d(x, y) = 2 * 1{x != y}: the sum of |p - q|."""
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


def w1_weighted(V, p, q) -> float:
    """W1 under d_V(x, y) = (V(x) + V(y)) * 1{x != y}: the sum of V |p - q|."""
    diff = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    return float(np.asarray(V, dtype=float) @ diff)


# HiGHS's default feasibility tolerances (1e-7) left about one sweep W1 in
# 5,000 off by up to 1.1e-7; at 1e-10, the tightest it takes, the largest
# error over 9,600 sweep distances was 1.3e-14
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _marginals(n: int):
    """Equality constraints of an n x n plan, flattened by rows: row sums
    equal p, column sums equal q (the last column constraint is implied by
    the others and dropped), with right-hand side concat(p, q[:-1])."""
    rows = sparse.kron(sparse.eye(n), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(n)).tocsr()[:-1]
    return sparse.vstack([rows, cols]).tocsr()


def w1_linprog(dist, p, q) -> float:
    """W1 under a metric matrix, as a transportation LP solved by HiGHS."""
    dist = np.asarray(dist, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    res = linprog(dist.ravel(), A_eq=_marginals(dist.shape[0]),
                  b_eq=np.concatenate([p, q[:-1]]),
                  bounds=(0, None), method="highs", options=_HIGHS)
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def tau_linprog(dist, M, tol: float) -> tuple:
    """Bracket the ergodicity coefficient of M under a metric matrix:
    (lo, hi) with lo <= max_{i<j} W1(M_i, M_j) / d(i, j) <= hi, given
    each W1 to within ``tol``.  All row pairs go into one block-diagonal
    transportation LP solved by HiGHS; the blocks share no variable or
    constraint, so each block of an optimum is optimal for its own pair."""
    dist = np.asarray(dist, dtype=float)
    M = np.asarray(M, dtype=float)
    n = dist.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    res = linprog(np.tile(dist.ravel(), len(pairs)),
                  A_eq=sparse.block_diag([_marginals(n)] * len(pairs), format="csr"),
                  b_eq=np.concatenate([np.concatenate([M[i], M[j, :-1]]) for i, j in pairs]),
                  bounds=(0, None), method="highs", options=_HIGHS)
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    w1 = res.x.reshape(len(pairs), n * n) @ dist.ravel()
    d = np.array([dist[i, j] for i, j in pairs])
    return float(np.max((w1 - tol) / d)), float(np.max((w1 + tol) / d))


def tau_line(xs, M) -> float:
    """Ergodicity coefficient under |x - y|: max over row pairs of the
    CDF-formula W1 between the rows over the distance between the points."""
    xs = np.asarray(xs, dtype=float)
    M = np.asarray(M, dtype=float)
    worst = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            worst = max(worst, w1_line(xs, M[i], M[j]) / abs(xs[i] - xs[j]))
    return worst


def stationary_eig(M) -> np.ndarray:
    """Stationary law from the eigenvector of M^T whose eigenvalue is nearest 1."""
    vals, vecs = np.linalg.eig(np.asarray(M, dtype=float).T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    return v / v.sum()


def folded_normal_mean(m: float, s: float) -> float:
    """E|X| for X ~ N(m, s^2)."""
    if s == 0.0:
        return abs(m)
    return (s * math.sqrt(2.0 / math.pi) * math.exp(-m * m / (2.0 * s * s))
            + m * math.erf(m / (s * math.sqrt(2.0))))


def ar1_coupled_mean_dev(alpha: float, alpha_t: float, mean: float, sd: float,
                         x0: float, n: int) -> float:
    """E|X_n - Xt_n| for two AR(1) chains from x0 driven by the same N(mean, sd^2)
    innovations: X_n - Xt_n is Gaussian with

        mean (alpha^n - alpha_t^n) x0 + mean * sum_{j<n} (alpha^j - alpha_t^j),
        variance sd^2 * sum_{j<n} (alpha^j - alpha_t^j)^2.
    """
    c = [alpha ** j - alpha_t ** j for j in range(n)]
    m = (alpha ** n - alpha_t ** n) * x0 + mean * sum(c)
    s = sd * math.sqrt(sum(cj * cj for cj in c))
    return folded_normal_mean(m, s)
