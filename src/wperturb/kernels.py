"""Finite Markov kernels: ergodicity coefficients and drift conditions.

The generalized ergodicity coefficient of a kernel P under a metric d is

    tau(P) = sup_{x != y} W(P(x, .), P(y, .)) / d(x, y),

computed exactly from the row-pair distances of ``otcore._w1``.  It is
submultiplicative over composition and contracts Wasserstein distances
between distributions, which is what turns one-step estimates into
geometric (C, rho) rates.  Under a star metric
``(g(x) + g(y)) 1{x != y}`` (d_V with g = V, the trivial metric with
g = 1) the coefficient has the transport-free closed form of ``tau_v``.
Every other sup of a W1 ratio is one ``_sup_w1_ratio`` call over a list
of candidates: for ``tau`` the n - 1 neighbouring pairs on a line (the
sup is attained there) and all pairs of states otherwise, for the
one-step gamma of ``kernel_gamma_wasserstein`` the rows.  Only the
candidates that can still attain the sup get a W1 solve: the cost of a
cheap feasible plan bounds each one and orders the solves, and the sweep
stops once no remaining bound can beat the best exact ratio.  The result
is the all-candidates value bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._checks import _check_C, _check_count, _check_positive, _check_unit
from ._checks import _check_index, _float_array, _require_same_points
from ._transport import CERT_TOL
from .errors import NoContractionError, NonUniqueStationaryError
from .otcore import (
    METRIC_TOL,
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    _blocks,
    _w1,
)

ROW_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
DRIFT_SLACK_TOL = 1e-10
_EIG_ONE_TOL = 1e-8
# ``_sup_w1_ratio`` skips a candidate only when its plan bound ub (see
# ``_plan_bounds``), widened to (ub + slack) * (1 + _PRUNE_REL) / scale, is
# below the best solved ratio.  The widening covers all that may put a
# solved W1 above the computed plan cost.  Write pos and neg for the parts
# of the row difference, sp and sn for their masses, and D for max dist;
# sp <= 1 + ROW_TOL and |sp - sn| <= 2 * ROW_TOL.
#   * On the transport route ``_w1`` returns the cost of the lifted plan,
#     diag(min(rows)) + sp * sub, where sub solves pos / sp onto neg / sn.
#     Its certificate leaves sub at most 2 * CERT_TOL * max(1, D) above the
#     product plan (pos / sp) x (neg / sn), so the value is at most
#     pos @ dist @ neg / sn + 2 * sp * CERT_TOL * max(1, D); dividing by sn
#     rather than max(sp, sn) adds at most D * |sp - sn| <= 2 * ROW_TOL * D.
#   * When rounding leaves pos or neg empty, ub is 0 and ``_w1`` solves
#     each row at unit mass over its support, scaled by the first row's
#     mass m <= 1 + ROW_TOL; the two unit rows differ by at most
#     4 * ROW_TOL / m in l1, so the value is at most
#     2 * ROW_TOL * D + 2 * m * CERT_TOL * max(1, D).
#   * The line and star closed forms give the exact W1 of the rows once at
#     most 2 * ROW_TOL of mass is added to balance them, so they too lie
#     at most 2 * ROW_TOL * D above ub.
#   * The kept mass sits on a diagonal that is zero only to METRIC_TOL.
# The slack, 4 * (CERT_TOL * max(1, D) + ROW_TOL * D) + METRIC_TOL, is
# about twice these terms: the spare half covers float rounding in the
# rescaling, the solve and the certificate's own sums, which stays far
# below it.  _PRUNE_REL covers rounding in the bound and ratio.
_PRUNE_REL = 1e-9


class FiniteKernel:
    """Row-stochastic transition matrix on a finite metric space."""

    def __init__(self, space: FiniteMetricSpace, matrix) -> None:
        n = space.size
        matrix = _float_array(matrix, (n, n), "kernel entries")
        if np.min(matrix, initial=0.0) < 0.0:
            raise ValueError("kernel entries must be nonnegative")
        rowsums = matrix.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0), initial=0.0) > ROW_TOL:
            worst = int(np.argmax(np.abs(rowsums - 1.0)))
            raise ValueError(f"row {worst} sums to {rowsums[worst]!r}, not 1")
        self.space = space
        self.matrix = matrix
        self.matrix.setflags(write=False)
        # the kernels of P^1..P^j and the raw product P^j, taken by _power
        # on first use: the fits under every metric share them
        self._powers = ([], None)
        self._verified = {}  # the bounds._Instance objects verified with this P

    def _power(self, j: int) -> "FiniteKernel":
        """P^j for j >= 1: the repeated product, rows renormalised."""
        kernels, raw = self._powers
        while len(kernels) < j:
            raw = (np.eye(self.space.size) if raw is None else raw) @ self.matrix
            kernels.append(FiniteKernel(self.space, raw / raw.sum(axis=1, keepdims=True)))
            self._powers = (kernels, raw)
        return kernels[j - 1]

    def row(self, i: int) -> DiscreteDistribution:
        _check_index(self.space.size, i=i)
        return DiscreteDistribution(self.space, self.matrix[i])

    def apply_to_function(self, values) -> np.ndarray:
        """(P f)(x) = sum_y P(x, y) f(y)."""
        return self.matrix @ np.asarray(values, dtype=float)

    def push(self, p: DiscreteDistribution) -> DiscreteDistribution:
        """One step of the chain started from p."""
        _require_same_points(P=self, p=p)
        return DiscreteDistribution(self.space, p.weights @ self.matrix)

    def __repr__(self) -> str:
        return f"FiniteKernel(n={self.space.size})"


def compose(P: FiniteKernel, Q: FiniteKernel) -> FiniteKernel:
    """The kernel of 'one step of P then one step of Q'."""
    _require_same_points(P=P, Q=Q)
    return FiniteKernel(P.space, P.matrix @ Q.matrix)


def _walk(w: np.ndarray, matrix: np.ndarray, n: int) -> list[np.ndarray]:
    """[w, w M, ..., w M^n] on raw weight rows: the one evolve loop."""
    _check_count(0, n=n)
    out = [w]
    for _ in range(n):
        out.append(out[-1] @ matrix)
    return out


def evolve(p0: DiscreteDistribution, P: FiniteKernel, n: int) -> DiscreteDistribution:
    """Distribution of the chain after n steps from p0."""
    _require_same_points(P=P, p0=p0)
    return DiscreteDistribution(P.space, _walk(p0.weights, P.matrix, n)[-1])


def trajectory(p0: DiscreteDistribution, P: FiniteKernel, n: int) -> list[DiscreteDistribution]:
    """[p0, p0 P, ..., p0 P^n]."""
    _require_same_points(P=P, p0=p0)
    steps = _walk(p0.weights, P.matrix, n)[1:]
    return [p0] + [DiscreteDistribution(P.space, w) for w in steps]


def stationary_distribution(P: FiniteKernel) -> DiscreteDistribution:
    """The unique pi with pi P = pi.

    Uniqueness is certified first: the eigenvalue-1 space of the
    transpose must be one-dimensional (reducible chains, e.g. the
    identity kernel, are rejected).  The solve itself is least squares
    on the stationarity equations plus normalization; its result, clipped
    at 0 and renormalised, is what the residual check to
    STATIONARY_RESIDUAL_TOL certifies.
    """
    n = P.space.size
    eigvals = np.linalg.eigvals(P.matrix.T)
    n_one = int(np.sum(np.abs(eigvals - 1.0) < _EIG_ONE_TOL))
    if n_one != 1:
        raise NonUniqueStationaryError(
            f"eigenvalue-1 space has dimension {n_one}; stationary distribution "
            "is not unique (chain reducible or nearly so)"
        )
    A = np.vstack([P.matrix.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ P.matrix - pi).sum())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NonUniqueStationaryError(
            f"stationarity residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL:.0e}"
        )
    return DiscreteDistribution(P.space, pi)


def tau(P: FiniteKernel, metric: FiniteMetricSpace) -> float:
    """Generalized ergodicity coefficient under a metric: worst pairwise
    transport distance between rows relative to the points' distance.

    Under a star metric this is the ``tau_v`` closed form.  Every other
    metric goes through ``_sup_w1_ratio``: a pair is solved only while its
    widened plan bound can still beat the best ratio solved so far.  On a
    line the candidates are the n - 1 neighbouring pairs: for x < y < z,
    d(x, z) = d(x, y) + d(y, z) while W1 obeys the triangle inequality, so
    the ratio at (x, z) never exceeds the larger of the two beside it.
    Under any other metric they are all pairs of states.
    """
    _require_same_points(P=P, metric=metric)
    if metric._star is not None:
        return _tau_star(P.matrix, metric._star)
    if metric._pairs is None:
        # the candidates depend only on the metric, which is read-only
        if metric._line is None:
            ia, ib = np.triu_indices(metric.size, k=1)
        else:
            order = metric._line[0]
            ia, ib = order[:-1], order[1:]
        metric._pairs = (ia, ib, metric.dist[ia, ib])
    return _sup_w1_ratio(P.matrix, P.matrix, *metric._pairs, metric)


def _plan_bounds(A: np.ndarray, B: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                 dist: np.ndarray) -> np.ndarray:
    """Per candidate k, the cost of a feasible plan from A[ia[k]] to B[ib[k]].

    The plan is the one ``otcore._w1`` uses on star metrics: the common mass
    stays put and the excess ``pos`` is spread over the deficit ``neg`` in
    proportion, at cost ``pos @ dist @ neg / max(sum pos, sum neg)``.  By
    the triangle inequality this never exceeds the best single-hub route
    ``min_h sum_z |A[ia[k]] - B[ib[k]]|_z dist(z, h)``.
    """
    n = max(len(dist), 1)
    ub = np.empty(len(ia))
    for s in range(0, len(ia), n):  # n candidates at a time: (n, n) temporaries
        k = slice(s, s + n)
        d = A[ia[k]] - B[ib[k]]
        pos = np.maximum(d, 0.0)
        neg = np.maximum(-d, 0.0)
        mass = np.maximum(pos.sum(axis=1), neg.sum(axis=1))
        ub[k] = ((pos @ dist) * neg).sum(axis=1) / np.where(mass > 0.0, mass, 1.0)
    return ub


def _sup_w1_ratio(A: np.ndarray, B: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                  scale: np.ndarray, metric: FiniteMetricSpace) -> float:
    """max(0, max_k W(A[ia[k]], B[ib[k]]) / scale[k]), each W from ``_w1``.

    Candidates are solved in falling order of their plan bounds, widened as
    the note at ``_PRUNE_REL`` describes so that none falls below the ratio
    its solve would return, and the sweep stops at the first widened bound
    below the best solved ratio.  Every candidate left unsolved would have
    given a ratio strictly below that best, so the result is the
    all-candidates max bit for bit: a max of floats does not depend on the
    order it is taken in, and the candidate attaining it, ties included, is
    never skipped.
    """
    ub = _plan_bounds(A, B, ia, ib, metric.dist)
    maxd = float(metric.dist.max(initial=0.0))
    slack = 4.0 * (CERT_TOL * max(1.0, maxd) + ROW_TOL * maxd) + METRIC_TOL
    wide = (ub + slack) * (1.0 + _PRUNE_REL) / scale
    worst = 0.0
    for k in np.argsort(-wide, kind="stable"):
        if wide[k] < worst:
            break
        w = _w1(A[ia[k]], B[ib[k]], metric)[0] / scale[k]
        if w > worst:
            worst = w
    return worst


def _tau_star(M: np.ndarray, g: np.ndarray) -> float:
    """max_{x!=y} sum_z g(z) |M(x,z) - M(y,z)| / (g(x) + g(y))."""
    # a block X of rows x at a time: (len(X), n, n) temporaries of about
    # 2 MiB instead of one (n, n, n); the stacked product takes each x's
    # (n, n) slab as the one-row product does, so it rounds the same
    worst = 0.0
    for X in _blocks(len(M)):
        diff = M[X][:, None, :] - M
        num = np.abs(diff, out=diff) @ g
        ratio = num / (g[X][:, None] + g)
        r = np.arange(len(ratio))
        ratio[r, X.start + r] = 0.0
        worst = max(worst, float(ratio.max()))
    return worst


def tau_v(P: FiniteKernel, V: WeightFunction) -> float:
    """tau under d_V, via the closed form max_{x!=y} ||P(x,.) - P(y,.)||_V / (V(x)+V(y))."""
    _require_same_points(P=P, V=V)
    return _tau_star(P.matrix, V.values)


@dataclass(frozen=True)
class ErgodicityEstimate:
    """Certificate tau(P^n) <= C rho^n, valid for all n by submultiplicativity."""

    C: float
    rho: float
    m: int
    metric_tag: str  # 'base' | 'd_V' | 'trivial'
    n_checked: int

    def __post_init__(self):
        _check_unit(rho=self.rho)
        _check_C(self.C)


@dataclass(frozen=True)
class DriftEstimate:
    """Certificate (P V)(x) <= delta V(x) + L at every point."""

    V: WeightFunction
    delta: float
    L: float

    def __post_init__(self):
        _check_unit(delta=self.delta)
        _check_positive(L=self.L)


@dataclass(frozen=True)
class DriftCheck:
    ok: bool
    worst_slack: float
    worst_index: int  # lowest index attaining the worst slack


def verify_drift(P: FiniteKernel, est: DriftEstimate) -> DriftCheck:
    """Check (P V)(x) - delta V(x) - L <= 0 pointwise."""
    _require_same_points(P=P, V=est.V)
    slack = P.apply_to_function(est.V.values) - est.delta * est.V.values - est.L
    worst = int(np.argmax(slack))  # argmax returns the first (lowest) index
    return DriftCheck(ok=bool(slack[worst] <= DRIFT_SLACK_TOL),
                      worst_slack=float(slack[worst]), worst_index=worst)


def fit_drift_L(P: FiniteKernel, V: WeightFunction, delta: float) -> float:
    """Smallest positive L making the drift condition hold at every point."""
    _check_unit(delta=delta)
    _require_same_points(P=P, V=V)
    gap = P.apply_to_function(V.values) - delta * V.values
    return max(1e-12, float(gap.max()))


def fit_geometric_constants(P: FiniteKernel,
                            metric: Union[FiniteMetricSpace, WeightFunction],
                            m: int = 8, n_check: int = 16) -> ErgodicityEstimate:
    """Fit (C, rho) with tau(P^n) <= C rho^n for all n >= 0.

    rho is read off the m-step coefficient, rho = tau(P^m)^(1/m), and
    C = max_{0 <= j < m} tau(P^j) / rho^j.  Submultiplicativity then
    extends the bound to every n; the first n_check powers are verified
    numerically anyway.  ``metric`` may be a FiniteMetricSpace (``tau``,
    with whatever route its constructor chose) or a WeightFunction (d_V
    closed form).

    Raises NoContractionError when tau(P^m) >= 1.
    """
    _check_count(1, m=m, n_check=n_check)
    if n_check < m:
        raise ValueError("n_check must be >= m")
    if isinstance(metric, WeightFunction):
        tag = "trivial" if np.all(metric.values == 1.0) else "d_V"
        coeff = lambda K: tau_v(K, metric)
    else:
        tag = "base"
        coeff = lambda K: tau(K, metric)
    taus = [1.0] + [coeff(P._power(j)) for j in range(1, n_check + 1)]
    if taus[m] >= 1.0:
        raise NoContractionError(
            f"tau(P^{m}) = {taus[m]:.6f} >= 1; no contraction at horizon m={m}"
        )
    rho = taus[m] ** (1.0 / m)
    if rho == 0.0:
        if any(t > 0.0 for t in taus[1:m]):
            raise NoContractionError(
                "tau vanishes at horizon m but not at smaller powers; decrease m"
            )
        C = 1.0
    else:
        C = max(taus[j] / rho ** j for j in range(m))
    C = max(C, 1.0)
    for n in range(n_check + 1):
        if taus[n] > C * rho ** n * (1.0 + 1e-9) + 1e-12:
            raise NoContractionError(
                f"certificate tau(P^n) <= C rho^n fails at n={n} "
                f"({taus[n]:.3e} > {C * rho ** n:.3e})"
            )
    return ErgodicityEstimate(C=float(C), rho=float(rho), m=m,
                              metric_tag=tag, n_checked=n_check)


def kernel_gamma_wasserstein(P: FiniteKernel, Pt: FiniteKernel,
                             metric: FiniteMetricSpace,
                             Vt: WeightFunction | None = None) -> float:
    """One-step perturbation size sup_x W(P(x,.), Pt(x,.)) / Vt(x).

    A row is solved only while its widened plan bound can still beat the
    best ratio solved so far (``_sup_w1_ratio``).
    """
    _require_same_points(P=P, Pt=Pt, metric=metric, Vt=Vt)
    vt = np.ones(P.space.size) if Vt is None else Vt.values
    rows = np.arange(P.space.size)
    return _sup_w1_ratio(P.matrix, Pt.matrix, rows, rows, vt, metric)


def kernel_gamma_tv(P: FiniteKernel, Pt: FiniteKernel,
                    Vt: WeightFunction | None = None) -> float:
    """One-step perturbation size in total variation, sup_x ||P(x,.) - Pt(x,.)||_tv / Vt(x)."""
    _require_same_points(P=P, Pt=Pt, Vt=Vt)
    vt = np.ones(P.space.size) if Vt is None else Vt.values
    tv = np.abs(P.matrix - Pt.matrix).sum(axis=1)
    return float(np.max(tv / vt))


def kernel_gamma_vnorm(P: FiniteKernel, Pt: FiniteKernel, V: WeightFunction,
                       Vt: WeightFunction | None = None) -> float:
    """One-step perturbation size sup_x ||P(x,.) - Pt(x,.)||_V / Vt(x).

    With Vt = V this is the quantity entering the single-weight geometric
    corollary; by d_V duality it equals kernel_gamma_wasserstein under
    dv_metric(V).
    """
    _require_same_points(P=P, Pt=Pt, V=V, Vt=Vt)
    vt = np.ones(P.space.size) if Vt is None else Vt.values
    num = np.abs(P.matrix - Pt.matrix) @ V.values
    return float(np.max(num / vt))
