"""Finite metric spaces, distributions, and exact Wasserstein-1 distances.

Everything here is exact in the linear-programming sense.  ``_w1`` is the
one place that picks how a Wasserstein distance is computed:

  * on a space built by ``line_metric``, W1 is the integral of
    |F_mu - F_nu| and the monotone (quantile) coupling is optimal;
  * on a space built by ``trivial_metric`` or ``dv_metric``, whose metric
    is a "star" ``(g(x) + g(y)) 1{x != y}``, W1 is ``sum_x g(x)
    |mu(x) - nu(x)|``;
  * on any other space, including a ``FiniteMetricSpace`` built directly
    from a matrix, W1 comes from a min-cost transport solve.  Under a
    metric cost W1 depends only on mu - nu (Kantorovich-Rubinstein) and
    some optimal plan leaves the common mass min(mu, nu) in place, so the
    solve moves only the excess onto the deficit, each scaled to unit
    mass: a problem about half the size on each side.  Points without
    mass are dropped here, before the solve, which takes only positive
    histograms; the lift gives them potentials by the c-transform.

Every route returns a full-size plan and dual potentials ``(f, -f)`` that
pass the same optimality certificate on the whole space, so a wrong
closed form or a wrong lift raises rather than returning a wrong
distance.  The bound checks ask for many identical distances, so the
transport route keeps its certified results in ``_transport._memo``, a
bounded LRU (4,096 entries, 64 MiB) keyed on the exact bytes of the whole
problem ``(n, mu, nu, dist)``: a repeat costs one lookup and a copy of the
stored plan, and every caller gets its own copy.

Total variation and the weighted norm ``sum_x V(x) |mu(x) - nu(x)|`` are
closed forms too; they equal W1 under the trivial metric and under
``d_V(x, y) = (V(x) + V(y)) 1{x != y}``.  The test suite cross-checks
each closed form against the transport solve on an untagged copy of the
same space.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _transport
from .errors import SpaceMismatchError

MASS_TOL = 1e-12
METRIC_TOL = 1e-12


class FiniteMetricSpace:
    """A finite point set together with a validated metric matrix.

    Args:
        points: hashable labels, one per state.
        dist: (n, n) array; must be symmetric, zero-diagonal, positive
            off the diagonal and satisfy the triangle inequality (all up
            to ``METRIC_TOL``).
    """

    def __init__(self, points: Sequence, dist) -> None:
        points = list(points)
        n = len(points)
        dist = np.array(dist, dtype=float)
        if dist.shape != (n, n):
            raise ValueError(f"distance matrix shape {dist.shape} != ({n}, {n})")
        if not np.all(np.isfinite(dist)):
            raise ValueError("distances must be finite")
        if n and np.max(np.abs(np.diagonal(dist))) > METRIC_TOL:
            raise ValueError("metric diagonal must be zero")
        if np.max(np.abs(dist - dist.T), initial=0.0) > METRIC_TOL:
            raise ValueError("metric must be symmetric")
        if n > 1:
            off = dist[~np.eye(n, dtype=bool)]
            if np.min(off) <= 0.0:
                raise ValueError("off-diagonal distances must be positive")
        # triangle inequality, checked one intermediate point at a time to
        # avoid materialising an (n, n, n) tensor
        for j in range(n):
            slack = dist - (dist[:, j][:, None] + dist[j, :][None, :])
            if np.max(slack) > METRIC_TOL:
                raise ValueError("triangle inequality fails")
        self.points = points
        self.dist = dist
        self.dist.setflags(write=False)
        # structure recorded by the constructors below, read by _w1 and
        # kernels.tau: (order, sorted coordinates) of a line, or the g of
        # a star metric (g(x) + g(y)) 1{x != y}
        self._line = None
        self._star = None
        # dist.tobytes(), taken by _w1 on first use as part of its memo key
        self._dist_bytes = None
        # max(dist), which sets the tolerance of every certificate _w1 checks
        self._dist_max = float(np.max(dist)) if n else 1.0

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={len(self.points)})"

    def same_points(self, other: "FiniteMetricSpace") -> bool:
        return self is other or self.points == other.points


def trivial_metric(points: Sequence) -> FiniteMetricSpace:
    """The metric d(x, y) = 2 for x != y, under which W1 equals total variation."""
    n = len(list(points))
    space = FiniteMetricSpace(points, 2.0 * (1.0 - np.eye(n)))
    space._star = np.ones(n)
    return space


def line_metric(xs: Sequence[float], points: Optional[Sequence] = None) -> FiniteMetricSpace:
    """Distinct real locations with |x - y| as the metric; labels default to the xs."""
    xs = np.asarray(xs, dtype=float)
    dist = np.abs(xs[:, None] - xs[None, :])
    space = FiniteMetricSpace(list(xs) if points is None else points, dist)
    order = np.argsort(xs, kind="stable")
    space._line = (order, xs[order])
    return space


class WeightFunction:
    """Pointwise weights V >= 1 on a finite space."""

    def __init__(self, space: FiniteMetricSpace, values) -> None:
        values = np.array(values, dtype=float)
        if values.shape != (space.size,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(values)):
            raise ValueError("weights must be finite")
        if np.min(values, initial=np.inf) < 1.0 - 1e-12:
            raise ValueError("weight functions must satisfy V >= 1")
        self.space = space
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def ones(cls, space: FiniteMetricSpace) -> "WeightFunction":
        return cls(space, np.ones(space.size))

    def __repr__(self) -> str:
        return f"WeightFunction(min={self.values.min():.3g}, max={self.values.max():.3g})"


def dv_metric(V: WeightFunction) -> FiniteMetricSpace:
    """The metric (V(x) + V(y)) 1{x != y} induced by a weight function."""
    vals = V.values
    dist = vals[:, None] + vals[None, :]
    np.fill_diagonal(dist, 0.0)
    space = FiniteMetricSpace(V.space.points, dist)
    space._star = vals
    return space


class DiscreteDistribution:
    """Probability weights on a finite space (normalized within MASS_TOL)."""

    def __init__(self, space: FiniteMetricSpace, weights) -> None:
        w = np.array(weights, dtype=float)
        if w.shape != (space.size,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.min(w, initial=0.0) < 0.0:
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        self.space = space
        self.weights = w
        self.weights.setflags(write=False)

    def expectation(self, values) -> float:
        """Mean of a pointwise function, e.g. p(V) for a weight function."""
        values = np.asarray(values, dtype=float)
        return float(self.weights @ values)

    def __repr__(self) -> str:
        return f"DiscreteDistribution(n={self.space.size})"


def point_mass(space: FiniteMetricSpace, index: int) -> DiscreteDistribution:
    w = np.zeros(space.size)
    w[index] = 1.0
    return DiscreteDistribution(space, w)


class Coupling:
    """A joint distribution on space x space, stored as a dense matrix."""

    def __init__(self, space: FiniteMetricSpace, joint) -> None:
        joint = np.array(joint, dtype=float)
        n = space.size
        if joint.shape != (n, n):
            raise ValueError("coupling must be square on the space")
        if np.min(joint, initial=0.0) < -1e-15:
            raise ValueError("coupling entries must be nonnegative")
        if abs(float(joint.sum()) - 1.0) > MASS_TOL:
            raise ValueError("coupling mass must be 1")
        self.space = space
        self.joint = joint
        self.joint.setflags(write=False)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.joint.sum(axis=1), self.joint.sum(axis=0)

    def cost(self) -> float:
        """Transport cost of this coupling under the space's own metric."""
        return float(np.sum(self.joint * self.space.dist))


def _require_same_points(mu: DiscreteDistribution, nu: DiscreteDistribution,
                         space: Optional[FiniteMetricSpace] = None) -> None:
    if not mu.space.same_points(nu.space):
        raise SpaceMismatchError("distributions live on different point sets")
    if space is not None and not mu.space.same_points(space):
        raise SpaceMismatchError("metric space does not match the distributions")


def _w1(wa: np.ndarray, wb: np.ndarray, space: FiniteMetricSpace,
        ) -> tuple[float, np.ndarray]:
    """Exact W1 between two weight vectors on ``space`` and an optimal plan.

    Picks the closed form the space's constructor recorded, else a
    transport solve from the excess ``max(wa - wb, 0)`` onto the deficit
    ``max(wb - wa, 0)``, each scaled to unit mass.  That plan, scaled back
    by the excess mass, is lifted to full size by adding the common mass
    ``diag(min(wa, wb))``, and its value is the lifted plan's cost.  When
    rounding leaves the excess or the deficit empty (rows equal up to
    ``kernels.ROW_TOL``), the same solve moves all of ``wa`` onto ``wb``
    over their positive supports instead.  Every plan passes the
    transport solver's certificate on the full ``space.dist`` with the
    potentials ``u = f``, ``v = -f`` of a 1-Lipschitz f: an extremal one
    for the closed forms, the c-transform of the solve's column potentials
    for the transport route.  The transport route answers a problem it has
    certified before from ``_transport._memo`` without solving again; the
    closed forms are not memoised.
    """
    n = space.size
    if (wa == wb).all():
        return 0.0, np.diag(wa)
    if space._line is not None:
        order, xs = space._line
        p = wa[order]
        q = wb[order]
        # cumsum of the difference, not a difference of CDFs, so that
        # nearly equal rows keep their (tiny) positive distance
        c = np.cumsum(p - q)[:-1]
        gaps = np.diff(xs)
        value = float(np.abs(c) @ gaps)
        f = np.zeros(n)
        f[order] = np.concatenate(([0.0], np.cumsum(-np.sign(c) * gaps)))
        # monotone coupling: cell (i, j) carries the overlap of the i-th
        # and j-th quantile intervals (F and G share their last breakpoint)
        F = np.cumsum(p)
        G = np.cumsum(q)
        F[-1] = G[-1] = max(F[-1], G[-1])
        t = np.union1d(F, G)
        i = order[np.searchsorted(F, t)]
        j = order[np.searchsorted(G, t)]
        plan = np.zeros((n, n))
        plan[i, j] = np.diff(t, prepend=0.0)
    elif space._star is not None:
        g = space._star
        d = wa - wb
        value = float(g @ np.abs(d))
        f = np.sign(d) * g
        pos = np.maximum(d, 0.0)
        neg = np.maximum(-d, 0.0)
        # the two excess masses differ only by rounding; max never divides by 0
        plan = np.diag(np.minimum(wa, wb)) + np.outer(pos, neg) / max(pos.sum(), neg.sum())
    else:
        # the whole problem is the memo key, so a repeat skips the
        # extraction, the solve, the lift and the certificate; the metric
        # is read-only, so its bytes are taken once per space
        if space._dist_bytes is None:
            space._dist_bytes = space.dist.tobytes()
        key = (n, wa.tobytes(), wb.tobytes(), space._dist_bytes)
        hit = _transport._memo.get(key)
        if hit is not None:
            return hit[0], hit[1].copy()
        # W1 depends only on wa - wb, so the common mass min(wa, wb) stays
        # in place and only the excess is moved onto the deficit
        d = wa - wb
        ia = (d > 0.0).nonzero()[0]
        ib = (d < 0.0).nonzero()[0]
        plan = np.zeros((n, n))
        if ia.size and ib.size:
            a = d[ia]
            b = -d[ib]
            plan.ravel()[::n + 1] = np.minimum(wa, wb)
        else:
            # rows equal up to rounding leave one side empty: move all of
            # wa onto wb over their positive supports instead
            ia = (wa > 0.0).nonzero()[0]
            ib = (wb > 0.0).nonzero()[0]
            a = wa[ia]
            b = wb[ib]
        mass = a.sum()
        # the columns of the deficit, taken once for the solve and the
        # c-transform (take is cheaper than fancy indexing at these sizes)
        cols = space.dist.take(ib, axis=1)
        # each side at unit mass, so a tiny distance is solved to relative
        # accuracy; the plan is scaled back by the excess mass
        _, sub, _, v = _transport.solve(a / mass, b / b.sum(), cols.take(ia, axis=0))
        # the sub-plan's cells are off the diagonal (the excess and deficit
        # supports are disjoint), or the plan is still all zero
        plan[ia[:, None], ib] = mass * sub
        # the c-transform of the column potentials is 1-Lipschitz on the
        # whole space, so (f, -f) certifies the lifted plan on the full problem
        f = (cols - v).min(axis=1)
        value, plan = _transport._certify(wa, wb, space.dist, plan, f, -f,
                                          space._dist_max)[:2]
        # only a certified result reaches the memo, and callers get copies
        _transport._memo.put(key, (value, plan), plan.nbytes + sum(map(len, key[1:])))
        return value, plan.copy()
    _transport._certify(wa, wb, space.dist, plan, f, -f, space._dist_max)
    return value, plan


def wasserstein1_exact(mu: DiscreteDistribution, nu: DiscreteDistribution,
                       space: Optional[FiniteMetricSpace] = None,
                       ) -> tuple[float, Coupling]:
    """Exact Wasserstein-1 distance and an optimal coupling.

    ``space`` defaults to ``mu.space``; passing a different space with the
    same point set evaluates the distance under that metric instead (used
    for d_V and trivial-metric comparisons).  Spaces from ``line_metric``,
    ``trivial_metric`` and ``dv_metric`` use their closed forms; any other
    space goes through a certified transport solve of the excess of mu
    over nu onto its deficit, the common mass staying in place.  The
    returned plan is always full size.
    """
    if space is None:
        space = mu.space
    _require_same_points(mu, nu, space)
    value, plan = _w1(mu.weights, nu.weights, space)
    return value, Coupling(space, plan)


def total_variation(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """sum_x |mu(x) - nu(x)|; disjoint supports give 2.

    Equals ``wasserstein1_exact`` under the trivial metric.
    """
    _require_same_points(mu, nu)
    return _tv(mu.weights, nu.weights)


def _tv(wa: np.ndarray, wb: np.ndarray) -> float:
    """``total_variation`` on two weight vectors, unchecked."""
    return float(np.abs(wa - wb).sum())


def vnorm_distance(mu: DiscreteDistribution, nu: DiscreteDistribution,
                   V: WeightFunction) -> float:
    """sum_x V(x) |mu(x) - nu(x)|, the V-weighted norm of mu - nu.

    Equals ``wasserstein1_exact`` under ``dv_metric(V)``; the extremal
    dual function is f = sign(mu - nu) * V.
    """
    _require_same_points(mu, nu)
    if not V.space.same_points(mu.space):
        raise SpaceMismatchError("weight function lives on a different point set")
    return _vnorm(mu.weights, nu.weights, V.values)


def _vnorm(wa: np.ndarray, wb: np.ndarray, v: np.ndarray) -> float:
    """``vnorm_distance`` on two weight vectors and the values of V, unchecked."""
    return float(v @ np.abs(wa - wb))


def empirical_w1_1d(xs, ys) -> float:
    """W1 between two equal-size empirical measures on the real line.

    Both samples must be sorted ascending; the optimal matching then
    pairs order statistics, so the distance is mean |x_(i) - y_(i)|.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    if xs.size != ys.size:
        raise ValueError(f"sample sizes differ: {xs.size} vs {ys.size}")
    if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
        raise ValueError("samples must be sorted ascending")
    return float(np.mean(np.abs(xs - ys)))


def empirical_w1_clouds(xs, ys) -> tuple[float, float]:
    """Empirical W1 between two unsorted equal-size clouds, and a noise scale.

    The scale, ``(sd(xs) + sd(ys)) / sqrt(size)`` over sample standard
    deviations, is the ``distance_se`` of the MH and Langevin W1 reports: a
    proxy for the fluctuation of the empirical W1, not a derived standard
    error.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w1 = empirical_w1_1d(np.sort(xs), np.sort(ys))
    return w1, float((xs.std(ddof=1) + ys.std(ddof=1)) / np.sqrt(xs.size))
