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
stored plan, and every caller gets its own copy.  The solver keeps no
other state between calls, so a distance does not depend on what was
solved before it.  Each entry is charged
its plan and the bytes of mu and nu; the bytes of ``dist`` are one object
shared by every entry of the space and are not charged.  ``_w1`` takes a
whole distance table, two stacks of rows, in one call, and is the whole
transport route: lookups, runs, solves, lift (see its docstring).

The operand rules live in ``_checks``, one helper per rule, for this module
and every other: ``_require_same_points`` and ``_float_array`` among them.

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
from ._checks import _check_index, _check_nonnegative, _check_samples, _float_array
from ._checks import _require_same_points

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
        dist = _float_array(dist, (n, n), "distances")
        if n and np.max(np.abs(np.diagonal(dist))) > METRIC_TOL:
            raise ValueError("metric diagonal must be zero")
        if np.max(np.abs(dist - dist.T), initial=0.0) > METRIC_TOL:
            raise ValueError("metric must be symmetric")
        if n > 1:
            off = dist[~np.eye(n, dtype=bool)]
            if np.min(off) <= 0.0:
                raise ValueError("off-diagonal distances must be positive")
        # triangle inequality, checked for a block of intermediate points j
        # at a time: slack[j, x, y] = d(x, y) - (d(x, j) + d(j, y)), each
        # rounded as alone, in (len(J), n, n) temporaries of about 2 MiB
        # instead of one (n, n, n) tensor
        for J in _blocks(n):
            slack = dist[:, J].T[:, :, None] + dist[J][:, None, :]
            np.subtract(dist, slack, out=slack)
            if np.max(slack) > METRIC_TOL:
                raise ValueError("triangle inequality fails")
        self.points = points
        self.dist = dist
        self.dist.setflags(write=False)
        # structure recorded by the constructors below, read by _w1 and
        # kernels.tau: (order, gaps between the sorted coordinates) of a
        # line, or the g of a star metric (g(x) + g(y)) 1{x != y}
        self._line = None
        self._star = None
        # dist.tobytes(), taken by _w1 on first use as part of its memo key
        self._dist_bytes = None
        # kernels.tau's candidate pairs (ia, ib) and their distances, taken
        # by tau on first use
        self._pairs = None
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


def _blocks(n: int) -> list[slice]:
    """Slices of range(n), each so long that a (len, n, n) float temporary
    stays near 2 MiB: the per-point loops over an (n, n) matrix take one
    block of points per numpy pass."""
    step = max(1, (2 << 20) // (8 * n * n)) if n else 1
    return [slice(s, s + step) for s in range(0, n, step)]


def trivial_metric(points: Sequence) -> FiniteMetricSpace:
    """The metric d(x, y) = 2 for x != y, under which W1 equals total variation."""
    points = list(points)  # read once: an iterator has no second pass
    n = len(points)
    space = FiniteMetricSpace(points, 2.0 * (1.0 - np.eye(n)))
    space._star = np.ones(n)
    return space


def line_metric(xs: Sequence[float], points: Optional[Sequence] = None) -> FiniteMetricSpace:
    """Distinct real locations with |x - y| as the metric; labels default to the xs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("locations must be one-dimensional")
    points = list(xs) if points is None else list(points)
    if len(points) != len(xs):
        raise ValueError(f"{len(points)} labels for {len(xs)} locations")
    order = np.argsort(xs, kind="stable")
    gaps = np.diff(xs[order])
    if not np.all(gaps):
        raise ValueError("a location repeats")
    space = FiniteMetricSpace(points, np.abs(xs[:, None] - xs[None, :]))
    space._line = (order, gaps)
    return space


class WeightFunction:
    """Pointwise weights V >= 1 on a finite space."""

    def __init__(self, space: FiniteMetricSpace, values) -> None:
        values = _float_array(values, (space.size,), "weights")
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
        w = _float_array(weights, (space.size,), "weights")
        _check_nonnegative(weights=np.min(w, initial=0.0))
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
    _check_index(space.size, index=index)
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
        # both scans fail on NaN, and an infinite entry makes the minimum
        # or the sum infinite, so they refuse non-finite entries too
        if not np.min(joint, initial=0.0) >= -1e-15:
            raise ValueError("coupling entries must be nonnegative")
        if not abs(float(joint.sum()) - 1.0) <= MASS_TOL:
            raise ValueError("coupling mass must be 1")
        self.space = space
        self.joint = joint
        self.joint.setflags(write=False)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.joint.sum(axis=1), self.joint.sum(axis=0)

    def cost(self) -> float:
        """Transport cost of this coupling under the space's own metric."""
        return float(np.sum(self.joint * self.space.dist))


def _w1(wa: np.ndarray, wb: np.ndarray, space: FiniteMetricSpace):
    """Exact W1 between two weight vectors on ``space`` and an optimal plan,
    or, for two stacks of K weight rows, the K distances between paired
    rows as an array and a list of their K plans.  A single pair is the
    one-row case of the stack.

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
    for the transport route.

    Equal rows, the closed forms and the memo lookups go row by row, in
    order.  The transport route answers a problem it has certified before
    from ``_transport._memo`` without solving again; a row that repeats an
    earlier missed row of the same stack is looked up after the solves, so
    that it hits as it would one row at a time.  The rows left (the stacks
    themselves, uncopied, when no row was answered before) are split into
    runs of consecutive rows with the same excess and deficit supports,
    and each run goes to ``_transport.solve`` as one stack on its one cost
    matrix, which solves a row cold and answers the rows after it from
    that row's tree while the tree is their one optimal basis, so every row
    gets its cold answer, the one it gets alone.  The c-transform of the
    column potentials and the feasibility half of the full-problem
    certificate are computed once for each stretch of a run that the same
    tree answered (on scalars for a lone row); the lift, the lifted costs and the duality gaps are array
    operations over the run, and each row rounds as it would alone.  The
    closed forms are not memoised.

    Scaling each side to unit mass also absorbs, silently, any imbalance
    between the two rows' float sums.  When they differ by an ulp, the
    solve resolves that 1e-16 against the true excess as if the rows
    balanced, and neither certificate flags it, since both are absolute:
    two rows 1e-12 apart whose sums differ by an ulp gave a W1 4.5e-6
    off the exact value in relative terms.  Only a certificate relative
    to the distance itself would catch this.
    """
    if space._line is not None or space._star is not None:
        if wa.ndim == 1:
            return _closed_form(wa, wb, space)
        out = [_closed_form(p, q, space) for p, q in zip(wa, wb)]
        return np.array([value for value, _ in out]), [plan for _, plan in out]
    one = wa.ndim == 1
    if one:
        wa, wb = wa[None], wb[None]
    equal = np.logical_and.reduce(wa == wb, axis=1).tolist()
    K, n = wa.shape
    if space._dist_bytes is None:
        # the metric is read-only, so its bytes are taken once per space
        space._dist_bytes = space.dist.tobytes()
    memo = _transport._memo
    values = [0.0] * K
    plans = [None] * K
    keys = [None] * K
    todo = []     # rows left for the solver, in order
    repeats = []  # (row, the earlier row of todo that poses the same problem)
    first = {}
    for k in range(K):
        if equal[k]:
            plans[k] = np.diag(wa[k])
            continue
        # the whole problem is the memo key, so a repeat skips the
        # extraction, the solve, the lift and the certificate
        key = keys[k] = (n, wa[k].tobytes(), wb[k].tobytes(), space._dist_bytes)
        if key in first:
            repeats.append((k, first[key]))
            continue
        hit = memo.get(key)
        if hit is not None:
            values[k], plans[k] = hit[0], hit[1].copy()
        else:
            first[key] = k
            todo.append(k)
    if todo:
        T = len(todo)
        ta, tb = (wa, wb) if T == K else (wa[todo], wb[todo])
        # W1 depends only on wa - wb, so the common mass min(wa, wb) stays in
        # place and only the excess is moved onto the deficit
        d = ta - tb
        starts = [0]
        if T > 1:
            sign = np.sign(d)
            starts += (np.flatnonzero(np.logical_or.reduce(sign[1:] != sign[:-1], axis=1))
                       + 1).tolist()
        starts.append(T)
        runs = []
        for s, e in zip(starts, starts[1:]):
            ia = (d[s] > 0.0).nonzero()[0]
            ib = (d[s] < 0.0).nonzero()[0]
            if ia.size and ib.size:
                runs.append((s, e, ia, ib, True))
            else:
                # rows equal up to rounding leave one side empty: move all of
                # wa onto wb over their positive supports instead, row by row
                runs += [(k, k + 1, (ta[k] > 0.0).nonzero()[0], (tb[k] > 0.0).nonzero()[0],
                          False) for k in range(s, e)]
        got = [0.0] * T
        lifted = np.zeros((T, n, n))
        for s, e, ia, ib, common in runs:
            p, q, plan = ta[s:e], tb[s:e], lifted[s:e]
            if common:
                np.minimum(p, q, out=plan.reshape(e - s, -1)[:, ::n + 1])
                # take gives C-contiguous rows, each of which sums as it would alone
                a = d[s:e].take(ia, axis=1)
                b = -d[s:e].take(ib, axis=1)
            else:
                a = p.take(ia, axis=1)
                b = q.take(ib, axis=1)
            mass = a.sum(axis=1)
            # the columns of the deficit, taken once for the solve and the
            # c-transform (take is cheaper than fancy indexing at these sizes)
            cols = space.dist.take(ib, axis=1)
            # each side at unit mass, so a tiny distance is solved to relative
            # accuracy; the plan is scaled back by the excess mass
            _, sub, _, vs = _transport.solve(a / mass[:, None], b / b.sum(axis=1)[:, None],
                                             cols.take(ia, axis=0))
            # the sub-plan's cells are off the diagonal (the excess and deficit
            # supports are disjoint), or the plan is still all zero
            plan[:, ia[:, None], ib] = mass[:, None, None] * sub
            # rows answered from one tree share its column potentials, whose
            # c-transform is 1-Lipschitz on the whole space, so (f, -f)
            # certifies each of their lifted plans on the full problem
            i = 0
            while i < e - s:
                j = i + 1
                while j < e - s and vs[j] is vs[i]:
                    j += 1
                f = (cols - vs[i]).min(axis=1)
                if j - i == 1:
                    # a lone row is certified as one problem, on scalars
                    got[s + i] = _transport._certify(p[i], q[i], space.dist, plan[i], f, -f,
                                                     space._dist_max)[0]
                else:
                    got[s + i:s + j] = _transport._certify(
                        p[i:j], q[i:j], space.dist, plan[i:j], f, -f, space._dist_max)[0]
                i = j
        for k, value, plan in zip(todo, got, lifted):
            values[k] = value
            plans[k] = plan
            # only a certified result reaches the memo, and callers get
            # copies; each entry is charged what it alone holds, its plan
            # and the bytes of its two rows
            memo.put(keys[k], (value, plan.copy()),
                     plan.nbytes + len(keys[k][1]) + len(keys[k][2]))
    for k, j in repeats:
        hit = memo.get(keys[k])
        values[k], plan = hit if hit is not None else (values[j], plans[j])
        plans[k] = plan.copy()
    if one:
        return values[0], plans[0]
    return np.array(values), plans


def _closed_form(wa: np.ndarray, wb: np.ndarray, space: FiniteMetricSpace):
    """W1 and a certified optimal plan from the line or star structure of
    ``space``; see ``_w1``."""
    if (wa == wb).all():
        return 0.0, np.diag(wa)
    n = space.size
    if space._line is not None:
        order, gaps = space._line
        p = wa[order]
        q = wb[order]
        # cumsum of the difference, not a difference of CDFs, so that
        # nearly equal rows keep their (tiny) positive distance
        c = np.cumsum(p - q)[:-1]
        value = float(np.abs(c) @ gaps)
        f = np.zeros(n)
        f[order[1:]] = np.cumsum(-np.sign(c) * gaps)
        # monotone coupling: cell (i, j) carries the overlap of the i-th
        # and j-th quantile intervals (F and G share their last breakpoint)
        F = np.cumsum(p)
        G = np.cumsum(q)
        F[-1] = G[-1] = max(F[-1], G[-1])
        # the distinct breakpoints, sorted: np.union1d(F, G) by the same
        # sort and adjacent-unique mask, without its hash table
        t = np.concatenate((F, G))
        t.sort()
        distinct = np.empty(t.size, dtype=bool)
        distinct[0] = True
        np.not_equal(t[1:], t[:-1], out=distinct[1:])
        t = t[distinct]
        i = order[np.searchsorted(F, t)]
        j = order[np.searchsorted(G, t)]
        # the cell masses, np.diff(t, prepend=0.0) in place
        np.subtract(t[1:], t[:-1], out=t[1:])
        plan = np.zeros((n, n))
        plan[i, j] = t
    else:
        g = space._star
        d = wa - wb
        value = float(g @ np.abs(d))
        f = np.sign(d) * g
        pos = np.maximum(d, 0.0)
        neg = np.maximum(-d, 0.0)
        plan = np.outer(pos, neg)
        # the two excess masses differ only by rounding; max never divides by 0
        plan /= max(pos.sum(), neg.sum())
        # pos * neg is +0.0 at every point, so adding the common mass onto
        # the diagonal rounds (signed zeros too) as diag(min) + the product
        plan.reshape(-1)[::n + 1] += np.minimum(wa, wb)
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
    _require_same_points(mu=mu, nu=nu, space=space)
    if space is None:
        space = mu.space
    value, plan = _w1(mu.weights, nu.weights, space)
    return value, Coupling(space, plan)


def total_variation(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """sum_x |mu(x) - nu(x)|; disjoint supports give 2.

    Equals ``wasserstein1_exact`` under the trivial metric.
    """
    _require_same_points(mu=mu, nu=nu)
    return _tv(mu.weights, nu.weights)


def _tv(wa: np.ndarray, wb: np.ndarray):
    """``total_variation`` on two weight vectors, unchecked; on two stacks
    of rows, the array of their paired distances.  Each row of a stack
    sums alone, as one vector does, so it rounds as one vector would."""
    d = np.abs(wa - wb).sum(axis=-1)
    return float(d) if wa.ndim == 1 else d


def vnorm_distance(mu: DiscreteDistribution, nu: DiscreteDistribution,
                   V: WeightFunction) -> float:
    """sum_x V(x) |mu(x) - nu(x)|, the V-weighted norm of mu - nu.

    Equals ``wasserstein1_exact`` under ``dv_metric(V)``; the extremal
    dual function is f = sign(mu - nu) * V.
    """
    _require_same_points(mu=mu, nu=nu, V=V)
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
    _check_samples(xs, ys)  # before the sortedness scan, which lets NaN through
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
