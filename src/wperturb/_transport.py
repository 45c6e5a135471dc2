"""Exact min-cost transportation on dense cost matrices.

A primal transportation simplex on the bipartite graph of sources and
sinks: a least-cost greedy start completed to a spanning tree, potentials
from one traversal of the tree, Dantzig pricing (the most negative reduced
cost ``C - u - v``, in numpy), the ratio test on the tree cycle, and
Cunningham's strongly feasible trees so that degenerate pivots cannot
cycle.  The histograms must be non-empty and strictly positive, since zero
mass is cut in one place, ``otcore._w1``; other input, like a runaway solve
past the pivot cap, raises ``TransportError``.  Every solve returns dual
potentials and is certified optimal through complementary slackness before
the caller sees it, so a solver bug can produce an exception but never a
silently wrong distance.  The certificate demands a duality gap and a dual
slack within tolerance, not merely the absence of a violation, so a plan or
potential that is NaN or infinite is rejected too.

The tree is kept in Python lists, which beat element-wise numpy indexing
at the support sizes used here; only the pricing runs in numpy.  ``_memo``
is the one memo of certified W1 results; it is keyed and filled by
``otcore._w1``, on whole problems, not here.
"""
from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

# Optimality certificate slack, relative to the largest cost beyond unit scale.
CERT_TOL = 1e-9

# Unrouted mass below this total is accepted (inputs are only normalized
# to 1e-12 themselves, and supplies are rescaled to match demands).
_MASS_EPS = 1e-13

# Pricing stops once no reduced cost is below -_PRICE_TOL times the largest
# |cost|: far above the rounding in the potentials, far below CERT_TOL.
_PRICE_TOL = 1e-12

# Pivots allowed per node of the problem before a solve gives up (random
# and degenerate problems up to 200 x 200 take fewer than 2 per node).
_PIVOT_CAP = 100

_INF = 1e300


class TransportError(RuntimeError):
    """The solver failed to produce a certified optimal plan."""


def _simplex(a, b, C):
    """Transportation simplex; returns ``(plan, u, v, status)`` as arrays.

    status is 0 on success, -1 when the supplies and the demands differ by
    more than ``_MASS_EPS``, -2 when the pivot cap is hit and -3 when ``a``
    or ``b`` is empty or not strictly positive.
    """
    ra = a.tolist()
    rb = b.tolist()
    # otcore._w1 cuts zero mass; a NaN that min lets by fails the certificate
    if not (ra and rb and min(ra) > 0.0 and min(rb) > 0.0):
        return None, None, None, -3
    p, q = C.shape
    N = p + q  # sources are nodes 0..p-1, sinks p..N-1
    Cl = C.tolist()
    # least-cost greedy start: walk the arcs in rising cost order and put
    # as much flow on each as both ends still allow; every such arc
    # exhausts one of its ends, so these arcs form a forest
    order = C.argsort(axis=None, kind="stable").tolist()
    adj = [[] for _ in range(N)]
    open_rows, open_cols = p, q
    for k in order:
        i, j = divmod(k, q)
        x = ra[i]
        y = rb[j]
        if x > 0.0 and y > 0.0:
            f = x if x < y else y
            ra[i] = x - f
            rb[j] = y - f
            adj[i].append((p + j, f))
            adj[p + j].append((i, f))
            if x == f:
                open_rows -= 1
            if y == f:
                open_cols -= 1
            if not (open_rows and open_cols):
                break
    if sum(ra) > _MASS_EPS or sum(rb) > _MASS_EPS:
        return None, None, None, -1
    for j in range(p, N):
        if not adj[j]:
            # a sink that rounding left unserved takes its few ulps from
            # its cheapest source, so that no zero-flow arc points down
            i = min(range(p), key=lambda i: Cl[i][j - p])
            adj[i].append((j, rb[j - p]))
            adj[j].append((i, rb[j - p]))
    # complete the forest to a spanning tree rooted at a sink: every other
    # component hangs from its first source, by that source's cheapest
    # zero-flow arc to a sink already in the tree.  Every zero-flow arc
    # then points toward the root, so the tree is strongly feasible
    # (Cunningham), and the leaving-arc rule below keeps it so: no pivot
    # sequence can cycle
    parent = [-1] * N
    flow = [0.0] * N
    seen = [False] * N

    def hang(top, up):
        parent[top] = up
        seen[top] = True
        nodes = [top]
        for x in nodes:
            for y, g in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    flow[y] = g
                    nodes.append(y)
        return nodes

    root = p
    tree_cols = [x - p for x in hang(root, -1) if x >= p]
    for s in range(p):
        if not seen[s]:
            j = min(tree_cols, key=Cl[s].__getitem__)
            tree_cols += [x - p for x in hang(s, p + j) if x >= p]
    children = [set() for _ in range(N)]
    for x in range(N):
        if x != root:
            children[parent[x]].add(x)
    depth = [0] * N
    # signed potentials: -u for the sources, v for the sinks, so that
    # re-hanging a subtree shifts all of its nodes by the same amount; kept
    # in a list, and copied into phi for each pricing
    w = [0.0] * N
    phi = np.empty(N)
    phi_s = phi[:p, None]
    phi_t = phi[p:]

    def potentials():
        # one traversal from the root (whose potential stays 0); every
        # tree arc has reduced cost 0
        stack = [root]
        while stack:
            x = stack.pop()
            d = depth[x] + 1
            for y in children[x]:
                depth[y] = d
                w[y] = w[x] - Cl[y][x - p] if y < p else Cl[x][y - p] + w[x]
                stack.append(y)

    potentials()
    # the sort already holds the cheapest and the dearest arc
    tol = _PRICE_TOL * max(abs(C.item(order[0])), abs(C.item(order[-1])))
    cap = _PIVOT_CAP * N
    R = np.empty((p, q))
    fresh = True
    pivots = 0
    while True:
        # Dantzig pricing: the most negative reduced cost enters
        phi[:] = w
        np.add(C, phi_s, out=R)
        R -= phi_t
        k = int(R.argmin())
        rc = R.item(k)
        if not rc < -tol:
            if fresh:
                break
            # potentials shifted pivot by pivot carry rounding; price once
            # more against potentials recomputed from the tree
            potentials()
            fresh = True
            continue
        if pivots == cap:
            return None, None, None, -2
        pivots += 1
        fresh = False
        s, t = divmod(k, q)
        t += p  # the entering arc s -> t
        # the cycle: s -> t, up from t to the apex, down from there to s
        up_t = []
        up_s = []
        x, y = t, s
        while depth[x] > depth[y]:
            up_t.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up_s.append(y)
            y = parent[y]
        while x != y:
            up_t.append(x)
            x = parent[x]
            up_s.append(y)
            y = parent[y]
        # ratio test: the arc above a sink runs against the cycle on t's
        # side, the arc above a source on s's side.  Cunningham's rule takes
        # the last blocking arc met going round from the apex: t's side is
        # met last, and walked here in cycle order, s's side in reverse
        theta = _INF
        out = -1
        for x in up_t:
            if x >= p and flow[x] <= theta:
                theta = flow[x]
                out = x
        on_t = True
        for x in up_s:
            if x < p and flow[x] < theta:
                theta = flow[x]
                out = x
                on_t = False
        if theta > 0.0:
            for x in up_t:
                flow[x] += -theta if x >= p else theta
            for x in up_s:
                flow[x] += -theta if x < p else theta
        # drop the arc above ``out``: its subtree hangs from the entering
        # arc instead, and the path from the entering end to ``out`` turns
        # round; the shift gives the entering arc reduced cost 0
        if on_t:
            path, top, shift = up_t, s, rc
        else:
            path, top, shift = up_s, t, -rc
        children[parent[out]].remove(out)
        f = theta
        for x in path:
            above = parent[x]
            g = flow[x]
            parent[x] = top
            flow[x] = f
            children[top].add(x)
            if x == out:
                break
            children[above].remove(x)
            top = x
            f = g
        first = path[0]
        depth[first] = depth[parent[first]] + 1
        nodes = [first]
        for x in nodes:
            w[x] += shift
            d = depth[x] + 1
            for y in children[x]:
                depth[y] = d
                nodes.append(y)
    X = np.zeros((p, q))
    for x in range(N):
        if x < p:
            X[x, parent[x] - p] = flow[x]
        elif x != root:  # the root is a sink
            X[parent[x], x - p] = flow[x]
    return X, -phi[:p], phi[p:].copy(), 0


class _Memo:
    """Thread-safe LRU of certified results, bounded in entries and bytes."""

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, result, nbytes: int) -> None:
        if nbytes > self.max_bytes:
            return
        with self._lock:
            if key in self._data:
                return
            self._data[key] = (result, nbytes)
            self._bytes += nbytes
            while len(self._data) > self.max_entries or self._bytes > self.max_bytes:
                _, (_, dropped) = self._data.popitem(last=False)
                self._bytes -= dropped

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_memo = _Memo(max_entries=4096, max_bytes=64 << 20)


def solve(a, b, C):
    """Optimal transport plan between non-empty, strictly positive
    histograms ``a`` and ``b``; other input raises ``TransportError``.

    Returns ``(value, plan, u, v)`` where ``(u, v)`` are dual potentials.
    The result is certified: dual feasibility and a vanishing duality gap
    are checked to ``CERT_TOL`` (scaled by the largest cost) on every
    solve.  Every call solves afresh and returns new arrays.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    plan, u, v, status = _simplex(a, b, C)
    if status != 0:
        raise TransportError(f"transportation simplex failed (status {status})")
    return _certify(a, b, C, plan, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _certify(a, b, C, plan, u, v, cmax=None):
    """Check the plan's cost against the duals' value and the duals'
    feasibility, both to ``CERT_TOL`` times max(1, cmax); cmax defaults to
    max(C), and callers that keep max(C) pass it."""
    if cmax is None:
        cmax = float(C.max())
    value = float((plan * C).sum())
    tol = CERT_TOL * max(1.0, cmax)
    gap = abs(value - (float(a @ u) + float(b @ v)))
    feas = float((C - u[:, None] - v).min())
    # NaN fails both comparisons, so a non-finite plan or dual is rejected
    if not (gap <= tol and feas >= -tol):
        raise TransportError(
            f"optimality certificate failed (gap={gap:.3e}, dual slack={feas:.3e})"
        )
    return value, plan, u, v
