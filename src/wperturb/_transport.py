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

Every plan is the basic solution of the final tree (``_basic``), so a
result depends on the problem and its optimal basis, not on the pivots
that reached it.  ``solve`` takes a stack of problems on one cost
matrix, the rows of a run of a distance table, and may answer a row from
the tree of the row solved cold just before it; its docstring gives the
rule.  It returns, besides the values and plans, each optimal tree's
potentials and the rows that tree answered, so the caller needs no rule
of its own to tell them apart.  No tree outlives the call, so a result
depends only on the arguments of the call that made it.

The tree is kept in Python lists, which beat element-wise numpy indexing
at the support sizes used here; only the pricing runs in numpy.  ``_memo``
is the one memo of certified W1 results; it is keyed and filled by
``otcore._w1``, on whole problems, not here.  It also counts the cold
solves, the problems answered warm and the entries it evicted.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

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


class _Tree(NamedTuple):
    """A spanning tree of the transport graph, rooted at sink 0 (node p)."""

    below: list   # every node but the root, deepest first, by node within a depth
    parent: list  # the node above each node
    flow: list    # the flow on the arc above each node, as the pivots left it
    unique: bool  # no other plan is optimal for the costs it was solved on


def _basic(A, B, tree):
    """The basic solutions of ``tree`` for the supplies ``A[k]`` and the
    demands ``B[k]`` as dense plans, and for each row its smallest flow,
    or -inf when more than ``_MASS_EPS`` is left at the root.  A row's
    basic solution is feasible when that is nonnegative, and carries flow
    on every arc of the tree when it is positive.

    Leaf elimination: each arc carries what its lower end still needs, the
    deepest nodes first, so every rounding is fixed by the tree and the
    marginals alone.  It runs on Python floats, row by row, which beats
    one numpy call per node at every support size.
    """
    K, p = A.shape
    below, parent = tree.below, tree.parent
    X = np.zeros((K, p, B.shape[1]))
    low = []
    for r, rb, x_k in zip(A.tolist(), B.tolist(), X):
        r += rb
        m = _INF
        for x in below:
            f = r[x]
            y = parent[x]
            r[y] -= f
            if f < m:
                m = f
            # each arc joins a source to a sink, whichever end is lower
            if x < p:
                x_k[x, y - p] = f
            else:
                x_k[y, x - p] = f
        # a NaN may pass here; the certificate rejects it
        low.append(-_INF if abs(r[p]) > _MASS_EPS else m)
    return X, low


def _simplex(a, b, C):
    """Transportation simplex; returns ``(tree, u, v, status)``: the
    optimal spanning tree (a ``_Tree``) and its potentials.

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
                # the N - 1 tree arcs price at 0; the plan is the only
                # optimal one if every other arc prices above the
                # certificate's tolerance
                cert_tol = CERT_TOL * max(1.0, C.item(order[-1]))
                unique = np.count_nonzero(R <= cert_tol) == N - 1
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
    # the sort is stable, and the root is the only node at depth 0
    below = sorted(range(N), key=depth.__getitem__, reverse=True)[:-1]
    return _Tree(below, parent, flow, unique), -phi[:p], phi[p:].copy(), 0


class _Memo:
    """Thread-safe LRU of certified results, bounded in entries and bytes.

    Besides its hits and misses it counts the entries it dropped to stay
    within its bounds (``evictions``), the cold simplex solves (``cold``)
    and the problems answered warm (``warm``; see ``solve``).  ``clear``
    zeroes all five counts.
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cold = 0
        self.warm = 0

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
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.cold = 0
            self.warm = 0

    def count(self, cold: int = 0, warm: int = 0) -> None:
        """Count cold simplex solves and problems answered warm."""
        with self._lock:
            self.cold += cold
            self.warm += warm

    def __len__(self) -> int:
        return len(self._data)


_memo = _Memo(max_entries=4096, max_bytes=64 << 20)


def solve(A, B, C):
    """Optimal transport plans on the cost matrix ``C`` between non-empty,
    strictly positive histograms: ``A`` and ``B`` are stacks of supplies
    and demands, one problem per row.  Other input raises
    ``TransportError``.

    Returns ``(values, plans, trees)``: the stacked values and plans, and
    one ``(stop, u, v)`` per optimal tree, in row order, with its dual
    potentials ``(u, v)``.  The rows from the previous tree's ``stop`` (0
    for the first) up to this ``stop`` were answered by this tree: the
    first solved cold, the rest warm.  Every result is certified: dual
    feasibility and a vanishing duality gap are checked to ``CERT_TOL``
    (scaled by the largest cost).

    The rows are taken in order, in one loop: the next row is solved cold,
    and the rows after it are answered from its optimal tree, up to the
    first row that the tree declines, which is solved cold next.  A tree
    answers only if every arc off it has a reduced cost above the
    certificate's tolerance, so that no other plan is optimal for ``C``,
    and only rows whose basic solution on it is feasible (no negative
    flow, no more than ``_MASS_EPS`` unrouted), carries flow on every arc
    of the tree, and passes the certificate.  The tree is then the row's
    only optimal basis, where a cold solve ends too, so a warm answer is
    the cold one bit for bit, potentials included.  Its potentials passed
    the feasibility half of the certificate on the cold row, on the same
    ``C``, so a warm answer checks the duality gap only, for all its rows
    at once (their basic solutions row by row, their gaps as array
    operations).  Rows of a distance table mostly share their cost
    matrix, so most of them are answered warm.
    """
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    # an empty C has no max; its solve fails before any certificate
    cmax = float(C.max()) if C.size else 0.0
    tol = CERT_TOL * max(1.0, cmax)
    K = len(A)
    values, plans, trees = [], [], []
    k = 0
    while k < K:
        _memo.count(cold=1)
        tree, u, v, status = _simplex(A[k], B[k], C)
        if status != 0:
            raise TransportError(f"transportation simplex failed (status {status})")
        plan, low = _basic(A[k:k + 1], B[k:k + 1], tree)
        if not low[0] >= 0.0:
            # rounding at a degenerate arc made a flow negative: keep the
            # flows the pivots left (each arc joins a source to a sink)
            plan = np.zeros(plan.shape)
            for x in tree.below:
                y = tree.parent[x]
                plan[0, min(x, y), max(x, y) - len(C)] = tree.flow[x]
        values.append(_certify(A[k], B[k], C, plan[0], u, v, cmax)[0])
        plans.append(plan)
        k += 1
        if tree.unique and k < K:
            # the rows left answered warm up to the first that declines
            X, low = _basic(A[k:], B[k:], tree)
            value = (X * C).sum(axis=(1, 2))
            gap = abs(value - (A[k:] @ u + B[k:] @ v)).tolist()
            m = 0
            # every arc of the tree must carry flow, so that no other tree
            # has the same basic solution
            while m < len(low) and low[m] > 0.0 and gap[m] <= tol:
                m += 1
            values += value[:m].tolist()
            plans.append(X[:m])
            _memo.count(warm=m)
            k += m
        trees.append((k, u, v))
    return np.array(values), (plans[0] if len(plans) == 1 else np.concatenate(plans)), trees


def _certify(a, b, C, plan, u, v, cmax=None):
    """Check each plan's cost against the duals' value and the duals'
    feasibility, both to ``CERT_TOL`` times max(1, cmax); cmax defaults to
    max(C), and callers that keep max(C) pass it.  ``a``, ``b`` and
    ``plan`` are one problem, or a stack of problems that share the duals,
    whose feasibility is then checked once.  Returns ``(value, plan, u,
    v)``, with a list of values for a stack."""
    if cmax is None:
        cmax = float(C.max())
    tol = CERT_TOL * max(1.0, cmax)
    if plan.ndim == 2:
        value = float((plan * C).sum())
        gap = abs(value - (float(a @ u) + float(b @ v)))
    else:
        # each cost is summed over its own plan alone, so a stacked cost
        # is the cost of that plan alone bit for bit
        value = (plan * C).sum(axis=(1, 2))
        # max keeps a NaN
        gap = float(abs(value - (a @ u + b @ v)).max())
        value = value.tolist()
    feas = float((C - u[:, None] - v).min())
    # NaN fails both comparisons, so a non-finite plan or dual is rejected
    if not (gap <= tol and feas >= -tol):
        raise TransportError(
            f"optimality certificate failed (gap={gap:.3e}, dual slack={feas:.3e})"
        )
    return value, plan, u, v
