"""Exact min-cost transportation on dense cost matrices.

Successive shortest paths with Dijkstra on reduced costs, specialised to
the bipartite transportation polytope.  Every solve returns dual
potentials and is certified optimal through complementary slackness
before the caller sees it, so a solver bug can produce an exception but
never a silently wrong distance.

The solver runs in pure Python over lists, which beats element-wise
numpy indexing by a wide margin at the support sizes used here.  ``_memo``
is the one memo of certified W1 results; it is keyed and filled by
``otcore._w1``, on whole problems, not here.

Every ``solve`` takes this one path.  ``_solve_linprog`` (scipy's HiGHS, good
to about 1e-7 rather than exact) is kept only as the independent oracle
the test suite compares against; no production path calls it.
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

_INF = 1e300


class TransportError(RuntimeError):
    """The solver failed to produce a certified optimal plan."""


def _ssp(a, b, C):
    """Successive shortest paths; returns ``(plan, u, v, status)`` as lists.

    status is 0 on success, -1 when some demand is unreachable and -2 when
    the round limit is hit.
    """
    n, m = C.shape
    Cl = C.tolist()
    x = [[0.0] * m for _ in range(n)]
    u = [0.0] * n
    v = [min(col) for col in zip(*Cl)] if n else [_INF] * m
    sa = a.tolist()
    sb = b.tolist()
    # sources i with x[i][j] > 0: the only residual arcs leaving sink j
    into = [set() for _ in range(m)]
    max_rounds = 10 * (n * m + n + m)
    rounds = 0
    while True:
        # the outstanding mass is re-summed from the demand residuals each
        # round; tracking it by subtraction drifts once augmentations get
        # down to dust-sized flows and can strand the loop
        remaining = 0.0
        for s in sb:
            remaining += s
        if remaining <= _MASS_EPS:
            break
        rounds += 1
        if rounds > max_rounds:
            return x, u, v, -2
        # du/dv hold the labels; k holds the sources' then the sinks' labels
        # with +inf for settled nodes, so its first minimum is the next node
        # to settle (sources win ties, as do lower indices)
        du = [0.0 if s > 0.0 else _INF for s in sa]
        dv = [_INF] * m
        k = du + dv
        pu = [-1] * n
        pv = [-1] * m
        fu = [False] * n
        open_v = list(range(m))
        t = -1
        D = _INF
        while True:
            best = min(k, default=_INF)
            if not best < _INF:
                break
            node = k.index(best)
            k[node] = np.inf
            if node < n:
                i = node
                fu[i] = True
                ui = u[i]
                row = Cl[i]
                for j in open_v:
                    rc = row[j] - ui - v[j]
                    if rc < 0.0:
                        rc = 0.0
                    nd = best + rc
                    if nd < dv[j]:
                        dv[j] = k[n + j] = nd
                        pv[j] = i
            else:
                j = node - n
                open_v.remove(j)
                # any strictly positive residual demand is a valid target:
                # requiring more than _MASS_EPS here would refuse to finish
                # solves whose leftover mass is split into tiny pieces
                if sb[j] > 0.0:
                    t = j
                    D = best
                    break
                vj = v[j]
                for i in into[j]:
                    if not fu[i]:
                        rc = u[i] + vj - Cl[i][j]
                        if rc < 0.0:
                            rc = 0.0
                        nd = best + rc
                        if nd < du[i]:
                            du[i] = k[i] = nd
                            pu[i] = j
        if t < 0:
            return x, u, v, -1
        u = [ui - (D if d > D else d) for ui, d in zip(u, du)]
        v = [vj + (D if d > D else d) for vj, d in zip(v, dv)]
        # bottleneck along the augmenting path t <- ... <- root source
        f = sb[t]
        j = t
        while True:
            i = pv[j]
            if pu[i] == -1:
                if sa[i] < f:
                    f = sa[i]
                break
            jj = pu[i]
            if x[i][jj] < f:
                f = x[i][jj]
            j = jj
        j = t
        while True:
            i = pv[j]
            xi = x[i]
            xi[j] += f
            into[j].add(i)
            if pu[i] == -1:
                sa[i] -= f
                break
            jj = pu[i]
            xi[jj] -= f
            if xi[jj] <= 0.0:
                into[jj].discard(i)
            j = jj
        sb[t] -= f
    return x, u, v, 0


def _solve_linprog(a, b, C):
    """Plan and potentials via scipy's HiGHS LP solver (test oracle only)."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = C.shape
    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(m):
            k = i * m + j
            rows.append(i)
            cols.append(k)
            data.append(1.0)
            if j < m - 1:  # last column-sum constraint is redundant
                rows.append(n + j)
                cols.append(k)
                data.append(1.0)
    A = csr_matrix((data, (rows, cols)), shape=(n + m - 1, n * m))
    rhs = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError(f"linprog failed: {res.message}")
    plan = res.x.reshape(n, m)
    y = res.eqlin.marginals
    u = y[:n]
    v = np.append(y[n:], 0.0)
    return plan, u, v


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
    """Optimal transport plan between histograms ``a`` and ``b``.

    Returns ``(value, plan, u, v)`` where ``(u, v)`` are dual potentials.
    The result is certified: dual feasibility and a vanishing duality gap
    are checked to ``CERT_TOL`` (scaled by the largest cost) on every
    solve.  Every call solves afresh and returns new arrays.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    x, u, v, status = _ssp(a, b, C)
    if status != 0:
        raise TransportError(f"successive shortest paths failed (status {status})")
    return _certify(a, b, C, np.array(x, dtype=float).reshape(C.shape),
                    np.array(u, dtype=float), np.array(v, dtype=float))


def _certify(a, b, C, plan, u, v):
    value = float(np.sum(plan * C))
    tol = CERT_TOL * max(1.0, float(np.max(C)) if C.size else 1.0)
    gap = abs(value - (float(a @ u) + float(b @ v)))
    feas = float(np.min(C - u[:, None] - v[None, :])) if C.size else 0.0
    if gap > tol or feas < -tol:
        raise TransportError(
            f"optimality certificate failed (gap={gap:.3e}, dual slack={feas:.3e})"
        )
    return value, plan, u, v
