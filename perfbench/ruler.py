"""The benchmark's ruler: a fixed piece of work that measures machine speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU guest
the same ``sweep`` pass took 13.6 to 17.2 s within three minutes, and
twice as long in one hour as in another, with no steal time (CPU time
equalled wall time), so neither CPU time nor longer runs take the drift
out.  ``measure`` runs the ruler once and returns its time.
``passes.py`` measures it before every operation and after the last,
outside the operations' own times, and ``run.py`` scales each operation
by ``REF_MS`` over the ruler times around it: an operation that ran on a
slow spell is scaled down as much as the ruler ran slow.

The ruler mixes the two kinds of work the workloads do: pure-Python loops
over lists of floats (the transport solver's shortest-path rounds) and
small numpy calls with a Philox generator (the simulators).  It imports
nothing from wperturb, so no change to the package moves it.
"""
from __future__ import annotations

import gc
import time

import numpy as np

REF_MS = 1.0          # scaled times read as if one ruler took this long

_N = 24
_COST = [[float((7 * i + 11 * j) % 17 + 1) for j in range(_N)] for i in range(_N)]
_INF = 1e300


def _shortest_paths(src: int) -> list:
    """Dense Dijkstra from ``src`` over ``_COST``, in list-of-float Python."""
    dist = [_INF] * _N
    dist[src] = 0.0
    k = list(dist)
    done = [False] * _N
    while True:
        best = min(k)
        if not best < _INF:
            return dist
        node = k.index(best)
        k[node] = _INF
        done[node] = True
        row = _COST[node]
        for j in range(_N):
            if not done[j]:
                nd = best + row[j]
                if nd < dist[j]:
                    dist[j] = k[j] = nd


def _arrays(seed: int) -> float:
    """A short AR(1)-like recursion on 256 numpy draws."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(256)
    for _ in range(8):
        x = 0.9 * x + rng.standard_normal(256)
        np.abs(x).mean()
    return float(x.sum())


def measure() -> float:
    """Run the ruler once; return its time in seconds.

    The cyclic garbage collector is off meanwhile, so a collection of the
    garbage an operation left is paid by the operations, not the ruler.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for src in range(8):
            _shortest_paths(src)
        for seed in range(2):
            _arrays(seed)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
