"""Counter-based random streams and the coupled-simulation loop.

Philox generators keyed by (seed, stream indices) through SeedSequence
spawn keys: per-step streams are independent of each other and of how
work is scheduled, so simulation output is byte-identical for a seed.
"""
from __future__ import annotations

import numpy as np

from ._checks import _check_count


def philox(seed: int, *stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def coupled_steps(step, x0: float, n: int, replicas: int):
    """Yield the two coupled replica clouds after each of n steps.

    Both clouds start at x0.  Step k = 0..n-1 is ``x, xt = step(k, x, xt)``.
    A step may overwrite x and xt and return them when its consumer keeps
    no yielded cloud past the next step (AR(1) reduces each step as it
    comes); a consumer that keeps the clouds (MH, Langevin) needs a step
    that returns new arrays.  Raises ValueError unless n and replicas are
    positive integers.
    """
    _check_count(1, n=n, replicas=replicas)
    x = np.full(replicas, float(x0))
    xt = x.copy()
    for k in range(n):
        x, xt = step(k, x, xt)
        yield x, xt
