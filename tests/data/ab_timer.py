"""Time the W1 route of two source trees against each other, in one process.

    python tests/data/ab_timer.py PARENT_SRC [CHANGE_SRC] [--rounds N] [--sweep-rounds M]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``wperturb`` package; ``CHANGE_SRC`` defaults to this checkout's ``src``.
A parent tree can be made with ``git archive <commit> | tar -x -C DIR``.
Each tree is imported under its own package name, so both run in the same
interpreter, on the same numpy and against the same load on the host.

Workloads:

  * ``pair n``: ``otcore._w1`` on 16 fixed pairs of random laws on ``n``
    random points of the plane under the Euclidean metric, each call from
    an empty memo, at n = 8, 24 and 80;
  * ``public n``: the same pairs through ``otcore.wasserstein1_exact``,
    on ``DiscreteDistribution`` laws built before timing, so that the
    operand checks above ``_w1`` are timed too, each call from an empty
    memo;
  * ``closed <kind> n``: ``otcore.wasserstein1_exact`` on 16 fixed pairs
    of random laws on a ``line_metric`` of ``n`` unsorted locations, a
    ``trivial_metric`` and a ``dv_metric`` (kind ``line``, ``trivial``,
    ``d_V``), laws built before timing, at n = 8, 24 and 80: the closed
    forms, which no memo answers;
  * ``table``: ``otcore._w1`` on the stacked ``thm31`` walk rows
    (n = 0..30) of each of the sweep's 36 instances, one call per
    instance from an empty memo, so that the stacked warm path is timed
    alone;
  * ``rows``: the bound rows (n = 0..30) of every n-step variant of the
    sweep's 36 instances, from constants fitted before timing, with the
    verifier's memo cleared each round;
  * ``sweep``: 36 ``generate_random_instance`` instances (sizes 4 to 12,
    four seeds) through every ``verify_on_finite`` variant at
    ``n_max = 30``, from empty memos.

Each round times one side and then the other, in an order that alternates
from round to round, and takes the ratio change / parent.  On a host whose
speed drifts, paired ratios in one process resolve a few percent where
separate processes do not.  The report gives, per workload, the median
paired ratio with its quartiles and the median time of each side, and
marks the workload ``unresolved`` when its quartiles contain 1.0.  Before
timing it checks that both trees give the same W1 bits on every pair and
every table row, and the same plan bytes on every closed-form pair; the
rows get no bit check, since a change to the bound formulas may move
their bits by design.
"""
import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PAIR_SIZES = (8, 24, 80)
PAIRS = 16
SWEEP = [(seed, size, (0.3, 0.5, 0.8)[size % 3]) for seed in (1, 2, 3, 4)
         for size in range(4, 13)]


def load(src: str, name: str):
    """The ``wperturb`` package under ``src``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(src), "wperturb")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("_transport", "bounds", "cli", "kernels", "otcore")}


def pair_inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    laws = rng.dirichlet(np.ones(n), size=2 * PAIRS)
    return dist, list(zip(laws[0::2], laws[1::2]))


def pair_op(pkg, dist, pairs):
    """Seconds for the W1 of every pair, each from an empty memo, and the values."""
    space = pkg["otcore"].FiniteMetricSpace(range(len(dist)), dist)
    w1, memo = pkg["otcore"]._w1, pkg["_transport"]._memo

    def run():
        total = 0
        values = []
        for wa, wb in pairs:
            memo.clear()
            t = time.perf_counter_ns()
            value, _ = w1(wa, wb, space)
            total += time.perf_counter_ns() - t
            values.append(value)
        return total * 1e-9, values
    return run


def public_op(pkg, dist, pairs):
    """Seconds for ``wasserstein1_exact`` on every pair, each from an empty
    memo, and the values."""
    otcore, memo = pkg["otcore"], pkg["_transport"]._memo
    space = otcore.FiniteMetricSpace(range(len(dist)), dist)
    laws = [(otcore.DiscreteDistribution(space, wa), otcore.DiscreteDistribution(space, wb))
            for wa, wb in pairs]
    w1 = otcore.wasserstein1_exact

    def run():
        total = 0
        values = []
        for mu, nu in laws:
            memo.clear()
            t = time.perf_counter_ns()
            value, _ = w1(mu, nu)
            total += time.perf_counter_ns() - t
            values.append(value)
        return total * 1e-9, values
    return run


def closed_inputs(n: int, seed: int):
    """Unsorted line locations, star weights g >= 1 and 16 pairs of laws on n points."""
    rng = np.random.default_rng(seed)
    xs = rng.permutation(np.cumsum(rng.uniform(0.05, 2.0, size=n)))
    g = 1.0 + rng.uniform(0.0, 3.0, size=n)
    laws = rng.dirichlet(np.ones(n), size=2 * PAIRS)
    return xs, g, list(zip(laws[0::2], laws[1::2]))


def closed_op(pkg, kind, xs, g, pairs):
    """Seconds for ``wasserstein1_exact`` on every pair under the closed form
    of ``kind``, and each pair's value and plan bytes."""
    otcore = pkg["otcore"]
    if kind == "line":
        space = otcore.line_metric(xs)
    elif kind == "trivial":
        space = otcore.trivial_metric(range(len(xs)))
    else:
        space = otcore.dv_metric(otcore.WeightFunction(otcore.trivial_metric(range(len(g))), g))
    laws = [(otcore.DiscreteDistribution(space, wa), otcore.DiscreteDistribution(space, wb))
            for wa, wb in pairs]
    w1 = otcore.wasserstein1_exact

    def run():
        total = 0
        out = []
        for mu, nu in laws:
            t = time.perf_counter_ns()
            value, plan = w1(mu, nu)
            total += time.perf_counter_ns() - t
            out.append((value, plan.joint.tobytes()))
        return total * 1e-9, out
    return run


def table_op(pkg):
    """Seconds for the stacked ``thm31`` table of every sweep instance, each
    from an empty memo, and the distances."""
    cli, trajectory = pkg["cli"], pkg["kernels"].trajectory
    w1, memo = pkg["otcore"]._w1, pkg["_transport"]._memo
    tables = []
    for seed, size, mix in SWEEP:
        P, Pt, sp, _, p0, pt0 = cli.generate_random_instance(seed, size, mix)
        WA = np.array([law.weights for law in trajectory(p0, P, 30)])
        WB = np.array([law.weights for law in trajectory(pt0, Pt, 30)])
        tables.append((WA, WB, sp))

    def run():
        total = 0
        values = []
        for WA, WB, sp in tables:
            memo.clear()
            t = time.perf_counter_ns()
            value, _ = w1(WA, WB, sp)
            total += time.perf_counter_ns() - t
            values += value.tolist()
        return total * 1e-9, values
    return run


def rows_op(pkg):
    """Seconds for the bound rows of every n-step variant of every sweep
    instance, from an empty verifier memo."""
    bounds, cli = pkg["bounds"], pkg["cli"]
    ns = list(range(31))
    calls = []
    for seed, size, mix in SWEEP:
        P, Pt, sp, V, p0, pt0 = cli.generate_random_instance(seed, size, mix)
        for which, variant in bounds._VARIANTS.items():
            if variant.w0 is not None:
                c = bounds.verify_on_finite(P, Pt, bounds._metric_slot(which, sp, V), V,
                                            p0, pt0, 30, which).constants
                calls.append((variant.bound, (c["C"], c["rho"], ns, c["gamma"],
                                              c["delta"], c["L"], c["p0_V"]), c["w0"]))

    def run():
        bounds._once.cache_clear()
        t = time.perf_counter()
        for bound, args, w0 in calls:
            bound(*args)(w0)
        return time.perf_counter() - t, None
    return run


def sweep_op(pkg):
    """Seconds for one sweep-like pass from empty memos."""
    bounds, cli, memo = pkg["bounds"], pkg["cli"], pkg["_transport"]._memo

    def run():
        memo.clear()
        bounds._once.cache_clear()
        t = time.perf_counter()
        for seed, size, mix in SWEEP:
            P, Pt, sp, V, p0, pt0 = cli.generate_random_instance(seed, size, mix)
            for which in bounds.WHICH_CHOICES:
                bounds.verify_on_finite(P, Pt, bounds._metric_slot(which, sp, V), V,
                                        p0, pt0, 30, which)
        return time.perf_counter() - t, None
    return run


def paired(runs, rounds: int):
    """Per round: the time of each side, in alternating order, and their ratio."""
    times = ([], [])
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[side].append(runs[side]()[0])
    ratios = [c / p for p, c in zip(*times)]
    return ratios, times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src", nargs="?", default=os.path.join(HERE, "..", "..", "src"))
    ap.add_argument("--rounds", type=int, default=150, help="rounds of every workload but the sweep")
    ap.add_argument("--sweep-rounds", type=int, default=60, help="rounds of the sweep pass")
    args = ap.parse_args()
    sides = (load(args.parent_src, "wperturb_parent"), load(args.change_src, "wperturb_change"))
    work = []
    for kind, op in (("pair", pair_op), ("public", public_op)):
        for n in PAIR_SIZES:
            dist, pairs = pair_inputs(n, seed=n)
            runs = [op(pkg, dist, pairs) for pkg in sides]
            same = runs[0]()[1] == runs[1]()[1]
            print(f"{kind} {n}: W1 bits {'agree' if same else 'DIFFER'} on {PAIRS} pairs")
            work.append((f"{kind} {n}", runs, args.rounds))
    for n in PAIR_SIZES:
        xs, g, pairs = closed_inputs(n, seed=n)
        for kind in ("line", "trivial", "d_V"):
            runs = [closed_op(pkg, kind, xs, g, pairs) for pkg in sides]
            same = runs[0]()[1] == runs[1]()[1]
            print(f"closed {kind} {n}: W1 and plan bits {'agree' if same else 'DIFFER'}"
                  f" on {PAIRS} pairs")
            work.append((f"closed {kind} {n}", runs, args.rounds))
    runs = [table_op(pkg) for pkg in sides]
    same = runs[0]()[1] == runs[1]()[1]
    print(f"table: W1 bits {'agree' if same else 'DIFFER'} on {len(SWEEP)} tables")
    work.append(("table", runs, args.rounds))
    work.append(("rows", [rows_op(pkg) for pkg in sides], args.rounds))
    work.append(("sweep", [sweep_op(pkg) for pkg in sides], args.sweep_rounds))
    print(f"{'workload':18s} {'median ratio':>12s} {'quartiles':>17s} "
          f"{'parent ms':>10s} {'change ms':>10s}")
    for label, runs, rounds in work:
        for run in runs:  # warm both sides once
            run()
        ratios, (tp, tc) = paired(runs, rounds)
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        print(f"{label:18s} {med:12.3f} {q1:8.3f}-{q3:8.3f} "
              f"{1e3 * statistics.median(tp):10.3f} {1e3 * statistics.median(tc):10.3f}"
              + ("  unresolved" if q1 <= 1.0 <= q3 else ""))


if __name__ == "__main__":
    main()
