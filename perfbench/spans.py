"""In-memory span tracing around wperturb's public functions.

The tracer rebinds every module-level name in the ``wperturb`` package
that refers to a traced function, so a call is seen whichever module makes
it (``cli`` imports ``tau`` by name, ``bounds`` imports
``fit_geometric_constants``, and so on).  The package source is not
changed.  Each call becomes one span: name, start, end, parent span and an
optional attribute; spans stay in memory until ``write`` is called.
Functions that are called too often to keep a span for each call are
counted instead.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.attrs: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def _rebind(self, fn, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "wperturb" and not modname.startswith("wperturb."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` with a span recorded around each call.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after`` once the call returns; the span keeps whatever
        ``after`` returns (or ``before``'s result when there is no ``after``).
        """
        names, starts, ends, parents, attrs = (self.names, self.starts, self.ends,
                                               self.parents, self.attrs)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            attrs.append(None)
            state = before(args, kwargs) if before else None
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                attrs[idx] = after(state) if after else state

        return wrapper

    def span(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call of ``module.attr``, whoever calls it."""
        fn = getattr(module, attr)
        self._rebind(fn, self.wrap(fn, name, before, after))

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` without keeping spans."""
        fn = getattr(module, attr)
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._rebind(fn, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    # ------------------------------------------------------------- queries

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def children(self) -> list:
        kids = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def covered(self, i: int, kids: list, layers=None) -> float:
        """Time inside span i spent in descendant spans.

        With ``layers`` given, only the outermost descendants whose layer is
        in ``layers`` count; otherwise the direct children do.
        """
        total = 0.0
        todo = list(kids[i])
        while todo:
            c = todo.pop()
            if layers is None or _layer(self.names[c]) in layers:
                total += self.duration(c)
            else:
                todo.extend(kids[c])
        return total

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def write(self, path: str) -> None:
        t0 = min(self.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# support-size buckets for the per-miss solve time: the largest of the two
# pruned supports, small up to 12 (every sweep instance), large above 64
SIZE_BUCKETS = (("small", 1, 12), ("mid", 13, 64), ("large", 65, 10 ** 9))


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the per-layer metrics name."""
    from wperturb import _rng, _transport, ar1, bounds, cli, kernels, langevin, mh, otcore

    memo = _transport._memo

    def solve_before(args, kwargs):
        return memo.misses, max(len(args[0]), len(args[1]))

    def solve_after(state):
        misses, size = state
        return memo.misses > misses, size

    tracer.span(_transport, "solve", "transport.solve", solve_before, solve_after)
    tracer.span(otcore, "wasserstein1_exact", "otcore.w1")
    tracer.span(kernels, "tau", "kernels.tau")
    tracer.span(kernels, "fit_geometric_constants", "kernels.fit")
    tracer.span(kernels, "kernel_gamma_wasserstein", "kernels.gamma")
    tracer.span(bounds, "verify_on_finite", "bounds.verify")
    tracer.span(cli, "generate_random_instance", "cli.generate")
    tracer.span(cli, "run", "cli.run")
    tracer.span(cli, "_write_atomic", "cli.write")
    tracer.span(ar1, "ar1_simulate_coupled", "ar1.simulate")
    tracer.span(langevin, "langevin_simulate_pair", "langevin.simulate")
    tracer.span(langevin, "langevin_drift_check", "langevin.drift_check")
    report_sig = inspect.signature(mh.mh_metro_geom_report)

    def report_before(args, kwargs):
        bound = report_sig.bind(*args, **kwargs).arguments
        return bound["n"] * bound["samples"]

    tracer.span(mh, "mh_metro_geom_report", "mh.report", report_before)
    tracer.count(_rng, "philox", "rng.philox")


def layer_metrics(tracer: Tracer, memo_hits: int, memo_misses: int) -> dict:
    """Per-layer metrics of one traced pass; ``memo_*`` are the pass's deltas."""
    kids = tracer.children()
    by_name: dict = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(tracer.duration(i) for i in spans(name))

    solves = spans("transport.solve")
    miss_ms = {label: [] for label, _, _ in SIZE_BUCKETS}
    hit_us = []
    for i in solves:
        miss, size = tracer.attrs[i]
        if miss:
            for label, lo, hi in SIZE_BUCKETS:
                if lo <= size <= hi:
                    miss_ms[label].append(1e3 * tracer.duration(i))
        else:
            hit_us.append(1e6 * tracer.duration(i))

    verify = spans("bounds.verify")
    generate = spans("cli.generate")
    reports = spans("mh.report")
    report_s = total("mh.report")
    out = {
        "transport.solve_calls": len(solves),
        "transport.ssp_solves": memo_misses,
        "transport.repeat_ratio": memo_hits / len(solves) if solves else 0.0,
        "transport.solve_s": total("transport.solve"),
    }
    for label, _, _ in SIZE_BUCKETS:
        out[f"transport.ssp_ms_p50.{label}"] = _median(miss_ms[label])
    out.update({
        "transport.hit_us_p50": _median(hit_us),
        "otcore.w1_calls": len(spans("otcore.w1")),
        "otcore.w1_s": total("otcore.w1"),
        "kernels.tau_calls": len(spans("kernels.tau")),
        "kernels.tau_pair_solves": sum(
            1 for i in solves if tracer.has_ancestor(i, "kernels.tau")),
        "kernels.tau_s": total("kernels.tau"),
        "kernels.fit_s": total("kernels.fit"),
        "kernels.gamma_s": total("kernels.gamma"),
        "bounds.verify_calls": len(verify),
        "bounds.verify_s": total("bounds.verify"),
        "bounds.verify_self_s": sum(
            tracer.duration(i) - tracer.covered(i, kids, {"kernels", "transport"})
            for i in verify),
        "cli.generate_s": total("cli.generate"),
        "cli.generate_self_s": sum(
            tracer.duration(i) - tracer.covered(i, kids) for i in generate),
        "cli.probe_verify_calls": sum(
            1 for i in verify if tracer.has_ancestor(i, "cli.generate")),
        "cli.run_s": total("cli.run"),
        "cli.write_s": total("cli.write"),
        "ar1.simulate_s": total("ar1.simulate"),
        "langevin.simulate_s": total("langevin.simulate"),
        "langevin.drift_check_s": total("langevin.drift_check"),
        "mh.report_s": report_s,
        "mh.replica_steps_per_s": (
            sum(tracer.attrs[i] for i in reports) / report_s if report_s > 0 else 0.0),
        "rng.philox_calls": tracer.counts.get("rng.philox", 0),
    })
    return out
