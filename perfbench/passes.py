"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passes.py --workload NAME --seed N --work DIR [--trace FILE] [--setup-only]

Imports wperturb from the checkout's ``src``, builds the workload's inputs,
runs every operation once (the timed pass), then checks every output.
The last line of standard output is one JSON object:

    setup_end      perf_counter() when the inputs were built; the parent
                   subtracts its own clock reading from before it started
                   this process (both read CLOCK_MONOTONIC)
    wall_s         the timed pass, less the ruler's time
    op_s           seconds per operation, in order
    ruler_ms       times of the ruler (ruler.py), run before every operation
                   and once after the last, each timed apart from them
    peak_rss_mib   peak resident memory at the end of the timed pass
    attempted, failed, failures (the first few messages)
    layers         per-layer metrics, with --trace only
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_wperturb():
    sys.path.insert(0, SRC)
    import wperturb

    # a wperturb installed elsewhere must not stand in for the checkout's
    if os.path.dirname(os.path.dirname(os.path.abspath(wperturb.__file__))) != SRC:
        raise ImportError(f"wperturb imported from {wperturb.__file__}, not from {SRC}")
    return wperturb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory for this pass")
    ap.add_argument("--trace", default=None, help="trace the pass; write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_wperturb()
    import ruler
    import spans
    import workloads
    from wperturb import _transport

    os.makedirs(args.work, exist_ok=True)
    ops = workloads.BUILDERS[args.workload](args.seed, args.work)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        run_op = tracer.wrap(lambda op: op.fn(), "bench.op")
    else:
        run_op = None
    memo = _transport._memo
    hits0, misses0 = memo.hits, memo.misses

    results = [None] * len(ops)
    errors = {}
    op_s = []
    rulers = []
    ruler.measure()  # warm-up
    clock = time.perf_counter
    t_pass = clock()
    for k, op in enumerate(ops):
        rulers.append(ruler.measure())
        t0 = clock()
        try:
            results[k] = run_op(op) if run_op else op.fn()
        except Exception as exc:  # an operation that raises counts as failed
            errors[k] = f"{op.label}: {type(exc).__name__}: {exc}"
        op_s.append(clock() - t0)
    wall_s = clock() - t_pass - sum(rulers)
    rulers.append(ruler.measure())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_end": setup_end, "wall_s": wall_s, "op_s": op_s,
           "ruler_ms": [1e3 * r for r in rulers], "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        tracer.restore()
        out["layers"] = spans.layer_metrics(tracer, memo.hits - hits0,
                                            memo.misses - misses0)
        tracer.write(args.trace)

    for k, op in enumerate(ops):
        if k in errors:
            continue
        try:
            op.check(results[k])
        except workloads.CheckFailed as exc:
            errors[k] = f"{op.label}: {exc}"
        except Exception as exc:  # a check that cannot run fails its operation
            errors[k] = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    out.update(attempted=len(ops), failed=len(errors),
               failures=[errors[k] for k in sorted(errors)][:5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
