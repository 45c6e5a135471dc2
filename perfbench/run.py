"""wperturb benchmark: run a workload and report its metrics.

    python3 perfbench/run.py --workload {sweep,distances,simulate,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs as many whole passes of the workload as fit in ``--seconds`` (at
least one), each in a fresh interpreter (so each starts with an empty
transport memo, as every ``wperturb run`` does), then prints every metric
with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the run's passes; with ``--trace 1`` every pass is traced and
the metrics are the per-layer ones, medians over the traced passes.  A
pass that cannot start or crashes ends the run with exit code 1 and no
result.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import ruler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "distances", "simulate")
MIN_SETUPS = 9             # set-up samples per run; passes alone give fewer
PASS_TIMEOUT_S = 170


class PassError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, work: str, trace_file=None,
             setup_only=False) -> dict:
    """One pass in a fresh interpreter; returns its JSON plus ``setup_s``."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), "--workload", workload,
           "--seed", str(seed), "--work", work]
    if trace_file:
        cmd += ["--trace", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - t0
    return result


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def scaled_op_s(p: dict) -> list:
    """The pass's operation times, each scaled by the ruler around it.

    Operation k is scaled by ``ruler.REF_MS`` over the median of the six
    ruler times from two operations before it to two after it: the host's
    speed shifts from second to second, and a median of neighbours follows
    that while one slow ruler sample moves it little.
    """
    r = p["ruler_ms"]
    return [s * ruler.REF_MS / statistics.median(r[max(0, k - 2):k + 4])
            for k, s in enumerate(p["op_s"])]


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end metrics, each the median over the run's passes.

    Pass and operation times are scaled by the ruler (``scaled_op_s``);
    ``setup_s`` and ``peak_rss_mib`` are as measured.
    """
    scaled = [scaled_op_s(p) for p in passes]
    per_pass = {
        "scaled_wall_s": [sum(ops) for ops in scaled],
        "scaled_op_p50_ms": [1e3 * statistics.median(ops) for ops in scaled],
        "scaled_op_p90_ms": [1e3 * _p90(ops) for ops in scaled],
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
        "setup_s": setups,
    }
    return {name: statistics.median(v) for name, v in per_pass.items()}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}"
    work = os.path.join(OUT, f"work-{os.getpid()}")
    trace_file = os.path.join(OUT, f"trace-{tag}.csv") if trace else None
    passes = []
    longest = 0.0
    t_start = time.perf_counter()
    # start another pass only if one as long as the longest so far still
    # ends within the run's time
    while not passes or time.perf_counter() - t_start + longest <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, work, trace_file))
        longest = max(longest, time.perf_counter() - t0)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["failures"]:
            print(f"FAILED {workload}: {msg}", file=sys.stderr)

    if trace:
        kind = "per_layer"
        for p in passes:
            p["layers"]["trace.scaled_wall_s"] = sum(scaled_op_s(p))
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
    else:
        kind = "end_to_end"
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(run_pass(workload, seed, work, setup_only=True)["setup_s"])
        values = end_to_end(passes, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    print(f"{workload}: seed {seed}, {len(passes)} pass(es) of "
          f"{passes[0]['attempted']} operations, {attempted} attempted, {failed} failed")
    print("  per pass: unscaled wall_s " + " ".join(f"{p['wall_s']:.4g}" for p in passes)
          + ", median ruler_ms "
          + " ".join(f"{statistics.median(p['ruler_ms']):.4g}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wperturb benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long to keep starting passes (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "wperturb")):
        print(f"no wperturb source under {ROOT}/src", file=sys.stderr)
        return 1
    spec = _spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(spec, name, args.seed, seconds, bool(args.trace))
                   for name in names}
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
