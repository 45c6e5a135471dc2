"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--sets 2]
                                [--seed0 1] [--seconds S]

Runs ``run.py`` ``--runs`` times per workload and set, run i with seed
``seed0 + i`` (the same seeds in every set), and reports per workload and
end-to-end metric:

    spread   (q3 - q1) / median of the set's runs, from
             statistics.quantiles(values, n=4); must stay within the
             metric's bound in BENCHMARK.json, and is flagged when above
             a third of it
    drift    how much worse the last set's median is than the first's, as
             a share of the first; must stay within the bound
    failed   the share of failed operations, which must be equal in every set

Exit code 0 when every check holds.  All run results are saved to
perfbench/out/steady-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def worse_by(first, last, better) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    return (last - first) / first if better == "lower" else (first - last) / first


def judge(spec: dict, sets: list) -> tuple:
    """Rows of (metric, per-set medians, per-set spreads, drift, ok) and overall ok."""
    rows = []
    all_ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [quartiles(v)[1] for v in values]
        spreads = [spread(v) for v in values]
        drift = worse_by(medians[0], medians[-1], m["better"])
        ok = drift <= bound and max(spreads) <= bound
        all_ok &= ok
        rows.append((name, m["unit"], bound, medians, spreads, drift, ok))
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in sets]
    all_ok &= len(set(shares)) == 1 and all(r["correct"] for runs in sets for r in runs)
    return rows, shares, all_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="two sets of runs, compared within bounds")
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    everything_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                runs.append(_run(workload, args.seed0 + i, args.seconds))
                print(f"{workload} set {s + 1} run {i + 1}/{args.runs} done", file=sys.stderr)
            sets.append(runs)
        with open(os.path.join(OUT, f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(sets, fh, indent=1)
        rows, shares, ok = judge(spec, sets)
        everything_ok &= ok
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs, failed share per set "
              f"{shares}")
        print(f"  {'metric':14s} {'unit':5s} {'bound':>5s}  {'medians':28s} "
              f"{'spreads':20s} {'drift':>7s}")
        for name, unit, bound, medians, spreads, drift, row_ok in rows:
            flag = "ok" if row_ok else "FAIL"
            if row_ok and max(spreads) > bound / 3:
                flag = "ok (spread above bound/3)"
            print(f"  {name:14s} {unit:5s} {bound:5.2f}  "
                  f"{' '.join(f'{m:9.4g}' for m in medians):28s} "
                  f"{' '.join(f'{s:6.3f}' for s in spreads):20s} {drift:+7.3f}  {flag}")
    print("\nsteady" if everything_ok else "\nNOT steady")
    return 0 if everything_ok else 1


if __name__ == "__main__":
    sys.exit(main())
