"""Rewrite ``pinned_reports.json`` from the current code.

    PYTHONPATH=src python tests/data/record_pinned_reports.py

For each case already in the file (seed, size and mix of one
``generate_random_instance`` call) it makes the seven reports at
``n_max = 30`` from empty memos, as ``tests/test_pinned_reports.py`` does,
and records every distance and bound as ``float.hex`` together with the
counts of cold transport solves, warm-answered problems and W1 memo
misses.  For each case and report it prints how many values moved and the
largest move in ulps, then rewrites the file.
"""
import json
import os
import struct

from wperturb import _transport
from wperturb.bounds import WHICH_CHOICES, _metric_slot, verify_on_finite
from wperturb.cli import generate_random_instance

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_reports.json")


def _ordinal(x: float) -> int:
    """Position of x on the line of doubles, so that ulps are differences."""
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & 0x7FFFFFFFFFFFFFFF)


def ulps(old: float, new: float) -> int:
    return abs(_ordinal(old) - _ordinal(new))


def record(case: dict) -> dict:
    _transport._memo.clear()
    P, Pt, sp, V, p0, pt0 = generate_random_instance(case["seed"], case["size"], case["mix"])
    reports = {which: verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 30, which)
               for which in WHICH_CHOICES}
    memo = _transport._memo
    return {"seed": case["seed"], "size": case["size"], "mix": case["mix"],
            "solves": memo.cold, "warm": memo.warm, "misses": memo.misses,
            "reports": {which: {"distances": [float(x).hex() for x in rep.distances],
                                "bounds": [float(x).hex() for x in rep.bounds]}
                        for which, rep in reports.items()}}


def _dump(cases: list) -> str:
    """The file's layout: one line per case header and per value list."""
    out = ["["]
    for k, case in enumerate(cases):
        head = {key: case[key] for key in case if key != "reports"}
        out.append(" " + json.dumps(head)[:-1] + ",")
        out.append('  "reports": {')
        items = list(case["reports"].items())
        for j, (which, rep) in enumerate(items):
            out.append(f'   "{which}": {{')
            out.append(f'    "distances": {json.dumps(rep["distances"])},')
            out.append(f'    "bounds": {json.dumps(rep["bounds"])}')
            out.append("   }" + ("," if j < len(items) - 1 else ""))
        out.append("  }")
        out.append(" }" + ("," if k < len(cases) - 1 else ""))
    out.append("]")
    return "\n".join(out) + "\n"


def main() -> None:
    with open(PATH, encoding="utf-8") as fh:
        old_cases = json.load(fh)
    new_cases = [record(case) for case in old_cases]
    for old, new in zip(old_cases, new_cases):
        counts = {key: (old.get(key), new[key]) for key in ("solves", "warm", "misses")}
        print(f"seed {new['seed']} size {new['size']} mix {new['mix']}: "
              + ", ".join(f"{key} {a} -> {b}" for key, (a, b) in counts.items()))
        for which, rep in new["reports"].items():
            for field, values in rep.items():
                before = old["reports"][which][field]
                moves = [ulps(float.fromhex(a), float.fromhex(b))
                         for a, b in zip(before, values)]
                moved = sum(m > 0 for m in moves)
                print(f"  {which:16s} {field:9s} {moved:2d} of {len(values):2d} moved, "
                      f"largest by {max(moves, default=0)} ulp")
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(_dump(new_cases))


if __name__ == "__main__":
    main()
