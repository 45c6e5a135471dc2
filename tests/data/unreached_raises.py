"""List the raise statements of a source tree that a test run never executes.

    python tests/data/unreached_raises.py SRC [pytest args]

Runs pytest in this process (with the given arguments, default ``tests``)
under a ``sys.settrace`` line tracer that records only the lines of files
under ``SRC``, then parses every ``.py`` file under ``SRC`` with ``ast``
and prints each ``raise`` statement none of whose lines ran, as
``file line``, followed by the total.  For example, from the root of a
checkout:

    PYTHONPATH=src python tests/data/unreached_raises.py src/wperturb tests

The tests must import the package from ``SRC`` (hence ``PYTHONPATH``).
Code run in a subprocess, such as a command-line test that starts a new
interpreter, is not traced, so its raises count as unreached.  The
tracer slows the suite several times over.  The exit status is pytest's.
"""
import ast
import os
import sys
import threading

import pytest


def raise_lines(path: str) -> list[tuple[int, int]]:
    """(first, last) line of every raise statement in the file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    root = os.path.realpath(sys.argv[1])
    args = sys.argv[2:] or ["tests"]
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}  # code file name -> whether it lies under root

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = os.path.realpath(name).startswith(root + os.sep)
            if hit:
                ran.setdefault(name, set())
        return local if hit else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines: dict[str, set[int]] = {}
    for name, seen in ran.items():
        lines.setdefault(os.path.realpath(name), set()).update(seen)
    total = 0
    for folder, _, files in sorted(os.walk(root)):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            seen = lines.get(path, set())
            for first, last in raise_lines(path):
                if seen.isdisjoint(range(first, last + 1)):
                    print(f"{os.path.relpath(path)} {first}")
                    total += 1
    print(f"{total} raise statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
