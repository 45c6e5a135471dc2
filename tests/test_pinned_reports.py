"""Every bit of the seven reports on three generated instances, pinned.

``data/pinned_reports.json`` holds, for three seeded
``generate_random_instance`` calls (sizes 6, 9 and 12), each report's
``distances`` and ``bounds`` at ``n_max = 30`` as ``float.hex`` strings,
and the numbers of cold transport solves, of problems answered warm from
a distance table's last optimal tree, and of W1 memo misses that
generating the instance and making the seven reports took, starting from
empty memos.  A change that is meant to leave the arithmetic alone must
leave every one of them as it is; ``data/record_pinned_reports.py``
rewrites the file from the current code and says what moved.
"""
import json
import os

import pytest

from wperturb import _transport
from wperturb.bounds import WHICH_CHOICES, _metric_slot, verify_on_finite
from wperturb.cli import generate_random_instance

with open(os.path.join(os.path.dirname(__file__), "data", "pinned_reports.json"),
          encoding="utf-8") as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"size{c['size']}")
def test_reports_are_pinned_to_the_bit(monkeypatch, case):
    solves = []
    solve = _transport.solve

    def counted(*args):
        solves.append(args[2].shape)
        return solve(*args)

    monkeypatch.setattr(_transport, "solve", counted)
    P, Pt, sp, V, p0, pt0 = generate_random_instance(case["seed"], case["size"], case["mix"])
    reports = {which: verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 30, which)
               for which in WHICH_CHOICES}
    assert list(reports) == list(case["reports"])
    for which, rep in reports.items():
        expected = case["reports"][which]
        assert [float(x).hex() for x in rep.distances] == expected["distances"], which
        assert [float(x).hex() for x in rep.bounds] == expected["bounds"], which
    assert len(solves) == _transport._memo.cold == case["solves"]
    assert _transport._memo.warm == case["warm"]
    assert _transport._memo.misses == case["misses"]
