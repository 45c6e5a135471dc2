"""Every bit of the seven reports on three generated instances, pinned.

``data/pinned_reports.json`` holds, for three seeded
``generate_random_instance`` calls (sizes 6, 9 and 12), each report's
``distances`` and ``bounds`` at ``n_max = 30`` as ``float.hex`` strings,
and the numbers of cold transport solves, of problems answered warm from
the optimal tree of the row solved cold before them in the same call, and
of W1 memo misses that generating the instance and making the seven
reports took, starting from empty memos.  A change that is meant to leave
the arithmetic alone must leave every one of them as it is;
``data/record_pinned_reports.py`` rewrites the file from the current code
and says what moved.
"""
import itertools
import json
import os

import numpy as np
import pytest

from wperturb import _transport, bounds
from wperturb.bounds import WHICH_CHOICES, _metric_slot, verify_on_finite
from wperturb.cli import generate_random_instance
from wperturb.kernels import compose, tau, trajectory
from wperturb.otcore import _w1

with open(os.path.join(os.path.dirname(__file__), "data", "pinned_reports.json"),
          encoding="utf-8") as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"size{c['size']}")
def test_reports_are_pinned_to_the_bit(monkeypatch, case):
    solves = []
    solve = _transport.solve

    def counted(a, b, C):
        # one entry per problem: a stack of rows poses one problem per row
        solves.extend([C.shape] * len(np.atleast_2d(a)))
        return solve(a, b, C)

    monkeypatch.setattr(_transport, "solve", counted)
    P, Pt, sp, V, p0, pt0 = generate_random_instance(case["seed"], case["size"], case["mix"])
    reports = {which: verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 30, which)
               for which in WHICH_CHOICES}
    assert list(reports) == list(case["reports"])
    for which, rep in reports.items():
        expected = case["reports"][which]
        assert [float(x).hex() for x in rep.distances] == expected["distances"], which
        assert [float(x).hex() for x in rep.bounds] == expected["bounds"], which
    assert len(solves) == _transport._memo.cold + _transport._memo.warm
    assert _transport._memo.cold == case["solves"]
    assert _transport._memo.warm == case["warm"]
    assert _transport._memo.misses == case["misses"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"size{c['size']}")
def test_reports_do_not_depend_on_earlier_solves(case):
    # each report is made after unrelated solves on the same space (tau of
    # another kernel, then the other six reports in reverse order), with
    # their memo entries left in place, and must still equal its pins to
    # the bit
    P, Pt, sp, V, p0, pt0 = generate_random_instance(case["seed"], case["size"], case["mix"])
    for which in WHICH_CHOICES:
        _transport._memo.clear()
        bounds._once.cache_clear()
        tau(compose(Pt, P), sp)
        for other in reversed(WHICH_CHOICES):
            if other != which:
                verify_on_finite(P, Pt, _metric_slot(other, sp, V), V, p0, pt0, 30, other)
        bounds._once.cache_clear()  # the report recomputes its fits and table
        rep = verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 30, which)
        expected = case["reports"][which]
        assert [float(x).hex() for x in rep.distances] == expected["distances"], which
        assert [float(x).hex() for x in rep.bounds] == expected["bounds"], which


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"size{c['size']}")
def test_every_row_is_the_same_after_any_other_row(case):
    # a row answered from the tree of any other row of its table is its cold
    # answer to the bit: each ordered pair of rows is one two-row stack, and
    # the solver answers the second row from the first row's tree only when
    # that tree is the one optimal basis of its costs and the new plan is
    # nondegenerate, so a cold solve ends on the same tree
    P, Pt, sp, V, p0, pt0 = generate_random_instance(case["seed"], case["size"], case["mix"])
    rows = [(p.weights, q.weights)
            for p, q in zip(trajectory(p0, P, 30), trajectory(pt0, Pt, 30))]
    cold = []
    for wa, wb in rows:
        _transport._memo.clear()
        value, plan = _w1(wa, wb, sp)
        cold.append((value, plan.tobytes()))
    warm = 0
    for i, j in itertools.permutations(range(len(rows)), 2):
        _transport._memo.clear()
        values, plans = _w1(np.array([rows[i][0], rows[j][0]]),
                            np.array([rows[i][1], rows[j][1]]), sp)
        warm += _transport._memo.warm
        pair = [(value, plan.tobytes()) for value, plan in zip(values.tolist(), plans)]
        assert pair == [cold[i], cold[j]], (i, j)
    assert warm > len(rows)
