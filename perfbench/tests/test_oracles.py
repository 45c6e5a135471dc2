"""The benchmark's reference computations, on cases worked out by hand.

    python3 -m pytest perfbench/tests
"""
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import oracles  # noqa: E402
import ruler  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402


def test_w1_line_moves_mass_along_the_line():
    xs = [0.0, 1.0, 3.0]
    # all mass from 0 to 3
    assert oracles.w1_line(xs, [1, 0, 0], [0, 0, 1]) == pytest.approx(3.0)
    # half a unit from 0 to 1 and half from 1 to 3: 0.5 * 1 + 0.5 * 2
    assert oracles.w1_line(xs, [0.5, 0.5, 0], [0, 0.5, 0.5]) == pytest.approx(1.5)
    # point order does not matter
    assert oracles.w1_line([3.0, 0.0, 1.0], [0, 1, 0], [1, 0, 0]) == pytest.approx(3.0)


def test_w1_trivial_is_the_l1_distance():
    assert oracles.w1_trivial([1, 0], [0, 1]) == 2.0
    assert oracles.w1_trivial([0.5, 0.5, 0], [0.25, 0.5, 0.25]) == pytest.approx(0.5)


def test_w1_weighted_weights_each_point():
    # moving 1 from x to y costs V(x) + V(y) = 1 + 3
    assert oracles.w1_weighted([1, 3], [1, 0], [0, 1]) == pytest.approx(4.0)
    assert oracles.w1_weighted([2, 1, 5], [0.5, 0.5, 0], [0.5, 0.25, 0.25]) == pytest.approx(1.5)


def test_w1_linprog_on_small_metrics():
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert oracles.w1_linprog(d, [1, 0], [0, 1]) == pytest.approx(3.0)
    assert oracles.w1_linprog(d, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    # 3-4-5 right triangle: mass 0.5 from the right-angle corner to each end
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    assert oracles.w1_linprog(d, [1, 0, 0], [0, 0.5, 0.5]) == pytest.approx(3.5)
    # on a line it agrees with the CDF formula
    assert oracles.w1_linprog(np.abs(np.subtract.outer([0, 1, 3], [0, 1, 3])),
                              [0.5, 0.5, 0], [0, 0.5, 0.5]) == pytest.approx(1.5)


def test_tau_line_is_the_worst_row_pair():
    xs = [0.0, 1.0]
    assert oracles.tau_line(xs, [[1, 0], [0, 1]]) == pytest.approx(1.0)
    assert oracles.tau_line(xs, [[0.5, 0.5], [0.5, 0.5]]) == 0.0
    # rows 0 and 1 are 0.25 apart in W1 over a distance 1; rows 1 and 2 are
    # 0.25 apart over a distance 2, rows 0 and 2 0.5 apart over 3
    xs = [0.0, 1.0, 3.0]
    M = [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.25, 0.625, 0.125]]
    assert oracles.tau_line(xs, M) == pytest.approx(0.25)


def test_tau_linprog_brackets_the_worst_row_pair():
    # the line case of test_tau_line_is_the_worst_row_pair, as a metric matrix
    xs = [0.0, 1.0, 3.0]
    M = [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.25, 0.625, 0.125]]
    lo, hi = oracles.tau_linprog(np.abs(np.subtract.outer(xs, xs)), M, 1e-9)
    assert lo <= 0.25 <= hi and hi - lo == pytest.approx(2e-9)
    # 3-4-5 triangle, d(0, 1) = 3, d(0, 2) = 4, d(1, 2) = 5: each pair of
    # rows differs by 0.5 moved between two points, so rows 0 and 1 cost
    # 0.5 * d(1, 2) = 2.5 over 3, rows 0 and 2 cost 0.5 * d(0, 2) = 2 over 4,
    # and rows 1 and 2 cost 0.5 * d(0, 1) = 1.5 over 5; the worst is 5/6
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    M = [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    lo, hi = oracles.tau_linprog(d, M, 1e-9)
    assert lo == pytest.approx(5 / 6) and hi == pytest.approx(5 / 6)
    assert lo < 5 / 6 < hi


def test_stationary_eig_on_two_states():
    a, b = 0.3, 0.1
    pi = oracles.stationary_eig([[1 - a, a], [b, 1 - b]])
    assert pi == pytest.approx([b / (a + b), a / (a + b)])


def test_folded_normal_mean():
    assert oracles.folded_normal_mean(0.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi))
    assert oracles.folded_normal_mean(-2.0, 0.0) == 2.0
    assert oracles.folded_normal_mean(50.0, 1.0) == pytest.approx(50.0)
    # E|X| for X ~ N(1, 1): sqrt(2/pi) e^{-1/2} + erf(1/sqrt 2)
    assert oracles.folded_normal_mean(1.0, 1.0) == pytest.approx(1.16663, abs=1e-5)


def test_ar1_coupled_mean_dev():
    # shared start 0: after one step both chains hold the same innovation
    assert oracles.ar1_coupled_mean_dev(0.7, 0.71, 1.0, 1.0, 0.0, 1) == 0.0
    # after two steps X_2 - Xt_2 = (alpha - alpha_t) Z_1
    c = 0.7 - 0.71
    assert oracles.ar1_coupled_mean_dev(0.7, 0.71, 1.0, 1.0, 0.0, 2) == pytest.approx(
        oracles.folded_normal_mean(c * 1.0, abs(c)))
    # a start away from 0 enters through alpha^n - alpha_t^n
    assert oracles.ar1_coupled_mean_dev(0.5, 0.25, 0.0, 0.0, 4.0, 1) == pytest.approx(1.0)


def test_quartiles_and_spread():
    assert steady.quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = steady.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert steady.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert steady.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_judge_holds_every_spread_to_its_bound():
    spec = {"end_to_end": [{"name": name, "unit": "s", "better": "lower", "bound": 0.25}
                           for name in ("scaled_wall_s", "setup_s")]}

    def runs(setups):
        return [{"correct": True, "attempted": 10, "failed": 0,
                 "metrics": {"scaled_wall_s": {"value": 1.0}, "setup_s": {"value": v}}}
                for v in setups]

    assert steady.judge(spec, [runs([1.0] * 5)] * 2)[2]
    # setup_s quartiles 0.6 and 1.4 around a median of 1: a spread of 0.8
    assert not steady.judge(spec, [runs([0.5, 0.7, 1.0, 1.3, 1.5])] * 2)[2]


def test_end_to_end_scales_each_operation_by_the_rulers_around_it():
    ref = ruler.REF_MS
    ops = [0.01, 0.02, 0.03, 0.04, 0.05] * 4
    # the same pass at reference speed, and on a host that runs at half
    # speed for the first ten operations: both scale to the same figures
    fast = {"op_s": ops, "ruler_ms": [ref] * 21, "peak_rss_mib": 90.0}
    slow = dict(fast, op_s=[2 * s for s in ops[:10]] + ops[10:],
                ruler_ms=[2 * ref] * 10 + [ref] * 11)
    # a ruler sample five times too slow, between two operations, moves
    # neither: the median of six neighbours passes over it
    jolt = dict(fast, ruler_ms=[ref] * 7 + [5 * ref] + [ref] * 13)
    for p in (fast, jolt):
        assert run.scaled_op_s(p) == pytest.approx(ops)
    # on the slow pass the neighbourhoods of operations 8 and 9 straddle the
    # change of speed, so their medians are a mix of fast and slow rulers
    scaled = run.scaled_op_s(slow)
    assert scaled[:8] == pytest.approx(ops[:8]) and scaled[12:] == pytest.approx(ops[12:])
    m = run.end_to_end([fast, jolt, fast], setups=[0.5, 0.7, 0.6])
    assert m["scaled_wall_s"] == pytest.approx(0.6)
    assert m["scaled_op_p50_ms"] == pytest.approx(30.0)
    assert m["scaled_op_p90_ms"] == pytest.approx(50.0)
    assert m["setup_s"] == 0.6
    assert m["peak_rss_mib"] == 90.0


def _hand_trace():
    """root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]."""
    t = spans.Tracer()
    for name, start, end, parent in (("cli.generate", 0, 10, -1), ("bounds.verify", 1, 4, 0),
                                     ("transport.solve", 2, 3, 1), ("kernels.tau", 5, 9, 0)):
        t.names.append(name)
        t.starts.append(float(start))
        t.ends.append(float(end))
        t.parents.append(parent)
        t.attrs.append(None)
    return t


def test_self_time_and_ancestry():
    t = _hand_trace()
    kids = t.children()
    assert kids == [[1, 3], [2], [], []]
    # self time of the root: 10 minus its direct children 3 and 4
    assert t.duration(0) - t.covered(0, kids) == 3.0
    # time outside kernels and transport: b (inside a) and c count, a does not
    assert t.duration(0) - t.covered(0, kids, {"kernels", "transport"}) == 5.0
    assert t.has_ancestor(2, "cli.generate") and t.has_ancestor(2, "bounds.verify")
    assert not t.has_ancestor(3, "bounds.verify")


def test_tracer_records_nesting_and_errors():
    calls = []
    t = spans.Tracer()
    f = t.wrap(lambda x: calls.append(x) or 2 * x, "kernels.tau")
    g = t.wrap(lambda x: f(x) + 1, "cli.generate")
    assert g(3) == 7 and calls == [3]
    assert t.names == ["cli.generate", "kernels.tau"] and t.parents == [-1, 0]
    assert t.ends[1] <= t.ends[0] and t.starts[0] <= t.starts[1]
    # a raising call still closes its span
    h = t.wrap(lambda: 1 / 0, "otcore.w1")
    with pytest.raises(ZeroDivisionError):
        h()
    assert t.ends[2] >= t.starts[2] > 0.0


def test_install_sees_calls_made_between_modules():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    import wperturb
    from wperturb import _transport, kernels

    sp = wperturb.line_metric([0.0, 1.0, 3.0])
    P = wperturb.FiniteKernel(sp, [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.25, 0.625, 0.125]])
    t = spans.Tracer()
    spans.install(t)
    try:
        _transport._memo.clear()
        # fit_geometric_constants calls tau through the kernels module's globals
        wperturb.fit_geometric_constants(P, sp, m=1, n_check=1)
    finally:
        t.restore()
    assert kernels.tau is wperturb.tau and not hasattr(kernels.tau, "__wrapped__")
    m = spans.layer_metrics(t, _transport._memo.hits, _transport._memo.misses)
    assert m["kernels.tau_calls"] == 1
    assert m["kernels.tau_pair_solves"] == m["transport.solve_calls"] == 3
    assert m["transport.ssp_solves"] == 3 and m["transport.repeat_ratio"] == 0.0
    assert m["kernels.fit_s"] >= m["kernels.tau_s"] >= m["transport.solve_s"] > 0.0
