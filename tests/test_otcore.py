"""Wasserstein core: oracles first.

Independent routes used to pin wasserstein1_exact:
  * two-point closed form  W = |mu_1 - nu_1| * d
  * CDF area formula on the real line (any support size)
  * Kantorovich duality: any 1-Lipschitz f gives a lower bound
  * trivial metric  =>  W equals total variation
  * d_V metric      =>  W equals the V-weighted norm
  * scipy linprog (HiGHS) as a second LP solver

Spaces built by line_metric, trivial_metric and dv_metric are answered by
closed forms, so the transport side of each cross-check runs on an
untagged copy, ``untagged(sp)``, which always takes the transport solve.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from wperturb import _transport
from wperturb.errors import SpaceMismatchError
from wperturb.kernels import FiniteKernel, tau
from wperturb.otcore import (
    METRIC_TOL,
    Coupling,
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    _blocks,
    _tv,
    _w1,
    dv_metric,
    empirical_w1_1d,
    empirical_w1_clouds,
    line_metric,
    point_mass,
    total_variation,
    trivial_metric,
    vnorm_distance,
    wasserstein1_exact,
)


def linprog_value(a, b, C):
    """The value of scipy's HiGHS LP solver (good to about 1e-7), the
    independent oracle, certified like a production solve."""
    a, b, C = (np.ascontiguousarray(x, dtype=float) for x in (a, b, C))
    n, m = C.shape
    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(m):
            k = i * m + j
            rows.append(i)
            cols.append(k)
            data.append(1.0)
            if j < m - 1:  # last column-sum constraint is redundant
                rows.append(n + j)
                cols.append(k)
                data.append(1.0)
    A = csr_matrix((data, (rows, cols)), shape=(n + m - 1, n * m))
    rhs = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.success, f"linprog failed: {res.message}"
    y = res.eqlin.marginals
    return _transport._certify(a, b, C, res.x.reshape(n, m), y[:n],
                               np.append(y[n:], 0.0))[0]


def random_simplex(rng, n):
    w = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
    return w / w.sum()


def euclidean_space(rng, n):
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    # collisions would break positivity; nudge apart deterministically
    while n > 1 and np.min(dist[~np.eye(n, dtype=bool)]) <= 0:
        pts = pts + rng.normal(size=pts.shape) * 0.1
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FiniteMetricSpace(range(n), dist)


def untagged(sp):
    """The same metric as a plain FiniteMetricSpace: no closed form applies."""
    return FiniteMetricSpace(sp.points, sp.dist)


def w1_line_cdf(xs, mu_w, nu_w):
    """Oracle: on the line, W1 = integral of |F_mu - F_nu|."""
    diff = np.cumsum(mu_w - nu_w)[:-1]
    return float(np.sum(np.abs(diff) * np.diff(xs)))


# ---------------------------------------------------------------- metric space


def test_metric_validation_rejects_bad_matrices():
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace([0, 1], [[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace([0, 1], [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="positive"):
        FiniteMetricSpace([0, 1], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace([0, 1, 2], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValueError, match="finite"):
        FiniteMetricSpace([0, 1], [[0.0, np.inf], [np.inf, 0.0]])


def triangle_holds_by_loop(dist):
    """Reference: the triangle check one intermediate point j at a time."""
    for j in range(len(dist)):
        if np.max(dist - (dist[:, j][:, None] + dist[j, :][None, :])) > METRIC_TOL:
            return False
    return True


def broken_through(n, j, excess):
    """Distances 1 off the diagonal but d(a, j) = 0.5 and d(a, c) = 1.5 +
    excess, for a, c the two points after j: d(a, c) <= d(a, j) + d(j, c)
    is the one triangle that can fail, through j alone."""
    a, c = (j + 1) % n, (j + 2) % n
    dist = 1.0 - np.eye(n)
    dist[a, j] = dist[j, a] = 0.5
    dist[a, c] = dist[c, a] = 1.5 + excess
    return dist


@pytest.mark.parametrize("n", [7, 200])
def test_triangle_check_sees_a_break_through_the_last_point_of_a_block(n):
    blocks = _blocks(n)
    if n == 200:  # blocks of 6 intermediate points, the last one partial
        assert blocks[0] == slice(0, 6) and blocks[-1] == slice(198, 204)
    ends = {0, n - 1}
    for b in blocks[:1] + blocks[-2:]:
        ends |= {b.start, min(b.stop, n) - 1}
    # 2e-12 breaks the inequality beyond METRIC_TOL; 5e-13 stays within it
    for j in sorted(ends):
        for excess in (0.1, 2e-12):
            dist = broken_through(n, j, excess)
            assert not triangle_holds_by_loop(dist)
            with pytest.raises(ValueError, match="^triangle inequality fails$"):
                FiniteMetricSpace(range(n), dist)
        dist = broken_through(n, j, 5e-13)
        assert triangle_holds_by_loop(dist)
        FiniteMetricSpace(range(n), dist)


def test_trivial_metric_is_two_off_diagonal():
    sp = trivial_metric(range(4))
    assert np.all(np.diagonal(sp.dist) == 0)
    off = sp.dist[~np.eye(4, dtype=bool)]
    assert np.all(off == 2.0)


def test_trivial_metric_reads_its_points_once():
    sp = trivial_metric(x for x in "abc")
    assert sp.points == ["a", "b", "c"] and sp.dist.shape == (3, 3)


def test_line_metric_duplicate_points_rejected():
    with pytest.raises(ValueError):
        line_metric([0.0, 1.0, 1.0])


@given(st.lists(st.floats(1.0, 50.0), min_size=2, max_size=12))
def test_dv_metric_is_a_metric(vals):
    sp = trivial_metric(range(len(vals)))
    V = WeightFunction(sp, vals)
    dv = dv_metric(V)  # construction validates the axioms
    assert dv.dist[0, 1] == pytest.approx(vals[0] + vals[1])


def test_weight_function_requires_at_least_one():
    sp = trivial_metric(range(2))
    with pytest.raises(ValueError, match="V >= 1"):
        WeightFunction(sp, [1.0, 0.5])


# -------------------------------------------------------------- distributions


def test_distribution_validation():
    sp = trivial_metric(range(3))
    with pytest.raises(ValueError, match="sum"):
        DiscreteDistribution(sp, [0.5, 0.3, 0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteDistribution(sp, [1.2, -0.2, 0.0])
    with pytest.raises(ValueError, match="shape"):
        DiscreteDistribution(sp, [0.5, 0.5])


def test_expectation():
    sp = trivial_metric(range(2))
    p = DiscreteDistribution(sp, [0.25, 0.75])
    assert p.expectation([1.0, 3.0]) == pytest.approx(2.5)


# ------------------------------------------------------------------ exact W1


def test_two_point_flip_moves_all_mass():
    sp = FiniteMetricSpace("ab", [[0.0, 1.0], [1.0, 0.0]])
    mu = DiscreteDistribution(sp, [1.0, 0.0])
    nu = DiscreteDistribution(sp, [0.0, 1.0])
    val, plan = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert plan.joint[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_identical_distributions_have_zero_distance():
    sp = euclidean_space(np.random.default_rng(0), 6)
    w = random_simplex(np.random.default_rng(1), 6)
    mu = DiscreteDistribution(sp, w)
    val, plan = wasserstein1_exact(mu, DiscreteDistribution(sp, w.copy()))
    assert val == 0.0
    ma, mb = plan.marginals()
    np.testing.assert_allclose(ma, w, atol=1e-13)
    np.testing.assert_allclose(mb, w, atol=1e-13)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 10.0))
# dust masses that an inexact LP solver rounds away or fails to certify
@example(1e-8, 0.0, 1.0)
@example(0.0, 1e-8, 1.0)
@example(1e-8, 1.175494351e-38, 1.0)
def test_two_point_closed_form(p, q, d):
    sp = FiniteMetricSpace([0, 1], [[0.0, d], [d, 0.0]])
    mu = DiscreteDistribution(sp, [p, 1.0 - p])
    nu = DiscreteDistribution(sp, [q, 1.0 - q])
    val, _ = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(abs(p - q) * d, abs=1e-9)
    # the line and star closed forms on the same two points: equal to the
    # solve, and never rounded to 0 when the exact value is representable
    for tagged, scale in ((line_metric([0.0, d], points=[0, 1]), d),
                          (trivial_metric([0, 1]), 2.0)):
        closed, _ = wasserstein1_exact(mu, nu, tagged)
        expected = abs(p - q) * scale
        assert closed == pytest.approx(expected, abs=1e-9)
        assert (closed > 0.0) == (expected > 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_line_cdf_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    xs = np.sort(rng.normal(size=n) * 3)
    while np.any(np.diff(xs) <= 0):
        xs = np.sort(rng.normal(size=n) * 3)
    sp = untagged(line_metric(xs))
    mu_w = random_simplex(rng, n)
    nu_w = random_simplex(rng, n)
    mu = DiscreteDistribution(sp, mu_w)
    nu = DiscreteDistribution(sp, nu_w)
    val, plan = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(w1_line_cdf(xs, mu_w, nu_w), abs=1e-9)
    ma, mb = plan.marginals()
    np.testing.assert_allclose(ma, mu_w, atol=1e-12)
    np.testing.assert_allclose(mb, nu_w, atol=1e-12)
    assert plan.cost() == pytest.approx(val, abs=1e-12)


def tagged_space_and_structure(rng, kind, n):
    """A space whose constructor records a closed form (line xs unsorted),
    and what it was built from: the line's xs, or the g of the star metric
    (g(x) + g(y)) 1{x != y}."""
    if kind == "line":
        xs = rng.permutation(np.cumsum(rng.uniform(0.05, 2.0, size=n)))
        return line_metric(xs), xs
    sp = trivial_metric(range(n))
    if kind == "trivial":
        return sp, np.ones(n)
    g = 1.0 + rng.uniform(0.0, 3.0, size=n)
    return dv_metric(WeightFunction(sp, g)), g


def tagged_space(rng, kind, n):
    """A space whose constructor records a closed form; line xs unsorted."""
    return tagged_space_and_structure(rng, kind, n)[0]


def shaped_pair(rng, n, shape):
    """Two laws on n points; dust, denormal-sized and zero masses in the first,
    or a second law within about 1e-12 of the first."""
    mu_w = random_simplex(rng, n)
    nu_w = random_simplex(rng, n)
    picked = rng.choice(n, size=max(1, n // 4), replace=False)
    if shape in ("dust", "denormal", "zeros"):
        mu_w[picked] = {"dust": 1e-8, "denormal": 1.175494351e-38, "zeros": 0.0}[shape]
        mu_w = mu_w / mu_w.sum()
    elif shape == "near":
        nu_w = mu_w.copy()
        nu_w[np.argmax(nu_w)] -= 1e-12
        nu_w[np.argmin(nu_w)] += 1e-12
    return mu_w, nu_w


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("line", "trivial", "d_V")), st.integers(2, 30),
       st.sampled_from(("plain", "dust", "denormal", "zeros", "near")),
       st.integers(0, 10_000))
@example("line", 2, "dust", 0)
@example("trivial", 2, "denormal", 0)
@example("d_V", 3, "zeros", 0)
@example("line", 12, "near", 1)
def test_closed_forms_match_the_solve_on_an_untagged_copy(kind, n, shape, seed):
    rng = np.random.default_rng(seed)
    sp = tagged_space(rng, kind, n)
    mu_w, nu_w = shaped_pair(rng, n, shape)
    mu = DiscreteDistribution(sp, mu_w)
    nu = DiscreteDistribution(sp, nu_w)
    memo = _transport._memo
    counts = (memo.hits, memo.misses)
    val, plan = wasserstein1_exact(mu, nu)
    assert (memo.hits, memo.misses) == counts  # no transport solve
    ref, _ = wasserstein1_exact(mu, nu, untagged(sp))
    assert val == pytest.approx(ref, abs=1e-9)
    assert (val > 0.0) == (not np.array_equal(mu_w, nu_w))
    ma, mb = plan.marginals()
    np.testing.assert_allclose(ma, mu_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mb, nu_w, rtol=0, atol=1e-12)
    assert plan.cost() == pytest.approx(val, abs=1e-12)


def test_line_metric_accepts_unsorted_locations():
    sp = line_metric([3.0, 0.0, 1.0])
    mu = DiscreteDistribution(sp, [0.5, 0.5, 0.0])
    nu = DiscreteDistribution(sp, [0.0, 0.0, 1.0])
    val, plan = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(0.5 * 2.0 + 0.5 * 1.0, abs=1e-15)
    np.testing.assert_array_equal(plan.joint, [[0, 0, 0.5], [0, 0, 0.5], [0, 0, 0]])


@pytest.mark.parametrize("kind", ["line", "trivial", "d_V"])
def test_a_wrong_closed_form_fails_the_certificate(kind):
    rng = np.random.default_rng(8)
    sp = tagged_space(rng, kind, 6)
    if kind == "line":
        order, gaps = sp._line
        sp._line = (order, 2.0 * gaps)  # every gap doubled
    else:
        sp._star = 2.0 * sp._star
    mu = DiscreteDistribution(sp, random_simplex(rng, 6))
    nu = DiscreteDistribution(sp, random_simplex(rng, 6))
    with pytest.raises(_transport.TransportError, match="certificate"):
        wasserstein1_exact(mu, nu)


def line_reference(wa, wb, xs):
    """W1 and the monotone coupling on locations xs in any order, with the
    breakpoints from np.union1d and the cell masses from np.diff."""
    if (wa == wb).all():
        return 0.0, np.diag(wa)
    order = np.argsort(xs, kind="stable")
    p, q = wa[order], wb[order]
    value = float(np.abs(np.cumsum(p - q)[:-1]) @ np.diff(xs[order]))
    F, G = np.cumsum(p), np.cumsum(q)
    F[-1] = G[-1] = max(F[-1], G[-1])
    t = np.union1d(F, G)
    plan = np.zeros((len(xs), len(xs)))
    plan[order[np.searchsorted(F, t)], order[np.searchsorted(G, t)]] = np.diff(t, prepend=0.0)
    return value, plan


def star_reference(wa, wb, g):
    """W1 under (g(x) + g(y)) 1{x != y} and its plan, as the sum of the
    common mass on the diagonal and the excess spread over the deficit."""
    if (wa == wb).all():
        return 0.0, np.diag(wa)
    d = wa - wb
    pos, neg = np.maximum(d, 0.0), np.maximum(-d, 0.0)
    plan = np.diag(np.minimum(wa, wb)) + np.outer(pos, neg) / max(pos.sum(), neg.sum())
    return float(g @ np.abs(d)), plan


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 100])
@pytest.mark.parametrize("shape", ["plain", "dust", "denormal", "zeros", "near"])
@pytest.mark.parametrize("kind", ["line", "trivial", "d_V"])
def test_closed_forms_are_the_reference_formulas_bit_for_bit(kind, shape, n):
    reference = line_reference if kind == "line" else star_reference
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sp, structure = tagged_space_and_structure(rng, kind, n)
        if n == 1:  # no law on one point has a zero: two masses an ulp apart
            mu_w, nu_w = np.ones(1), np.full(1, np.nextafter(1.0, 0.0))
        else:
            mu_w, nu_w = shaped_pair(rng, n, shape)
        for wa, wb in ((mu_w, nu_w), (nu_w, mu_w)):
            val, plan = wasserstein1_exact(DiscreteDistribution(sp, wa),
                                           DiscreteDistribution(sp, wb))
            ref, ref_plan = reference(wa, wb, structure)
            assert val.hex() == ref.hex()
            assert plan.joint.tobytes() == ref_plan.tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 30, 100])
@pytest.mark.parametrize("shape", ["plain", "dust", "denormal", "zeros", "near"])
def test_line_tau_is_the_reference_sup_bit_for_bit(shape, n):
    rng = np.random.default_rng(n)
    sp, xs = tagged_space_and_structure(rng, "line", n)
    if shape == "near":  # two laws 1e-12 apart, alternating
        rows = np.array(shaped_pair(rng, n, shape) * n)[:n]
    else:
        rows = np.array([shaped_pair(rng, n, shape)[0] for _ in range(n)])
    P = FiniteKernel(sp, rows)
    order = np.argsort(xs, kind="stable")
    ref = 0.0
    for a, b in zip(order[:-1], order[1:]):
        ref = max(ref, line_reference(rows[a], rows[b], xs)[0] / abs(xs[a] - xs[b]))
    assert tau(P, sp).hex() == ref.hex()


@pytest.mark.parametrize("seed", range(30))
def test_duality_lower_bound_and_linprog_cross_check(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 13))
    sp = euclidean_space(rng, n)
    mu = DiscreteDistribution(sp, random_simplex(rng, n))
    nu = DiscreteDistribution(sp, random_simplex(rng, n))
    val, _ = wasserstein1_exact(mu, nu)
    # random 1-Lipschitz functions: inf-convolutions of random offsets
    for _ in range(5):
        c = rng.normal(size=n) * 2
        f = np.min(c[None, :] + sp.dist, axis=1)
        assert (mu.weights - nu.weights) @ f <= val + 1e-9
    ref = linprog_value(mu.weights, nu.weights, sp.dist)
    assert val == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("seed", range(25))
def test_trivial_metric_recovers_total_variation(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 14))
    sp = untagged(trivial_metric(range(n)))
    mu_w = random_simplex(rng, n)
    nu_w = random_simplex(rng, n)
    if seed % 3 == 0 and n >= 4:  # force some disjoint-ish supports
        mu_w[: n // 2] = 0
        nu_w[n // 2:] = 0
        mu_w = mu_w / mu_w.sum()
        nu_w = nu_w / nu_w.sum()
    mu = DiscreteDistribution(sp, mu_w)
    nu = DiscreteDistribution(sp, nu_w)
    val, _ = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(total_variation(mu, nu), abs=1e-9)


def test_stacked_tv_is_the_row_by_row_tv_bit_for_bit():
    rng = np.random.default_rng(25)
    for case in range(400):
        n = int(rng.integers(1, 210))
        A, B = rng.dirichlet(np.ones(n), size=(2, int(rng.integers(1, 32))))
        if case % 2:  # exact zeros and dust masses on both sides
            for X in (A, B):
                X[rng.random(X.shape) < 0.3] = 0.0
                X[rng.random(X.shape) < 0.1] = 1e-8
        if case % 3 == 0:  # equal rows and rows 1e-12 apart
            B[0] = A[0]
            B[-1] = A[-1] + 1e-12 * rng.standard_normal(n)
        # the one-pair sum, row by row
        rows = np.array([float(np.abs(p - q).sum()) for p, q in zip(A, B)])
        assert _tv(A, B).tobytes() == rows.tobytes()
        assert _tv(A[0], B[0]) == rows[0] and type(_tv(A[0], B[0])) is float


def test_total_variation_disjoint_supports_is_two():
    sp = trivial_metric(range(4))
    mu = DiscreteDistribution(sp, [0.5, 0.5, 0.0, 0.0])
    nu = DiscreteDistribution(sp, [0.0, 0.0, 0.25, 0.75])
    assert total_variation(mu, nu) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(25))
def test_vnorm_matches_wasserstein_under_dv(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 14))
    sp = trivial_metric(range(n))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 2.0, size=n))
    mu = DiscreteDistribution(sp, random_simplex(rng, n))
    nu = DiscreteDistribution(sp, random_simplex(rng, n))
    direct = vnorm_distance(mu, nu, V)
    via_ot, _ = wasserstein1_exact(mu, nu, untagged(dv_metric(V)))
    assert via_ot == pytest.approx(direct, abs=1e-9)
    # the extremal dual function is sign(mu - nu) * V
    f = np.sign(mu.weights - nu.weights) * V.values
    assert (mu.weights - nu.weights) @ f == pytest.approx(direct, abs=1e-12)


def test_zero_weight_points_are_pruned_but_plan_is_full_size():
    sp = line_metric([0.0, 1.0, 2.0, 3.0])
    mu = DiscreteDistribution(sp, [0.5, 0.0, 0.5, 0.0])
    nu = DiscreteDistribution(sp, [0.0, 0.5, 0.0, 0.5])
    val, plan = wasserstein1_exact(mu, nu)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert plan.joint.shape == (4, 4)
    assert np.all(plan.joint[1, :] == 0) and np.all(plan.joint[:, 0] == 0)


# ----------------------------------------------- excess-to-deficit transport


def solve_one(a, b, C):
    """One problem through ``_transport.solve`` as a one-row stack:
    ``(value, plan, u, v)``, with the potentials of its one tree."""
    values, plans, [(_, u, v)] = _transport.solve(np.array([a]), np.array([b]), C)
    return float(values[0]), plans[0], u, v


def recorded_solves(monkeypatch):
    """Cost-matrix shapes of every ``_transport.solve`` call from now on."""
    shapes = []
    solve = _transport.solve

    def record(a, b, C):
        shapes.append(C.shape)
        return solve(a, b, C)

    monkeypatch.setattr(_transport, "solve", record)
    return shapes


@pytest.mark.parametrize("shape", ["plain", "dust", "zeros", "point"])
@pytest.mark.parametrize("seed", range(8))
def test_excess_to_deficit_solve_matches_the_highs_oracle(monkeypatch, shape, seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 25))
    sp = euclidean_space(rng, n)
    if shape == "point":
        # a point mass against a spread law, or against another point mass
        mu_w = np.eye(n)[rng.integers(n)]
        nu_w = random_simplex(rng, n) if seed % 2 else np.eye(n)[(np.argmax(mu_w) + 1) % n]
    else:
        mu_w, nu_w = shaped_pair(rng, n, shape)
    shapes = recorded_solves(monkeypatch)
    val, plan = wasserstein1_exact(DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w))
    d = mu_w - nu_w
    assert shapes == [(np.sum(d > 0.0), np.sum(d < 0.0))]  # only the mass that moves
    assert val == pytest.approx(linprog_value(mu_w, nu_w, sp.dist), abs=1e-6)
    assert plan.cost() == pytest.approx(val, abs=1e-12)
    ma, mb = plan.marginals()
    np.testing.assert_allclose(ma, mu_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mb, nu_w, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.diag(plan.joint), np.minimum(mu_w, nu_w))
    if shape == "zeros":
        assert not plan.joint[mu_w == 0.0].any()  # no flow leaves a zero-mass point


def test_rows_equal_up_to_rounding_take_the_balanced_solve(monkeypatch):
    rng = np.random.default_rng(3)
    n = 7
    sp = euclidean_space(rng, n)
    mu_w = random_simplex(rng, n)
    nu_w = mu_w.copy()
    nu_w[2] -= 4e-13  # mu - nu has no negative entry
    shapes = recorded_solves(monkeypatch)
    val, plan = wasserstein1_exact(DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w))
    assert shapes == [(n, n)]  # both positive supports
    assert 0.0 <= val <= 4e-13 * sp.dist.max()
    ma, mb = plan.marginals()
    np.testing.assert_allclose(ma, mu_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mb, nu_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_rows_1e_12_apart_are_solved_to_relative_accuracy(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(3, 30))
    sp = euclidean_space(rng, n)
    mu_w = random_simplex(rng, n)
    z = rng.normal(size=n)
    nu_w = np.maximum(mu_w + 1e-12 * (z - z.mean()), 0.0)
    val, _ = wasserstein1_exact(DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w))
    # the excess-to-deficit problem at unit mass and its primal-dual bracket
    d = mu_w - nu_w
    ia, ib = np.flatnonzero(d > 0.0), np.flatnonzero(d < 0.0)
    mass = d[ia].sum()
    a, b, C = d[ia] / mass, -d[ib] / -d[ib].sum(), sp.dist[np.ix_(ia, ib)]
    primal, _, u, v = solve_one(a, b, C)
    dual = a @ u + b @ v
    assert 0.0 < mass * dual * (1.0 - 1e-12) <= val <= mass * primal * (1.0 + 1e-12)
    assert primal - dual <= 1e-9 * primal
    # an independent solver on the same unit-mass problem
    assert val == pytest.approx(mass * linprog_value(a, b, C), rel=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_rows_1e_12_apart_on_a_line_match_the_exact_rational_w1(seed):
    # integer points on a line as a plain FiniteMetricSpace, so the
    # transport route runs, on a metric that is exact in binary.  Both
    # rows are integers times 2^-54 below 1/2, so they are exact doubles
    # whose exact sums are both 1, and they differ by about 1e-12 per
    # point.
    # The reference is the line formula sum_i |F_mu(x_i) - F_nu(x_i)|
    # (x_(i+1) - x_i) in rationals
    from fractions import Fraction

    rng = np.random.default_rng(950 + seed)
    n = int(rng.integers(4, 30))
    xs = np.sort(rng.choice(np.arange(100), size=n, replace=False)).astype(float)
    sp = FiniteMetricSpace(range(n), np.abs(xs[:, None] - xs[None, :]))
    unit = 2 ** 54
    mu = np.floor(rng.dirichlet(np.full(n, 5.0)) * unit).astype(np.int64)
    mu[np.argmax(mu)] += unit - mu.sum()
    delta = rng.integers(-18_000, 18_000, size=n)  # 18,000 * 2^-54 is 1e-12
    delta[-1] -= delta.sum()
    # below 2^53 the quotients are exact; the integer masses sum to 2^54
    assert mu.max() < unit // 2 and (mu + delta).min() > 0
    mu_w, nu_w = mu / unit, (mu + delta) / unit
    val, _ = wasserstein1_exact(DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w))
    cdf, exact = 0, Fraction(0)
    for i in range(n - 1):
        cdf -= int(delta[i])
        exact += Fraction(abs(cdf), unit) * int(xs[i + 1] - xs[i])
    assert exact > 0
    assert abs(Fraction(val) - exact) <= Fraction(1, 10 ** 9) * exact


def test_mismatched_spaces_raise():
    spa = trivial_metric(range(3))
    spb = trivial_metric(range(4))
    mu = DiscreteDistribution(spa, [0.2, 0.3, 0.5])
    nu = DiscreteDistribution(spb, [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(SpaceMismatchError):
        wasserstein1_exact(mu, nu)
    with pytest.raises(SpaceMismatchError):
        total_variation(mu, nu)


def test_coupling_validation():
    sp = trivial_metric(range(2))
    with pytest.raises(ValueError, match="nonnegative"):
        Coupling(sp, [[0.6, -0.1], [0.25, 0.25]])
    with pytest.raises(ValueError, match="mass"):
        Coupling(sp, [[0.3, 0.3], [0.3, 0.3]])


_SP = trivial_metric(range(3))
_FAR = trivial_metric("abc")  # the same metric on other labels
_MU = DiscreteDistribution(_SP, [0.2, 0.3, 0.5])
_NU = DiscreteDistribution(_FAR, [0.2, 0.3, 0.5])
_NAN = np.full((3, 3), 1.0 / 9.0)
_NAN[0, 1] = np.nan
_INF = np.full((3, 3), 1.0 / 9.0)
_INF[0, 1] = np.inf


@pytest.mark.parametrize("call, error, message", [
    (lambda: FiniteMetricSpace([0, 1], [[0.0, 1.0]]), ValueError,
     "distances must have shape (2, 2), not (1, 2)"),
    (lambda: FiniteMetricSpace([0, 1], [[0.0, np.nan], [np.nan, 0.0]]), ValueError,
     "distances must be finite"),
    (lambda: line_metric([[0, 1], [2, 3]]), ValueError, "locations must be one-dimensional"),
    (lambda: line_metric([0.0, 1.0], points=["a", "b", "c"]), ValueError,
     "3 labels for 2 locations"),
    (lambda: line_metric([0.0, 1.0, 1.0]), ValueError, "a location repeats"),
    (lambda: line_metric([np.inf, 1.0]), ValueError, "locations must be finite"),
    (lambda: line_metric([np.nan, 1.0]), ValueError, "locations must be finite"),
    (lambda: WeightFunction(_SP, [1.0, 2.0]), ValueError,
     "weights must have shape (3,), not (2,)"),
    (lambda: WeightFunction(_SP, [1.0, np.inf, 1.0]), ValueError, "weights must be finite"),
    (lambda: DiscreteDistribution(_SP, [[0.2, 0.3, 0.5]]), ValueError,
     "weights must have shape (3,), not (1, 3)"),
    (lambda: DiscreteDistribution(_SP, [np.nan, 0.5, 0.5]), ValueError,
     "weights must be finite"),
    (lambda: Coupling(_SP, np.eye(2) / 2.0), ValueError, "coupling must be square on the space"),
    (lambda: Coupling(_SP, _NAN), ValueError, "coupling entries must be nonnegative"),
    (lambda: Coupling(_SP, _INF), ValueError, "coupling mass must be 1"),
    (lambda: Coupling(_SP, -_INF), ValueError, "coupling entries must be nonnegative"),
    (lambda: wasserstein1_exact(_MU, _NU), SpaceMismatchError,
     "nu lives on another point set than mu"),
    (lambda: wasserstein1_exact(_MU, _MU, _FAR), SpaceMismatchError,
     "space lives on another point set than mu"),
    (lambda: total_variation(_NU, _MU), SpaceMismatchError,
     "nu lives on another point set than mu"),
    (lambda: vnorm_distance(_MU, _MU, WeightFunction.ones(_FAR)), SpaceMismatchError,
     "V lives on another point set than mu"),
    (lambda: empirical_w1_1d([[0.0]], [[0.0]]), ValueError, "samples must be one-dimensional"),
    (lambda: empirical_w1_1d([0.0, 1.0, np.nan], [0.0, 1.0, 2.0]), ValueError,
     "samples must be finite"),
    (lambda: empirical_w1_clouds([0.0, np.inf, 1.0], [0.0, 1.0, 2.0]), ValueError,
     "samples must be finite"),
    (lambda: point_mass(_SP, -1), ValueError, "index must be a nonnegative integer"),
    (lambda: point_mass(_SP, True), ValueError, "index must be a nonnegative integer"),
    (lambda: point_mass(_SP, 1.0), ValueError, "index must be a nonnegative integer"),
    (lambda: point_mass(_SP, 3), ValueError, "index must be below 3, the number of points"),
], ids=["dist-shape", "dist-nan", "line-2d", "line-labels", "line-repeat", "line-inf",
        "line-nan", "V-shape",
        "V-inf", "law-shape", "law-nan", "coupling-shape", "coupling-nan", "coupling-inf",
        "coupling-minus-inf", "w1-nu", "w1-space", "tv-nu", "vnorm-V", "empirical-2d",
        "empirical-nan", "clouds-inf", "point-mass-negative", "point-mass-bool", "point-mass-float", "point-mass-past-end"])
def test_bad_operands_get_a_typed_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_point_mass():
    sp = trivial_metric(range(3))
    d = point_mass(sp, 1)
    assert d.weights[1] == 1.0 and d.weights.sum() == 1.0


# ------------------------------------------------------------- empirical 1-d


def test_empirical_w1_matched_pairs():
    assert empirical_w1_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert empirical_w1_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_empirical_w1_input_validation():
    with pytest.raises(ValueError, match="sizes differ"):
        empirical_w1_1d([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="nonempty"):
        empirical_w1_1d([], [])
    with pytest.raises(ValueError, match="sorted"):
        empirical_w1_1d([2.0, 1.0], [1.0, 2.0])


def test_empirical_w1_clouds_hand_values():
    # sorted pairs (0, 1) and (1, 4): W1 = (1 + 3) / 2; sample sds 1/sqrt(2)
    # and 3/sqrt(2), so the proxy is (4 / sqrt(2)) / sqrt(2) = 2
    w1, se = empirical_w1_clouds([1.0, 0.0], [4.0, 1.0])
    assert w1 == 2.0
    assert se == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError, match="sizes differ"):
        empirical_w1_clouds([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("seed", range(10))
def test_empirical_w1_agrees_with_exact_on_atoms(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(1, 30))
    xs = np.sort(rng.normal(size=n))
    ys = np.sort(rng.normal(size=n))
    emp = empirical_w1_1d(xs, ys)
    support, inverse = np.unique(np.concatenate([xs, ys]), return_inverse=True)
    if support.size < 2:
        return
    mu_w = np.bincount(inverse[:n], minlength=support.size) / n
    nu_w = np.bincount(inverse[n:], minlength=support.size) / n
    sp = line_metric(support)
    val, _ = wasserstein1_exact(
        DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w)
    )
    assert emp == pytest.approx(val, abs=1e-9)


# ------------------------------------------------------------ solver details


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_solver_certificate_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    m = int(rng.integers(2, 16))
    C = rng.uniform(0.0, 5.0, size=(n, m))
    a = random_simplex(rng, n)
    b = random_simplex(rng, m)
    value, plan, u, v = solve_one(a, b, C)
    assert value >= -1e-12
    np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-12)
    # dual feasibility doubles as an optimality proof
    assert np.min(C - u[:, None] - v[None, :]) >= -1e-9
    assert abs(value - (a @ u + b @ v)) <= 1e-9


def test_large_support_stays_exact():
    rng = np.random.default_rng(5)
    n = 200
    xs = np.sort(rng.uniform(0, 10, size=n))
    while np.any(np.diff(xs) <= 0):
        xs = np.sort(rng.uniform(0, 10, size=n))
    sp = untagged(line_metric(xs))
    mu_w = random_simplex(rng, n)
    nu_w = random_simplex(rng, n)
    val, _ = wasserstein1_exact(
        DiscreteDistribution(sp, mu_w), DiscreteDistribution(sp, nu_w)
    )
    assert val == pytest.approx(w1_line_cdf(xs, mu_w, nu_w), abs=1e-9)


def test_large_problem_matches_reference_lp_value():
    rng = np.random.default_rng(11)
    sp = euclidean_space(rng, 60)
    a = random_simplex(rng, 60)
    b = random_simplex(rng, 60)
    value, plan, _, _ = solve_one(a, b, sp.dist)
    ref = linprog_value(a, b, sp.dist)
    assert value == pytest.approx(ref, abs=1e-6)
    np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-12)


def assert_matches_highs(a, b, C):
    """``solve`` against the HiGHS oracle; returns the plan."""
    value, plan, _, _ = solve_one(a, b, C)  # certified, or it raises
    assert value == pytest.approx(linprog_value(a, b, C), rel=1e-7, abs=1e-12)
    assert np.all(plan >= 0.0)
    np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0, atol=1e-12)
    return plan


@pytest.mark.parametrize("costs", ["random", "integer-L1", "all-equal"])
def test_degenerate_uniform_assignments_match_the_highs_oracle(costs):
    # every greedy arc of a uniform assignment exhausts its row and its
    # column at once, so most pivots move no mass: the ones that can cycle
    rng = np.random.default_rng(41)
    for n in range(2, 101):
        if costs == "random":
            C = rng.uniform(0.0, 1.0, size=(n, n))
        elif costs == "integer-L1":
            x, y = rng.integers(0, 4, size=(2, n, 2))
            C = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=-1).astype(float)
        else:
            C = np.full((n, n), 3.0)
        w = np.full(n, 1.0 / n)
        assert_matches_highs(w, w, C)


@pytest.mark.parametrize("seed", range(6))
def test_single_row_and_single_column_problems(seed):
    rng = np.random.default_rng(60 + seed)
    k = int(rng.integers(1, 40))
    C = rng.uniform(0.0, 5.0, size=(1, k))
    w = random_simplex(rng, k)
    # one feasible plan each way: the whole row (column) is the other law
    np.testing.assert_allclose(assert_matches_highs(np.ones(1), w, C)[0], w, rtol=0, atol=1e-15)
    np.testing.assert_allclose(assert_matches_highs(w, np.ones(1), C.T)[:, 0], w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mass", ["dust", "denormal", "zeros"])
@pytest.mark.parametrize("seed", range(5))
def test_dust_denormal_and_zero_masses_match_the_highs_oracle(mass, seed):
    rng = np.random.default_rng(80 + seed)
    n, m = (int(k) for k in rng.integers(3, 20, size=2))
    C = rng.uniform(0.0, 5.0, size=(n, m))
    a, b = random_simplex(rng, n), random_simplex(rng, m)
    small = {"dust": 1e-8, "denormal": 1e-310, "zeros": 0.0}[mass]
    a[: n // 3] = small * rng.uniform(0.5, 1.5, size=n // 3)
    b[m // 2:] = small * rng.uniform(0.5, 1.5, size=m - m // 2)
    a /= a.sum()
    b /= b.sum()
    if mass == "zeros":
        # zero mass is cut by otcore._w1; the solver takes positive histograms only
        with pytest.raises(_transport.TransportError, match="status -3"):
            solve_one(a, b, C)
    else:
        assert_matches_highs(a, b, C)


# a NaN can slip past the input check (min over a list holding NaN depends
# on order) and is then caught by the certificate, so only the type is matched
@pytest.mark.parametrize("a, b, match", [
    ([], [1.0], "status -3"),
    ([1.0], [], "status -3"),
    ([1.5, -0.5], [1.0], "status -3"),
    ([1.0], [-0.5, 1.5], "status -3"),
    ([np.nan, 1.0], [1.0], None),
    ([1.0, np.nan], [1.0], None),
    ([1.0], [np.nan, 1.0], None),
    ([1.0], [1.0, np.nan], None),
])
def test_solve_rejects_empty_negative_and_nan_histograms(a, b, match):
    with pytest.raises(_transport.TransportError, match=match):
        solve_one(a, b, np.ones((len(a), len(b))))


def test_degenerate_greedy_start_is_pivoted_to_the_optimum():
    # the greedy start takes both diagonal arcs, each exhausting its row and
    # its column: 2 positive arcs where a spanning tree needs 3, and the
    # cheap off-diagonal plan is only reached by a pivot
    C = np.array([[1.0, 2.0], [2.0, 100.0]])
    w = np.array([0.5, 0.5])
    plan = assert_matches_highs(w, w, C)
    np.testing.assert_array_equal(plan, [[0.0, 0.5], [0.5, 0.0]])
    assert solve_one(w, w, C)[0] == 2.0


def test_a_sink_left_unserved_by_rounding_keeps_its_mass():
    # 1.0 + 5e-324 rounds to 1.0: the cheap arc takes all of the supply, and
    # the denormal demand is still served rather than left off the tree
    plan = assert_matches_highs(np.ones(1), np.array([1.0, 5e-324]), np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(plan, [[1.0, 5e-324]])


def test_unbalanced_masses_raise():
    C = np.ones((2, 2))
    with pytest.raises(_transport.TransportError, match="status -1"):
        solve_one([0.5, 0.5], [0.5, 0.7], C)


def test_pivot_cap_raises_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(_transport, "_PIVOT_CAP", 0)
    w = np.array([0.5, 0.5])
    with pytest.raises(_transport.TransportError, match="status -2"):
        solve_one(w, w, np.array([[1.0, 2.0], [2.0, 100.0]]))
    mu, nu = _random_laws(24, n=12)
    with pytest.raises(_transport.TransportError, match="status -2"):
        wasserstein1_exact(mu, nu)
    assert len(_transport._memo) == 0
    monkeypatch.undo()
    wasserstein1_exact(mu, nu)
    assert len(_transport._memo) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad", ["u", "v", "plan"])
def test_certificate_rejects_non_finite_values(bad, value):
    # NaN fails every comparison, so a check written as "raise if gap > tol"
    # would let it through; the certificate must demand gap <= tol instead
    w = np.array([0.5, 0.5])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    parts = {"plan": np.diag(w), "u": np.zeros(2), "v": np.zeros(2)}
    _transport._certify(w, w, C, parts["plan"], parts["u"], parts["v"])  # the sound one passes
    parts[bad] = parts[bad].copy()
    parts[bad].flat[1] = value
    with pytest.raises(_transport.TransportError, match="certificate"):
        _transport._certify(w, w, C, parts["plan"], parts["u"], parts["v"])


# ------------------------------------------------------------------- W1 memo


def _random_laws(seed, n=6):
    """Two laws on an untagged space, so W1 takes the memoised transport route."""
    rng = np.random.default_rng(seed)
    sp = euclidean_space(rng, n)
    mu = DiscreteDistribution(sp, random_simplex(rng, n))
    return mu, DiscreteDistribution(sp, random_simplex(rng, n))


def test_memo_hit_is_bitwise_identical_to_fresh_solve():
    mu, nu = _random_laws(21)
    fresh = wasserstein1_exact(mu, nu)
    hit = wasserstein1_exact(mu, nu)
    assert (_transport._memo.hits, _transport._memo.misses) == (1, 1)
    assert hit[0] == fresh[0]
    assert hit[1].joint.tobytes() == fresh[1].joint.tobytes()


def test_memo_hit_skips_the_solve_and_the_certificate(monkeypatch):
    mu, nu = _random_laws(24)
    first, _ = wasserstein1_exact(mu, nu)

    def refuse(*args):
        raise AssertionError("a memo hit reached the solver")

    monkeypatch.setattr(_transport, "solve", refuse)
    monkeypatch.setattr(_transport, "_certify", refuse)
    # the key is the metric's bytes, so a second space with the same metric hits too
    for space in (mu.space, untagged(mu.space)):
        assert wasserstein1_exact(mu, nu, space)[0] == first
    assert (_transport._memo.hits, _transport._memo.misses) == (2, 1)
    # and another metric on the same points misses
    monkeypatch.undo()
    doubled = FiniteMetricSpace(mu.space.points, 2.0 * mu.space.dist)
    assert wasserstein1_exact(mu, nu, doubled)[0] == pytest.approx(2.0 * first, rel=1e-12)
    assert (_transport._memo.hits, _transport._memo.misses) == (2, 2)


def test_memo_results_are_private_to_each_caller():
    mu, nu = _random_laws(22)
    # the memo's own layer hands out the raw plan
    _, plan = _w1(mu.weights, nu.weights, mu.space)
    kept = plan.copy()
    plan[...] = np.nan  # a caller scribbling on its own result
    _, second = _w1(mu.weights, nu.weights, mu.space)
    _, coupling = wasserstein1_exact(mu, nu)
    assert _transport._memo.hits == 2
    np.testing.assert_array_equal(second, kept)
    np.testing.assert_array_equal(coupling.joint, kept)


def test_memo_holds_only_certified_results(monkeypatch):
    mu, nu = _random_laws(23)
    simplex, solve = _transport._simplex, _transport.solve

    def zero_potentials(a, b, C):
        plan, u, v, status = simplex(a, b, C)
        return plan, np.zeros_like(u), np.zeros_like(v), status  # gap != 0

    def product_plan(A, B, C):
        values, _, trees = solve(A, B, C)
        return values, A[:, :, None] * B[:, None, :], trees  # feasible, not optimal

    # the solve's own certificate, then the certificate of the lifted plan
    for name, broken in (("_simplex", zero_potentials), ("solve", product_plan)):
        with monkeypatch.context() as m:
            m.setattr(_transport, name, broken)
            with pytest.raises(_transport.TransportError, match="certificate"):
                wasserstein1_exact(mu, nu)
        assert len(_transport._memo) == 0
    wasserstein1_exact(mu, nu)
    assert len(_transport._memo) == 1


def test_memo_stays_empty_when_the_simplex_returns_nan_potentials(monkeypatch):
    mu, nu = _random_laws(25)
    simplex = _transport._simplex

    def nan_potentials(a, b, C):
        plan, u, v, status = simplex(a, b, C)
        return plan, np.full_like(u, np.nan), np.full_like(v, np.nan), status

    monkeypatch.setattr(_transport, "_simplex", nan_potentials)
    with pytest.raises(_transport.TransportError, match="certificate"):
        wasserstein1_exact(mu, nu)
    assert len(_transport._memo) == 0


def test_memo_evicts_least_recently_used_within_its_bounds():
    memo = _transport._Memo(max_entries=2, max_bytes=100)
    memo.put("a", 1, 10)
    memo.put("b", 2, 10)
    assert memo.get("a") == 1  # "b" is now the least recently used
    memo.put("c", 3, 10)
    assert memo.get("b") is None and memo.get("a") == 1 and memo.get("c") == 3
    memo.put("big", 4, 85)  # 105 bytes in all: the oldest entry goes
    assert memo.get("a") is None and len(memo) == 2
    memo.put("huge", 5, 101)  # never fits
    assert memo.get("huge") is None and memo.get("big") == 4


def test_memo_charges_each_entry_its_plan_and_rows(monkeypatch):
    # on 200 points a plan is 320,000 bytes and each row 1,600; the
    # metric's 320,000 bytes are shared by every entry and not charged
    n = 200
    rng = np.random.default_rng(26)
    sp = euclidean_space(rng, n)
    entry = 8 * n * n + 2 * 8 * n
    memo = _transport._Memo(max_entries=4096, max_bytes=3 * entry)
    monkeypatch.setattr(_transport, "_memo", memo)
    mu_w = random_simplex(rng, n)
    laws = []
    for k in range(4):
        # a few points apart, so that each solve is small
        nu_w = mu_w.copy()
        nu_w[k] += 1e-3
        nu_w[k + 100] -= 1e-3
        laws.append(DiscreteDistribution(sp, nu_w))
    mu = DiscreteDistribution(sp, mu_w)
    for k, nu in enumerate(laws[:3]):
        wasserstein1_exact(mu, nu)
        assert (memo._bytes, len(memo), memo.evictions) == ((k + 1) * entry, k + 1, 0)
    wasserstein1_exact(mu, laws[3])  # the oldest entry goes
    assert (memo._bytes, len(memo), memo.evictions) == (3 * entry, 3, 1)
    assert memo.misses == 4
    wasserstein1_exact(mu, laws[1])
    assert memo.hits == 1
    wasserstein1_exact(mu, laws[0])  # evicted: solved again, evicting laws[2]
    assert (memo.misses, memo.evictions) == (5, 2)
    memo.clear()
    assert (memo._bytes, len(memo), memo.evictions, memo.hits, memo.misses) == (0, 0, 0, 0, 0)


def test_memo_counts_survive_concurrent_solves():
    import sys
    import threading

    problems = [_random_laws(30 + k) for k in range(4)]
    expected = [wasserstein1_exact(*p)[0] for p in problems]
    _transport._memo.clear()
    calls_per_thread = 40
    errors = []

    def worker(offset):
        try:
            for k in range(calls_per_thread):
                idx = (k + offset) % len(problems)
                if wasserstein1_exact(*problems[idx])[0] != expected[idx]:
                    errors.append(idx)
        except Exception as exc:  # reported below; a thread cannot raise into pytest
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    memo = _transport._memo
    assert memo.hits + memo.misses == 6 * calls_per_thread
    assert len(memo) == len(problems)


# ------------------------------------------------------------ warm-started rows


def _cold(wa, wb, space):
    """One row alone, from an empty memo: always a cold solve."""
    _transport._memo.clear()
    return _w1(wa, wb, space)


def _stacked(monkeypatch, WA, WB, space):
    """The rows of a table as one ``_w1`` call, from an empty memo: their
    results, checked bit for bit against each row solved alone, and the
    cold solves, warm answers and ``_transport.solve`` calls it made."""
    WA, WB = np.array(WA, dtype=float), np.array(WB, dtype=float)
    expected = [_cold(wa, wb, space) for wa, wb in zip(WA, WB)]
    memo = _transport._memo
    memo.clear()
    calls = []
    solve = _transport.solve

    def recording(*args):
        calls.append(len(args[0]))
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(_transport, "solve", recording)
        values, plans = _w1(WA, WB, space)
    assert ([(value, plan.tobytes()) for value, plan in zip(values.tolist(), plans)]
            == [(value, plan.tobytes()) for value, plan in expected])
    return memo.cold, memo.warm, len(calls)


def test_warm_row_declines_when_the_supports_change(monkeypatch):
    # on the untagged line 0, 1, 2 the excess {1} over the deficit {0, 2}
    # has cost matrix [[1, 1]], and the swapped rows have [[1], [1]]: the
    # same bytes in another shape.  Rows of another split are another run,
    # and each run starts cold
    sp = FiniteMetricSpace(range(3), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    p, q = np.array([0.2, 0.6, 0.2]), np.array([0.4, 0.2, 0.4])
    assert _stacked(monkeypatch, [p, q], [q, p], sp) == (2, 0, 2)
    # and on a random space, a row whose excess sits elsewhere
    rng = np.random.default_rng(40)
    sp = euclidean_space(rng, 6)
    p, q = random_simplex(rng, 6), random_simplex(rng, 6)
    assert _stacked(monkeypatch, [p, q], [q, p], sp) == (2, 0, 2)


def test_warm_row_declines_when_the_tree_is_infeasible(monkeypatch):
    # excess at 0 and 10, deficit at 1 and 11 on the untagged line: the
    # first row's optimal tree is 0 -> 1, 10 -> 11 and a zero-flow arc
    # 10 -> 1, which can carry mass from 10 to 1 but not from 0 to 11.
    # One run: mass moving from 10 to 1 is answered warm, and exactly the
    # cold answer, since a cold solve ends on the same tree; mass moving
    # from 0 to 11 is declined and solved cold
    xs = np.array([0.0, 1.0, 10.0, 11.0])
    sp = FiniteMetricSpace(range(4), np.abs(xs[:, None] - xs[None, :]))
    WA = [[0.3, 0.2, 0.3, 0.2]] * 3
    WB = [[0.2, 0.3, 0.2, 0.3], [0.25, 0.35, 0.15, 0.25], [0.15, 0.25, 0.25, 0.35]]
    assert _stacked(monkeypatch, WA, WB, sp) == (2, 1, 1)


def _small_problem(seed):
    rng = np.random.default_rng(seed)
    return random_simplex(rng, 3), random_simplex(rng, 4), rng.uniform(0.5, 2.0, size=(3, 4))


def _assert_rows_are_cold(stacked, A, B, C):
    """Each row of a stacked ``solve`` is that row solved alone, to the bit,
    and the potentials of the tree that answered it are the row's own."""
    values, plans, trees = stacked
    start = 0
    for stop, tree_u, tree_v in trees:
        assert start < stop
        for k in range(start, stop):
            value, plan, u, v = solve_one(A[k], B[k], C)
            assert (values[k], plans[k].tobytes()) == (value, plan.tobytes())
            assert (tree_u.tobytes(), tree_v.tobytes()) == (u.tobytes(), v.tobytes())
        start = stop
    assert start == len(A)


def test_warm_entry_declines_marginals_whose_masses_differ():
    # _w1 hands the solver both sides at unit mass, so only a direct call
    # can unbalance them: the warm row declines, and its cold solve refuses
    a, b, C = _small_problem(41)
    memo = _transport._memo
    for gap in (1e-12, -1e-12):
        memo.clear()
        shifted = a + np.array([gap, 0.0, 0.0])
        with pytest.raises(_transport.TransportError, match="status -1"):
            _transport.solve(np.array([a, shifted]), np.array([b, b]), C)
        assert (memo.cold, memo.warm, len(memo)) == (2, 0, 0)
    # within _MASS_EPS the tree of the row before still answers, as the
    # cold solve does
    memo.clear()
    A, B = np.array([a, a + np.array([1e-14, 0.0, 0.0])]), np.array([b, b])
    stacked = _transport.solve(A, B, C)
    assert (memo.cold, memo.warm, len(memo)) == (1, 1, 0)
    _assert_rows_are_cold(stacked, A, B, C)


def test_a_kept_tree_that_fails_its_certificate_is_solved_cold(monkeypatch):
    a, b, C = _small_problem(43)
    A, B = np.array([a, a]), np.array([b, b])
    memo = _transport._memo
    _transport.solve(A, B, C)
    assert (memo.cold, memo.warm) == (1, 1)
    basic = _transport._basic
    calls = []

    def inflated(A, B, tree):
        # the second call answers the rows after the cold one from its
        # tree: its costs, 1e-6 off, leave a duality gap far above the
        # certificate's, while its flows stay feasible and positive
        X, low = basic(A, B, tree)
        calls.append(len(A))
        return (X * (1.0 + 1e-6) if len(calls) == 2 else X), low

    memo.clear()
    monkeypatch.setattr(_transport, "_basic", inflated)
    stacked = _transport.solve(A, B, C)
    assert calls == [1, 1, 1] and (memo.cold, memo.warm) == (2, 0)
    monkeypatch.undo()
    _assert_rows_are_cold(stacked, A, B, C)
    # the second row is solved cold, by a tree of its own
    assert [stop for stop, _, _ in stacked[2]] == [1, 2]


def test_a_tree_with_another_optimal_plan_is_not_kept():
    # under equal costs every plan is optimal, so the tree a cold solve
    # ends on says nothing about where another cold solve would end
    a, b, _ = _small_problem(44)
    C = np.full((3, 4), 2.0)
    A, B = np.array([a, a, a]), np.array([b, b, b])
    memo = _transport._memo
    stacked = _transport.solve(A, B, C)
    assert (memo.cold, memo.warm) == (3, 0)
    _assert_rows_are_cold(stacked, A, B, C)


def test_a_degenerate_basic_solution_is_solved_cold():
    # the diagonal is cheaper; the first tree carries 0.1 on arc (0, 1).
    # For equal marginals that arc would carry nothing, and another tree
    # has the same basic solution, so the tree does not answer
    C = np.array([[1.0, 2.0], [2.0, 1.0]])
    A, B = np.array([[0.6, 0.4], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]])
    memo = _transport._memo
    stacked = _transport.solve(A, B, C)
    assert (memo.cold, memo.warm) == (2, 0)
    _assert_rows_are_cold(stacked, A, B, C)
    # a nondegenerate basic solution of the first tree is answered warm
    memo.clear()
    A = np.array([[0.6, 0.4], [0.7, 0.3]])
    stacked = _transport.solve(A, B, C)
    assert (memo.cold, memo.warm) == (1, 1)
    _assert_rows_are_cold(stacked, A, B, C)


def test_warm_answers_on_tied_costs_are_the_cold_answers():
    # small integer costs tie often, so many problems have several optimal
    # plans or trees; an answer from the tree of the row before must still
    # be the one a cold solve gives, to the bit
    rng = np.random.default_rng(45)
    memo = _transport._memo
    answered = 0
    for _ in range(200):
        k, m = rng.integers(2, 7, size=2)
        C = rng.integers(1, 4, size=(k, m)).astype(float)
        A = np.array([random_simplex(rng, k) for _ in range(6)])
        B = np.array([random_simplex(rng, m) for _ in range(6)])
        memo.clear()
        stacked = _transport.solve(A, B, C)
        answered += memo.warm
        _assert_rows_are_cold(stacked, A, B, C)
    assert answered > 20


def test_a_stack_gets_the_answers_of_its_rows_one_at_a_time():
    # on tied costs a tree declines often: each row of a stack must get the
    # answer and the potentials that it gets alone, where it is solved cold
    rng = np.random.default_rng(46)
    memo = _transport._memo
    declined = 0
    for _ in range(60):
        k, m = rng.integers(2, 7, size=2)
        C = rng.integers(1, 4, size=(k, m)).astype(float)
        A = np.array([random_simplex(rng, k) for _ in range(8)])
        B = np.array([random_simplex(rng, m) for _ in range(8)])
        memo.clear()
        stacked = _transport.solve(A, B, C)
        assert memo.cold + memo.warm == len(A)
        cold = memo.cold
        _assert_rows_are_cold(stacked, A, B, C)
        assert (memo.cold, memo.warm) == (cold + len(A), len(A) - cold)
        declined += 0 < cold - 1
    assert declined > 10


def test_a_solve_does_not_depend_on_earlier_solves():
    # no tree outlives a call: after arbitrary solves, on the same cost
    # matrix and on others, a stack gets the values, plans, potentials and
    # cold and warm counts it gets from an empty memo
    rng = np.random.default_rng(49)
    memo = _transport._memo
    for _ in range(40):
        k, m = rng.integers(2, 7, size=2)
        C = rng.integers(1, 4, size=(k, m)).astype(float)
        A = np.array([random_simplex(rng, k) for _ in range(6)])
        B = np.array([random_simplex(rng, m) for _ in range(6)])
        memo.clear()
        values, plans, trees = _transport.solve(A, B, C)
        counts = (memo.cold, memo.warm)
        for _ in range(5):
            other = C if rng.random() < 0.5 else rng.uniform(0.5, 2.0, size=(k, m))
            r = int(rng.integers(1, 4))
            _transport.solve(np.array([random_simplex(rng, k) for _ in range(r)]),
                             np.array([random_simplex(rng, m) for _ in range(r)]), other)
        _transport.solve(A[-1:], B[-1:], C)
        cold, warm = memo.cold, memo.warm
        again = _transport.solve(A, B, C)
        assert (memo.cold - cold, memo.warm - warm) == counts
        assert again[0].tobytes() == values.tobytes()
        assert again[1].tobytes() == plans.tobytes()
        assert len(again[2]) == len(trees)
        for (stop, u, v), (tree_stop, tree_u, tree_v) in zip(again[2], trees):
            assert (stop, u.tobytes(), v.tobytes()) == (tree_stop, tree_u.tobytes(),
                                                        tree_v.tobytes())


# ------------------------------------------------------------ batched tables


def _public_route(WA, WB, space):
    """Each row through wasserstein1_exact alone, from an empty memo, and
    the memo hits and misses that the rows taken one call at a time leave.
    From an empty memo each hit is a row that repeats an earlier row."""
    expected = []
    for wa, wb in zip(WA, WB):
        _transport._memo.clear()
        value, coupling = wasserstein1_exact(DiscreteDistribution(space, wa),
                                             DiscreteDistribution(space, wb), space)
        expected.append((value, coupling.joint.tobytes()))
    memo = _transport._memo
    memo.clear()
    for wa, wb in zip(WA, WB):
        wasserstein1_exact(DiscreteDistribution(space, wa), DiscreteDistribution(space, wb), space)
    return expected, (memo.hits, memo.misses)


def _assert_table_is_the_public_route(WA, WB, space):
    """The stacked ``_w1`` of a table: every row bit for bit the public
    route's, with the misses of the rows taken one at a time, and every
    miss solved cold or answered warm.  A repeat of an earlier row, a hit
    one row at a time, takes that row's answer in the table with no
    lookup, so from an empty memo the table makes no hit.  Returns the
    repeats (the public route's hits) and the table's misses, cold solves
    and warm answers."""
    expected, (repeats, misses) = _public_route(WA, WB, space)
    memo = _transport._memo
    memo.clear()
    values, plans = _w1(np.array(WA), np.array(WB), space)
    assert (memo.hits, memo.misses) == (0, misses)
    assert memo.cold + memo.warm == memo.misses
    assert [(value, plan.tobytes()) for value, plan in zip(values.tolist(), plans)] == expected
    return repeats, memo.misses, memo.cold, memo.warm


def test_a_table_row_that_declines_mid_run_is_solved_cold():
    # excess at 0 and 10, deficit at 1 and 11 on the untagged line: every
    # row has that split, and a row moving mass from 0 to 11 has a negative
    # flow on the tree of the rows before it.  Rows 1 and 3 are warm again
    xs = np.array([0.0, 1.0, 10.0, 11.0])
    sp = FiniteMetricSpace(range(4), np.abs(xs[:, None] - xs[None, :]))
    WB = [[0.2, 0.3, 0.2, 0.3], [0.25, 0.35, 0.15, 0.25], [0.15, 0.25, 0.25, 0.35],
          [0.17, 0.27, 0.23, 0.33], [0.22, 0.32, 0.18, 0.28]]
    WA = [[0.3, 0.2, 0.3, 0.2]] * len(WB)
    assert _assert_table_is_the_public_route(WA, WB, sp) == (0, 5, 3, 2)
    # excess at 0 and 1, deficit at 2 and 3, with sub-problem costs
    # [[1, 2], [2, 1]]: the tree of the first row carries 0.1 from 0 to 3,
    # which the second row, moving 0.5 from each, leaves at exactly zero
    D = [[0.0, 1.5, 1.0, 2.0], [1.5, 0.0, 2.0, 1.0], [1.0, 2.0, 0.0, 1.5], [2.0, 1.0, 1.5, 0.0]]
    sp = FiniteMetricSpace(range(4), D)
    WA = [[0.6, 0.4, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.7, 0.3, 0.0, 0.0], [0.65, 0.35, 0.0, 0.0]]
    WB = [[0.0, 0.0, 0.5, 0.5]] * len(WA)
    assert _assert_table_is_the_public_route(WA, WB, sp) == (0, 4, 3, 1)


def test_repeated_table_rows_take_the_answer_of_their_first_row():
    # converged walks repeat their rows bit for bit; each repeat of a row
    # solved earlier in the same table takes that row's value and a copy of
    # its plan, with no lookup, where one row at a time it is a hit
    rng = np.random.default_rng(47)
    sp = euclidean_space(rng, 7)
    mu, nu = random_simplex(rng, 7), random_simplex(rng, 7)
    rows = [0.0, 0.1, 0.1, 0.1, 0.2, 0.1, 0.2]
    WA = [mu] * len(rows)
    WB = [(1.0 - t) * nu + t * mu for t in rows]
    repeats, misses, cold, warm = _assert_table_is_the_public_route(WA, WB, sp)
    assert (repeats, misses, cold + warm) == (4, 3, 3)
    # and a table whose rows were all asked for before is all hits
    memo = _transport._memo
    values, plans = _w1(np.array(WA), np.array(WB), sp)
    assert (memo.hits, memo.misses) == (len(rows), 3)
    # every repeat is a copy of its own
    assert len({id(plan) for plan in plans}) == len(rows)


@pytest.mark.parametrize("kind", ["euclidean", "untagged line", "line", "trivial", "d_V"])
@pytest.mark.parametrize("shape", ["plain", "dust", "zeros"])
def test_table_rows_match_the_public_route_on_every_metric(kind, shape):
    # rows of one split, then an equal row (wa == wb), then rows equal up
    # to rounding (the balanced solve), then rows of the opposite split,
    # then two rows with the same excess whose deficits differ, the other
    # points holding exactly equal masses
    rng = np.random.default_rng(48)
    n = 9
    if kind == "euclidean":
        sp = euclidean_space(rng, n)
    elif kind == "untagged line":
        sp = untagged(tagged_space(rng, "line", n))
    else:
        sp = tagged_space(rng, kind, n)
    mu, nu = shaped_pair(rng, n, shape)
    near = mu.copy()
    near[np.argmax(near)] -= 4e-13
    i, j, k = np.argsort(mu)[-3:]
    moved = [mu.copy(), mu.copy()]
    moved[0][[i, j]] += [0.01, -0.01]
    moved[1][[i, k, j]] += [0.005, 0.005, -0.01]
    WA = [mu] * 5 + [mu, mu, nu, nu] + [mu, mu]
    WB = [(1.0 - t) * nu + t * mu for t in (0.0, 0.25, 0.5, 1.0, 0.75)] + [near, near, mu, mu] + moved
    repeats, misses, cold, warm = _assert_table_is_the_public_route(WA, WB, sp)
    if sp._line is None and sp._star is None:
        # the equal row takes no lookup; the balanced row and (nu, mu) each
        # repeat once.  On a line many plans tie, so no tree answers the
        # rows after its own and every miss is solved cold
        assert (repeats, misses) == (2, 8) and cold + warm == 8
        assert (warm > 0) == (kind == "euclidean")
    else:
        assert (repeats, misses, cold, warm) == (0, 0, 0, 0)
