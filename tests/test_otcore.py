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
from wperturb.otcore import (
    Coupling,
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
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


def test_trivial_metric_is_two_off_diagonal():
    sp = trivial_metric(range(4))
    assert np.all(np.diagonal(sp.dist) == 0)
    off = sp.dist[~np.eye(4, dtype=bool)]
    assert np.all(off == 2.0)


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
    with pytest.raises(ValueError, match="per point"):
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


def tagged_space(rng, kind, n):
    """A space whose constructor records a closed form; line xs unsorted."""
    if kind == "line":
        return line_metric(rng.permutation(np.cumsum(rng.uniform(0.05, 2.0, size=n))))
    sp = trivial_metric(range(n))
    if kind == "trivial":
        return sp
    return dv_metric(WeightFunction(sp, 1.0 + rng.uniform(0.0, 3.0, size=n)))


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
        order, xs = sp._line
        sp._line = (order, 2.0 * xs)  # every gap doubled
    else:
        sp._star = 2.0 * sp._star
    mu = DiscreteDistribution(sp, random_simplex(rng, 6))
    nu = DiscreteDistribution(sp, random_simplex(rng, 6))
    with pytest.raises(_transport.TransportError, match="certificate"):
        wasserstein1_exact(mu, nu)


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
    primal, _, u, v = _transport.solve(a, b, C)
    dual = a @ u + b @ v
    assert 0.0 < mass * dual * (1.0 - 1e-12) <= val <= mass * primal * (1.0 + 1e-12)
    assert primal - dual <= 1e-9 * primal
    # an independent solver on the same unit-mass problem
    assert val == pytest.approx(mass * linprog_value(a, b, C), rel=1e-6)


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
    value, plan, u, v = _transport.solve(a, b, C)
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
    value, plan, _, _ = _transport.solve(a, b, sp.dist)
    ref = linprog_value(a, b, sp.dist)
    assert value == pytest.approx(ref, abs=1e-6)
    np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-12)


def assert_matches_highs(a, b, C):
    """``solve`` against the HiGHS oracle; returns the plan."""
    value, plan, _, _ = _transport.solve(a, b, C)  # certified, or it raises
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
            _transport.solve(a, b, C)
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
        _transport.solve(np.array(a), np.array(b), np.ones((len(a), len(b))))


def test_degenerate_greedy_start_is_pivoted_to_the_optimum():
    # the greedy start takes both diagonal arcs, each exhausting its row and
    # its column: 2 positive arcs where a spanning tree needs 3, and the
    # cheap off-diagonal plan is only reached by a pivot
    C = np.array([[1.0, 2.0], [2.0, 100.0]])
    w = np.array([0.5, 0.5])
    plan = assert_matches_highs(w, w, C)
    np.testing.assert_array_equal(plan, [[0.0, 0.5], [0.5, 0.0]])
    assert _transport.solve(w, w, C)[0] == 2.0


def test_a_sink_left_unserved_by_rounding_keeps_its_mass():
    # 1.0 + 5e-324 rounds to 1.0: the cheap arc takes all of the supply, and
    # the denormal demand is still served rather than left off the tree
    plan = assert_matches_highs(np.ones(1), np.array([1.0, 5e-324]), np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(plan, [[1.0, 5e-324]])


def test_unbalanced_masses_raise():
    C = np.ones((2, 2))
    with pytest.raises(_transport.TransportError, match="status -1"):
        _transport.solve(np.array([0.5, 0.5]), np.array([0.5, 0.7]), C)


def test_pivot_cap_raises_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(_transport, "_PIVOT_CAP", 0)
    w = np.array([0.5, 0.5])
    with pytest.raises(_transport.TransportError, match="status -2"):
        _transport.solve(w, w, np.array([[1.0, 2.0], [2.0, 100.0]]))
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
        return plan, [0.0] * len(u), [0.0] * len(v), status  # gap != 0

    def product_plan(a, b, C):
        value, _, u, v = solve(a, b, C)
        return value, np.outer(a, b), u, v  # feasible, not optimal

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
