"""Kernel machinery against independent oracles.

Stationary distributions are cross-checked against the GTH elimination
algorithm (state reduction), which shares no code with the least-squares
route.  Ergodicity coefficients get a dual route too: the d_V closed
form versus exact transport under dv_metric.  Spaces built by line_metric,
trivial_metric and dv_metric take closed forms, so the transport side
of each cross-check runs on an untagged copy of the space.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wperturb import _transport, generate_random_instance, kernels, otcore
from wperturb.errors import NoContractionError, NonUniqueStationaryError, SpaceMismatchError
from wperturb.kernels import (
    DriftCheck,
    DriftEstimate,
    ErgodicityEstimate,
    FiniteKernel,
    _plan_bounds,
    _tau_star,
    compose,
    evolve,
    fit_drift_L,
    fit_geometric_constants,
    kernel_gamma_tv,
    kernel_gamma_vnorm,
    kernel_gamma_wasserstein,
    stationary_distribution,
    tau,
    tau_v,
    trajectory,
    verify_drift,
)
from wperturb.otcore import (
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    _blocks,
    dv_metric,
    line_metric,
    point_mass,
    trivial_metric,
    wasserstein1_exact,
)


def untagged(sp):
    """The same metric as a plain FiniteMetricSpace: no closed form applies."""
    return FiniteMetricSpace(sp.points, sp.dist)


def tagged_space(rng, kind, n):
    """A space whose constructor records a closed form; line xs unsorted."""
    if kind == "line":
        return line_metric(rng.permutation(np.cumsum(rng.uniform(0.05, 2.0, size=n))))
    sp = trivial_metric(range(n))
    if kind == "trivial":
        return sp
    return dv_metric(WeightFunction(sp, 1.0 + rng.uniform(0.0, 3.0, size=n)))


def gth_stationary(matrix):
    """Oracle: Grassmann-Taksar-Heyman state reduction, no linear solve."""
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    for k in range(n - 1):
        s = A[k, k + 1:].sum()
        assert s > 0, "reducible chain handed to GTH oracle"
        A[k + 1:, k + 1:] += np.outer(A[k + 1:, k], A[k, k + 1:]) / s
    pi = np.zeros(n)
    pi[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        s = A[k, k + 1:].sum()
        pi[k] = (pi[k + 1:] @ A[k + 1:, k]) / s
    return pi / pi.sum()


def random_kernel(rng, n, mix=0.4):
    """Row-stochastic matrix mixed toward a common row: tau <= 1 - mix roughly."""
    raw = rng.dirichlet(np.ones(n), size=n)
    common = rng.dirichlet(np.ones(n))
    return (1.0 - mix) * raw + mix * common[None, :]


def test_kernel_validation():
    sp = trivial_metric(range(2))
    with pytest.raises(ValueError, match="sums to"):
        FiniteKernel(sp, [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteKernel(sp, [[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError, match="shape"):
        FiniteKernel(sp, [[1.0, 0.0]])


def test_compose_matches_matrix_product_and_stays_stochastic():
    rng = np.random.default_rng(0)
    sp = trivial_metric(range(3))
    P = FiniteKernel(sp, random_kernel(rng, 3))
    Q = FiniteKernel(sp, random_kernel(rng, 3))
    PQ = compose(P, Q)
    np.testing.assert_allclose(PQ.matrix, P.matrix @ Q.matrix)
    np.testing.assert_allclose(PQ.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_evolve_and_trajectory():
    sp = trivial_metric(range(3))
    P = FiniteKernel(sp, np.eye(3))
    p = DiscreteDistribution(sp, [0.2, 0.3, 0.5])
    for n in range(4):
        np.testing.assert_array_equal(evolve(p, P, n).weights, p.weights)
    rng = np.random.default_rng(1)
    P = FiniteKernel(sp, random_kernel(rng, 3))
    traj = trajectory(p, P, 5)
    assert len(traj) == 6
    np.testing.assert_allclose(traj[5].weights, evolve(p, P, 5).weights, atol=1e-14)
    with pytest.raises(ValueError):
        evolve(p, P, -1)


@pytest.mark.parametrize("seed", range(20))
def test_stationary_matches_gth_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    M = random_kernel(rng, n, mix=float(rng.uniform(0.2, 0.7)))
    P = FiniteKernel(trivial_metric(range(n)), M)
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi.weights, gth_stationary(M), atol=1e-10)
    assert np.abs(pi.weights @ M - pi.weights).sum() <= 1e-10


def test_stationary_rejects_identity_and_reducible():
    sp = trivial_metric(range(3))
    with pytest.raises(NonUniqueStationaryError):
        stationary_distribution(FiniteKernel(sp, np.eye(3)))
    block = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NonUniqueStationaryError):
        stationary_distribution(FiniteKernel(sp, block))


def test_stationary_accepts_periodic_irreducible():
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.0, 1.0], [1.0, 0.0]])
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi.weights, [0.5, 0.5], atol=1e-12)


def test_tau_hand_value_two_states():
    # rows (0.7, 0.3) and (0.6, 0.4): tv = 0.2, trivial distance 2 -> 0.1
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    assert tau(P, sp) == pytest.approx(0.1, abs=1e-12)
    assert tau_v(P, WeightFunction.ones(sp)) == pytest.approx(0.1, abs=1e-12)


def test_tau_identity_is_one_and_rank_one_is_zero():
    sp = trivial_metric(range(4))
    assert tau(FiniteKernel(sp, np.eye(4)), sp) == pytest.approx(1.0, abs=1e-9)
    row = np.array([0.1, 0.2, 0.3, 0.4])
    P = FiniteKernel(sp, np.tile(row, (4, 1)))
    assert tau(P, sp) == 0.0
    assert tau_v(P, WeightFunction.ones(sp)) == 0.0


@pytest.mark.parametrize("seed", range(15))
def test_tau_v_equals_tau_under_dv_metric(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 9))
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n, mix=0.2))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.5, size=n))
    assert tau_v(P, V) == pytest.approx(tau(P, untagged(dv_metric(V))), abs=1e-9)


@pytest.mark.parametrize("kind", ["line", "trivial", "d_V"])
@pytest.mark.parametrize("seed", range(8))
def test_tau_and_gamma_closed_forms_match_all_pairs_transport(kind, seed):
    # line: only neighbouring pairs are visited; star: the tau_v formula
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 15))
    sp = tagged_space(rng, kind, n)
    P = FiniteKernel(sp, random_kernel(rng, n, mix=0.2))
    Pt = FiniteKernel(sp, random_kernel(rng, n, mix=0.2))
    Vt = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.0, size=n))
    memo = _transport._memo
    counts = (memo.hits, memo.misses)
    t = tau(P, sp)
    g = kernel_gamma_wasserstein(P, Pt, sp, Vt)
    assert (memo.hits, memo.misses) == counts  # no transport solve
    raw = untagged(sp)
    assert t == pytest.approx(tau(P, raw), rel=1e-9, abs=1e-12)
    assert g == pytest.approx(kernel_gamma_wasserstein(P, Pt, raw, Vt), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind", ["line", "trivial", "d_V"])
def test_tau_sees_rows_that_differ_by_1e_12(kind):
    rng = np.random.default_rng(9)
    sp = tagged_space(rng, kind, 5)
    row = rng.dirichlet(np.ones(5))
    M = np.tile(row, (5, 1))
    M[2, 0] += 1e-12
    M[2, 4] -= 1e-12
    t = tau(FiniteKernel(sp, M), sp)
    assert 0.0 < t < 1e-9


def tau_star_3d(M, g):
    """Reference: the (n, n, n) form of the star-metric tau."""
    num = np.abs(M[:, None, :] - M[None, :, :]) @ g
    ratio = num / (g[:, None] + g[None, :])
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(initial=0.0))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 39, 120])
def test_tau_star_row_by_row_is_bitwise_the_3d_form(n):
    rng = np.random.default_rng(n)
    for case in range(12):
        M = random_kernel(rng, n, mix=rng.uniform(0.0, 0.9))
        if case % 3 == 1:  # exact zeros and dust masses
            M[rng.random((n, n)) < 0.3] = 0.0
            M[rng.random((n, n)) < 0.1] = 1e-8
            M[:, 0] += 1.0 - M.sum(axis=1)
            M = np.abs(M) / np.abs(M).sum(axis=1, keepdims=True)
        if case % 4 == 2:  # two rows 1e-12 apart
            M[-1] = M[0]
            M[-1, 0] += 1e-12
        g = np.ones(n) if case % 2 else 1.0 + rng.uniform(0.0, 3.0, size=n)
        assert _tau_star(M, g) == tau_star_3d(M, g)


def tau_star_by_rows(M, g):
    """Reference: the star-metric tau one row x at a time."""
    worst = 0.0
    for x in range(len(M)):
        ratio = (np.abs(M[x] - M) @ g) / (g[x] + g)
        ratio[x] = 0.0
        worst = max(worst, float(ratio.max()))
    return worst


@pytest.mark.parametrize("n", [2, 9, 65, 77, 100, 151, 200])
def test_blocked_tau_star_is_the_row_loop_bit_for_bit(n):
    blocks = _blocks(n)
    if n > 64:  # several blocks of rows, the last one partial
        assert len(blocks) > 1 and n % (blocks[0].stop - blocks[0].start) != 0
    rng = np.random.default_rng(n)
    for case in range(6):
        M = random_kernel(rng, n, mix=rng.uniform(0.0, 0.9))
        if case % 3 == 1:  # exact zeros and dust masses
            M[rng.random((n, n)) < 0.3] = 0.0
            M[rng.random((n, n)) < 0.1] = 1e-8
            M[np.arange(n), rng.integers(n, size=n)] += 0.5
            M = M / M.sum(axis=1, keepdims=True)
        if case % 3 == 2:  # the sup only between the last two rows
            M[:] = M[0]
            M[-2:] = np.eye(n)[:2]
        g = np.ones(n) if case % 2 else 1.0 + rng.uniform(0.0, 3.0, size=n)
        assert _tau_star(M, g) == tau_star_by_rows(M, g)


def test_tau_v_memory_stays_quadratic_at_cli_maximum():
    n = 200
    rng = np.random.default_rng(0)
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n))
    V = WeightFunction(sp, 1.0 + rng.uniform(0.0, 2.0, size=n))
    tracemalloc.start()
    try:
        tau_v(P, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, n) temporary is 0.3 MiB; the (n, n, n) form needed 122 MiB
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# The pruned sups of tau and kernel_gamma_wasserstein against the plain
# loops they replace: one otcore._w1 solve per candidate, max taken in
# visiting order.

def all_pairs_tau(P, sp):
    worst = 0.0
    for i, j in itertools.combinations(range(sp.size), 2):
        w = otcore._w1(P.matrix[i], P.matrix[j], sp)[0] / sp.dist[i, j]
        if w > worst:
            worst = w
    return worst


def neighbour_pairs_tau(P, sp):
    order = sp._line[0]
    worst = 0.0
    for i, j in zip(order[:-1], order[1:]):
        w = otcore._w1(P.matrix[i], P.matrix[j], sp)[0] / sp.dist[i, j]
        if w > worst:
            worst = w
    return worst


def all_rows_gamma(P, Pt, sp, vt):
    worst = 0.0
    for i in range(sp.size):
        w = otcore._w1(P.matrix[i], Pt.matrix[i], sp)[0] / vt[i]
        if w > worst:
            worst = w
    return worst


def euclidean_space(rng, n):
    while True:
        pts = rng.normal(size=(n, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        if np.min(dist[~np.eye(n, dtype=bool)]) > 1e-6:
            return FiniteMetricSpace(range(n), dist)


def shaped_kernel(rng, n, shape):
    """A kernel with dust masses (1e-8), exact zeros, duplicate rows, or
    every row within 1e-12 of one common row."""
    M = random_kernel(rng, n, mix=rng.uniform(0.0, 0.9))
    if shape in ("dust", "zeros"):
        M[rng.random((n, n)) < 0.3] = 1e-8 if shape == "dust" else 0.0
        M[np.arange(n), rng.integers(0, n, size=n)] += 0.5  # no empty row
    elif shape == "duplicate":
        M[rng.random(n) < 0.5] = M[0]
    elif shape == "near":
        M[:] = rng.dirichlet(np.ones(n)) * 0.5 + 0.5 / n
        for i in rng.choice(n, size=max(1, n // 2), replace=False):
            a, b = rng.choice(n, size=2, replace=False)
            M[i, a] += 1e-12
            M[i, b] -= 1e-12
        return M
    return M / M.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16),
       st.sampled_from(("plain", "dust", "zeros", "duplicate", "near")),
       st.integers(1, 4), st.integers(0, 10_000))
@example(2, "near", 1, 0)
@example(9, "dust", 1, 1)
@example(9, "zeros", 3, 2)
@example(12, "duplicate", 2, 3)
def test_pruned_tau_and_gamma_equal_the_all_pairs_loop(n, shape, power, seed):
    rng = np.random.default_rng(seed)
    sp = euclidean_space(rng, n)
    M = shaped_kernel(rng, n, shape)
    K = np.linalg.matrix_power(M, power)
    P = FiniteKernel(sp, K / K.sum(axis=1, keepdims=True))
    assert tau(P, sp) == all_pairs_tau(P, sp)
    Pt = FiniteKernel(sp, shaped_kernel(rng, n, shape))
    vt = 1.0 + rng.uniform(0.0, 2.0, size=n)
    assert kernel_gamma_wasserstein(P, Pt, sp, WeightFunction(sp, vt)) == \
        all_rows_gamma(P, Pt, sp, vt)
    assert kernel_gamma_wasserstein(P, P, sp) == 0.0
    # the same kernels on a line: unsorted points spanning six decades
    xs = rng.permutation(10.0 ** rng.uniform(-3.0, 3.0, size=n))
    line = line_metric(xs * rng.choice([-1.0, 1.0], size=n))
    Pl = FiniteKernel(line, P.matrix)
    assert tau(Pl, line) == neighbour_pairs_tau(Pl, line)
    assert kernel_gamma_wasserstein(Pl, FiniteKernel(line, Pt.matrix), line,
                                    WeightFunction(line, vt)) == \
        all_rows_gamma(Pl, Pt, line, vt)


def test_pruned_tau_keeps_tied_maximal_pairs():
    # the 8-cycle's path metric and a circulant kernel with two entries of
    # 1/2: every row difference moves an excess mass of 1/2 or 1, so all
    # arithmetic, the scaling to unit mass included, is exact and every
    # rotation of the worst pair ties
    n = 8
    k = np.arange(n)
    gap = np.abs(k[:, None] - k[None, :])
    sp = FiniteMetricSpace(range(n), np.minimum(gap, n - gap).astype(float))
    c = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    P = FiniteKernel(sp, np.array([np.roll(c, i) for i in range(n)]))
    ref = all_pairs_tau(P, sp)
    ratios = [otcore._w1(P.matrix[i], P.matrix[j], sp)[0] / sp.dist[i, j]
              for i, j in itertools.combinations(range(n), 2)]
    assert ratios.count(ref) >= n
    assert tau(P, sp) == ref
    Pt = FiniteKernel(sp, np.array([np.roll(c, i + 1) for i in range(n)]))
    assert kernel_gamma_wasserstein(P, Pt, sp) == all_rows_gamma(P, Pt, sp, np.ones(n))


def test_pruning_margin_covers_the_row_sum_slack():
    # Row 1 has W1 = plan bound = 0.2.  Row 2's sums are 1 + e and 1 - e,
    # so its plan bound is 0.2 - e while its rebalanced W1 is 0.2 + 0.4 e:
    # an unwidened bound would skip the row that attains the sup.
    e = 5e-13
    sp = FiniteMetricSpace(range(2), [[0.0, 1.0], [1.0, 0.0]])
    P = FiniteKernel(sp, [[0.5, 0.5], [0.5 + e, 0.5]])
    Pt = FiniteKernel(sp, [[0.3, 0.7], [0.3, 0.7 - e]])
    ub = _plan_bounds(P.matrix, Pt.matrix, np.arange(2), np.arange(2), sp.dist)
    gamma = kernel_gamma_wasserstein(P, Pt, sp)
    assert ub[1] < 0.2 < gamma
    assert gamma == all_rows_gamma(P, Pt, sp, np.ones(2))


@pytest.mark.parametrize("size", [12, 30])
@pytest.mark.parametrize("seed", [1, 4])
def test_pruned_sups_solve_few_candidates(size, seed, monkeypatch):
    P, Pt, sp, V, _, _ = generate_random_instance(seed, size, 0.5)
    solves = []
    w1 = kernels._w1
    monkeypatch.setattr(kernels, "_w1", lambda *args: solves.append(args) or w1(*args))
    tau(P, sp)
    assert len(solves) <= size * (size - 1) // 2 // 4
    solves.clear()
    kernel_gamma_wasserstein(P, Pt, sp, V)
    assert len(solves) < size
    # on a line the candidates are the size - 1 neighbouring pairs
    line = tagged_space(np.random.default_rng(seed), "line", size)
    solves.clear()
    tau(FiniteKernel(line, P.matrix), line)
    assert 0 < len(solves) < size - 1


def test_plan_bounds_memory_stays_quadratic_at_cli_maximum():
    n = 200
    rng = np.random.default_rng(0)
    sp = euclidean_space(rng, n)
    M = random_kernel(rng, n)
    tracemalloc.start()
    try:
        ia, ib = np.triu_indices(n, k=1)
        _plan_bounds(M, M, ia, ib, sp.dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bounding all 19,900 pairs at once would need (19900, n) = 30 MiB
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("seed", range(15))
def test_tau_submultiplicative_and_contracts(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 8))
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    if n > 1 and np.min(dist[~np.eye(n, dtype=bool)]) <= 0:
        return
    sp = FiniteMetricSpace(range(n), dist)
    P = FiniteKernel(sp, random_kernel(rng, n, mix=0.3))
    Q = FiniteKernel(sp, random_kernel(rng, n, mix=0.3))
    assert tau(compose(P, Q), sp) <= tau(P, sp) * tau(Q, sp) + 1e-9
    mu = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
    nu = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
    lhs, _ = wasserstein1_exact(P.push(mu), P.push(nu), sp)
    rhs, _ = wasserstein1_exact(mu, nu, sp)
    assert lhs <= tau(P, sp) * rhs + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_tau_bounds_convergence_to_stationarity(seed):
    # sup_x W(delta_x P, pi) / W(delta_x, pi) <= tau(P)
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(3, 8))
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n, mix=0.3))
    pi = stationary_distribution(P)
    t = tau(P, sp)
    for x in range(n):
        num, _ = wasserstein1_exact(P.row(x), pi, sp)
        den, _ = wasserstein1_exact(point_mass(sp, x), pi, sp)
        assert num <= t * den + 1e-9


def test_drift_estimate_validation():
    sp = trivial_metric(range(2))
    V = WeightFunction(sp, [1.0, 3.0])
    with pytest.raises(ValueError, match="delta"):
        DriftEstimate(V, 1.0, 0.5)
    with pytest.raises(ValueError, match="L"):
        DriftEstimate(V, 0.5, 0.0)
    DriftEstimate(V, 0.0, 0.5)  # delta = 0 is legitimate (e.g. alpha = 0 AR chains)


@pytest.mark.parametrize("seed", range(10))
def test_fit_drift_L_round_trip(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2, 10))
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 3.0, size=n))
    delta = float(rng.uniform(0.1, 0.9))
    L = fit_drift_L(P, V, delta)
    check = verify_drift(P, DriftEstimate(V, delta, L))
    assert check.ok
    assert check.worst_slack <= 1e-10
    # halving L must break the condition unless the fit hit the 1e-12 floor
    if L > 1e-10:
        assert not verify_drift(P, DriftEstimate(V, delta, L / 2)).ok


def test_verify_drift_picks_lowest_worst_index():
    sp = trivial_metric(range(2))
    V = WeightFunction(sp, [2.0, 2.0])
    P = FiniteKernel(sp, np.eye(2))
    check = verify_drift(P, DriftEstimate(V, 0.5, 0.1))
    assert isinstance(check, DriftCheck)
    assert not check.ok
    assert check.worst_index == 0  # both states tie; lowest index reported


def test_fit_geometric_constants_hand_example():
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    est = fit_geometric_constants(P, WeightFunction.ones(sp), m=1, n_check=8)
    assert est.rho == pytest.approx(0.1, abs=1e-12)
    assert est.C == pytest.approx(1.0, abs=1e-12)
    assert est.metric_tag == "trivial"
    assert est.n_checked == 8


@pytest.mark.parametrize("seed", range(10))
def test_fit_geometric_constants_certificate(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 9))
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n, mix=0.3))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.0, size=n))
    est = fit_geometric_constants(P, V, m=3, n_check=9)
    assert est.metric_tag == "d_V"
    power = np.eye(n)
    for k in range(10):
        if k > 0:
            power = power @ P.matrix
        t = tau_v(FiniteKernel(sp, power / power.sum(1, keepdims=True)), V)
        assert t <= est.C * est.rho ** k + 1e-9


def test_fit_geometric_constants_rejects_tau_vanishing_only_at_the_horizon():
    # P^2 sends every point to 2, so tau(P^2) = 0, while tau(P) = 1
    sp = trivial_metric(range(3))
    P = FiniteKernel(sp, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NoContractionError,
                       match="^tau vanishes at horizon m but not at smaller powers; decrease m$"):
        fit_geometric_constants(P, sp, m=2, n_check=4)


def test_fit_geometric_constants_rejects_no_contraction():
    sp = trivial_metric(range(2))
    swap = FiniteKernel(sp, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoContractionError):
        fit_geometric_constants(swap, WeightFunction.ones(sp), m=3, n_check=3)


_SP = trivial_metric(range(2))
_FAR = trivial_metric("ab")  # the same metric on other labels
_P = FiniteKernel(_SP, [[0.7, 0.3], [0.4, 0.6]])
_PT = FiniteKernel(_SP, [[0.6, 0.4], [0.4, 0.6]])
_P_FAR = FiniteKernel(_FAR, _P.matrix)
_V = WeightFunction(_SP, [1.0, 2.0])
_V_FAR = WeightFunction(_FAR, [1.0, 2.0])
_LAW = DiscreteDistribution(_SP, [0.5, 0.5])
_LAW_FAR = DiscreteDistribution(_FAR, [0.5, 0.5])


def _elsewhere(name):
    return SpaceMismatchError, f"{name} lives on another point set than P"


_STEPS = ValueError, "n must be a nonnegative integer"


@pytest.mark.parametrize("call, refusal", [
    (lambda: FiniteKernel(_SP, [[1.0, 0.0]]),
     (ValueError, "kernel entries must have shape (2, 2), not (1, 2)")),
    (lambda: FiniteKernel(_SP, [[np.nan, 1.0], [0.5, 0.5]]),
     (ValueError, "kernel entries must be finite")),
    (lambda: _P.push(_LAW_FAR), _elsewhere("p")),
    (lambda: compose(_P, _P_FAR), _elsewhere("Q")),
    (lambda: evolve(_LAW_FAR, _P, 2), _elsewhere("p0")),
    (lambda: trajectory(_LAW_FAR, _P, 2), _elsewhere("p0")),
    (lambda: evolve(_LAW, _P, -1), _STEPS),
    (lambda: evolve(_LAW, _P, 2.5), _STEPS),
    (lambda: trajectory(_LAW, _P, -3), _STEPS),
    (lambda: trajectory(_LAW, _P, 2.5), _STEPS),
    (lambda: tau(_P, _FAR), _elsewhere("metric")),
    (lambda: tau_v(_P, _V_FAR), _elsewhere("V")),
    (lambda: verify_drift(_P, DriftEstimate(_V_FAR, 0.5, 1.0)), _elsewhere("V")),
    (lambda: fit_drift_L(_P, _V_FAR, 0.5), _elsewhere("V")),
    (lambda: fit_geometric_constants(_P, _SP, m=0), (ValueError, "m must be a positive integer")),
    (lambda: fit_geometric_constants(_P, _SP, m=4, n_check=3),
     (ValueError, "n_check must be >= m")),
    (lambda: kernel_gamma_wasserstein(_P, _P_FAR, _SP), _elsewhere("Pt")),
    (lambda: kernel_gamma_wasserstein(_P, _PT, _FAR), _elsewhere("metric")),
    (lambda: kernel_gamma_wasserstein(_P, _PT, _SP, _V_FAR), _elsewhere("Vt")),
    (lambda: kernel_gamma_tv(_P, _P_FAR), _elsewhere("Pt")),
    (lambda: kernel_gamma_tv(_P, _PT, _V_FAR), _elsewhere("Vt")),
    (lambda: kernel_gamma_vnorm(_P, _P_FAR, _V), _elsewhere("Pt")),
    (lambda: kernel_gamma_vnorm(_P, _PT, _V_FAR), _elsewhere("V")),
    (lambda: kernel_gamma_vnorm(_P, _PT, _V, _V_FAR), _elsewhere("Vt")),
    (lambda: _P.row(-1), (ValueError, "i must be a nonnegative integer")),
    (lambda: _P.row(False), (ValueError, "i must be a nonnegative integer")),
    (lambda: _P.row(2), (ValueError, "i must be below 2, the number of points")),
], ids=["kernel-shape", "kernel-nan", "push", "compose", "evolve-law", "trajectory-law",
        "evolve-negative", "evolve-fraction", "trajectory-negative", "trajectory-fraction",
        "tau", "tau_v", "verify_drift", "fit_drift_L", "fit-m", "fit-n_check",
        "gamma_w1-Pt", "gamma_w1-metric", "gamma_w1-Vt", "gamma_tv-Pt", "gamma_tv-Vt",
        "gamma_vnorm-Pt", "gamma_vnorm-V", "gamma_vnorm-Vt", "row-negative", "row-bool",
        "row-past-end"])
def test_bad_operands_get_a_typed_refusal(call, refusal):
    error, message = refusal
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_stationary_refuses_a_residual_above_its_tolerance(monkeypatch):
    # no kernel that passes the eigenvalue test has been seen to leave a
    # residual near 1e-10, so the refusal is reached with a zero tolerance
    monkeypatch.setattr(kernels, "STATIONARY_RESIDUAL_TOL", 0.0)
    P = FiniteKernel(trivial_metric(range(5)), random_kernel(np.random.default_rng(3), 5))
    with pytest.raises(NonUniqueStationaryError,
                       match=r"^stationarity residual \d\.\d{3}e-\d\d exceeds 0e\+00$"):
        stationary_distribution(P)


def test_fit_geometric_constants_refuses_a_tau_that_is_not_submultiplicative(monkeypatch):
    # tau(P^j) = 0.9 at every power: rho = 0.9^(1/2) and C = 1 from m = 2,
    # and then tau(P^3) = 0.9 > rho^3, which a true tau cannot give
    monkeypatch.setattr(kernels, "tau", lambda K, metric: 0.9)
    rho = 0.9 ** 0.5
    with pytest.raises(NoContractionError) as info:
        fit_geometric_constants(_P, _SP, m=2, n_check=4)
    assert str(info.value) == ("certificate tau(P^n) <= C rho^n fails at n=3 "
                               f"({0.9:.3e} > {rho ** 3:.3e})")


def test_ergodicity_estimate_validation():
    with pytest.raises(ValueError):
        ErgodicityEstimate(C=1.0, rho=1.0, m=1, metric_tag="base", n_checked=1)
    with pytest.raises(ValueError):
        ErgodicityEstimate(C=0.5, rho=0.5, m=1, metric_tag="base", n_checked=1)


def test_gamma_zero_for_identical_kernels():
    rng = np.random.default_rng(7)
    sp = trivial_metric(range(4))
    P = FiniteKernel(sp, random_kernel(rng, 4))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.0, size=4))
    assert kernel_gamma_wasserstein(P, P, sp, V) == 0.0
    assert kernel_gamma_tv(P, P, V) == 0.0
    assert kernel_gamma_vnorm(P, P, V, V) == 0.0


def test_gamma_hand_value_two_states():
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    Pt = FiniteKernel(sp, [[0.6, 0.4], [0.6, 0.4]])
    V = WeightFunction(sp, [1.0, 2.0])
    # row 0 differs by 0.1 in each entry: tv = 0.2, vnorm = 0.1*1 + 0.1*2 = 0.3
    assert kernel_gamma_tv(P, Pt) == pytest.approx(0.2, abs=1e-12)
    assert kernel_gamma_tv(P, Pt, V) == pytest.approx(0.2, abs=1e-12)  # worst at x=0, V=1
    assert kernel_gamma_vnorm(P, Pt, V) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_gamma_vnorm_equals_gamma_wasserstein_under_dv(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 8))
    sp = trivial_metric(range(n))
    P = FiniteKernel(sp, random_kernel(rng, n))
    Pt = FiniteKernel(sp, random_kernel(rng, n))
    V = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.0, size=n))
    Vt = WeightFunction(sp, 1.0 + rng.gamma(2.0, 1.0, size=n))
    lhs = kernel_gamma_vnorm(P, Pt, V, Vt)
    rhs = kernel_gamma_wasserstein(P, Pt, untagged(dv_metric(V)), Vt)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: DriftEstimate(_V, 0.5, np.nan), "L must be positive and finite"),
    (lambda: DriftEstimate(_V, 0.5, np.inf), "L must be positive and finite"),
    (lambda: fit_geometric_constants(_P, _SP, m=2.5), "m must be a positive integer"),
    (lambda: fit_geometric_constants(_P, _SP, m=2, n_check=4.5),
     "n_check must be a positive integer"),
], ids=["drift-L-nan", "drift-L-inf", "fit-fractional-m", "fit-fractional-n_check"])
def test_nan_infinite_and_fractional_operands_get_a_value_error(call, message):
    # DriftEstimate accepted these L, and a fractional m or n_check raised
    # TypeError from indexing
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
