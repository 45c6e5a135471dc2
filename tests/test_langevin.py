"""Noisy Langevin for Gibbs fields: exact-enumeration oracles, Monte Carlo
drift checks, and the two perturbation bounds.

The oracle enumerates every configuration (``oracle_model``); the package
itself only ever sees levels and counts.

Frozen constants below were computed independently at 30-digit precision:
  drift triple at (sigma=0.5, sigma_p=1, s_inf=1) = (0.9375, 0.875, 13.0)
  tv bound at (sigma=1, s_inf=1, N=100)           = 0.27631021115928548
  final bound (s=1, sigma=1, sigma_p=1, C=1,
               rho=0.5, E|X0|=0, N=10^4)          = 5.035018861342399
"""
import hashlib
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wperturb._rng import philox
from wperturb.ar1 import gaussian_abs_mean
from wperturb.errors import HypothesisViolation
from wperturb.langevin import (
    MAX_M,
    GibbsModel,
    LangevinParams,
    empirical_tv_binned,
    grad_log_posterior,
    langevin_drift_check,
    langevin_drift_constants,
    langevin_final_bound,
    langevin_simulate_pair,
    langevin_step,
    langevin_tv_perturbation_bound,
    langevin_update,
    likelihood_mean_s,
    noisy_grad,
)
from wperturb.cli import main
from wperturb.langevin import _noisy_grad_batch

TV_FROZEN = 0.27631021115928548
FINAL_FROZEN = 5.035018861342399


def two_point(sigma_p: float = 1.0) -> GibbsModel:
    return GibbsModel.ising_sum(1, observed=(1,), sigma_p=sigma_p)


def oracle_model(alphabet, M, statistic, observed, sigma_p=1.0):
    """Run the statistic over every configuration of alphabet^M and build the
    model from its distinct values and their multiplicities.  Returns the
    model and the per-configuration values of the statistic."""
    s_values = np.array([float(statistic(c))
                         for c in itertools.product(alphabet, repeat=M)])
    levels, counts = np.unique(s_values, return_counts=True)
    return GibbsModel(levels, counts, statistic(tuple(observed)), sigma_p), s_values


def config_likelihood(s_values: np.ndarray, theta: float) -> np.ndarray:
    """Exact pmf of l(.|theta) over the enumerated configurations."""
    lw = theta * s_values
    w = np.exp(lw - lw.max())
    return w / w.sum()


def spin_sum(c: tuple) -> float:
    return float(sum(c))


def path_agreements(c: tuple) -> float:
    return float(sum(c[i] == c[i + 1] for i in range(len(c) - 1)))


def constant_model(value: float = 2.0) -> GibbsModel:
    # zero-variance statistic: the noisy gradient has nothing to estimate
    return oracle_model((-1, 1), 3, lambda c: value, (1, -1, 1))[0]


def log_posterior(model: GibbsModel, theta: float) -> float:
    """Unnormalized log posterior, the quantity whose derivative is tested."""
    return (
        theta * model.s_obs
        - model.log_partition(theta)
        - theta ** 2 / (2.0 * model.sigma_p ** 2)
    )


# ------------------------------------------------------- likelihood oracles

def test_two_point_mean_is_tanh():
    m = two_point()
    for th in np.linspace(-4.0, 4.0, 17):
        assert likelihood_mean_s(m, th) == pytest.approx(math.tanh(th), abs=1e-14)


def test_theta_zero_is_plain_average():
    for build, stat, observed in (
        (GibbsModel.ising_sum, spin_sum, (1, 1, -1, 1)),
        (GibbsModel.path_agreement, path_agreements, (1, -1, -1, 1, 1)),
    ):
        m = build(len(observed), observed)
        _, s_values = oracle_model((-1, 1), len(observed), stat, observed)
        assert likelihood_mean_s(m, 0.0) == pytest.approx(s_values.mean(), abs=1e-14)


def test_mean_s_stays_within_statistic_range():
    m = GibbsModel.path_agreement(6, (1,) * 6)
    for th in (-200.0, -3.0, 0.0, 3.0, 200.0):
        val = likelihood_mean_s(m, th)
        assert math.isfinite(val)
        assert abs(val) <= m.s_inf + 1e-12


def test_likelihood_is_pmf_and_stable_at_large_theta():
    m = GibbsModel.ising_sum(8, (1,) * 8)
    for th in (-300.0, 0.0, 300.0):
        w = m.level_likelihood(th)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # at theta -> +inf the all-ones configuration takes all the mass
    assert likelihood_mean_s(m, 300.0) == pytest.approx(8.0, abs=1e-12)


def level_models():
    """(model, per-configuration statistic) pairs: the two built-ins beside
    their enumeration, then a constant and a non-integer custom statistic
    built by the oracle."""
    def custom(c):
        # three-letter alphabet, irrational weights: non-integer levels with
        # uneven multiplicities
        return 0.37 * sum(c) + math.sqrt(2.0) * c[0] * c[1] - 1.0 / 3.0

    ising, path = (1, -1, 1, 1, -1, 1), (1, 1, -1, 1, -1, -1, 1)
    return [
        (GibbsModel.ising_sum(6, ising, sigma_p=0.8),
         oracle_model((-1, 1), 6, spin_sum, ising)[1]),
        (GibbsModel.path_agreement(7, path),
         oracle_model((-1, 1), 7, path_agreements, path)[1]),
        oracle_model((-1, 1), 3, lambda c: -1.25, (1, -1, 1)),
        oracle_model((-1, 0, 1), 4, custom, (0, 1, -1, 1), 1.3),
    ]


LEVEL_THETAS = (-300.0, -3.0, 0.0, 3.0, 300.0)


def test_level_weights_are_configuration_weights_summed_by_level():
    for m, s_values in level_models():
        levels, inverse = np.unique(s_values, return_inverse=True)
        np.testing.assert_array_equal(m.levels, levels)
        for th in LEVEL_THETAS:
            by_level = np.zeros(levels.size)
            np.add.at(by_level, inverse, config_likelihood(s_values, th))
            np.testing.assert_allclose(m.level_likelihood(th), by_level,
                                       rtol=1e-12, atol=1e-15)


def test_level_quantities_match_the_enumerated_formula():
    for m, s_values in level_models():
        for th in LEVEL_THETAS:
            enumerated = float(config_likelihood(s_values, th) @ s_values)
            assert likelihood_mean_s(m, th) == pytest.approx(enumerated, abs=1e-12)
            grad = m.s_obs - enumerated - th / m.sigma_p ** 2
            assert grad_log_posterior(m, th) == pytest.approx(grad, abs=1e-12)
            lw = th * s_values
            lz = lw.max() + math.log(np.exp(lw - lw.max()).sum())
            assert m.log_partition(th) == pytest.approx(lz, abs=1e-12)


def test_level_counts_of_the_built_in_statistics():
    for M in range(2, 10):
        spins = (1,) * M
        path = GibbsModel.path_agreement(M, spins)
        ising = GibbsModel.ising_sum(M, spins)
        np.testing.assert_array_equal(path.levels, np.arange(M, dtype=float))
        np.testing.assert_array_equal(ising.levels,
                                      np.arange(-M, M + 1, 2, dtype=float))
        for m in (path, ising):
            assert np.exp(m.log_counts).sum() == pytest.approx(2.0 ** M, rel=1e-12)
    assert constant_model().levels.size == 1


def test_built_in_closed_forms_are_byte_equal_to_the_enumeration():
    for M in range(1, 17):
        observed = tuple(1 if k % 3 else -1 for k in range(M))
        for build, stat in ((GibbsModel.ising_sum, spin_sum),
                            (GibbsModel.path_agreement, path_agreements)):
            if stat is path_agreements and M == 1:
                # one site has no pair: the statistic is identically zero
                with pytest.raises(ValueError):
                    build(1, observed)
                with pytest.raises(ValueError):
                    oracle_model((-1, 1), 1, stat, observed)
                continue
            m = build(M, observed, sigma_p=0.7)
            ref, _ = oracle_model((-1, 1), M, stat, observed, 0.7)
            assert m.levels.tobytes() == ref.levels.tobytes()
            assert m.log_counts.tobytes() == ref.log_counts.tobytes()
            assert (m.s_obs, m.s_inf, m.sigma_p) == (ref.s_obs, ref.s_inf, ref.sigma_p)


def test_built_ins_reach_the_largest_M():
    assert MAX_M == 1000
    for build in (GibbsModel.path_agreement, GibbsModel.ising_sum):
        m = build(MAX_M, (1,) * MAX_M)
        assert np.all(np.isfinite(m.log_counts))
        assert np.exp(m.log_counts).sum() == pytest.approx(2.0 ** MAX_M, rel=1e-12)


# --------------------------------------------------------- gradient oracles

def test_gradient_matches_finite_difference():
    h = 1e-5
    models = [
        GibbsModel.ising_sum(1, (1,)),
        GibbsModel.ising_sum(4, (1, -1, 1, 1), sigma_p=0.7),
        GibbsModel.ising_sum(10, (1, -1) * 5),
        GibbsModel.path_agreement(2, (1, -1)),
        GibbsModel.path_agreement(5, (1, 1, -1, -1, 1), sigma_p=2.0),
        GibbsModel.path_agreement(10, (1, 1, 1, -1, -1, 1, -1, 1, 1, -1)),
    ]
    for m in models:
        for th in np.linspace(-3.0, 3.0, 13):
            fd = (log_posterior(m, th + h) - log_posterior(m, th - h)) / (2.0 * h)
            assert grad_log_posterior(m, th) == pytest.approx(fd, abs=1e-6)


def test_gradient_without_prior_is_bounded_by_statistic():
    m = GibbsModel.path_agreement(6, (1, -1, 1, 1, -1, -1))
    for th in np.linspace(-30.0, 30.0, 41):
        centered = grad_log_posterior(m, th) + th / m.sigma_p ** 2
        assert abs(centered) <= 2.0 * m.s_inf + 1e-12


def test_two_point_gradient_closed_form():
    m = two_point(sigma_p=1.5)
    for th in (-2.0, 0.0, 0.9):
        expect = 1.0 - math.tanh(th) - th / 1.5 ** 2
        assert grad_log_posterior(m, th) == pytest.approx(expect, abs=1e-14)


# --------------------------------------------------------- model validation

def test_model_validation():
    for levels, counts in (
        ([], []),                        # no level at all
        ([1.0, 1.0], [2, 2]),            # repeated level
        ([1.0, -1.0], [2, 2]),           # unsorted levels
        ([-1.0, math.nan], [2, 2]),      # non-finite level
        ([-1.0, math.inf], [2, 2]),
        ([[-1.0, 1.0]], [[2, 2]]),       # not 1-d
        ([-1.0, 1.0], [2, 0]),           # nonpositive counts
        ([-1.0, 1.0], [2, -1]),
        ([-1.0, 1.0], [2, math.nan]),    # non-finite counts
        ([-1.0, 1.0], [2, math.inf]),
        ([-1.0, 1.0], [2, 2, 2]),        # mismatched shapes
        ([-1.0, 1.0], [[2, 2]]),
        ([0.0], [4]),                    # ||s||_inf = 0
    ):
        with pytest.raises(ValueError):
            GibbsModel(levels, counts, 0.0, 1.0)
    for s_obs, sigma_p in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0),
                           (0.0, -1.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            GibbsModel([-1.0, 1.0], [1, 1], s_obs, sigma_p)
    with pytest.raises(ValueError):
        GibbsModel.ising_sum(0, ())
    for build in (GibbsModel.ising_sum, GibbsModel.path_agreement):
        with pytest.raises(ValueError):  # past the largest supported M
            build(MAX_M + 1, (1,) * (MAX_M + 1))
    with pytest.raises(ValueError):
        GibbsModel.path_agreement(1, (1,))  # no pair, so ||s||_inf = 0
    with pytest.raises(ValueError):
        GibbsModel.ising_sum(3, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        GibbsModel.ising_sum(3, (1, 1, 0))  # label outside the alphabet
    with pytest.raises(ValueError):
        GibbsModel.ising_sum(3, (1, 1, 1), sigma_p=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        LangevinParams(sigma=0.0, N=10)
    with pytest.raises(ValueError):
        LangevinParams(sigma=1.0, N=0)
    with pytest.raises(ValueError):
        LangevinParams(sigma=math.inf, N=10)


# ----------------------------------------------------------- noisy gradient

def test_noisy_grad_constant_statistic_is_exact():
    m = constant_model()
    g = philox(21, 0, 0)
    for N in (1, 7, 100):
        assert noisy_grad(m, 0.4, N, g) == grad_log_posterior(m, 0.4)


def test_noisy_grad_unbiased():
    m = GibbsModel.ising_sum(3, (1, 1, -1))
    th = 0.7
    exact = grad_log_posterior(m, th)
    for N in (1, 10, 100):
        g = philox(22, N)
        vals = np.array([noisy_grad(m, th, N, g) for _ in range(2000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3.0 * se + 1e-12


def test_noisy_grad_batch_mean_and_variance():
    # the N-sample average of s has mean E_theta s and variance Var_theta(s)/N
    N, th, reps = 40, 0.3, 20000
    path = (1, -1, -1, 1, 1)
    for m, s_values in ((GibbsModel.path_agreement(5, path),
                         oracle_model((-1, 1), 5, path_agreements, path)[1]),
                        level_models()[-1]):
        w = config_likelihood(s_values, th)
        var = float(w @ s_values ** 2) - float(w @ s_values) ** 2
        g = _noisy_grad_batch(m, np.full(reps, th), N, philox(24, 0))
        c = g - g.mean()
        z_mean = abs(g.mean() - grad_log_posterior(m, th)) / math.sqrt(var / N / reps)
        z_var = abs(g.var(ddof=1) - var / N) / math.sqrt(
            ((c ** 4).mean() - c.var() ** 2) / reps)
        assert z_mean <= 4.0 and z_var <= 4.0


def test_noisy_grad_range_and_validation():
    m = GibbsModel.path_agreement(4, (1, 1, -1, 1))
    exact = grad_log_posterior(m, -0.3)
    g = philox(23, 0)
    for _ in range(200):
        val = noisy_grad(m, -0.3, 5, g)
        assert exact - 2.0 * m.s_inf <= val <= exact + 2.0 * m.s_inf
    with pytest.raises(ValueError):
        noisy_grad(m, 0.0, 0, g)


# ----------------------------------------------------------------- stepping

def test_step_decomposes_into_update():
    m = two_point()
    p = LangevinParams(sigma=0.6, N=10)
    got = langevin_step(m, p, 1.2, philox(7, 0, 0), noisy=False)
    z = 0.6 * philox(7, 0, 0).standard_normal()
    assert got == langevin_update(p, 1.2, grad_log_posterior(m, 1.2), z)


def test_noisy_step_draw_order():
    # the level counts are consumed before the innovation; with a constant
    # statistic the noisy step is then exactly reproducible
    m = constant_model()
    p = LangevinParams(sigma=0.9, N=25)
    got = langevin_step(m, p, -0.5, philox(8, 0, 0), noisy=True)
    g = philox(8, 0, 0)
    g.multinomial(25, m.level_likelihood(-0.5))
    z = 0.9 * g.standard_normal()
    assert got == langevin_update(p, -0.5, grad_log_posterior(m, -0.5), z)


def test_noisy_step_replays_level_multinomial():
    # a statistic with several levels, so the multinomial consumes draws
    m = GibbsModel.ising_sum(3, (1, -1, 1))
    p = LangevinParams(sigma=0.9, N=25)
    got = langevin_step(m, p, -0.5, philox(8, 0, 0), noisy=True)
    g = philox(8, 0, 0)
    counts = g.multinomial(25, m.level_likelihood(-0.5))
    grad = m.s_obs - float(counts @ m.levels) / 25.0 - (-0.5) / m.sigma_p ** 2
    z = 0.9 * g.standard_normal()
    assert got == langevin_update(p, -0.5, grad, z)


def test_one_step_mean_matches_drift_in_mean():
    m = GibbsModel.ising_sum(4, (1, 1, 1, -1))
    p = LangevinParams(sigma=0.5, N=20)
    th = 0.8
    xs, xts = langevin_simulate_pair(m, p, th, 1, 40000, seed=99)
    target = th + 0.5 * p.sigma ** 2 * grad_log_posterior(m, th)
    for cloud in (xs[0], xts[0]):
        se = cloud.std(ddof=1) / math.sqrt(cloud.size)
        assert abs(cloud.mean() - target) <= 3.0 * se


# ------------------------------------------------------------ drift triple

def test_drift_constants_frozen():
    delta, L, radius = langevin_drift_constants(0.5, 1.0, 1.0)
    assert delta == 0.9375
    assert L == 0.875
    assert radius == 13.0


def test_drift_constants_validation():
    with pytest.raises(HypothesisViolation):
        langevin_drift_constants(2.0, 1.0, 1.0)  # sigma^2 = 4 sigma_p^2 exactly
    with pytest.raises(ValueError):
        langevin_drift_constants(-0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        langevin_drift_constants(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        langevin_drift_constants(0.5, 1.0, math.inf)
    # just inside the step-size constraint is fine
    delta, _, _ = langevin_drift_constants(2.0, 1.0001, 1.0)
    assert 0.0 < delta < 1.0


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(0.05, 3.0),
    pad=st.floats(0.05, 4.0),
    s_inf=st.floats(0.05, 8.0),
)
def test_drift_constants_properties(sigma, pad, s_inf):
    sigma_p = 0.5 * sigma * (1.0 + pad)
    delta, L, radius = langevin_drift_constants(sigma, sigma_p, s_inf)
    assert 0.0 < delta < 1.0
    assert L > 0.0
    assert radius > 1.0


# ------------------------------------------------------------------ bounds

def test_tv_bound_frozen():
    assert langevin_tv_perturbation_bound(1.0, 1.0, 100) == pytest.approx(
        TV_FROZEN, rel=1e-15
    )


def test_tv_bound_threshold_is_strict():
    # threshold is exactly 4 at sigma = s_inf = 1
    with pytest.raises(HypothesisViolation):
        langevin_tv_perturbation_bound(1.0, 1.0, 4)
    assert langevin_tv_perturbation_bound(1.0, 1.0, 5) > 0.0
    with pytest.raises(ValueError):
        langevin_tv_perturbation_bound(-1.0, 1.0, 100)
    with pytest.raises(ValueError):
        langevin_tv_perturbation_bound(1.0, 1.0, 0)


def test_tv_bound_decreasing_in_N():
    vals = [langevin_tv_perturbation_bound(1.0, 1.0, N) for N in range(5, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_final_bound_frozen():
    m = two_point()
    p = LangevinParams(sigma=1.0, N=10 ** 4)
    assert langevin_final_bound(m, p, 1.0, 0.5, 0.0) == pytest.approx(
        FINAL_FROZEN, rel=1e-13
    )


def _parent_final_bound(model, params, C, rho, E_absX0):
    """langevin_final_bound as it was written out before it called geom4_bound."""
    sigma, N = params.sigma, params.N
    s, sigma_p = model.s_inf, model.sigma_p
    if not (C > 0 and math.isfinite(C)):
        raise ValueError("C must be positive and finite")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if not (E_absX0 >= 0 and math.isfinite(E_absX0)):
        raise ValueError("E_absX0 must be nonnegative and finite")
    if not sigma ** 2 < 4 * sigma_p ** 2:
        raise HypothesisViolation("need sigma^2 < 4*sigma_p^2")
    if not N > 90.0 * max(s ** 2 * sigma ** 4, s ** -3 * sigma ** -6):
        raise HypothesisViolation("need N > the long-run threshold")
    m = max(s * sigma ** 2, s ** -2 * sigma ** -4)
    R = 18.0 * m / (1.0 - rho) * (2.0 + max(E_absX0, 4.0 * sigma_p ** 2 * (s + 1.0 / sigma)))
    base = 2.0 * C * (sigma + sigma ** 2 * s + 3.0)
    log_n = math.log(N)
    return R * base ** (2.0 / log_n) * log_n ** 2 / N


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any class: the class is the outcome
        return type(exc)


def _same_outcome(new, old):
    # geom4's order of the same product differs by a few roundings: at most
    # 4 ulp of 1.0, relative
    if isinstance(old, type):
        return new is old
    return not isinstance(new, type) and abs(new - old) <= 4.0 * 2.0 ** -52 * old


def test_final_bound_matches_the_parent_formula():
    rng = np.random.default_rng(2021)
    for _ in range(1500):
        M = int(rng.integers(2, 40))
        observed = tuple(int(v) for v in rng.choice([-1, 1], size=M))
        build = GibbsModel.ising_sum if rng.random() < 0.5 else GibbsModel.path_agreement
        m = build(M, observed, sigma_p=0.2 + 3.0 * rng.random())
        sigma = 2.0 * m.sigma_p * rng.random()
        s = m.s_inf
        threshold = 90.0 * max(s ** 2 * sigma ** 4, s ** -3 * sigma ** -6)
        if threshold > 1e15:  # N - 1 and N would round to one float
            continue
        C, E0 = 1.0 + 9.0 * rng.random(), 10.0 * rng.random()
        rho = rng.random()
        # the threshold's edge, then a larger N
        for N in (math.floor(threshold), math.floor(threshold) + 1,
                  int(threshold * (1.0 + 3.0 * rng.random())) + 1):
            p = LangevinParams(sigma=sigma, N=max(N, 1))
            args = (m, p, C, rho, E0)
            new = _outcome(langevin_final_bound, *args)
            assert _same_outcome(new, _outcome(_parent_final_bound, *args)), args
            # the TV bound shares K and keeps every bit
            tv = 6.0 * max(s * sigma ** 2, s ** -2 * sigma ** -4) * math.log(p.N) / p.N
            if p.N > 4.0 * max(s ** 2 * sigma ** 4, s ** -3 * sigma ** -6):
                assert langevin_tv_perturbation_bound(sigma, s, p.N) == tv


@pytest.mark.parametrize("N", [89, 90, 91, 92, 10 ** 4])
def test_final_bound_raises_as_the_parent_at_the_sample_size_edge(N):
    # the threshold 90 max(s^2 sigma^4, s^-3 sigma^-6) is exactly 90 at
    # sigma = s = 1, and geom4's own N > 6 K^(3/2) = 88.2 lies below it
    for model in (two_point(), two_point(sigma_p=0.7)):
        args = (model, LangevinParams(1.0, N), 1.0, 0.5, 0.0)
        new, old = _outcome(langevin_final_bound, *args), _outcome(_parent_final_bound, *args)
        assert _same_outcome(new, old)
        assert (old is HypothesisViolation) == (N <= 90)


@pytest.mark.parametrize("C", [0.1, 0.5, 0.9999999999999999, -1.0, math.nan, math.inf])
def test_final_bound_needs_C_at_least_one(C):
    # tau(P^0) = 1, so no certificate tau(P^n) <= C rho^n has C < 1
    with pytest.raises(ValueError, match="C must be at least 1 and finite"):
        langevin_final_bound(two_point(), LangevinParams(1.0, 10 ** 4), C, 0.5, 0.0)
    assert langevin_final_bound(two_point(), LangevinParams(1.0, 10 ** 4),
                                1.0, 0.5, 0.0) > 0.0


def test_langevin_run_files_are_pinned(tmp_path):
    # sha256 of each file of one `wperturb run`; no byte moved when
    # langevin_final_bound became a geom4_bound call
    pinned = {
        "langevin_drift.csv": "202d17de2241935e8be6cc447445c7356c90e4e344178c2e4ae7dfc0aaf4fc8e",
        "langevin_final.csv": "57bd3184ffaacf8bd5eebaa6db9dcbe2b2c345f5cb24a36713b454b150f5d4ca",
        "langevin_tv.csv": "709a17465eed8965107563394b4c6cfe4f0e73488cb96a9a5492ea3fcc60791a",
        "summary.txt": "c6f3a8d6e0553e1e2f8fcecb771a69988411083b75d18c10f26312d8c27efcd7",
    }
    cfg = tmp_path / "langevin.ini"
    cfg.write_text("[experiment]\nkind = langevin\nseed = 20\n"
                   "[langevin]\nobserved = 1,-1,1,1,-1\nN = 600\nreplicas = 2000\n"
                   "draws = 2000\nC = 1.5\nrho = 0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(pinned)
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_final_bound_thresholds():
    m = two_point()
    # threshold is exactly 90 at sigma = s_inf = 1
    with pytest.raises(HypothesisViolation):
        langevin_final_bound(m, LangevinParams(1.0, 90), 1.0, 0.5, 0.0)
    assert langevin_final_bound(m, LangevinParams(1.0, 91), 1.0, 0.5, 0.0) > 0.0
    with pytest.raises(HypothesisViolation):
        # step size too large for the prior: sigma^2 >= 4 sigma_p^2
        langevin_final_bound(
            GibbsModel.ising_sum(1, (1,), sigma_p=0.5), LangevinParams(1.0, 10 ** 4),
            1.0, 0.5, 0.0,
        )
    with pytest.raises(ValueError):
        langevin_final_bound(m, LangevinParams(1.0, 10 ** 4), 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        langevin_final_bound(m, LangevinParams(1.0, 10 ** 4), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        langevin_final_bound(m, LangevinParams(1.0, 10 ** 4), 1.0, 0.5, -1.0)


def test_final_bound_decays_with_N():
    m = two_point()
    vals = [
        langevin_final_bound(m, LangevinParams(1.0, N), 1.0, 0.5, 0.0)
        for N in (10 ** 4, 10 ** 5, 10 ** 6)
    ]
    assert vals[0] > vals[1] > vals[2]


# --------------------------------------------------------- drift MC checks

def test_drift_check_inside_and_outside_small_set():
    m = GibbsModel.ising_sum(4, (1, 1, -1, 1))
    p = LangevinParams(sigma=0.5, N=50)
    grid = [-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0]
    rep = langevin_drift_check(m, p, grid, 20000, philox(5, 0, 0))
    assert rep.all_ok
    assert rep.draws == 20000
    # s_inf = 4 puts the small-set radius at 25: +-30 is outside, cap drops L
    assert rep.I_radius == 25.0
    assert rep.caps[0] == pytest.approx(rep.delta * 31.0, abs=1e-12)
    assert rep.caps[3] == pytest.approx(rep.delta + rep.L, abs=1e-12)
    assert np.all(rep.exact_se > 0) and np.all(rep.noisy_se > 0)


def test_drift_check_exact_stepper_against_folded_normal():
    # E[V(theta')] for the exact stepper is 1 + E|N(m, sigma)| in closed form
    m = GibbsModel.path_agreement(5, (1, 1, -1, 1, -1), sigma_p=1.5)
    p = LangevinParams(sigma=0.7, N=10)
    grid = [-3.0, 0.0, 2.0]
    rep = langevin_drift_check(m, p, grid, 40000, philox(6, 0, 0))
    for i, th in enumerate(grid):
        mean = th + 0.5 * p.sigma ** 2 * grad_log_posterior(m, th)
        closed = 1.0 + gaussian_abs_mean(mean, p.sigma)
        assert abs(rep.exact_mean[i] - closed) <= 4.0 * rep.exact_se[i]


def test_drift_check_validation():
    m = two_point()
    p = LangevinParams(sigma=0.5, N=5)
    with pytest.raises(ValueError):
        langevin_drift_check(m, p, [], 100, philox(0, 0))
    with pytest.raises(ValueError):
        langevin_drift_check(m, p, [0.0], 1, philox(0, 0))
    with pytest.raises(ValueError):
        langevin_drift_check(m, p, [math.nan], 100, philox(0, 0))


def test_drift_report_csv():
    m = two_point()
    rep = langevin_drift_check(m, LangevinParams(0.5, 5), [0.0, 2.0], 500, philox(9, 0))
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "theta,cap,exact_mean,exact_se,noisy_mean,noisy_se,ok"
    assert len(lines) == 3
    assert lines[1].split(",")[-1] in ("0", "1")


# ------------------------------------------------------- coupled simulation

def test_simulate_pair_deterministic():
    m = GibbsModel.ising_sum(3, (1, -1, 1))
    p = LangevinParams(sigma=0.6, N=30)
    xs1, xts1 = langevin_simulate_pair(m, p, 0.2, 4, 500, seed=77)
    xs2, xts2 = langevin_simulate_pair(m, p, 0.2, 4, 500, seed=77)
    assert xs1.tobytes() == xs2.tobytes() and xts1.tobytes() == xts2.tobytes()
    xs3, _ = langevin_simulate_pair(m, p, 0.2, 4, 500, seed=78)
    assert xs1.tobytes() != xs3.tobytes()


def test_simulate_pair_constant_statistic_chains_coincide():
    # zero-variance statistic makes the noisy gradient exact, and the shared
    # innovation stream then keeps the two chains identical path by path
    m = constant_model()
    p = LangevinParams(sigma=0.8, N=3)
    xs, xts = langevin_simulate_pair(m, p, -1.0, 6, 300, seed=13)
    assert np.array_equal(xs, xts)


def test_simulate_pair_validation():
    m = two_point()
    p = LangevinParams(sigma=0.5, N=5)
    with pytest.raises(ValueError):
        langevin_simulate_pair(m, p, 0.0, 0, 100, seed=1)
    with pytest.raises(ValueError):
        langevin_simulate_pair(m, p, 0.0, 3, 0, seed=1)


# ------------------------------------------------------------- tv proxy

def test_empirical_tv_binned_basics():
    g = philox(31, 0)
    a = g.standard_normal(5000)
    assert empirical_tv_binned(a, a) == 0.0
    b = a + 100.0  # disjoint supports
    assert empirical_tv_binned(a, b) == pytest.approx(2.0, abs=1e-12)
    c = g.standard_normal(5000) + 0.3
    assert 0.0 < empirical_tv_binned(a, c) < 2.0
    # degenerate samples share the single fallback bin
    assert empirical_tv_binned(np.zeros(10), np.zeros(10)) == 0.0
    with pytest.raises(ValueError):
        empirical_tv_binned(np.array([]), a)


@pytest.mark.parametrize("bins", [0, -3, 2.5, None])
def test_empirical_tv_binned_rejects_a_bad_bin_count(bins):
    a = np.arange(100.0)
    with pytest.raises(ValueError, match="bins"):
        empirical_tv_binned(a, a + 1000.0, bins)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_empirical_tv_binned_rejects_non_finite_samples(bad, side):
    # a NaN or an inf in either sample used to give a value in [0, 2]
    samples = [np.linspace(0.0, 1.0, 100), np.linspace(0.5, 1.5, 100)]
    samples[side][7] = bad
    with pytest.raises(ValueError, match="finite"):
        empirical_tv_binned(*samples)


def test_noisy_chain_tv_proxy_shrinks_with_N():
    m = GibbsModel.path_agreement(5, (1, 1, 1, -1, -1))
    tvs = []
    for N in (100, 1000, 10000):
        xs, xts = langevin_simulate_pair(
            m, LangevinParams(sigma=0.8, N=N), 0.0, 8, 30000, seed=314
        )
        tvs.append(empirical_tv_binned(xs[-1], xts[-1]))
    # the shared innovation stream keeps estimator noise far below these gaps
    assert tvs[0] > tvs[1] > tvs[2]
    # one-step proxy sits under the theoretical uniform cap with headroom at
    # N=100; at larger N the cap dives below estimator noise, so only the
    # smallest N is a meaningful domination check
    xs, xts = langevin_simulate_pair(
        m, LangevinParams(sigma=0.8, N=100), 0.0, 1, 30000, seed=314
    )
    cap = langevin_tv_perturbation_bound(0.8, m.s_inf, 100)
    assert empirical_tv_binned(xs[0], xts[0]) <= cap


# ------------------------------------------------------------- refusals

_MODEL = two_point()
_LEVELS = "levels must be a nonempty 1-d array of finite values"
_N = ValueError, "N must be a positive integer"


@pytest.mark.parametrize("call, refusal", [
    (lambda: GibbsModel([], [], 0.0, 1.0), (ValueError, _LEVELS)),
    (lambda: GibbsModel([[-1.0, 1.0]], [[1.0, 1.0]], 0.0, 1.0), (ValueError, _LEVELS)),
    (lambda: GibbsModel([1.0, -1.0], [1.0, 1.0], 0.0, 1.0),
     (ValueError, "levels must be strictly increasing")),
    (lambda: GibbsModel([-1.0, 1.0], [1.0, 1.0, 1.0], 0.0, 1.0),
     (ValueError, "counts must have shape (2,), not (3,)")),
    (lambda: GibbsModel([-1.0, 1.0], [1.0, math.nan], 0.0, 1.0),
     (ValueError, "counts must be finite")),
    (lambda: GibbsModel([-1.0, 1.0], [1.0, 0.0], 0.0, 1.0), (ValueError, "counts must be positive and finite")),
    (lambda: GibbsModel([-1.0, 1.0], [1.0, 1.0], math.inf, 1.0),
     (ValueError, "s_obs must be finite")),
    (lambda: GibbsModel([0.0], [2.0], 0.0, 1.0),
     (ValueError, "statistic is identically zero; ||s||_inf must be > 0")),
    (lambda: GibbsModel([-1.0, 1.0], [1.0, 1.0], 0.0, math.nan),
     (ValueError, "sigma_p must be positive and finite")),
    (lambda: GibbsModel.ising_sum(0, ()), (ValueError, f"M must be an integer in [1, {MAX_M}]")),
    (lambda: GibbsModel.path_agreement(2, (1, 0)),
     (ValueError, "observed must be a length-M tuple of -1/+1 labels")),
    (lambda: LangevinParams(0.0, 10), (ValueError, "sigma must be positive and finite")),
    (lambda: LangevinParams(1.0, 2.5), _N),
    (lambda: noisy_grad(_MODEL, 0.0, 0, philox(1, 0)), _N),
    (lambda: langevin_drift_constants(1.0, 1.0, math.inf),
     (ValueError, "s_inf must be positive and finite")),
    (lambda: langevin_drift_constants(3.0, 1.0, 1.0),
     (HypothesisViolation, "need sigma^2 < 4*sigma_p^2, got 9 >= 4")),
    (lambda: langevin_tv_perturbation_bound(-1.0, 1.0, 100),
     (ValueError, "sigma must be positive and finite")),
    (lambda: langevin_tv_perturbation_bound(1.0, 1.0, 100.0), _N),
    (lambda: langevin_tv_perturbation_bound(1.0, 1.0, 4),
     (HypothesisViolation, "need N > 4 for the TV perturbation bound, got N=4")),
    (lambda: langevin_final_bound(_MODEL, LangevinParams(1.0, 10 ** 4), math.inf, 0.5, 0.0),
     (ValueError, "C must be at least 1 and finite, since tau(P^0) = 1")),
    (lambda: langevin_final_bound(_MODEL, LangevinParams(1.0, 10 ** 4), 1.0, 0.5, -1.0),
     (ValueError, "E_absX0 must be nonnegative and finite")),
    (lambda: langevin_final_bound(_MODEL, LangevinParams(1.0, 90), 1.0, 0.5, 0.0),
     (HypothesisViolation, "need N > 90 for the long-run bound, got N=90")),
    (lambda: langevin_drift_check(_MODEL, LangevinParams(1.0, 10), [0.0], 1, philox(1, 0)),
     (ValueError, "draws must be an integer >= 2")),
    (lambda: langevin_drift_check(_MODEL, LangevinParams(1.0, 10), [], 10, philox(1, 0)),
     (ValueError, "theta_grid must be a nonempty 1-d array of finite values")),
    (lambda: empirical_tv_binned(np.zeros(3), np.array([])),
     (ValueError, "both samples must be nonempty")),
    (lambda: empirical_tv_binned(np.zeros(3), np.ones(3), 2.5),
     (ValueError, "bins must be a positive integer")),
    (lambda: empirical_tv_binned(np.zeros(3), np.array([0.0, math.inf])),
     (ValueError, "samples must be finite")),
], ids=["levels-empty", "levels-2d", "levels-order", "counts-shape", "counts-nan", "counts-zero",
        "s_obs", "zero-statistic", "sigma_p", "M", "observed", "sigma", "N", "noisy_grad-N",
        "drift-s_inf", "drift-step", "tv-sigma", "tv-N", "tv-threshold", "final-C",
        "final-E_absX0", "final-threshold", "drift_check-draws", "drift_check-grid",
        "tv_binned-empty", "tv_binned-bins", "tv_binned-inf"])
def test_bad_operands_get_a_typed_refusal(call, refusal):
    error, message = refusal
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
