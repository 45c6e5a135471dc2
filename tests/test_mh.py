"""Metropolis-Hastings perturbation machinery.

Finite instances get exact sums and exact transport distances; line
problems get quadrature oracles.  Frozen constants, 25-digit independent
arithmetic:
  lambda for exp(-x) target, Unif[x-1,x+1], V=e^x = 2.1752011936438015
  metro_geom at (C=1, rho=.5, n=inf, s=.05, lam=2.1752, delta=.7, L=1)
                                                  = 1.1374189500104581
"""
import hashlib
import math
import os

import numpy as np
import pytest
from scipy import integrate

from wperturb import mh
from wperturb._rng import philox
from wperturb.bounds import kappa as kappa_const
from wperturb.cli import main
from wperturb.errors import ConfigError, HypothesisViolation, SpaceMismatchError
from wperturb.kernels import (DriftEstimate, evolve, fit_drift_L,
                              fit_geometric_constants, stationary_distribution,
                              verify_drift)
from wperturb.otcore import (DiscreteDistribution, FiniteMetricSpace,
                             WeightFunction, line_metric, trivial_metric,
                             wasserstein1_exact)

LAMBDA_TOY = 2.1752011936438015
METRO_GEOM_FROZEN = 1.1374189500104581
EPS = 2.0 ** -52


def random_finite_mh(seed, n=6, metric="line"):
    rng = np.random.default_rng(seed)
    pi = rng.random(n) + 0.1
    pi /= pi.sum()
    Q = rng.random((n, n)) + 0.05
    Q /= Q.sum(axis=1, keepdims=True)
    if metric == "line":
        pts = np.cumsum(rng.random(n) + 0.1)
        space = line_metric(pts)
    else:
        space = trivial_metric(list(range(n)))
    return mh.FiniteMhProblem(pi, Q, space)


# ----------------------------------------------------------- line problems


def test_uniform_window_density_normalizes():
    prop = mh.Proposal.uniform_window(1.5)
    lo, hi = prop.support(2.0)
    assert (lo, hi) == (0.5, 3.5)
    mass, _ = integrate.quad(lambda y: prop.density(2.0, y), lo, hi)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert prop.density(2.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        mh.Proposal.uniform_window(0.0)


def test_exponential_target_acceptance_closed_form():
    prob = mh.MhProblem.exponential_target()
    assert prob.acceptance(2.0, 1.3) == 1.0          # downhill: surely accept
    assert prob.acceptance(1.0, 1.7) == pytest.approx(math.exp(-0.7))
    assert prob.acceptance(0.3, -0.1) == 0.0         # outside the support
    assert 0.0 <= prob.acceptance(0.0, 0.9) <= 1.0


def test_exponential_chain_stays_on_half_line():
    prob = mh.MhProblem.exponential_target()
    g = philox(4, 0)
    x = 0.5
    for _ in range(300):
        x = mh.mh_step(prob, x, g)
        assert x >= 0.0


def test_always_accept_chain_replays_proposals():
    prob = mh.MhProblem(lambda x, y: 0.0, mh.Proposal.uniform_window(1.0))
    g1, g2 = philox(9, 0), philox(9, 0)
    x = y = 0.0
    for _ in range(60):
        x = mh.mh_step(prob, x, g1)
        y = prob.proposal.sampler(g2, y)
        g2.random()  # the stepper also consumes the acceptance uniform
        assert x == y


def test_acceptance_rate_matches_quadrature():
    prob = mh.MhProblem.exponential_target()
    x = 1.0
    lo, hi = prob.proposal.support(x)
    target, _ = integrate.quad(
        lambda y: prob.acceptance(x, y) * prob.proposal.density(x, y),
        lo, hi, points=[x])
    g = philox(123, 0)
    trials = 100_000
    hits = sum(mh.mh_step(prob, x, g) != x for _ in range(trials))
    rate = hits / trials
    se = math.sqrt(target * (1.0 - target) / trials)
    assert abs(rate - target) <= 3.0 * se


# ----------------------------------------------------- perturbation modes


def test_clipped_uniform_mean_closed_form():
    f = mh._clipped_uniform_mean
    assert f(0.5, 0.0) == 0.5
    assert f(0.5, 0.3) == pytest.approx(0.5)     # no clipping in the interior
    assert f(1.0, 0.4) == pytest.approx(1.0 - 0.4 / 4.0)
    assert f(0.0, 0.4) == pytest.approx(0.4 / 4.0)


@pytest.mark.parametrize("alpha,s", [(0.0, 0.2), (0.03, 0.1), (0.5, 0.7),
                                     (0.9, 0.25), (1.0, 0.6)])
def test_clipped_uniform_mean_against_quadrature(alpha, s):
    oracle, err = integrate.quad(
        lambda u: min(1.0, max(0.0, alpha + u)) / (2.0 * s), -s, s,
        points=[-alpha, 1.0 - alpha])
    assert err < 1e-10
    assert mh._clipped_uniform_mean(alpha, s) == pytest.approx(oracle, abs=1e-12)
    # perturbed acceptance never drifts further than the noise amplitude
    assert abs(mh._clipped_uniform_mean(alpha, s) - alpha) <= s


def test_perturbation_mode_validation():
    with pytest.raises(ConfigError):
        mh.AcceptancePerturbation("bogus")
    with pytest.raises(ValueError):
        mh.AcceptancePerturbation.uniform_noise(-0.1)


def test_realized_uniform_noise_deviation_bounded():
    pert = mh.AcceptancePerturbation.uniform_noise(0.1)
    g = philox(7, 0)
    for _ in range(2000):
        a = g.random()
        thr = pert.realized_threshold(a, 0.0, 1.0, 0.5, g)
        assert 0.0 <= thr <= 1.0
        assert abs(thr - a) <= 0.1 + 1e-15


def test_zero_noise_trajectory_identical_to_exact():
    prob = mh.MhProblem.exponential_target()
    for pert in (mh.AcceptancePerturbation.none(),
                 mh.AcceptancePerturbation.uniform_noise(0.0)):
        g1, g2 = philox(11, 0), philox(11, 0)
        x = xt = 0.7
        for _ in range(300):
            x = mh.mh_step(prob, x, g1)
            xt = mh.approx_mh_step(prob, pert, xt, g2)
            assert x == xt


def test_indicator_set_accepts_everything_inside():
    prob = mh.MhProblem.exponential_target()
    pert = mh.AcceptancePerturbation.indicator_set(lambda x: True)
    g1, g2 = philox(3, 1), philox(3, 1)
    x = y = 2.0
    for _ in range(100):
        x = mh.approx_mh_step(prob, pert, x, g1)
        y = prob.proposal.sampler(g2, y)
        g2.random()
        assert x == y  # even negative proposals are taken
    assert pert.alpha_tilde(0.0, 5.0, 1.0) == 1.0
    outside = mh.AcceptancePerturbation.indicator_set(lambda x: x < 0)
    assert outside.eps(0.6, 5.0, 1.0) == 0.0


def test_randomized_ratio_exact_sampler_matches_exact_chain():
    prob = mh.MhProblem.exponential_target()
    pert = mh.AcceptancePerturbation.randomized_ratio(
        lambda rng, x, y, u: math.exp(prob.log_target_ratio(x, y)))
    g1, g2 = philox(21, 0), philox(21, 0)
    x = xt = 1.0
    for _ in range(200):
        x = mh.mh_step(prob, x, g1)
        xt = mh.approx_mh_step(prob, pert, xt, g2)
        assert x == xt


def test_randomized_ratio_guard_rails():
    prob = mh.MhProblem.exponential_target()
    bad = mh.AcceptancePerturbation.randomized_ratio(lambda rng, x, y, u: -0.5)
    with pytest.raises(ValueError):
        mh.approx_mh_step(prob, bad, 1.0, philox(0, 0))
    no_mean = mh.AcceptancePerturbation.randomized_ratio(lambda rng, x, y, u: 1.0)
    with pytest.raises(ConfigError):
        no_mean.alpha_tilde(0.5, 0.0, 1.0)


# ------------------------------------------------------------ finite space


@pytest.mark.parametrize("seed", range(20))
def test_finite_kernel_detailed_balance_and_stationarity(seed):
    fp = random_finite_mh(seed)
    P = fp.kernel()
    flux = fp.pi[:, None] * P.matrix
    assert np.abs(flux - flux.T).max() <= 1e-12
    st = stationary_distribution(P)
    assert np.abs(st.weights - fp.pi).max() <= 1e-10


def test_finite_acceptance_range_and_inputs():
    fp = random_finite_mh(0)
    alpha = fp.acceptance()
    assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)
    with pytest.raises(ValueError):
        mh.FiniteMhProblem(np.array([0.5, 0.5, 0.0]), np.eye(3) , trivial_metric(range(3)))
    with pytest.raises(ValueError):
        mh.FiniteMhProblem(np.array([0.5, 0.5]), np.array([[1.0, 0.1], [0.0, 1.0]]),
                           trivial_metric(range(2)))


@pytest.mark.parametrize("entry", ["pi", "Q"])
def test_finite_problem_refuses_nan(entry):
    fp = random_finite_mh(0)
    parts = {"pi": fp.pi.copy(), "Q": fp.Q.copy()}
    parts[entry][1:2] = np.nan
    with pytest.raises(ValueError, match=f"^{entry} must be finite$"):
        mh.FiniteMhProblem(parts["pi"], parts["Q"], fp.space)


_CONSTANTS = {
    "gamma": lambda fp, V: mh.gamma_from_acceptance(
        fp, mh.AcceptancePerturbation.uniform_noise(0.1), Vt=V),
    "delta_V": lambda fp, V: mh.delta_v_transfer(
        fp, mh.AcceptancePerturbation.uniform_noise(0.1), V=V),
    "lambda": lambda fp, V: mh.lambda_constant(fp, V=V),
}


@pytest.mark.parametrize("constant", sorted(_CONSTANTS))
def test_finite_constants_refuse_a_weight_off_the_problem(constant):
    fp = random_finite_mh(0)
    far = WeightFunction(trivial_metric([f"x{i}" for i in range(fp.n)]), np.full(fp.n, 2.0))
    with pytest.raises(SpaceMismatchError, match="^V lives on another point set than problem$"):
        _CONSTANTS[constant](fp, far)
    with pytest.raises(ValueError, match=r"^V must have shape \(6,\), not \(1,\)$"):
        _CONSTANTS[constant](fp, np.array([2.0]))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mode", ["uniform", "indicator"])
def test_one_step_wasserstein_below_acceptance_gap_integral(seed, mode):
    fp = random_finite_mh(seed)
    if mode == "uniform":
        pert = mh.AcceptancePerturbation.uniform_noise(0.4)
    else:
        pert = mh.AcceptancePerturbation.indicator_set(lambda i: i % 2 == 0)
    alpha = fp.acceptance()
    alpha_t = fp.perturbed_acceptance(pert)
    E = np.abs(alpha_t - alpha)
    P, Pt = fp.kernel(alpha), fp.kernel(alpha_t)
    for i in range(fp.n):
        w, _ = wasserstein1_exact(DiscreteDistribution(fp.space, P.matrix[i]),
                                  DiscreteDistribution(fp.space, Pt.matrix[i]))
        assert w <= (fp.space.dist[i] * E[i] * fp.Q[i]).sum() + 1e-9


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("metric", ["line", "trivial"])
def test_acceptance_gap_bound_holds_on_finite_chains(seed, metric):
    # exact W(p0 P^n, p0 P~^n) <= gamma kappa C (1-rho^n)/(1-rho), all n <= 30
    fp = random_finite_mh(seed, metric=metric)
    pert = mh.AcceptancePerturbation.uniform_noise(0.25)
    P = fp.kernel()
    Pt = fp.kernel(fp.perturbed_acceptance(pert))
    erg = fit_geometric_constants(P, fp.space, m=8, n_check=16)
    gamma = mh.gamma_from_acceptance(fp, pert)          # Vt = 1
    L = fit_drift_L(Pt, WeightFunction.ones(fp.space), 0.5)
    kap = kappa_const(1.0, L, 0.5)
    p0 = DiscreteDistribution(fp.space, np.full(fp.n, 1.0 / fp.n))
    for n in range(1, 31):
        exact, _ = wasserstein1_exact(evolve(p0, P, n), evolve(p0, Pt, n))
        bound = gamma * kap * erg.C * (1.0 - erg.rho ** n) / (1.0 - erg.rho)
        assert exact <= bound + 1e-9


def test_finite_gamma_zero_for_no_perturbation():
    fp = random_finite_mh(1)
    assert mh.gamma_from_acceptance(fp, mh.AcceptancePerturbation.none()) == 0.0
    assert mh.delta_v_transfer(fp, mh.AcceptancePerturbation.none()) == 0.0


def test_finite_gamma_dominated_by_uniform_eps():
    fp = random_finite_mh(2)
    s = 0.3
    pert = mh.AcceptancePerturbation.uniform_noise(s)
    cap = s * float((fp.space.dist * fp.Q).sum(axis=1).max())
    assert mh.gamma_from_acceptance(fp, pert) <= cap + 1e-12


def test_finite_delta_v_trivial_weight_cap():
    fp = random_finite_mh(3)
    s = 0.2
    pert = mh.AcceptancePerturbation.uniform_noise(s)
    assert mh.delta_v_transfer(fp, pert) <= 2.0 * s + 1e-12


def test_delta_v_transfers_drift_to_perturbed_kernel():
    fp = random_finite_mh(5)
    vals = 1.0 + np.arange(fp.n, dtype=float)
    V = WeightFunction(fp.space, vals)
    P = fp.kernel()
    delta = 0.8
    L = fit_drift_L(P, V, delta)
    assert verify_drift(P, DriftEstimate(V, delta, L)).ok
    pert = mh.AcceptancePerturbation.uniform_noise(0.05)
    dv = mh.delta_v_transfer(fp, pert, V=V)
    Pt = fp.kernel(fp.perturbed_acceptance(pert))
    lhs = Pt.apply_to_function(vals)
    assert np.all(lhs <= (delta + dv) * vals + L + 1e-12)


def test_finite_lambda_trivial_weight_is_two():
    fp = random_finite_mh(6)
    assert mh.lambda_constant(fp) == pytest.approx(2.0, abs=1e-12)
    vals = 1.0 + np.arange(fp.n, dtype=float)
    a = mh.lambda_constant(fp, V=vals)
    b = mh.lambda_constant(fp, V=7.0 * vals)
    assert a == pytest.approx(b, abs=1e-12)


# ----------------------------------------------------- quadrature constants


def test_lambda_toy_value_and_paper_cap():
    prob = mh.MhProblem.exponential_target()
    grid = np.linspace(0.0, 12.0, 25)
    lam = mh.lambda_constant(prob, V=lambda x: math.exp(x), x_grid=grid)
    assert lam == pytest.approx(LAMBDA_TOY, abs=1e-6)
    assert lam <= 1.0 + math.e
    # scaling the weight function changes nothing
    lam2 = mh.lambda_constant(prob, V=lambda x: 42.0 * math.exp(x), x_grid=grid)
    assert lam2 == pytest.approx(lam, abs=1e-9)


def test_lambda_divergence_guard():
    prob = mh.MhProblem(lambda x, y: 0.0, mh.Proposal.uniform_window(1.0))
    blow_up = lambda t: math.exp(t * t)  # ratio e^(y^2 - x^2) ~ e^(2x)
    with pytest.raises(HypothesisViolation):
        mh.lambda_constant(prob, V=blow_up, x_grid=[20.0])


def test_quadrature_needs_density_and_support():
    bare = mh.MhProblem(lambda x, y: 0.0,
                        mh.Proposal(sampler=lambda rng, x: x + rng.standard_normal()))
    with pytest.raises(HypothesisViolation):
        mh.lambda_constant(bare, V=lambda t: 1.0, x_grid=[0.0])
    prob = mh.MhProblem.exponential_target()
    with pytest.raises(ConfigError):
        mh.gamma_from_acceptance(prob, mh.AcceptancePerturbation.none(),
                                 x_grid=[])


def test_line_gamma_zero_and_uniform_cap():
    prob = mh.MhProblem.exponential_target()
    grid = [0.0, 0.5, 1.5, 3.0]
    assert mh.gamma_from_acceptance(
        prob, mh.AcceptancePerturbation.none(), x_grid=grid) == 0.0
    s = 0.2
    pert = mh.AcceptancePerturbation.uniform_noise(s)
    gam = mh.gamma_from_acceptance(prob, pert, x_grid=grid)
    caps = []
    for x in grid:
        lo, hi = prob.proposal.support(x)
        v, _ = integrate.quad(lambda y: abs(y - x) * prob.proposal.density(x, y),
                              lo, hi, points=[x])
        caps.append(v)
    assert 0.0 < gam <= s * max(caps) + 1e-10


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_gamma_integrand_cauchy_schwarz(x):
    prob = mh.MhProblem.exponential_target()
    pert = mh.AcceptancePerturbation.uniform_noise(0.2)
    q = prob.proposal.density
    lo, hi = prob.proposal.support(x)

    def eps(y):
        return pert.eps(prob.acceptance(x, y), x, y)

    lhs, _ = integrate.quad(lambda y: abs(y - x) * eps(y) * q(x, y), lo, hi,
                            points=[x])
    d2, _ = integrate.quad(lambda y: (y - x) ** 2 * q(x, y), lo, hi, points=[x])
    e2, _ = integrate.quad(lambda y: eps(y) ** 2 * q(x, y), lo, hi, points=[x])
    assert lhs <= math.sqrt(d2) * math.sqrt(e2) + 1e-10


def test_line_delta_v_with_unit_weight_capped():
    prob = mh.MhProblem.exponential_target()
    s = 0.15
    pert = mh.AcceptancePerturbation.uniform_noise(s)
    dv = mh.delta_v_transfer(prob, pert, x_grid=[0.0, 1.0, 2.0])
    assert 0.0 <= dv <= 2.0 * s + 1e-10


# ------------------------------------------------------------------ bounds


def test_metro_geom_bound_frozen_example():
    b = mh.metro_geom_bound(1.0, 0.5, math.inf, 0.05, 2.1752, 0.7, 1.0, 1.0)
    assert b == pytest.approx(METRO_GEOM_FROZEN, abs=1e-12)


def test_metro_geom_bound_edges():
    assert mh.metro_geom_bound(1.0, 0.5, 10, 0.0, 2.0, 0.7, 1.0, 1.0) == 0.0
    with pytest.raises(HypothesisViolation):
        mh.metro_geom_bound(1.0, 0.5, 10, 0.25, 2.0, 0.5, 1.0, 1.0)  # boundary
    with pytest.raises(HypothesisViolation):
        mh.metro_geom_bound(1.0, 0.5, 10, 0.3, 2.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        mh.metro_geom_bound(0.0, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 1.0)
    with pytest.raises(ValueError):
        mh.metro_geom_bound(1.0, 1.0, 10, 0.05, 2.0, 0.7, 1.0, 1.0)
    with pytest.raises(ValueError):
        mh.metro_geom_bound(1.0, 0.5, 10, 0.05, 0.9, 0.7, 1.0, 1.0)


def test_metro_geom_bound_monotone_in_s_and_n():
    vals = [mh.metro_geom_bound(1.0, 0.5, 8, s, 2.0, 0.7, 1.0, 1.0)
            for s in (0.01, 0.05, 0.1)]
    assert vals[0] < vals[1] < vals[2]
    by_n = [mh.metro_geom_bound(1.0, 0.5, n, 0.05, 2.0, 0.7, 1.0, 1.0)
            for n in (1, 3, 9, math.inf)]
    assert by_n == sorted(by_n)


def _parent_metro_geom_bound(C, rho, n, s, lam, delta, L, p0_V):
    """metro_geom_bound as it was written out before it called geom2_bound."""
    if not C > 0:
        raise ValueError("C must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if not L > 0:
        raise ValueError("L must be positive")
    if not lam >= 1.0:
        raise ValueError("lam must be at least 1")
    if not p0_V >= 1.0 - 1e-12:
        raise ValueError("p0_V must be at least 1")
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 0.0:
        return 0.0
    if s >= (1.0 - delta) / lam:
        raise HypothesisViolation("need s < (1 - delta)/lam")
    kap = max(p0_V, L / (1.0 - delta - lam * s))
    return lam * s * kap * C * (1.0 - rho ** n) / (1.0 - rho)


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any class: the class is the outcome
        return type(exc)


def test_metro_geom_bound_matches_the_parent_formula():
    # the two orders of the same product differ by a few roundings:
    # at most 4 ulp of 1.0, relative
    rng = np.random.default_rng(2021)
    for _ in range(2000):
        C, lam, p0_V = 1.0 + 9.0 * rng.random(3)
        rho, delta = rng.random(2)
        L = 10.0 * rng.random() + 1e-6
        s = rng.random() * (1.0 - delta) / lam
        for n in (0, 1, 2, 7, int(rng.integers(8, 200)), math.inf):
            args = (C, rho, n, s, lam, delta, L, p0_V)
            new, old = mh.metro_geom_bound(*args), _parent_metro_geom_bound(*args)
            assert abs(new - old) <= 4.0 * EPS * old, args


@pytest.mark.parametrize("lam,delta", [(2.0, 0.5), (3.4, 0.9), (1.0, 0.0),
                                       (2.1752, 0.7), (7.3, 0.31), (1.5, 0.999)])
def test_metro_geom_bound_raises_as_the_parent_at_s_equal_to_the_edge(lam, delta):
    edge = (1.0 - delta) / lam
    s = float(np.nextafter(edge, 1.0))
    for _ in range(60):
        args = (1.5, 0.9, 12, s, lam, delta, 0.85, 1.0)
        new, old = (_outcome(f, *args)
                    for f in (mh.metro_geom_bound, _parent_metro_geom_bound))
        if s >= edge:
            assert new is HypothesisViolation and old is HypothesisViolation, s
        elif lam * s + delta >= 1.0:
            # just below the edge geom2's gamma + delta < 1 fails in floating
            # point; the parent divided by the rounding residue of 1 - delta -
            # lam s there, and returned a bound near 1e15 or more, or raised
            assert new is HypothesisViolation, s
            assert abs(1.0 - delta - lam * s) <= EPS, s
            assert old is ZeroDivisionError or old > 1e12, s
        else:
            assert abs(new - old) <= 4.0 * EPS * old, s
        s = float(np.nextafter(s, 0.0))


@pytest.mark.parametrize("C", [0.1, 0.5, 0.9999999999999999, -1.0, math.nan])
def test_metro_geom_bound_needs_C_at_least_one(C):
    # tau(P^0) = 1, so no certificate tau(P^n) <= C rho^n has C < 1
    with pytest.raises(ValueError, match="C must be at least 1"):
        mh.metro_geom_bound(C, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 1.0)
    with pytest.raises(ValueError, match="C must be at least 1"):
        mh.MetroGeomConstants(C=C, rho=0.5, delta=0.7, L=1.0, lam=2.0, s=0.05)
    assert mh.metro_geom_bound(1.0, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 1.0) > 0.0


def test_metro_geom_report_rows_are_the_scalar_bound():
    prob = mh.MhProblem.gaussian_target(half_width=1.5)
    for s in (0.0, 0.01, 0.02):
        cons = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=0.9, L=0.85,
                                     lam=3.4, s=s, p0_V=1.3)
        rep = mh.mh_metro_geom_report(prob, mh.AcceptancePerturbation.uniform_noise(s),
                                      cons, n=30, samples=2, seed=1)
        scalar = [mh.metro_geom_bound(2.0, 0.95, int(n), s, 3.4, 0.9, 0.85, 1.3)
                  for n in rep.ns]
        assert rep.bounds.tolist() == scalar


def test_mh_run_files_are_pinned(tmp_path):
    # sha256 of each file of one `wperturb run`; the bound and slack columns
    # moved by at most 2 ulp when metro_geom_bound became a geom2_bound call,
    # and 27 of their 30 rows by at most 7 ulp when rho^n came to be taken
    # with ** instead of repeated squaring
    pinned = {
        "mh_metro_geom.csv": "f961c5dfd619500e2570ddbb501a61b2ef751029acec659b125649b8737918f4",
        "summary.txt": "86a4e277b124cea2629f497305e5300a88923bc6c7169990eb1615b15b9f69ba",
    }
    cfg = tmp_path / "mh.ini"
    cfg.write_text("[experiment]\nkind = mh\nseed = 20\n"
                   "[mh]\ns = 0.02\nC = 2.0\nrho = 0.95\ndelta = 0.9\n"
                   "L = 0.85\nlam = 3.4\nreplicas = 500\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(pinned)
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_independent_bound_values_and_monotonicity():
    assert mh.independent_mh_perturbation_bound(2.0, 0.5, 0.0, 3.0) == 0.0
    assert mh.independent_mh_perturbation_bound(2.0, 0.5, 0.25, 1.5) == pytest.approx(1.5)
    lo = mh.independent_mh_perturbation_bound(1.0, 0.5, 0.1, 1.0)
    assert mh.independent_mh_perturbation_bound(1.0, 0.5, 0.2, 1.0) > lo
    assert mh.independent_mh_perturbation_bound(1.0, 0.5, 0.1, 2.0) > lo
    with pytest.raises(ValueError):
        mh.independent_mh_perturbation_bound(1.0, 0.5, 1.2, 1.0)
    with pytest.raises(ValueError):
        mh.independent_mh_perturbation_bound(1.0, 0.5, 0.5, math.inf)


def test_independent_bound_requires_C_at_least_one():
    # tau(P^0) = 1, so no ergodicity constant below 1 can hold at n = 0
    with pytest.raises(ValueError, match="C must be at least 1"):
        mh.independent_mh_perturbation_bound(0.5, 0.5, 0.25, 1.5)
    assert mh.independent_mh_perturbation_bound(1.0, 0.5, 0.25, 1.5) == 0.75


@pytest.mark.parametrize("seed", range(5))
def test_independent_sampler_bound_on_finite_chain(seed):
    # proposal rows all equal mu; perturbed chain accepts blindly on Gt.
    # pi stays near mu so acceptance is high and the sampler contracts
    # under the line metric (sticky states would break the tau fit)
    rng = np.random.default_rng(400 + seed)
    n = 7
    mu = rng.random(n) + 0.3
    mu /= mu.sum()
    pi = mu * (1.0 + 0.25 * rng.uniform(-1.0, 1.0, n))
    pi /= pi.sum()
    pts = np.cumsum(rng.random(n) + 0.1)
    space = line_metric(pts)
    fp = mh.FiniteMhProblem(pi, np.tile(mu, (n, 1)), space)
    Gt = rng.random(n) < 0.4
    pert = mh.AcceptancePerturbation.indicator_set(lambda i: bool(Gt[i]))
    P = fp.kernel()
    Pt = fp.kernel(fp.perturbed_acceptance(pert))
    erg = fit_geometric_constants(P, space, m=8, n_check=16)
    mu_Gt = float(mu[Gt].sum())
    D_Gt = float((space.dist * mu[None, :]).sum(axis=1)[Gt].max()) if Gt.any() else 0.0
    cap = mh.independent_mh_perturbation_bound(erg.C, erg.rho, mu_Gt, D_Gt)
    p0 = DiscreteDistribution(space, mu)
    for n_step in range(1, 31):
        exact, _ = wasserstein1_exact(evolve(p0, P, n_step), evolve(p0, Pt, n_step))
        assert exact <= cap + 1e-9


# ------------------------------------------------------------------ report


def _gaussian_setup():
    prob = mh.MhProblem.gaussian_target(half_width=1.5)
    V = lambda x: math.exp(abs(x))
    grid = np.linspace(-6.0, 6.0, 25)
    lam = mh.lambda_constant(prob, V=V, x_grid=grid)
    # grid-fit drift of the exact chain under V, generous tail margin
    delta = 0.9
    worst = 0.0
    for x in grid:
        x = float(x)
        lo, hi = prob.proposal.support(x)
        q = prob.proposal.density
        acc, _ = integrate.quad(lambda y: prob.acceptance(x, y) * q(x, y),
                                lo, hi, points=[x])
        mov, _ = integrate.quad(lambda y: V(y) * prob.acceptance(x, y) * q(x, y),
                                lo, hi, points=[0.0, x])
        worst = max(worst, mov + (1.0 - acc) * V(x) - delta * V(x))
    return prob, lam, delta, worst


def test_metro_geom_report_soundness_and_determinism():
    prob, lam, delta, L = _gaussian_setup()
    pert = mh.AcceptancePerturbation.uniform_noise(0.02)
    cons = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=delta, L=L, lam=lam,
                                 s=0.02, p0_V=1.0, x0=0.0)
    rep = mh.mh_metro_geom_report(prob, pert, cons, n=25, samples=600, seed=0)
    assert rep.theorem == "metro_geom"
    assert rep.verified()
    assert rep.constants["replicas"] == 600.0
    assert "distance_se" in rep.to_csv().splitlines()[0]
    rep2 = mh.mh_metro_geom_report(prob, pert, cons, n=25, samples=600, seed=0)
    assert rep.distances.tobytes() == rep2.distances.tobytes()
    other = mh.mh_metro_geom_report(prob, pert, cons, n=25, samples=600, seed=1)
    assert rep.distances.tobytes() != other.distances.tobytes()


def test_metro_geom_report_unperturbed_is_exactly_zero():
    prob, lam, delta, L = _gaussian_setup()
    cons = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=delta, L=L, lam=lam,
                                 s=0.01, p0_V=1.0, x0=0.0)
    rep = mh.mh_metro_geom_report(prob, mh.AcceptancePerturbation.none(), cons,
                                  n=6, samples=80, seed=5)
    np.testing.assert_array_equal(rep.distances, 0.0)


def test_metro_geom_report_grows_with_s():
    prob = mh.MhProblem.gaussian_target(half_width=1.5)
    V = lambda x: math.exp(abs(x) / 2.0)
    grid = np.linspace(-6.0, 6.0, 25)
    lam = mh.lambda_constant(prob, V=V, x_grid=grid)
    small = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=0.7, L=2.0, lam=lam,
                                  s=0.02, p0_V=1.0, x0=0.0)
    big = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=0.7, L=2.0, lam=lam,
                                s=0.10, p0_V=1.0, x0=0.0)
    pert_small = mh.AcceptancePerturbation.uniform_noise(0.02)
    pert_big = mh.AcceptancePerturbation.uniform_noise(0.10)
    rep_small = mh.mh_metro_geom_report(prob, pert_small, small, n=30,
                                        samples=2500, seed=2)
    rep_big = mh.mh_metro_geom_report(prob, pert_big, big, n=30,
                                      samples=2500, seed=2)
    assert rep_big.bounds[-1] > rep_small.bounds[-1]
    assert rep_big.distances[-5:].mean() > rep_small.distances[-5:].mean()


def test_report_and_constants_validation():
    prob = mh.MhProblem.exponential_target()
    pert = mh.AcceptancePerturbation.none()
    with pytest.raises(HypothesisViolation):
        mh.MetroGeomConstants(C=1.0, rho=0.5, delta=0.9, L=1.0, lam=3.0, s=0.2)
    cons = mh.MetroGeomConstants(C=1.0, rho=0.5, delta=0.5, L=1.0, lam=2.0, s=0.1)
    with pytest.raises(ValueError):
        mh.mh_metro_geom_report(prob, pert, cons, n=0, samples=10, seed=0)
    with pytest.raises(ValueError):
        mh.mh_metro_geom_report(prob, pert, cons, n=3, samples=1, seed=0)


# ------------------------------------------------------ vectorized report path


@pytest.mark.parametrize("mode", ["none", "uniform", "indicator", "ratio"])
def test_array_threshold_matches_scalar_loop(mode):
    # one call on arrays equals the scalar call entry by entry, reading the
    # same generator in the same order
    pert = {
        "none": mh.AcceptancePerturbation.none(),
        "uniform": mh.AcceptancePerturbation.uniform_noise(0.3),
        "indicator": mh.AcceptancePerturbation.indicator_set(lambda x: x > 0.5),
        "ratio": mh.AcceptancePerturbation.randomized_ratio(
            lambda rng, x, y, u: 2.0 * rng.random(np.shape(x)) * np.exp(x - y)),
    }[mode]
    g = philox(31, 2)
    alpha, x, y, u = g.random((4, 500))
    got = pert.realized_threshold(alpha, x, y, u, philox(32, 0))
    ref = philox(32, 0)
    want = [pert.realized_threshold(*args, ref) for args in zip(alpha, x, y, u)]
    np.testing.assert_array_equal(got, want)
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_array_acceptance_matches_scalar():
    g = philox(33, 0)
    x, y = 6.0 * g.random((2, 400)) - 3.0
    for prob in (mh.MhProblem.exponential_target(), mh.MhProblem.gaussian_target()):
        want = [prob.acceptance(float(a), float(b)) for a, b in zip(x, y)]
        np.testing.assert_array_equal(prob.acceptance(x, y), want)
    assert np.all(mh.MhProblem.exponential_target().acceptance(x, y)[y < 0] == 0.0)


def _moment_gap_z(a, b):
    """|z| of the mean gap and of the variance gap of two iid samples."""
    def var_se2(v):
        c = v - v.mean()
        return ((c ** 4).mean() - c.var() ** 2) / v.size
    z_mean = abs(a.mean() - b.mean()) / math.sqrt(
        a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    z_var = abs(a.var(ddof=1) - b.var(ddof=1)) / math.sqrt(var_se2(a) + var_se2(b))
    return z_mean, z_var


def test_simulate_pair_draws_per_replica():
    # a sampler that drew one value and broadcast it to every replica
    # would leave the step-1 clouds with one or two distinct points
    prob = mh.MhProblem.gaussian_target(half_width=1.5)
    pert = mh.AcceptancePerturbation.uniform_noise(0.05)
    replicas = 4000
    xs, xts = mh._simulate_pair(prob, pert, 0.0, 1, replicas, seed=17)
    steps = (lambda r: mh.mh_step(prob, 0.0, philox(90, r)),
             lambda r: mh.approx_mh_step(prob, pert, 0.0, philox(91, r)))
    for cloud, step in zip((xs[0], xts[0]), steps):
        assert np.unique(cloud).size >= replicas / 2
        ref = np.array([step(r) for r in range(replicas)])
        z_mean, z_var = _moment_gap_z(cloud, ref)
        assert z_mean <= 4.0 and z_var <= 4.0


def test_metro_geom_report_zero_noise_is_exactly_zero():
    prob, lam, delta, L = _gaussian_setup()
    cons = mh.MetroGeomConstants(C=2.0, rho=0.95, delta=delta, L=L, lam=lam,
                                 s=0.01, p0_V=1.0, x0=0.0)
    rep = mh.mh_metro_geom_report(prob, mh.AcceptancePerturbation.uniform_noise(0.0),
                                  cons, n=12, samples=300, seed=6)
    np.testing.assert_array_equal(rep.distances, 0.0)


def test_simulate_pair_exponential_states_stay_on_half_line():
    prob = mh.MhProblem.exponential_target()
    exact_ratio = mh.AcceptancePerturbation.randomized_ratio(
        lambda rng, x, y, u: np.exp(prob.log_target_ratio(x, y)))
    # blind acceptance from x > 3 only ever proposes y > 2
    far_set = mh.AcceptancePerturbation.indicator_set(lambda x: x > 3.0)
    for pert in (mh.AcceptancePerturbation.none(), exact_ratio, far_set):
        xs, xts = mh._simulate_pair(prob, pert, 0.5, 40, 500, seed=4)
        assert np.all(xs >= 0.0) and np.all(xts >= 0.0)
    xs, xts = mh._simulate_pair(prob, exact_ratio, 0.5, 40, 500, seed=4)
    np.testing.assert_array_equal(xs, xts)
    # noisy thresholds may take a negative proposal; the exact chain never does
    xs, _ = mh._simulate_pair(prob, mh.AcceptancePerturbation.uniform_noise(0.1),
                              0.5, 40, 500, seed=4)
    assert np.all(xs >= 0.0)


def test_metro_geom_report_guard_rails_on_arrays():
    prob = mh.MhProblem.exponential_target()
    cons = mh.MetroGeomConstants(C=1.0, rho=0.5, delta=0.5, L=1.0, lam=2.0, s=0.1)
    some_negative = mh.AcceptancePerturbation.randomized_ratio(
        lambda rng, x, y, u: np.where(u < 0.5, -0.5, 1.0))
    with pytest.raises(ValueError, match="negative"):
        mh.mh_metro_geom_report(prob, some_negative, cons, n=3, samples=50, seed=0)
    not_a_number = mh.AcceptancePerturbation.randomized_ratio(
        lambda rng, x, y, u: np.where(u < 0.5, np.nan, 1.0))
    with pytest.raises(RuntimeError, match="outside"):
        mh.mh_metro_geom_report(prob, not_a_number, cons, n=3, samples=50, seed=0)


# ------------------------------------------------------------- refusals


@pytest.mark.parametrize("constant", sorted(_CONSTANTS))
@pytest.mark.parametrize("zero_at", [2, 5])
def test_finite_constants_refuse_a_weight_array_that_is_not_positive(constant, zero_at):
    # the constants are invariant to scaling V, so the rule is V > 0; a zero
    # weight used to give gamma = inf and delta_V = nan
    fp = random_finite_mh(0)
    V = np.ones(fp.n)
    V[zero_at] = 0.0
    for weights in (V, V - 0.5):
        with pytest.raises(ValueError, match="^V must be positive and finite$"):
            _CONSTANTS[constant](fp, weights)
    assert _CONSTANTS[constant](fp, 0.5 * (V + 1.0)) >= 0.0


def test_quadrature_refuses_an_error_estimate_above_its_cap(monkeypatch):
    # the cap is max(10 * _QUAD_TOL, _QUAD_ERR_CAP) relative to the value,
    # and no integrand of the package has been seen to come near it, so
    # both are set to 0: any nonzero error estimate then fails
    monkeypatch.setattr(mh, "_QUAD_TOL", 0.0)
    monkeypatch.setattr(mh, "_QUAD_ERR_CAP", 0.0)
    with pytest.raises(RuntimeError, match=r"^quadrature error estimate \d\.\d{3}e-\d\d "
                                           r"too large on \[-0\.5, 1\.5\]$"):
        mh.lambda_constant(mh.MhProblem.exponential_target(), x_grid=[0.5])


_PROB = mh.MhProblem.exponential_target()
_CONS = mh.MetroGeomConstants(C=1.0, rho=0.5, delta=0.5, L=1.0, lam=2.0, s=0.1)
_FP = random_finite_mh(0, n=3)
_NOISE = mh.AcceptancePerturbation.uniform_noise(0.1)
_C = ValueError, "C must be at least 1 and finite, since tau(P^0) = 1"
_NO_DENSITY = mh.MhProblem(lambda x, y: 0.0,
                           mh.Proposal(sampler=lambda rng, x: x + rng.standard_normal()))
_HALF_LINE = mh.MhProblem(lambda x, y: 0.0, mh.Proposal(
    sampler=lambda rng, x: x + rng.exponential(), density=lambda x, y: math.exp(x - y),
    support=lambda x: (x, math.inf)))


@pytest.mark.parametrize("call, refusal", [
    (lambda: mh.Proposal.uniform_window(0.0),
     (ValueError, "half_width must be positive and finite")),
    (lambda: mh.Proposal.uniform_window(math.inf),
     (ValueError, "half_width must be positive and finite")),
    (lambda: mh.MhProblem.gaussian_target(sd=0.0), (ValueError, "sd must be positive and finite")),
    (lambda: mh.FiniteMhProblem([0.5, 0.5, 0.0], np.eye(3), _FP.space),
     (ValueError, "pi must be a strictly positive pmf")),
    (lambda: mh.FiniteMhProblem(_FP.pi, 2.0 * np.eye(3), _FP.space),
     (ValueError, "Q rows must be probability vectors")),
    (lambda: mh.finite_mh_kernel(_FP.space, _FP.Q, np.full((3, 3), 1.5)),
     (ValueError, "acceptance probabilities must lie in [0, 1]")),
    (lambda: mh.AcceptancePerturbation("coin-flip"),
     (ConfigError, "unknown perturbation mode 'coin-flip'")),
    (lambda: mh.AcceptancePerturbation.uniform_noise(-0.1),
     (ValueError, "s must be nonnegative and finite")),
    (lambda: mh.AcceptancePerturbation.uniform_noise(math.nan),
     (ValueError, "s must be nonnegative and finite")),
    (lambda: mh.AcceptancePerturbation.randomized_ratio(lambda *a: 1.0).alpha_tilde(0.5, 0, 1),
     (ConfigError, "randomized-ratio constants need an alpha_tilde function")),
    (lambda: mh.lambda_constant(_NO_DENSITY, x_grid=[0.0]),
     (HypothesisViolation, "quadrature constants need a proposal density with compact support")),
    (lambda: mh.lambda_constant(_HALF_LINE, x_grid=[0.0]),
     (HypothesisViolation, "proposal support must be a bounded interval")),
    (lambda: mh.gamma_from_acceptance(_PROB, _NOISE, x_grid=[]),
     (ConfigError, "line gamma needs a non-empty x_grid")),
    (lambda: mh.lambda_constant(mh.MhProblem(lambda x, y: 0.0, mh.Proposal.uniform_window(1.0)),
                                V=lambda t: math.exp(t * t), x_grid=[20.0]),
     (HypothesisViolation, "lambda integral appears divergent")),
    (lambda: mh.metro_geom_bound(0.5, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 1.0), _C),
    (lambda: mh.metro_geom_bound(math.inf, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 1.0), _C),
    (lambda: mh.metro_geom_bound(1.0, 0.5, 10, 0.05, 0.5, 0.7, 1.0, 1.0),
     (ValueError, "lam must be at least 1")),
    (lambda: mh.metro_geom_bound(1.0, 0.5, 10, 0.05, 2.0, 0.7, 0.0, 1.0),
     (ValueError, "L must be positive and finite")),
    (lambda: mh.metro_geom_bound(1.0, 0.5, 10, 0.05, 2.0, 0.7, 1.0, 0.5),
     (ValueError, "p0_V must be at least 1 and finite, since V >= 1")),
    (lambda: mh.metro_geom_bound(1.0, 0.5, 10, 0.2, 2.0, 0.7, 1.0, 1.0),
     (HypothesisViolation, "need s < (1 - delta)/lam = 0.15, got 0.2")),
    (lambda: mh.independent_mh_perturbation_bound(1.0 - 1e-13, 0.5, 0.25, 1.5), _C),
    (lambda: mh.independent_mh_perturbation_bound(math.inf, 0.5, 0.25, 1.5), _C),
    (lambda: mh.independent_mh_perturbation_bound(1.0, 0.5, 1.2, 1.5),
     (ValueError, "mu_Gt must lie in [0, 1]")),
    (lambda: mh.independent_mh_perturbation_bound(1.0, 0.5, 0.25, math.nan),
     (ValueError, "D_Gt must be nonnegative and finite")),
    (lambda: mh.mh_metro_geom_report(_PROB, _NOISE, _CONS, n=3, samples=1, seed=0),
     (ValueError, "samples must be an integer >= 2")),
], ids=["window-zero", "window-inf", "gaussian-sd", "pi", "Q", "acceptance", "mode", "s",
        "s-nan", "alpha_tilde", "no-density", "unbounded-support", "empty-grid",
        "lambda-divergent", "metro-C", "metro-C-inf", "metro-lam", "metro-L", "metro-p0_V",
        "metro-s", "independent-C-below-1", "independent-C-inf", "independent-mu_Gt",
        "independent-D_Gt", "report-samples"])
def test_bad_operands_get_a_typed_refusal(call, refusal):
    error, message = refusal
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
