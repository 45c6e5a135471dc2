"""Acceptance gate: ten primary criteria, one test per criterion.

Each test enforces its stated tolerances and runtime cap and prints one
explicit pass line (visible with -s; pytest -v shows the pass/fail line per
criterion either way).  Random sweeps are seeded, so the gate is
deterministic end to end.
"""
import math
import time

import numpy as np
import pytest

from wperturb._rng import philox
from wperturb import mh as mhmod
from wperturb.ar1 import (
    Ar1Params,
    Innovation,
    _coupled_clouds,
    ar1_gaussian_stationary_w1,
    ar1_kappa,
    ar1_nstep_bound,
    ar1_simulate_coupled,
    ar1_stationary_bound,
    ar1_stationary_lower_bound,
    gaussian_abs_mean,
)
from wperturb.bounds import geom3_bound, geom4_bound, verify_on_finite
from wperturb.cli import _metric_slot, generate_random_instance
from wperturb.errors import HypothesisViolation
from wperturb.kernels import (
    FiniteKernel,
    compose,
    stationary_distribution,
    tau,
)
from wperturb.langevin import (
    GibbsModel,
    LangevinParams,
    grad_log_posterior,
    langevin_drift_check,
    langevin_final_bound,
    langevin_tv_perturbation_bound,
    noisy_grad,
)
from wperturb.mh import metro_geom_bound
from wperturb.otcore import (
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    dv_metric,
    empirical_w1_1d,
    line_metric,
    point_mass,
    trivial_metric,
    vnorm_distance,
    wasserstein1_exact,
)

SIX_VARIANTS = ("thm31", "v1", "stationary", "geom1", "geom2", "geom3")


def _random_space(rng, n):
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    while np.min(dist[~np.eye(n, dtype=bool)]) <= 1e-6:
        pts = rng.normal(size=(n, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    return FiniteMetricSpace(range(n), dist)


def _mixed_kernel(rng, sp, mix=0.3):
    n = sp.size
    return FiniteKernel(sp, (1.0 - mix) * rng.dirichlet(np.ones(n), size=n)
                        + mix * rng.dirichlet(np.ones(n))[None, :])


def _random_finite_mh(seed, n=6):
    rng = np.random.default_rng(seed)
    pi = rng.random(n) + 0.1
    pi /= pi.sum()
    Q = rng.random((n, n)) + 0.05
    Q /= Q.sum(axis=1, keepdims=True)
    pts = np.cumsum(rng.random(n) + 0.1)
    return mhmod.FiniteMhProblem(pi, Q, line_metric(pts))


def test_criterion_01_exact_theorem_soundness():
    # >= 1000 instances (<= 12 states), six bound variants, exact distances,
    # slack >= -1e-9 at every n <= 30, runtime <= 5 min
    t0 = time.monotonic()
    instances = 1000
    for i in range(instances):
        size = 4 + (i % 9)
        mix = (0.3, 0.5, 0.8)[i % 3]
        P, Pt, sp, V, p0, pt0 = generate_random_instance(10_000 + i, size, mix)
        for which in SIX_VARIANTS:
            rep = verify_on_finite(P, Pt, _metric_slot(which, sp, V), V,
                                   p0, pt0, n_max=30, which=which)
            assert rep.min_slack >= -1e-9, (i, which, rep.min_slack)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime cap exceeded: {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: {instances} instances x {len(SIX_VARIANTS)} "
          f"variants, min slack >= -1e-9 up to n=30 ({elapsed:.1f}s)")


def test_criterion_02_ergodicity_coefficient_properties():
    # submultiplicativity, contractivity, and the stationary ratio, each
    # within 1e-9 on >= 1000 random instances
    checked = 0
    for s in range(1000):
        rng = philox(20_000 + s)
        sp = _random_space(rng, 3 + (s % 6))
        P, Q = _mixed_kernel(rng, sp), _mixed_kernel(rng, sp)
        tP, tQ = tau(P, sp), tau(Q, sp)
        assert tau(compose(P, Q), sp) <= tP * tQ + 1e-9

        n = sp.size
        p = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        q = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        before = wasserstein1_exact(p, q)[0]
        after = wasserstein1_exact(P.push(p), P.push(q))[0]
        assert after <= tP * before + 1e-9

        pi = stationary_distribution(P)
        for x in range(n):
            num = wasserstein1_exact(P.push(point_mass(sp, x)), pi)[0]
            den = wasserstein1_exact(point_mass(sp, x), pi)[0]
            assert num <= (tP + 1e-9) * den
        checked += 1
    print(f"CRITERION 2 PASS: tau properties on {checked} instances at 1e-9")


def test_criterion_03_vnorm_duality():
    # ||mu - nu||_V equals Wasserstein under d_V within 1e-9, >= 1000 instances
    for s in range(1000):
        rng = philox(30_000 + s)
        n = 3 + (s % 10)
        sp = _random_space(rng, n)
        V = WeightFunction(sp, 1.0 + rng.uniform(0.0, 4.0, size=n))
        mu = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        nu = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        dv = dv_metric(V)
        dv = FiniteMetricSpace(dv.points, dv.dist)  # untagged: a transport solve
        w = wasserstein1_exact(DiscreteDistribution(dv, mu.weights),
                               DiscreteDistribution(dv, nu.weights))[0]
        assert abs(w - vnorm_distance(mu, nu, V)) <= 1e-9
    print("CRITERION 3 PASS: d_V duality on 1000 instances at 1e-9")


def test_criterion_04_ar1_sandwich():
    # the worked case plus a >= 500-case randomized sweep, runtime <= 1 min
    t0 = time.monotonic()
    exact = ar1_gaussian_stationary_w1(0.5, 0.4, 1.0, 1.0)
    lower = ar1_stationary_lower_bound(0.5, 0.4, 1.0)
    upper = ar1_stationary_bound(0.5, 0.4, gaussian_abs_mean(1.0, 1.0))
    assert lower == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert upper == pytest.approx(0.58887698039179087, abs=1e-12)
    assert exact == pytest.approx(0.33333333515948049, abs=1e-12)
    assert lower - 1e-9 <= exact <= upper + 1e-9

    cases = 0
    for s in range(500):
        rng = np.random.default_rng(40_000 + s)
        a, at = rng.uniform(-0.9, 0.9, size=2)
        meanZ = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        sdZ = rng.uniform(0.3, 2.0)
        lo = ar1_stationary_lower_bound(a, at, meanZ)
        mid = ar1_gaussian_stationary_w1(a, at, meanZ, sdZ)
        hi = ar1_stationary_bound(a, at, gaussian_abs_mean(meanZ, sdZ))
        assert lo <= mid + 1e-9 and mid <= hi + 1e-9
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime cap exceeded: {elapsed:.1f}s"
    print(f"CRITERION 4 PASS: sandwich exact + {cases} random cases "
          f"({elapsed:.1f}s)")


def test_criterion_05_ar1_simulation_vs_bound():
    # 1e5 replicas, seed 42, every n <= 50 under the bound + 3 SE; empirical
    # stationary W1 within 3 SE of the closed form; runtime <= 2 min
    t0 = time.monotonic()
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    sim = ar1_simulate_coupled(params, 0.4, 0.0, n=50, replicas=100_000, seed=42)
    k = ar1_kappa(0.4, params.innovation.abs_mean, 0.0)
    for i, n in enumerate(sim.ns):
        bound = ar1_nstep_bound(0.5, 0.4, 0.0, int(n), k)
        assert sim.coupled_dev[i] <= bound + 3.0 * sim.coupled_dev_se[i]
    exact = ar1_gaussian_stationary_w1(0.5, 0.4, 1.0, 1.0)
    *_, (x, xt) = _coupled_clouds(params, 0.4, 0.0, 50, 100_000, 42)
    emp = empirical_w1_1d(np.sort(x), np.sort(xt))
    assert abs(emp - exact) <= 3.0 * sim.coupled_dev_se[-1]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime cap exceeded: {elapsed:.1f}s"
    print(f"CRITERION 5 PASS: 100000 replicas, n <= 50, all under bound + 3SE "
          f"({elapsed:.1f}s)")


def test_criterion_06_mh_lemma_soundness():
    # one-step Wasserstein below the acceptance-gap integral on >= 500
    # instances, every start state; detailed balance exact to 1e-12
    for s in range(500):
        fp = _random_finite_mh(50_000 + s)
        if s % 2 == 0:
            pert = mhmod.AcceptancePerturbation.uniform_noise(0.05 + 0.4 * (s % 5) / 5.0)
        else:
            pert = mhmod.AcceptancePerturbation.indicator_set(
                lambda i, r=s % 3: i % 3 == r)
        alpha = fp.acceptance()
        alpha_t = fp.perturbed_acceptance(pert)
        E = np.abs(alpha_t - alpha)
        P, Pt = fp.kernel(alpha), fp.kernel(alpha_t)
        flux = fp.pi[:, None] * P.matrix
        assert np.abs(flux - flux.T).max() <= 1e-12
        for x in range(fp.n):
            w = wasserstein1_exact(
                DiscreteDistribution(fp.space, P.matrix[x]),
                DiscreteDistribution(fp.space, Pt.matrix[x]))[0]
            assert w <= (fp.space.dist[x] * E[x] * fp.Q[x]).sum() + 1e-9
    print("CRITERION 6 PASS: one-step lemma + detailed balance on 500 instances")


def test_criterion_07_lambda_toy_value():
    prob = mhmod.MhProblem.exponential_target()
    grid = np.linspace(0.0, 12.0, 25)
    lam = mhmod.lambda_constant(prob, V=lambda x: math.exp(x), x_grid=grid)
    target = 1.0 + (math.e - math.exp(-1.0)) / 2.0
    assert lam == pytest.approx(target, abs=1e-6)
    assert lam <= 1.0 + math.e
    print(f"CRITERION 7 PASS: lambda = {lam:.6f} vs 1 + (e - 1/e)/2, cap 1 + e")


def test_criterion_08_langevin_gradient():
    # exact gradient vs centered finite differences at 1e-6 on a theta grid
    # for M <= 10 models; noisy gradient unbiased within 3 SE for N in {1,10,100}
    h = 1e-5
    for model in (GibbsModel.ising_sum(10, (1, -1) * 5),
                  GibbsModel.path_agreement(10, (1, 1, -1, 1, -1, -1, 1, 1, -1, 1))):
        for th in np.linspace(-3.0, 3.0, 13):
            def lp(t):
                return (t * model.s_obs - model.log_partition(t)
                        - t * t / (2.0 * model.sigma_p ** 2))
            fd = (lp(th + h) - lp(th - h)) / (2.0 * h)
            assert grad_log_posterior(model, th) == pytest.approx(fd, abs=1e-6)

    model = GibbsModel.ising_sum(3, (1, 1, -1))
    exact = grad_log_posterior(model, 0.7)
    for N in (1, 10, 100):
        g = philox(80_000, N)
        vals = np.array([noisy_grad(model, 0.7, N, g) for _ in range(2000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3.0 * se + 1e-12
    print("CRITERION 8 PASS: finite-difference gradient at 1e-6, "
          "unbiased noisy gradient at 3 SE")


def test_criterion_09_langevin_drift():
    # sigma=0.5, sigma_p=1, ||s||=1 gives (0.9375, 0.875, 13); Monte Carlo
    # E[V(theta')] <= delta V + L 1_I + 3 SE for both steppers, inside and
    # outside I; runtime <= 3 min
    t0 = time.monotonic()
    model = GibbsModel.ising_sum(1, (1,), sigma_p=1.0)
    params = LangevinParams(sigma=0.5, N=50)
    grid = [-20.0, -14.0, -5.0, -1.0, 0.0, 1.0, 5.0, 14.0, 20.0]
    rep = langevin_drift_check(model, params, grid, 100_000, philox(90_000, 0))
    assert rep.delta == 0.9375 and rep.L == 0.875 and rep.I_radius == 13.0
    assert rep.all_ok, rep.to_csv()
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"runtime cap exceeded: {elapsed:.1f}s"
    print(f"CRITERION 9 PASS: drift holds at 3 SE on {len(grid)} grid points, "
          f"both steppers, 100000 draws ({elapsed:.1f}s)")


def test_criterion_10_threshold_discipline():
    # every bound refuses to evaluate outside its validity region
    with pytest.raises(HypothesisViolation):
        geom3_bound(2.0, 0.5, 5, 0.1, math.exp(-1.0), 0.5, 1.0, 2.0)
    with pytest.raises(HypothesisViolation):
        geom4_bound(2.0, 0.5, 2.0, 4.0, 48)  # threshold 6 K^(3/2) = 48 exactly
    with pytest.raises(HypothesisViolation):
        metro_geom_bound(1.0, 0.5, 3, 0.25, 2.0, 0.5, 1.0, 1.0)  # s = (1-d)/lam
    with pytest.raises(HypothesisViolation):
        langevin_tv_perturbation_bound(1.0, 1.0, 4)  # threshold 4 exactly
    with pytest.raises(HypothesisViolation):
        langevin_final_bound(GibbsModel.ising_sum(1, (1,)),
                             LangevinParams(1.0, 90), 1.0, 0.5, 0.0)
    print("CRITERION 10 PASS: all five thresholds raise instead of extrapolating")
