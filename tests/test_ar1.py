"""AR(1) application: closed forms against quadrature oracles and simulation.

Frozen constants below were computed independently at 25-digit precision:
  E|Z| for N(1,1)              = 1.1666309411753726
  L at alpha_t = 0.4           = 1.7666309411753726
  stationary upper (0.5, 0.4)  = 0.58887698039179087
  stationary lower             = 1/3
  exact Gaussian stationary W1 = 0.33333333515948049
  tv gamma (h_max = 1/sqrt(2pi)) = 0.079788456080286536
  tv final (0.5 -> 0.45, C=1, kappa=2) = 10.314660127465824
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from wperturb._rng import philox
from wperturb.ar1 import (
    Ar1BoundReport,
    Ar1Params,
    Innovation,
    _coupled_clouds,
    ar1_constants,
    ar1_gaussian_stationary_w1,
    ar1_kappa,
    ar1_nstep_bound,
    ar1_report,
    ar1_simulate_coupled,
    ar1_stationary_bound,
    ar1_stationary_lower_bound,
    ar1_tv_final_bound,
    ar1_tv_gamma,
    gaussian_abs_mean,
)
from wperturb.bounds import PerturbationReport
from wperturb.errors import HypothesisViolation
from wperturb.otcore import empirical_w1_1d

E_ABS_Z_N11 = 1.1666309411753726


# ------------------------------------------------------------- closed forms


@pytest.mark.parametrize("mean,sd", [(0.0, 1.0), (1.0, 1.0), (-2.0, 0.5), (3.0, 2.0)])
def test_folded_normal_mean_against_quadrature(mean, sd):
    # split at the kink of |x| so quad's error estimate is trustworthy
    lo, err1 = integrate.quad(lambda x: -x * norm.pdf(x, mean, sd), -np.inf, 0.0)
    hi, err2 = integrate.quad(lambda x: x * norm.pdf(x, mean, sd), 0.0, np.inf)
    assert err1 + err2 < 1e-7
    assert gaussian_abs_mean(mean, sd) == pytest.approx(lo + hi, abs=1e-9)


def test_folded_normal_degenerate_sd():
    assert gaussian_abs_mean(-3.0, 0.0) == 3.0


@pytest.mark.parametrize("mean,sd", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0), (0.0, -1.0),
])
def test_gaussian_innovation_rejects_non_finite_or_non_positive_parameters(mean, sd):
    with pytest.raises(ValueError):
        Innovation.gaussian(mean, sd)


def test_constants_hand_values():
    assert ar1_constants(0.0, 1.5) == (0.0, 2.5)
    delta, L = ar1_constants(0.4, E_ABS_Z_N11)
    assert delta == pytest.approx(0.4)
    assert L == pytest.approx(1.7666309411753726, abs=1e-12)
    with pytest.raises(ValueError):
        ar1_constants(1.0, 1.0)


def test_kappa_default_start():
    k = ar1_kappa(0.4, E_ABS_Z_N11, x0=0.0)
    assert k == pytest.approx(1.0 + E_ABS_Z_N11 / 0.6, abs=1e-12)
    assert ar1_kappa(0.4, 0.6, x0=5.0) == pytest.approx(6.0)


def test_nstep_bound_limits():
    assert ar1_nstep_bound(0.5, 0.5, 2.0, 3, 1.5) == pytest.approx(0.25)
    lim = ar1_nstep_bound(0.5, 0.4, 7.0, math.inf, 2.0)
    assert lim == pytest.approx(0.1 * 2.0 / 0.5)
    with pytest.raises(ValueError):
        ar1_nstep_bound(1.0, 0.4, 0.0, 3, 1.0)


def test_stationary_bounds_hand_values():
    up = ar1_stationary_bound(0.5, 0.4, E_ABS_Z_N11)
    assert up == pytest.approx(0.58887698039179087, abs=1e-12)
    lo = ar1_stationary_lower_bound(0.5, 0.4, 1.0)
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ar1_stationary_bound(0.3, 0.3, 2.0) == 0.0
    assert ar1_stationary_lower_bound(0.5, 0.4, 0.0) == 0.0


def test_gaussian_stationary_w1_frozen_value():
    w = ar1_gaussian_stationary_w1(0.5, 0.4, 1.0, 1.0)
    assert w == pytest.approx(0.33333333515948049, abs=1e-12)
    assert ar1_gaussian_stationary_w1(0.3, 0.3, 1.0, 1.0) == 0.0
    # equal asymptotic variances: pure translation
    assert ar1_gaussian_stationary_w1(0.5, -0.5, 1.0, 1.0) == pytest.approx(
        abs(1.0 / 0.5 - 1.0 / 1.5), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_gaussian_stationary_w1_against_quantile_quadrature(seed):
    rng = np.random.default_rng(seed)
    a, at = rng.uniform(-0.9, 0.9, size=2)
    meanZ = rng.uniform(-2, 2)
    sdZ = rng.uniform(0.3, 2.0)
    m1, m2 = meanZ / (1 - a), meanZ / (1 - at)
    s1 = sdZ / math.sqrt(1 - a * a)
    s2 = sdZ / math.sqrt(1 - at * at)
    oracle, err = integrate.quad(
        lambda q: abs(norm.ppf(q, m1, s1) - norm.ppf(q, m2, s2)), 0.0, 1.0,
        points=[0.5], limit=200)
    assert err < 1e-7
    assert ar1_gaussian_stationary_w1(a, at, meanZ, sdZ) == pytest.approx(
        oracle, abs=1e-6)


@pytest.mark.parametrize("seed", range(30))
def test_stationary_sandwich_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    a, at = rng.uniform(-0.9, 0.9, size=2)
    meanZ = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
    sdZ = rng.uniform(0.3, 2.0)
    innov_abs = gaussian_abs_mean(meanZ, sdZ)
    lo = ar1_stationary_lower_bound(a, at, meanZ)
    mid = ar1_gaussian_stationary_w1(a, at, meanZ, sdZ)
    hi = ar1_stationary_bound(a, at, innov_abs)
    assert lo <= mid + 1e-9
    assert mid <= hi + 1e-9


def test_stationary_bound_is_sharp_as_the_innovation_mean_grows():
    # the abstract's "cannot be improved": with E|Z| / EZ -> 1 the upper
    # bound over the exact W1 falls to 1 (1.767, 1.060, 1.006, 1.0006)
    ratios = []
    for mean in (1.0, 10.0, 100.0, 1000.0):
        lo = ar1_stationary_lower_bound(0.5, 0.4, mean)
        exact = ar1_gaussian_stationary_w1(0.5, 0.4, mean, 1.0)
        hi = ar1_stationary_bound(0.5, 0.4, gaussian_abs_mean(mean, 1.0))
        # at means 10 and 100 lo exceeds exact by 1-2 ulp of rounding
        assert lo <= exact * (1.0 + 1e-14)
        assert exact <= hi * (1.0 + 1e-14)
        ratios.append(hi / exact)
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.001


def _gaussian_nstep_law(a, x0, mean, sd, n):
    """Mean and sd of X_n from X_0 = x0 with N(mean, sd^2) innovations."""
    an = a ** n
    return (x0 * an + mean * (1.0 - an) / (1.0 - a),
            sd * math.sqrt((1.0 - an * an) / (1.0 - a * a)))


@pytest.mark.parametrize("alpha,alpha_t", [(0.5, 0.4), (0.5, 0.6), (0.9, 0.85),
                                           (0.2, 0.3), (-0.5, -0.4), (0.7, 0.71)])
def test_nstep_bound_holds_against_the_exact_gaussian_w1(alpha, alpha_t):
    # both chains start at x0, so w0 = 0; each X_n is Gaussian and the exact
    # W1 between them is the folded-normal mean of the comonotone coupling
    sd = 1.0
    rate = max(abs(alpha), abs(alpha_t))
    for mean in (0.0, 1.0, -2.0, 10.0):
        limit = ar1_gaussian_stationary_w1(alpha, alpha_t, mean, sd)
        for x0 in (0.0, 3.0):
            kap = ar1_kappa(alpha_t, gaussian_abs_mean(mean, sd), x0)
            for n in range(1, 401):
                m1, s1 = _gaussian_nstep_law(alpha, x0, mean, sd, n)
                m2, s2 = _gaussian_nstep_law(alpha_t, x0, mean, sd, n)
                exact = gaussian_abs_mean(m1 - m2, abs(s1 - s2))
                if n <= 200:
                    bound = ar1_nstep_bound(alpha, alpha_t, 0.0, n, kap)
                    assert exact <= bound, (mean, x0, n)
                if rate ** n < 1e-15:  # both laws have forgotten x0
                    assert abs(exact - limit) <= 1e-12 * max(1.0, limit), (mean, x0, n)


# ------------------------------------------------------------- TV machinery


def test_tv_gamma_hand_value_and_flag():
    g = ar1_tv_gamma(0.5, 0.4, 1.0 / math.sqrt(2 * math.pi))
    assert g == pytest.approx(0.079788456080286536, abs=1e-12)
    assert ar1_tv_gamma(0.3, 0.3, 1.0) == 0.0
    with pytest.raises(HypothesisViolation):
        ar1_tv_gamma(0.5, 0.4, 1.0, unimodal=False)
    with pytest.raises(ValueError):
        ar1_tv_gamma(0.5, 0.4, 0.0)


@pytest.mark.parametrize("x", [-7.0, -2.0, -0.5, 0.0, 0.5, 2.0, 7.0])
def test_tv_gamma_dominates_exact_kernel_tv(x):
    # one-step laws are N(a x + 1, 1) and N(at x + 1, 1); exact TV between
    # two equal-variance normals is 2(2 Phi(|dm|/2) - 1)
    a, at, sd = 0.5, 0.4, 1.0
    dm = abs(a - at) * abs(x)
    exact_tv = 2.0 * (2.0 * norm.cdf(dm / (2.0 * sd)) - 1.0)
    vt = 1.0 + abs(x)
    bound = ar1_tv_gamma(a, at, 1.0 / (sd * math.sqrt(2 * math.pi)))
    assert exact_tv / vt <= bound + 1e-12


def test_tv_final_bound_frozen_value_and_range():
    b = ar1_tv_final_bound(0.5, 0.45, 1.0, 2.0, E_ABS_Z_N11)
    assert b == pytest.approx(10.314660127465824, abs=1e-9)
    with pytest.raises(HypothesisViolation):
        ar1_tv_final_bound(0.5, 0.3, 1.0, 2.0, E_ABS_Z_N11)  # gap 0.2 > e^-1/2
    with pytest.raises(HypothesisViolation):
        ar1_tv_final_bound(0.5, 0.5, 1.0, 2.0, E_ABS_Z_N11)  # gap 0


def test_tv_final_bound_vanishes_at_zero_gap():
    vals = [ar1_tv_final_bound(0.5, 0.5 - g, 1.0, 2.0, 1.0)
            for g in (1e-2, 1e-5, 1e-9)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5  # decay is g log(1/g), slower than linear


# --------------------------------------------------------------- simulation


def _cloud_w1(params, alpha_t, x0, n, replicas, seed):
    """Empirical W1 between the two coupled replica clouds at steps 1..n."""
    return np.array([empirical_w1_1d(np.sort(x), np.sort(xt)) for x, xt in
                     _coupled_clouds(params, alpha_t, x0, n, replicas, seed)])


def test_simulation_identical_chains_are_zero():
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    sim = ar1_simulate_coupled(params, 0.5, x0=2.0, n=5, replicas=100, seed=1)
    np.testing.assert_array_equal(sim.coupled_dev, 0.0)
    np.testing.assert_array_equal(_cloud_w1(params, 0.5, 2.0, 5, 100, 1), 0.0)


def test_simulation_deterministic_given_seed():
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    a = ar1_simulate_coupled(params, 0.4, 0.0, n=8, replicas=500, seed=42)
    b = ar1_simulate_coupled(params, 0.4, 0.0, n=8, replicas=500, seed=42)
    assert a.coupled_dev.tobytes() == b.coupled_dev.tobytes()
    assert (_cloud_w1(params, 0.4, 0.0, 8, 500, 42).tobytes()
            == _cloud_w1(params, 0.4, 0.0, 8, 500, 42).tobytes())
    c = ar1_simulate_coupled(params, 0.4, 0.0, n=8, replicas=500, seed=43)
    assert a.coupled_dev.tobytes() != c.coupled_dev.tobytes()


def test_simulation_respects_nstep_bound():
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    sim = ar1_simulate_coupled(params, 0.4, 0.0, n=25, replicas=20_000, seed=7)
    emp = _cloud_w1(params, 0.4, 0.0, 25, 20_000, 7)
    k = ar1_kappa(0.4, params.innovation.abs_mean, 0.0)
    for i, n in enumerate(sim.ns):
        bound = ar1_nstep_bound(0.5, 0.4, 0.0, int(n), k)
        assert sim.coupled_dev[i] <= bound + 3.0 * sim.coupled_dev_se[i]
        # the empirical W1 is dominated by the coupled deviation
        assert emp[i] <= sim.coupled_dev[i] + 1e-12


def test_simulation_converges_to_exact_stationary_w1():
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    emp = _cloud_w1(params, 0.4, 0.0, 60, 50_000, 3)
    target = ar1_gaussian_stationary_w1(0.5, 0.4, 1.0, 1.0)
    # empirical W1 between the coupled clouds at stationarity; MC tolerance
    assert emp[-1] == pytest.approx(target, abs=0.02)


def test_simulation_statistics_match_stacked_clouds():
    # the simulator reduces each step as it comes; stepping the same
    # philox(seed, k) draws into stored clouds must give the same bits
    params = Ar1Params(0.7, Innovation.gaussian(1.0, 1.0))
    alpha_t, x0, n, replicas, seed = 0.72, 0.3, 12, 500, 5
    sim = ar1_simulate_coupled(params, alpha_t, x0, n, replicas, seed)
    xs = np.empty((n, replicas))
    xts = np.empty((n, replicas))
    x = xt = np.full(replicas, x0)
    for k in range(n):
        z = params.innovation.sampler(philox(seed, k), replicas)
        x, xt = 0.7 * x + z, alpha_t * xt + z
        xs[k], xts[k] = x, xt
    clouds = list(_coupled_clouds(params, alpha_t, x0, n, replicas, seed))
    assert len(clouds) == n
    for k, (a, b) in enumerate(clouds):
        assert a.tobytes() == xs[k].tobytes()
        assert b.tobytes() == xts[k].tobytes()
    devs = np.abs(xs - xts)
    dev = np.array([d.mean() for d in devs])
    se = np.array([d.std(ddof=1) / math.sqrt(replicas) for d in devs])
    assert sim.ns.tolist() == list(range(1, n + 1))
    assert sim.coupled_dev.tobytes() == dev.tobytes()
    assert sim.coupled_dev_se.tobytes() == se.tobytes()


def test_simulation_sorts_no_cloud(monkeypatch):
    # ar1_nstep.csv reads only the coupled deviation and its SE, neither
    # of which needs the clouds in order
    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort called during the simulation")

    monkeypatch.setattr(np, "sort", no_sort)
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    sim = ar1_simulate_coupled(params, 0.4, 0.0, n=5, replicas=200, seed=1)
    assert sim.coupled_dev.shape == (5,)


def test_nstep_report_can_fail():
    # the ar1_nstep report as cli._run_ar1 builds it verifies; with its
    # bounds set to half the observed deviation, the 3-SE allowance cannot
    # hide the gap, so this Monte Carlo check is able to fail
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    rep = ar1_report(params, 0.4, 0.0, 10)
    sim = ar1_simulate_coupled(params, 0.4, 0.0, 10, replicas=4000, seed=42)
    nstep = PerturbationReport("ar1_nstep", sim.ns, sim.coupled_dev,
                               rep.nstep_bounds, distance_se=sim.coupled_dev_se)
    assert nstep.verified()
    halved = dataclasses.replace(nstep, bounds=sim.coupled_dev / 2)
    assert not halved.verified()
    assert halved.min_slack < -3.0 * sim.coupled_dev_se.max()


def test_simulation_does_not_store_the_clouds():
    params = Ar1Params(0.7, Innovation.gaussian(1.0, 1.0))
    tracemalloc.start()
    try:
        ar1_simulate_coupled(params, 0.71, 0.0, n=200, replicas=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one cloud is 0.15 MiB; storing both for every step takes 61 MiB
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_simulation_input_validation():
    params = Ar1Params(0.5, Innovation.gaussian(0.0, 1.0))
    with pytest.raises(ValueError):
        ar1_simulate_coupled(params, 0.4, 0.0, n=0, replicas=100, seed=0)
    with pytest.raises(ValueError):
        ar1_simulate_coupled(params, 0.4, 0.0, n=5, replicas=1, seed=0)


def test_drift_condition_monte_carlo():
    # E[1 + |at x + Z|] <= delta (1 + |x|) + L + 3 SE on a grid of x
    innov = Innovation.gaussian(1.0, 1.0)
    delta, L = ar1_constants(0.4, innov.abs_mean)
    rng = np.random.default_rng(11)
    z = innov.sampler(rng, 40_000)
    for x in (-10.0, -3.0, -0.2, 0.0, 1.0, 4.0, 12.0):
        v_next = 1.0 + np.abs(0.4 * x + z)
        se = v_next.std(ddof=1) / math.sqrt(z.size)
        assert v_next.mean() <= delta * (1.0 + abs(x)) + L + 3.0 * se


# -------------------------------------------------------------------- report


def test_report_assembles_consistent_fields():
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    rep = ar1_report(params, 0.4, x0=0.0, n_max=20)
    assert rep.delta == pytest.approx(0.4)
    assert rep.tau_rate == 0.5
    assert rep.gamma == pytest.approx(0.1)
    assert rep.lower_bound <= rep.gaussian_w1 <= rep.stationary_bound + 1e-12
    assert len(rep.nstep_bounds) == 20
    # n-step bounds increase toward the limit gamma kappa / (1 - |alpha|)
    assert np.all(np.diff(rep.nstep_bounds) >= -1e-15)
    lim = ar1_nstep_bound(0.5, 0.4, 0.0, math.inf, rep.kappa)
    assert rep.nstep_bounds[-1] <= lim + 1e-12
    assert rep.tv_gamma == pytest.approx(ar1_tv_gamma(0.5, 0.4, params.innovation.h_max))


def test_report_rejects_an_inverted_stationary_sandwich():
    # raised, not asserted, so that python -O keeps the check
    params = Ar1Params(0.5, Innovation.gaussian(1.0, 1.0))
    rep = ar1_report(params, 0.4, x0=0.0, n_max=5)
    fields = dict(vars(rep), lower_bound=rep.stationary_bound + 1e-9)
    with pytest.raises(ValueError, match="sandwich inverted"):
        Ar1BoundReport(**fields)
    # a NaN on either side compares false and must not slip through
    assert rep.lower_bound is not None
    for nan_side in ("lower_bound", "stationary_bound"):
        with pytest.raises(ValueError, match="sandwich inverted"):
            Ar1BoundReport(**{**vars(rep), nan_side: math.nan})
    # within the rounding allowance the report stands
    Ar1BoundReport(**dict(fields, lower_bound=rep.stationary_bound + 1e-13))
