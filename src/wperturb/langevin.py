"""Noisy Langevin sampling for Gibbs random fields with an intractable
normalizing constant.

The setting: a scalar parameter ``theta`` with Gaussian prior N(0, sigma_p^2)
and a Gibbs likelihood l(y|theta) = exp(theta*s(y)) / z(theta) over a finite
configuration space Y^M.  The posterior gradient needs the likelihood mean of
the statistic s, which involves z(theta); the noisy variant replaces that mean
by an average over N exact draws from l(.|theta).  The likelihood depends on y
only through s(y), so a model is the distinct levels of s, how many
configurations sit on each, and the observed value s(y).  The law of s(Y)
lives on those levels with weights proportional to count * exp(theta*level):
z(theta), the likelihood mean of s and the noisy chain's auxiliary draws (one
exact multinomial over the levels) all work there.  The two built-in spin
statistics have closed-form counts, so no configuration is ever enumerated.

The drift/contraction constants and the two perturbation bounds follow the
same pattern as the rest of the package: explicit constants, explicit
applicability thresholds, inapplicable inputs raise instead of extrapolating.
The long-run bound is ``bounds.geom4_bound`` with the one-step TV bound's K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import _check_C, _check_count, _check_nonnegative, _check_positive
from ._checks import _check_samples, _float_array
from ._rng import coupled_steps, philox
from .bounds import geom4_bound
from .errors import HypothesisViolation

__all__ = [
    "MAX_M",
    "GibbsModel",
    "LangevinDriftReport",
    "LangevinParams",
    "empirical_tv_binned",
    "grad_log_posterior",
    "langevin_drift_check",
    "langevin_drift_constants",
    "langevin_final_bound",
    "langevin_simulate_pair",
    "langevin_step",
    "langevin_tv_perturbation_bound",
    "langevin_update",
    "likelihood_mean_s",
    "noisy_grad",
]

# largest number of sites the built-in statistics accept: the largest count,
# C(1000, 500) ~ 2.7e299, still fits a float
MAX_M = 1000

# replica block size for the vectorized simulators, keeps the (block, K)
# likelihood matrices small even when a model has thousands of levels K
_BLOCK = 4096


class GibbsModel:
    """Exponential-family model l(y|theta) = exp(theta*s(y))/z(theta) on Y^M,
    given by the law of its statistic.

    levels  : the distinct values of s, finite and strictly increasing
    counts  : how many configurations take each level (finite, > 0)
    s_obs   : s(y) at the data configuration y whose posterior is targeted
    sigma_p : prior standard deviation (> 0)

    Every likelihood quantity (z, means, exact sampling weights) is computed
    exactly on the levels.  ``ising_sum`` and ``path_agreement`` build the two
    spin statistics from closed-form counts.
    """

    def __init__(self, levels, counts, s_obs: float, sigma_p: float):
        levels = np.asarray(levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0 or not np.all(np.isfinite(levels)):
            raise ValueError("levels must be a nonempty 1-d array of finite values")
        if np.any(np.diff(levels) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        counts = _float_array(counts, levels.shape, "counts")
        _check_positive(counts=counts.min())
        s_obs = float(s_obs)
        if not math.isfinite(s_obs):
            raise ValueError("s_obs must be finite")
        s_inf = float(np.max(np.abs(levels)))
        if s_inf == 0.0:
            raise ValueError("statistic is identically zero; ||s||_inf must be > 0")
        sigma_p = float(sigma_p)
        _check_positive(sigma_p=sigma_p)

        self.levels = levels
        self.log_counts = np.log(counts)
        self.s_obs = s_obs
        self.s_inf = s_inf
        self.sigma_p = sigma_p

    def level_likelihood(self, theta: float) -> np.ndarray:
        """Exact pmf of s(Y) over ``levels`` for Y ~ l(.|theta)."""
        return _likelihood_rows(self, np.array([float(theta)]))[0]

    def log_partition(self, theta: float) -> float:
        """log z(theta), computed on the levels with max subtraction."""
        lw = float(theta) * self.levels + self.log_counts
        m = lw.max()
        return float(m + np.log(np.exp(lw - m).sum()))

    @classmethod
    def ising_sum(cls, M: int, observed: Sequence, sigma_p: float = 1.0) -> "GibbsModel":
        """Spin labels {-1,+1} with s(y) = sum of labels.  Level 2k - M holds
        the C(M, k) configurations with k labels +1."""
        observed = _observed_spins(M, observed)
        return cls(np.arange(-M, M + 1, 2, dtype=float),
                   [float(math.comb(M, k)) for k in range(M + 1)],
                   float(sum(observed)), sigma_p)

    @classmethod
    def path_agreement(cls, M: int, observed: Sequence, sigma_p: float = 1.0) -> "GibbsModel":
        """Spin labels {-1,+1} with s(y) = number of agreeing neighbor pairs
        along the path 1-2-...-M.  Level k holds 2 C(M-1, k) configurations:
        the first label, then which k of the M-1 pairs agree.  Needs M >= 2
        so the statistic is not zero."""
        observed = _observed_spins(M, observed)
        return cls(np.arange(M, dtype=float),
                   [2.0 * math.comb(M - 1, k) for k in range(M)],
                   float(sum(observed[i] == observed[i + 1] for i in range(M - 1))),
                   sigma_p)


def _observed_spins(M: int, observed: Sequence) -> tuple:
    """Check M and the observed spin configuration of a built-in model."""
    if not (isinstance(M, (int, np.integer)) and 1 <= M <= MAX_M):
        raise ValueError(f"M must be an integer in [1, {MAX_M}]")
    observed = tuple(observed)
    if len(observed) != M or any(lab not in (-1, 1) for lab in observed):
        raise ValueError("observed must be a length-M tuple of -1/+1 labels")
    return observed


@dataclass(frozen=True)
class LangevinParams:
    """Step size and auxiliary sample count for the (noisy) Langevin chain."""

    sigma: float
    N: int

    def __post_init__(self):
        _check_positive(sigma=self.sigma)
        _check_count(1, N=self.N)


def likelihood_mean_s(model: GibbsModel, theta: float) -> float:
    """E_{l(.|theta)} s(Y), exactly."""
    return float(model.level_likelihood(theta) @ model.levels)


def grad_log_posterior(model: GibbsModel, theta: float) -> float:
    """d/dtheta log pi_y(theta) = s(y) - E_{l(.|theta)} s(Y) - theta/sigma_p^2."""
    return model.s_obs - likelihood_mean_s(model, theta) - theta / model.sigma_p ** 2


def noisy_grad(model: GibbsModel, theta: float, N: int, rng: np.random.Generator) -> float:
    """Gradient with the likelihood mean replaced by an N-sample average.

    The N i.i.d. draws from l(.|theta) enter only through how many of them
    land on each level of s, so a single exact multinomial over the levels
    realizes the batch.
    """
    _check_count(1, N=N)
    counts = rng.multinomial(int(N), model.level_likelihood(theta))
    mean_s = float(counts @ model.levels) / float(N)
    return model.s_obs - mean_s - theta / model.sigma_p ** 2


def langevin_update(params: LangevinParams, theta: float, grad_value: float, z: float) -> float:
    """One deterministic update theta + (sigma^2/2) g + z."""
    return float(theta) + 0.5 * params.sigma ** 2 * float(grad_value) + float(z)


def langevin_step(
    model: GibbsModel,
    params: LangevinParams,
    theta: float,
    rng: np.random.Generator,
    noisy: bool = False,
) -> float:
    """One transition of the (noisy) Langevin chain.

    Draw order: auxiliary likelihood samples first (noisy mode only), then the
    Gaussian innovation, so the two modes consume comparable streams.
    """
    if noisy:
        g = noisy_grad(model, theta, params.N, rng)
    else:
        g = grad_log_posterior(model, theta)
    z = params.sigma * rng.standard_normal()
    return langevin_update(params, theta, g, z)


def langevin_drift_constants(sigma: float, sigma_p: float, s_inf: float):
    """Drift constants for V(theta) = 1 + |theta| shared by both chains.

    Returns (delta, L, I_radius) with P V <= delta*V + L*1_I,
    I = {|theta| <= I_radius}.  Requires sigma^2 < 4*sigma_p^2; at or above
    that step size the prior pull no longer contracts and the triple is not
    valid.
    """
    _check_positive(sigma=sigma, sigma_p=sigma_p, s_inf=s_inf)
    if not sigma ** 2 < 4 * sigma_p ** 2:
        raise HypothesisViolation(
            f"need sigma^2 < 4*sigma_p^2, got {sigma**2:.6g} >= {4*sigma_p**2:.6g}"
        )
    delta = 1.0 - sigma ** 2 / (4.0 * sigma_p ** 2)
    L = sigma + sigma ** 2 * s_inf + sigma ** 2 / (2.0 * sigma_p ** 2)
    I_radius = 1.0 + 4.0 * sigma_p ** 2 * s_inf + 4.0 * sigma_p ** 2 / sigma
    return delta, L, I_radius


def langevin_tv_perturbation_bound(sigma: float, s_inf: float, N: int) -> float:
    """Uniform total-variation distance between the exact and noisy kernels.

    Valid only for N > 4*max(s_inf^2 sigma^4, s_inf^-3 sigma^-6); below that
    the auxiliary sample is too small for the concentration step and the
    bound does not hold.
    """
    _check_positive(sigma=sigma, s_inf=s_inf)
    _check_count(1, N=N)
    _require_samples(4.0, sigma, s_inf, N, "TV perturbation bound")
    return _budget_K(sigma, s_inf) * math.log(N) / N


def _budget_K(sigma: float, s: float) -> float:
    """K = 6 max(s sigma^2, s^-2 sigma^-4) of the one-step TV bound K ln(N)/N."""
    return 6.0 * max(s * sigma ** 2, s ** -2 * sigma ** -4)


def _require_samples(factor: float, sigma: float, s: float, N: int, bound: str) -> None:
    """HypothesisViolation unless N > factor * max(s^2 sigma^4, s^-3 sigma^-6)."""
    threshold = factor * max(s ** 2 * sigma ** 4, s ** -3 * sigma ** -6)
    if not N > threshold:
        raise HypothesisViolation(f"need N > {threshold:.6g} for the {bound}, got N={N}")


def langevin_final_bound(
    model: GibbsModel,
    params: LangevinParams,
    C: float,
    rho: float,
    E_absX0: float,
) -> float:
    """Wasserstein distance between the exact and noisy chains at any time n.

    Uniform in n: geom4_bound with the one-step TV bound's K.  Requires
    C >= 1 (tau(P^0) = 1), sigma^2 < 4*sigma_p^2 and
    N > 90*max(s^2 sigma^4, s^-3 sigma^-6); it decays like (log N)^2 / N.
    """
    sigma, N = params.sigma, params.N
    s, sigma_p = model.s_inf, model.sigma_p
    _check_C(C)
    _check_nonnegative(E_absX0=E_absX0)
    langevin_drift_constants(sigma, sigma_p, s)  # raises unless sigma^2 < 4 sigma_p^2
    _require_samples(90.0, sigma, s, N, "long-run bound")
    # with x = s sigma^2 the gate implies geom4's N > 6 K^(3/2) = 88.2
    # max(x^1.5, x^-3), and K >= 6, base >= 6C >= 1: geom4 adds no raise
    kappa = 2.0 + max(E_absX0, 4.0 * sigma_p ** 2 * (s + 1.0 / sigma))
    base = 2.0 * C * (sigma + sigma ** 2 * s + 3.0)
    return geom4_bound(base, rho, kappa, _budget_K(sigma, s), N)


@dataclass
class LangevinDriftReport:
    """Per-theta Monte Carlo check of E[V(theta')] <= delta*V(theta) + L*1_I."""

    thetas: np.ndarray
    caps: np.ndarray
    exact_mean: np.ndarray
    exact_se: np.ndarray
    noisy_mean: np.ndarray
    noisy_se: np.ndarray
    ok: np.ndarray
    delta: float
    L: float
    I_radius: float
    draws: int

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ok))

    def to_csv(self) -> str:
        lines = ["theta,cap,exact_mean,exact_se,noisy_mean,noisy_se,ok"]
        for i in range(len(self.thetas)):
            vals = (self.thetas[i], self.caps[i], self.exact_mean[i],
                    self.exact_se[i], self.noisy_mean[i], self.noisy_se[i])
            lines.append(",".join(repr(float(v)) for v in vals)
                         + f",{int(self.ok[i])}")
        return "\n".join(lines) + "\n"


def langevin_drift_check(
    model: GibbsModel,
    params: LangevinParams,
    theta_grid: Sequence[float],
    draws: int,
    rng: np.random.Generator,
) -> LangevinDriftReport:
    """Monte Carlo verification of the shared drift condition on a theta grid.

    For each grid point both steppers are run `draws` times; a point passes
    when the estimated E[V(theta')] stays below delta*V(theta) + L*1_I(theta)
    with a 3-standard-error allowance.
    """
    _check_count(2, draws=draws)
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0 or not np.all(np.isfinite(thetas)):
        raise ValueError("theta_grid must be a nonempty 1-d array of finite values")
    delta, L, radius = langevin_drift_constants(params.sigma, model.sigma_p, model.s_inf)

    n = thetas.size
    caps = np.empty(n)
    e_mean, e_se = np.empty(n), np.empty(n)
    z_mean, z_se = np.empty(n), np.empty(n)
    ok = np.empty(n, dtype=bool)
    half = 0.5 * params.sigma ** 2
    for i, th in enumerate(thetas):
        caps[i] = delta * (1.0 + abs(th)) + (L if abs(th) <= radius else 0.0)

        m = th + half * grad_log_posterior(model, th)
        v = 1.0 + np.abs(m + params.sigma * rng.standard_normal(draws))
        e_mean[i] = v.mean()
        e_se[i] = v.std(ddof=1) / math.sqrt(draws)

        counts = rng.multinomial(params.N, model.level_likelihood(th), size=draws)
        g = model.s_obs - (counts @ model.levels) / params.N - th / model.sigma_p ** 2
        v = 1.0 + np.abs(th + half * g + params.sigma * rng.standard_normal(draws))
        z_mean[i] = v.mean()
        z_se[i] = v.std(ddof=1) / math.sqrt(draws)

        ok[i] = (e_mean[i] <= caps[i] + 3.0 * e_se[i]) and (
            z_mean[i] <= caps[i] + 3.0 * z_se[i]
        )
    return LangevinDriftReport(
        thetas=thetas, caps=caps,
        exact_mean=e_mean, exact_se=e_se,
        noisy_mean=z_mean, noisy_se=z_se,
        ok=ok, delta=delta, L=L, I_radius=radius, draws=int(draws),
    )


def _likelihood_rows(model: GibbsModel, thetas: np.ndarray) -> np.ndarray:
    """Exact pmf of s(Y) over the levels for each entry of a theta block, one
    per row."""
    lw = thetas[:, None] * model.levels[None, :] + model.log_counts[None, :]
    lw -= lw.max(axis=1, keepdims=True)
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _grad_batch(model: GibbsModel, thetas: np.ndarray) -> np.ndarray:
    """Exact posterior gradient at each entry of a theta vector."""
    out = np.empty_like(thetas)
    for lo in range(0, thetas.size, _BLOCK):
        w = _likelihood_rows(model, thetas[lo : lo + _BLOCK])
        out[lo : lo + _BLOCK] = w @ model.levels
    return model.s_obs - out - thetas / model.sigma_p ** 2


def _noisy_grad_batch(
    model: GibbsModel, thetas: np.ndarray, N: int, rng: np.random.Generator
) -> np.ndarray:
    """Noisy gradient at each entry of a theta vector, one multinomial over
    the levels per row."""
    out = np.empty_like(thetas)
    for lo in range(0, thetas.size, _BLOCK):
        w = _likelihood_rows(model, thetas[lo : lo + _BLOCK])
        counts = rng.multinomial(N, w)
        out[lo : lo + _BLOCK] = (counts @ model.levels) / float(N)
    return model.s_obs - out - thetas / model.sigma_p ** 2


def langevin_simulate_pair(
    model: GibbsModel,
    params: LangevinParams,
    x0: float,
    n: int,
    replicas: int,
    seed: int,
):
    """Run exact and noisy chains side by side from the same start.

    Both chains share the Gaussian innovation stream (the coupling is free to
    do that; only the auxiliary likelihood draws differ), so the returned
    per-step clouds are positively correlated and empirical distances between
    them are low-noise.  Returns (xs, xts) of shape (n, replicas): row k holds
    the time-(k+1) samples of the exact and noisy chains.
    """
    half = 0.5 * params.sigma ** 2

    def step(k, x, xt):
        z = params.sigma * philox(seed, 0, k).standard_normal(replicas)
        return (x + half * _grad_batch(model, x) + z,
                xt + half * _noisy_grad_batch(model, xt, params.N,
                                              philox(seed, 1, k)) + z)

    xs, xts = zip(*coupled_steps(step, x0, n, replicas))
    return np.stack(xs), np.stack(xts)


def empirical_tv_binned(a: np.ndarray, b: np.ndarray, bins: int = 256) -> float:
    """Histogram total-variation proxy between two samples.

    Both samples are binned on a common uniform grid over the pooled range and
    the pmf distance sum |p_i - q_i| is returned (so the value lives in
    [0, 2], matching the discrete total_variation convention).  This is a
    biased estimate; it is meant for monotonicity checks, not as a certified
    distance.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    _check_count(1, bins=bins)
    _check_samples(a, b)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return float(np.abs(pa / a.size - pb / b.size).sum())
