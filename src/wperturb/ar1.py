"""Autoregressive chains X_{n+1} = alpha X_n + Z_{n+1} and their perturbation bounds.

Replacing alpha by a nearby alpha_t perturbs the kernel; with the weight
V(x) = 1 + |x| all constants are explicit: delta = |alpha_t|,
L = 1 - |alpha_t| + E|Z|, gamma <= |alpha - alpha_t|, and the n-step
contraction rate is |alpha|^n.  For Gaussian innovations the stationary
laws are Gaussian too, so the exact stationary Wasserstein distance has
a closed form (comonotone coupling on the line) that sandwiches between
the mean-gap lower bound and the drift-based upper bound.

A synchronous coupling (both chains driven by the same innovations)
gives the simulation route: E|X_n - Xt_n| upper-bounds W1 at step n and
must in turn sit below the theoretical n-step bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import coupled_steps, philox
from .errors import HypothesisViolation

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_abs_mean(mean: float, sd: float) -> float:
    """E|Z| for Z ~ N(mean, sd^2), the folded-normal mean."""
    if sd < 0.0:
        raise ValueError("sd must be nonnegative")
    if sd == 0.0:
        return abs(mean)
    r = mean / sd
    return sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * r * r) + mean * math.erf(
        r / math.sqrt(2.0)
    )


@dataclass(frozen=True)
class Innovation:
    """Innovation law Z with the moments/bounds the theory consumes.

    ``sampler(rng, size)`` draws from the law; ``mean`` = EZ and
    ``abs_mean`` = E|Z| feed the bound constants; ``h_max`` bounds the
    density and ``unimodal`` certifies weak unimodality (both only
    needed for the total-variation results).
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    mean: float
    abs_mean: float
    h_max: Optional[float] = None
    unimodal: bool = False
    sd: Optional[float] = None  # set for Gaussian; enables exact stationary W1
    label: str = "custom"

    @classmethod
    def gaussian(cls, mean: float, sd: float) -> "Innovation":
        if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0.0):
            raise ValueError(f"need a finite mean and a finite sd > 0, got {mean}, {sd}")
        return cls(
            sampler=lambda rng, size: rng.normal(mean, sd, size=size),
            mean=mean,
            abs_mean=gaussian_abs_mean(mean, sd),
            h_max=1.0 / (sd * _SQRT_2PI),
            unimodal=True,
            sd=sd,
            label=f"gaussian(mean={mean}, sd={sd})",
        )


@dataclass(frozen=True)
class Ar1Params:
    alpha: float
    innovation: Innovation

    def __post_init__(self):
        if not abs(self.alpha) < 1.0:
            raise ValueError("|alpha| must be < 1")


def _check_root(name: str, value: float) -> None:
    if not abs(value) < 1.0:
        raise ValueError(f"|{name}| must be < 1, got {value}")


def ar1_constants(alpha_t: float, E_absZ: float) -> tuple[float, float]:
    """Drift constants for V(x) = 1 + |x|: delta = |alpha_t|, L = 1 - |alpha_t| + E|Z|."""
    _check_root("alpha_t", alpha_t)
    if E_absZ < 0.0:
        raise ValueError("E|Z| must be nonnegative")
    return abs(alpha_t), 1.0 - abs(alpha_t) + E_absZ


def ar1_kappa(alpha_t: float, E_absZ: float, x0: float = 0.0) -> float:
    """kappa for the chain started at x0: 1 + max{|x0|, E|Z|/(1 - |alpha_t|)}."""
    _check_root("alpha_t", alpha_t)
    return 1.0 + max(abs(x0), E_absZ / (1.0 - abs(alpha_t)))


def ar1_nstep_bound(alpha: float, alpha_t: float, w0: float, n, kappa: float) -> float:
    """|alpha|^n w0 + |alpha - alpha_t| (1 - |alpha|^n) kappa / (1 - |alpha|)."""
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    a = abs(alpha)
    an = 0.0 if n == math.inf else a ** int(n)
    return an * w0 + abs(alpha - alpha_t) * (1.0 - an) * kappa / (1.0 - a)


def ar1_stationary_bound(alpha: float, alpha_t: float, E_absZ: float) -> float:
    """Stationary Wasserstein bound |a - at| (1 - |at| + E|Z|) / ((1-|a|)(1-|at|))."""
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    return (abs(alpha - alpha_t) * (1.0 - abs(alpha_t) + E_absZ)
            / ((1.0 - abs(alpha)) * (1.0 - abs(alpha_t))))


def ar1_stationary_lower_bound(alpha: float, alpha_t: float, E_Z: float) -> float:
    """|a - at| |EZ| / (|1-a| |1-at|); nontrivial whenever EZ != 0."""
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    return abs(alpha - alpha_t) * abs(E_Z) / (abs(1.0 - alpha) * abs(1.0 - alpha_t))


def ar1_gaussian_stationary_w1(alpha: float, alpha_t: float,
                               meanZ: float, sdZ: float) -> float:
    """Exact W1 between the two Gaussian stationary laws.

    The stationary law under root a is N(meanZ/(1-a), sdZ^2/(1-a^2)).
    On the line the comonotone (quantile) coupling is optimal, so
    W1 = E|dm + (s1 - s2) Z| with Z standard normal: a folded-normal mean.
    """
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    if sdZ <= 0.0:
        raise ValueError("sdZ must be positive")
    m1 = meanZ / (1.0 - alpha)
    m2 = meanZ / (1.0 - alpha_t)
    s1 = sdZ / math.sqrt(1.0 - alpha * alpha)
    s2 = sdZ / math.sqrt(1.0 - alpha_t * alpha_t)
    return gaussian_abs_mean(m1 - m2, abs(s1 - s2))


def ar1_tv_gamma(alpha: float, alpha_t: float, h_max: float,
                 unimodal: bool = True) -> float:
    """Total-variation perturbation rate 2 |alpha - alpha_t| h_max.

    Requires a weakly unimodal innovation density bounded by h_max.
    """
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    if not unimodal:
        raise HypothesisViolation(
            "the 2|alpha - alpha_t| h_max rate needs a weakly unimodal innovation density"
        )
    if h_max is None or h_max <= 0.0:
        raise ValueError("h_max must be a positive density bound")
    return 2.0 * abs(alpha - alpha_t) * h_max


_HALF_INV_E = 0.5 * math.exp(-1.0)


def ar1_tv_final_bound(alpha: float, alpha_t: float, C: float,
                       kappa: float, E_absZ: float) -> float:
    """Stationary TV bound kappa e/(1-|a|) * 2C(E|Z|+2) * g ln(1/g), g = |a - at|.

    Valid for densities bounded by 1 and g in (0, e^-1 / 2).
    """
    _check_root("alpha", alpha)
    _check_root("alpha_t", alpha_t)
    g = abs(alpha - alpha_t)
    if not (0.0 < g < _HALF_INV_E):
        raise HypothesisViolation(
            f"|alpha - alpha_t| = {g!r} outside (0, e^-1/2 = {_HALF_INV_E:.6f})"
        )
    return (kappa * math.e / (1.0 - abs(alpha))
            * 2.0 * C * (E_absZ + 2.0) * g * math.log(1.0 / g))


@dataclass
class Ar1CoupledSim:
    """Synchronous-coupling simulation output (per step 1..n)."""

    ns: np.ndarray
    coupled_dev: np.ndarray      # mean |X_n - Xt_n| over replicas
    coupled_dev_se: np.ndarray   # standard error of that mean


def _coupled_clouds(params: Ar1Params, alpha_t: float, x0: float, n: int,
                    replicas: int, seed: int):
    """Yield the two replica clouds after each of n shared-innovation steps.

    Step k draws its innovations from ``philox(seed, k)``; both chains
    start at x0.
    """
    def step(k, x, xt):
        z = params.innovation.sampler(philox(seed, k), replicas)
        return params.alpha * x + z, alpha_t * xt + z

    return coupled_steps(step, x0, n, replicas)


def ar1_simulate_coupled(params: Ar1Params, alpha_t: float, x0: float,
                         n: int, replicas: int = 100_000,
                         seed: int = 0) -> Ar1CoupledSim:
    """Run both chains from x0 with SHARED innovations.

    The coupling is synchronous: at every step the same Z drives both
    recursions, so mean |X_n - Xt_n| is a valid (upper) sample estimate
    of the step-n Wasserstein distance.  Per-step innovations come from
    a counter-based stream keyed by (seed, step); output is
    deterministic given the seed.  Only the coupled deviation and its
    standard error are returned.
    """
    _check_root("alpha_t", alpha_t)
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    # each step is reduced as it comes, so no (n, replicas) cloud is stored
    root = math.sqrt(replicas)
    rows = []
    for x, xt in _coupled_clouds(params, alpha_t, x0, n, replicas, seed):
        dev = np.abs(x - xt)
        rows.append((dev.mean(), dev.std(ddof=1) / root))
    coupled, se = map(np.array, zip(*rows))
    return Ar1CoupledSim(np.arange(1, n + 1), coupled, se)


@dataclass
class Ar1BoundReport:
    """All AR(1) constants and bounds for one (alpha, alpha_t, innovation) triple."""

    alpha: float
    alpha_t: float
    delta: float
    L: float
    kappa: float
    gamma: float
    tau_rate: float
    ns: np.ndarray
    nstep_bounds: np.ndarray
    stationary_bound: float
    lower_bound: Optional[float]
    gaussian_w1: Optional[float]
    tv_gamma: Optional[float]

    def __post_init__(self):
        if self.lower_bound is not None and not (
                self.lower_bound <= self.stationary_bound + 1e-12):
            raise ValueError("stationary sandwich inverted; bound formulas inconsistent")


def ar1_report(params: Ar1Params, alpha_t: float, x0: float, n_max: int) -> Ar1BoundReport:
    """Evaluate every applicable AR(1) constant and bound, w0 = 0 (shared start)."""
    innov = params.innovation
    delta, L = ar1_constants(alpha_t, innov.abs_mean)
    k = ar1_kappa(alpha_t, innov.abs_mean, x0)
    gamma = abs(params.alpha - alpha_t)
    ns = np.arange(1, n_max + 1)
    bounds = np.array([ar1_nstep_bound(params.alpha, alpha_t, 0.0, int(m), k)
                       for m in ns])
    gaussian_w1 = None
    if innov.sd is not None:
        gaussian_w1 = ar1_gaussian_stationary_w1(params.alpha, alpha_t,
                                                 innov.mean, innov.sd)
    tv_g = None
    if innov.unimodal and innov.h_max is not None:
        tv_g = ar1_tv_gamma(params.alpha, alpha_t, innov.h_max)
    return Ar1BoundReport(
        alpha=params.alpha, alpha_t=alpha_t, delta=delta, L=L, kappa=k,
        gamma=gamma, tau_rate=abs(params.alpha), ns=ns, nstep_bounds=bounds,
        stationary_bound=ar1_stationary_bound(params.alpha, alpha_t, innov.abs_mean),
        lower_bound=ar1_stationary_lower_bound(params.alpha, alpha_t, innov.mean),
        gaussian_w1=gaussian_w1, tv_gamma=tv_g,
    )
