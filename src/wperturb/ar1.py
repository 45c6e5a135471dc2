"""Autoregressive chains X_{n+1} = alpha X_n + Z_{n+1} and their perturbation bounds.

Replacing alpha by a nearby alpha_t perturbs the kernel; with the weight
V(x) = 1 + |x| all constants are explicit: delta = |alpha_t|,
L = 1 - |alpha_t| + E|Z|, gamma <= |alpha - alpha_t|, and the n-step
contraction rate is |alpha|^n, so the n-step bound is ``bounds.thm31_bound``
with C = 1 and rho = |alpha|.  For Gaussian innovations the stationary
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

from . import bounds
from ._checks import (_check_C, _check_count, _check_nonnegative, _check_positive,
                      _check_roots, _check_V_mean)
from ._rng import coupled_steps, philox
from .errors import HypothesisViolation

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_abs_mean(mean: float, sd: float) -> float:
    """E|Z| for Z ~ N(mean, sd^2), the folded-normal mean."""
    _check_nonnegative(sd=sd)
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
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean}")
        _check_positive(sd=sd)
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
        _check_roots(alpha=self.alpha)


def ar1_constants(alpha_t: float, E_absZ: float) -> tuple[float, float]:
    """Drift constants for V(x) = 1 + |x|: delta = |alpha_t|, L = 1 - |alpha_t| + E|Z|."""
    _check_roots(alpha_t=alpha_t)
    _check_nonnegative(E_absZ=E_absZ)
    return abs(alpha_t), 1.0 - abs(alpha_t) + E_absZ


def ar1_kappa(alpha_t: float, E_absZ: float, x0: float = 0.0) -> float:
    """``bounds.kappa`` at p0_V = V(x0): 1 + max{|x0|, E|Z|/(1 - |alpha_t|)}."""
    delta, L = ar1_constants(alpha_t, E_absZ)
    return bounds.kappa(1.0 + abs(x0), L, delta)


def ar1_nstep_bound(alpha: float, alpha_t: float, w0: float, n, kappa: float) -> float:
    """|alpha|^n w0 + |alpha - alpha_t| (1 - |alpha|^n) kappa / (1 - |alpha|).

    thm31_bound with C = 1, rho = |alpha|, gamma = |alpha - alpha_t|; n is
    a nonnegative integer or math.inf."""
    _check_roots(alpha=alpha, alpha_t=alpha_t)
    # thm31 checks delta and L but reads only kappa, which already carries
    # the drift offset: delta is the drift rate |alpha_t|, L = 0 a stand-in
    return bounds.thm31_bound(bounds.BoundInputs(
        C=1.0, rho=abs(alpha), delta=abs(alpha_t), L=0.0,
        gamma=abs(alpha - alpha_t), kappa=kappa, n=n, w0=w0))


def ar1_stationary_bound(alpha: float, alpha_t: float, E_absZ: float) -> float:
    """Stationary Wasserstein bound |a - at| (1 - |at| + E|Z|) / ((1-|a|)(1-|at|)).

    ``bounds.stationary_wasserstein_bound`` with C = 1, rho = |alpha|,
    gamma = |alpha - alpha_t| and the drift constants of ``ar1_constants``."""
    _check_roots(alpha=alpha)
    delta, L = ar1_constants(alpha_t, E_absZ)
    return bounds.stationary_wasserstein_bound(1.0, abs(alpha), abs(alpha - alpha_t), L, delta)


def ar1_stationary_lower_bound(alpha: float, alpha_t: float, E_Z: float) -> float:
    """|a - at| |EZ| / (|1-a| |1-at|); nontrivial whenever EZ != 0."""
    _check_roots(alpha=alpha, alpha_t=alpha_t)
    return abs(alpha - alpha_t) * abs(E_Z) / (abs(1.0 - alpha) * abs(1.0 - alpha_t))


def ar1_gaussian_stationary_w1(alpha: float, alpha_t: float,
                               meanZ: float, sdZ: float) -> float:
    """Exact W1 between the two Gaussian stationary laws.

    The stationary law under root a is N(meanZ/(1-a), sdZ^2/(1-a^2)).
    On the line the comonotone (quantile) coupling is optimal, so
    W1 = E|dm + (s1 - s2) Z| with Z standard normal: a folded-normal mean.
    """
    _check_roots(alpha=alpha, alpha_t=alpha_t)
    _check_positive(sdZ=sdZ)
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
    _check_roots(alpha=alpha, alpha_t=alpha_t)
    if not unimodal or h_max is None:
        raise HypothesisViolation("the 2|alpha - alpha_t| h_max rate needs a weakly "
                                  "unimodal innovation density and its bound h_max")
    _check_positive(h_max=h_max)
    return 2.0 * abs(alpha - alpha_t) * h_max


_HALF_INV_E = 0.5 * math.exp(-1.0)


def ar1_tv_final_bound(alpha: float, alpha_t: float, C: float,
                       kappa: float, E_absZ: float) -> float:
    """Stationary TV bound kappa e/(1-|a|) * 2C(E|Z|+2) * g ln(1/g), g = |a - at|.

    Valid for densities bounded by 1 and g in (0, e^-1 / 2), with C >= 1,
    kappa >= 1 and E|Z| >= 0.
    """
    _check_roots(alpha=alpha, alpha_t=alpha_t)
    _check_C(C)
    _check_V_mean(kappa=kappa)
    _check_nonnegative(E_absZ=E_absZ)
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
    start at x0.  The clouds are stepped in place, so each yielded pair
    is overwritten by the next step: copy a cloud to keep it.  Raises
    ValueError unless the sampler returns a float array of shape
    (replicas,).
    """
    alpha, sampler = params.alpha, params.innovation.sampler

    def step(k, x, xt):
        z = sampler(philox(seed, k), replicas)
        if not (isinstance(z, np.ndarray) and z.dtype.kind == "f"
                and z.shape == (replicas,)):
            got = (f"{z.dtype} array of shape {z.shape}" if isinstance(z, np.ndarray)
                   else type(z).__name__)
            raise ValueError(f"innovation sampler must return a float array of "
                             f"shape ({replicas},), got {got}")
        x *= alpha
        x += z
        xt *= alpha_t
        xt += z
        return x, xt

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
    _check_roots(alpha_t=alpha_t)
    _check_count(2, replicas=replicas)
    # each step is reduced as it comes into one buffer, so no (n, replicas)
    # cloud is stored; the mean and the SE take the same sums, in the same
    # order, as dev.mean() and dev.std(ddof=1)
    root = math.sqrt(replicas)
    dev = np.empty(replicas)
    rows = []
    for x, xt in _coupled_clouds(params, alpha_t, x0, n, replicas, seed):
        np.subtract(x, xt, out=dev)
        np.abs(dev, out=dev)
        mean = dev.sum() / replicas
        dev -= mean
        np.square(dev, out=dev)
        rows.append((mean, math.sqrt(dev.sum() / (replicas - 1)) / root))
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
    _check_count(1, n_max=n_max)
    innov = params.innovation
    delta, L = ar1_constants(alpha_t, innov.abs_mean)
    k = ar1_kappa(alpha_t, innov.abs_mean, x0)
    gamma = abs(params.alpha - alpha_t)
    ns = np.arange(1, n_max + 1)
    # row n is ar1_nstep_bound(alpha, alpha_t, 0.0, n, k) bit for bit
    rows = bounds._thm31_rows(1.0, abs(params.alpha), ns.tolist(), gamma,
                              delta, L, 1.0 + abs(x0))
    gaussian_w1 = None
    if innov.sd is not None:
        gaussian_w1 = ar1_gaussian_stationary_w1(params.alpha, alpha_t,
                                                 innov.mean, innov.sd)
    tv_g = None
    if innov.unimodal and innov.h_max is not None:
        tv_g = ar1_tv_gamma(params.alpha, alpha_t, innov.h_max)
    return Ar1BoundReport(
        alpha=params.alpha, alpha_t=alpha_t, delta=delta, L=L, kappa=k,
        gamma=gamma, tau_rate=abs(params.alpha), ns=ns, nstep_bounds=rows(0.0),
        stationary_bound=ar1_stationary_bound(params.alpha, alpha_t, innov.abs_mean),
        lower_bound=ar1_stationary_lower_bound(params.alpha, alpha_t, innov.mean),
        gaussian_w1=gaussian_w1, tv_gamma=tv_g,
    )
