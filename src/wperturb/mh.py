"""Metropolis-Hastings with perturbed acceptance probabilities.

Exact and approximate steppers on the real line, finite-space kernel
builders with exact detailed balance, and the constants (gamma, delta_V,
lambda) feeding the acceptance-perturbation bounds.  The central estimate
is that one step of two MH chains sharing a proposal kernel Q but using
acceptance probabilities alpha and alpha~ satisfies

    W(delta_x P_alpha, delta_x P_alpha~)
        <= integral of d(x,y) |alpha - alpha~|(x,y) Q(x,dy),

so every bound below is driven by the acceptance gap E(x,y), never by the
kernels themselves.  With |alpha - alpha~| <= s and the one-step V growth
bound lam, the n-step bound is ``bounds.geom2_bound`` with gamma = lam s and
w0 = 0.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._checks import _check_C, _check_count, _check_nonnegative, _check_positive
from ._checks import _check_unit, _check_V_mean, _float_array, _require_same_points
from ._rng import coupled_steps, philox
from .bounds import PerturbationReport, _geom2_rows, geom2_bound
from .errors import ConfigError, HypothesisViolation
from .kernels import ROW_TOL, FiniteKernel
from .otcore import FiniteMetricSpace, WeightFunction, empirical_w1_clouds

# absolute tolerance of every line-constant quadrature
_QUAD_TOL = 1e-8
# quadrature error estimates above this are treated as failures
_QUAD_ERR_CAP = 1e-6
# lambda integrals above this are reported as divergent
_LAMBDA_CAP = 1e12


# --------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class Proposal:
    """Proposal kernel Q(x, .) on the line: sampler plus optional density.

    ``sampler(rng, x)`` draws one proposal per entry of x: the scalar
    steppers pass a float, the report path an ndarray of replica states.
    ``support`` maps x to a compact interval carrying all of Q(x, .);
    the quadrature-based constants require it and fail without it.
    """

    sampler: Callable[[np.random.Generator, float], float]
    density: Optional[Callable[[float, float], float]] = None
    support: Optional[Callable[[float], Tuple[float, float]]] = None

    @classmethod
    def uniform_window(cls, half_width: float) -> "Proposal":
        _check_positive(half_width=half_width)
        h = float(half_width)
        return cls(
            sampler=lambda rng, x: x + h * (2.0 * rng.random(np.shape(x)) - 1.0),
            density=lambda x, y: 0.5 / h if abs(y - x) <= h else 0.0,
            support=lambda x: (x - h, x + h))


@dataclass(frozen=True)
class MhProblem:
    """MH target on the line, given through log r(x,y) = log pi(y)q(y,x)/pi(x)q(x,y).

    ``log_target_ratio`` may return -inf (proposal outside the support).
    It and ``acceptance`` take floats or equal-shape ndarrays.
    """

    log_target_ratio: Callable[[float, float], float]
    proposal: Proposal

    def acceptance(self, x, y):
        return np.exp(np.minimum(self.log_target_ratio(x, y), 0.0))

    @classmethod
    def exponential_target(cls, half_width: float = 1.0) -> "MhProblem":
        """Density exp(-x) on [0, inf) with a symmetric uniform window."""
        def log_ratio(x, y):
            return np.where(y < 0.0, -np.inf, x - y)

        return cls(log_ratio, Proposal.uniform_window(half_width))

    @classmethod
    def gaussian_target(cls, half_width: float = 1.0,
                        sd: float = 1.0) -> "MhProblem":
        """Standard-normal-shaped density with a symmetric uniform window."""
        _check_positive(sd=sd)
        inv2 = 1.0 / (2.0 * sd * sd)
        return cls(lambda x, y: (x * x - y * y) * inv2,
                   Proposal.uniform_window(half_width))


@dataclass(frozen=True)
class FiniteMhProblem:
    """MH on a finite space: target pmf, proposal matrix and a metric.

    Perturbation predicates and ratio samplers receive state *indices*
    here, not points.
    """

    pi: np.ndarray
    Q: np.ndarray
    space: FiniteMetricSpace

    def __post_init__(self):
        n = self.space.size
        pi = _float_array(self.pi, (n,), "pi")
        Q = _float_array(self.Q, (n, n), "Q")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > ROW_TOL:
            raise ValueError("pi must be a strictly positive pmf")
        if np.any(Q < 0) or np.max(np.abs(Q.sum(axis=1) - 1.0)) > ROW_TOL:
            raise ValueError("Q rows must be probability vectors")
        pi.flags.writeable = False
        Q.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "Q", Q)

    @property
    def n(self) -> int:
        return self.pi.size

    def acceptance(self) -> np.ndarray:
        return finite_mh_acceptance(self.pi, self.Q)

    def perturbed_acceptance(self, perturbation: "AcceptancePerturbation") -> np.ndarray:
        alpha = self.acceptance()
        out = np.empty_like(alpha)
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = perturbation.alpha_tilde(alpha[i, j], i, j)
        return out

    def kernel(self, alpha: Optional[np.ndarray] = None) -> FiniteKernel:
        if alpha is None:
            alpha = self.acceptance()
        return finite_mh_kernel(self.space, self.Q, alpha)


def finite_mh_acceptance(pi: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """alpha[i,j] = min{1, pi_j Q_ji / (pi_i Q_ij)}, zero where pi_i Q_ij = 0.

    Computed through the symmetric flux min(A, A^T) with A = diag(pi) Q, so
    the resulting kernel satisfies detailed balance to rounding error.
    """
    pi = np.asarray(pi, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    A = pi[:, None] * Q
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(A > 0.0, np.minimum(A, A.T) / A, 0.0)
    return alpha


def finite_mh_kernel(space: FiniteMetricSpace, Q: np.ndarray,
                     alpha: np.ndarray) -> FiniteKernel:
    """P(x,y) = Q(x,y) alpha(x,y) off the diagonal; rejection mass stays put."""
    Q = np.asarray(Q, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < -1e-15) or np.any(alpha > 1.0 + 1e-15):
        raise ValueError("acceptance probabilities must lie in [0, 1]")
    P = Q * np.clip(alpha, 0.0, 1.0)
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return FiniteKernel(space, P)


# --------------------------------------------------------------------------
# acceptance perturbations


def _clipped_uniform_mean(alpha: float, s: float) -> float:
    """E[clip(alpha + U, 0, 1)] for U ~ Unif[-s, s]."""
    if s == 0.0:
        return alpha

    def anti(t: float) -> float:
        # antiderivative of clip(., 0, 1)
        if t <= 0.0:
            return 0.0
        if t <= 1.0:
            return 0.5 * t * t
        return t - 0.5

    return (anti(alpha + s) - anti(alpha - s)) / (2.0 * s)


@dataclass(frozen=True)
class AcceptancePerturbation:
    """How the perturbed chain's acceptance differs from alpha.

    Modes:
      none             alpha~ = alpha
      uniform-noise    threshold clip(alpha + U, 0, 1), |U| <= s
      randomized-ratio threshold min{1, R} with R ~ ratio_sampler(rng, x, y, u);
                       constants need the mean acceptance alpha_tilde_fn
      indicator-set    alpha~ = min{1, alpha + 1_{in_set}(x)}

    In the report path ``realized_threshold`` runs on whole replica
    clouds, so ``in_set(x)`` and ``ratio_sampler(rng, x, y, u)`` receive
    ndarrays there and must answer elementwise; the finite-space
    constants pass them state indices.
    """

    mode: str
    s: float = 0.0
    in_set: Optional[Callable] = None
    ratio_sampler: Optional[Callable] = None
    alpha_tilde_fn: Optional[Callable] = None

    _MODES = ("none", "uniform-noise", "randomized-ratio", "indicator-set")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ConfigError(f"unknown perturbation mode {self.mode!r}")
        _check_nonnegative(s=self.s)

    @classmethod
    def none(cls) -> "AcceptancePerturbation":
        return cls("none")

    @classmethod
    def uniform_noise(cls, s: float) -> "AcceptancePerturbation":
        return cls("uniform-noise", s=s)

    @classmethod
    def randomized_ratio(cls, sampler: Callable,
                         alpha_tilde: Optional[Callable] = None
                         ) -> "AcceptancePerturbation":
        return cls("randomized-ratio", ratio_sampler=sampler,
                   alpha_tilde_fn=alpha_tilde)

    @classmethod
    def indicator_set(cls, predicate: Callable) -> "AcceptancePerturbation":
        return cls("indicator-set", in_set=predicate)

    def alpha_tilde(self, alpha: float, x, y) -> float:
        """Mean perturbed acceptance probability at (x, y)."""
        if self.mode == "none":
            return alpha
        if self.mode == "uniform-noise":
            return _clipped_uniform_mean(alpha, self.s)
        if self.mode == "indicator-set":
            return min(1.0, alpha + (1.0 if self.in_set(x) else 0.0))
        if self.alpha_tilde_fn is None:
            raise ConfigError(
                "randomized-ratio constants need an alpha_tilde function")
        return float(self.alpha_tilde_fn(x, y))

    def eps(self, alpha: float, x, y) -> float:
        """E(x,y) = |alpha - alpha~|(x,y)."""
        return abs(self.alpha_tilde(alpha, x, y) - alpha)

    def realized_threshold(self, alpha, x, y, u, rng: np.random.Generator):
        """The acceptance threshold a perturbed step actually uses.

        Elementwise over floats or equal-shape ndarrays of alpha, x, y, u;
        uniform noise draws one value per entry of alpha from ``rng``.
        """
        if self.mode == "none":
            return alpha
        if self.mode == "uniform-noise":
            if self.s == 0.0:
                return alpha  # draw nothing: keeps streams aligned with mh_step
            noise = rng.uniform(-self.s, self.s, np.shape(alpha))
            return np.clip(alpha + noise, 0.0, 1.0)
        if self.mode == "indicator-set":
            return np.minimum(1.0, alpha + np.where(self.in_set(x), 1.0, 0.0))
        r = np.asarray(self.ratio_sampler(rng, x, y, u), dtype=np.float64)
        if np.any(r < 0.0):
            raise ValueError("ratio sampler returned a negative value")
        return np.minimum(1.0, r)


# --------------------------------------------------------------------------
# steppers


def mh_step(problem: MhProblem, x: float, rng: np.random.Generator) -> float:
    y = problem.proposal.sampler(rng, x)
    u = rng.random()
    return y if u < problem.acceptance(x, y) else x


def approx_mh_step(problem: MhProblem, perturbation: AcceptancePerturbation,
                   x: float, rng: np.random.Generator) -> float:
    y = problem.proposal.sampler(rng, x)
    u = rng.random()
    return float(_approx_accept(problem, perturbation, x, y, u, rng))


def _approx_accept(problem: MhProblem, perturbation: AcceptancePerturbation,
                   x, y, u, rng: np.random.Generator):
    """Perturbed accept/reject of proposals y from x, elementwise."""
    thr = perturbation.realized_threshold(problem.acceptance(x, y), x, y, u, rng)
    ok = (thr >= 0.0) & (thr <= 1.0)  # NaN fails both
    if not np.all(ok):
        bad = np.asarray(thr)[~np.asarray(ok)].flat[0]
        raise RuntimeError(f"acceptance threshold {bad} outside [0, 1]")
    return np.where(u < thr, y, x)


# --------------------------------------------------------------------------
# constants: gamma, delta_V, lambda


def _quad(f, lo: float, hi: float, kinks=()) -> float:
    # imported here, its one use: no ``wperturb run`` kind integrates, and
    # scipy.integrate is most of the package's import time
    from scipy import integrate

    pts = sorted(p for p in kinks if lo < p < hi)
    val, err = integrate.quad(f, lo, hi, epsabs=_QUAD_TOL, limit=200,
                              points=pts or None)
    # error cap scales with the value so huge-but-converged integrals
    # (the divergence guard's food) are not misreported as quad failures
    if err > max(10.0 * _QUAD_TOL, _QUAD_ERR_CAP) * max(1.0, abs(val)):
        raise RuntimeError(
            f"quadrature error estimate {err:.3e} too large on [{lo}, {hi}]")
    return val


def _line_support(problem: MhProblem, x: float) -> Tuple[float, float]:
    prop = problem.proposal
    if prop.density is None or prop.support is None:
        raise HypothesisViolation(
            "quadrature constants need a proposal density with compact support")
    lo, hi = prop.support(x)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise HypothesisViolation("proposal support must be a bounded interval")
    return lo, hi


def _sup_over_starts(problem: MhProblem, x_grid, name: str,
                     per_start: Callable[[float, float, float], float]) -> float:
    """max(0, max over x in x_grid of per_start(x, lo, hi)), where [lo, hi]
    carries all of Q(x, .); ``name`` labels the empty-grid ConfigError."""
    if x_grid is None or len(x_grid) == 0:
        raise ConfigError(f"line {name} needs a non-empty x_grid")
    best = 0.0
    for x in x_grid:
        x = float(x)
        lo, hi = _line_support(problem, x)
        best = max(best, per_start(x, lo, hi))
    return best


def _weight_values(V, problem: FiniteMhProblem) -> np.ndarray:
    if V is None:
        return np.ones(problem.n)
    if isinstance(V, WeightFunction):
        _require_same_points(problem=problem, V=V)
        return V.values
    v = _float_array(V, (problem.n,), "V")
    _check_positive(V=v.min())
    return v


def _finite_eps(problem: FiniteMhProblem,
                perturbation: AcceptancePerturbation) -> np.ndarray:
    alpha = problem.acceptance()
    return np.abs(problem.perturbed_acceptance(perturbation) - alpha)


def gamma_from_acceptance(problem, perturbation: AcceptancePerturbation,
                          Vt=None, x_grid=None) -> float:
    """sup_x of [integral d(x,y) E(x,y) Q(x,dy)] / Vt(x).

    Exact sums on a FiniteMhProblem (its metric space supplies d; x_grid is
    ignored).  On the line d(x,y) = |x - y| and the sup runs over x_grid,
    so the result is a lower bound of the true sup there; each integral is
    a quadrature to absolute tolerance ``_QUAD_TOL`` (1e-8).
    """
    if isinstance(problem, FiniteMhProblem):
        E = _finite_eps(problem, perturbation)
        v = _weight_values(Vt, problem)
        per_x = (problem.space.dist * E * problem.Q).sum(axis=1) / v
        return float(per_x.max())

    vt = Vt if Vt is not None else (lambda x: 1.0)

    def per_start(x: float, lo: float, hi: float) -> float:
        q = problem.proposal.density

        def integrand(y: float) -> float:
            a = problem.acceptance(x, y)
            return abs(y - x) * perturbation.eps(a, x, y) * q(x, y)

        # divide after integrating: 1/Vt(x) inside the integrand would
        # change the quadrature's rounding
        return _quad(integrand, lo, hi, kinks=(x,)) / float(vt(x))

    return _sup_over_starts(problem, x_grid, "gamma", per_start)


def delta_v_transfer(problem, perturbation: AcceptancePerturbation,
                     V=None, x_grid=None) -> float:
    """sup_z of integral (V(y)/V(z) + 1) E(z,y) Q(z,dy).

    Transfers a Lyapunov pair (delta, L) of the exact chain to the
    perturbed one: P~V <= (delta + delta_V) V + L, usable when
    delta + delta_V < 1.  On the line the sup runs over x_grid, each
    integral a quadrature to absolute tolerance ``_QUAD_TOL`` (1e-8).
    """
    if isinstance(problem, FiniteMhProblem):
        E = _finite_eps(problem, perturbation)
        v = _weight_values(V, problem)
        ratio = v[None, :] / v[:, None] + 1.0
        return float((ratio * E * problem.Q).sum(axis=1).max())

    vf = V if V is not None else (lambda x: 1.0)

    def per_start(z: float, lo: float, hi: float) -> float:
        q = problem.proposal.density
        vz = float(vf(z))

        def integrand(y: float) -> float:
            a = problem.acceptance(z, y)
            return (float(vf(y)) / vz + 1.0) * perturbation.eps(a, z, y) * q(z, y)

        return _quad(integrand, lo, hi, kinks=(z,))

    return _sup_over_starts(problem, x_grid, "delta_V", per_start)


def lambda_constant(problem, V=None, x_grid=None) -> float:
    """1 + sup_x of integral V(y)/V(x) Q(x,dy); invariant to scaling V.

    On the line the sup runs over x_grid, each integral a quadrature to
    absolute tolerance ``_QUAD_TOL`` (1e-8) with no breakpoint.
    """
    if isinstance(problem, FiniteMhProblem):
        v = _weight_values(V, problem)
        val = float(((v[None, :] / v[:, None]) * problem.Q).sum(axis=1).max())
    else:
        vf = V if V is not None else (lambda x: 1.0)

        def per_start(x: float, lo: float, hi: float) -> float:
            q = problem.proposal.density
            vx = float(vf(x))
            return _quad(lambda y: float(vf(y)) / vx * q(x, y), lo, hi)

        val = _sup_over_starts(problem, x_grid, "lambda", per_start)
    if not val < _LAMBDA_CAP:
        raise HypothesisViolation("lambda integral appears divergent")
    return 1.0 + val


# --------------------------------------------------------------------------
# bounds


def metro_geom_bound(C: float, rho: float, n, s: float, lam: float,
                     delta: float, L: float, p0_V: float) -> float:
    """V-norm gap of exact vs perturbed MH after n steps, |alpha-alpha~| <= s.

    ``geom2_bound`` with gamma = lam s and w0 = 0, so kappa = max{p0_V,
    L/(1-delta-lam s)}.  Requires s < (1 - delta)/lam, and C >= 1 since
    tau(P^0) = 1.
    """
    _check_C(C)
    if not lam >= 1.0:
        raise ValueError("lam must be at least 1")
    _check_positive(L=L)
    _check_V_mean(p0_V=p0_V)
    # before geom2's gamma + delta < 1, whose boundary rounds differently
    if s >= (1.0 - delta) / lam:
        raise HypothesisViolation(
            f"need s < (1 - delta)/lam = {(1.0 - delta) / lam:.6g}, got {s:.6g}")
    return geom2_bound(C, rho, n, 0.0, lam * s, delta, L, p0_V)


def independent_mh_perturbation_bound(C: float, rho: float, mu_Gt: float,
                                      D_Gt: float) -> float:
    """Limit bound for an independence sampler accepting blindly on a set.

    The proposal is a fixed measure mu; the perturbed chain accepts every
    proposal launched from the set; mu_Gt is the set's mu-mass and D_Gt the
    sup over the set of the mean distance to a mu-draw.
    """
    _check_C(C)
    _check_unit(rho=rho)
    if not 0.0 <= mu_Gt <= 1.0:
        raise ValueError("mu_Gt must lie in [0, 1]")
    _check_nonnegative(D_Gt=D_Gt)
    return C * mu_Gt * D_Gt / (1.0 - rho)


# --------------------------------------------------------------------------
# end-to-end report


@dataclass(frozen=True)
class MetroGeomConstants:
    """User-certified inputs to metro_geom_bound plus the start point."""

    C: float
    rho: float
    delta: float
    L: float
    lam: float
    s: float
    p0_V: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        # range checks live in metro_geom_bound; fail early on the ones
        # that would otherwise surface mid-simulation
        metro_geom_bound(self.C, self.rho, 1, self.s, self.lam, self.delta,
                         self.L, self.p0_V)


def _simulate_pair(problem: MhProblem, perturbation: AcceptancePerturbation,
                   x0: float, n: int, replicas: int, seed: int):
    """Coupled paths of both chains, every replica stepped at once.

    Step k reads two streams.  ``philox(seed, 0, k)`` gives the acceptance
    uniforms of all replicas and then their proposal draws; it is rewound
    after the exact chain's proposals, so the perturbed chain replays the
    same draws (the same increments, for a random-walk proposal) and the
    same uniforms.  The perturbed chain's threshold noise comes from
    ``philox(seed, 1, k)``.  With no perturbation, or zero noise, the two
    paths are therefore identical.
    """
    sampler = problem.proposal.sampler

    def step(k, x, xt):
        shared = philox(seed, 0, k)
        u = shared.random(replicas)
        start = shared.bit_generator.state
        y = sampler(shared, x)
        shared.bit_generator.state = start
        yt = sampler(shared, xt)
        return (np.where(u < problem.acceptance(x, y), y, x),
                _approx_accept(problem, perturbation, xt, yt, u,
                               philox(seed, 1, k)))

    xs, xts = zip(*coupled_steps(step, x0, n, replicas))
    return np.stack(xs), np.stack(xts)


def mh_metro_geom_report(problem: MhProblem,
                         perturbation: AcceptancePerturbation,
                         constants: MetroGeomConstants, n: int,
                         samples: int, seed: int) -> PerturbationReport:
    """Empirical W1 between exact and perturbed chains against the bound.

    Plain |x - y| Wasserstein per step; whenever V(x) >= |x| the V-norm
    bound dominates it, so the comparison is sound for the usual
    exponential-type weights.  distance_se is the cloud-spread proxy
    described at ``otcore.empirical_w1_clouds``.

    The clouds come from ``_simulate_pair``, keyed per step: the chains
    share each step's proposal draws and acceptance uniforms (stream
    role 0) and the perturbed chain's threshold noise has its own stream
    (role 1).  Output is byte-reproducible for a seed; the per-step keying
    replaced a per-(replica, step) one, which changed every value once.
    """
    _check_count(2, samples=samples)
    xs, xts = _simulate_pair(problem, perturbation, constants.x0, n,
                             samples, seed)
    ns = np.arange(1, n + 1)
    dists, ses = np.array([empirical_w1_clouds(x, xt)
                           for x, xt in zip(xs, xts)]).T
    # the constants passed metro_geom_bound's checks when they were built;
    # row n is metro_geom_bound at n bit for bit
    rows = _geom2_rows(constants.C, constants.rho, ns.tolist(),
                       constants.lam * constants.s, constants.delta,
                       constants.L, constants.p0_V)
    meta = {"C": constants.C, "rho": constants.rho, "delta": constants.delta,
            "L": constants.L, "lam": constants.lam, "s": constants.s,
            "p0_V": constants.p0_V, "x0": constants.x0,
            "replicas": float(samples), "seed": float(seed)}
    return PerturbationReport("metro_geom", ns, dists, rows(0.0), meta,
                              distance_se=ses)
