"""Perturbation bounds for Markov chains and their exact finite-space verifier.

Given an unperturbed kernel P with a geometric ergodicity certificate
tau(P^n) <= C rho^n and a perturbed kernel with a drift condition
(Pt V)(x) <= delta V(x) + L, the n-step Wasserstein distance between the
two chains is controlled by

    C (rho^n W(p0, pt0) + (1 - rho^n) gamma kappa / (1 - rho)),

where gamma measures the one-step perturbation relative to V and
kappa = max{pt0(V), L/(1-delta)}.  The variants differ in which metric
the distance is measured in (base metric, V-weighted norm, or total
variation) and in how gamma enters; the total-variation variant carries
the characteristic gamma*log(1/gamma) dependence and is only valid for
gamma below exp(-1).  All logarithms are natural.

``verify_on_finite`` closes the loop: it fits every constant exactly on
a finite instance, evolves both chains, and tabulates exact distance
against bound, step by step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ._checks import _check_C, _check_count, _check_horizon, _check_nonnegative
from ._checks import _check_unit, _check_V_mean, _require_same_points
from .errors import HypothesisViolation
from .kernels import (
    DriftCheck,
    DriftEstimate,
    FiniteKernel,
    _walk,
    fit_drift_L,
    fit_geometric_constants,
    kernel_gamma_tv,
    kernel_gamma_vnorm,
    kernel_gamma_wasserstein,
    stationary_distribution,
    verify_drift,
)
from .otcore import DiscreteDistribution, FiniteMetricSpace, WeightFunction
from .otcore import _tv, _vnorm, _w1

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the n-step perturbation bound."""

    C: float
    rho: float
    delta: float
    L: float
    gamma: float
    kappa: float
    n: Union[int, float]  # nonnegative integer, or math.inf for the limit
    w0: float

    def __post_init__(self):
        _check_unit(rho=self.rho, delta=self.delta)
        _check_C(self.C)
        _check_nonnegative(L=self.L, gamma=self.gamma, w0=self.w0)
        _check_V_mean(kappa=self.kappa)
        _check_horizon(self.n)


def kappa(p0_V: float, L: float, delta: float) -> float:
    """max{pt0(V), L/(1-delta)}: the mass scale entering every bound."""
    _check_unit(delta=delta)
    _check_V_mean(p0_V=p0_V)
    _check_nonnegative(L=L)
    return max(p0_V, L / (1.0 - delta))


def thm31_bound(inputs: BoundInputs) -> float:
    """n-step Wasserstein perturbation bound from (C, rho, gamma, kappa)."""
    # float(n), the operand Python's ** takes for an int n: a numpy integer
    # n would take numpy's power, which rounds some n otherwise
    return _thm31(inputs, inputs.rho ** float(inputs.n), inputs.w0)


def _thm31(i: BoundInputs, rn, w0):
    """thm31_bound with rho^n and w0 given (the w0 of ``i`` is not read);
    rho^n is a float, or an array of one per row."""
    return i.C * (rn * w0 + (1.0 - rn) * i.gamma * i.kappa / (1.0 - i.rho))


def stationary_wasserstein_bound(C: float, rho: float, gamma: float,
                                 L: float, delta: float) -> float:
    """W(pi, pit) <= gamma C/(1-rho) * L/(1-delta)."""
    _check_unit(rho=rho, delta=delta)
    _check_C(C)
    _check_nonnegative(gamma=gamma, L=L)
    return gamma * C / (1.0 - rho) * L / (1.0 - delta)


def geom2_bound(C: float, rho: float, n, w0: float, gamma: float,
                delta: float, L: float, p0_V: float) -> float:
    """Single-weight V-norm bound; needs the strengthened margin gamma + delta < 1."""
    return thm31_bound(_geom2_inputs(C, rho, n, w0, gamma, delta, L, p0_V))


def _geom2_inputs(C, rho, n, w0, gamma, delta, L, p0_V) -> BoundInputs:
    if gamma + delta >= 1.0:
        raise HypothesisViolation(
            f"gamma + delta = {gamma + delta:.6f} >= 1; the single-weight "
            "corollary needs gamma + delta < 1"
        )
    k = max(p0_V, L / (1.0 - delta - gamma))
    return BoundInputs(C=C, rho=rho, delta=delta, L=L, gamma=gamma, kappa=k, n=n, w0=w0)


_INV_E = math.exp(-1.0)


def _geom3_gamma_factor(C: float, rho: float, gamma_tv: float, delta: float,
                        L: float) -> float:
    _check_unit(delta=delta, rho=rho)
    _check_C(C)
    _check_nonnegative(L=L)
    if not (0.0 < gamma_tv < _INV_E):
        raise HypothesisViolation(
            f"gamma_tv = {gamma_tv!r} outside (0, exp(-1)); the total-variation "
            "bound is only valid on that interval"
        )
    ln_inv = math.log(1.0 / gamma_tv)
    base = 2.0 * C * (L + 1.0)
    return base ** (1.0 / ln_inv) * gamma_tv * ln_inv


def geom3_bound(C: float, rho: float, n, w0_vnorm: float, gamma_tv: float,
                delta: float, L: float, kappa: float) -> float:
    """Total-variation perturbation bound with the gamma log(1/gamma) rate.

    Valid for gamma_tv in (0, exp(-1)); requires the double drift condition
    (perturbed kernel with delta, unperturbed with coefficient 1) which the
    caller certifies.  w0_vnorm is the initial distance in the V-norm.
    """
    _check_nonnegative(w0_vnorm=w0_vnorm)
    _check_V_mean(kappa=kappa)
    _check_horizon(n)
    limit = _geom3_limit(C, rho, gamma_tv, delta, L, kappa)
    return C * rho ** float(n) * w0_vnorm + limit  # float(n): see thm31_bound


def _geom3_limit(C, rho, gamma_tv, delta, L, kappa) -> float:
    """The n-free term of geom3_bound, after checking its hypotheses."""
    factor = _geom3_gamma_factor(C, rho, gamma_tv, delta, L)
    return kappa * math.e / (1.0 - rho) * factor


def geom3_stationary_bound(C: float, rho: float, gamma_tv: float,
                           delta: float, L: float) -> float:
    """||pi - pit||_tv bound; equals geom3_bound with w0 = 0, kappa = L/(1-delta)."""
    factor = _geom3_gamma_factor(C, rho, gamma_tv, delta, L)
    return L / ((1.0 - delta) * (1.0 - rho)) * math.e * factor


def geom4_bound(base: float, rho: float, kappa: float, K: float, N: float) -> float:
    """Monte-Carlo budget form: bound when gamma <= K log(N)/N.

    ``base`` is the 2C(L+1) constant of the total-variation bound (callers
    with a different drift pair pass their own).  Requires N > 6 K^(3/2).
    """
    _check_unit(rho=rho)
    _check_V_mean(kappa=kappa)
    if not K >= 1.0:
        raise HypothesisViolation(f"K = {K} < 1; the budget constant must be >= 1")
    if not N > 6.0 * K ** 1.5:
        raise HypothesisViolation(
            f"N = {N} <= 6 K^(3/2) = {6.0 * K ** 1.5:.6g}; sample size too small "
            "for gamma to enter the valid range"
        )
    if not base >= 1.0:
        raise ValueError("base = 2C(L+1) must be >= 1")
    lnN = math.log(N)
    return 3.0 * kappa * base ** (2.0 / lnN) / (1.0 - rho) * K * lnN ** 2 / N


@dataclass
class PerturbationReport:
    """Per-step table of exact (or empirical) distance against a bound."""

    theorem: str
    ns: np.ndarray
    distances: np.ndarray
    bounds: np.ndarray
    constants: dict = field(default_factory=dict)
    # set when distances are Monte Carlo estimates; verified() then allows
    # a 3-sigma margin per row instead of the exact tolerance alone
    distance_se: Optional[np.ndarray] = None

    @property
    def slack(self) -> np.ndarray:
        return self.bounds - self.distances

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    def verified(self, tol: float = SLACK_TOL) -> bool:
        margin = tol if self.distance_se is None else tol + 3.0 * self.distance_se
        return bool(np.all(self.slack >= -margin))

    def to_csv(self) -> str:
        # repr(float) is the shortest decimal that round-trips exactly
        cols = {"distance": self.distances, "bound": self.bounds,
                "slack": self.slack, "distance_se": self.distance_se}
        cols = {k: v for k, v in cols.items() if v is not None}
        lines = [",".join(["n", *cols])]
        for n, *vals in zip(self.ns, *cols.values()):
            lines.append(",".join([str(int(n)), *(repr(float(v)) for v in vals)]))
        return "\n".join(lines) + "\n"


# Every row of a report at once, in two steps: (C, rho, ns, gamma, delta,
# L, p0_V) checks the constants and the theorem's hypotheses and returns
# rows(w0), one bound per n in ns.  So a hypothesis that fails raises
# before any chain is evolved or w0 is measured, and w0 can be read off
# the distance table afterwards.  The rows differ only in rho^n, taken by
# the scalar ** for each Python int n (a numpy array power rounds some n
# otherwise), and share the public scalar formula, so row n is the scalar
# bound at n bit for bit.
def _thm31_at(inputs: BoundInputs, ns) -> Callable:
    """rows(w0) for thm31_bound, from inputs checked with a placeholder w0;
    rows checks only the w0 it is given."""
    pows = np.array([inputs.rho ** n for n in ns])

    def rows(w0):
        _check_nonnegative(w0=w0)
        return _thm31(inputs, pows, w0)
    return rows


def _thm31_rows(C, rho, ns, gamma, delta, L, p0_V):
    return _thm31_at(BoundInputs(C=C, rho=rho, delta=delta, L=L, gamma=gamma,
                                 kappa=kappa(p0_V, L, delta), n=ns[-1], w0=0.0), ns)


def _geom2_rows(C, rho, ns, gamma, delta, L, p0_V):
    return _thm31_at(_geom2_inputs(C, rho, ns[-1], 0.0, gamma, delta, L, p0_V), ns)


def _geom3_rows(C, rho, ns, gamma, delta, L, p0_V):
    limit = _geom3_limit(C, rho, gamma, delta, L, kappa(p0_V, L, delta))
    pows = np.array([rho ** n for n in ns])
    return lambda w0: C * pows * w0 + limit


def _stationary_rows(C, rho, ns, gamma, delta, L, p0_V):
    rows = np.array([stationary_wasserstein_bound(C, rho, gamma, L, delta)])
    return lambda w0: rows


def _geom3_stationary_rows(C, rho, ns, gamma, delta, L, p0_V):
    rows = np.array([geom3_stationary_bound(C, rho, gamma, delta, L)])
    return lambda w0: rows


# per distance: (distances between the rows of two lists of weight rows,
# one-step gamma), both taking the metric object.  The distances are the
# weight-level functions behind wasserstein1_exact, vnorm_distance and
# total_variation, so a report holds the public values bit for bit without
# building a law per step.  W1 and TV measure the whole stack in one call:
# _w1 solves it run by run, and a stacked TV sums each row as it sums
# alone.  The V-norm goes row by row, because a stacked product
# |P - Q| @ v rounds otherwise than the one-row v @ |p - q| (it differed
# in the last bit on most random stacks).  gamma goes through the module
# name, so a tracer or test that rebinds it sees every call
_W1 = (lambda P, Q, metric: _w1(np.array(P), np.array(Q), metric)[0],
       lambda P, Pt, metric, Vt: kernel_gamma_wasserstein(P, Pt, metric, Vt))
_VNORM = (lambda P, Q, V: np.array([_vnorm(p, q, V.values) for p, q in zip(P, Q)]),
          kernel_gamma_vnorm)
_TV = (lambda P, Q, _: _tv(np.array(P), np.array(Q)),
       lambda P, Pt, _, Vt: kernel_gamma_tv(P, Pt, Vt))


class _Variant(NamedTuple):
    """One ``which`` selector; see the table in ``verify_on_finite``."""

    slot: Optional[type]  # what the metric slot takes; None means Vt itself
    measure: tuple        # distance and gamma: _W1, _VNORM or _TV
    unit_weight: bool     # drift weight 1 instead of Vt
    drift: str            # 'Pt', 'P', or 'both': Pt, L raised to P's one-step gap
    w0: Optional[tuple]   # measure of the start laws' gap; None: stationary laws
    bound: Callable       # (C, rho, ns, gamma, delta, L, p0_V) -> rows(w0)


_VARIANTS = {
    "thm31": _Variant(FiniteMetricSpace, _W1, False, "Pt", _W1, _thm31_rows),
    "v1": _Variant(FiniteMetricSpace, _W1, True, "Pt", _W1, _thm31_rows),
    "stationary": _Variant(FiniteMetricSpace, _W1, False, "Pt", None, _stationary_rows),
    "geom1": _Variant(WeightFunction, _VNORM, False, "Pt", _VNORM, _thm31_rows),
    "geom2": _Variant(None, _VNORM, False, "P", _VNORM, _geom2_rows),
    "geom3": _Variant(None, _TV, False, "both", _VNORM, _geom3_rows),
    "geom3_stationary": _Variant(None, _TV, False, "both", None, _geom3_stationary_rows),
}
WHICH_CHOICES = tuple(_VARIANTS)


def _metric_slot(which: str, space: FiniteMetricSpace, V: WeightFunction):
    """What ``which`` takes in the metric slot, given a space and a weight."""
    return {FiniteMetricSpace: space, WeightFunction: V, None: None}[_VARIANTS[which].slot]


# Fits, gammas, drift constants with their checks, the unit weight, the
# stationary laws, the walks and the distance tables of the instances
# verified last, keyed on the function and every argument, so that the
# seven variants of one instance share them across calls.  Kernels,
# spaces, weight functions and laws copy their input, are read-only and
# hash by identity; the cache holds its keys, so no cached id is reused.
# One instance needs at most 17 entries (three fits, five gammas, four
# drifts, the unit weight, two stationary laws and their two tables),
# plus 5 for each pair of start laws and n_max it is walked from (the
# walks and four tables; the powers of rho are not kept).  A sweep
# instance, with V as Vt, takes 23: 19 for the probe at n_max = 0 and 4
# more at n_max = 30, so 64 entries hold one instance even in the worst
# case of 17 + 2 * 5.
@functools.lru_cache(maxsize=64)
def _once(fn, *args):
    return fn(*args)


def _drift(K: FiniteKernel, Q: Optional[FiniteKernel], Vt: WeightFunction,
           delta: float) -> tuple[float, DriftCheck]:
    """L of the drift condition on K at ``delta``, raised to Q's one-step
    gap ``max(Q Vt - Vt)`` when Q is given, and its check on K.

    The check is returned, not raised, so that the caller raises on every
    call whose drift fails, memo hit or not.
    """
    if Q is None:
        L = fit_drift_L(K, Vt, delta)
    else:
        # raised from the fit on K alone, which the unraised variants keep
        L = max(_once(_drift, K, None, Vt, delta)[0],
                float(np.max(Q.apply_to_function(Vt.values) - Vt.values)), 1e-12)
    return L, verify_drift(K, DriftEstimate(Vt, delta, L))


def _walks(P: FiniteKernel, Pt: FiniteKernel, p0: DiscreteDistribution,
           pt0: DiscreteDistribution, n_max: int):
    """Both chains as weight rows, as ``trajectory`` evolves them, n = 0..n_max."""
    return _walk(p0.weights, P.matrix, n_max), _walk(pt0.weights, Pt.matrix, n_max)


def _table(distance: Callable, metric, P: FiniteKernel, Pt: FiniteKernel,
           start: Optional[tuple]) -> np.ndarray:
    """``distance`` between the laws of the two chains under ``metric``.

    One row per step n = 0..n_max of the shared walks from ``start =
    (p0, pt0, n_max)``, or one row between the stationary laws when
    ``start`` is None.  Both walks go to ``distance`` as two lists of K
    rows in one call (in slices only when their plans would pass 16 MiB),
    and W1 hands them to ``otcore._w1`` as two stacks, which solves the
    table run by run: the rows of a run share their excess and deficit
    supports, and most of them are answered from the optimal tree of an
    earlier row (see ``otcore._w1`` and ``_transport.solve``).
    """
    if start is None:
        rows = ([_once(stationary_distribution, P).weights],
                [_once(stationary_distribution, Pt).weights])
    else:
        rows = _once(_walks, P, Pt, *start)
    # a W1 call returns a dense plan per row: slices of at most 16 MiB of
    # plans keep a long walk on a large space from holding all of them
    step = max(1, (16 << 20) // (8 * P.space.size ** 2))
    return np.concatenate([distance(rows[0][k:k + step], rows[1][k:k + step], metric)
                           for k in range(0, len(rows[0]), step)])


def verify_on_finite(P: FiniteKernel, Pt: FiniteKernel,
                     metric: Union[FiniteMetricSpace, WeightFunction, None],
                     Vt: WeightFunction,
                     p0: DiscreteDistribution, pt0: DiscreteDistribution,
                     n_max: int, which: str,
                     *, delta: float = 0.5, m: int = 2) -> PerturbationReport:
    """Exact end-to-end check of one perturbation theorem on a finite pair.

    Every constant is fitted on the instance itself (ergodicity via
    fit_geometric_constants at horizon ``m``, drift L via fit_drift_L at
    the given ``delta``, gamma via the matching kernel_gamma_*), then the
    exact per-step distances, measured as gamma is, are tabulated against
    the bound.  ``which`` selects (gamma divides by the drift weight):

      which             metric slot        tau fitted under  gamma    drift on
      thm31             FiniteMetricSpace  the space         W1       Pt, Vt
      v1                FiniteMetricSpace  the space         W1       Pt, 1
      stationary        FiniteMetricSpace  the space         W1       Pt, Vt
      geom1             WeightFunction V   d_V               V-norm   Pt, Vt
      geom2             None (or Vt)       d_Vt              Vt-norm  P, Vt
      geom3             None (or Vt)       d_Vt              TV       Pt and P, Vt
      geom3_stationary  None (or Vt)       d_Vt              TV       Pt and P, Vt

    thm31, v1 and geom1 check thm31_bound, geom2 geom2_bound and geom3
    geom3_bound (w0 in the Vt-norm; L is raised to P's one-step gap).
    Stationary variants compare the stationary laws in one n = -1 row.

    The fits, the gammas, the drift constant L with its check, the
    stationary laws, the walks of both chains and the distance tables of
    the instances verified last are kept, keyed on the kernel, metric,
    weight and law objects themselves and on ``delta`` and ``n_max``, so
    the calls for the seven variants of one instance compute each of
    them once: thm31 and v1 share one W1 table, and geom1 and geom2 one
    V-norm table when the slot's V is ``Vt``.  The powers P^j that the
    fits take live on P, so the fits under every metric share them, and
    tau's candidate pairs live on the space.  A check that fails is kept
    with its result and raises again on every call.

    Raises ValueError unless ``n_max`` is a nonnegative integer, and
    HypothesisViolation (or a subclass) when the selected theorem's
    standing hypotheses fail on this instance, before either chain is
    evolved.
    """
    _check_count(0, n_max=n_max)
    if which not in _VARIANTS:
        raise ValueError(f"unknown theorem selector {which!r}; pick from {WHICH_CHOICES}")
    if not P.space.same_points(Pt.space):
        raise HypothesisViolation("kernels must share one point set")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    row = _VARIANTS[which]
    if row.slot is None:
        if metric is not None and metric is not Vt:
            raise ValueError(f"{which} is a single-weight bound; pass metric=None")
        metric = Vt
    elif not isinstance(metric, row.slot):
        raise ValueError(f"{which} needs a {row.slot.__name__} in the metric slot")
    if row.unit_weight:
        Vt = _once(WeightFunction.ones, P.space)

    est = _once(fit_geometric_constants, P, metric, m, m)
    distance, gamma_of = row.measure
    gamma = _once(gamma_of, P, Pt, metric, Vt)
    L, check = _once(_drift, P if row.drift == "P" else Pt,
                     P if row.drift == "both" else None, Vt, delta)
    if not check.ok:
        raise HypothesisViolation(f"drift condition fails at index {check.worst_index} "
                                  f"(slack {check.worst_slack:.3e})")

    p0_V = pt0.expectation(Vt.values)
    constants = {"C": est.C, "rho": est.rho, "delta": delta, "L": L,
                 "gamma": gamma, "p0_V": p0_V, "m": m,
                 "metric_tag": est.metric_tag}
    if row.w0 is None:
        ns, start = np.array([-1]), None
    else:
        _require_same_points(P=P, p0=p0, pt0=pt0)
        ns = np.arange(n_max + 1)
        start = (p0, pt0, n_max)
    # every bound's checks first, so that one whose hypotheses fail raises
    # before evolving
    rows = row.bound(est.C, est.rho, ns.tolist(), gamma, delta, L, p0_V)
    # a copy: the table stays in the memo for the other variants
    distances = _once(_table, distance, metric, P, Pt, start).copy()
    w0 = None
    if row.w0 is row.measure:
        # the table's row 0 is this distance between the start laws
        w0 = constants["w0"] = float(distances[0])
    elif row.w0 is not None:
        w0 = constants["w0"] = float(row.w0[0]([p0.weights], [pt0.weights], metric)[0])
    return PerturbationReport(which, ns, distances, rows(w0), constants)
