"""Bound formulas against hand-evaluated values, plus the finite verifier.

Expected numbers below were computed independently (30-digit arithmetic
on the displayed formulas) and frozen.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wperturb.bounds import (
    WHICH_CHOICES,
    BoundInputs,
    PerturbationReport,
    _metric_slot,
    geom2_bound,
    geom3_bound,
    geom3_stationary_bound,
    geom4_bound,
    kappa,
    stationary_wasserstein_bound,
    thm31_bound,
    verify_on_finite,
)
from wperturb import _transport, bounds, kernels
from wperturb.cli import generate_random_instance
from wperturb.errors import HypothesisViolation, SpaceMismatchError
from wperturb.kernels import FiniteKernel, stationary_distribution, trajectory
from wperturb.otcore import (
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    total_variation,
    trivial_metric,
    vnorm_distance,
    wasserstein1_exact,
)


def make_instance(seed, n=5, mix=0.5, eps=0.05):
    """Random contractive kernel pair passing all theorem hypotheses."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    while np.min(dist[~np.eye(n, dtype=bool)]) <= 1e-6:
        pts = rng.normal(size=(n, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    sp = FiniteMetricSpace(range(n), dist)
    raw = rng.dirichlet(np.ones(n), size=n)
    common = rng.dirichlet(np.ones(n))
    P = (1.0 - mix) * raw + mix * common[None, :]
    # TV-contraction does not imply contraction under an arbitrary metric;
    # blend further toward the common row until tau under sp is safely < 1
    from wperturb.kernels import tau as tau_base
    t = tau_base(FiniteKernel(sp, P), sp)
    if t >= 0.75:
        theta = 1.0 - 0.6 / t
        P = (1.0 - theta) * P + theta * common[None, :]
    Pt = (1.0 - eps) * P + eps * rng.dirichlet(np.ones(n), size=n)
    V = WeightFunction(sp, 1.0 + rng.uniform(0.0, 2.0, size=n))
    Vt = WeightFunction(sp, 1.0 + rng.uniform(0.0, 2.0, size=n))
    p0 = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
    pt0 = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
    return (FiniteKernel(sp, P), FiniteKernel(sp, Pt), sp, V, Vt, p0, pt0)


# ------------------------------------------------------------------ formulas


def test_kappa_hand_values():
    assert kappa(1.0, 0.5, 0.5) == pytest.approx(1.0)
    assert kappa(5.0, 1.0, 0.5) == pytest.approx(5.0)
    assert kappa(1.0, 3.0, 0.5) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        kappa(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kappa(0.5, 1.0, 0.5)


def test_thm31_hand_value():
    b = thm31_bound(BoundInputs(C=2, rho=0.5, delta=0.5, L=1.0,
                                gamma=0.1, kappa=4, n=3, w0=1.0))
    assert b == pytest.approx(1.65, abs=1e-12)


def test_thm31_degenerate_and_limit():
    zero = thm31_bound(BoundInputs(C=2, rho=0.5, delta=0.5, L=1.0,
                                   gamma=0.0, kappa=1, n=5, w0=0.0))
    assert zero == 0.0
    lim = thm31_bound(BoundInputs(C=2, rho=0.5, delta=0.5, L=1.0,
                                  gamma=0.1, kappa=4, n=math.inf, w0=1.0))
    assert lim == pytest.approx(2 * 0.1 * 4 / 0.5, abs=1e-12)


def test_thm31_takes_rho_to_the_n_correctly_rounded():
    # with C = w0 = 1 and gamma = 0 the bound is rho^n itself: Python's **,
    # within 1 ulp of the exact power
    rng = np.random.default_rng(30)
    for rho, n in zip(rng.random(3000).tolist(), rng.integers(0, 64, 3000).tolist()):
        b = thm31_bound(BoundInputs(C=1, rho=rho, delta=0.5, L=0, gamma=0, kappa=1,
                                    n=n, w0=1))
        assert b == rho ** n, (rho, n)
        assert abs(Fraction(b) - Fraction(rho) ** n) <= Fraction(math.ulp(b)), (rho, n)
        # a numpy integer n gives the same bits (numpy's own power rounds
        # some n otherwise); geom3's limit term is far below rho^n here
        assert thm31_bound(BoundInputs(C=1, rho=rho, delta=0.5, L=0, gamma=0, kappa=1,
                                       n=np.int64(n), w0=1)) == b, (rho, n)
        assert (geom3_bound(1.0, rho, np.int64(n), 1.0, 1e-300, 0.5, 1.0, 1.0)
                == geom3_bound(1.0, rho, n, 1.0, 1e-300, 0.5, 1.0, 1.0)), (rho, n)


@settings(max_examples=200)
@given(
    st.floats(1.0, 10.0), st.floats(0.0, 0.99), st.floats(0.0, 5.0),
    st.floats(1.0, 10.0), st.floats(0.0, 5.0), st.integers(0, 60),
)
def test_thm31_monotone_in_each_argument(C, rho, gamma, kap, w0, n):
    def val(**kw):
        args = dict(C=C, rho=rho, delta=0.5, L=1.0, gamma=gamma,
                    kappa=kap, n=n, w0=w0)
        args.update(kw)
        return thm31_bound(BoundInputs(**args))

    base = val()
    assert val(gamma=gamma + 0.5) >= base
    assert val(kappa=kap + 0.5) >= base
    assert val(C=C + 0.5) >= base
    assert val(w0=w0 + 0.5) >= base
    assert val(rho=rho + (1.0 - rho) / 2) >= base - 1e-12


def test_stationary_bound_hand_value_and_linearity():
    assert stationary_wasserstein_bound(1, 0.5, 0.1, 1.0, 0.5) == pytest.approx(0.4)
    assert stationary_wasserstein_bound(1, 0.5, 0.0, 1.0, 0.5) == 0.0
    one = stationary_wasserstein_bound(2, 0.3, 0.1, 1.5, 0.4)
    two = stationary_wasserstein_bound(2, 0.3, 0.2, 1.5, 0.4)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_geom2_hand_value_and_threshold():
    b = geom2_bound(1, 0.5, math.inf, 0.0, 0.1, 0.5, 1.0, 1.0)
    assert b == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(HypothesisViolation):
        geom2_bound(1, 0.5, 10, 0.0, 0.6, 0.5, 1.0, 1.0)
    # gamma = 0 reduces to thm31 with kappa = max{p0_V, L/(1-delta)}
    assert geom2_bound(2, 0.5, 4, 1.0, 0.0, 0.5, 1.0, 1.0) == pytest.approx(
        thm31_bound(BoundInputs(C=2, rho=0.5, delta=0.5, L=1.0,
                                gamma=0.0, kappa=2.0, n=4, w0=1.0)))


def test_geom3_hand_value():
    b = geom3_bound(C=1, rho=0.5, n=4, w0_vnorm=0.0, gamma_tv=0.1,
                    delta=0.5, L=1.0, kappa=2.0)
    assert b == pytest.approx(4.5713186342698322, abs=1e-12)


def test_geom3_threshold_discipline():
    inv_e = math.exp(-1.0)
    with pytest.raises(HypothesisViolation):
        geom3_bound(1, 0.5, 4, 0.0, 0.5, 0.5, 1.0, 2.0)
    with pytest.raises(HypothesisViolation):
        geom3_bound(1, 0.5, 4, 0.0, inv_e, 0.5, 1.0, 2.0)
    with pytest.raises(HypothesisViolation):
        geom3_bound(1, 0.5, 4, 0.0, 0.0, 0.5, 1.0, 2.0)
    assert math.isfinite(geom3_bound(1, 0.5, 4, 0.0, inv_e - 1e-12, 0.5, 1.0, 2.0))


def test_geom3_vanishes_with_gamma():
    vals = [geom3_bound(1, 0.5, 4, 0.0, g, 0.5, 1.0, 2.0)
            for g in (1e-2, 1e-4, 1e-8, 1e-12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_geom3_stationary_hand_value_and_substitution():
    b = geom3_stationary_bound(C=1, rho=0.5, gamma_tv=0.1, delta=0.5, L=1.0)
    assert b == pytest.approx(4.5713186342698322, abs=1e-12)
    # equals geom3_bound with w0 = 0 and kappa = L/(1-delta)
    assert b == pytest.approx(
        geom3_bound(1, 0.5, 123, 0.0, 0.1, 0.5, 1.0, 1.0 / 0.5), abs=1e-14)


def test_geom4_hand_value_and_threshold():
    b = geom4_bound(base=4.0, rho=0.5, kappa=2.0, K=1.0, N=1000.0)
    assert b == pytest.approx(0.85540021331907808, abs=1e-12)
    with pytest.raises(HypothesisViolation):
        geom4_bound(4.0, 0.5, 2.0, 1.0, 6.0)  # N = 6 <= 6 K^(3/2)
    with pytest.raises(HypothesisViolation):
        geom4_bound(4.0, 0.5, 2.0, 0.5, 100.0)
    for rho in (1.0, -0.1, math.nan):  # a rate, like every other bound's
        with pytest.raises(ValueError, match="rho must lie in"):
            geom4_bound(4.0, rho, 2.0, 1.0, 1000.0)
    # vanishes as N grows
    assert geom4_bound(4.0, 0.5, 2.0, 1.0, 1e12) < 1e-7


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(C=1, rho=1.0, delta=0.5, L=1, gamma=0, kappa=1, n=1, w0=0)
    with pytest.raises(ValueError):
        BoundInputs(C=1, rho=0.5, delta=0.5, L=1, gamma=-0.1, kappa=1, n=1, w0=0)
    with pytest.raises(ValueError):
        BoundInputs(C=1, rho=0.5, delta=0.5, L=1, gamma=0, kappa=0.5, n=1, w0=0)
    with pytest.raises(ValueError):
        BoundInputs(C=1, rho=0.5, delta=0.5, L=1, gamma=0, kappa=1, n=1.5, w0=0)


def test_bound_inputs_require_C_at_least_one():
    # tau(P^0) = 1, so no ergodicity constant below 1 can hold at n = 0
    with pytest.raises(ValueError, match="C must be at least 1"):
        BoundInputs(C=0.5, rho=0.5, delta=0.5, L=1, gamma=0.1, kappa=1, n=1, w0=0)
    ok = BoundInputs(C=1.0, rho=0.5, delta=0.5, L=1, gamma=0.1, kappa=1, n=1, w0=0)
    assert thm31_bound(ok) == pytest.approx(0.1)


def _closed_form(bound, C=1.0, gamma=0.1, L=1.0, w0=0.1):
    if bound == "stationary":
        return stationary_wasserstein_bound(C, 0.5, gamma, L, 0.5)
    if bound == "geom3":
        return geom3_bound(C, 0.5, 4, w0, gamma, 0.5, L, 2.0)
    return geom3_stationary_bound(C, 0.5, gamma, 0.5, L)


@pytest.mark.parametrize("bound, name, value", [
    *((bound, name, value) for bound in ("stationary", "geom3", "geom3_stationary")
      for name, value in (("C", 0.5), ("C", math.nan), ("gamma", -0.1), ("L", -1.0))),
    ("geom3", "w0", -0.1),
])
def test_closed_form_bounds_refuse_C_below_one_and_negative_inputs(bound, name, value):
    # the rules of BoundInputs; a negative gamma_tv is outside geom3's range
    with pytest.raises(ValueError, match=name):
        _closed_form(bound, **{name: value})
    assert _closed_form(bound) > 0.0


# ------------------------------------------------------------ finite verifier


@pytest.mark.parametrize("which", ["thm31", "v1", "geom1", "geom2", "geom3"])
@pytest.mark.parametrize("seed", range(6))
def test_verify_on_finite_soundness(which, seed):
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(seed)
    if which == "thm31":
        rep = verify_on_finite(P, Pt, sp, Vt, p0, pt0, 30, "thm31")
    elif which == "v1":
        rep = verify_on_finite(P, Pt, sp, Vt, p0, pt0, 30, "v1")
    elif which == "geom1":
        rep = verify_on_finite(P, Pt, V, Vt, p0, pt0, 30, "geom1")
    else:
        rep = verify_on_finite(P, Pt, None, Vt, p0, pt0, 30, which, delta=0.3)
    assert rep.verified(), f"{which} slack {rep.min_slack:.3e} on seed {seed}"
    assert len(rep.ns) == 31
    np.testing.assert_allclose(rep.slack, rep.bounds - rep.distances)


@pytest.mark.parametrize("which", ["stationary", "geom3_stationary"])
@pytest.mark.parametrize("seed", range(6))
def test_verify_on_finite_stationary_variants(which, seed):
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(seed + 50)
    metric = sp if which == "stationary" else None
    rep = verify_on_finite(P, Pt, metric, Vt, p0, pt0, 0, which,
                           delta=0.5 if which == "stationary" else 0.3)
    assert rep.verified()
    assert list(rep.ns) == [-1]


def test_verify_on_finite_identical_kernels_zero_distance():
    P, _, sp, V, Vt, p0, pt0 = make_instance(3)
    rep = verify_on_finite(P, P, sp, Vt, p0, p0, 10, "thm31")
    np.testing.assert_allclose(rep.distances, 0.0, atol=1e-14)
    assert np.all(rep.bounds >= 0.0)
    assert rep.constants["gamma"] == 0.0


def test_verify_on_finite_hypothesis_failures_are_loud():
    sp = trivial_metric(range(2))
    swap = FiniteKernel(sp, [[0.0, 1.0], [1.0, 0.0]])
    Vt = WeightFunction.ones(sp)
    p = DiscreteDistribution(sp, [0.5, 0.5])
    q = DiscreteDistribution(sp, [0.4, 0.6])
    with pytest.raises(HypothesisViolation):
        verify_on_finite(swap, swap, sp, Vt, p, q, 5, "thm31")


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
def test_verify_on_finite_rejects_delta_outside_the_open_unit_interval(delta):
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(4)
    with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
        verify_on_finite(P, Pt, sp, Vt, p0, pt0, 5, "thm31", delta=delta)


def test_verify_on_finite_rejects_kernels_on_different_point_sets():
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(4)
    shifted = FiniteMetricSpace([x + 1 for x in sp.points], sp.dist)
    with pytest.raises(HypothesisViolation, match="^kernels must share one point set$"):
        verify_on_finite(P, FiniteKernel(shifted, Pt.matrix), sp, Vt, p0, pt0, 5, "thm31")


def test_verify_on_finite_rejects_start_laws_on_another_point_set():
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(4)
    shifted = FiniteMetricSpace([x + 1 for x in sp.points], sp.dist)
    for start in ((DiscreteDistribution(shifted, p0.weights), pt0),
                  (p0, DiscreteDistribution(shifted, pt0.weights))):
        with pytest.raises(SpaceMismatchError,
                           match="^pt?0 lives on another point set than P$"):
            verify_on_finite(P, Pt, sp, Vt, *start, 5, "thm31")


_STEPS = "n must be a nonnegative integer or math.inf"


@pytest.mark.parametrize("call, message", [
    (lambda: geom3_bound(1.0, 0.5, -1, 0.0, 0.1, 0.5, 1.0, 2.0), _STEPS),
    (lambda: geom3_bound(1.0, 0.5, 2.5, 0.0, 0.1, 0.5, 1.0, 2.0), _STEPS),
    (lambda: geom3_bound(1.0, 0.5, 2 ** 1024, 0.0, 0.1, 0.5, 1.0, 2.0),
     "n past the float range must be math.inf"),
    (lambda: kappa(1.0, 1.0, 1.0), "delta must lie in [0, 1)"),
    (lambda: kappa(0.5, 1.0, 0.5), "p0_V must be at least 1 and finite, since V >= 1"),
    (lambda: kappa(1.0, -1.0, 0.5), "L must be nonnegative and finite"),
    (lambda: geom4_bound(0.5, 0.5, 2.0, 1.0, 1000.0), "base = 2C(L+1) must be >= 1"),
], ids=["geom3-negative-n", "geom3-fractional-n", "geom3-huge-n", "kappa-delta", "kappa-p0_V", "kappa-L",
        "geom4-base"])
def test_bad_constants_get_a_typed_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_verify_on_finite_geom3_big_gamma_rejected():
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    Pt = FiniteKernel(sp, [[0.1, 0.9], [0.9, 0.1]])  # tv distance 1.2 > 1/e
    Vt = WeightFunction.ones(sp)
    p = DiscreteDistribution(sp, [0.5, 0.5])
    with pytest.raises(HypothesisViolation):
        verify_on_finite(P, Pt, None, Vt, p, p, 5, "geom3")


def _refuse(*args):
    raise AssertionError("a chain was evolved or measured before the hypotheses held")


@pytest.mark.parametrize("which, Pt_rows", [
    ("geom2", [[0.0, 1.0], [1.0, 0.0]]),  # Vt-norm gamma 2: gamma + delta >= 1
    ("geom3", [[0.1, 0.9], [0.9, 0.1]]),  # gamma_tv 1.2 > 1/e
    ("geom3", [[0.7, 0.3], [0.6, 0.4]]),  # gamma_tv 0, below the open interval
])
def test_bound_hypotheses_raise_before_any_walk_or_w1(monkeypatch, which, Pt_rows):
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    Pt = FiniteKernel(sp, Pt_rows)
    Vt = WeightFunction.ones(sp)
    p = DiscreteDistribution(sp, [0.5, 0.5])
    q = DiscreteDistribution(sp, [0.2, 0.8])
    for module in (bounds, kernels):
        monkeypatch.setattr(module, "_w1", _refuse)
    monkeypatch.setattr(bounds, "_walk", _refuse)
    with pytest.raises(HypothesisViolation, match="gamma"):
        verify_on_finite(P, Pt, None, Vt, p, q, 5, which, delta=0.3)


def test_a_failing_drift_check_raises_on_every_call(monkeypatch):
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(2)
    checked = []

    def failing(K, est):
        checked.append(K)
        return kernels.DriftCheck(ok=False, worst_slack=0.5, worst_index=1)

    monkeypatch.setattr(bounds, "verify_drift", failing)
    for which in ("thm31", "stationary", "geom1", "thm31"):
        with pytest.raises(HypothesisViolation, match="drift condition fails at index 1"):
            verify_on_finite(P, Pt, _metric_slot(which, sp, V), Vt, p0, pt0, 4, which)
    # the drift of Pt under Vt is checked once; its failure is kept with it
    # and raised again by each later call
    assert checked == [Pt]


def test_bound_hypotheses_raise_on_every_call():
    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.7, 0.3], [0.6, 0.4]])
    Pt = FiniteKernel(sp, [[0.1, 0.9], [0.9, 0.1]])  # gamma_tv 1.2 > 1/e
    Vt = WeightFunction.ones(sp)
    p = DiscreteDistribution(sp, [0.5, 0.5])
    for which in ("geom3", "geom3_stationary", "geom3"):
        with pytest.raises(HypothesisViolation, match="gamma_tv"):
            verify_on_finite(P, Pt, None, Vt, p, p, 5, which, delta=0.3)


@pytest.mark.parametrize("which", ["thm31", "v1", "geom1", "geom2", "geom3"])
def test_w0_is_measured_once(monkeypatch, which):
    # thm31, v1, geom1 and geom2 measure w0 as their table does, so w0 is
    # the table's row 0; geom3 measures its w0 in the V-norm, not in TV
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(3)
    measured = []

    def counted(fn):
        def call(*args):
            # one entry per pair of laws measured: _w1 takes a whole table
            measured.extend([fn] * len(np.atleast_2d(args[0])))
            return fn(*args)
        return call

    for name in ("_w1", "_vnorm", "_tv"):
        monkeypatch.setattr(bounds, name, counted(getattr(bounds, name)))
    rep = verify_on_finite(P, Pt, _metric_slot(which, sp, V), Vt, p0, pt0, 6, which, delta=0.3)
    assert len(measured) == 7 + (which == "geom3")
    w0 = rep.constants["w0"]
    assert type(w0) is float
    expected = {"thm31": lambda: wasserstein1_exact(p0, pt0, sp)[0],
                "v1": lambda: wasserstein1_exact(p0, pt0, sp)[0],
                "geom1": lambda: vnorm_distance(p0, pt0, V),
                "geom2": lambda: vnorm_distance(p0, pt0, Vt),
                "geom3": lambda: vnorm_distance(p0, pt0, Vt)}[which]()
    assert w0 == expected
    if which != "geom3":
        assert w0 == rep.distances[0]


@pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("which", ["thm31", "stationary"])
def test_verify_rejects_n_max_that_is_not_a_nonnegative_integer(monkeypatch, n_max, which):
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(1)
    # up front: before any fit, and so before any walk or distance
    monkeypatch.setattr(bounds, "_once", _refuse)
    with pytest.raises(ValueError, match="n_max"):
        verify_on_finite(P, Pt, sp, Vt, p0, pt0, n_max, which)


def test_verify_accepts_numpy_integer_n_max():
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(1)
    rep = verify_on_finite(P, Pt, sp, Vt, p0, pt0, np.int64(4), "thm31")
    ref = verify_on_finite(P, Pt, sp, Vt, p0, pt0, 4, "thm31")
    assert list(rep.ns) == [0, 1, 2, 3, 4]
    assert rep.distances.tobytes() == ref.distances.tobytes()
    assert rep.bounds.tobytes() == ref.bounds.tobytes()


def test_verify_selector_validation():
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(1)
    with pytest.raises(ValueError, match="selector"):
        verify_on_finite(P, Pt, sp, Vt, p0, pt0, 5, "nope")
    with pytest.raises(ValueError, match="metric slot"):
        verify_on_finite(P, Pt, None, Vt, p0, pt0, 5, "thm31")
    with pytest.raises(ValueError, match="single-weight"):
        verify_on_finite(P, Pt, sp, Vt, p0, pt0, 5, "geom3")


def _all_variants(P, Pt, sp, V, Vt, p0, pt0, m=2, n_max=12):
    return {which: verify_on_finite(P, Pt, _metric_slot(which, sp, V), Vt, p0, pt0,
                                    n_max, which, delta=0.3, m=m)
            for which in WHICH_CHOICES}


@pytest.mark.parametrize("seed", range(4))
def test_shared_instance_reports_match_separate_calls(seed):
    # V != Vt, and v1 drifts on weight 1: a cache keyed on too little
    # hands one variant another's fit, gamma or distance table.  Other
    # kernels on the same space and weights, the same objects at another
    # horizon m or n_max, and the same kernels walked from another pair of
    # start laws (one law in common) must not be handed the first
    # instance's fits, walks or tables either; with V = Vt, geom1 and
    # geom2 share one table
    P, Pt, sp, V, Vt, p0, pt0 = make_instance(seed)
    Q, Qt = make_instance(seed + 10)[:2]
    Q, Qt = FiniteKernel(sp, Q.matrix), FiniteKernel(sp, Qt.matrix)
    q0 = DiscreteDistribution(sp, make_instance(seed + 20)[6].weights)
    inputs = [(P, Pt, sp, V, Vt, p0, pt0, 2, 12), (Q, Qt, sp, V, Vt, p0, pt0, 2, 12),
              (P, Pt, sp, V, Vt, p0, pt0, 3, 12), (P, Pt, sp, V, Vt, p0, q0, 2, 12),
              (P, Pt, sp, V, Vt, p0, pt0, 2, 7), (P, Pt, sp, Vt, Vt, p0, pt0, 2, 12)]
    shared = [_all_variants(*args) for args in inputs]  # back to back
    alone = []  # each report made on an empty memo, so nothing is shared
    for P_, Pt_, sp_, V_, Vt_, p0_, pt0_, m, n_max in inputs:
        reports = {}
        for which in WHICH_CHOICES:
            bounds._once.cache_clear()
            reports[which] = verify_on_finite(P_, Pt_, _metric_slot(which, sp_, V_), Vt_,
                                              p0_, pt0_, n_max, which, delta=0.3, m=m)
        alone.append(reports)
    for got, want in zip(shared, alone):
        for which in WHICH_CHOICES:
            rep, ref = got[which], want[which]
            assert rep.theorem == ref.theorem == which
            for field in ("ns", "distances", "bounds"):
                assert getattr(rep, field).tobytes() == getattr(ref, field).tobytes(), which
            assert rep.constants == ref.constants, which
    # the inputs fit and walk differently, so a wrongly shared fit, walk or
    # table would show
    first, other, horizon, starts, short, _ = (r["thm31"] for r in shared)
    assert first.constants["rho"] != other.constants["rho"]
    assert first.constants["rho"] != horizon.constants["rho"]
    assert first.distances[-1] != starts.distances[-1]
    assert len(short.distances) == 8 and len(first.distances) == 13
    assert shared[0]["geom1"].distances[-1] != shared[0]["geom2"].distances[-1]
    assert shared[5]["geom1"].distances.tobytes() == shared[5]["geom2"].distances.tobytes()


def _public_bound(which, c, n):
    """The public scalar bound that row n of a ``which`` report must equal."""
    C, rho, gamma, delta, L, p0_V = (c[k] for k in ("C", "rho", "gamma", "delta", "L", "p0_V"))
    if which in ("thm31", "v1", "geom1"):
        return thm31_bound(BoundInputs(C=C, rho=rho, delta=delta, L=L, gamma=gamma,
                                       kappa=kappa(p0_V, L, delta), n=n, w0=c["w0"]))
    if which == "geom2":
        return geom2_bound(C, rho, n, c["w0"], gamma, delta, L, p0_V)
    if which == "geom3":
        return geom3_bound(C, rho, n, c["w0"], gamma, delta, L, kappa(p0_V, L, delta))
    if which == "stationary":
        return stationary_wasserstein_bound(C, rho, gamma, L, delta)
    return geom3_stationary_bound(C, rho, gamma, delta, L)


@pytest.mark.parametrize("seed", range(12))
def test_report_bounds_are_the_public_scalar_bounds_bit_for_bit(seed):
    # every row of a report is made at once; each must still be the
    # public scalar bound at its n, to the last bit
    if seed < 6:
        P, Pt, sp, V, p0, pt0 = generate_random_instance(seed, 4 + seed, 0.5)
        Vt, delta = V, 0.5
    else:
        P, Pt, sp, V, Vt, p0, pt0 = make_instance(seed)
        delta = 0.3
    for which in WHICH_CHOICES:
        rep = verify_on_finite(P, Pt, _metric_slot(which, sp, V), Vt, p0, pt0, 30, which,
                               delta=delta)
        ns = [-1] if "stationary" in which else range(31)
        assert list(rep.ns) == list(ns)
        expected = np.array([_public_bound(which, rep.constants, n) for n in ns])
        assert rep.bounds.tobytes() == expected.tobytes(), which


@pytest.mark.parametrize("seed, size, mix", [
    (1, 4, 0.3), (2, 5, 0.5), (3, 6, 0.8), (4, 7, 0.3), (5, 8, 0.5),
    (6, 9, 0.8), (7, 10, 0.3), (8, 11, 0.5), (9, 12, 0.8), (10, 12, 0.3),
    (11, 3, 0.3), (12, 3, 0.5), (13, 3, 0.8), (14, 15, 0.3), (15, 15, 0.5),
    (16, 15, 0.8), (17, 20, 0.3), (18, 20, 0.5), (19, 20, 0.8)])
def test_verifier_distances_match_the_public_route_bit_for_bit(seed, size, mix):
    # the verifier evolves and measures raw weight rows; the public route
    # builds a validated law per step and measures it, each distance alone
    P, Pt, sp, V, p0, pt0 = generate_random_instance(seed, size, mix)
    n_max = 30
    reports = {which: verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0,
                                       n_max, which)
               for which in WHICH_CHOICES}

    def cold_w1(p, q):
        # from an empty memo, every W1 below is a cold solve of its own
        # problem alone
        _transport._memo.clear()
        return wasserstein1_exact(p, q, sp)[0]

    measures = {
        "thm31": cold_w1,
        "v1": cold_w1,
        "stationary": cold_w1,
        "geom1": lambda p, q: vnorm_distance(p, q, V),
        "geom2": lambda p, q: vnorm_distance(p, q, V),
        "geom3": total_variation,
        "geom3_stationary": total_variation,
    }
    assert tuple(measures) == WHICH_CHOICES
    stationary = [(stationary_distribution(P), stationary_distribution(Pt))]
    steps = list(zip(trajectory(p0, P, n_max), trajectory(pt0, Pt, n_max)))
    for which, measure in measures.items():
        laws = stationary if "stationary" in which else steps
        expected = np.array([measure(p, q) for p, q in laws])
        assert reports[which].distances.tobytes() == expected.tobytes(), which


# -------------------------------------------------------------------- report


def test_report_csv_round_trip():
    rep = PerturbationReport(
        "thm31", np.array([0, 1]), np.array([0.25, 1.0 / 3.0]),
        np.array([0.5, 0.5]), {"C": 1.0})
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,distance,bound,slack"
    n, d, b, s = lines[2].split(",")
    assert int(n) == 1
    assert float(d) == 1.0 / 3.0  # 17 significant digits round-trip
    assert float(s) == 0.5 - 1.0 / 3.0
    assert rep.min_slack == pytest.approx(0.5 - 1.0 / 3.0)
    assert rep.verified()


def _inputs(**changes):
    base = dict(C=1.0, rho=0.5, delta=0.5, L=1.0, gamma=0.1, kappa=2.0, n=4, w0=0.1)
    return BoundInputs(**{**base, **changes})


_C_RULE = "C must be at least 1 and finite, since tau(P^0) = 1"


@pytest.mark.parametrize("call, message", [
    (lambda: kappa(1.0, math.nan, 0.5), "L must be nonnegative and finite"),
    (lambda: kappa(math.inf, 1.0, 0.5), "p0_V must be at least 1 and finite, since V >= 1"),
    (lambda: thm31_bound(_inputs(gamma=math.nan)), "gamma must be nonnegative and finite"),
    (lambda: thm31_bound(_inputs(L=math.nan)), "L must be nonnegative and finite"),
    (lambda: thm31_bound(_inputs(kappa=math.nan)),
     "kappa must be at least 1 and finite, since V >= 1"),
    (lambda: thm31_bound(_inputs(w0=math.nan)), "w0 must be nonnegative and finite"),
    (lambda: thm31_bound(_inputs(C=math.inf)), _C_RULE),
    (lambda: thm31_bound(_inputs(C=1.0 - 1e-13)), _C_RULE),
    (lambda: thm31_bound(_inputs(n=math.nan)), "n must be a nonnegative integer or math.inf"),
    (lambda: geom3_stationary_bound(1.0, 0.5, 0.1, 0.5, math.nan),
     "L must be nonnegative and finite"),
    (lambda: geom3_bound(1.0, 0.5, 4, 0.0, 0.1, 0.5, 1.0, math.nan),
     "kappa must be at least 1 and finite, since V >= 1"),
    (lambda: geom4_bound(4.0, 0.5, math.nan, 1.0, 1000.0),
     "kappa must be at least 1 and finite, since V >= 1"),
    (lambda: geom4_bound(math.nan, 0.5, 2.0, 1.0, 1000.0), "base = 2C(L+1) must be >= 1"),
    (lambda: stationary_wasserstein_bound(1.0, 0.5, math.inf, 1.0, 0.5),
     "gamma must be nonnegative and finite"),
], ids=["kappa-L-nan", "kappa-p0_V-inf", "thm31-gamma-nan", "thm31-L-nan", "thm31-kappa-nan",
        "thm31-w0-nan", "thm31-C-inf", "thm31-C-below-1", "thm31-n-nan", "geom3_stationary-L-nan",
        "geom3-kappa-nan", "geom4-kappa-nan", "geom4-base-nan", "stationary-gamma-inf"])
def test_nan_and_infinite_constants_get_a_typed_refusal(call, message):
    # each returned a value (nan, inf, or a bound from C just below 1) before
    # every rule refused NaN and infinity
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_geom4_refuses_a_nan_budget_or_sample_size():
    for K, N in ((math.nan, 1000.0), (1.0, math.nan)):
        with pytest.raises(HypothesisViolation):
            geom4_bound(4.0, 0.5, 2.0, K, N)
