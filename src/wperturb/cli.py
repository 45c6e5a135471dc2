"""Batch experiment driver.

Loads an INI config describing one experiment (finite-state verification
sweep, AR(1), approximate Metropolis-Hastings, or noisy Langevin), runs it
deterministically from the configured seed, and writes one CSV per report
plus a summary of the worst slack seen per theorem.  Everything the library
computes is re-checked here: a negative slack beyond tolerance turns into a
nonzero exit code, never a silent pass.

Exit codes: 0 all checks passed, 2 config/schema error, 3 a theorem
hypothesis failed on the realized inputs, 4 a bound was violated.

Config format (UTF-8 INI, ``#`` comments)::

    [experiment]
    kind = finite-verify        # finite-verify | ar1 | mh | langevin
    seed = 42                   # unsigned 64-bit
    out = results               # output directory (--out overrides)

    [finite-verify]             # section name matches the kind
    instances = 50
    size = 8                    # 2..200
    contraction_mix = 0.5
    which = thm31               # any selector from WHICH_CHOICES
    n_max = 30

See the README for the ar1 / mh / langevin blocks.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._checks import _check_count
from ._rng import philox
from .ar1 import Ar1Params, Innovation, ar1_report, ar1_simulate_coupled
from .bounds import SLACK_TOL, WHICH_CHOICES, PerturbationReport, verify_on_finite
from .bounds import _metric_slot
from .errors import ConfigError, HypothesisViolation
from .kernels import (
    DriftEstimate,
    FiniteKernel,
    compose,
    fit_drift_L,
    stationary_distribution,
    tau,
    verify_drift,
)
from .langevin import (
    MAX_M,
    GibbsModel,
    LangevinParams,
    empirical_tv_binned,
    langevin_drift_check,
    langevin_final_bound,
    langevin_simulate_pair,
    langevin_tv_perturbation_bound,
)
from .mh import AcceptancePerturbation, MetroGeomConstants, MhProblem, mh_metro_geom_report
from .otcore import (
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    dv_metric,
    empirical_w1_clouds,
    total_variation,
    trivial_metric,
    vnorm_distance,
    wasserstein1_exact,
)

__all__ = [
    "ExperimentConfig",
    "generate_random_instance",
    "load_config",
    "main",
    "run",
]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_HYPOTHESIS = 3
EXIT_BOUND = 4

_KINDS = ("finite-verify", "ar1", "mh", "langevin")
_U64_MAX = 2 ** 64 - 1
_TV_BINS = 256


# ------------------------------------------------------------------ config

@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    params: dict = field(default_factory=dict)


def _int_in(lo: int, hi: float = math.inf) -> Callable[[str], int]:
    def cast(raw: str) -> int:
        val = int(raw)
        if not lo <= val <= hi:
            raise ValueError(f"must be an integer in [{lo}, {hi}]")
        return val
    return cast


def _float_in(lo: float = -math.inf, hi: float = math.inf,
              ends: str = "()") -> Callable[[str], float]:
    """Caster to a finite float in the interval from lo to hi, open or
    closed at each end as ``ends`` says ("[)" is [lo, hi))."""
    def cast(raw: str) -> float:
        val = float(raw)
        above = lo < val if ends[0] == "(" else lo <= val
        below = val < hi if ends[1] == ")" else val <= hi
        if not (math.isfinite(val) and above and below):
            raise ValueError(f"must be a finite number in {ends[0]}{lo}, {hi}{ends[1]}")
        return val
    return cast


def _choice(*allowed: str) -> Callable[[str], str]:
    def cast(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return raw
    return cast


def _spins(raw: str) -> tuple:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok not in ("-1", "1", "+1"):
            raise ValueError("must be a comma-separated list of -1/+1 labels")
        out.append(int(tok))
    return tuple(out)


def _float_list(raw: str) -> tuple:
    out = tuple(_float_in()(tok) for tok in raw.split(",") if tok.strip())
    if not out:
        raise ValueError("must be a nonempty comma-separated list of floats")
    return out


# per kind: key -> (caster, default); _REQUIRED marks keys with no default
_REQUIRED = object()

_SCHEMAS = {
    "finite-verify": {
        "instances": (_int_in(1), 50),
        "size": (_int_in(2, 200), 8),
        "contraction_mix": (_float_in(0.0, 1.0, "(]"), 0.5),
        "which": (_choice(*WHICH_CHOICES), "thm31"),
        "n_max": (_int_in(1), 30),
    },
    "ar1": {
        "alpha": (_float_in(-1.0, 1.0), _REQUIRED),
        "alpha_t": (_float_in(-1.0, 1.0), _REQUIRED),
        "mean": (_float_in(), 1.0),
        "sd": (_float_in(0.0), 1.0),
        "x0": (_float_in(), 0.0),
        "n_max": (_int_in(1), 50),
        "replicas": (_int_in(2), 100_000),
    },
    "mh": {
        "target": (_choice("exponential", "gaussian"), "gaussian"),
        "half_width": (_float_in(0.0), 1.5),
        "sd": (_float_in(0.0), 1.0),
        "s": (_float_in(0.0, ends="[)"), _REQUIRED),
        "C": (_float_in(1.0, ends="[)"), _REQUIRED),
        "rho": (_float_in(0.0, 1.0, "[)"), _REQUIRED),
        "delta": (_float_in(0.0, 1.0, "[)"), _REQUIRED),
        "L": (_float_in(0.0), _REQUIRED),
        "lam": (_float_in(1.0, ends="[)"), _REQUIRED),
        "p0_V": (_float_in(1.0, ends="[)"), 1.0),
        "x0": (_float_in(), 0.0),
        "n_max": (_int_in(1), 30),
        "replicas": (_int_in(2), 2000),
    },
    "langevin": {
        "statistic": (_choice("sum", "path-agreement"), "path-agreement"),
        "M": (_int_in(1, MAX_M), 5),
        "observed": (_spins, _REQUIRED),
        "sigma_p": (_float_in(0.0), 1.0),
        "sigma": (_float_in(0.0), 0.8),
        "N": (_int_in(1), 100),
        "theta0": (_float_in(), 0.0),
        "n_max": (_int_in(1), 8),
        "replicas": (_int_in(2), 20_000),
        "theta_grid": (_float_list, (-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0)),
        "draws": (_int_in(2), 20_000),
        # optional long-run report; both must be given together
        "C": (_float_in(1.0, ends="[)"), None),
        "rho": (_float_in(0.0, 1.0, "[)"), None),
        "E_absX0": (_float_in(0.0, ends="[)"), 0.0),
    },
}


def load_config(path: str, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    """Parse + schema-validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (C, L, M, N, ...)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    extra = set(exp) - {"kind", "seed", "out"}
    if extra:
        raise ConfigError(f"unknown keys in [experiment]: {', '.join(sorted(extra))}")
    kind = exp.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {', '.join(_KINDS)}, got {kind!r}")
    try:
        seed = _int_in(0, _U64_MAX)(exp.get("seed", ""))
    except ValueError as exc:
        raise ConfigError(f"bad seed: {exc}") from exc
    if seed_override is not None:
        seed = seed_override
    out = out_override if out_override is not None else exp.get("out", "results")

    schema = _SCHEMAS[kind]
    section = parser[kind] if parser.has_section(kind) else {}
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in [{kind}]: {', '.join(sorted(unknown))}")
    params = {}
    for key, (cast, default) in schema.items():
        if key in section:
            try:
                params[key] = cast(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{kind}] {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"[{kind}] missing required key {key!r}")
        else:
            params[key] = default

    known_sections = {"experiment", kind}
    stray = set(parser.sections()) - known_sections
    if stray:
        raise ConfigError(f"unexpected sections: {', '.join(sorted(stray))}")

    if kind == "langevin":
        if (params["C"] is None) != (params["rho"] is None):
            raise ConfigError("[langevin] C and rho must be given together")
        if params["statistic"] == "path-agreement" and params["M"] < 2:
            raise ConfigError("[langevin] path-agreement needs M >= 2")
        if len(params["observed"]) != params["M"]:
            raise ConfigError("[langevin] observed must list exactly M labels")
    return ExperimentConfig(kind=kind, seed=seed, out=out, params=params)


# ------------------------------------------------------- instance generator

def generate_random_instance(seed: int, size: int, contraction_mix: float):
    """Random kernel pair passing every theorem hypothesis by construction.

    P mixes i.i.d. Dirichlet rows with one shared row at weight
    ``contraction_mix`` (a rank-one component forces contraction); since
    mixing in total variation does not imply contraction under the sampled
    point metric, tau is measured and the blend strengthened when needed.
    Pt multiplies P by 10% entrywise jitter and renormalizes rows.  Each
    candidate is fitted once and probed against every bound variant, and
    resampled (up to 100 times) until all hypotheses hold.

    Returns (P, Pt, metric, V, p0, pt0).
    """
    _check_count(2, size=size)
    if size > 200:
        raise ValueError("size must be at most 200")
    if not 0.0 < contraction_mix <= 1.0:
        raise ValueError("contraction_mix must lie in (0, 1]")
    for attempt in range(100):
        rng = philox(seed, attempt)
        pts = rng.normal(size=(size, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        if np.min(dist[~np.eye(size, dtype=bool)]) <= 1e-6:
            continue
        sp = FiniteMetricSpace(range(size), dist)
        raw = rng.dirichlet(np.ones(size), size=size)
        common = rng.dirichlet(np.ones(size))
        P = (1.0 - contraction_mix) * raw + contraction_mix * common[None, :]
        t = tau(FiniteKernel(sp, P), sp)
        if t >= 0.75:
            theta = 1.0 - 0.6 / t
            P = (1.0 - theta) * P + theta * common[None, :]
        jitter = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(size, size))
        Pt = P * jitter
        Pt /= Pt.sum(axis=1, keepdims=True)
        V = WeightFunction(sp, 1.0 + rng.uniform(0.0, 2.0, size=size))
        p0 = DiscreteDistribution(sp, rng.dirichlet(np.ones(size)))
        pt0 = DiscreteDistribution(sp, rng.dirichlet(np.ones(size)))
        kP, kPt = FiniteKernel(sp, P), FiniteKernel(sp, Pt)
        try:
            for which in WHICH_CHOICES:
                verify_on_finite(kP, kPt, _metric_slot(which, sp, V), V, p0, pt0, 0, which)
        except HypothesisViolation:
            continue
        return kP, kPt, sp, V, p0, pt0
    raise RuntimeError(
        f"resampling exhausted: no instance of size {size} at "
        f"contraction_mix={contraction_mix} passed all hypotheses in 100 tries"
    )


# ----------------------------------------------------------------- reports

@dataclass
class _Result:
    """One output file plus its contribution to the summary."""

    filename: str
    theorem: str
    text: str
    min_slack: float
    ok: bool


def _from_report(filename: str, rep: PerturbationReport) -> _Result:
    return _Result(filename, rep.theorem, rep.to_csv(), rep.min_slack,
                   rep.verified())


def _run_finite_verify(cfg: ExperimentConfig) -> list:
    p = cfg.params
    results = []
    for i in range(p["instances"]):
        P, Pt, sp, V, p0, pt0 = generate_random_instance(
            cfg.seed + i, p["size"], p["contraction_mix"])
        rep = verify_on_finite(P, Pt, _metric_slot(p["which"], sp, V), V,
                               p0, pt0, n_max=p["n_max"], which=p["which"])
        results.append(_from_report(f"finite_{i:04d}_{p['which']}.csv", rep))
    return results


def _run_ar1(cfg: ExperimentConfig) -> list:
    p = cfg.params
    params = Ar1Params(alpha=p["alpha"], innovation=Innovation.gaussian(p["mean"], p["sd"]))
    rep = ar1_report(params, p["alpha_t"], p["x0"], p["n_max"])
    sim = ar1_simulate_coupled(params, p["alpha_t"], p["x0"], p["n_max"],
                               replicas=p["replicas"], seed=cfg.seed)
    consts = {"alpha": p["alpha"], "alpha_t": p["alpha_t"], "delta": rep.delta,
              "L": rep.L, "kappa": rep.kappa, "gamma": rep.gamma,
              "replicas": float(p["replicas"]), "seed": float(cfg.seed)}
    nstep = PerturbationReport("ar1_nstep", sim.ns, sim.coupled_dev,
                               rep.nstep_bounds, consts,
                               distance_se=sim.coupled_dev_se)
    # stationary sandwich as two rows: the exact Gaussian W1 under its upper
    # bound (n = -1) and the lower bound under the exact value (n = -2)
    sandwich = PerturbationReport(
        "ar1_stationary", np.array([-1, -2]),
        np.array([rep.gaussian_w1, rep.lower_bound]),
        np.array([rep.stationary_bound, rep.gaussian_w1]),
        consts)
    return [_from_report("ar1_nstep.csv", nstep),
            _from_report("ar1_stationary.csv", sandwich)]


def _run_mh(cfg: ExperimentConfig) -> list:
    p = cfg.params
    if p["target"] == "exponential":
        problem = MhProblem.exponential_target(p["half_width"])
    else:
        problem = MhProblem.gaussian_target(p["half_width"], p["sd"])
    pert = AcceptancePerturbation.uniform_noise(p["s"])
    consts = MetroGeomConstants(C=p["C"], rho=p["rho"], delta=p["delta"],
                                L=p["L"], lam=p["lam"], s=p["s"],
                                p0_V=p["p0_V"], x0=p["x0"])
    rep = mh_metro_geom_report(problem, pert, consts, p["n_max"],
                               p["replicas"], cfg.seed)
    return [_from_report("mh_metro_geom.csv", rep)]


def _run_langevin(cfg: ExperimentConfig) -> list:
    p = cfg.params
    if p["statistic"] == "sum":
        model = GibbsModel.ising_sum(p["M"], p["observed"], p["sigma_p"])
    else:
        model = GibbsModel.path_agreement(p["M"], p["observed"], p["sigma_p"])
    params = LangevinParams(sigma=p["sigma"], N=p["N"])

    drift = langevin_drift_check(model, params, p["theta_grid"], p["draws"],
                                 philox(cfg.seed, 100))
    drift_slack = float(np.min(np.minimum(
        drift.caps + 3.0 * drift.exact_se - drift.exact_mean,
        drift.caps + 3.0 * drift.noisy_se - drift.noisy_mean)))
    results = [_Result("langevin_drift.csv", "langevin_drift", drift.to_csv(),
                       drift_slack, drift.all_ok)]

    tv_cap = langevin_tv_perturbation_bound(params.sigma, model.s_inf, params.N)
    xs, xts = langevin_simulate_pair(model, params, p["theta0"], p["n_max"],
                                     p["replicas"], cfg.seed)
    ns = np.arange(1, p["n_max"] + 1)
    proxies = np.array([empirical_tv_binned(xs[k], xts[k], _TV_BINS)
                        for k in range(p["n_max"])])
    caps = np.minimum(2.0, ns * tv_cap)
    # conservative noise scale for the binned-TV estimator; the real
    # fluctuation under the shared innovation stream is far smaller
    se = np.full(p["n_max"], math.sqrt(_TV_BINS / p["replicas"]))
    # binned TV never exceeds 2, so a row whose allowance reaches 2 passes
    # whatever the chains do; say so, since the report cannot show it
    blind = ns[caps + SLACK_TOL + 3.0 * se >= 2.0]
    if blind.size:
        print(f"langevin_tv.csv rows n = {', '.join(str(int(n)) for n in blind)} "
              f"cannot fail: cap + {SLACK_TOL:g} + 3 * distance_se >= 2, the "
              "largest binned TV", file=sys.stderr)
    consts = {"sigma": params.sigma, "N": float(params.N), "s_inf": model.s_inf,
              "one_step_tv_bound": tv_cap, "bins": float(_TV_BINS),
              "replicas": float(p["replicas"]), "seed": float(cfg.seed)}
    results.append(_from_report("langevin_tv.csv", PerturbationReport(
        "langevin_tv", ns, proxies, caps, consts, distance_se=se)))

    if p["C"] is not None:
        fb = langevin_final_bound(model, params, p["C"], p["rho"], p["E_absX0"])
        w1, w1_se = np.array([empirical_w1_clouds(x, xt)
                              for x, xt in zip(xs, xts)]).T
        fconsts = dict(consts, C=p["C"], rho=p["rho"], E_absX0=p["E_absX0"])
        results.append(_from_report("langevin_final.csv", PerturbationReport(
            "langevin_final", ns, w1, np.full(p["n_max"], fb), fconsts,
            distance_se=w1_se)))
    return results


_RUNNERS = {
    "finite-verify": _run_finite_verify,
    "ar1": _run_ar1,
    "mh": _run_mh,
    "langevin": _run_langevin,
}


# ------------------------------------------------------------------ output

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary(results: list) -> str:
    worst = {}
    for res in results:
        cur = worst.get(res.theorem)
        worst[res.theorem] = res.min_slack if cur is None else min(cur, res.min_slack)
    lines = ["theorem,min_slack"]
    for name in sorted(worst):
        lines.append(f"{name},{float(worst[name])!r}")
    return "\n".join(lines) + "\n"


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        results = _RUNNERS[cfg.kind](cfg)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    os.makedirs(cfg.out, exist_ok=True)
    for res in results:
        _write_atomic(os.path.join(cfg.out, res.filename), res.text)
    _write_atomic(os.path.join(cfg.out, "summary.txt"), _summary(results))
    bad = [res for res in results if not res.ok]
    for res in bad:
        print(f"bound violation in {res.filename} "
              f"(min slack {res.min_slack:.3e})", file=sys.stderr)
    print(f"wrote {len(results)} report(s) + summary.txt to {cfg.out}")
    return EXIT_BOUND if bad else EXIT_OK


# ------------------------------------------------- built-in property suites

def _suite_otcore(seed: int) -> list:
    failures = []
    for trial in range(40):
        rng = philox(seed, trial)
        n = int(rng.integers(3, 9))
        pts = rng.normal(size=(n, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        if np.min(dist[~np.eye(n, dtype=bool)]) <= 1e-6:
            continue
        sp = FiniteMetricSpace(range(n), dist)
        p = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        q = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        r = DiscreteDistribution(sp, rng.dirichlet(np.ones(n)))
        wpq = wasserstein1_exact(p, q)[0]
        if abs(wpq - wasserstein1_exact(q, p)[0]) > 1e-9:
            failures.append(f"trial {trial}: W1 not symmetric")
        if wasserstein1_exact(p, p)[0] > 1e-12:
            failures.append(f"trial {trial}: W1(p,p) != 0")
        if wasserstein1_exact(p, r)[0] > wpq + wasserstein1_exact(q, r)[0] + 1e-9:
            failures.append(f"trial {trial}: triangle inequality fails")

        # the transport side runs on untagged copies: wasserstein1_exact
        # would answer the tagged spaces with the same closed forms
        triv = trivial_metric(range(n))
        triv = FiniteMetricSpace(triv.points, triv.dist)
        pt = DiscreteDistribution(triv, p.weights)
        qt = DiscreteDistribution(triv, q.weights)
        if abs(wasserstein1_exact(pt, qt)[0] - total_variation(p, q)) > 1e-9:
            failures.append(f"trial {trial}: trivial-metric W1 != TV")

        V = WeightFunction(sp, 1.0 + rng.uniform(0.0, 3.0, size=n))
        dv = dv_metric(V)
        dv = FiniteMetricSpace(dv.points, dv.dist)
        pv = DiscreteDistribution(dv, p.weights)
        qv = DiscreteDistribution(dv, q.weights)
        if abs(wasserstein1_exact(pv, qv)[0] - vnorm_distance(p, q, V)) > 1e-9:
            failures.append(f"trial {trial}: d_V duality fails")
    return failures


def _suite_kernels(seed: int) -> list:
    failures = []
    for trial in range(30):
        P, Pt, sp, V, p0, pt0 = generate_random_instance(seed * 1000 + trial, 6, 0.5)
        tP, tPt = tau(P, sp), tau(Pt, sp)
        tPQ = tau(compose(P, Pt), sp)
        if tPQ > tP * tPt + 1e-9:
            failures.append(f"trial {trial}: tau not submultiplicative")
        w_after = wasserstein1_exact(P.push(p0), P.push(pt0))[0]
        if w_after > tP * wasserstein1_exact(p0, pt0)[0] + 1e-9:
            failures.append(f"trial {trial}: tau does not contract W1")
        pi = stationary_distribution(P)
        if np.abs(pi.weights @ P.matrix - pi.weights).max() > 1e-10:
            failures.append(f"trial {trial}: stationary distribution drifts")
        L = fit_drift_L(Pt, V, 0.5)
        if not verify_drift(Pt, DriftEstimate(V, 0.5, L)).ok:
            failures.append(f"trial {trial}: fitted drift fails verification")
    return failures


def _suite_bounds(seed: int) -> list:
    failures = []
    for trial in range(8):
        P, Pt, sp, V, p0, pt0 = generate_random_instance(seed * 77 + trial, 6, 0.5)
        for which in WHICH_CHOICES:
            rep = verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 12, which)
            if not rep.verified(SLACK_TOL):
                failures.append(
                    f"trial {trial}: {which} min slack {rep.min_slack:.3e}")
    return failures


_SUITES = {"otcore": _suite_otcore, "kernels": _suite_kernels,
           "bounds": _suite_bounds}


def _verify(suite: str, seed: int = 1234) -> int:
    failures = _SUITES[suite](seed)
    for line in failures:
        print(f"FAIL {suite}: {line}", file=sys.stderr)
    if failures:
        return EXIT_BOUND
    print(f"ok {suite}")
    return EXIT_OK


# -------------------------------------------------------------------- main

@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to ``main`` and kept."""
    parser = argparse.ArgumentParser(
        prog="wperturb",
        description="Markov chain perturbation-bound experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
    p_run.add_argument("--out", default=None,
                       help="override the configured output directory")

    p_ver = sub.add_parser("verify", help="run a built-in property suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_ver.add_argument("--seed", type=int, default=1234,
                       help="base seed for the randomized battery")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed <= _U64_MAX:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        if args.command == "verify":
            return _verify(args.suite, args.seed)
        cfg = load_config(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
