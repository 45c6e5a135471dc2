"""The benchmark's three workloads: inputs, operations and output checks.

Each workload builds a fixed list of operations from the benchmark seed.
An operation is a zero-argument callable that calls wperturb through its
public functions (or the ``wperturb run`` command) and returns what the
output checks need.  Checks run after the timed pass; each one names the
operation it judges, so a wrong output counts that operation as failed.

Functions are looked up on the wperturb modules at call time, so the
traced run sees every call through the tracer's wrappers.
"""
from __future__ import annotations

import filecmp
import functools
import os
import shutil

import numpy as np

import oracles
import wperturb
from wperturb import bounds
from wperturb.cli import _metric_slot

N_MAX = 30                 # sweep: steps per verify_on_finite report
SLACK_TOL = bounds.SLACK_TOL
SWEEP_SIZES = tuple(range(4, 13))
SWEEP_MIXES = (0.3, 0.5, 0.8)
SWEEP_ROUNDS = 4           # 4 rounds of the 27 (size, mix) pairs: 108 instances
# sweep: tolerance of the reference LP's W1 (at the tolerances the oracles
# set, HiGHS came within 1.3e-14 of the exact solver on 9,600 per-step and
# stationary distances of sweep instances)
LP_TOL = 1e-9

W1_KINDS = ("euclid", "line", "trivial", "dv")
# (support size, calls per metric kind): the small tier sits below the
# median, the n = 24 tier holds the median and the n = 80 tier, with the
# line-metric tau calls, holds the 90th percentile
W1_TIERS = ((4, 2), (6, 2), (8, 2), (12, 2), (24, 12), (80, 4), (100, 1))
TAU_SIZE, TAU_CALLS = 14, 8
DUST = 1e-8                # dust mass, on every fourth W1 input

SIM_ROUNDS = 45            # 45 rounds of (ar1, mh, langevin): 135 runs


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=stream))


class Op:
    """One operation: a label for messages, a callable and its check."""

    __slots__ = ("label", "fn", "check")

    def __init__(self, label, fn, check):
        self.label = label
        self.fn = fn
        self.check = check


class CheckFailed(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, ref: float, tol: float, what: str) -> None:
    _expect(abs(value - ref) <= tol, f"{what}: {value!r} vs reference {ref!r}")


# ---------------------------------------------------------------- sweep

def _sweep_op(seed, size, mix):
    inst = wperturb.generate_random_instance(seed, size, mix)
    P, Pt, sp, V, p0, pt0 = inst
    reports = {which: wperturb.verify_on_finite(P, Pt, _metric_slot(which, sp, V), V,
                                                p0, pt0, n_max=N_MAX, which=which)
               for which in wperturb.WHICH_CHOICES}
    return inst, reports


def _oracle_distance(which, sp, V, p, q):
    """The distance each variant tabulates, by the benchmark's own route."""
    if which in ("thm31", "v1", "stationary"):
        return oracles.w1_linprog(sp.dist, p, q), LP_TOL
    if which in ("geom1", "geom2"):
        return oracles.w1_weighted(V.values, p, q), 1e-9
    return oracles.w1_trivial(p, q), 1e-9


def _sweep_check(pick, check_tau, result):
    (P, Pt, sp, V, p0, pt0), reports = result
    for which, rep in reports.items():
        _expect(rep.min_slack >= -SLACK_TOL, f"{which} min slack {rep.min_slack!r}")
    # one per-step distance, recomputed from matrix powers of P and Pt
    which, n = pick
    p = p0.weights @ np.linalg.matrix_power(P.matrix, n)
    q = pt0.weights @ np.linalg.matrix_power(Pt.matrix, n)
    ref, tol = _oracle_distance(which, sp, V, p, q)
    _close(float(reports[which].distances[n]), ref, tol, f"{which} distance at n={n}")
    # both stationary variants, from eigenvector stationary laws
    pi, pit = oracles.stationary_eig(P.matrix), oracles.stationary_eig(Pt.matrix)
    for which in ("stationary", "geom3_stationary"):
        ref, tol = _oracle_distance(which, sp, V, pi, pit)
        _close(float(reports[which].distances[0]), ref, tol, f"{which} distance")
    # tau of both kernels, which sets C and rho of the Wasserstein variants
    if not check_tau:
        return
    for name, K in (("P", P), ("Pt", Pt)):
        t = wperturb.tau(K, sp)
        lo, hi = oracles.tau_linprog(sp.dist, K.matrix, LP_TOL)
        _expect(lo <= t <= hi, f"tau({name}) {t!r} outside the reference [{lo!r}, {hi!r}]")


def build_sweep(seed: int, workdir: str) -> list:
    rng = _rng(seed, 0)
    n_ops = SWEEP_ROUNDS * len(SWEEP_SIZES) * len(SWEEP_MIXES)
    seeds = rng.integers(0, 2 ** 62, size=n_ops)
    n_step = tuple(w for w in wperturb.WHICH_CHOICES if "stationary" not in w)
    # tau is checked on one seeded round of each (size, mix) pair: 66 row
    # pairs at size 12 make its reference LP the dearest check
    cells = len(SWEEP_SIZES) * len(SWEEP_MIXES)
    tau_round = _rng(seed, 5).integers(SWEEP_ROUNDS, size=cells)
    ops = []
    for k in range(n_ops):
        size = SWEEP_SIZES[k % len(SWEEP_SIZES)]
        mix = SWEEP_MIXES[(k // len(SWEEP_SIZES)) % len(SWEEP_MIXES)]
        pick = (n_step[int(rng.integers(len(n_step)))], int(rng.integers(N_MAX + 1)))
        check_tau = k // cells == tau_round[k % cells]
        ops.append(Op(f"instance {k} (size {size}, mix {mix})",
                      functools.partial(_sweep_op, int(seeds[k]), size, mix),
                      functools.partial(_sweep_check, pick, check_tau)))
    return ops


# ------------------------------------------------------------ distances

def _histogram(rng, n, shape):
    """A random law on n points: plain, with dust masses, or with exact zeros."""
    w = rng.dirichlet(np.ones(n))
    if shape == "dust":
        k = max(1, n // 10)
        w[rng.choice(n, size=k, replace=False)] = DUST * rng.uniform(0.5, 1.5, size=k)
    elif shape == "zeros":
        w[rng.choice(n, size=max(1, n // 4), replace=False)] = 0.0
    return w / w.sum()


def _w1_inputs(rng, kind, n):
    """(measure space, metric space, oracle, tolerance) for one W1 call."""
    if kind == "euclid":
        pts = rng.normal(size=(n, 2))
        sp = wperturb.FiniteMetricSpace(range(n), np.linalg.norm(pts[:, None] - pts[None], axis=-1))
        return sp, sp, functools.partial(oracles.w1_linprog, sp.dist), 1e-6
    if kind == "line":
        xs = np.sort(rng.normal(size=n))
        sp = wperturb.line_metric(xs)
        return sp, sp, functools.partial(oracles.w1_line, xs), 1e-9
    base = wperturb.trivial_metric(range(n))
    if kind == "trivial":
        return base, base, oracles.w1_trivial, 1e-9
    V = wperturb.WeightFunction(base, 1.0 + rng.uniform(0.0, 2.0, size=n))
    return base, wperturb.dv_metric(V), functools.partial(oracles.w1_weighted, V.values), 1e-9


def _w1_op(mu, nu, space):
    return wperturb.wasserstein1_exact(mu, nu, space)


def _w1_check(mu, nu, space, oracle, tol, result):
    value, coupling = result
    _close(value, oracle(mu.weights, nu.weights), tol, "W1")
    rows, cols = coupling.joint.sum(axis=1), coupling.joint.sum(axis=0)
    _expect(np.max(np.abs(rows - mu.weights)) <= 1e-12, "coupling row marginal")
    _expect(np.max(np.abs(cols - nu.weights)) <= 1e-12, "coupling column marginal")
    _close(float(np.sum(coupling.joint * space.dist)), value, 1e-9, "coupling cost")


def _tau_op(P, space):
    return wperturb.tau(P, space)


def _tau_check(xs, M, result):
    ref = oracles.tau_line(xs, M)
    _close(result, ref, 1e-9 * max(1.0, ref), "line tau")


def build_distances(seed: int, workdir: str) -> list:
    ops = []
    for k, kind in enumerate(W1_KINDS):
        j = 0
        for n, calls in W1_TIERS:
            for _ in range(calls):
                rng = _rng(seed, 1, k, j)
                shape = ("plain", "dust", "zeros", "plain")[j % 4]
                space, metric, oracle, tol = _w1_inputs(rng, kind, n)
                mu = wperturb.DiscreteDistribution(space, _histogram(rng, n, shape))
                nu = wperturb.DiscreteDistribution(space, _histogram(rng, n, "plain"))
                ops.append(Op(f"W1 {kind} n={n} {shape}",
                              functools.partial(_w1_op, mu, nu, metric),
                              functools.partial(_w1_check, mu, nu, metric, oracle, tol)))
                j += 1
    for j in range(TAU_CALLS):
        rng = _rng(seed, 2, j)
        xs = np.sort(rng.normal(size=TAU_SIZE))
        space = wperturb.line_metric(xs)
        M = rng.dirichlet(np.ones(TAU_SIZE), size=TAU_SIZE)
        ops.append(Op(f"tau line n={TAU_SIZE}",
                      functools.partial(_tau_op, wperturb.FiniteKernel(space, M), space),
                      functools.partial(_tau_check, xs, M)))
    # interleave sizes and kinds, so a slow spell of the machine does not
    # land on one kind of call
    return [ops[i] for i in _rng(seed, 4).permutation(len(ops))]


# ------------------------------------------------------------- simulate

_CONFIGS = {
    "ar1": """[experiment]
kind = ar1
seed = {seed}
[ar1]
alpha = {alpha}
alpha_t = {alpha_t}
n_max = 30
replicas = 20000
""",
    "mh": """[experiment]
kind = mh
seed = {seed}
[mh]
s = {s}
C = 2.0
rho = 0.95
delta = 0.9
L = 0.85
lam = 3.4
n_max = 15
replicas = 150
""",
    "langevin": """[experiment]
kind = langevin
seed = {seed}
[langevin]
observed = {observed}
N = 600
C = 1.5
rho = 0.5
replicas = 1000
draws = 1000
""",
}


def _sim_params(rng, kind, first):
    seed = int(rng.integers(0, 2 ** 63))
    if kind == "ar1":
        alpha = float(rng.choice([0.5, 0.7, 0.9]))
        return dict(seed=seed, alpha=alpha, alpha_t=round(alpha + 0.01, 2))
    if kind == "mh":
        # the first MH run has exact acceptance, so both chains coincide
        return dict(seed=seed, s=0.0 if first else float(rng.choice([0.01, 0.02])))
    spins = rng.choice([-1, 1], size=5)
    return dict(seed=seed, observed=",".join(str(int(x)) for x in spins))


def _sim_op(cfg, out):
    return wperturb.cli.main(["run", cfg, "--out", out])


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header.split(","), np.array([[float(x) for x in r.split(",")] for r in rows])


def _sim_check(kind, params, cfg, out, extra, result):
    _expect(result == 0, f"exit code {result}")
    names = sorted(os.listdir(out))
    for name in names:
        if not name.endswith(".csv"):
            continue
        cols, rows = _read_csv(os.path.join(out, name))
        c = {k: rows[:, i] for i, k in enumerate(cols)}
        if "slack" in c:
            se = c.get("distance_se", 0.0)
            _expect(bool(np.all(c["slack"] >= -(SLACK_TOL + 3.0 * se))),
                    f"{name}: a row falls outside its margin")
        else:  # langevin_drift.csv
            ok = ((c["exact_mean"] <= c["cap"] + 3.0 * c["exact_se"])
                  & (c["noisy_mean"] <= c["cap"] + 3.0 * c["noisy_se"]))
            _expect(bool(np.all(ok)) and bool(np.all(c["ok"] == 1)),
                    f"{name}: a drift row is over its cap")
    if "ar1_closed_form" in extra:
        cols, rows = _read_csv(os.path.join(out, "ar1_nstep.csv"))
        n, dev, se = int(rows[-1, 0]), rows[-1, 1], rows[-1, 4]
        # the config leaves mean, sd and x0 at their defaults 1, 1 and 0
        ref = oracles.ar1_coupled_mean_dev(params["alpha"], params["alpha_t"], 1.0, 1.0, 0.0, n)
        _expect(abs(dev - ref) <= 4.0 * se, f"AR(1) deviation {dev!r} vs closed form {ref!r} "
                f"at n={n} (se {se!r})")
    if kind == "mh" and params["s"] == 0.0:
        cols, rows = _read_csv(os.path.join(out, "mh_metro_geom.csv"))
        _expect(bool(np.all(rows[:, 1] == 0.0)), "s = 0 MH distance is not exactly 0")
    if "rerun" in extra:
        again = out + "-rerun"
        _expect(_sim_op(cfg, again) == 0, "re-run failed")
        same = sorted(os.listdir(again)) == names and all(
            filecmp.cmp(os.path.join(out, f), os.path.join(again, f), shallow=False)
            for f in names)
        shutil.rmtree(again)
        _expect(same, "re-run with the same seed is not byte-identical")


def build_simulate(seed: int, workdir: str) -> list:
    rng = _rng(seed, 3)
    kinds = tuple(_CONFIGS)
    n_ops = SIM_ROUNDS * len(kinds)
    # one AR(1) run is held to its closed form and one run is repeated
    closed_form_at = len(kinds) * int(rng.integers(SIM_ROUNDS))
    rerun_at = int(rng.integers(n_ops))
    ops = []
    for k in range(n_ops):
        kind = kinds[k % len(kinds)]
        params = _sim_params(rng, kind, first=k < len(kinds))
        cfg = os.path.join(workdir, f"op{k:03d}.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_CONFIGS[kind].format(**params))
        out = os.path.join(workdir, f"op{k:03d}")
        extra = set()
        if k == closed_form_at:
            extra.add("ar1_closed_form")
        if k == rerun_at:
            extra.add("rerun")
        ops.append(Op(f"run {kind} op {k}",
                      functools.partial(_sim_op, cfg, out),
                      functools.partial(_sim_check, kind, params, cfg, out, extra)))
    return ops


BUILDERS = {"sweep": build_sweep, "distances": build_distances, "simulate": build_simulate}
