"""Experiment driver: config schema, instance generator, exit codes, files."""
import os
import textwrap

import numpy as np
import pytest

from wperturb.cli import (
    EXIT_BOUND,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_SCHEMA,
    ExperimentConfig,
    generate_random_instance,
    load_config,
    main,
    run,
)
from wperturb.bounds import WHICH_CHOICES, _metric_slot, verify_on_finite
from wperturb.errors import ConfigError
from wperturb.kernels import DriftEstimate, fit_drift_L, tau, verify_drift


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


AR1_CFG = """
    [experiment]
    kind = ar1
    seed = 42
    out = {out}

    [ar1]
    alpha = 0.5
    alpha_t = 0.4
    n_max = 10
    replicas = 4000
"""

MH_CFG = """
    [experiment]
    kind = mh
    seed = 7
    out = {out}

    [mh]
    s = {s}
    C = 2.0
    rho = 0.95
    delta = 0.9
    L = 0.85
    lam = 3.4
    n_max = 10
    replicas = 300
"""

LANGEVIN_CFG = """
    [experiment]
    kind = langevin
    seed = 7
    out = {out}

    [langevin]
    observed = 1,1,1,-1,-1
    N = {N}
    n_max = 3
    replicas = 3000
    draws = 3000
    theta_grid = -30,0,30
    {extra}
"""


# ------------------------------------------------------------------ schema

def test_load_config_defaults_and_overrides(tmp_path):
    path = write_cfg(tmp_path, AR1_CFG.format(out="results"))
    cfg = load_config(path)
    assert cfg.kind == "ar1" and cfg.seed == 42 and cfg.out == "results"
    assert cfg.params["alpha"] == 0.5
    assert cfg.params["sd"] == 1.0  # default
    assert cfg.params["replicas"] == 4000
    cfg = load_config(path, seed_override=9, out_override="elsewhere")
    assert cfg.seed == 9 and cfg.out == "elsewhere"


FINITE_CFG = """
    [experiment]
    kind = finite-verify
    seed = 42
    out = {out}

    [finite-verify]
    instances = 1
    size = {size}
"""

AR1 = AR1_CFG.format(out="results")
MH = MH_CFG.format(out="results", s="0.02")
FINITE = FINITE_CFG.format(out="results", size=8)
LANGEVIN = LANGEVIN_CFG.format(out="results", N=600, extra="")


@pytest.mark.parametrize("mutation", [
    (AR1, "[experiment]", "[wrong]"),                 # missing experiment section
    (AR1, "kind = ar1", "kind = nonsense"),
    (AR1, "seed = 42", "seed = -1"),
    (AR1, "seed = 42", "seed = 18446744073709551616"),  # 2^64
    (AR1, "seed = 42", "seed = not-a-number"),
    (AR1, "alpha = 0.5", "alpha = 1.5"),              # outside (-1, 1)
    (AR1, "alpha = 0.5", "alphq = 0.5"),              # unknown key (and alpha missing)
    (AR1, "replicas = 4000", "replicas = 0"),
    # each end of each float interval, NaN, infinities and -0.0
    (AR1, "alpha = 0.5", "alpha = 1"),
    (AR1, "alpha_t = 0.4", "alpha_t = -1"),
    (AR1, "n_max = 10", "n_max = 10\n    sd = 0"),
    (AR1, "n_max = 10", "n_max = 10\n    sd = -0.0"),
    (AR1, "n_max = 10", "n_max = 10\n    mean = nan"),
    (AR1, "n_max = 10", "n_max = 10\n    x0 = -inf"),
    (MH, "rho = 0.95", "rho = 1"),
    (MH, "delta = 0.9", "delta = nan"),
    (MH, "s = 0.02", "s = -0.1"),
    (MH, "s = 0.02", "s = inf"),
    (MH, "L = 0.85", "L = -5e-324"),
    (FINITE, "size = 8", "size = 8\n    contraction_mix = 0"),
    (FINITE, "size = 8", "size = 8\n    contraction_mix = -0.0"),
    (FINITE, "size = 8", "size = 8\n    contraction_mix = 1.0000000000000002"),
    (LANGEVIN, "theta_grid = -30,0,30", "theta_grid = -30,nan,30"),
])
def test_schema_errors(tmp_path, mutation):
    template, old, new = mutation
    assert old in template
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, template.replace(old, new), "bad.ini"))


def test_schema_accepts_closed_ends(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FINITE.replace(
        "size = 8", "size = 8\n    contraction_mix = 1")))
    assert cfg.params["contraction_mix"] == 1.0
    cfg = load_config(write_cfg(tmp_path, MH.replace("s = 0.02", "s = 0").replace(
        "rho = 0.95", "rho = 0").replace("lam = 3.4", "lam = 1\n    p0_V = 1\n    x0 = -0.0")))
    assert cfg.params["s"] == cfg.params["rho"] == 0.0
    assert cfg.params["lam"] == cfg.params["p0_V"] == 1.0
    assert str(cfg.params["x0"]) == "-0.0"


@pytest.mark.parametrize("text", [
    FINITE_CFG.format(out="{out}", size=1),
    FINITE_CFG.format(out="{out}", size=201),
    AR1_CFG.replace("replicas = 4000", "replicas = 1"),
    MH_CFG.replace("{s}", "0.02").replace("replicas = 300", "replicas = 1"),
    LANGEVIN_CFG.format(out="{out}", N=600, extra="C = 1.5\n    rho = 0.5")
    .replace("replicas = 3000", "replicas = 1"),
    LANGEVIN_CFG.format(out="{out}", N=600, extra="").replace("draws = 3000", "draws = 1"),
], ids=["finite-size-1", "finite-size-201", "ar1", "mh", "langevin", "langevin-draws"])
def test_size_and_replicas_out_of_range_are_config_errors(tmp_path, capsys, text):
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, text.format(out=out))]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and any(k in err for k in ("size", "replicas", "draws"))
    assert not out.exists()


@pytest.mark.parametrize("kind", ["mh", "langevin"])
@pytest.mark.parametrize("C", ["0.1", "0.9999999999999999", "0"])
def test_contraction_constant_below_one_is_a_config_error(tmp_path, capsys, kind, C):
    # tau(P^0) = 1, so the ergodicity constant C of tau(P^n) <= C rho^n is >= 1
    out = tmp_path / "res"
    if kind == "mh":
        text = MH_CFG.format(out=out, s="0.02").replace("C = 2.0", f"C = {C}")
    else:
        text = LANGEVIN_CFG.format(out=out, N=600, extra=f"C = {C}\n    rho = 0.5")
    assert main(["run", write_cfg(tmp_path, text)]) == EXIT_SCHEMA
    assert f"[{kind}] C: must be a finite number in [1.0, inf)" in capsys.readouterr().err
    assert not out.exists()
    assert load_config(write_cfg(tmp_path, text.replace(f"C = {C}", "C = 1"),
                                 "ok.ini")).params["C"] == 1.0


def test_schema_rejects_stray_section(tmp_path):
    path = write_cfg(tmp_path, AR1_CFG.format(out="r") + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_langevin_cross_checks(tmp_path):
    base = LANGEVIN_CFG.format(out="r", N=100, extra="")
    with pytest.raises(ConfigError):  # C without rho
        load_config(write_cfg(tmp_path, base + "C = 1.0\n"))
    with pytest.raises(ConfigError):  # observed length != M
        load_config(write_cfg(tmp_path, base.replace("1,1,1,-1,-1", "1,1")))
    with pytest.raises(ConfigError):  # spins only
        load_config(write_cfg(tmp_path, base.replace("1,1,1,-1,-1", "1,1,2,-1,-1")))


def test_main_reports_schema_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, AR1_CFG.format(out="r").replace("kind = ar1", "kind = x"))
    assert main(["run", path]) == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.ini")]) == EXIT_SCHEMA
    assert main(["run", path, "--seed", "-3"]) == EXIT_SCHEMA


# -------------------------------------------------------- instance factory

def test_generate_random_instance_deterministic():
    a = generate_random_instance(5, 6, 0.5)
    b = generate_random_instance(5, 6, 0.5)
    assert a[0].matrix.tobytes() == b[0].matrix.tobytes()
    assert a[1].matrix.tobytes() == b[1].matrix.tobytes()
    assert a[4].weights.tobytes() == b[4].weights.tobytes()
    c = generate_random_instance(6, 6, 0.5)
    assert a[0].matrix.tobytes() != c[0].matrix.tobytes()


@pytest.mark.parametrize("size, message", [
    (8.0, "size must be an integer >= 2"),
    (2.5, "size must be an integer >= 2"),
    (1, "size must be an integer >= 2"),
    (201, "size must be at most 200"),
], ids=["integral-float", "fraction", "below-2", "above-200"])
def test_generate_random_instance_refuses_a_bad_size(size, message):
    with pytest.raises(ValueError) as info:
        generate_random_instance(1, size, 0.5)
    assert type(info.value) is ValueError and str(info.value) == message


def test_generate_random_instance_rank_one_at_full_mix():
    P, _, sp, _, _, _ = generate_random_instance(3, 5, 1.0)
    assert np.allclose(P.matrix, P.matrix[0][None, :])
    assert tau(P, sp) <= 1e-12


def test_generate_random_instance_hypotheses_hold():
    for seed in range(25):
        P, Pt, sp, V, p0, pt0 = generate_random_instance(seed, 8, 0.5)
        assert tau(P, sp) < 1.0
        L = fit_drift_L(Pt, V, 0.5)
        assert verify_drift(Pt, DriftEstimate(V, 0.5, L)).ok
        assert np.all(P.matrix >= 0) and np.allclose(P.matrix.sum(axis=1), 1.0)
        assert np.all(Pt.matrix >= 0) and np.allclose(Pt.matrix.sum(axis=1), 1.0)


def test_generate_random_instance_fits_each_metric_once(monkeypatch):
    import wperturb.bounds as boundsmod
    import wperturb.cli as climod

    fits, attempts = [], []
    fit, philox = boundsmod.fit_geometric_constants, climod.philox
    monkeypatch.setattr(boundsmod, "fit_geometric_constants",
                        lambda *a, **kw: fits.append(a[1]) or fit(*a, **kw))
    monkeypatch.setattr(climod, "philox",
                        lambda seed, attempt: attempts.append(attempt) or philox(seed, attempt))
    P, Pt, sp, V, p0, pt0 = generate_random_instance(3, 6, 0.5)
    assert attempts == [0]  # the first candidate passed
    # seven variants, two metrics: the space (thm31, v1, stationary) and V
    assert fits == [sp, V]
    # one public call per variant on the instance reuses the probe's fits
    for which in WHICH_CHOICES:
        verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 5, which)
    assert fits == [sp, V]


# What one instance and its seven variants compute, counted: the probe in
# generate_random_instance (n_max = 0) and the seven public calls at
# n_max = 30 share each of these, so a second verify of the same instance
# repeats none of them.

def verify_one_instance():
    P, Pt, sp, V, p0, pt0 = generate_random_instance(3, 6, 0.5)
    reports = [verify_on_finite(P, Pt, _metric_slot(which, sp, V), V, p0, pt0, 30, which)
               for which in WHICH_CHOICES]
    return (P, Pt, sp, V, p0, pt0), reports


def test_an_instance_fits_each_drift_once(monkeypatch):
    import wperturb.bounds as boundsmod

    fits = []
    fit = boundsmod.fit_drift_L
    monkeypatch.setattr(boundsmod, "fit_drift_L",
                        lambda K, W, delta: fits.append((K, W)) or fit(K, W, delta))
    (P, Pt, sp, V, p0, pt0), _ = verify_one_instance()
    # Pt under V (thm31, stationary, geom1, and geom3 before its L is
    # raised to P's gap), Pt under the unit weight (v1), P under V (geom2)
    assert [(K, W is V) for K, W in fits] == [(Pt, True), (Pt, False), (P, True)]


def test_an_instance_walks_the_powers_of_P_once(monkeypatch):
    import wperturb.kernels as kernelsmod

    seen = {}
    for name in ("tau", "tau_v"):
        coeff = getattr(kernelsmod, name)
        monkeypatch.setattr(kernelsmod, name, lambda K, metric, coeff=coeff:
                            seen.setdefault(metric, []).append(K) or coeff(K, metric))
    (P, Pt, sp, V, p0, pt0), _ = verify_one_instance()
    # fits at horizon 2 under the space and under V, on the same P and P^2
    assert list(seen) == [sp, V]
    assert len(seen[sp]) == 2
    assert all(a is b for a, b in zip(seen[sp], seen[V], strict=True))


def test_an_instance_builds_the_tau_candidates_of_its_space_once(monkeypatch):
    import wperturb.kernels as kernelsmod

    tables = []
    sup = kernelsmod._sup_w1_ratio

    def spy(A, B, ia, ib, scale, metric):
        if A is B:  # tau; the gamma sups compare P with Pt
            tables.append((ia, ib, scale))
        return sup(A, B, ia, ib, scale, metric)

    monkeypatch.setattr(kernelsmod, "_sup_w1_ratio", spy)
    verify_one_instance()
    # the probe's tau of the candidate kernel, then the fit's tau of P and P^2
    assert len(tables) == 3
    assert all(x is y for table in tables for x, y in zip(table, tables[0]))


def test_generate_random_instance_validation():
    with pytest.raises(ValueError):
        generate_random_instance(0, 1, 0.5)
    with pytest.raises(ValueError):
        generate_random_instance(0, 300, 0.5)
    with pytest.raises(ValueError):
        generate_random_instance(0, 8, 0.0)


# ----------------------------------------------------------------- running

def test_finite_verify_writes_reports(tmp_path):
    out = tmp_path / "res"
    path = write_cfg(tmp_path, f"""
        [experiment]
        kind = finite-verify
        seed = 42
        out = {out}

        [finite-verify]
        instances = 3
        size = 6
        n_max = 5
        which = geom3
    """)
    assert main(["run", path]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["finite_0000_geom3.csv", "finite_0001_geom3.csv",
                     "finite_0002_geom3.csv", "summary.txt"]
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("theorem,min_slack\n")
    assert "geom3," in summary


def test_ar1_identical_rates_give_zero_distance(tmp_path):
    out = tmp_path / "res"
    text = AR1_CFG.format(out=out).replace("alpha_t = 0.4", "alpha_t = 0.5")
    assert main(["run", write_cfg(tmp_path, text)]) == EXIT_OK
    rows = (out / "ar1_nstep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 10
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_mh_run_and_hypothesis_exit(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, MH_CFG.format(out=out, s="0.02"))]) == EXIT_OK
    assert (out / "mh_metro_geom.csv").exists()
    assert "metro_geom," in (out / "summary.txt").read_text()
    # s past (1 - delta)/lam is a theorem hypothesis, not a schema bound
    code = main(["run", write_cfg(tmp_path, MH_CFG.format(out=out, s="0.05"), "b.ini")])
    assert code == EXIT_HYPOTHESIS
    assert "hypothesis violation" in capsys.readouterr().err


def test_mh_exponential_target_runs_and_reruns_byte_identical(tmp_path):
    # the README [mh] block with the other target
    text = MH_CFG.replace("s = {s}", "target = exponential\n    s = {s}")
    outs = [tmp_path / f"exp{i}" for i in range(2)] + [tmp_path / "gauss"]
    for i, out in enumerate(outs):
        cfg = (text if i < 2 else MH_CFG).format(out=out, s="0.02")
        assert main(["run", write_cfg(tmp_path, cfg, f"mh{i}.ini")]) == EXIT_OK
    names = sorted(os.listdir(outs[0]))
    assert names == ["mh_metro_geom.csv", "summary.txt"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the target reaches the simulation
    csv = "mh_metro_geom.csv"
    assert (outs[0] / csv).read_bytes() != (outs[2] / csv).read_bytes()


def test_langevin_run_files_and_threshold(tmp_path):
    out = tmp_path / "res"
    path = write_cfg(tmp_path, LANGEVIN_CFG.format(out=out, N=100, extra=""))
    assert main(["run", path]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["langevin_drift.csv", "langevin_tv.csv",
                                       "summary.txt"]
    # N at the sample-size threshold is inapplicable, exit 3
    bad = write_cfg(tmp_path, LANGEVIN_CFG.format(out=out, N=10, extra=""), "b.ini")
    assert main(["run", bad]) == EXIT_HYPOTHESIS


def test_langevin_M_range(tmp_path, capsys):
    # 2^21 configurations are never enumerated; past the largest M is a
    # schema error, not a traceback
    for M, code in ((21, EXIT_OK), (1001, EXIT_SCHEMA)):
        out = tmp_path / f"res{M}"
        text = LANGEVIN_CFG.format(out=out, N=1000, extra=f"statistic = sum\nM = {M}\n")
        path = write_cfg(tmp_path, text.replace(
            "1,1,1,-1,-1", ",".join(["1", "-1"] * (M // 2) + ["1"])), f"m{M}.ini")
        assert main(["run", path]) == code
        assert out.exists() == (code == EXIT_OK)
    assert "[langevin] M: must be an integer in [1, 1000]" in capsys.readouterr().err


def test_langevin_final_report_when_contraction_given(tmp_path):
    out = tmp_path / "res"
    path = write_cfg(tmp_path, LANGEVIN_CFG.format(
        out=out, N=1000, extra="C = 1.5\nrho = 0.5\n"))
    assert main(["run", path]) == EXIT_OK
    text = (out / "langevin_final.csv").read_text()
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 3
    # constant cap: every row carries the same bound column
    assert len({r.split(",")[2] for r in rows}) == 1
    assert "langevin_final," in (out / "summary.txt").read_text()


# the README [langevin] block without C and rho and with fewer drift draws;
# only the replica count varies between runs
LANGEVIN_README_CFG = """
    [experiment]
    kind = langevin
    seed = 1
    out = {out}

    [langevin]
    statistic = path-agreement
    M = 5
    observed = 1,-1,1,1,-1
    sigma_p = 1.0
    sigma = 0.8
    N = 600
    theta0 = 0.0
    n_max = 8
    replicas = {replicas}
    theta_grid = -30,-5,-1,0,1,5,30
    draws = 2000
"""


def test_langevin_names_tv_rows_that_cannot_fail(tmp_path, capsys):
    # binned TV is at most 2: at 2,000 replicas the allowance 3 * sqrt(256 /
    # 2000) = 1.07 lifts the caps of n = 6, 7, 8 (0.98, 1.15, 1.31) past 2
    path = write_cfg(tmp_path, LANGEVIN_README_CFG.format(
        out=tmp_path / "small", replicas=2000))
    assert main(["run", path]) == EXIT_OK
    err = capsys.readouterr().err
    assert "langevin_tv.csv rows n = 6, 7, 8 cannot fail" in err
    assert len(err.splitlines()) == 1
    # at 20,000 replicas the allowance is 0.34, so every row can fail
    path = write_cfg(tmp_path, LANGEVIN_README_CFG.format(
        out=tmp_path / "large", replicas=20000), "large.ini")
    assert main(["run", path]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_byte_identical_reruns(tmp_path):
    p1 = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "a"))
    p2 = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "b"), "again.ini")
    assert main(["run", p1]) == EXIT_OK
    assert main(["run", p2]) == EXIT_OK
    for name in ("ar1_nstep.csv", "ar1_stationary.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_byte_identical_reruns_mh_and_langevin(tmp_path):
    configs = {
        "mh": MH_CFG.format(out="{out}", s="0.02"),
        "langevin": LANGEVIN_CFG.format(out="{out}", N=1000,
                                        extra="C = 1.5\nrho = 0.5\n"),
    }
    for kind, text in configs.items():
        outs = [tmp_path / f"{kind}_{i}" for i in range(2)]
        for i, out in enumerate(outs):
            path = write_cfg(tmp_path, text.format(out=out), f"{kind}_{i}.ini")
            assert main(["run", path]) == EXIT_OK
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert "summary.txt" in names
        if kind == "langevin":
            assert "langevin_final.csv" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    import subprocess
    import sys

    import wperturb

    src = os.path.dirname(os.path.dirname(wperturb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "a"))
    proc = subprocess.run([sys.executable, "-m", "wperturb", "run", path],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["run", path, "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("ar1_nstep.csv", "ar1_stationary.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_import_and_ar1_run_leave_scipy_integrate_unloaded(tmp_path):
    # only the MH line constants integrate, so the package and a run that
    # computes none of them must not pay for importing scipy.integrate
    import subprocess
    import sys

    import wperturb

    src = os.path.dirname(os.path.dirname(wperturb.__file__))
    path = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "a"))
    code = ("import sys, wperturb\n"
            "from wperturb.cli import main\n"
            f"assert main(['run', {path!r}]) == 0\n"
            "print('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"  # after the run's own messages


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # main builds its parser once per process; every call must still parse
    # its own arguments, whatever the calls before it passed or failed on
    import subprocess
    import sys

    import wperturb
    from wperturb import cli

    names = ("ar1_nstep.csv", "ar1_stationary.csv", "summary.txt")
    path = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "a"))
    assert main(["run", path]) == EXIT_OK
    first = {name: (tmp_path / "a" / name).read_bytes() for name in names}
    parser = cli._parser()
    assert main(["verify", "--suite", "otcore"]) == EXIT_OK
    assert main(["run", path, "--seed", "5", "--out", str(tmp_path / "b")]) == EXIT_OK
    with pytest.raises(SystemExit) as bad_args:
        main(["run", path, "--seed", "five"])
    assert bad_args.value.code == 2  # argparse's usage error
    assert main(["run", path]) == EXIT_OK
    assert cli._parser() is parser
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == first[name]

    # the --seed 5 run against a fresh process that reads seed 5 from its
    # config, and whose import leaves the parser unbuilt
    solo = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "c").replace(
        "seed = 42", "seed = 5"), "solo.ini")
    code = ("import sys\n"
            "from wperturb import cli\n"
            "assert cli._parser.cache_info().currsize == 0\n"
            f"sys.exit(cli.main(['run', {solo!r}]))\n")
    src = os.path.dirname(os.path.dirname(wperturb.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_seed_override_changes_monte_carlo_output(tmp_path):
    p1 = write_cfg(tmp_path, AR1_CFG.format(out=tmp_path / "a"))
    assert main(["run", p1]) == EXIT_OK
    assert main(["run", p1, "--seed", "43", "--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "ar1_nstep.csv").read_bytes()
    b = (tmp_path / "b" / "ar1_nstep.csv").read_bytes()
    assert a != b


def test_bound_violation_exit_code(tmp_path, monkeypatch, capsys):
    # sound constants cannot produce exit 4, so break a report artificially
    import wperturb.cli as climod

    def broken(cfg):
        rep = climod._RUNNERS_ORIG["ar1"](cfg)[0]
        rep.ok = False
        rep.min_slack = -1.0
        return [rep]

    monkeypatch.setattr(climod, "_RUNNERS_ORIG", dict(climod._RUNNERS), raising=False)
    monkeypatch.setitem(climod._RUNNERS, "ar1", broken)
    out = tmp_path / "res"
    cfg = load_config(write_cfg(tmp_path, AR1_CFG.format(out=out)))
    assert run(cfg) == EXIT_BOUND
    assert "bound violation" in capsys.readouterr().err
    # the report and summary are still written for post-mortem reading
    assert (out / "summary.txt").exists()


# -------------------------------------------------------------- suites

def test_verify_suites(capsys):
    for suite in ("otcore", "kernels", "bounds"):
        assert main(["verify", "--suite", suite]) == EXIT_OK
    assert "ok bounds" in capsys.readouterr().out


def test_a_failing_verify_suite_prints_each_failure_and_exits_with_the_bound_code(
        monkeypatch, capsys):
    import wperturb.cli as climod

    monkeypatch.setitem(climod._SUITES, "otcore", lambda seed: ["boom"])
    assert main(["verify", "--suite", "otcore"]) == EXIT_BOUND
    captured = capsys.readouterr()
    assert "FAIL otcore: boom" in captured.err
    assert "ok otcore" not in captured.out


def test_verify_suite_seed_flag(capsys):
    assert main(["verify", "--suite", "otcore", "--seed", "99"]) == EXIT_OK
    assert "ok otcore" in capsys.readouterr().out
    assert main(["verify", "--suite", "otcore", "--seed", "-1"]) == EXIT_SCHEMA
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_experiment_config_is_plain_data():
    cfg = ExperimentConfig(kind="ar1", seed=1, out="x", params={"alpha": 0.1})
    assert cfg.params["alpha"] == 0.1


# ------------------------------------------------------------- refusals

@pytest.mark.parametrize("template, old, new, message", [
    (FINITE, "size = 8", "size = 8\n    which = thm99",
     "[finite-verify] which: must be one of " + ", ".join(WHICH_CHOICES)),
    (LANGEVIN, "theta_grid = -30,0,30", "theta_grid = , ,",
     "[langevin] theta_grid: must be a nonempty comma-separated list of floats"),
    (AR1, "alpha = 0.5", "alpha = 0.5\n    alpha = 0.6",
     "malformed config: While reading from {path} [line  9]: option 'alpha' in section "
     "'ar1' already exists"),
    (AR1, "seed = 42", "seed = 42\n    colour = blue", "unknown keys in [experiment]: colour"),
    (AR1, "alpha = 0.5", "", "[ar1] missing required key 'alpha'"),
    (LANGEVIN, "observed = 1,1,1,-1,-1", "observed = 1\n    M = 1",
     "[langevin] path-agreement needs M >= 2"),
    (MH, "L = 0.85", "L = 0", "[mh] L: must be a finite number in (0.0, inf)"),
    (MH, "lam = 3.4", "lam = 0.5", "[mh] lam: must be a finite number in [1.0, inf)"),
    (MH, "lam = 3.4", "lam = 3.4\n    p0_V = 0.99",
     "[mh] p0_V: must be a finite number in [1.0, inf)"),
], ids=["choice", "float-list", "malformed", "experiment-key", "required-key", "path-M",
        "mh-L", "mh-lam", "mh-p0_V"])
def test_schema_refusals_exit_2_with_their_message(tmp_path, capsys, template, old, new, message):
    assert old in template
    out = tmp_path / "res"
    path = write_cfg(tmp_path, template.replace(old, new).replace("out = results",
                                                                 f"out = {out}"))
    assert main(["run", path]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"config error: {message.format(path=repr(path))}\n"
    assert not out.exists()


def _swap_instance(seed, size, contraction_mix):
    # a realized instance whose P swaps two states: tau(P^m) = 1, no contraction
    from wperturb.kernels import FiniteKernel
    from wperturb.otcore import DiscreteDistribution, WeightFunction, trivial_metric

    sp = trivial_metric(range(2))
    P = FiniteKernel(sp, [[0.0, 1.0], [1.0, 0.0]])
    law = DiscreteDistribution(sp, [0.5, 0.5])
    return P, P, sp, WeightFunction.ones(sp), law, law


def test_finite_verify_exits_3_on_an_instance_that_fails_a_hypothesis(tmp_path, monkeypatch,
                                                                       capsys):
    import wperturb.cli as climod

    monkeypatch.setattr(climod, "generate_random_instance", _swap_instance)
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, FINITE_CFG.format(out=out, size=2))]) \
        == EXIT_HYPOTHESIS
    assert capsys.readouterr().err.startswith("hypothesis violation: tau(P^2) = 1.000000 >= 1")
    assert not out.exists()


def test_ar1_exits_3_on_a_hypothesis_failure(tmp_path, monkeypatch, capsys):
    # no [ar1] config that passes the schema fails a hypothesis: |alpha| < 1
    # and |alpha_t| < 1 are schema bounds, and the Gaussian innovation is
    # unimodal with a density bound.  So the failure is injected into the
    # report: the TV rate of an innovation that is not unimodal
    import wperturb.cli as climod
    from wperturb.ar1 import ar1_tv_gamma

    monkeypatch.setattr(climod, "ar1_report",
                        lambda params, alpha_t, x0, n_max: ar1_tv_gamma(
                            params.alpha, alpha_t, 1.0, unimodal=False))
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, AR1_CFG.format(out=out))]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().err.startswith("hypothesis violation: the 2|alpha - alpha_t|")
    assert not out.exists()


def test_generate_random_instance_gives_up_after_100_tries(monkeypatch):
    import wperturb.cli as climod
    from wperturb.errors import HypothesisViolation

    tries = []

    def never(*args):
        tries.append(args[-1])
        raise HypothesisViolation("refused")

    monkeypatch.setattr(climod, "verify_on_finite", never)
    with pytest.raises(RuntimeError) as info:
        generate_random_instance(3, 2, 0.5)
    assert str(info.value) == ("resampling exhausted: no instance of size 2 at "
                               "contraction_mix=0.5 passed all hypotheses in 100 tries")
    # each try stops at its first refused variant
    assert tries == [WHICH_CHOICES[0]] * 100


def test_write_atomic_removes_its_temporary_file_when_the_rename_fails(tmp_path, monkeypatch):
    import wperturb.cli as climod

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(climod.os, "replace", refuse)
    with pytest.raises(OSError, match="^rename refused$"):
        climod._write_atomic(str(tmp_path / "report.csv"), "n,distance\n")
    assert os.listdir(tmp_path) == []
