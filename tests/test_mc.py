"""Monte Carlo engine tests: reproducibility, closed-form agreement,
estimator contracts, and the Poisson structure of excursion counts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddkit
from ddkit import mc, verify
from ddkit.errors import UnsupportedModelError, ValidationError
from ddkit.models import (brownian, custom_model, drifted_brownian,
                          geometric_brownian, ornstein_uhlenbeck)

BM = brownian()
DBM = drifted_brownian(1.0, 1.0)

# sech(1): E[exp(-0.5 tau)] for unit-drawdown Brownian motion
SECH1 = 0.6480542736638854
# exp(-2/(e^2-1)): P(M_tau > 1) for drifted BM, mu=1, sigma^2=1, delta=1
DBM_TAIL1 = 0.73122411050580305
# 2/(e^2-1): excursion count mean for drifted BM over the band ]0, 1]
DBM_EXC_MEAN = 0.31303528549933130


def small_cfg(**kw):
    base = dict(n_paths=1000, dt=0.01, t_max=40.0, seed=5,
                scheme="exact_bm")
    base.update(kw)
    return mc.McConfig(**base)


# ---------------------------------------------------------------------------
# configuration and validation
# ---------------------------------------------------------------------------

def test_config_rejects_small_path_count():
    with pytest.raises(ValidationError):
        mc.McConfig(n_paths=999, dt=0.01, t_max=1.0, seed=0)


@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", -1.0), ("dt", math.inf),
    ("t_max", 0.001), ("t_max", math.nan),
    ("seed", -1), ("seed", 2 ** 64), ("seed", 1.5), ("seed", True),
    ("seed", np.int64(-1)), ("n_paths", 1000.0), ("scheme", "milstein"),
])
def test_config_rejects_bad_fields(field, value):
    base = dict(n_paths=1000, dt=0.01, t_max=1.0, seed=0)
    base[field] = value
    with pytest.raises(ValidationError):
        mc.McConfig(**base)


def test_config_accepts_numpy_integers():
    # as sample_trajectory does; stored as ints, so the streams match
    cfg = small_cfg(n_paths=np.int64(3000), seed=np.uint64(5))
    assert cfg == small_cfg(n_paths=3000, seed=5)
    assert type(cfg.n_paths) is int and type(cfg.seed) is int


def test_simulate_enforces_dt_guard():
    # dt must be at most delta^2/100; delta=0.3 makes 0.01 too coarse
    with pytest.raises(ValidationError):
        mc.simulate(geometric_brownian(0.05, 0.09), 1.0, 0.3, small_cfg())


def test_exact_scheme_needs_exact_step():
    bmlike = custom_model({"form": "constant", "value": 0.0},
                          {"form": "constant", "value": 1.0})
    with pytest.raises(UnsupportedModelError):
        mc.simulate(bmlike, 0.0, 1.0, small_cfg())
    col = mc.simulate(bmlike, 0.0, 1.0, small_cfg(scheme="euler"))
    assert col.stopped.mean() > 0.95


def test_estimate_transform_rejects_negative_rates():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg())
    with pytest.raises(ValidationError):
        mc.estimate_transform(col, -0.1, 0.0)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def _drawdown_arms(paired, cfg):
    """(simulate,) or the (fine, coarse) arms of paired_simulate."""
    if paired:
        return mc.paired_simulate(BM, 0.0, 1.0, cfg)
    return (mc.simulate(BM, 0.0, 1.0, cfg),)


@pytest.mark.parametrize("paired", [False, True],
                         ids=["simulate", "paired_simulate"])
def test_bit_identical_across_thread_counts(monkeypatch, paired):
    cfg = mc.McConfig(n_paths=3000, dt=0.01, t_max=40.0, seed=11)
    monkeypatch.setenv("DDKIT_THREADS", "1")
    one = _drawdown_arms(paired, cfg)
    monkeypatch.setenv("DDKIT_THREADS", "4")
    four = _drawdown_arms(paired, cfg)
    assert len(one) == len(four) == (2 if paired else 1)
    for a, b in zip(one, four):
        assert np.array_equal(a.tau_hat, b.tau_hat)
        assert np.array_equal(a.m_tau_hat, b.m_tau_hat)
        assert np.array_equal(a.stopped, b.stopped)


def test_repeat_call_is_identical():
    cfg = small_cfg(seed=99)
    a = mc.simulate(BM, 0.0, 1.0, cfg)
    b = mc.simulate(BM, 0.0, 1.0, cfg)
    assert np.array_equal(a.tau_hat, b.tau_hat)
    assert np.array_equal(a.m_tau_hat, b.m_tau_hat)


@pytest.mark.parametrize("paired", [False, True],
                         ids=["simulate", "paired_simulate"])
def test_path_count_extension_preserves_prefix(paired):
    # per-path streams: the first 3000 paths do not depend on n_paths,
    # across a chunk boundary and with the chunk pool running
    short = _drawdown_arms(paired, small_cfg(n_paths=3000, seed=21))
    long = _drawdown_arms(paired, small_cfg(n_paths=5000, seed=21))
    for a, b in zip(short, long):
        assert np.array_equal(a.tau_hat, b.tau_hat[:3000])
        assert np.array_equal(a.m_tau_hat, b.m_tau_hat[:3000])
        assert np.array_equal(a.stopped, b.stopped[:3000])


def test_excursion_counts_bit_identical_across_thread_counts(monkeypatch):
    # deep rows skip blocks, so a path's draw count follows its history
    cfg = mc.McConfig(n_paths=3000, dt=0.01, t_max=20000.0, seed=12)
    monkeypatch.setenv("DDKIT_THREADS", "1")
    c1, d1 = mc.excursion_counts(BM, 0.0, 1.0, 1.0, cfg)
    monkeypatch.setenv("DDKIT_THREADS", "4")
    c4, d4 = mc.excursion_counts(BM, 0.0, 1.0, 1.0, cfg)
    assert np.array_equal(c1, c4)
    assert np.array_equal(d1, d4)


def test_excursion_path_count_extension_preserves_prefix():
    def run(n):
        return mc.excursion_counts(BM, 0.0, 1.0, 1.0,
                                   small_cfg(n_paths=n, t_max=20000.0,
                                             seed=22))
    a, da = run(1000)
    b, db = run(1500)
    assert np.array_equal(a, b[:1000])
    assert np.array_equal(da, db[:1000])


def test_thread_cap_env_validation(monkeypatch):
    monkeypatch.setenv("DDKIT_THREADS", "many")
    with pytest.raises(ValidationError):
        mc.thread_cap()
    monkeypatch.setenv("DDKIT_THREADS", "0")
    assert mc.thread_cap() >= 1
    monkeypatch.setenv("DDKIT_THREADS", "3")
    assert mc.thread_cap() == 3


# ---------------------------------------------------------------------------
# sample collection semantics
# ---------------------------------------------------------------------------

def test_collection_sequence_protocol():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg())
    assert len(col) == 1000
    s = col[7]
    assert isinstance(s, mc.PathSample)
    assert s.tau_hat == col.tau_hat[7]
    assert s.m_tau_hat == col.m_tau_hat[7]
    assert s.stopped == bool(col.stopped[7])
    assert sum(1 for _ in col) == 1000


def test_stopped_paths_have_consistent_fields():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(seed=2))
    st = col.stopped
    assert np.all(col.m_tau_hat[st] >= 0.0)
    assert np.all(col.tau_hat > 0.0)
    horizon = col.cfg.n_steps * col.cfg.dt
    assert np.all(col.tau_hat <= horizon * (1 + 1e-12))


def test_unstopped_warning_and_bounds():
    # a horizon this short strands most paths
    cfg = mc.McConfig(n_paths=1000, dt=0.01, t_max=0.05, seed=4)
    with pytest.warns(UserWarning, match="did not reach"):
        col = mc.simulate(BM, 0.0, 1.0, cfg)
    assert col.unstopped_fraction > 0.5
    with pytest.warns(UserWarning, match="transform lies in"):
        est, se = mc.estimate_transform(col, 0.5, 0.0)
    assert est < 0.5  # unstopped paths contribute zero here


def test_estimators_on_fully_stopped_synthetic_set():
    cfg = small_cfg()
    n = cfg.n_paths
    col = mc.PathCollection(
        x=0.0, delta=1.0, cfg=cfg,
        tau_hat=np.full(n, 2.0), m_tau_hat=np.full(n, 3.0),
        stopped=np.ones(n, dtype=bool))
    p, se = mc.estimate_tail(col, 1.0)
    assert p == 1.0 and se == 0.0
    est, _ = mc.estimate_transform(col, 0.0, 0.0)
    assert est == 1.0


def test_estimators_accept_iterables_of_samples():
    rows = [mc.PathSample(tau_hat=1.0, m_tau_hat=2.0, stopped=True)
            for _ in range(50)]
    p, se = mc.estimate_tail(rows, 1.5)
    assert p == 1.0 and se == 0.0


# ---------------------------------------------------------------------------
# closed-form agreement (z within 3 at a frozen seed)
# ---------------------------------------------------------------------------

def test_bm_tail_matches_closed_form():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(n_paths=20000, seed=7))
    p, se = mc.estimate_tail(col, 2.0)
    assert abs(p - math.exp(-2.0)) <= 3.0 * se


def test_bm_transform_matches_sech():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(n_paths=20000, seed=7))
    est, se = mc.estimate_transform(col, 0.5, 0.0)
    assert abs(est - SECH1) <= 3.0 * se


def test_drifted_tail_matches_closed_form():
    col = mc.simulate(DBM, 0.0, 1.0, small_cfg(n_paths=20000, seed=13))
    p, se = mc.estimate_tail(col, 1.0)
    assert abs(p - DBM_TAIL1) <= 3.0 * se


def test_tau_cdf_estimate_bounds_and_value():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(n_paths=20000, seed=7))
    p1, se1 = mc.tau_cdf_estimate(col, 1.0)
    p2, _ = mc.tau_cdf_estimate(col, 2.0)
    assert 0.0 < p1 < p2 <= 1.0
    with pytest.raises(ValidationError):
        mc.tau_cdf_estimate(col, 1e9)


def test_paired_arms_share_noise():
    fine, coarse = mc.paired_simulate(BM, 0.0, 1.0,
                                      small_cfg(n_paths=4000, seed=31))
    assert fine.cfg.dt == pytest.approx(coarse.cfg.dt / 2)
    ef, sef = mc.estimate_transform(fine, 0.5, 0.0)
    ec, _ = mc.estimate_transform(coarse, 0.5, 0.0)
    # coupled arms: the move is bias-sized, far under the scatter of
    # two independent runs
    assert abs(ef - ec) < sef
    assert abs(ef - SECH1) <= 3.0 * sef


# ---------------------------------------------------------------------------
# excursion extraction and Poisson structure
# ---------------------------------------------------------------------------

def test_extract_excursions_handmade_path():
    path = np.array([0.0, -1.5, -0.2, 0.3, 0.1, -0.9, 0.4, 0.45, -0.7,
                     1.2])
    # deep excursions hang from levels 0 (depth 1.5), 0.3 (depth 1.2),
    # 0.45 (depth 1.15); the one from 0.4 is shallow
    recs = mc.extract_excursions(path, 0.5, 1.0, (-0.1, 0.41))
    assert [r.level for r in recs] == [0.0, 0.3]
    assert [r.depth for r in recs] == pytest.approx([1.5, 1.2])
    assert [r.lifetime for r in recs] == pytest.approx([1.5, 1.5])
    recs2 = mc.extract_excursions(path, 0.5, 1.0, (0.0, 0.5))
    assert [r.level for r in recs2] == pytest.approx([0.3, 0.45])


def test_extract_excursions_counts_open_tail():
    path = np.array([0.0, -1.5, -0.2])
    recs = mc.extract_excursions(path, 1.0, 1.0, (-1.0, 1.0))
    assert len(recs) == 1
    assert recs[0].depth == pytest.approx(1.5)
    assert recs[0].lifetime == pytest.approx(3.0)


def test_extract_excursions_zero_when_shallow():
    path = np.array([0.0, -0.4, 0.1, -0.3, 0.2])
    assert mc.extract_excursions(path, 1.0, 0.5, (-1.0, 1.0)) == []


def test_extract_excursions_validation():
    with pytest.raises(ValidationError):
        mc.extract_excursions(np.array([1.0]), 0.1, 1.0, (0.0, 1.0))
    with pytest.raises(ValidationError):
        mc.extract_excursions(np.zeros(5), 0.1, 1.0, (1.0, 1.0))


def test_excursion_counts_validation():
    with pytest.raises(ValidationError):
        mc.excursion_counts(BM, 0.0, -1.0, 1.0, small_cfg())
    with pytest.raises(ValidationError):
        mc.excursion_counts(BM, 0.0, 2.0, 0.3, small_cfg())


def test_excursion_counts_deterministic():
    cfg = small_cfg(n_paths=1000, t_max=200.0, seed=8)
    a, da = mc.excursion_counts(DBM, 0.0, 1.0, 1.0, cfg)
    b, db = mc.excursion_counts(DBM, 0.0, 1.0, 1.0, cfg)
    assert np.array_equal(a, b) and np.array_equal(da, db)


def _first_passage_stats(hit, first, over):
    """(mean, standard error) of the hit fraction and, over the hits, of
    the first grid index at or above the level and its overshoot."""
    out = [(hit.mean(), math.sqrt(hit.mean() * (1.0 - hit.mean())
                                  / hit.size))]
    for v in (first[hit], over[hit]):
        out.append((v.mean(), v.std(ddof=1) / math.sqrt(v.size)))
    return out


@pytest.mark.parametrize("model,x0,level,length,dt", [
    (BM, 0.0, 1.0, 256, 0.01),
    (geometric_brownian(0.05, 0.09), 1.0, 1.3, 512, 0.0009),
], ids=["arith", "loggauss"])
def test_deep_block_skip_matches_stepping(model, x0, level, length, dt):
    # a row whose open excursion is already deep: the skip must put the
    # grid walk's first point at or above the level where stepping every
    # point does
    n = 10000
    rows = np.arange(n)
    skip_hit = np.zeros(n, dtype=bool)
    skip_first = np.zeros(n)
    skip_over = np.zeros(n)
    for i, gen in enumerate(mc._generators(17, 0, n)):
        tail, x_end = mc._deep_block(gen, model.exact_step, x0, level,
                                     length, dt)
        if tail.size:
            assert tail[-1] == pytest.approx(x_end, rel=1e-12)
            up = np.flatnonzero(tail >= level)
            if up.size:
                skip_hit[i] = True
                skip_first[i] = length - tail.size + up[0]
                skip_over[i] = tail[up[0]] - level
    z = mc._draw_normals(mc._generators(18, 0, n), rows, length)
    xb, _ = mc._exact_blocks(model, np.full(n, x0), z, dt)
    up = xb >= level
    step_first = np.argmax(up, axis=1)
    step_stats = _first_passage_stats(up.any(axis=1),
                                      step_first.astype(float),
                                      xb[rows, step_first] - level)
    skip_stats = _first_passage_stats(skip_hit, skip_first, skip_over)
    for (a, sa), (b, sb) in zip(skip_stats, step_stats):
        assert abs(a - b) <= 3.0 * math.hypot(sa, sb)


def test_drifted_excursions_poisson_mean():
    # upward drift reaches the band top fast, so the horizon is cheap
    cfg = mc.McConfig(n_paths=4000, dt=0.01, t_max=200.0, seed=8)
    rep = verify.excursion_report(DBM, 0.0, 1.0, 1.0, cfg)
    assert rep.analytic_mean == pytest.approx(DBM_EXC_MEAN, rel=1e-9)
    assert rep.finished_fraction > 0.99
    assert abs(rep.mean_extrapolated - DBM_EXC_MEAN) <= rep.mean_band
    assert 0.9 <= rep.var_over_mean <= 1.1


def test_ou_excursions_dispersion():
    cfg = mc.McConfig(n_paths=2000, dt=0.01, t_max=400.0, seed=9)
    rep = verify.excursion_report(ornstein_uhlenbeck(1.0), 0.0, 0.8, 1.0,
                                  cfg)
    assert rep.finished_fraction > 0.97
    assert abs(rep.mean_extrapolated - rep.analytic_mean) <= rep.mean_band
    assert 0.85 <= rep.var_over_mean <= 1.15


def test_gbm_excursions_dispersion():
    # log-drift is only 0.005, so reaching the band top is almost
    # driftless diffusion; the horizon must be long
    cfg = mc.McConfig(n_paths=1000, dt=0.0009, t_max=2000.0, seed=10)
    rep = verify.excursion_report(geometric_brownian(0.05, 0.09), 1.0,
                                  1.3, 0.3, cfg)
    assert rep.finished_fraction > 0.97
    assert abs(rep.mean_extrapolated - rep.analytic_mean) <= rep.mean_band
    assert 0.85 <= rep.var_over_mean <= 1.15


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_sample_trajectory_shape_and_determinism():
    cfg = small_cfg()
    t1 = mc.sample_trajectory(BM, 0.0, cfg, n_steps=500)
    t2 = mc.sample_trajectory(BM, 0.0, cfg, n_steps=500)
    assert t1.shape == (501,)
    assert t1[0] == 0.0
    assert np.array_equal(t1, t2)
    t3 = mc.sample_trajectory(BM, 0.0, cfg, n_steps=500, path_index=1)
    assert not np.array_equal(t1, t3)
    t4 = mc.sample_trajectory(BM, 0.0, cfg, n_steps=np.int64(500),
                              path_index=np.uint64(1))
    assert np.array_equal(t3, t4)


@pytest.mark.parametrize("kw", [
    dict(path_index=-1), dict(path_index=2 ** 64), dict(path_index=2.7),
    dict(path_index=True), dict(n_steps=2.5), dict(n_steps=0),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_sample_trajectory_rejects_bad_index_and_steps(kw):
    with pytest.raises(ValidationError):
        mc.sample_trajectory(BM, 0.0, small_cfg(), **kw)


def test_sample_trajectory_stays_in_state_space():
    cfg = mc.McConfig(n_paths=1000, dt=0.0005, t_max=10.0, seed=3)
    path = mc.sample_trajectory(geometric_brownian(0.05, 0.09), 1.0, cfg,
                                n_steps=2000)
    assert np.all(path > 0.0)


def test_verification_report_passes_on_bm():
    cfg = mc.McConfig(n_paths=5000, dt=0.01, t_max=60.0, seed=42)
    rep = verify.verification_report(BM, 0.0, 1.0, cfg)
    assert rep.passed
    assert len(rep.rows) == 4
    assert all(abs(r.z_score) <= 3.0 for r in rep.rows)
    assert max(r.dt_move for r in rep.rows) < 1.0
    assert any("PASS" in line for line in rep.lines())


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal serves only the OU exact step and costs about 0.6 s
    to import, so importing the package and its CLI must not load it."""
    src = str(Path(ddkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, ddkit, ddkit.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
