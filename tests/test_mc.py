"""Monte Carlo engine tests: reproducibility, closed-form agreement,
estimator contracts, and the Poisson structure of excursion counts."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ddkit
from ddkit import mc, verify
from ddkit.errors import DomainError, UnsupportedModelError, ValidationError
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
    ("dt", True), ("dt", "a"), ("t_max", True), ("t_max", "a"),
    ("dt", 5e-324),
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
    with pytest.raises(ValidationError):
        mc.estimate_tail([1, 2], 0.5)


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
    monkeypatch.setenv("DDKIT_THREADS", "-1")
    with pytest.raises(ValidationError, match=">= 0"):
        mc.thread_cap()
    monkeypatch.setenv("DDKIT_THREADS", "0")
    assert mc.thread_cap() >= 1
    monkeypatch.setenv("DDKIT_THREADS", "3")
    assert mc.thread_cap() == 3


def test_thread_cap_follows_cpu_affinity(monkeypatch):
    # a container or taskset may allow fewer CPUs than the machine has
    monkeypatch.delenv("DDKIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert mc.thread_cap() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert mc.thread_cap() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert mc.thread_cap() == 8
    monkeypatch.setenv("DDKIT_THREADS", "5")
    assert mc.thread_cap() == 5


def _digest(*arrays):
    """Short sha256 of the arrays' bytes.  Floats go through float32:
    a platform whose SIMD log or exp rounds the last bit differently
    then still matches, while any change of stream, draw order or
    stepping moves the values far more than that."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.ascontiguousarray(
            a.astype(np.float32) if a.dtype.kind == "f" else a).tobytes())
    return h.hexdigest()[:16]


# model, x, delta, excursion band top, config overrides, excursion horizon
PIN_CASES = {
    "bm": (BM, 0.0, 1.0, 1.0, {}, 400.0),
    "dbm": (DBM, 0.0, 1.0, 1.0, {}, 100.0),
    "gbm": (geometric_brownian(0.05, 0.09), 1.0, 0.3, 1.3,
            dict(dt=0.0009, t_max=20.0), 30.0),
    "ou": (ornstein_uhlenbeck(1.0), 0.0, 1.0, 0.8, {}, 100.0),
    "ou_euler": (ornstein_uhlenbeck(1.0), 0.0, 1.0, 0.8,
                 dict(scheme="euler", t_max=20.0), 60.0),
}
# (simulate, paired_simulate, excursion_counts, sample_trajectory)
PINNED = {
    "bm": ("1308c6e1d01e0338", "58c9fad465e5cd1e",
           "97b61905a747d915", "ca999a4f7b987d7b"),
    "dbm": ("b6935cdb9d1500cb", "33e98da8870deff3",
            "524371f281879b1d", "9d3435f680c40e3f"),
    "gbm": ("c2de0a7b5c4b6bdb", "49251ec5a2c67d8f",
            "018c199e71eb17ce", "7ae763c3700feefb"),
    "ou": ("77d3689d9e553d66", "5eefda6841d7e421",
           "9e0a61c8cf302719", "05945a1cb5c8f643"),
    "ou_euler": ("eee78ac460b1a9f6", "3ea403996616f2fe",
                 "641392c2c713bde5", "a03112ecb1771b05"),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_streams_match_pinned_digests(name):
    # the fixed-seed verdicts of the oracle depend on these streams, so
    # how the engine runs its blocks must not move a single draw; the
    # excursion horizons span several 4096-step blocks with deep skips
    model, x, delta, y, kw, t_exc = PIN_CASES[name]
    cfg = small_cfg(seed=2024, **kw)
    col = mc.simulate(model, x, delta, cfg)
    pair = mc.paired_simulate(model, x, delta, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # some paths end at the horizon
        counts, done = mc.excursion_counts(
            model, x, y, delta, small_cfg(seed=2024, dt=cfg.dt, t_max=t_exc,
                                          scheme=cfg.scheme))
    path = mc.sample_trajectory(model, x, cfg, n_steps=1000, path_index=3)
    got = (_digest(col.tau_hat, col.m_tau_hat, col.stopped),
           _digest(*(getattr(arm, f) for arm in pair
                     for f in ("tau_hat", "m_tau_hat", "stopped"))),
           _digest(counts, done), _digest(path))
    assert got == PINNED[name]


@pytest.mark.parametrize("name", ["bm", "dbm", "gbm"])
def test_excursion_counts_ignore_tail_group_size(monkeypatch, name):
    # _TAIL_GROUP_POINTS sets how many deep-row tails are scanned at a
    # time, which is how the work is run, not which draws it makes
    model, x, delta, y, kw, t_exc = PIN_CASES[name]
    cfg = small_cfg(seed=2024, t_max=t_exc, **{k: v for k, v in kw.items()
                                               if k != "t_max"})
    got = []
    for points in (1, 3 * mc._EXC_BLOCK_STEPS, mc._TAIL_GROUP_POINTS):
        monkeypatch.setattr(mc, "_TAIL_GROUP_POINTS", points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # some paths end at the horizon
            got.append(mc.excursion_counts(model, x, y, delta, cfg))
    for counts, done in got[1:]:
        assert np.array_equal(counts, got[0][0])
        assert np.array_equal(done, got[0][1])


class _CountedStream:
    """A stream that records the size of each standard_normal call."""

    def __init__(self, gen, sizes):
        self.gen, self.sizes = gen, sizes

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.gen.standard_normal(size)


def test_stepped_rows_stop_drawing_at_the_block_of_their_passage(monkeypatch):
    # OU rows are never deep, so every row steps; a row finishes at its
    # first point above y and draws no normal past that 256-step block
    model, x, delta, y = ornstein_uhlenbeck(1.0), 0.0, 1.0, 0.8
    cfg = small_cfg(seed=31, t_max=60.0)
    sizes, steps = [], []
    stream, grid = mc._stream, mc._grid_block
    monkeypatch.setattr(mc, "_stream",
                        lambda *a: _CountedStream(stream(*a), sizes))

    def stepped(model, cfg, x0, z, dt):
        steps.append((x0, grid(model, cfg, x0, z, dt)))
        return steps[-1][1]

    monkeypatch.setattr(mc, "_grid_block", stepped)
    _, done = mc.excursion_counts(model, x, y, delta, cfg)
    monkeypatch.undo()
    assert done.all() and len(sizes) == len(steps)
    # one chunk: follow its rows through the stepped blocks, dropping a
    # row once it went above y; each block must start at its rows' last
    # points and draw exactly their normals
    rows = np.arange(cfg.n_paths)
    drawn = np.zeros(cfg.n_paths, dtype=np.int64)
    points = [[np.array([x])] for _ in rows]
    for size, (x0, xb) in zip(sizes, steps):
        assert size == xb.shape and size[0] == rows.size
        assert np.array_equal(x0, [points[i][-1][-1] for i in rows])
        drawn[rows] += size[1]
        for i, row in zip(rows, xb):
            points[i].append(row)
        rows = rows[~(xb > y).any(axis=1)]
    block = mc._BLOCK_STEPS
    for i in range(cfg.n_paths):
        up = np.concatenate(points[i])[1:] > y
        k = int(np.argmax(up)) + 1    # steps up to the first point above y
        assert up.any() and drawn[i] == min(-(-k // block) * block, cfg.n_steps)


def test_simulate_builds_streams_per_block_not_per_path(monkeypatch):
    # each draw phase of a chunk's block is one generator for all its rows
    built = []
    stream = mc._stream
    monkeypatch.setattr(mc, "_stream", lambda *a: built.append(a[1:3]) or stream(*a))
    cfg = small_cfg(n_paths=3000, seed=41)
    mc.simulate(BM, 0.0, 1.0, cfg)
    per_block = Counter(built)
    assert {first for first, _ in per_block} == {0, mc._CHUNK_PATHS}
    assert max(per_block.values()) <= 2
    assert len(built) <= 2 * 2 * -(-cfg.n_steps // mc._BLOCK_STEPS)


def test_ou_step_is_the_sequential_recursion():
    # X_j - mean = sd z_j + a (X_{j-1} - mean), rounded step by step as
    # plain Python floats do it
    theta, mean, s2, dt = 1.3, 0.4, 0.7, 0.01
    model = ornstein_uhlenbeck(theta, mean=mean, sigma_sq=s2)
    z = np.random.default_rng(9).standard_normal((3, 300))
    x0 = np.array([0.4, -1.2, 2.5])
    a = math.exp(-theta * dt)
    sd = math.sqrt(s2 * (-math.expm1(-2.0 * theta * dt)) / (2.0 * theta))
    want = np.empty_like(z)
    for i in range(3):
        y = float(x0[i]) - mean
        for j in range(300):
            y = sd * float(z[i, j]) + a * y
            want[i, j] = mean + y
    assert np.array_equal(mc._exact_blocks(model, x0, z, dt), want)


# ---------------------------------------------------------------------------
# sample collection semantics
# ---------------------------------------------------------------------------

def test_stopped_paths_have_consistent_fields():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(seed=2))
    st = col.stopped
    assert np.all(col.m_tau_hat[st] >= 0.0)
    assert np.all(col.tau_hat > 0.0)
    horizon = col.cfg.n_steps * col.cfg.dt
    assert np.all(col.tau_hat <= horizon * (1 + 1e-12))


def test_unstopped_warning_and_bounds():
    # a horizon this short strands most paths: the run warns once, at the
    # caller's line, and the tail estimate adds no second warning
    cfg = mc.McConfig(n_paths=1000, dt=0.01, t_max=0.05, seed=4)
    with pytest.warns(UserWarning, match="did not reach") as record:
        col = mc.simulate(BM, 0.0, 1.0, cfg)
    assert len(record) == 1 and record[0].filename == __file__
    assert col.unstopped_fraction > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc.estimate_tail(col, 0.5)
    with pytest.warns(UserWarning, match="transform lies in") as record:
        est, se = mc.estimate_transform(col, 0.5, 0.0)
    assert record[0].filename == __file__
    assert est < 0.5  # unstopped paths contribute zero here
    # 1% unstopped is an unfinished run: it warns, and verify fails it
    n = 1000
    edge = mc.PathCollection(x=0.0, delta=1.0, cfg=small_cfg(),
                             tau_hat=np.full(n, 2.0), m_tau_hat=np.full(n, 1.0),
                             stopped=np.arange(n) >= n // 100)
    with pytest.warns(UserWarning, match="transform lies in"):
        mc.estimate_transform(edge, 0.5, 0.0)
    report = verify.VerificationReport("bm", 0.0, 1.0, 0.01, n, (), 0.01)
    assert not report.passed
    assert verify.VerificationReport("bm", 0.0, 1.0, 0.01, n, (), 0.0099).passed


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


def test_estimators_refuse_anything_but_a_collection():
    col = mc.simulate(BM, 0.0, 1.0, small_cfg(seed=2))
    rows = [(float(t), float(m), bool(s))
            for t, m, s in zip(col.tau_hat, col.m_tau_hat, col.stopped)]
    for call in (lambda s: mc.estimate_tail(s, 1.5),
                 lambda s: mc.estimate_transform(s, 0.5, 0.0),
                 lambda s: mc.tau_cdf_estimate(s, 1.0)):
        call(col)
        for bad in (rows, [], (col.tau_hat, col.m_tau_hat, col.stopped)):
            with pytest.raises(ValidationError, match="PathCollection"):
                call(bad)


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


def test_tau_cdf_estimate_reads_up_to_the_horizon():
    # 3 steps of 0.3 end at 0.9, short of t_max: past 0.9 nothing is observed
    cfg = mc.McConfig(n_paths=2000, dt=0.3, t_max=1.0, seed=1)
    with pytest.warns(UserWarning, match="did not reach"):
        col = mc.simulate(BM, 0.0, 10.0, cfg)
    assert cfg.horizon == 3 * 0.3
    assert mc.tau_cdf_estimate(col, 0.9) == (0.0, 0.0)
    for t in (0.95, 1.0):
        with pytest.raises(ValidationError, match="beyond the simulated horizon"):
            mc.tau_cdf_estimate(col, t)


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
    with pytest.raises(ValidationError):
        mc.extract_excursions(np.array([0.0, math.nan, -2.0, 1.0]), 0.1, 1.0,
                              (-1.0, 1.0))
    with pytest.raises(ValidationError):
        mc.extract_excursions(["a", 1.0], 0.1, 1.0, (-1.0, 1.0))
    with pytest.raises(ValidationError):
        mc.extract_excursions(np.zeros(5), 0.1, 1.0, 5.0)


def test_excursion_counts_validation():
    with pytest.raises(ValidationError):
        mc.excursion_counts(BM, 0.0, -1.0, 1.0, small_cfg())
    with pytest.raises(ValidationError):
        mc.excursion_counts(BM, 0.0, 2.0, 0.3, small_cfg())
    # a band top at or past B is outside the state space, not an ordering
    boxed = brownian(interval=(-5.0, 2.0))
    for y in (2.0, 3.0):
        with pytest.raises(DomainError, match="excursion_counts"):
            mc.excursion_counts(boxed, 0.0, y, 1.0, small_cfg())


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
    hits, tails, x_end = mc._deep_blocks(
        functools.partial(mc._stream, 17, 0, 0), model.exact_step,
        np.full(n, x0), np.full(n, level), length, dt)
    skip_hit = np.zeros(n, dtype=bool)
    skip_first = np.zeros(n)
    skip_over = np.zeros(n)
    for i, tail in zip(hits, tails):
        assert tail[-1] == pytest.approx(x_end[i], rel=1e-12)
        up = np.flatnonzero(tail >= level)
        if up.size:
            skip_hit[i] = True
            skip_first[i] = length - tail.size + up[0]
            skip_over[i] = tail[up[0]] - level
    z = mc._stream(18, 0, 0, 0).standard_normal((n, length))
    xb = mc._exact_blocks(model, np.full(n, x0), z, dt)
    up = xb >= level
    step_first = np.argmax(up, axis=1)
    step_stats = _first_passage_stats(up.any(axis=1),
                                      step_first.astype(float),
                                      xb[rows, step_first] - level)
    skip_stats = _first_passage_stats(skip_hit, skip_first, skip_over)
    for (a, sa), (b, sb) in zip(skip_stats, step_stats):
        assert abs(a - b) <= 3.0 * math.hypot(sa, sb)


def _scan_row_reference(row, level, low, lo, hi, delta):
    """Point-by-point excursion scan of one row: (count, level, low,
    over), the row read up to its first point above hi."""
    count, over = 0, False
    for v in row:
        if v >= level:
            # touches or raises the maximum: the open excursion ends
            if level - low >= delta and lo < level <= hi:
                count += 1
            level = low = v
            if v > hi:
                over = True
                break
        else:
            low = min(low, v)
    return count, level, low, over


def _reference_scan(rows, level, low, lo, hi, delta):
    """_scan_row_reference over rows, as (counts, level, low, over)."""
    return [np.array(col) for col in zip(*(
        _scan_row_reference(r, lv, lw, lo, hi, delta)
        for r, lv, lw in zip(rows, level, low)))]


def _check_scan(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[3], want[3])
    # a row's state after it went above hi is never read again
    keep = ~want[3]
    assert np.array_equal(got[1][keep], want[1][keep])
    assert np.array_equal(got[2][keep], want[2][keep])


def _scan_in_pieces(xs, level, low, lo, hi, delta, cuts):
    """Scan column pieces in turn, carrying level and low, as the
    excursion counter's sub-blocks do."""
    counts = np.zeros(len(xs), dtype=np.int64)
    over = np.zeros(len(xs), dtype=bool)
    for a, b in zip(cuts[:-1], cuts[1:]):
        c, level, low, o = mc._scan_excursions(xs[:, a:b], level, low,
                                               lo, hi, delta)
        counts += c
        over |= o
    return counts, level, low, over


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_excursion_scan_matches_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    n, w, lo, hi, delta = 400, 96, 0.0, 1.5, 0.5
    level = rng.uniform(0.0, 1.4, n)
    low = level - rng.uniform(0.0, 1.0, n)      # about half arrive deep
    start = low + rng.uniform(0.0, 1.0, n) * (level - low)
    xs = start[:, None] + np.cumsum(rng.normal(0.0, 0.12, (n, w)), axis=1)
    # a carried deep excursion that closes at the first point, so no
    # point lies between the carried minimum and the next maximum
    level[0], low[0] = 1.0, 0.2
    xs[0, 0] = 1.0
    # the same at the first point of the piece that starts at column 40
    level[1], low[1] = 0.9, 0.85
    xs[1, :40] = 0.2
    xs[1, 40:] = 0.95 + np.linspace(0.0, 0.1, w - 40)
    # a row that goes above hi in the middle
    xs[2] = np.linspace(level[2] - 0.6, hi + 0.4, w)
    # a row that never reaches its maximum again
    xs[3] = level[3] - 0.05 - rng.uniform(0.0, 0.8, w)
    args = (level, low, lo, hi, delta)
    want = _reference_scan(xs, *args)
    assert want[0][0] == 1 and want[0][1] == 1
    assert want[3][2] and not want[3][3]
    assert want[0][3] == 0 and want[2][3] == min(low[3], xs[3].min())
    assert want[3].any() and (want[0] > 0).sum() > 20
    _check_scan(mc._scan_excursions(xs, *args), want)
    _check_scan(_scan_in_pieces(xs, *args, cuts=(0, 1, 40, 41, 77, w)),
                want)


def test_excursion_scan_of_left_filled_tails():
    # a deep row draws only the grid points after its bridge reaches the
    # level; the counter right-aligns such tails in the block and fills
    # the points before them with the open minimum, which must count
    # as the bare tail does
    rng = np.random.default_rng(7)
    n, length, lo, hi, delta = 80, 300, 0.0, 2.0, 0.5
    level = rng.uniform(0.2, 1.6, n)
    low = level - rng.uniform(0.5, 1.5, n)
    sizes = rng.integers(1, length + 1, n)
    sizes[:2] = 1, length
    tails = [lv + np.cumsum(rng.normal(0.0, 0.1, k))
             for lv, k in zip(level, sizes)]
    filled = np.repeat(low[:, None], length, axis=1)
    for row, tail in zip(filled, tails):
        row[length - tail.size:] = tail
    args = (level, low, lo, hi, delta)
    want = _reference_scan(tails, *args)
    assert want[0].sum() > 10 and want[3].any()
    for cuts in ((0, length), (0, 256, length), (0, 7, 150, 151, length)):
        _check_scan(_scan_in_pieces(filled, *args, cuts=cuts), want)


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
    with pytest.raises(DomainError, match="sample_trajectory"):
        mc.sample_trajectory(geometric_brownian(0.05, 0.09), -1.0, cfg, n_steps=10)


def test_verification_report_passes_on_bm():
    cfg = mc.McConfig(n_paths=5000, dt=0.01, t_max=60.0, seed=42)
    rep = verify.verification_report(BM, 0.0, 1.0, cfg)
    assert rep.passed
    assert len(rep.rows) == 4
    assert all(abs(r.z_score) <= 3.0 for r in rep.rows)
    assert max(r.dt_move for r in rep.rows) < 1.0
    assert any("PASS" in line for line in rep.lines())
    # every path passes level 0: no spread, and the 1e-12 rule passes the row
    rep = verify.verification_report(BM, 0.0, 1.0, mc.McConfig(2000, 0.01, 40.0, 5),
                                     ys=(0.0, 0.5, 1.0))
    zero = rep.rows[0]
    assert (zero.std_error, zero.z_score, zero.passed) == (0.0, 0.0, True)


def test_verification_report_refuses_two_levels():
    with pytest.raises(ValidationError, match="exactly three tail levels"):
        verify.verification_report(BM, 0.0, 1.0, small_cfg(), ys=(0.5, 1.0))


def test_verification_report_extrapolates_one_euler_pair(monkeypatch):
    """Euler grid monitoring leaves O(sqrt(dt)) bias, which halving dt
    until the arms agree left at transform z of about -12 after four
    pairs on every seed 101-110; extrapolating the first pair at order
    1/2 passes."""
    calls = []
    paired = mc.paired_simulate
    monkeypatch.setattr(mc, "paired_simulate",
                        lambda *args: calls.append(args) or paired(*args))
    twin = custom_model({"form": "affine", "intercept": 0.0, "slope": -1.0},
                        {"form": "constant", "value": 1.0})
    cfg = mc.McConfig(n_paths=20000, dt=0.01, t_max=40.0, seed=101,
                      scheme="euler")
    rep = verify.verification_report(twin, 0.0, 1.0, cfg)
    assert rep.passed, rep.lines()
    assert len(calls) == 1
    assert rep.dt == 0.005


def test_extrapolate_is_richardson_on_paired_paths():
    fine, coarse = np.array([1.0, 2.0, 0.0, 4.0]), np.array([0.0, 3.0, 0.0, 2.0])
    for ratio, order in ((2.0, 1.0), (4.0, 0.5)):
        mean, se = verify._extrapolate(fine, coarse, ratio, order)
        assert mean == 2.25
        assert se == pytest.approx(np.std(2.0 * fine - coarse, ddof=1) / 2.0,
                                   rel=1e-15)
    assert verify._extrapolate(fine, coarse, 2.0, 0.5)[0] == pytest.approx(
        1.75 + 0.5 / (math.sqrt(2.0) - 1.0), rel=1e-15)
    assert set(mc._BIAS_ORDER) == {"euler", "exact_bm"}


def test_excursion_report_keeps_its_band_case():
    # the CLI's band case on the current streams; its var/mean 0.8926 is
    # outside the old fixed band 0.9..1.1 and 2.96 measured se from 1
    cfg = mc.McConfig(n_paths=1000, dt=0.01, t_max=200.0, seed=8)
    rep = verify.excursion_report(drifted_brownian(1.0), 0.0, 2.0, 1.0, cfg)
    assert rep.mean_extrapolated == pytest.approx(0.613, rel=1e-14)
    assert rep.extrapolated_se == pytest.approx(0.04371661174132943, rel=1e-14)
    assert (rep.mean_fine, rep.mean_coarse) == (0.545, 0.477)
    assert rep.passed


def test_dispersion_se_is_the_delta_method_on_central_moments():
    # Var(m2 / m) from the central moments m2, m3, m4 of the counts; for
    # Poisson counts it is 2 / n whatever the mean
    counts = np.random.default_rng(4).poisson(0.7, 5000)
    m = counts.mean()
    m2, m3, m4 = (np.mean((counts - m) ** k) for k in (2, 3, 4))
    var = ((m4 - m2 * m2) / m ** 2 - 2.0 * m3 * m2 / m ** 3
           + m2 ** 3 / m ** 4) / counts.size
    ratio, se = verify._dispersion(counts)
    assert ratio == counts.var(ddof=1) / m
    assert se == pytest.approx(math.sqrt(var), rel=1e-3)
    assert se == pytest.approx(math.sqrt(2.0 / counts.size), rel=0.1)


def test_excursion_report_refuses_a_band_without_excursions():
    # no path counts an excursion from ]0, 1e-9], so var/mean has no value
    cfg = mc.McConfig(n_paths=1000, dt=0.01, t_max=5.0, seed=1)
    with pytest.raises(ValidationError, match="widen the band") as err:
        verify.excursion_report(BM, 0.0, 1e-9, 1.0, cfg)
    assert err.value.operation == "excursion_report"


def _scipy_modules_after(run):
    """Names of the scipy modules loaded by a fresh interpreter that imports
    ddkit and its CLI, then runs ``run`` with ``m`` an OU model."""
    src = Path(ddkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ddkit, ddkit.cli\n"
            "m = ddkit.ornstein_uhlenbeck(1.0)\n"
            f"{run}\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_signal_unloaded():
    """The OU exact step is a numpy recursion: importing the package and its
    CLI, then running an OU simulate, leaves no scipy module loaded."""
    run = ("ddkit.simulate(m, 0.0, 1.0, ddkit.McConfig(n_paths=1000, dt=0.01,"
           " t_max=40.0, seed=1))")
    assert _scipy_modules_after(run) == "[]"


def test_import_leaves_scipy_quadrature_unloaded():
    """ddkit runs on numpy alone: no module of the package imports scipy,
    and importing the package and its CLI, then running an OU transform,
    leaves no scipy module loaded."""
    import ast
    src = Path(ddkit.__file__).resolve().parents[1]
    for path in sorted((src / "ddkit").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level]
        assert not [m for m in imported if m.split(".")[0] == "scipy"], path.name
    run = "ddkit.joint_transform(m, ddkit.DrawdownQuery(0.0, 1.0, alpha=0.5))"
    assert _scipy_modules_after(run) == "[]"
