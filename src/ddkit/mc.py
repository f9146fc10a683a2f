"""Monte Carlo oracle for the drawdown laws.

Simulates paths until the first time the running maximum exceeds the
path by delta, and estimates tails, transforms, and excursion counts
with CLT error bars.  Everything the analytic layer produces can be
checked against these estimates, so the engine is built for
reproducibility first and speed second:

* every path owns a counter-based random stream keyed on
  (seed, path index), so results are bit-identical no matter how the
  work is chunked or how many threads run;
* draws are consumed in fixed blocks per path (normals, then bridge
  uniforms when the scheme needs them), so a path's randomness depends
  only on its own history;
* reductions concatenate chunk results in index order.

One block stepper serves ``simulate`` and the coupled (dt/2, dt) pair
of ``paired_simulate``: a single run is one arm at dt, a pair is a fine
arm at dt/2 and a coarse arm at dt whose normals are combined from
consecutive pairs of the fine ones.  A block covers 256 fine steps
(128 coarse steps in a pair) and draws, per path, the fine normals,
then, under the exact scheme, each arm's bridge uniforms u_min and
then u_max, fine arm first.  That draw order is part of the
determinism contract: a different random stream, or a different order
within a block, changes every path.  One chunk driver runs this
stepper and the excursion counter over fixed 2048-path chunks.

The excursion counter skips work where the count cannot move.  A path
whose open excursion is already delta-deep is counted once that
excursion closes, and it closes only when the path climbs back to its
maximum; until then no grid point matters.  For the "arith" and
"loggauss" exact steps (Brownian motion with or without drift, and
geometric Brownian motion in log space) such a row draws each 4096-step
block's end increment and whether the Brownian bridge to it reaches the
maximum.  If it does not, no grid point of the block reaches the
maximum either, and the row jumps to the endpoint.  If it does, the
row draws the bridge's first passage time and fills only the grid
points after it, as a bridge from the maximum to the endpoint; the
points before it all lie below the maximum.  The scan then runs on
those points as on a stepped block, so the counts keep their per-grid
law exactly: a skipped block is the same grid walk, drawn in another
order.  A row's number of draws then follows its own history, which
the per-path streams allow.  Ornstein-Uhlenbeck and Euler rows, and
rows whose open excursion is not yet deep, step every grid point.

Schemes: ``euler`` is the generic first-order step with drawdown
detection on the grid; ``exact_bm`` uses the model's exact Gaussian
transition (arithmetic, lognormal, or mean-reverting) plus per-step
Brownian-bridge extremes: the bridge minimum probes for the drawdown
and the bridge maximum feeds the running maximum.  Correcting only
the minimum side would leave the grid maximum lagging the true one by
about 0.58 sigma sqrt(dt), which shows up as a drawdown threshold
inflated by the same amount; sampling both sides removes every
O(sqrt(dt)) term.  The two extremes of one step are drawn
independently, and a step that first sets a new maximum and then
falls delta below it within the same step is not seen; both effects
are O(dt) when delta is several step standard deviations, which the
dt <= delta^2/100 guard enforces.  For the mean-reverting kind the
bridge uses the constant diffusion coefficient, again an O(dt)
approximation.  The dt-pair comparisons in the verification layer
measure what is left.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .models import DiffusionModel, validate_query

_MOD = "mc"

# partitioning contract: fixed path chunks and per-path draw blocks
_CHUNK_PATHS = 2048
_BLOCK_STEPS = 256


def thread_cap() -> int:
    """Worker cap from DDKIT_THREADS; 0 or unset means auto."""
    raw = os.environ.get("DDKIT_THREADS", "0").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError("DDKIT_THREADS must be an integer",
                              operation="thread_cap", value=raw, module=_MOD)
    if n < 0:
        raise ValidationError("DDKIT_THREADS must be >= 0",
                              operation="thread_cap", value=n, module=_MOD)
    if n == 0:
        return min(8, os.cpu_count() or 1)
    return n


# ---------------------------------------------------------------------------
# configuration and sample types
# ---------------------------------------------------------------------------

def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    dt must also satisfy dt <= delta^2 / 100 for the query it is used
    with; that guard is checked where delta is known.  t_max should be
    generous: paths still running at the horizon are counted, bounded,
    and warned about, never silently dropped.
    """

    n_paths: int
    dt: float
    t_max: float
    seed: int
    scheme: str = "exact_bm"

    def __post_init__(self):
        if not (_is_integer(self.n_paths) and self.n_paths >= 1000):
            raise ValidationError("n_paths must be an integer >= 1000",
                                  operation="McConfig", value=self.n_paths,
                                  module=_MOD)
        if not (isinstance(self.dt, (int, float)) and 0 < self.dt
                and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite",
                                  operation="McConfig", value=self.dt,
                                  module=_MOD)
        if not (isinstance(self.t_max, (int, float)) and self.t_max >= self.dt
                and math.isfinite(self.t_max)):
            raise ValidationError("t_max must be finite and >= dt",
                                  operation="McConfig", value=self.t_max,
                                  module=_MOD)
        if not (_is_integer(self.seed) and 0 <= int(self.seed) < 2 ** 64):
            raise ValidationError("seed must be a 64-bit unsigned integer",
                                  operation="McConfig", value=self.seed,
                                  module=_MOD)
        if self.scheme not in ("euler", "exact_bm"):
            raise ValidationError("scheme must be 'euler' or 'exact_bm'",
                                  operation="McConfig", value=self.scheme,
                                  module=_MOD)
        # numpy integers are stored as ints, so streams and reports
        # match the same config given with Python ints
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))


@dataclass(frozen=True)
class ExcursionRecord:
    """One excursion below the running maximum: the level it hangs
    from, how deep it got, and how long it lasted."""

    level: float
    depth: float
    lifetime: float

    def __post_init__(self):
        if not (self.depth > 0 and self.lifetime > 0):
            raise ValidationError("depth and lifetime must be positive",
                                  operation="ExcursionRecord",
                                  value=(self.depth, self.lifetime),
                                  module=_MOD)


@dataclass(frozen=True)
class PathSample:
    """Stopping data of one simulated path."""

    tau_hat: float
    m_tau_hat: float
    stopped: bool
    excursions: tuple = ()


@dataclass(frozen=True, eq=False)
class PathCollection:
    """Column-oriented set of PathSamples from one simulate() call.

    Behaves as a sequence of PathSample; the estimators read the
    arrays directly.
    """

    x: float
    delta: float
    cfg: McConfig
    tau_hat: np.ndarray
    m_tau_hat: np.ndarray
    stopped: np.ndarray

    def __post_init__(self):
        n = self.cfg.n_paths
        if not (self.tau_hat.shape == self.m_tau_hat.shape
                == self.stopped.shape == (n,)):
            raise ValidationError("sample arrays must have one row per path",
                                  operation="PathCollection", module=_MOD)
        if np.any(self.m_tau_hat[self.stopped] < self.x):
            raise ValidationError("a stopped path reported a maximum below "
                                  "its start", operation="PathCollection",
                                  module=_MOD)
        horizon = self.cfg.n_steps * self.cfg.dt
        if np.any(self.tau_hat > horizon * (1 + 1e-12)):
            raise ValidationError("tau_hat beyond the horizon",
                                  operation="PathCollection", module=_MOD)

    def __len__(self) -> int:
        return self.cfg.n_paths

    def __getitem__(self, i: int) -> PathSample:
        return PathSample(tau_hat=float(self.tau_hat[i]),
                          m_tau_hat=float(self.m_tau_hat[i]),
                          stopped=bool(self.stopped[i]))

    @property
    def unstopped_fraction(self) -> float:
        return float(1.0 - self.stopped.mean())


# ---------------------------------------------------------------------------
# per-path streams and block stepping
# ---------------------------------------------------------------------------

def _generators(seed: int, first: int, count: int) -> list:
    return [np.random.Generator(
        np.random.Philox(key=np.array([seed, first + i], dtype=np.uint64)))
        for i in range(count)]


def _draw_normals(gens, rows, length):
    return np.stack([gens[i].standard_normal(length) for i in rows])


def _draw_uniforms(gens, rows, length):
    # 1 - random() lies in ]0, 1]; at exactly 1 the bridge minimum
    # degenerates to the endpoint minimum, which is the right limit
    return np.stack([1.0 - gens[i].random(length) for i in rows])


def _exact_blocks(model, x_cur, z, dt):
    """(X block, previous X per step) under the exact Gaussian step."""
    step = model.exact_step
    if step.kind == "arith":
        inc = step.mu_sim * dt + math.sqrt(step.sig_sq_sim * dt) * z
        xb = x_cur[:, None] + np.cumsum(inc, axis=1)
    elif step.kind == "loggauss":
        inc = step.mu_sim * dt + math.sqrt(step.sig_sq_sim * dt) * z
        xb = x_cur[:, None] * np.exp(np.cumsum(inc, axis=1))
    elif step.kind == "ou":
        a = math.exp(-step.theta * dt)
        sd = math.sqrt(step.sig_sq_sim * (-math.expm1(-2.0 * step.theta * dt))
                       / (2.0 * step.theta))
        from scipy import signal    # costs ~0.6 s at import; only OU uses it
        d0 = x_cur - step.mean
        dev, _ = signal.lfilter([1.0], [1.0, -a], sd * z, axis=1,
                                zi=(a * d0)[:, None])
        xb = step.mean + dev
    else:  # pragma: no cover - catalog kinds are closed above
        raise UnsupportedModelError("unknown exact step kind",
                                    operation="simulate", value=step.kind,
                                    module=_MOD)
    xprev = np.concatenate([x_cur[:, None], xb[:, :-1]], axis=1)
    return xb, xprev


def _bridge_extremes(model, xprev, xb, u_min, u_max, dt):
    """Within-step (minimum, maximum) samples of the Brownian bridge
    between consecutive step ends, in the state coordinate."""
    step = model.exact_step
    s2 = step.bridge_sig_sq
    if step.kind == "loggauss":
        # the bridge is exact in log space; state extremes are its exp
        a, b = np.log(xprev), np.log(xb)
    else:
        a, b = xprev, xb
    gap = a - b
    root_lo = np.sqrt(gap * gap - 2.0 * s2 * dt * np.log(u_min))
    root_hi = np.sqrt(gap * gap - 2.0 * s2 * dt * np.log(u_max))
    lo = 0.5 * (a + b - root_lo)
    hi = 0.5 * (a + b + root_hi)
    if step.kind == "loggauss":
        return np.exp(lo), np.exp(hi)
    return lo, hi


def _euler_blocks(model, x_cur, z, dt):
    a, b = model.interval
    lo = a + 1e-12 * (1.0 + abs(a)) if math.isfinite(a) else -math.inf
    hi = b - 1e-12 * (1.0 + abs(b)) if math.isfinite(b) else math.inf
    p, L = z.shape
    xb = np.empty((p, L))
    xc = x_cur
    rdt = math.sqrt(dt)
    for k in range(L):
        mu = np.asarray(model.drift(xc), dtype=float)
        s2 = np.asarray(model.diffusion_sq(xc), dtype=float)
        xc = xc + mu * dt + np.sqrt(s2) * rdt * z[:, k]
        # a first-order step can jump over an endpoint the diffusion
        # itself cannot reach; pin it just inside
        xc = np.clip(xc, lo, hi)
        xb[:, k] = xc
    xprev = np.concatenate([x_cur[:, None], xb[:, :-1]], axis=1)
    return xb, xprev


def _grid_block(model, cfg, x_cur, z, dt):
    """(X block, previous X per step) under cfg's scheme."""
    if cfg.scheme == "exact_bm":
        return _exact_blocks(model, x_cur, z, dt)
    return _euler_blocks(model, x_cur, z, dt)


def _require_scheme(model, cfg):
    if cfg.scheme == "exact_bm" and model.exact_step is None:
        raise UnsupportedModelError(
            "this model has no exact Gaussian step; use scheme='euler'",
            operation="simulate", value=model.model_id, module=_MOD)


def _check_dt(cfg, delta, operation):
    if cfg.dt > delta * delta / 100.0:
        raise ValidationError(
            "dt must be at most delta^2 / 100 to resolve the drawdown",
            operation=operation, value=cfg.dt, module=_MOD)


def _run_chunks(fn, cfg, *args):
    """fn(*args, cfg, first, count) over the fixed path chunks, on up to
    thread_cap() threads; results come back in path order."""
    chunks = [(i, min(_CHUNK_PATHS, cfg.n_paths - i))
              for i in range(0, cfg.n_paths, _CHUNK_PATHS)]
    workers = min(thread_cap(), len(chunks))
    if workers <= 1:
        return [fn(*args, cfg, f, c) for f, c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(fn, *args, cfg, f, c) for f, c in chunks]
        return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# drawdown simulation: one stepper for a single run and the coupled dt-pair
# ---------------------------------------------------------------------------

def _paired_normals(model, cfg, z, dt_half):
    """Coarse-step normals built from pairs of fine-step normals.

    Two consecutive exact steps of size dt/2 compose into one exact
    step of size dt driven by this combination, so the two arms ride
    the same noise and their difference isolates discretization bias.
    """
    z1, z2 = z[:, 0::2], z[:, 1::2]
    step = model.exact_step
    if cfg.scheme == "exact_bm" and step is not None and step.kind == "ou":
        a = math.exp(-step.theta * dt_half)
        return (a * z1 + z2) / math.sqrt(1.0 + a * a)
    return (z1 + z2) / math.sqrt(2.0)


def _drawdown_chunk(model, x, delta, dts, cfg, first, count):
    """One chunk of drawdown paths on each arm of dts: (cfg.dt,) for a
    single run, (cfg.dt/2, cfg.dt) for the coupled pair.  Returns one
    (tau, m_tau, stopped) triple per arm, fine first.

    Arm i takes one step per i+1 fine steps, and a block draws in the
    order the module docstring fixes.  A path keeps drawing while
    either arm is running, so both arms read the same stream.
    """
    gens = _generators(cfg.seed, first, count)
    n_fine = cfg.n_steps * len(dts)
    bridge = cfg.scheme == "exact_bm"
    off = 0.5 if bridge else 1.0

    x_cur = np.full((len(dts), count), float(x))
    m_cur = x_cur.copy()
    m_tau = x_cur.copy()
    tau = np.full((len(dts), count), cfg.n_steps * cfg.dt)
    stopped = np.zeros((len(dts), count), dtype=bool)
    alive = np.arange(count)
    base = 0

    while alive.size and base < n_fine:
        length = min(_BLOCK_STEPS, n_fine - base)
        z = _draw_normals(gens, alive, length)
        zs = ((z,) if len(dts) == 1
              else (z, _paired_normals(model, cfg, z, dts[0])))
        if bridge:
            us = [(_draw_uniforms(gens, alive, zi.shape[1]),
                   _draw_uniforms(gens, alive, zi.shape[1])) for zi in zs]
        running = np.zeros(alive.size, dtype=bool)
        for i, dt in enumerate(dts):
            live = ~stopped[i, alive]
            xb, xprev = _grid_block(model, cfg, x_cur[i, alive], zs[i], dt)
            if bridge:
                probe, tops = _bridge_extremes(model, xprev, xb, *us[i], dt)
            else:
                probe, tops = xb, xb
            # running maximum before each step's end; the probe (bridge
            # minimum, or the grid point itself) stops the path when it
            # falls delta below.  A new-maximum step cannot stop: its
            # probe stays above the old maximum minus delta or the
            # bridge dip is caught on the spot.
            m_shift = np.maximum.accumulate(
                np.concatenate([m_cur[i, alive][:, None], tops[:, :-1]],
                               axis=1), axis=1)
            hit = (m_shift - probe >= delta) & live[:, None]
            any_hit = hit.any(axis=1)
            rows = np.flatnonzero(any_hit)
            if rows.size:
                kk = np.argmax(hit[rows], axis=1)
                g = alive[rows]
                tau[i, g] = (base // (i + 1) + kk + off) * dt
                m_tau[i, g] = m_shift[rows, kk]
                stopped[i, g] = True
            keep = live & ~any_hit
            g = alive[keep]
            x_cur[i, g] = xb[keep, -1]
            m_cur[i, g] = np.maximum(m_cur[i, g], np.max(tops[keep], axis=1))
            running |= keep
        alive = alive[running]
        base += length

    m_tau[~stopped] = m_cur[~stopped]
    return list(zip(tau, m_tau, stopped))


def _drawdown_paths(model, x, delta, cfg, paired):
    """PathCollections of simulate (one) or paired_simulate (fine,
    coarse); warns, on behalf of the public caller, when the first arm
    leaves more than 1% of paths unstopped."""
    validate_query(model, x, delta)
    _require_scheme(model, cfg)
    _check_dt(cfg, delta, "paired_simulate" if paired else "simulate")
    dts = (0.5 * cfg.dt, cfg.dt) if paired else (cfg.dt,)
    parts = _run_chunks(_drawdown_chunk, cfg, model, x, delta, dts)
    cols = []
    for i, dt in enumerate(dts):
        # both arms of a pair simulate exactly n_steps coarse steps of
        # time; an aligned t_max keeps each arm's step count consistent
        arm_cfg = (McConfig(n_paths=cfg.n_paths, dt=dt,
                            t_max=cfg.n_steps * cfg.dt, seed=cfg.seed,
                            scheme=cfg.scheme) if paired else cfg)
        tau, m_tau, stopped = (np.concatenate([p[i][j] for p in parts])
                               for j in range(3))
        cols.append(PathCollection(x=float(x), delta=float(delta),
                                   cfg=arm_cfg, tau_hat=tau,
                                   m_tau_hat=m_tau, stopped=stopped))
    if cols[0].unstopped_fraction > 0.01:
        warnings.warn(
            f"{cols[0].unstopped_fraction:.1%} of paths did not reach the "
            f"drawdown by t_max={cfg.t_max:g}; estimates carry that bias",
            stacklevel=3)
    return cols


def simulate(model: DiffusionModel, x: float, delta: float,
             cfg: McConfig) -> PathCollection:
    """Run n_paths independent trajectories until the first drawdown of
    size delta, the horizon, or the state space ends.

    Identical (seed, cfg) give bit-identical results at any thread
    count: every path's randomness is keyed on (seed, path index) and
    consumed in fixed blocks.
    """
    return _drawdown_paths(model, x, delta, cfg, False)[0]


def paired_simulate(model: DiffusionModel, x: float, delta: float,
                    cfg: McConfig) -> tuple[PathCollection, PathCollection]:
    """Coupled simulations at cfg.dt/2 and cfg.dt over shared noise.

    Returns (fine, coarse).  Because the arms share every increment,
    the difference of their estimates measures the discretization bias
    of halving dt directly, with far less noise than two independent
    runs would leave; that is the dt-pair rule's measurement.
    """
    return tuple(_drawdown_paths(model, x, delta, cfg, True))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _as_arrays(samples):
    if isinstance(samples, PathCollection):
        return samples.tau_hat, samples.m_tau_hat, samples.stopped, samples
    rows = list(samples)
    if not rows:
        raise ValidationError("no samples", operation="estimate", module=_MOD)
    tau = np.array([s.tau_hat for s in rows])
    m = np.array([s.m_tau_hat for s in rows])
    st = np.array([s.stopped for s in rows])
    return tau, m, st, None


def _warn_unstopped(stopped, context):
    frac = float(1.0 - stopped.mean())
    if frac > 0.01:
        warnings.warn(f"{frac:.1%} of paths unstopped in {context}; "
                      "their contribution is bounded, not known",
                      stacklevel=3)
    return frac


def estimate_tail(samples, y: float) -> tuple[float, float]:
    """Empirical P(M_tau > y) with its CLT standard error.

    Paths still running at the horizon contribute their maximum so
    far, which can only undercount; the unstopped fraction bounds the
    effect and triggers a warning above 1%.
    """
    tau, m, st, _ = _as_arrays(samples)
    _warn_unstopped(st, "estimate_tail")
    n = m.size
    p = float(np.mean(m > y))
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se


def estimate_transform(samples, alpha: float, beta: float) -> tuple[float, float]:
    """Empirical E[exp(-alpha tau - beta M_tau); stopped] with standard
    error.  Unstopped paths contribute 0 here and at most
    exp(-alpha t_max - beta max_so_far) each; the gap is the bias
    bound quoted in the warning."""
    if alpha < 0 or beta < 0:
        raise ValidationError("alpha and beta must be >= 0",
                              operation="estimate_transform",
                              value=(alpha, beta), module=_MOD)
    tau, m, st, _ = _as_arrays(samples)
    with np.errstate(under="ignore"):
        vals = np.where(st, np.exp(-alpha * tau - beta * m), 0.0)
    n = vals.size
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    frac = float(1.0 - st.mean())
    if frac > 0.01:
        with np.errstate(under="ignore"):
            high = est + float(np.where(~st, np.exp(-alpha * tau - beta * m),
                                        0.0).mean())
        warnings.warn(
            f"{frac:.1%} of paths unstopped; the transform lies in "
            f"[{est:.6g}, {high:.6g}]", stacklevel=2)
    return est, se


def tau_cdf_estimate(samples, t: float) -> tuple[float, float]:
    """Empirical P(tau <= t) with standard error; valid for t below the
    horizon, where stopping is fully observed."""
    tau, m, st, col = _as_arrays(samples)
    if col is not None and t > col.cfg.t_max:
        raise ValidationError("t beyond the simulated horizon",
                              operation="tau_cdf_estimate", value=t,
                              module=_MOD)
    p = float(np.mean(st & (tau <= t)))
    se = math.sqrt(p * (1.0 - p) / tau.size)
    return p, se


# ---------------------------------------------------------------------------
# excursions below the running maximum
# ---------------------------------------------------------------------------

def extract_excursions(path: np.ndarray, dt: float, delta: float,
                       band: tuple[float, float]) -> list[ExcursionRecord]:
    """Excursions of a gridded trajectory that start in ]band0, band1]
    and reach depth >= delta.

    An excursion is a maximal run strictly below the running maximum;
    its level is the maximum it hangs from.  The final, possibly
    unfinished run is included when already deep enough: its depth is a
    fact of the observed path.  The list's length is the Poisson count
    the excursion law predicts for the band.
    """
    x = np.asarray(path, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("path must be a 1d array of at least 2 points",
                              operation="extract_excursions", module=_MOD)
    lo, hi = float(band[0]), float(band[1])
    if not (lo < hi):
        raise ValidationError("band must have lo < hi",
                              operation="extract_excursions", value=(lo, hi),
                              module=_MOD)
    m = np.maximum.accumulate(x)
    # segment boundaries where the path touches or raises its maximum
    is_top = np.concatenate([[True], x[1:] >= m[:-1]])
    starts = np.flatnonzero(is_top)
    mins = np.minimum.reduceat(x, starts)
    levels = m[starts]
    ends = np.concatenate([starts[1:], [x.size]])
    out = []
    for s, e, lev, mn in zip(starts, ends, levels, mins):
        depth = float(lev - mn)
        if depth >= delta and lo < lev <= hi:
            out.append(ExcursionRecord(level=float(lev), depth=depth,
                                       lifetime=float((e - s) * dt)))
    return out


_EXC_BLOCK_STEPS = 4096
_NO_TAIL = np.empty(0)


def _scan_excursion_row(row, lev0, mn0, lo, hi, delta):
    """Count closed band excursions along one block of one path.

    Returns (count, new_level, new_min, k_done) where k_done is the
    index of the first point above hi (the count is final there: no
    excursion can start in the band once the maximum passed hi), or -1.
    """
    k_done = -1
    over = row > hi
    if over.any():
        k_done = int(np.argmax(over))
        row = row[:k_done + 1]
    m_run = np.maximum(lev0, np.maximum.accumulate(row))
    prev = np.concatenate(([lev0], m_run[:-1]))
    starts = np.flatnonzero(row >= prev)
    c = 0
    if starts.size:
        s0 = int(starts[0])
        first_min = mn0 if s0 == 0 else min(mn0, float(row[:s0].min()))
        if lev0 - first_min >= delta and lo < lev0 <= hi:
            c += 1
        if starts.size > 1:
            mins = np.minimum.reduceat(row, starts)
            levs = m_run[starts]
            deep = levs[:-1] - mins[:-1] >= delta
            band = (levs[:-1] > lo) & (levs[:-1] <= hi)
            c += int(np.count_nonzero(deep & band))
        last = int(starts[-1])
        new_lev = float(m_run[-1])
        new_min = float(row[last:].min())
    else:
        new_lev = lev0
        new_min = min(mn0, float(row.min()))
    return c, new_lev, new_min, k_done


def _deep_block(gen, step, x0, level, length, dt):
    """One block of a row whose open excursion is already delta-deep.

    Only a return to the running maximum can change such a row's count,
    so the block draws its end increment w and one uniform that decides
    whether the Brownian bridge to w reaches the level; in units of
    sigma sqrt(T) that happens with probability exp(-2 D (D - w)), D the
    gap to the level.  A bridge that stays below puts no grid point at
    or above the level.  A bridge that reaches it does so first at
    tau = T u / (1 + u), u ~ Wald(D / |D - w|, D^2), and the path after
    tau is a Brownian bridge from the level to the endpoint, so only the
    grid points after tau are drawn.  Conditioned on the endpoint the
    drift drops out.  ``step`` is an "arith" or "loggauss" exact step;
    loggauss rows work in log space.

    Returns (tail, x_end): the grid points after tau in the state
    coordinate (empty when the bridge stays below the level) and the
    block's endpoint.
    """
    log = step.kind == "loggauss"
    a = math.log(x0) if log else x0
    gap = (math.log(level) if log else level) - a
    span = length * dt
    sd = math.sqrt(step.sig_sq_sim * span)
    w = step.mu_sim * span + sd * gen.standard_normal()
    end = a + w
    x_end = math.exp(end) if log else end
    rest = gap - w
    if gen.random() >= math.exp(min(0.0, -2.0 * gap * rest / (sd * sd))):
        return _NO_TAIL, x_end
    v = gen.wald(gap / max(abs(rest), 1e-300), (gap / sd) ** 2)
    tau = span * v / (1.0 + v)
    k1 = min(int(tau / dt), length - 1)
    # offsets of the grid points after tau; the last one is the endpoint
    t = np.arange(k1 + 1, length + 1) * dt - tau
    t[-1] = span / (1.0 + v)
    walk = np.cumsum(np.sqrt(step.sig_sq_sim
                             * np.diff(t, prepend=0.0).clip(min=0.0))
                     * gen.standard_normal(t.size))
    tail = (a + gap) + walk - t / t[-1] * (walk[-1] + rest)
    tail[-1] = end
    return (np.exp(tail) if log else tail), x_end


def _excursion_chunk(model, x, y, delta, cfg, first, count):
    gens = _generators(cfg.seed, first, count)
    n_steps = cfg.n_steps
    dt = cfg.dt
    step = model.exact_step
    skips = cfg.scheme == "exact_bm" and step.kind in ("arith", "loggauss")

    x_cur = np.full(count, float(x))
    level = np.full(count, float(x))
    cur_min = np.full(count, float(x))
    counts = np.zeros(count, dtype=np.int64)
    done = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    step_base = 0

    while alive.size and step_base < n_steps:
        length = min(_EXC_BLOCK_STEPS, n_steps - step_base)
        deep = skips & (level[alive] - cur_min[alive] >= delta)
        full = alive[~deep]
        blocks = []
        if full.size:
            z = _draw_normals(gens, full, length)
            xb, _ = _grid_block(model, cfg, x_cur[full], z, dt)
            blocks.extend(zip(full, xb))
        for g in alive[deep]:
            tail, x_cur[g] = _deep_block(gens[g], step, float(x_cur[g]),
                                         float(level[g]), length, dt)
            if tail.size:
                blocks.append((g, tail))
        for g, row in blocks:
            c, lev, mn, k_done = _scan_excursion_row(
                row, level[g], cur_min[g], x, y, delta)
            counts[g] += c
            level[g] = lev
            cur_min[g] = mn
            if k_done >= 0:
                done[g] = True
            else:
                x_cur[g] = row[-1]
        alive = alive[~done[alive]]
        step_base += length

    # flush excursions still open at the horizon: their depth is real
    open_deep = (~done & (level > x) & (level <= y)
                 & (level - cur_min >= delta))
    counts[open_deep] += 1
    return counts, done


def excursion_counts(model: DiffusionModel, x: float, y: float, delta: float,
                     cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-path counts of delta-deep excursions starting in ]x, y].

    Paths run without drawdown stopping, so every excursion from the
    band is observed; a path finishes at its first new maximum above y,
    where its count is final: excursions hang from ever higher levels
    and none can start in the band afterwards.  (Stopping at the first
    delta-drawdown from above y, the other natural reading, sees a
    longer path but the same count.)  Depths are measured on the grid;
    they undercount by O(sqrt(dt)), which a dt-refinement pair removes
    in the verification layer.  Hitting times of y can be heavy tailed,
    so pick t_max generously; paths still short of y at the horizon are
    reported in the finished array and bias the mean low.

    Rows of an "arith" or "loggauss" exact step whose open excursion is
    already delta-deep skip to each block's end unless the bridge to it
    reaches the maximum, and then draw only the grid points after the
    passage (see ``_deep_block``).  The skip is exact on the grid: no
    point before the passage can reach the maximum, and those points
    can neither end the excursion nor make it deeper than it counts.
    Ornstein-Uhlenbeck and Euler rows step every grid point.  Results
    stay bit-identical at any thread count, and extending n_paths keeps
    the counts already drawn.
    Returns (counts, finished).
    """
    validate_query(model, x, delta)
    _require_scheme(model, cfg)
    a, b = model.interval
    if not (x < y < b):
        raise ValidationError("need x < y inside the state space",
                              operation="excursion_counts", value=y,
                              module=_MOD)
    _check_dt(cfg, delta, "excursion_counts")
    parts = _run_chunks(_excursion_chunk, cfg, model, x, y, delta)
    counts = np.concatenate([p[0] for p in parts])
    done = np.concatenate([p[1] for p in parts])
    frac = float(1.0 - done.mean())
    if frac > 0.01:
        warnings.warn(f"{frac:.1%} of excursion paths hit the horizon "
                      "before the stopping drawdown", stacklevel=2)
    return counts, done


# ---------------------------------------------------------------------------
# raw trajectories (demos, diagnostics, extract_excursions input)
# ---------------------------------------------------------------------------

def sample_trajectory(model: DiffusionModel, x: float, cfg: McConfig,
                      n_steps: int | None = None,
                      path_index: int = 0) -> np.ndarray:
    """One gridded trajectory of n_steps steps (default: the horizon),
    drawn from the stream of the given path index."""
    if not model.contains(x):
        raise ValidationError("start must be interior",
                              operation="sample_trajectory", value=x,
                              module=_MOD)
    _require_scheme(model, cfg)
    steps = cfg.n_steps if n_steps is None else n_steps
    if not (_is_integer(steps) and steps >= 1):
        raise ValidationError("n_steps must be an integer >= 1",
                              operation="sample_trajectory", value=n_steps,
                              module=_MOD)
    if not (_is_integer(path_index) and 0 <= int(path_index) < 2 ** 64):
        raise ValidationError("path_index must be an integer in [0, 2^64)",
                              operation="sample_trajectory",
                              value=path_index, module=_MOD)
    steps = int(steps)
    gens = _generators(cfg.seed, int(path_index), 1)
    out = np.empty(steps + 1)
    out[0] = x
    x_cur = np.full(1, float(x))
    donefill = 1
    while donefill <= steps:
        length = min(_BLOCK_STEPS, steps - donefill + 1)
        z = _draw_normals(gens, [0], length)
        xb, _ = _grid_block(model, cfg, x_cur, z, cfg.dt)
        out[donefill:donefill + length] = xb[0]
        x_cur = xb[:, -1].copy()
        donefill += length
    return out
