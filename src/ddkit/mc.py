"""Monte Carlo oracle for the drawdown laws.

Simulates paths until the first time the running maximum exceeds the
path by delta, and estimates tails, transforms, and excursion counts
with CLT error bars.  Everything the analytic layer produces can be
checked against these estimates, so the engine is built for
reproducibility first and speed second:

* paths run in fixed chunks of 2048, and each draw phase of a block
  of a chunk (below) reads its own counter-based Philox stream, keyed
  on (seed, first path of the chunk) with the block and phase in the
  counter (Salmon et al., SC 2011), so results are bit-identical no
  matter how many threads run the chunks;
* a phase is one draw for all of the block's rows that still run, and
  the rows take consecutive slices of it in path order, so a path's
  randomness depends only on its own history and on the paths before
  it in its chunk: extending n_paths keeps the paths already drawn;
* reductions concatenate chunk results in index order.

One block stepper serves ``simulate`` and the coupled (dt/2, dt) pair
of ``paired_simulate``: a single run is one arm at dt, a pair is a fine
arm at dt/2 and a coarse arm at dt whose normals are combined from
consecutive pairs of the fine ones.  A block covers 256 fine steps
(128 coarse steps in a pair); its fine normals drive both arms, and
under the exact scheme each arm also reads bridge uniforms u_min and
u_max, fine arm first.  One chunk driver runs this stepper and the
excursion counter over the fixed chunks.

Three things define the streams, and a change to any of them changes
the paths: the stream of each draw phase, key (seed, first path of the
chunk) and counter words (0, phase, block, 0); the order of the draws
within a phase; and which rows draw.  The stepper's block b covers
fine steps 256 b to 256 b + 255; phase 0 holds its normals, one row of
the block's length per running path, and phase 1, under the exact
scheme, its uniforms, one row of every arm's u_min and u_max per
running path.  The excursion counter's block b covers steps 4096 b to
4096 b + 4095, and at its start each row chooses to skip or to step.
Its deep rows (below) read phase 2 for their end normals and 3 for
their uniforms; the rows among them whose bridge reaches the maximum
read phase 4 for their Wald variates and 5 for their tails' normals,
one tail after another.  Its full rows step 256 steps at a time from
their last point, as the drawdown stepper does, sub-block s of the
block drawing from phase 6 + s // 256, and stop drawing once they
finish.  The deep rows' tails are scanned in groups of at most 2048 x
256 points, which bounds memory and changes no draw; one
row-vectorized scan counts the excursions of each group or sub-block.
``sample_trajectory`` keys its stream on (seed, path index), counter
words (0, 0, 0, 1), and draws a whole trajectory with one call; it
does not replay a path of ``simulate``.

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
order.  Ornstein-Uhlenbeck and Euler rows, and rows whose open
excursion is not yet deep, step every grid point.

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

import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (UnsupportedModelError, ValidationError, integer, pair, real,
                     real_array)
from .models import DiffusionModel, _require_interior, _require_window

_MOD = "mc"

# partitioning contract: fixed path chunks and the draw blocks of a chunk
_CHUNK_PATHS = 2048
_BLOCK_STEPS = 256
# scheme -> order in dt of its drawdown probe's bias: bridge extremes
# leave O(dt), Euler's grid monitoring O(sqrt(dt)) (Broadie, Glasserman
# & Kou 1997)
_BIAS_ORDER = {"exact_bm": 1.0, "euler": 0.5}
# share of paths still running at the horizon from which a run is unfinished
_UNFINISHED_SHARE = 0.01


def thread_cap() -> int:
    """Worker cap from DDKIT_THREADS; 0 or unset means auto: the CPUs
    this process may run on (its affinity mask, where the platform
    has one), at most 8."""
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
        if hasattr(os, "sched_getaffinity"):
            return min(8, len(os.sched_getaffinity(0)) or 1)
        return min(8, os.cpu_count() or 1)
    return n


# ---------------------------------------------------------------------------
# configuration and sample types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    dt must also satisfy dt <= delta^2 / 100 for the query it is used
    with; that guard is checked where delta is known.  A run ends at its
    horizon, n_steps = round(t_max / dt) steps of dt, a finite count.
    t_max should be generous: paths still running at the horizon are
    counted, bounded, and warned about, never silently dropped.
    """

    n_paths: int
    dt: float
    t_max: float
    seed: int
    scheme: str = "exact_bm"

    def __post_init__(self):
        # numbers are stored as Python ints and floats, so streams and
        # reports match the same config given with numpy scalars
        op, put = "McConfig", object.__setattr__
        put(self, "n_paths", integer(self.n_paths, "n_paths", op, _MOD, 1000))
        put(self, "dt", real(self.dt, "dt", op, _MOD, 0.0, strict=True))
        put(self, "t_max", real(self.t_max, "t_max", op, _MOD, self.dt))
        if not math.isfinite(self.t_max / self.dt):
            raise ValidationError("the step count t_max / dt is not finite",
                                  operation=op, value=self.dt, module=_MOD)
        put(self, "seed", integer(self.seed, "seed", op, _MOD, 0, 2 ** 64))
        if not (isinstance(self.scheme, str) and self.scheme in _BIAS_ORDER):
            raise ValidationError(f"scheme must be one of {sorted(_BIAS_ORDER)}",
                                  operation=op, value=self.scheme, module=_MOD)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


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


@dataclass(frozen=True, eq=False)
class PathCollection:
    """Stopping data of the paths of one simulate() call, one array
    entry per path: the drawdown time, the maximum at that time, and
    whether the path stopped before the horizon (if not, tau_hat is the
    horizon and m_tau_hat the maximum so far).
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
        if np.any(self.tau_hat > self.cfg.horizon * (1 + 1e-12)):
            raise ValidationError("tau_hat beyond the horizon",
                                  operation="PathCollection", module=_MOD)

    @property
    def unstopped_fraction(self) -> float:
        return float(1.0 - self.stopped.mean())


def _unfinished(frac) -> bool:
    """Whether a run that leaves the share frac of its paths running at
    the horizon is unfinished: warned about, and no verification pass."""
    return frac >= _UNFINISHED_SHARE


def _warn_unfinished(frac, what, stacklevel):
    """Warn that frac of the paths {what}, where that leaves the run
    unfinished; stacklevel is the caller's own, as warnings.warn takes
    it, so the warning points at the public caller's line."""
    if _unfinished(frac):
        warnings.warn(f"{frac:.1%} of paths {what}", stacklevel=stacklevel + 1)


# ---------------------------------------------------------------------------
# chunk-block streams and block stepping
# ---------------------------------------------------------------------------

_THREAD = threading.local()


def _stream(seed: int, first: int, block: int, phase: int,
            trajectory: bool = False) -> np.random.Generator:
    """The Philox stream of one draw phase of one block of the chunk that
    starts at path ``first``: key (seed, first), counter words
    (0, phase, block, 0); the last word is 1 for ``sample_trajectory``'s
    stream, keyed on its path index instead.

    Each thread owns one generator, and every call re-keys it: key,
    counter and an empty buffer are all a keyed Philox holds, so the
    draws are those of a new one, whose build would also draw OS entropy
    that the key overrides.  The stream is valid until the thread's next
    call, so a caller draws before it asks again.
    """
    gen = getattr(_THREAD, "gen", None)
    if gen is None:
        gen = _THREAD.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"key": (seed, first), "counter": (0, phase, block, int(trajectory))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def _exact_blocks(model, x0, z, dt):
    """X block under the exact Gaussian step from x0."""
    step = model.exact_step
    if step.kind in ("arith", "loggauss"):
        walk = np.cumsum(step.mu_sim * dt + math.sqrt(step.sig_sq_sim * dt) * z,
                         axis=1)
        if step.kind == "arith":
            return x0[:, None] + walk
        return x0[:, None] * np.exp(walk)
    if step.kind == "ou":
        a = math.exp(-step.theta * dt)
        sd = math.sqrt(step.sig_sq_sim * (-math.expm1(-2.0 * step.theta * dt))
                       / (2.0 * step.theta))
        # deviations y_j = e_j + (a y_{j-1}), a time step per row of a
        # time-major copy: two roundings per step, as in a first-order
        # direct-form-II-transposed filter
        dev = np.ascontiguousarray((sd * z).T)
        ay = a * (x0 - step.mean)
        for row in dev:
            row += ay
            ay = a * row
        return np.add(step.mean, dev.T, order="C")
    raise UnsupportedModelError(    # pragma: no cover - catalog kinds are closed
        "unknown exact step kind", operation="simulate", value=step.kind,
        module=_MOD)


def _bridge_extremes(model, ends, log_u_min, log_u_max, dt):
    """Within-step (minimum, maximum) samples of the Brownian bridge
    between consecutive points of ends (the start, then the step ends),
    in the state coordinate, from the logs of the step's uniforms."""
    step = model.exact_step
    if step.kind == "loggauss":
        # the bridge is exact in log space; state extremes are its exp
        ends = np.log(ends)
    a, b = ends[:, :-1], ends[:, 1:]
    gap_sq = a - b
    gap_sq *= gap_sq
    mid = a + b
    c = 2.0 * step.sig_sq_sim * dt
    # mid -/+ sqrt(gap^2 - c log u), halved, in place
    lo = np.sqrt(gap_sq - c * log_u_min)
    lo = np.subtract(mid, lo, out=lo)
    lo *= 0.5
    hi = np.sqrt(gap_sq - c * log_u_max)
    hi += mid
    hi *= 0.5
    if step.kind == "loggauss":
        return np.exp(lo, out=lo), np.exp(hi, out=hi)
    return lo, hi


def _euler_blocks(model, x0, z, dt):
    """X block under the Euler step from x0."""
    a, b = model.interval
    lo = a + 1e-12 * (1.0 + abs(a)) if math.isfinite(a) else -math.inf
    hi = b - 1e-12 * (1.0 + abs(b)) if math.isfinite(b) else math.inf
    xb = np.empty(z.shape)
    xc = x0
    rdt = math.sqrt(dt)
    for k in range(z.shape[1]):
        mu = np.asarray(model.drift(xc), dtype=float)
        s2 = np.asarray(model.diffusion_sq(xc), dtype=float)
        xc = xc + mu * dt + np.sqrt(s2) * rdt * z[:, k]
        # a first-order step can jump over an endpoint the diffusion
        # itself cannot reach; pin it just inside
        xc = np.clip(xc, lo, hi)
        xb[:, k] = xc
    return xb


def _grid_block(model, cfg, x0, z, dt):
    """X block from x0 under cfg's scheme."""
    if cfg.scheme == "exact_bm":
        return _exact_blocks(model, x0, z, dt)
    return _euler_blocks(model, x0, z, dt)


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
    either arm is running, so both arms read the same rows.
    """
    n_fine = cfg.n_steps * len(dts)
    bridge = cfg.scheme == "exact_bm"
    off = 0.5 if bridge else 1.0

    x_cur = np.full((len(dts), count), float(x))
    m_cur = x_cur.copy()
    m_tau = x_cur.copy()
    tau = np.full((len(dts), count), cfg.horizon)
    stopped = np.zeros((len(dts), count), dtype=bool)
    alive = np.arange(count)
    base = 0

    while alive.size and base < n_fine:
        length = min(_BLOCK_STEPS, n_fine - base)
        block = base // _BLOCK_STEPS
        z = _stream(cfg.seed, first, block, 0).standard_normal((alive.size, length))
        zs = ((z,) if len(dts) == 1
              else (z, _paired_normals(model, cfg, z, dts[0])))
        if bridge:
            widths = [zi.shape[1] for zi in zs]
            # each row reads every arm's u_min, u_max in that order
            u = _stream(cfg.seed, first, block, 1).random(
                (alive.size, 2 * sum(widths)))
            # 1 - random() lies in ]0, 1]; at exactly 1 the bridge minimum
            # degenerates to the endpoint minimum, which is the right limit
            log_u = np.log(np.subtract(1.0, u, out=u), out=u)
            parts = np.split(log_u, np.cumsum(np.repeat(widths, 2))[:-1],
                             axis=1)
            us = list(zip(parts[0::2], parts[1::2]))
        running = np.zeros(alive.size, dtype=bool)
        for i, dt in enumerate(dts):
            live = ~stopped[i, alive]
            x0 = x_cur[i, alive]
            xb = _grid_block(model, cfg, x0, zs[i], dt)
            if bridge:
                ends = np.concatenate([x0[:, None], xb], axis=1)
                probe, tops = _bridge_extremes(model, ends, *us[i], dt)
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
    is unfinished."""
    op = "paired_simulate" if paired else "simulate"
    x, delta = _require_window(model, x, delta, op)
    _require_scheme(model, cfg)
    _check_dt(cfg, delta, op)
    dts = (0.5 * cfg.dt, cfg.dt) if paired else (cfg.dt,)
    parts = _run_chunks(_drawdown_chunk, cfg, model, x, delta, dts)
    cols = []
    for i, dt in enumerate(dts):
        # both arms of a pair simulate exactly n_steps coarse steps of
        # time; an aligned t_max keeps each arm's step count consistent
        arm_cfg = (McConfig(n_paths=cfg.n_paths, dt=dt, t_max=cfg.horizon,
                            seed=cfg.seed, scheme=cfg.scheme) if paired else cfg)
        tau, m_tau, stopped = (np.concatenate([p[i][j] for p in parts])
                               for j in range(3))
        cols.append(PathCollection(x=x, delta=delta,
                                   cfg=arm_cfg, tau_hat=tau,
                                   m_tau_hat=m_tau, stopped=stopped))
    _warn_unfinished(cols[0].unstopped_fraction, "did not reach the drawdown by "
                     f"the horizon {cfg.horizon:g}; estimates carry that bias", 3)
    return cols


def simulate(model: DiffusionModel, x: float, delta: float,
             cfg: McConfig) -> PathCollection:
    """Run n_paths independent trajectories until the first drawdown of
    size delta, the horizon, or the state space ends.

    Identical (seed, cfg) give bit-identical results at any thread
    count: each draw phase of a block of a fixed 2048-path chunk reads
    one stream keyed on (seed, first path of the chunk), its running
    paths taking consecutive slices in path order, so extending n_paths
    keeps the paths already drawn.
    """
    return _drawdown_paths(model, x, delta, cfg, False)[0]


def paired_simulate(model: DiffusionModel, x: float, delta: float,
                    cfg: McConfig) -> tuple[PathCollection, PathCollection]:
    """Coupled simulations at cfg.dt/2 and cfg.dt over shared noise.

    Returns (fine, coarse).  Because the arms share every increment,
    the difference of their estimates measures the discretization bias
    of halving dt directly, with far less noise than two independent
    runs would leave; verify extrapolates the pair toward dt = 0 from it.
    """
    return tuple(_drawdown_paths(model, x, delta, cfg, True))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _as_arrays(samples, op):
    """(tau_hat, m_tau_hat, stopped) of a PathCollection; anything else
    is refused under op."""
    if not isinstance(samples, PathCollection):
        raise ValidationError("samples must be a PathCollection", operation=op,
                              value=type(samples).__name__, module=_MOD)
    return samples.tau_hat, samples.m_tau_hat, samples.stopped


def estimate_tail(samples: PathCollection, y: float) -> tuple[float, float]:
    """Empirical P(M_tau > y) with its CLT standard error.

    Paths still running at the horizon contribute their maximum so
    far, which can only undercount; the unstopped fraction bounds the
    effect, and simulate warned where it leaves the run unfinished.
    """
    y = real(y, "y", "estimate_tail", _MOD)
    _, m, _ = _as_arrays(samples, "estimate_tail")
    n = m.size
    p = float(np.mean(m > y))
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se


def estimate_transform(samples: PathCollection, alpha: float,
                       beta: float) -> tuple[float, float]:
    """Empirical E[exp(-alpha tau - beta M_tau); stopped] with standard
    error.  Unstopped paths contribute 0 here and at most
    exp(-alpha horizon - beta max_so_far) each, horizon = cfg.horizon
    where they sit; the gap is the bias bound quoted in the warning."""
    alpha = real(alpha, "alpha", "estimate_transform", _MOD, 0.0)
    beta = real(beta, "beta", "estimate_transform", _MOD, 0.0)
    tau, m, st = _as_arrays(samples, "estimate_transform")
    with np.errstate(under="ignore"):
        bound = np.exp(-alpha * tau - beta * m)
    vals = np.where(st, bound, 0.0)
    n = vals.size
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    _warn_unfinished(samples.unstopped_fraction, "unstopped; the transform lies "
                     f"in [{est:.6g}, {float(bound.mean()):.6g}]", 2)
    return est, se


def tau_cdf_estimate(samples: PathCollection, t: float) -> tuple[float, float]:
    """Empirical P(tau <= t) with standard error, up to the horizon
    n_steps dt, where stopping is fully observed."""
    t = real(t, "t", "tau_cdf_estimate", _MOD)
    tau, _, st = _as_arrays(samples, "tau_cdf_estimate")
    if t > samples.cfg.horizon * (1 + 1e-12):
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
    op = "extract_excursions"
    x = real_array(path, "path", op, _MOD, min_size=2)
    dt = real(dt, "dt", op, _MOD, 0.0, strict=True)
    delta = real(delta, "delta", op, _MOD, 0.0, strict=True)
    lo, hi = (real(v, "band entry", op, _MOD) for v in pair(band, "band", op, _MOD))
    if not (lo < hi):
        raise ValidationError("band must have lo < hi", operation=op,
                              value=(lo, hi), module=_MOD)
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
# the deep rows' tails are scanned in groups of at most this many points;
# it bounds memory and changes no draw or count
_TAIL_GROUP_POINTS = _CHUNK_PATHS * _BLOCK_STEPS


def _scan_excursions(xs, level, low, lo, hi, delta):
    """Scan a block of grid points, one row per path, for excursions.

    Row r carries in its running maximum level[r] and the minimum
    low[r] of the excursion open below it.  An excursion ends where a
    point touches or raises the maximum; the ones that end inside the
    block count when they start in ]lo, hi] and are delta-deep.
    Returns (counts, level, low, over): the counts, each row's maximum
    and open minimum at the block's end, and whether the row went
    above hi (its count is final there: no excursion can start in the
    band once the maximum passed hi; the points after it add nothing).
    """
    n, w = xs.shape
    run = np.maximum(np.maximum.accumulate(xs, axis=1), level[:, None])
    # each row reads [low, x_0, ..., x_w-1]: the carried excursion is a
    # segment that is never empty, even when x_0 closes it
    aug = np.empty((n, w + 1))
    aug[:, 0] = low
    aug[:, 1:] = xs
    top = np.empty((n, w + 1), dtype=bool)
    top[:, 0] = True
    top[:, 1] = xs[:, 0] >= level
    np.greater_equal(xs[:, 1:], run[:, :-1], out=top[:, 2:])
    starts = np.flatnonzero(top)
    row = starts // (w + 1)
    mins = np.minimum.reduceat(aug.ravel(), starts)
    # a segment hangs from its first point, which is the running maximum
    levs = aug.ravel()[starts]
    levs[starts % (w + 1) == 0] = level
    closed = np.append(row[1:] == row[:-1], False)
    deep = closed & (levs - mins >= delta) & (levs > lo) & (levs <= hi)
    counts = np.bincount(row[deep], minlength=n)
    return counts, levs[~closed], mins[~closed], (xs > hi).any(axis=1)


def _deep_blocks(draw, step, x0, level, length, dt):
    """One block of each row whose open excursion is already delta-deep.

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

    Row i starts at x0[i] below level[i].  ``draw(phase)`` gives the
    block's stream of a draw phase, and each phase is one call for all
    rows, in row order: 2 the end normals, 3 the uniforms, then, for the
    rows whose bridge reaches the level, 4 the Wald variates and 5 the
    tails' normals, one tail after another.  Returns (hits, tails,
    x_end): the indices of the rows whose bridge reaches the level,
    their grid points after tau in the state coordinate, and every
    row's endpoint.
    """
    log = step.kind == "loggauss"
    span = length * dt
    sd = math.sqrt(step.sig_sq_sim * span)
    z = draw(2).standard_normal(x0.size)
    u = draw(3).random(x0.size)
    a = np.log(x0) if log else x0
    gap = (np.log(level) if log else level) - a
    w = step.mu_sim * span + sd * z
    end = a + w
    rest = gap - w
    hits = np.flatnonzero(u < np.exp(np.minimum(0.0, -2.0 * gap * rest / (sd * sd))))
    x_end = np.exp(end) if log else end
    if not hits.size:
        return hits, [], x_end
    g, r = gap[hits], rest[hits]
    v = draw(4).wald(g / np.maximum(np.abs(r), 1e-300), (g / sd) ** 2)
    tau = span * v / (1.0 + v)
    k1 = np.minimum((tau / dt).astype(np.int64), length - 1)
    sizes = length - k1
    zs = np.split(draw(5).standard_normal(int(sizes.sum())), np.cumsum(sizes)[:-1])
    tails = []
    for i, zi in enumerate(zs):
        # offsets of the grid points after tau; the last one is the endpoint
        t = np.arange(k1[i] + 1, length + 1) * dt - tau[i]
        t[-1] = span / (1.0 + v[i])
        walk = np.cumsum(np.sqrt(step.sig_sq_sim
                                 * np.diff(t, prepend=0.0).clip(min=0.0)) * zi)
        tail = (a[hits[i]] + g[i]) + walk - t / t[-1] * (walk[-1] + r[i])
        tail[-1] = end[hits[i]]
        tails.append(np.exp(tail) if log else tail)
    return hits, tails, x_end


def _excursion_chunk(model, x, y, delta, cfg, first, count):
    n_steps, dt = cfg.n_steps, cfg.dt
    step = model.exact_step
    skips = cfg.scheme == "exact_bm" and step.kind in ("arith", "loggauss")

    x_cur = np.full(count, float(x))
    level = np.full(count, float(x))
    cur_min = np.full(count, float(x))
    counts = np.zeros(count, dtype=np.int64)
    done = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    step_base = 0

    def fold(rows, xs):
        """Scan the block xs of rows into the counter's state; returns
        which rows went above y."""
        c, level[rows], cur_min[rows], over = _scan_excursions(
            xs, level[rows], cur_min[rows], x, y, delta)
        counts[rows] += c
        done[rows[over]] = True
        return over

    while alive.size and step_base < n_steps:
        length = min(_EXC_BLOCK_STEPS, n_steps - step_base)
        draw = functools.partial(_stream, cfg.seed, first,
                                 step_base // _EXC_BLOCK_STEPS)
        deep = skips & (level[alive] - cur_min[alive] >= delta)
        if deep.any():
            skip = alive[deep]
            hits, tails, x_cur[skip] = _deep_blocks(
                draw, step, x_cur[skip], level[skip], length, dt)
            # tails end at the block's end; the points before a tail lie
            # below the level, so the open minimum stands in for them
            per = max(1, _TAIL_GROUP_POINTS // length)
            for i in range(0, hits.size, per):
                rows = skip[hits[i:i + per]]
                xs = np.repeat(cur_min[rows, None], length, axis=1)
                for row, tail in zip(xs, tails[i:i + per]):
                    row[length - tail.size:] = tail
                fold(rows, xs)
        # full rows step _BLOCK_STEPS steps at a time from their last
        # point, as the drawdown stepper does, each sub-block from its own
        # phase; rows that finish stop drawing
        full = alive[~deep]
        s = 0
        while full.size and s < length:
            w = min(length - s, _BLOCK_STEPS)
            z = draw(6 + s // _BLOCK_STEPS).standard_normal((full.size, w))
            xb = _grid_block(model, cfg, x_cur[full], z, dt)
            keep = ~fold(full, xb)
            full = full[keep]
            x_cur[full] = xb[keep, -1]
            s += w
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
    reported in the finished array and bias the mean low, and the run
    warns once where they make it unfinished.  y lies in ]x, B[: at or
    past B it raises DomainError, at or below x ValidationError.

    Rows of an "arith" or "loggauss" exact step whose open excursion is
    already delta-deep skip to each block's end unless the bridge to it
    reaches the maximum, and then draw only the grid points after the
    passage (see ``_deep_blocks``).  The skip is exact on the grid: no
    point before the passage can reach the maximum, and those points
    can neither end the excursion nor make it deeper than it counts.
    Ornstein-Uhlenbeck and Euler rows step every grid point.  Results
    stay bit-identical at any thread count, and extending n_paths keeps
    the counts already drawn.

    The 4096-step blocks, the skip-or-step choice made at each block's
    start and the 256-step sub-blocks of the stepped rows define the
    streams: each draw phase of a block of a chunk is one call for all
    its rows (see the module docstring).  The deep rows' tails are
    scanned in groups of at most 2048 x 256 points, so memory stays
    bounded; that grouping changes no draw or count.
    Returns (counts, finished).
    """
    op = "excursion_counts"
    x, delta = _require_window(model, x, delta, op)
    y = real(y, "y", op, _MOD)
    _require_interior(model, y, op)
    _require_scheme(model, cfg)
    if not x < y:
        raise ValidationError("need x < y", operation=op, value=y, module=_MOD)
    _check_dt(cfg, delta, op)
    parts = _run_chunks(_excursion_chunk, cfg, model, x, y, delta)
    counts = np.concatenate([p[0] for p in parts])
    done = np.concatenate([p[1] for p in parts])
    _warn_unfinished(float(1.0 - done.mean()),
                     f"did not pass y = {y:g} by the horizon {cfg.horizon:g}", 2)
    return counts, done


# ---------------------------------------------------------------------------
# raw trajectories (demos, diagnostics, extract_excursions input)
# ---------------------------------------------------------------------------

def sample_trajectory(model: DiffusionModel, x: float, cfg: McConfig,
                      n_steps: int | None = None,
                      path_index: int = 0) -> np.ndarray:
    """One gridded trajectory of n_steps steps (default: the horizon),
    drawn from its own stream, keyed on (seed, path_index).  It reads
    that stream's first n_steps normals and steps them in one call, so
    a longer trajectory extends a shorter one.  The stream is not a
    chunk's: the trajectory does not replay path path_index of
    ``simulate`` or ``excursion_counts``."""
    op = "sample_trajectory"
    x = real(x, "x", op, _MOD)
    _require_interior(model, x, op)
    _require_scheme(model, cfg)
    steps = integer(cfg.n_steps if n_steps is None else n_steps, "n_steps", op, _MOD, 1)
    first = integer(path_index, "path_index", op, _MOD, 0, 2 ** 64)
    z = _stream(cfg.seed, first, 0, 0, trajectory=True).standard_normal((1, steps))
    xb = _grid_block(model, cfg, np.full(1, float(x)), z, cfg.dt)
    return np.concatenate([[x], xb[0]])
