"""Local solution bases for (1/2) sigma_sq g'' + mu g' = alpha g.

Each drawdown window [z - delta, z] gets its own initial-value basis:

    u(l) = 0,  u'(l) = S'(l)      (vanishing solution, unit scale slope)
    v(l) = 1,  v'(l) = 0          (flat solution)

In scale-derivative terms (g+ = g'/S') this pins the scale Wronskian

    w(x) = (u'(x) v(x) - u(x) v'(x)) / S'(x)

to exactly +1 on the whole window, which is the invariant monitored by
every solve.  The pair is never integrated across long ranges: windows
are short, so the exponential dominance of the growing solution stays
mild and the quotients formed downstream stay well conditioned.

Integration is classical RK4 on a fixed grid, batched over windows and
validated by step doubling against the configured tolerances.  The ODE
is linear, so one RK4 step is a 2x2 matrix, y_{j+1} = M_j y_j, and a
sweep is the product of its step matrices.  Blocks of steps build all
their matrices in one vectorized pass and multiply them pairwise, with
no per-step Python loop; every partial product is rescaled by a power
of two whose exponent is carried as a separate log factor.  Common
factors cancel in every quotient the drawdown laws form, so the
bookkeeping is exact.  The Wronskian monitor needs no product at all:
the determinant of the state grows by det M_j per step (Liouville's
formula for the discrete map), so the log-Wronskian is a running sum of
log det M_j and never suffers the cancellation of u'v - uv'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .models import DiffusionModel, scale_density

_MOD = "basis"

_BLOCK_ROW_STEPS = 1 << 13   # rows x steps of one block of step matrices
_CHECKPOINT_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)
_LN2 = math.log(2.0)
_FRAME_BITS = 332            # dense log frames step by 2**332, about 1e100


@dataclass(frozen=True)
class OdeSettings:
    """Accuracy knobs for the window solver.

    rel_tol / abs_tol bound the accepted step-doubling gap at the right
    endpoint; the sweep also has to hold the Wronskian monitor within
    10 * rel_tol before a grid is accepted, because determinant error
    of RK4 is one order worse than state error for drifted models and
    the endpoint gap alone would let it slip through.  max_steps caps
    the finest grid tried before giving up.  normalization optionally
    rescales the stored basis so that the larger solution has magnitude
    1 at that point; the factor is folded into the log-scale channel
    and cancels in all quotients.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 2_000_000
    normalization: float | None = None

    def __post_init__(self):
        for name, v in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (0.0 < v <= 1e-4):
                raise ValidationError(f"{name} must lie in ]0, 1e-4]",
                                      operation="OdeSettings", value=v, module=_MOD)
        if self.max_steps < 1000:
            raise ValidationError("max_steps must be at least 1000",
                                  operation="OdeSettings", value=self.max_steps,
                                  module=_MOD)


DEFAULT_SETTINGS = OdeSettings()


# ---------------------------------------------------------------------------
# RK4 as a product of step matrices
# ---------------------------------------------------------------------------

def _mul(a, b):
    """Stacked 2x2 products a @ b; the matrices span the two leading axes."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _normalize(m, ex):
    """Scale each stacked matrix by a power of two so that its largest
    entry lies in [0.5, 1); the scaling is exact and its exponent is
    added to ex."""
    _, e = np.frexp(np.abs(m).max(axis=(0, 1)))
    return np.ldexp(m, -e), ex + e


def _stage(a, b, c, k):
    """A (I + c K) for A = [[0, 1], [a, b]] and K = (k00, k01, k10, k11)."""
    x00, x01, x10, x11 = 1.0 + c * k[0], c * k[1], c * k[2], 1.0 + c * k[3]
    return x10, x11, a * x00 + b * x10, a * x01 + b * x11


def _step_matrices(model, alpha, l, h, j0, steps):
    """D_j = M_j - I for steps j0 .. j0 + steps - 1 of every row, shaped
    (2, 2, steps, rows).

    On y' = A(x) y with A = [[0, 1], [a, b]], a = 2 alpha / sigma_sq and
    b = -2 mu / sigma_sq, the RK4 step from x_j is y -> M_j y with
    M_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(x_j),
    K2 = A(x_j + h/2)(I + h/2 K1), K3 = A(x_j + h/2)(I + h/2 K2) and
    K4 = A(x_j + h)(I + h K3).  The model is evaluated once on the
    half-step grid of the whole block.
    """
    xs = l + (0.5 * h) * np.arange(2 * j0, 2 * (j0 + steps) + 1)[:, None]
    fac = 2.0 / np.broadcast_to(
        np.asarray(model.diffusion_sq(xs), dtype=float), xs.shape)
    a = alpha * fac
    b = -fac * np.broadcast_to(np.asarray(model.drift(xs), dtype=float), xs.shape)
    a1, a2, a3 = a[:-1:2], a[1::2], a[2::2]
    b1, b2, b3 = b[:-1:2], b[1::2], b[2::2]
    k1 = (0.0, 1.0, a1, b1)
    k2 = _stage(a2, b2, 0.5 * h, k1)
    k3 = _stage(a2, b2, 0.5 * h, k2)
    k4 = _stage(a3, b3, h, k3)
    h6 = h / 6.0
    d = np.stack([h6 * (p + 2.0 * (q + s) + t) for p, q, s, t in zip(k1, k2, k3, k4)])
    return d.reshape((2, 2) + d.shape[1:])


def _tree_product(m):
    """M_{k-1} ... M_0 of a stack (2, 2, k, rows) by pairwise products,
    as (mantissa, base-2 exponent)."""
    ex = np.zeros(m.shape[2:], dtype=np.int64)
    while m.shape[2] > 1:
        k = m.shape[2] // 2 * 2
        p, e = _normalize(_mul(m[:, :, 1:k:2], m[:, :, 0:k:2]),
                          ex[1:k:2] + ex[0:k:2])
        m = np.concatenate([p, m[:, :, k:]], axis=2)
        ex = np.concatenate([e, ex[k:]])
    return m[:, :, 0], ex[0]


def _prefix_product(m):
    """Inclusive prefix products M_i ... M_0 of a stack (2, 2, k, rows)
    by recursive doubling, in place, as (mantissas, base-2 exponents)."""
    ex = np.zeros(m.shape[2:], dtype=np.int64)
    d = 1
    while d < m.shape[2]:
        m[:, :, d:], ex[d:] = _normalize(_mul(m[:, :, d:], m[:, :, :-d]),
                                         ex[d:] + ex[:-d])
        d *= 2
    return m, ex


def _dense_frames(l, h, n, nodes):
    """(x, (u, u', v, v'), lam) per node from the normalized node states.

    The log frame lam steps up by 332 log 2 (about log 1e100) each time
    the magnitude first crosses another such factor and is constant in
    between, so neighbouring nodes almost always share a frame.  Frames
    are whole powers of two, so moving a node into its frame is exact.
    """
    ys = np.concatenate([y for y, _ in nodes], axis=2)
    ex = np.concatenate([e for _, e in nodes])
    frame = _FRAME_BITS * (np.maximum.accumulate(np.maximum(ex, 0), axis=0)
                           // _FRAME_BITS)
    ys = np.ldexp(ys, ex - frame).astype(float)
    xs = l + h * np.arange(n + 1)[:, None]
    return xs, ys.transpose(2, 3, 1, 0).reshape(n + 1, -1, 4), frame * _LN2


def _sweep(model, alpha, l, r, y0, n, *, record_dense=False):
    """Fixed-grid RK4 over a batch of windows [l_i, r_i], n steps each.

    The state Y = [[u, v], [u', v']] of every row (y0 is (2, 2, rows))
    is kept as a mantissa with its largest entry in [0.5, 1) and a
    base-2 exponent; lam = exponent * log 2.  Each block of at most
    _BLOCK_ROW_STEPS row-steps builds its step matrices in one pass and
    multiplies them pairwise; dense records take inclusive prefix
    products instead, one per node.  Every partial product is
    renormalized the same way.

    The Wronskian u'v - uv' = -det Y is never formed from the state: by
    Liouville's formula for the discrete map, log|det Y| grows by
    log det M_j per step, and det M_j = 1 + O(h) is computed from
    D_j = M_j - I without cancellation.  Checkpoints record the running
    sum as (index, x, log-determinant growth).
    """
    B = l.size
    h = (r - l) / n
    block = max(1, _BLOCK_ROW_STEPS // B)
    y, ex = _normalize(y0, np.zeros(B, dtype=np.int64))
    cp_idx = sorted({int(round(f * n)) for f in _CHECKPOINT_FRACS[1:]})
    logdet = np.zeros(B)
    checkpoints = [(0, l, logdet)]
    nodes = [(y[:, :, None], ex[None])]
    for j0 in range(0, n, block):
        steps = min(block, n - j0)
        m = _step_matrices(model, alpha, l, h, j0, steps)
        with np.errstate(invalid="ignore", divide="ignore"):
            cum = logdet + np.cumsum(np.log1p(
                m[0, 0] + m[1, 1] + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]), axis=0)
        checkpoints += [(c, l + c * h, cum[c - j0 - 1])
                        for c in cp_idx if j0 < c <= j0 + steps]
        logdet = cum[-1]
        m[0, 0] += 1.0
        m[1, 1] += 1.0
        if record_dense:
            # in extended precision, where the platform has it: each node
            # gets its own product, and rounding that differs from node to
            # node would be amplified by the interpolant's g''
            q, eq = _prefix_product(m.astype(np.longdouble))
            ys, es = _normalize(_mul(q, y[:, :, None]), eq + ex)
            nodes.append((ys, es))
            y, ex = ys[:, :, -1], es[-1]
        else:
            p, ep = _tree_product(m)
            y, ex = _normalize(_mul(p, y), ep + ex)
    return dict(y=y.astype(float).transpose(2, 1, 0).reshape(B, 4),
                lam=ex * _LN2,
                checkpoints=checkpoints,
                dense=_dense_frames(l, h, n, nodes) if record_dense else None)


def _initial_steps(model, alpha, l, r, max_steps):
    """Grid sizing from the local exponential rate of the two solutions."""
    ts = np.linspace(0.0, 1.0, 9)
    xs = (l[:, None] + ts[None, :] * (r - l)[:, None]).ravel()
    mu = np.abs(np.asarray(model.drift(xs), dtype=float))
    s2 = np.asarray(model.diffusion_sq(xs), dtype=float)
    if np.any(~(s2 > 0.0)):
        raise NumericError("diffusion_sq non-positive inside a solver window",
                           operation="solve", value=float(xs[np.argmin(s2)]),
                           module=_MOD)
    rate = mu / s2 + np.sqrt((mu / s2) ** 2 + 2.0 * alpha / s2)
    rate = rate.reshape(l.shape[0], ts.size).max(axis=1)
    n = int(np.ceil(8.0 * np.max(rate * (r - l))))
    if n > max_steps:
        # 8 steps per e-fold is already minimal for RK4; a requirement
        # past the cap cannot be rescued by the doubling ladder
        raise NumericError(
            f"window too stiff: resolving the local solution scale needs "
            f"about {n} steps, cap {max_steps}; alpha {alpha:g}, window "
            f"length {float(np.max(r - l)):g}",
            operation="solve", value=n, module=_MOD)
    n = max(64, min(n, max_steps // 2))
    return ((n + 7) // 8) * 8


def _endpoint_gap(a, b, abs_tol):
    """Relative disagreement of two sweeps at r, log-scale aware.

    Each component is measured against the magnitude of its solution
    pair (u, u') or (v, v'), not only its own: a derivative can sit
    many orders below its solution (v' ~ alpha v near alpha = 0), where
    its own-relative accuracy is limited by accumulated rounding and
    one more digit never arrives.  Downstream everything enters through
    quotients with the partner, so pair-scale absolute accuracy is the
    certificate that matters.
    """
    lam0 = np.minimum(a["lam"], b["lam"])
    with np.errstate(invalid="ignore", over="ignore"):
        fa = np.exp(a["lam"] - lam0)[:, None]
        fb = np.exp(b["lam"] - lam0)[:, None]
        va = a["y"] * fa
        vb = b["y"] * fb
        if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
            return math.inf
        mag = np.maximum(np.abs(va), np.abs(vb))
        sc = np.empty_like(mag)
        sc[:, :2] = mag[:, :2].max(axis=1, keepdims=True)
        sc[:, 2:] = mag[:, 2:].max(axis=1, keepdims=True)
        np.maximum(sc, abs_tol, out=sc)
        return float(np.max(np.abs(va - vb) / sc))


def _drift_from_checkpoints(model, cps, sprime_l, rows):
    """Max log-deviation of the scale Wronskian across checkpoints.

    |u'v - uv'| starts at S'(l) and has grown by the checkpoint's
    log-determinant sum; the scale Wronskian divides by S'(x) there.
    """
    logs = []
    for (_, xc, logdet) in cps:
        sp = np.asarray(scale_density(model, xc[rows]), dtype=float)
        with np.errstate(divide="ignore"):
            logs.append(np.log(sprime_l[rows]) + logdet[rows] - np.log(sp))
    logs = np.array(logs)
    if not np.all(np.isfinite(logs)):
        return math.inf
    return float(np.max(np.abs(logs - logs[0])))


def _solve_adaptive(model, alpha, l, r, settings, *, record_dense=False,
                    check_rows=slice(None)):
    n = _initial_steps(model, alpha, l, r, settings.max_steps)
    sprime_l = np.asarray(scale_density(model, l), dtype=float)
    y0 = np.zeros((2, 2, l.shape[0]))
    y0[1, 0] = sprime_l      # u(l) = 0, u'(l) = S'(l)
    y0[0, 1] = 1.0           # v(l) = 1, v'(l) = 0
    # RK4 propagates the Wronskian through det of the per-step update
    # matrix, whose truncation error is not controlled by the endpoint
    # gap when the drift term is large, so the doubling loop accepts a
    # grid only once both figures are in tolerance.
    drift_tol = 10.0 * settings.rel_tol
    prev = _sweep(model, alpha, l, r, y0, n)
    while True:
        n2 = 2 * n
        if n2 > settings.max_steps:
            raise NumericError(
                f"step budget exhausted: {n2} steps needed, cap {settings.max_steps}; "
                f"window length {float(np.max(r - l)):g}, alpha {alpha:g}",
                operation="solve", value=n2, module=_MOD)
        cur = _sweep(model, alpha, l, r, y0, n2)
        gap = _endpoint_gap(prev, cur, settings.abs_tol)
        drift = _drift_from_checkpoints(model, cur["checkpoints"], sprime_l,
                                        check_rows)
        if gap <= settings.rel_tol and drift <= drift_tol:
            n = n2
            break
        prev, n = cur, n2
    if record_dense:
        cur = _sweep(model, alpha, l, r, y0, n, record_dense=True)
    cur.update(n_steps=n, endpoint_gap=gap, w_drift=drift, sprime_l=sprime_l)
    return cur


# ---------------------------------------------------------------------------
# batched endpoint API (used by the drawdown laws)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BatchEndpoints:
    """Scaled endpoint data for a batch of windows.

    True values at r are (field) * exp(lam); the common factor exp(lam)
    cancels in the quotients the laws form.
    """

    u_r: np.ndarray
    up_r: np.ndarray
    v_r: np.ndarray
    vp_r: np.ndarray
    lam: np.ndarray
    sprime_l: np.ndarray
    sprime_r: np.ndarray
    w_drift: float
    n_steps: int


def batch_endpoints(model: DiffusionModel, alpha: float,
                    l: np.ndarray, r: np.ndarray,
                    settings: OdeSettings | None = None,
                    max_check_rows: int = 64) -> BatchEndpoints:
    """Solve all windows [l_i, r_i] at once and return endpoint data."""
    settings = settings or DEFAULT_SETTINGS
    l = np.asarray(l, dtype=float)
    r = np.asarray(r, dtype=float)
    if l.shape != r.shape or l.ndim != 1 or l.size == 0:
        raise ValidationError("l and r must be equal-length 1d arrays",
                              operation="batch_endpoints", value=(l.shape, r.shape),
                              module=_MOD)
    if not np.all(r > l):
        raise ValidationError("windows must satisfy l < r",
                              operation="batch_endpoints", module=_MOD)
    a, b = model.interval
    if not (np.all(l > a) and np.all(r < b)):
        raise ValidationError("windows must lie inside the open state space",
                              operation="batch_endpoints", module=_MOD)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be positive and finite",
                              operation="batch_endpoints", value=alpha, module=_MOD)
    B = l.size
    stride = max(1, B // max_check_rows)
    check_rows = np.arange(0, B, stride)
    out = _solve_adaptive(model, alpha, l, r, settings, check_rows=check_rows)
    y = out["y"]
    return BatchEndpoints(
        u_r=y[:, 0].copy(), up_r=y[:, 1].copy(),
        v_r=y[:, 2].copy(), vp_r=y[:, 3].copy(),
        lam=out["lam"].copy(),
        sprime_l=out["sprime_l"],
        sprime_r=np.asarray(scale_density(model, r), dtype=float),
        w_drift=out["w_drift"], n_steps=out["n_steps"],
    )


# ---------------------------------------------------------------------------
# dense single-window basis
# ---------------------------------------------------------------------------

def _quintic_hermite(x0, x1, g0, gp0, gpp0, g1, gp1, gpp1, x, nder):
    """Value and first nder derivatives at x of the quintic on [x0, x1]
    with (g, g', g'') given at both ends, evaluated in Bernstein form."""
    dx = x1 - x0
    c1 = gp0 / 5.0 * dx + g0
    c4 = g1 - gp1 / 5.0 * dx
    c = [g0, c1, gpp0 / 20.0 * dx * dx - g0 + 2.0 * c1,
         gpp1 / 20.0 * dx * dx + 2.0 * c4 - g1, c4, g1]
    t = (x - x0) / dx
    out = []
    for _ in range(nder + 1):
        deg = len(c) - 1
        out.append(float(sum(math.comb(deg, k) * t ** k * (1.0 - t) ** (deg - k) * ck
                             for k, ck in enumerate(c))))
        c = [deg * (b - a) / dx for a, b in zip(c, c[1:])]
    return out


class SolutionRecord:
    """One basis solution with dense evaluation.

    value() and raw_deriv() return true-scale numbers and can overflow
    for extreme alpha * window products; value_scaled() returns a
    (mantissa, log_factor) pair that never does.
    """

    def __init__(self, basis: "SolutionBasis", col: int):
        self._basis = basis
        self._col = col

    def value(self, x: float) -> float:
        m, lg = self.value_scaled(x)
        return m * math.exp(lg)

    def raw_deriv(self, x: float) -> float:
        g, gp, lg = self._basis._eval_cols(x, self._col)
        return gp * math.exp(lg)

    def scale_deriv(self, x: float) -> float:
        g, gp, lg = self._basis._eval_cols(x, self._col)
        sp = scale_density(self._basis.model, x)
        return gp / sp * math.exp(lg)

    def value_scaled(self, x: float) -> tuple[float, float]:
        g, gp, lg = self._basis._eval_cols(x, self._col)
        return g, lg

    def log_scale(self, x: float) -> float:
        return self._basis._lam_at(x)


class SolutionBasis:
    """Dense basis (u, v) on one window with Wronskian diagnostics."""

    def __init__(self, model, alpha, l, r, settings, dense, meta):
        self.model = model
        self.alpha = alpha
        self.interval = (l, r)
        self.settings = settings
        self.wronskian_ref = 1.0
        xs, ys, lams = dense
        self._xs = xs[:, 0]
        self._ys = ys[:, 0, :]
        self._lams = lams[:, 0]
        self.meta = meta
        self.u = SolutionRecord(self, 0)
        self.v = SolutionRecord(self, 2)

    # -- dense evaluation -------------------------------------------------
    def _segment(self, x: float) -> int:
        l, r = self.interval
        if not (l <= x <= r):
            raise ValidationError("evaluation point outside the solved window",
                                  operation="evaluate", value=x, module=_MOD)
        i = int(np.searchsorted(self._xs, x, side="right") - 1)
        return min(max(i, 0), len(self._xs) - 2)

    def _second_deriv(self, x, g, gp):
        mu = float(self.model.drift(x))
        s2 = float(self.model.diffusion_sq(x))
        return (2.0 / s2) * (self.alpha * g - mu * gp)

    def _eval_cols(self, x: float, col: int, nder: int = 1):
        """Quintic Hermite on the containing segment, in that segment's
        left-node renormalization frame.  Returns (g, g', ..., g^(nder),
        log_factor)."""
        i = self._segment(x)
        x0, x1 = self._xs[i], self._xs[i + 1]
        adj = math.exp(self._lams[i + 1] - self._lams[i])
        g0, gp0 = self._ys[i, col], self._ys[i, col + 1]
        g1, gp1 = self._ys[i + 1, col] * adj, self._ys[i + 1, col + 1] * adj
        vals = _quintic_hermite(x0, x1, g0, gp0, self._second_deriv(x0, g0, gp0),
                                g1, gp1, self._second_deriv(x1, g1, gp1), x, nder)
        return (*vals, float(self._lams[i]))

    def _lam_at(self, x: float) -> float:
        return float(self._lams[self._segment(x)])

    # -- diagnostics -------------------------------------------------------
    def wronskian(self, x: float) -> float:
        """Scale Wronskian (u' v - u v') / S' at x, true scale."""
        u, up, lg = self._eval_cols(x, 0)
        v, vp, _ = self._eval_cols(x, 2)
        sp = scale_density(self.model, x)
        return (up * v - u * vp) / sp * math.exp(2.0 * lg)

    def wronskian_drift(self) -> float:
        """Max log-deviation of the scale Wronskian across the solver's
        interior checkpoints, read from the running sum of the step
        matrices' log-determinants, so the figure is free of subtraction
        cancellation.  This is the certified conservation monitor;
        pointwise wronskian(x) values reconstructed from the stored
        basis lose relative accuracy once the growing solution
        dominates."""
        return float(self.meta["w_drift"])

    def residual(self, xs) -> np.ndarray:
        """ODE residual of the dense interpolants at xs, relative to the
        local magnitude of the basis pair.

        The yardstick is the operator magnitude of whichever of u, v is
        locally dominant; the pair never vanishes jointly, so the figure
        stays meaningful at the isolated zeros of one component, where a
        per-component ratio would divide rounding noise by a vanishing
        scale.
        """
        out = []
        for x in np.atleast_1d(np.asarray(xs, dtype=float)):
            mu = float(self.model.drift(x))
            s2 = float(self.model.diffusion_sq(x))
            res = []
            den = 1e-300
            for col in (0, 2):
                g, gp, gpp, _ = self._eval_cols(x, col, nder=2)
                res.append(abs(0.5 * s2 * gpp + mu * gp - self.alpha * g))
                den = max(den, abs(self.alpha * g) + abs(mu * gp)
                          + 0.5 * s2 * abs(gpp))
            out.append(max(res) / den)
        return np.asarray(out)

    def endpoint_data(self):
        """(u, u', v, v') true-scale at both ends plus log factor at r.
        At l the factor is 0 by construction."""
        yl = self._ys[0]
        yr = self._ys[-1]
        return dict(l=tuple(yl), r=tuple(yr), lam_r=float(self._lams[-1]))


def solve_local_basis(model: DiffusionModel, alpha: float, l: float, r: float,
                      settings: OdeSettings | None = None) -> SolutionBasis:
    """Dense (u, v) basis on [l, r] with u(l)=0, u'(l)=S'(l), v(l)=1, v'(l)=0."""
    settings = settings or DEFAULT_SETTINGS
    a, b = model.interval
    if not (a < l < r < b):
        raise ValidationError("need A < l < r < B strictly",
                              operation="solve_local_basis", value=(l, r), module=_MOD)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be positive and finite",
                              operation="solve_local_basis", value=alpha, module=_MOD)
    la = np.array([float(l)])
    ra = np.array([float(r)])
    out = _solve_adaptive(model, alpha, la, ra, settings, record_dense=True)
    basis = SolutionBasis(model, alpha, float(l), float(r), settings,
                          out["dense"],
                          meta=dict(n_steps=out["n_steps"],
                                    endpoint_gap=out["endpoint_gap"],
                                    w_drift=out["w_drift"]))
    if settings.normalization is not None:
        # fold a common rescale into the log channel; quotients unchanged
        xn = float(settings.normalization)
        mag = max(abs(basis.u.value_scaled(xn)[0]), abs(basis.v.value_scaled(xn)[0]))
        if mag > 0:
            basis._ys /= mag
            basis._lams += math.log(mag)
    return basis


def scale_derivative(model: DiffusionModel, record: SolutionRecord, x: float) -> float:
    """g'(x)/S'(x) for a solution record."""
    return record.scale_deriv(x)
