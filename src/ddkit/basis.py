"""Local solution bases for (1/2) sigma_sq g'' + mu g' = alpha g.

Each drawdown window [z - delta, z] gets its own initial-value basis:

    u(l) = 0,  u'(l) = S'(l)      (vanishing solution, unit scale slope)
    v(l) = 1,  v'(l) = 0          (flat solution)

In scale-derivative terms (g+ = g'/S') this pins the scale Wronskian

    w(x) = (u'(x) v(x) - u(x) v'(x)) / S'(x)

to exactly +1 on the whole window, which is the invariant monitored by
every solve.

The API is endpoint-only: batch_endpoints returns (u, u', v, v') at the
right end of every window and nothing in between, which is all any law
needs.  A value inside a window is the endpoint of a shorter window with
the same left end, and hitting and exit transforms are quotients of
right-end values of two windows (see laws.exit_transform).

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


@dataclass(frozen=True)
class OdeSettings:
    """Accuracy knobs for the window solver.

    rel_tol / abs_tol bound the accepted step-doubling gap at the right
    endpoint; the sweep also has to hold the Wronskian monitor within
    10 * rel_tol before a grid is accepted, because determinant error
    of RK4 is one order worse than state error for drifted models and
    the endpoint gap alone would let it slip through.  max_steps caps
    the finest grid tried before giving up.

    normalization is accepted and ignored.  It named a point at which
    to rescale a stored basis, but every number a solver returns enters
    the laws only through quotients in which a common factor cancels,
    and the solver already carries its own power-of-two scale.
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


def _sweep(model, alpha, l, r, y0, n):
    """Fixed-grid RK4 over a batch of windows [l_i, r_i], n steps each.

    The state Y = [[u, v], [u', v']] of every row (y0 is (2, 2, rows))
    is kept as a mantissa with its largest entry in [0.5, 1) and a
    base-2 exponent; lam = exponent * log 2.  Each block of at most
    _BLOCK_ROW_STEPS row-steps builds its step matrices in one pass and
    multiplies them pairwise, renormalizing every partial product.

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
        p, ep = _tree_product(m)
        y, ex = _normalize(_mul(p, y), ep + ex)
    return dict(y=y.transpose(2, 1, 0).reshape(B, 4), lam=ex * _LN2,
                checkpoints=checkpoints)


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
    xs = np.stack([xc[rows] for _, xc, _ in cps])
    logdet = np.stack([ld[rows] for _, _, ld in cps])
    sp = np.asarray(scale_density(model, xs), dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(sprime_l[rows]) + logdet - np.log(sp)
    if not np.all(np.isfinite(logs)):
        return math.inf
    return float(np.max(np.abs(logs - logs[0])))


def _solve_adaptive(model, alpha, l, r, settings, check_rows):
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
    cur.update(n_steps=n, w_drift=drift, sprime_l=sprime_l)
    return cur


# ---------------------------------------------------------------------------
# batched endpoint API
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


def solve_local_basis(model, alpha, l, r, settings=None):
    """batch_endpoints on the one window [l, r].  Kept only because the
    benchmark's tracer binds this name; it goes when its list drops it."""
    return batch_endpoints(model, alpha, np.array([l]), np.array([r]), settings)
