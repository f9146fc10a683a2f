"""Local solution bases for (1/2) sigma_sq g'' + mu g' = alpha g.

Each drawdown window [z - delta, z] gets its own initial-value basis:

    u(l) = 0,  u'(l) = 1      (vanishing solution, unit slope)
    v(l) = 1,  v'(l) = 0      (flat solution)

solved from the drift and diffusion_sq alone: the solver never
evaluates the scale.  The Wronskian W = u'v - uv' starts at 1 and, by
Liouville, W' = -(2 mu / sigma_sq) W, so W(r) = S'(r) / S'(l) for any
normalisation of S'.  Its log, the sum of the panel maps' log det, is
log_w; the laws' rates b S' = e^{log_w} / u(r) and chat S' = u'(r) / u(r)
are quotients of right-end values (laws._factors).

The API is endpoint-only: batch_endpoints returns (u, u', v, v') at the
right end of every window and nothing in between, which is all any law
needs.  A value inside a window is the endpoint of a shorter window with
the same left end, and hitting and exit transforms are quotients of
right-end values of two windows (see laws._passage).

Integration multiplies Chebyshev panel propagators, batched over
windows, each window at its own alpha or all at one.  A window is cut
into equal panels with k h <= 1, k the faster exponential rate
|mu|/sigma_sq + sqrt((mu/sigma_sq)^2 + 2 alpha/sigma_sq) of the two
solutions.  On a panel the unknown is y'' at the N + 1
Chebyshev points, in the integral form y' = y'_0 + J1 y'',
y = y_0 + y'_0 (x - x_0) + J2 y'', which unlike differentiation matrices
has no rounding floor that grows with N (Greengard, SIAM J. Numer. Anal.
28, 1991).  Each panel moves (y, y') by a 2x2 map; the maps are
multiplied pairwise, every partial product rescaled by an exact power of
two carried as a log factor that cancels in the laws' quotients.

Each solve certifies itself.  On every panel the converged unknown g
is a Chebyshev series, and its last two coefficients carried to the
panel's right end by J1 and J2 bound what cutting the series would move
the panel map by, the chopping rule of Aurentz & Trefethen (ACM TOMS
43, 2017).  A window's certificate is the sum of its panels' tails.  A
degree ladder (12, 16, 24, ...) on fixed panels accepts the first degree
whose certificate is at most rel_tol in every window while the Wronskian
monitor holds, so a typical solve is one degree-12 sweep; the ladder
climbs only where a tail fails, and one that stops improving raises
NumericError at its rounding floor.  The monitor reads every panel
node: log det of the node states, summed over the panels before,
against its reference, the integral of -2 mu / sigma_sq from l that the
panel's own J1 matrix takes of the coefficients at its nodes; w_drift
is the largest gap.  n_steps counts panel nodes per window: the mean
panel count, rounded up, times the accepted degree.  The one knob is
rel_tol (OdeSettings); a window past _MAX_NODES is refused as too stiff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import antiderivative, lobatto
from .errors import NumericError, ValidationError, real, real_array
from .models import DiffusionModel

_MOD = "basis"

_BLOCK_NODES = 1 << 15        # rows x panels x (degree + 1) of one block
_DEGREES = (12, 16, 24, 32, 48, 64, 96, 128)
_ROUNDING = 8.0 * 2.0 ** -52  # the rounding a panel map adds, for endpoint_gap
_PICARD_MAX = 60
# panels x degree of one window: a window past it is refused before any
# panel is solved, and the ladder stops where the next degree would pass it
_MAX_NODES = 2_000_000
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OdeSettings:
    """Accuracy knob for the window solver.

    rel_tol bounds every window's tail certificate (the sum of its
    panels' Chebyshev tails); the solve also has to hold the Wronskian
    monitor within 10 * rel_tol before a degree is accepted.  The
    certificate is relative to the unit starts of each panel, with no
    absolute floor.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        v = real(self.rel_tol, "rel_tol", "OdeSettings", _MOD, 0.0, strict=True)
        if v > 1e-4:
            raise ValidationError("rel_tol must lie in ]0, 1e-4]",
                                  operation="OdeSettings", value=v, module=_MOD)
        object.__setattr__(self, "rel_tol", v)


DEFAULT_SETTINGS = OdeSettings()


# ---------------------------------------------------------------------------
# Chebyshev panel propagators
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


@functools.lru_cache(maxsize=None)
def _cheb(n):
    """Points t_j = -cos(j pi / n) on [-1, 1], the stacked matrix [J1; J2]
    taking the values of a degree-n polynomial there to the values of
    its first and second antiderivatives from -1, the rows taking those
    values to the coefficients of T_{n-1} and T_n, and |J1 T_{n-1}|,
    |J1 T_n| (top row) and |J2 T_{n-1}|, |J2 T_n| at t = 1."""
    t, ev, coef, a, _ = lobatto(n)
    c = antiderivative(np.eye(n + 1), 1.0).T.copy()
    jj = np.vstack([ev[:, :-1] @ c, ev @ a @ c])
    return t, jj, coef[n - 1:], np.abs(jj[n::n + 1] @ ev[:, n - 1:n + 1])


def _coefficients(model, xs):
    """mu and sigma_sq at the points xs, broadcast to their shape."""
    return [np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
            for f in (model.drift, model.diffusion_sq)]


def _panel_states(model, alpha, x0, h, n):
    """(y, z = (h/2) y') at the n + 1 points of the panels [x0, x0 + h],
    shaped (n + 1, 2, panels), from the starts (1, 0) and (0, 1), the
    log det reference J1 cb, shaped (n + 1, panels), and each panel's
    tail, shaped (panels,).  In t = 2 (x - x0)/h - 1 the unknown
    g = (h/2)^2 y'' solves the Volterra equation g = ca y + cb z; its
    fixed-point iteration converges for any k h.  The determinant
    y_1 z_2 - y_2 z_1 of the two starts solves d/dt det = cb det, so its
    log is the integral of cb from t = -1.  The tail is g's last two
    Chebyshev coefficients carried to the panel's right end by J1 and J2,
    |J T_{n-1}| |c_{n-1}| + |J T_n| |c_n|, the largest over y, z and the
    two starts: what the panel map would move by if g's series were cut
    one degree earlier."""
    t, jj, last2, ends = _cheb(n)
    hs = 0.5 * h
    mu, s2 = _coefficients(model, x0 + (t[:, None] + 1.0) * hs)
    # the two starts of every panel side by side on the middle axis,
    # (1, 0) then (0, 1); both read the same coefficients
    ca = (2.0 * alpha * hs * hs / s2)[:, None]
    cb = (-2.0 * hs * mu / s2)[:, None]
    del mu, s2                      # one node array each, not needed past here
    k, tp1 = h.size, t[:, None] + 1.0
    # ca y + cb z at zero integrals: y = 1, z = 0 from (1, 0) and
    # y = t + 1, z = 1 from (0, 1)
    g0 = np.empty((n + 1, 2, k))
    g0[:, 0] = ca[:, 0]
    g0[:, 1] = ca[:, 0] * tp1 + cb[:, 0]
    q = np.empty((2 * n + 2, 2 * k))
    y, z = q[n + 1:].reshape(n + 1, 2, k), q[:n + 1].reshape(n + 1, 2, k)
    g, end, buf, tmp = g0, 0.0, np.empty_like(g0), np.empty_like(g0)
    for _ in range(_PICARD_MAX):
        np.matmul(jj, g.reshape(n + 1, 2 * k), out=q)
        # the iteration error of every column is largest at its right end
        qn = q[n::n + 1]
        if np.all(np.abs(qn - end) <= 1e-14 * (1.0 + np.abs(qn))):
            y[:, 0] += 1.0
            y[:, 1] += tp1
            z[:, 1] += 1.0
            tail = (ends @ np.abs(last2 @ g.reshape(n + 1, 2 * k))).max(axis=0)
            return y, z, jj[:n + 1] @ cb[:, 0], tail.reshape(2, k).max(axis=0)
        end = qn.copy()
        g = np.multiply(ca, y, out=buf)
        g += np.multiply(cb, z, out=tmp)
        g += g0
    raise NumericError(f"panel iteration did not converge at degree {n}",
                       operation="solve", value=float(np.min(x0)), module=_MOD)


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


def _sweep(model, alpha, l, r, y0, panels, n):
    """Product of the degree-n maps of windows [l_i, r_i] cut into
    panels[i] equal panels, at alpha (one per window or shared), in
    blocks of at most _BLOCK_NODES nodes, applied to the states y0
    (2, 2, rows) as a mantissa with its largest entry in [0.5, 1) and
    lam = base-2 exponent * log 2.  log_w sums the log det of every
    panel map of a window, and tail the panels' tails (_panel_states),
    the window's certificate.  drift is the Wronskian monitor: the largest
    gap, over every node of every window, between log det of the node
    states plus that of the panel maps before them and the reference
    integral of -2 mu / sigma_sq from l.  Rows past one block are swept
    a block of rows at a time, so memory does not grow with the batch.
    """
    B = l.size
    alpha = np.broadcast_to(alpha, l.shape)
    rows = max(1, _BLOCK_NODES // (n + 1))
    if B > rows:
        parts = [_sweep(model, alpha[i:i + rows], l[i:i + rows], r[i:i + rows],
                        y0[:, :, i:i + rows], panels[i:i + rows], n)
                 for i in range(0, B, rows)]
        out = {k: np.concatenate([p[k] for p in parts])
               for k in ("y", "lam", "log_w", "tail")}
        return dict(out, drift=max(p["drift"] for p in parts))
    h = (r - l) / panels
    y, ex = _normalize(y0, np.zeros(B, dtype=np.int64))
    log_w, tail, dev_w, drift = np.zeros(B), np.zeros(B), np.zeros(B), 0.0
    block = max(1, _BLOCK_NODES // (B * (n + 1)))
    for j0 in range(0, int(panels.max()), block):
        live = (j0 + np.arange(min(block, panels.max() - j0)))[:, None] < panels
        jj, ii = np.nonzero(live)
        ys, zs, ref, pt = _panel_states(model, alpha[ii], l[ii] + (j0 + jj) * h[ii],
                                        h[ii], n)
        tail += np.bincount(ii, pt, minlength=B)
        hs = 0.5 * h[ii]
        m = np.eye(2)[:, :, None, None] * np.ones(live.shape)
        m[:, :, jj, ii] = [[ys[n, 0], hs * ys[n, 1]], [zs[n, 0] / hs, zs[n, 1]]]
        dev = np.zeros(live.shape + (n + 1,))
        with np.errstate(invalid="ignore", divide="ignore"):
            ld = np.log(ys[:, 0] * zs[:, 1] - ys[:, 1] * zs[:, 0])
            log_w += np.bincount(ii, ld[n], minlength=B)
            dev[jj, ii] = (ld - ref).T
            before = dev_w + np.cumsum(dev[..., n], axis=0) - dev[..., n]
            drift = np.maximum(drift, np.abs(before[..., None] + dev).max())
            dev_w = before[-1] + dev[-1, :, n]
        del ys, zs, ref, ld, dev    # the block's node arrays, before the next block's
        p, ep = _tree_product(m)
        y, ex = _normalize(_mul(p, y), ep + ex)
    return dict(y=y.transpose(2, 1, 0).reshape(B, 4), lam=ex * _LN2, log_w=log_w,
                tail=tail, drift=float(drift) if np.isfinite(drift) else math.inf)


def _panel_counts(model, alpha, l, r, max_steps):
    """Panels per window with k h <= 1, k the larger exponential rate of
    the two solutions at nine points of the window; counts past
    max_steps (or not finite) are clipped to max_steps + 1.  Windows are
    read a block of _BLOCK_NODES points at a time."""
    alpha = np.broadcast_to(alpha, l.shape)
    rows = _BLOCK_NODES // 9
    if l.size > rows:
        return np.concatenate([
            _panel_counts(model, alpha[i:i + rows], l[i:i + rows], r[i:i + rows],
                          max_steps) for i in range(0, l.size, rows)])
    xs = l[:, None] + np.linspace(0.0, 1.0, 9) * (r - l)[:, None]
    mu, s2 = _coefficients(model, xs)
    if np.any(~(s2 > 0.0)):
        raise NumericError("diffusion_sq non-positive inside a solver window",
                           operation="solve", value=float(xs.flat[np.argmin(s2)]),
                           module=_MOD)
    with np.errstate(over="ignore"):
        g = np.abs(mu) / s2
        need = np.ceil((g + np.sqrt(g * g + 2.0 * alpha[:, None] / s2)).max(axis=1)
                       * (r - l))
    return np.fmin(np.maximum(need, 1.0), max_steps + 1).astype(np.int64)


def _solve_adaptive(model, alpha, l, r, settings):
    panels = _panel_counts(model, alpha, l, r, _MAX_NODES)
    # the columns u = (0, 1) and v = (1, 0) of every window's start
    y0 = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None], (2, 2, l.size))

    def where():        # for the error text only, not on the way to success
        lo, hi = float(np.min(alpha)), float(np.max(alpha))
        span = f"{lo:g}" if lo == hi else f"in [{lo:g}, {hi:g}]"
        return f"alpha {span}, window length {float(np.max(r - l)):g}"

    drift_tol, last = 10.0 * settings.rel_tol, math.inf
    for n in _DEGREES:
        if panels.max() * n > _MAX_NODES:    # before any panel array
            raise NumericError(
                f"window too stiff: {panels.max()} panels of degree {n} pass the "
                f"cap of {_MAX_NODES} panel nodes; {where()}",
                operation="solve", value=int(panels.max() * n), module=_MOD)
        cur = _sweep(model, alpha, l, r, y0, panels, n)
        tail, drift = float(cur["tail"].max()), cur["drift"]
        if tail <= settings.rel_tol and drift <= drift_tol:
            return BatchEndpoints(
                *cur["y"].T.copy(), lam=cur["lam"], log_w=cur["log_w"],
                w_drift=drift, n_steps=-(-int(panels.sum()) // l.size) * n,
                endpoint_gap=float((cur["tail"] + _ROUNDING * panels).max()))
        err = max(tail / settings.rel_tol, drift / drift_tol)
        if not err < last:
            break
        last = err
    raise NumericError(f"rounding floor: the degree ladder stopped improving at "
                       f"degree {n}, tail {tail:.2g}, Wronskian drift "
                       f"{drift:.2g}; {where()}", operation="solve", value=tail, module=_MOD)


# ---------------------------------------------------------------------------
# batched endpoint API
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BatchEndpoints:
    """Scaled endpoint data for a batch of windows.

    True values at r are (field) * exp(lam); the common factor exp(lam)
    cancels in the quotients the laws form.  log_w is log S'(r) / S'(l),
    the log growth of the Wronskian u'v - uv' from its start at 1.
    w_drift is the Wronskian monitor's largest gap.  endpoint_gap bounds
    the relative error of the endpoint values, each component against
    the larger of its solution pair: the largest over the windows of the
    tail certificate plus 8 ulps of rounding per panel.  It does not
    cover the rounding that log_w gathers along a long window: for
    drifted_brownian(3) at alpha = 0.5 on [0, 64], log_w is off by
    1.6e-12 from -384 while endpoint_gap is 7.2e-13.
    """

    u_r: np.ndarray
    up_r: np.ndarray
    v_r: np.ndarray
    vp_r: np.ndarray
    lam: np.ndarray
    log_w: np.ndarray
    w_drift: float
    n_steps: int
    endpoint_gap: float


def batch_endpoints(model: DiffusionModel, alpha,
                    l: np.ndarray, r: np.ndarray,
                    settings: OdeSettings | None = None) -> BatchEndpoints:
    """Solve all windows [l_i, r_i] at once and return endpoint data.

    alpha is one rate > 0 for every window, or an array of them with the
    shape of l, one per window: the windows of several rates then share
    one degree ladder, accepted at the first degree that holds for all
    of them, so endpoint_gap, w_drift and n_steps are batch-wide.
    """
    settings = settings or DEFAULT_SETTINGS
    l = real_array(l, "l", "batch_endpoints", _MOD)
    r = real_array(r, "r", "batch_endpoints", _MOD)
    if l.shape != r.shape:
        raise ValidationError("l and r must be equal-length 1d arrays",
                              operation="batch_endpoints", value=(l.shape, r.shape),
                              module=_MOD)
    if isinstance(alpha, (list, tuple, np.ndarray)):
        alpha = real_array(alpha, "alpha", "batch_endpoints", _MOD)
        if alpha.shape != l.shape or not np.all(alpha > 0.0):
            raise ValidationError("an alpha array must hold one alpha > 0 per window",
                                  operation="batch_endpoints", value=alpha, module=_MOD)
    else:
        alpha = real(alpha, "alpha", "batch_endpoints", _MOD, 0.0, strict=True)
    if not np.all(r > l):
        raise ValidationError("windows must satisfy l < r",
                              operation="batch_endpoints", module=_MOD)
    a, b = model.interval
    if not (np.all(l > a) and np.all(r < b)):
        raise ValidationError("windows must lie inside the open state space",
                              operation="batch_endpoints", module=_MOD)
    return _solve_adaptive(model, alpha, l, r, settings)


def solve_local_basis(model, alpha, l, r, settings=None):
    """batch_endpoints on the one window [l, r].  Kept only because the
    benchmark's tracer binds this name; it goes when its list drops it."""
    return batch_endpoints(model, alpha, np.array([l]), np.array([r]), settings)
