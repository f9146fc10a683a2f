"""One-dimensional diffusion models and their scale/speed structure.

A model is the SDE  dX_t = mu(X_t) dt + sigma(X_t) dW_t  on an open
interval ]A, B[, with sigma_sq = sigma^2 strictly positive in the
interior.  Everything downstream is built from two derived objects:

* scale density   S'(x) = exp(-int_{ref}^x 2 mu(u)/sigma_sq(u) du),
* scale function  S(x)  = int S'(u) du   (fixed only up to an affine
  map, so a law reads it only as (S(b) - S(a)) / S'(z), _scale_ratio),

and the speed density m'(x) = 2 / (sigma_sq(x) S'(x)).

Every model carries S' and that quotient as two required array
callables; ``scale_density``, ``scale_diff`` and ``scale`` read them
with S'(scale_ref) = 1.  The catalog kinds (bm, drifted_bm, gbm, ou)
give both in closed form, and the exact Gaussian step of the Monte
Carlo engine, which also marks a drifted BM in x or log x for the
closed forms of the hitting transform and, in x, of nu.  Custom models
are assembled from named coefficient forms and get both from one table
of log S', piecewise Chebyshev and grown lazily outward from scale_ref.

``scale_ref`` is the normalization point where S' = 1; it is distinct
from the anchor of ``scale``, which only fixes where S vanishes.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .chebyshev import Panels, antiderivative, coefficients, lobatto, series
from .errors import (DomainError, NumericError, UnsupportedModelError,
                     ValidationError, decode_json, holds_bool, json_object, pair,
                     real)

_MOD = "models"


# ---------------------------------------------------------------------------
# support types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExactStepSpec:
    """Exact Gaussian transition structure for the Monte Carlo engine.

    kind:
      * "arith"    sim coordinate is the state itself; step is
                   Y + mu_sim dt + sig_sim sqrt(dt) Z.
      * "loggauss" sim coordinate is log(state); same arithmetic step.
      * "ou"       sim coordinate is the state; exact AR(1) step
                   mean + (Y - mean) e^{-theta dt} + s(dt) Z.

    sig_sq_sim is the (constant) local variance rate in the sim
    coordinate, which the Brownian-bridge crossing/extreme corrections
    use too.  arith and loggauss also mark a drifted BM (mu_sim,
    sig_sq_sim) in the sim coordinate, whose passage transform (and, for
    arith, nu S') the laws take in closed form.
    """

    kind: str
    mu_sim: float = 0.0
    sig_sq_sim: float = 1.0
    theta: float = 0.0
    mean: float = 0.0


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Immutable bundle of coefficients and their scale structure.

    drift, diffusion_sq and the two required scale callables accept
    scalars or ndarrays.  ``scale_density_fn(x)`` is S' normalized to 1
    at scale_ref; ``scale_ratio_fn(a, b, z)`` is (S(b) - S(a)) / S'(z),
    a, b and z broadcast, formed without subtracting two values of S or
    dividing by a value of S', which cancel or leave the float range
    far from scale_ref where the quotient does not.  exact_step, when
    present, is the Monte Carlo step and, for kinds arith and loggauss,
    the hitting transform's closed form (arith: nu's constant rate too);
    every other law reads only the coefficients and the two scale callables.
    """

    model_id: str
    kind: str
    drift: Callable
    diffusion_sq: Callable
    interval: tuple[float, float]
    scale_density_fn: Callable
    scale_ratio_fn: Callable
    scale_ref: float = 0.0
    params: dict = field(default_factory=dict)
    exact_step: ExactStepSpec | None = None

    def __repr__(self):  # params only; callables are noise
        return (f"DiffusionModel(id={self.model_id!r}, kind={self.kind!r}, "
                f"interval={self.interval}, params={self.params})")


# ---------------------------------------------------------------------------
# interval / reference helpers
# ---------------------------------------------------------------------------

def _as_endpoint(v):
    """The JSON sentinels '-inf' and 'inf' as floats; any other value
    is left to _check_interval."""
    if not isinstance(v, str):
        return v
    s = v.strip().lower()
    if s in ("-inf", "-infinity"):
        return -math.inf
    if s in ("inf", "+inf", "infinity", "+infinity"):
        return math.inf
    raise ValidationError(f"interval endpoint not understood: {v!r}",
                          operation="model_from_dict", value=v, module=_MOD)


def _check_interval(interval, op):
    """(A, B) as floats with A < B; an endpoint is +-inf or a finite
    real number."""
    a, b = (float(v) if isinstance(v, numbers.Real) and v in (-math.inf, math.inf)
            else real(v, "interval endpoint other than +-inf", op, _MOD)
            for v in pair(interval, "interval", op, _MOD))
    if not a < b:
        raise ValidationError("interval must satisfy A < B",
                              operation=op, value=interval, module=_MOD)
    return a, b


def _default_ref(interval):
    a, b = interval
    if math.isfinite(a) and math.isfinite(b):
        return 0.5 * (a + b)
    if math.isfinite(a):
        return a + 1.0
    if math.isfinite(b):
        return b - 1.0
    return 0.0


def _check_ref(ref, interval, kind, natural=None):
    """scale_ref, which must lie inside the interval; without one, natural
    where it lies inside, else _default_ref."""
    a, b = interval
    if ref is None:
        inside = natural is not None and a < natural < b
        ref = natural if inside else _default_ref(interval)
    ref = real(ref, "scale_ref", kind, _MOD)
    if not (a < ref < b):
        raise ValidationError("scale_ref must lie inside the interval",
                              operation=kind, value=ref, module=_MOD)
    return ref


# ---------------------------------------------------------------------------
# the imaginary error function, for the OU scale
# ---------------------------------------------------------------------------

_ERFI_SWITCH = 1.5
# odd j <= 31, smallest terms first: 2 j h with h = 1/4, and (4/pi) e^{-(jh)^2} / j
_ERFI_J = np.arange(31.0, 0.0, -2.0)
_SINH_RATE = 0.5 * _ERFI_J[:, None]
_SINH_COEF = (np.exp(-(0.25 * _ERFI_J) ** 2) / (0.25 * math.pi * _ERFI_J))[:, None]
# Rybicki's odd offsets n', smallest terms first, and n' h
_ERFI_ODD = (np.arange(27.0, 0.0, -2.0)[:, None] * [-1.0, 1.0]).reshape(-1, 1)
_ERFI_ODD_H = 0.25 * _ERFI_ODD
_TWO_E8_PI = 1897.7367951478286           # 2 e^8 / pi
_ERFI_GRID = 2.0 ** 20


def _erfi_sinh(t):
    """erfi(t) = (4/pi) sum_{j odd > 0} e^{-(jh)^2} sinh(2 j h t) / j for
    0 <= t < 1.5: Rybicki's sum (see _erfi_dawson) at n0 = 0 with the
    terms of n' = j and -j paired, so every term is positive and nothing
    cancels.  The first term left out, j = 33, is below 1e-21 of the
    sum, and the sinh arguments of the terms that matter stay below 5,
    so their rounding costs little."""
    return np.add.reduce(_SINH_COEF * np.sinh(_SINH_RATE * t), axis=0)


def _erfi_dawson(t, s2):
    """erfi(t) e^{-s2} = (2/sqrt(pi)) e^{t^2 - s2} D(t) for t >= 1.5, D by Rybicki's sum

        sqrt(pi) D(t) = sum_{n' odd} e^{-(t' - n' h)^2} / (n' + n0),

    t = n0 h + t' with n0 even and |t'| <= h = 1/4 (Rybicki, Computers
    in Physics 3, 1989).  Its error is about e^{-(pi / 2h)^2} = 7e-18
    relative and |n'| <= 27 keeps every term above 5e-19 of the sum.
    e^{t^2 - s2} is e^{v^2 - 8 - s2} e^{t^2 - v^2} times e^8 in the
    constant, with v = t on a 2^-20 grid, so v^2 is exact and t^2 is
    never rounded; the shift by 8 lets erfi stay finite until it passes
    the float range (t ~ 26.7 at s2 = 0)."""
    u = np.minimum(t, 27.0 + np.sqrt(s2))  # past it the value overflows; no inf - inf
    m = np.rint(2.0 * u)                  # n0 = 2m
    v = np.rint(u * _ERFI_GRID) / _ERFI_GRID
    d = (u - 0.5 * m) - _ERFI_ODD_H
    d *= d
    e = np.exp(np.subtract((u - v) * (u + v), d, out=d), out=d)
    e /= 2.0 * m + _ERFI_ODD
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(v * v - 8.0 - s2) * (_TWO_E8_PI * np.add.reduce(e, axis=0))


def _erfi(x, s2=0.0):
    """erfi(x) e^{-s2}, erfi(x) = (2/sqrt(pi)) int_0^x e^{s^2} ds, elementwise
    (s2 >= 0 broadcast to x).  At s2 = 0 within 3 ulp of the exact value below
    the overflow at |x| ~ 26.7, where it returns +-inf; nan stays nan.  s2 goes
    into the exponent, so a product in the float range stays finite."""
    x = np.asarray(x, dtype=float)
    t = np.abs(x).ravel()
    s2 = np.full(x.shape, s2).ravel()
    small = t < _ERFI_SWITCH
    n_small = np.count_nonzero(small)
    if n_small == t.size:
        out = _erfi_sinh(t) * np.exp(-s2)
    elif not n_small:
        out = _erfi_dawson(t, s2)
    else:
        out = np.empty(t.shape)
        out[small] = _erfi_sinh(t[small]) * np.exp(-s2[small])
        out[~small] = _erfi_dawson(t[~small], s2[~small])
    return np.copysign(out.reshape(x.shape), x)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def brownian(sigma_sq: float = 1.0, interval=(-math.inf, math.inf),
             scale_ref: float | None = None, model_id: str = "bm") -> DiffusionModel:
    """Brownian motion with variance rate sigma_sq (natural scale)."""
    sigma_sq = real(sigma_sq, "sigma_sq", "brownian", _MOD, 0.0, strict=True)
    interval = _check_interval(interval, "brownian")
    ref = _check_ref(scale_ref, interval, "brownian")
    return DiffusionModel(
        model_id=model_id, kind="bm",
        drift=lambda x: 0.0 * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, scale_ref=ref,
        params={"sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        scale_ratio_fn=lambda a, b, z: np.subtract(b, a, dtype=float),
        exact_step=ExactStepSpec(kind="arith", mu_sim=0.0, sig_sq_sim=sigma_sq),
    )


def drifted_brownian(mu: float, sigma_sq: float = 1.0,
                     interval=(-math.inf, math.inf), scale_ref: float | None = None,
                     model_id: str = "drifted_bm") -> DiffusionModel:
    """Brownian motion with constant drift mu and variance rate sigma_sq."""
    sigma_sq = real(sigma_sq, "sigma_sq", "drifted_brownian", _MOD, 0.0, strict=True)
    mu = real(mu, "mu", "drifted_brownian", _MOD)
    if mu == 0.0:
        return brownian(sigma_sq, interval, scale_ref, model_id)
    interval = _check_interval(interval, "drifted_brownian")
    ref = _check_ref(scale_ref, interval, "drifted_brownian")
    g = 2.0 * mu / sigma_sq  # S'(x) = exp(-g (x - ref))

    def scale_ratio_fn(a, b, z):
        # S(b) - S(a) = sign(b - a) S'(m) (1 - e^{-|g| |b - a|}) / |g|, m the
        # end where S' is larger (the lower one for g > 0) in either order,
        # exact deep in the tail where S(a) and S(b) round to the same bound
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        m = np.minimum(a, b) if g > 0.0 else np.maximum(a, b)
        return (np.sign(b - a) * np.exp(-g * (m - z))
                * (-np.expm1(-abs(g) * np.abs(b - a))) / abs(g))

    return DiffusionModel(
        model_id=model_id, kind="drifted_bm",
        drift=lambda x: mu + 0.0 * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, scale_ref=ref,
        params={"mu": mu, "sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.exp(-g * (np.asarray(x, dtype=float) - ref)),
        scale_ratio_fn=scale_ratio_fn,
        exact_step=ExactStepSpec(kind="arith", mu_sim=mu, sig_sq_sim=sigma_sq),
    )


def geometric_brownian(mu_bar: float, sigma_bar_sq: float,
                       interval=(0.0, math.inf), scale_ref: float | None = None,
                       model_id: str = "gbm") -> DiffusionModel:
    """Geometric Brownian motion: drift mu_bar*x, diffusion sigma_bar_sq*x^2."""
    sigma_bar_sq = real(sigma_bar_sq, "sigma_bar_sq", "geometric_brownian", _MOD,
                        0.0, strict=True)
    mu_bar = real(mu_bar, "mu_bar", "geometric_brownian", _MOD)
    interval = _check_interval(interval, "geometric_brownian")
    if interval[0] < 0.0:
        raise ValidationError("gbm state space must sit inside ]0, inf[",
                              operation="geometric_brownian", value=interval, module=_MOD)
    ref = _check_ref(scale_ref, interval, "geometric_brownian", 1.0)
    p = 2.0 * mu_bar / sigma_bar_sq  # S'(x) = (x/ref)^(-p)

    def scale_ratio_fn(a, b, z):
        # (b^q - a^q) / q with the larger power m^q factored out in either
        # order: stable for b/a near 1 and for tails where the power values
        # S(a) and S(b) agree to rounding
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        q = 1.0 - p
        if q == 0.0:
            return z * np.log1p((b - a) / a)
        m = np.maximum(a, b) if q > 0.0 else np.minimum(a, b)
        return (np.sign(b - a) * (z / abs(q)) * (m / z) ** q
                * -np.expm1(-abs(q) * np.abs(np.log1p((b - a) / a))))

    return DiffusionModel(
        model_id=model_id, kind="gbm",
        drift=lambda x: mu_bar * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_bar_sq * np.asarray(x, dtype=float) ** 2,
        interval=interval, scale_ref=ref,
        params={"mu_bar": mu_bar, "sigma_bar_sq": sigma_bar_sq},
        scale_density_fn=lambda x: (np.asarray(x, dtype=float) / ref) ** (-p),
        scale_ratio_fn=scale_ratio_fn,
        exact_step=ExactStepSpec(kind="loggauss",
                                 mu_sim=mu_bar - 0.5 * sigma_bar_sq,
                                 sig_sq_sim=sigma_bar_sq),
    )


def ornstein_uhlenbeck(theta: float, mean: float = 0.0, sigma_sq: float = 1.0,
                       interval=(-math.inf, math.inf), scale_ref: float | None = None,
                       model_id: str = "ou") -> DiffusionModel:
    """Ornstein-Uhlenbeck: drift -theta*(x - mean), constant diffusion."""
    theta = real(theta, "theta", "ornstein_uhlenbeck", _MOD, 0.0, strict=True)
    mean = real(mean, "mean", "ornstein_uhlenbeck", _MOD)
    sigma_sq = real(sigma_sq, "sigma_sq", "ornstein_uhlenbeck", _MOD, 0.0, strict=True)
    interval = _check_interval(interval, "ornstein_uhlenbeck")
    ref = _check_ref(scale_ref, interval, "ornstein_uhlenbeck", mean)
    k = theta / sigma_sq  # S'(x) = exp(k ((x-mean)^2 - (ref-mean)^2))
    sq = math.sqrt(k)
    # (S(b) - S(a)) / S'(z) = (sqrt(pi/k)/2) (erfi(sq (b-mean)) - ...) e^{-k (z-mean)^2}
    half = 0.5 * math.sqrt(math.pi / k)

    def scale_ratio_fn(a, b, z):
        baz = np.array(np.broadcast_arrays(b, a, z), dtype=float) - mean
        # one call serves both ends; e^{-k (z-mean)^2} goes inside erfi's exponent
        e = _erfi(sq * baz[:2], k * baz[2] ** 2)
        return half * (e[0] - e[1])

    return DiffusionModel(
        model_id=model_id, kind="ou",
        drift=lambda x: -theta * (np.asarray(x, dtype=float) - mean),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, scale_ref=ref,
        params={"theta": theta, "mean": mean, "sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.exp(k * ((np.asarray(x, dtype=float) - mean) ** 2
                                               - (ref - mean) ** 2)),
        scale_ratio_fn=scale_ratio_fn,
        exact_step=ExactStepSpec(kind="ou", theta=theta, mean=mean, sig_sq_sim=sigma_sq),
    )


# ---------------------------------------------------------------------------
# custom models from named coefficient forms
# ---------------------------------------------------------------------------

# form -> the coefficients its document names besides "form"
_FORMS = {"constant": ("value",), "affine": ("intercept", "slope"),
          "power": ("coef", "exponent"), "quadratic": ("c0", "c1", "c2")}


def _build_form(doc, role):
    """Named coefficient forms; the only way to define custom coefficients.

    constant:  {"form": "constant", "value": c}
    affine:    {"form": "affine", "intercept": a, "slope": b}     a + b x
    power:     {"form": "power", "coef": c, "exponent": p}        c x^p
    quadratic: {"form": "quadratic", "c0": ., "c1": ., "c2": .}

    A form takes exactly its own keys.
    """
    try:
        form, keys = doc["form"], _FORMS[doc["form"]]
    except (TypeError, LookupError):
        raise ValidationError(f"{role} must be an object whose 'form' is one of "
                              f"{', '.join(_FORMS)}", operation="custom_model",
                              value=doc, module=_MOD) from None
    json_object(doc, f"{role} form {form!r}", ("form", *keys), keys, "custom_model", _MOD)
    c = [real(doc[k], f"{role} {k!r}", "custom_model", _MOD) for k in keys]
    if form == "constant":
        (c0,) = c
        return lambda x: c0 + 0.0 * np.asarray(x, dtype=float)
    if form == "affine":
        a0, b0 = c
        return lambda x: a0 + b0 * np.asarray(x, dtype=float)
    if form == "power":
        c0, p = c
        return lambda x: c0 * np.asarray(x, dtype=float) ** p
    c0, c1, c2 = c
    return lambda x: (c0 + np.asarray(x, dtype=float)
                      * (c1 + c2 * np.asarray(x, dtype=float)))


# the log-scale table of custom models; custom_model states its error
_DEGREE = 24                  # Chebyshev degree of g on every panel
_TAIL = 2.0 ** -46            # accepted last coefficients of g, relative to max |g|
_EPS = 2.0 ** -52             # ... or to its rounding noise, about eps max|x| max|g'|
_FLOOR = 2.0 ** -46           # narrowest trial width over max(1, |edge|), 64 to 128 ulps
_TP1 = lobatto(_DEGREE).t + 1.0
_J2 = np.arange(_DEGREE + 1) ** 2.0          # Markov: |g'| <= sum j^2 |c_j| / hs
_GL_T, _GL_W = leggauss(16)


class _Side:
    """One side of the table, outward from scale_ref: outer edges, L at each
    panel's left edge and its coefficients, L at the outer edge as a
    compensated pair, and the width the next panel tries first: at the
    start 1, or 1e-6 |ref| where that is wider, far above the width floor
    _FLOOR max(1, |edge|) however far ref lies from 0."""

    def __init__(self, ref):
        self.edges, self.off, self.coefs = [ref], [], []
        self.acc, self.trial = (0.0, 0.0), max(1.0, 1e-6 * abs(ref))


def _add(acc, x):
    """Neumaier's compensated sum: acc = (sum, correction)."""
    s, c = acc
    t = s + x
    c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
    return t, c


def _gl_pieces(L, Lz, lo, hi):
    """int_lo^hi e^{Lz - L} by Gauss-Legendre, each piece inside one panel."""
    hw = 0.5 * (hi - lo)
    return hw * (np.exp(Lz[:, None] - L((lo + hw)[:, None] + hw[:, None] * _GL_T)) @ _GL_W)


class _LogScale:
    """L(x) = int_ref^x g, g = 2 mu / sigma_sq, as a piecewise Chebyshev
    table; S' = e^{-L}.  Its two _Sides grow outward from ref one panel at
    a time (_extend), under a lock and only as far as the points asked
    for, and each growth is published as one immutable table that
    readers take without the lock.  custom_model states the panel rule
    and its error."""

    def __init__(self, drift, dsq, interval, ref):
        self._drift, self._dsq, self._interval = drift, dsq, interval
        self._lock = threading.Lock()
        self._sides = (_Side(ref), _Side(ref))      # right, left
        self._publish()

    def _publish(self):
        """Both sides as one table, L and int e^{off - L} over each panel, off
        L at its left edge, which readers take without the lock.  A panel's
        numbers depend on it alone."""
        right, left = self._sides
        C = np.reshape(left.coefs[::-1] + right.coefs, (-1, _DEGREE + 2))
        deg = np.flatnonzero(C.any(axis=0)).max(initial=1)
        L = Panels(np.array(left.edges[:0:-1] + right.edges),
                   np.array(left.off[::-1] + right.off), C[:, :deg + 1])
        f = np.exp(-series(L.coefs[:, None, :], _GL_T))    # L moves by at most 1
        self._tab = L, 0.5 * np.diff(L.edges) * sum(w * f[:, i]
                                                      for i, w in enumerate(_GL_W))

    def _covering(self, lo, hi, op):
        """The table with edges[0] <= lo and hi < edges[-1]."""
        tab = self._tab
        if tab[0].edges[0] <= lo and hi < tab[0].edges[-1]:
            return tab
        with self._lock:
            try:
                self._extend(self._sides[0], 1.0, hi, op)
                self._extend(self._sides[1], -1.0, lo, op)
            finally:
                self._publish()
            return self._tab

    def _extend(self, side, s, target, op):
        """Append panels on one side until its outer edge passes target.

        A panel starts at the outer edge with the side's trial width, at
        most half the distance to a finite endpoint, and is halved until
        sigma_sq > 0 at its nodes, the last three Chebyshev coefficients
        of g are at most _TAIL max|g| or the rounding noise of g at its
        nodes, and width * max|g| <= 1.  The next trial is twice the
        accepted width, so a panel is fixed by the panels between it and
        ref.  A trial width at or below _FLOOR max(1, |edge|) raises
        NumericError with the reason the last trial failed.
        """
        end = self._interval[1] if s > 0 else self._interval[0]
        while side.edges[-1] <= target if s > 0 else side.edges[-1] > target:
            e = side.edges[-1]
            w, why = side.trial, "the trial width is at most 2^-46 max(1, |x|)"
            while True:
                if not w > _FLOOR * max(1.0, abs(e)):      # bisected to nothing
                    raise NumericError(f"{why} near {e:g}", operation=op,
                                       value=float(target), module=_MOD)
                w = min(w, 0.5 * abs(end - e))
                ne = e + w if s > 0 else e - w
                hs = 0.5 * abs(ne - e)
                x = min(e, ne) + hs * _TP1
                with np.errstate(all="ignore"):
                    s2 = self._dsq(x)
                    g = 2.0 * self._drift(x) / s2
                    gc = coefficients(g)
                    gmax = np.abs(g).max()
                    # a node is off by up to eps |x|, so g by about eps |x g'|;
                    # near a singular finite endpoint that noise tops _TAIL max|g|
                    noise = _EPS * np.abs(x).max() * (np.abs(gc) @ _J2) / hs
                if (s2.min() > 0.0 and hs * gmax <= 0.5
                        and np.abs(gc[-3:]).max() <= max(_TAIL * gmax, noise)):
                    break
                why = ("diffusion_sq non-positive on integration path" if not s2.min() > 0.0
                       else "2 mu / sigma_sq is not finite" if not np.isfinite(g).all()
                       else "2 mu / sigma_sq is not resolved")
                w *= 0.5
            C = antiderivative(g, hs)                    # L - L(left edge)
            off = side.acc[0] + side.acc[1]
            side.acc = _add(side.acc, s * C.sum())
            side.off.append(off if s > 0 else side.acc[0] + side.acc[1])
            side.coefs.append(C)
            side.edges.append(ne)
            side.trial = 2.0 * w

    def density(self, x):
        """S'(x) = e^{-L(x)}."""
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.empty(x.shape)
        L, _ = self._covering(x.min(), x.max(), "scale_density")
        return np.exp(-L(x))

    def ratio(self, a, b, z):
        """(S(b) - S(a)) / S'(z) = int_a^b e^{L(z) - L} as a sum of positive
        pieces: [a, b] (or [b, a]) is cut at panel edges, whole panels add
        e^{L(z) - off} times their stored integral and the two end pieces
        get Gauss-Legendre on e^{L(z) - L}."""
        a, b, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, z)))
        if a.size == 0:
            return np.zeros(a.shape)
        lo, hi, zs = np.minimum(a, b).ravel(), np.maximum(a, b).ravel(), z.ravel()
        n = lo.size
        L, full = self._covering(min(lo.min(), zs.min()), max(hi.max(), zs.max()), "scale")
        Lz = L(zs)
        k = np.searchsorted(L.edges, np.concatenate([lo, hi]), side="right") - 1
        ka, kb = k[:n], k[n:]
        # the end pieces in panels ka and kb; the second is void when ka == kb
        ends = _gl_pieces(L, np.concatenate([Lz, Lz]),
                          np.concatenate([lo, np.maximum(L.edges[kb], lo)]),
                          np.concatenate([np.minimum(hi, L.edges[ka + 1]), hi]))
        out = ends[:n] + np.where(kb > ka, ends[n:], 0.0)
        nf = np.maximum(kb - ka - 1, 0)          # whole panels between the ends
        if nf.any():
            i = np.flatnonzero(nf)
            starts = np.cumsum(nf[i]) - nf[i]
            inner = np.repeat(ka[i] + 1 - starts, nf[i]) + np.arange(nf.sum())
            out[i] += np.add.reduceat(np.exp(np.repeat(Lz[i], nf[i]) - L.offsets[inner])
                                      * full[inner], starts)
        return np.where(b < a, -out.reshape(a.shape), out.reshape(a.shape))


def custom_model(drift_form: dict, diffusion_sq_form: dict,
                 interval=(-math.inf, math.inf), scale_ref: float | None = None,
                 model_id: str = "custom") -> DiffusionModel:
    """Model from named coefficient forms, with S' and S from one table.

    The table holds L(x) = int_ref^x g, g = 2 mu / sigma_sq, piecewise
    Chebyshev on panels grown outward from scale_ref on first use, only
    as far as the points asked for.  On each panel g is interpolated at
    the 25 Chebyshev points of degree 24, and L is the interpolant's
    exact antiderivative plus L at the panel's inner edge.  A panel is
    accepted once g is finite with sigma_sq > 0 at its points, the last
    three Chebyshev coefficients of g are at most 2^-46 max|g|, or at
    most g's own rounding noise at the points, 2^-52 max|x| max|g'|, and
    width * max|g| <= 1; otherwise it is bisected.  The first trial
    width is max(1, 1e-6 |scale_ref|), each next one twice the last
    accepted width, and no width passes half the distance to a finite
    endpoint, so widths grow geometrically where g allows and shrink
    geometrically toward a finite end.  A panel's layout depends only on the model and the
    panels between it and scale_ref, so a value never depends on the
    order of queries or on which thread grew the table.

    S' = e^{-L}.  (S(b) - S(a)) / S'(z) = int_a^b e^{L(z) - L} is a sum of
    positive pieces of [a, b] cut at panel edges: a whole panel adds its
    stored int e^{off - L}, off L at its left edge, times e^{L(z) - off},
    and an end piece its own, both by 16-point Gauss-Legendre.  L moves
    by at most 1 across a panel, so the rule is exact to rounding, and
    no piece overflows unless the quotient does.

    Error: a panel's interpolant of g is off by about its Chebyshev
    tail, at most 2^-46 max|g|, which adds at most about 2^-46 to L
    across the panel (width * max|g| <= 1).  The noise bound takes over
    only where |x g'| > 64 |g|, as near a singular finite endpoint; there
    g itself is known only to about eps |x g'| at a float x, and the
    tail adds about that times the width to L.  Dropping g's trailing
    coefficients at or below 25 ulps of max|g|, its rounding noise, adds
    at most about as much again.  The error of L(z) - L(w) is the sum of
    the accepted tails of the panels between w and z, in absolute terms
    in L, which means in relative terms in the quotient, local to [a, b]
    and z, plus the rounding of L, about eps |L|; L is summed outward
    with compensated summation.

    A g that is not finite, sigma_sq <= 0, or a g not resolved by panels
    down to a width of 2^-46 max(1, |x|), on the way from scale_ref to a
    point, raises NumericError naming which.
    """
    interval = _check_interval(interval, "custom_model")
    ref = _check_ref(scale_ref, interval, "custom_model")
    drift = _build_form(drift_form, "drift")
    dsq = _build_form(diffusion_sq_form, "diffusion_sq")
    a, b = interval
    probes = np.linspace(ref - 2.0, ref + 2.0, 9)
    probes = probes[(probes > a) & (probes < b)]
    probes = np.append(probes, ref)
    vals = dsq(probes)
    if not np.all(np.asarray(vals) > 0.0):
        bad = float(probes[np.argmin(np.asarray(vals))])
        raise ValidationError("diffusion_sq must be strictly positive in the interior",
                              operation="custom_model", value=bad, module=_MOD)
    table = _LogScale(drift, dsq, interval, ref)
    return DiffusionModel(
        model_id=model_id, kind="custom", drift=drift, diffusion_sq=dsq,
        interval=interval, scale_ref=ref,
        params={"drift": dict(drift_form), "diffusion_sq": dict(diffusion_sq_form)},
        scale_density_fn=table.density,
        scale_ratio_fn=table.ratio,
    )


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

# kind -> (constructor, the params it takes, the params it needs)
_KINDS = {
    "bm": (brownian, {"sigma_sq"}, set()),
    "drifted_bm": (drifted_brownian, {"mu", "sigma_sq"}, {"mu"}),
    "gbm": (geometric_brownian, {"mu_bar", "sigma_bar_sq"}, {"mu_bar", "sigma_bar_sq"}),
    "ou": (ornstein_uhlenbeck, {"theta", "mean", "sigma_sq"}, {"theta"}),
}

CATALOG_KINDS = tuple(_KINDS)

_DOC_KEYS = ("kind", "params", "interval", "model_id")
_CUSTOM_PARAMS = ("drift", "diffusion_sq")


def model_from_dict(doc: dict) -> DiffusionModel:
    """Build a model from the JSON interchange layout.

    {"model_id": str, "kind": "bm"|"drifted_bm"|"gbm"|"ou"|"custom",
     "params": {...}, "interval": [A, B] with "-inf"/"inf" sentinels}

    params holds the keyword arguments of the kind's constructor, and
    for custom its two coefficient forms, "drift" and "diffusion_sq";
    every kind may add "scale_ref".  Without "interval" the constructor's
    default applies.  An unknown key at any level, in the document, in
    params or in a coefficient form, is refused with ValidationError
    naming it, as is a missing required one.
    """
    op = "model_from_dict"
    json_object(doc, "model", _DOC_KEYS, ("kind",), op, _MOD)
    kind = doc["kind"]
    if kind not in (*CATALOG_KINDS, "custom"):
        raise ValidationError(f"model kind must be one of {(*CATALOG_KINDS, 'custom')}",
                              operation=op, value=kind, module=_MOD)
    if kind == "custom":
        allowed = required = _CUSTOM_PARAMS
    else:
        make, allowed, required = _KINDS[kind]
    params = json_object(doc.get("params", {}), f"params of kind {kind!r}",
                         (*allowed, "scale_ref"), required, op, _MOD)
    model_id = doc.get("model_id", kind)
    if not isinstance(model_id, str) or not model_id:
        raise ValidationError("model_id must be a nonempty string",
                              operation=op, value=model_id, module=_MOD)
    kw = {"model_id": model_id}
    if "interval" in doc:
        kw["interval"] = tuple(map(_as_endpoint, pair(doc["interval"], "interval", op, _MOD)))
    if kind == "custom":
        return custom_model(params["drift"], params["diffusion_sq"],
                            scale_ref=params.get("scale_ref"), **kw)
    return make(**kw, **{k: real(v, f"params.{k}", op, _MOD) for k, v in params.items()})


def model_from_json(text: str) -> DiffusionModel:
    return model_from_dict(decode_json(text, "model", "model_from_json", _MOD))


# ---------------------------------------------------------------------------
# scale machinery
# ---------------------------------------------------------------------------

def _require_interior(model, x, op):
    a, b = model.interval
    if (isinstance(x, (float, int, np.floating, np.integer)) and not isinstance(x, bool)
            and a < x < b):
        return      # scalar fast path; nan and +-inf fail a strict comparison
    try:
        arr = np.asarray(x, dtype=float)
        if holds_bool(x):
            raise TypeError("bools are not points")
    except (TypeError, ValueError):
        raise ValidationError("point must be a real number or an array of them",
                              operation=op, value=x, module=_MOD) from None
    inside = (arr > a) & (arr < b)
    if inside.all():
        return      # an empty array too; nan and +-inf fail the comparisons
    if not np.all(np.isfinite(arr)):
        raise DomainError("point must be finite", operation=op,
                          value=x, module=_MOD)
    raise DomainError(f"point outside open interval ]{a}, {b}[", operation=op,
                      value=float(arr[~inside].flat[0]), module=_MOD)


def _evaluate(model, fn, what, op, *points):
    """fn(*points) at interior points, which broadcast; a float when all
    are scalars.  A value that overflows or is otherwise not finite
    raises NumericError naming op and the points where it happened."""
    for p in points:
        _require_interior(model, p, op)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(fn(*points), dtype=float)
    if not np.isfinite(out).all():
        i = np.flatnonzero(~np.isfinite(out))[0]
        at = [float(p.flat[i]) for p in np.broadcast_arrays(*points)]
        raise NumericError(f"{what} is not finite", operation=op,
                           value=at[0] if len(at) == 1 else tuple(at), module=_MOD)
    return float(out) if out.ndim == 0 else out


def scale_density(model: DiffusionModel, x):
    """S'(x), normalized so S'(scale_ref) = 1.  Takes arrays; a float
    for scalar x.  A density that overflows or is otherwise not finite
    raises NumericError."""
    return _evaluate(model, model.scale_density_fn, "scale density", "scale_density", x)


def _over_scale_density(rate, model, x, op):
    """rate / S'(x), S' read under op, for the level functions and the
    speed density; a float for scalars.  The first level where S'(x) is
    not finite, underflows to 0 or leaves a quotient that is not finite
    raises NumericError naming op."""
    sp = _evaluate(model, model.scale_density_fn, "scale density", op, x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.divide(rate, sp)
    if not np.isfinite(out).all():
        z, s, _ = next(t for t in np.broadcast(x, sp, out) if not np.isfinite(t[2]))
        why = "S'(z) underflows to 0" if s == 0.0 else "the rate over S'(z) is not finite"
        raise NumericError(f"{why} at level {z:g}", operation=op, value=float(z),
                           module=_MOD)
    return float(out) if out.ndim == 0 else out


def _scale_ratio(model, a, b, z, op):
    """(S(b) - S(a)) / S'(z), the form in which scale values enter every
    law, as _evaluate gives it; errors name op."""
    return _evaluate(model, model.scale_ratio_fn, "scale quotient", op, a, b, z)


def scale_diff(model: DiffusionModel, a, b):
    """S(b) - S(a) with S'(scale_ref) = 1; a and b broadcast against each
    other, and a float when both are scalars.  A difference that
    overflows or is otherwise not finite raises NumericError."""
    return _scale_ratio(model, a, b, model.scale_ref, "scale")


def scale(model: DiffusionModel, x, anchor: float | None = None):
    """S(x) - S(anchor); anchor defaults to the model's scale_ref."""
    return scale_diff(model, model.scale_ref if anchor is None else anchor, x)


@dataclass(frozen=True, eq=False)
class SpeedDensity:
    """m'(x) = 2 / (sigma_sq(x) S'(x)), refused like the level functions
    where S'(x) underflows to 0 or the quotient is not finite."""

    model: DiffusionModel

    def __call__(self, x):
        _require_interior(self.model, x, "SpeedDensity")
        s2 = self.model.diffusion_sq(x)
        arr = np.asarray(s2, dtype=float)
        if not np.all(arr > 0):
            raise NumericError("diffusion_sq non-positive",
                               operation="SpeedDensity", value=x, module=_MOD)
        return _over_scale_density(2.0 / arr, self.model, x, "SpeedDensity")


# ---------------------------------------------------------------------------
# query validation
# ---------------------------------------------------------------------------

def _require_window(model, x, delta, op):
    """(x, delta) as floats, once x is interior and x - delta lies
    strictly above the left endpoint; see validate_query."""
    x = real(x, "x", op, _MOD)
    delta = real(delta, "delta", op, _MOD, 0.0, strict=True)
    _require_interior(model, x, op)
    if not (x - delta > model.interval[0]):
        raise DomainError("x - delta must lie strictly above the left endpoint; "
                          "the first drawdown window would leave the state space",
                          operation=op, value=x - delta, module=_MOD)
    return x, delta


def validate_query(model: DiffusionModel, x: float, delta: float) -> None:
    """Reject (x, delta) pairs whose drawdown law is not well posed.

    Needs x and delta finite reals, delta > 0, x interior and x - delta
    strictly above the left endpoint, so that every drawdown window
    [z - delta, z] for z >= x stays inside the state space.  Malformed
    values raise ValidationError, windows outside it DomainError.
    """
    _require_window(model, x, delta, "validate_query")
