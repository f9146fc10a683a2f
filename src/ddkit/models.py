"""One-dimensional diffusion models and their scale/speed structure.

A model is the SDE  dX_t = mu(X_t) dt + sigma(X_t) dW_t  on an open
interval ]A, B[, with sigma_sq = sigma^2 strictly positive in the
interior.  Everything downstream is built from two derived objects:

* scale density   S'(x) = exp(-int_{ref}^x 2 mu(u)/sigma_sq(u) du),
* scale function  S(x)  = int S'(u) du   (any anchor; only differences
  ever enter a law, so the anchor is a presentation choice),

and the speed density m'(x) = 2 / (sigma_sq(x) S'(x)).

Every model carries S' and S(b) - S(a) as two required array callables,
which ``scale_density``, ``scale_diff`` and ``scale`` call.  The catalog
kinds (bm, drifted_bm, gbm, ou) give them in closed form, along with
eigenfunction ratios where elementary ones exist and exact Gaussian
transition steps used by the Monte Carlo engine.  Custom models are
assembled from named coefficient forms and get both by quadrature.

``scale_ref`` is the normalization point where S' = 1; it is distinct
from the anchor of a ScaleMap, which only fixes where S vanishes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import erfi

from .errors import DomainError, NumericError, UnsupportedModelError, ValidationError

_MOD = "models"

# quadrature settings of the custom-model scale callables
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)

CATALOG_KINDS = ("bm", "drifted_bm", "gbm", "ou")


# ---------------------------------------------------------------------------
# support types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenRatios:
    """Closed-form ratios of the monotone eigenfunctions at level alpha.

    increasing(x, y) = g1(x)/g1(y) for the increasing solution g1 of
    (1/2) sigma_sq g'' + mu g' = alpha g, and decreasing(x, y) likewise
    for the decreasing solution g2.  Ratios avoid overflow for large
    arguments, which is all the hitting-time law needs.
    """

    increasing: Callable[[float, float], float]
    decreasing: Callable[[float, float], float]


@dataclass(frozen=True, eq=False)
class ExactStepSpec:
    """Exact Gaussian transition structure for the Monte Carlo engine.

    kind:
      * "arith"    sim coordinate is the state itself; step is
                   Y + mu_sim dt + sig_sim sqrt(dt) Z.
      * "loggauss" sim coordinate is log(state); same arithmetic step.
      * "ou"       sim coordinate is the state; exact AR(1) step
                   mean + (Y - mean) e^{-theta dt} + s(dt) Z.

    bridge_sig_sq is the (constant) local variance rate in the sim
    coordinate, used for Brownian-bridge crossing/extreme corrections.
    """

    kind: str
    mu_sim: float = 0.0
    sig_sq_sim: float = 1.0
    theta: float = 0.0
    mean: float = 0.0

    @property
    def bridge_sig_sq(self) -> float:
        return self.sig_sq_sim

    def to_sim(self, x):
        if self.kind == "loggauss":
            return np.log(x)
        return x

    def from_sim(self, y):
        if self.kind == "loggauss":
            return np.exp(y)
        return y


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Immutable bundle of coefficients and their scale structure.

    drift, diffusion_sq and the two required scale callables accept
    scalars or ndarrays.  ``scale_density_fn(x)`` is S' normalized to 1
    at scale_ref; ``scale_diff_fn(a, b)`` is S(b) - S(a), a and b
    broadcast, formed without subtracting two values of S, which cancel
    once both sit within an ulp of a bounded scale's limit.
    """

    model_id: str
    kind: str
    drift: Callable
    diffusion_sq: Callable
    interval: tuple[float, float]
    scale_density_fn: Callable
    scale_diff_fn: Callable
    a_in_state_space: bool = False
    scale_ref: float = 0.0
    params: dict = field(default_factory=dict)
    eig: Callable[[float], EigenRatios] | None = None
    exact_step: ExactStepSpec | None = None

    def contains(self, x) -> bool:
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        return bool(np.all((x > a) & (x < b)))

    def __repr__(self):  # params only; callables are noise
        return (f"DiffusionModel(id={self.model_id!r}, kind={self.kind!r}, "
                f"interval={self.interval}, params={self.params})")


# ---------------------------------------------------------------------------
# interval / reference helpers
# ---------------------------------------------------------------------------

def _as_endpoint(v, which):
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("-inf", "-infinity"):
            return -math.inf
        if s in ("inf", "+inf", "infinity", "+infinity"):
            return math.inf
        raise ValidationError(f"interval endpoint not understood: {v!r}",
                              operation="model_from_dict", value=v, module=_MOD)
    try:
        out = float(v)
    except (TypeError, ValueError):
        raise ValidationError(f"interval {which} endpoint must be a number or '-inf'/'inf'",
                              operation="model_from_dict", value=v, module=_MOD)
    if math.isnan(out):
        raise ValidationError("interval endpoint is NaN",
                              operation="model_from_dict", value=v, module=_MOD)
    return out


def _check_interval(interval):
    a, b = interval
    if not a < b:
        raise ValidationError("interval must satisfy A < B",
                              operation="interval", value=interval, module=_MOD)
    return float(a), float(b)


def _default_ref(interval):
    a, b = interval
    if math.isfinite(a) and math.isfinite(b):
        return 0.5 * (a + b)
    if math.isfinite(a):
        return a + 1.0
    if math.isfinite(b):
        return b - 1.0
    return 0.0


def _real(v, what, op):
    """v as a float; refuses bools, strings, None and non-finite values."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) \
            or not math.isfinite(v):
        raise ValidationError(f"{what} must be a finite number", operation=op,
                              value=v, module=_MOD)
    return float(v)


def _check_ref(ref, interval, kind):
    ref = _real(ref, "scale_ref", kind)
    a, b = interval
    if not (a < ref < b):
        raise ValidationError("scale_ref must lie inside the interval",
                              operation=kind, value=ref, module=_MOD)
    return ref


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def brownian(sigma_sq: float = 1.0, interval=(-math.inf, math.inf),
             scale_ref: float | None = None, model_id: str = "bm",
             a_in_state_space: bool = False) -> DiffusionModel:
    """Brownian motion with variance rate sigma_sq (natural scale)."""
    if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
        raise ValidationError("sigma_sq must be positive and finite",
                              operation="brownian", value=sigma_sq, module=_MOD)
    interval = _check_interval(interval)
    ref = _check_ref(scale_ref if scale_ref is not None else _default_ref(interval),
                     interval, "brownian")

    def eig(alpha):
        k = math.sqrt(2.0 * alpha / sigma_sq)
        return EigenRatios(
            increasing=lambda x, y: math.exp(k * (x - y)),
            decreasing=lambda x, y: math.exp(-k * (x - y)),
        )

    return DiffusionModel(
        model_id=model_id, kind="bm",
        drift=lambda x: 0.0 * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, a_in_state_space=a_in_state_space, scale_ref=ref,
        params={"sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        scale_diff_fn=lambda a, b: np.subtract(b, a, dtype=float),
        eig=eig,
        exact_step=ExactStepSpec(kind="arith", mu_sim=0.0, sig_sq_sim=sigma_sq),
    )


def drifted_brownian(mu: float, sigma_sq: float = 1.0,
                     interval=(-math.inf, math.inf), scale_ref: float | None = None,
                     model_id: str = "drifted_bm",
                     a_in_state_space: bool = False) -> DiffusionModel:
    """Brownian motion with constant drift mu and variance rate sigma_sq."""
    if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
        raise ValidationError("sigma_sq must be positive and finite",
                              operation="drifted_brownian", value=sigma_sq, module=_MOD)
    if not math.isfinite(mu):
        raise ValidationError("mu must be finite",
                              operation="drifted_brownian", value=mu, module=_MOD)
    if mu == 0.0:
        m = brownian(sigma_sq, interval, scale_ref, model_id, a_in_state_space)
        return m
    interval = _check_interval(interval)
    ref = _check_ref(scale_ref if scale_ref is not None else _default_ref(interval),
                     interval, "drifted_brownian")
    g = 2.0 * mu / sigma_sq  # S'(x) = exp(-g (x - ref))

    def scale_diff_fn(a, b):
        # S(b) - S(a) = S'(a) (1 - e^{-g (b-a)}) / g, exact deep in the
        # tail where S(a) and S(b) round to the same bound
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.exp(-g * (a - ref)) * (-np.expm1(-g * (b - a))) / g

    def eig(alpha):
        disc = math.sqrt(mu * mu + 2.0 * alpha * sigma_sq)
        r_up = (-mu + disc) / sigma_sq
        r_dn = (-mu - disc) / sigma_sq
        return EigenRatios(
            increasing=lambda x, y: math.exp(r_up * (x - y)),
            decreasing=lambda x, y: math.exp(r_dn * (x - y)),
        )

    return DiffusionModel(
        model_id=model_id, kind="drifted_bm",
        drift=lambda x: mu + 0.0 * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, a_in_state_space=a_in_state_space, scale_ref=ref,
        params={"mu": mu, "sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.exp(-g * (np.asarray(x, dtype=float) - ref)),
        scale_diff_fn=scale_diff_fn,
        eig=eig,
        exact_step=ExactStepSpec(kind="arith", mu_sim=mu, sig_sq_sim=sigma_sq),
    )


def geometric_brownian(mu_bar: float, sigma_bar_sq: float,
                       interval=(0.0, math.inf), scale_ref: float | None = None,
                       model_id: str = "gbm",
                       a_in_state_space: bool = False) -> DiffusionModel:
    """Geometric Brownian motion: drift mu_bar*x, diffusion sigma_bar_sq*x^2."""
    if not (sigma_bar_sq > 0 and math.isfinite(sigma_bar_sq)):
        raise ValidationError("sigma_bar_sq must be positive and finite",
                              operation="geometric_brownian", value=sigma_bar_sq, module=_MOD)
    if not math.isfinite(mu_bar):
        raise ValidationError("mu_bar must be finite",
                              operation="geometric_brownian", value=mu_bar, module=_MOD)
    interval = _check_interval(interval)
    if interval[0] < 0.0:
        raise ValidationError("gbm state space must sit inside ]0, inf[",
                              operation="geometric_brownian", value=interval, module=_MOD)
    ref = scale_ref if scale_ref is not None else (1.0 if interval[0] < 1.0 < interval[1]
                                                   else _default_ref(interval))
    ref = _check_ref(ref, interval, "geometric_brownian")
    p = 2.0 * mu_bar / sigma_bar_sq  # S'(x) = (x/ref)^(-p)

    def scale_diff_fn(a, b):
        # stable for b/a near 1 and for tails where the power values
        # S(a) and S(b) agree to rounding
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        q = 1.0 - p
        if q == 0.0:
            return ref * np.log1p((b - a) / a)
        return (ref / q) * (a / ref) ** q * np.expm1(q * np.log1p((b - a) / a))

    def eig(alpha):
        disc = math.sqrt((1.0 - p) ** 2 + 8.0 * alpha / sigma_bar_sq)
        q_up = 0.5 * ((1.0 - p) + disc)
        q_dn = 0.5 * ((1.0 - p) - disc)
        return EigenRatios(
            increasing=lambda x, y: (x / y) ** q_up,
            decreasing=lambda x, y: (x / y) ** q_dn,
        )

    return DiffusionModel(
        model_id=model_id, kind="gbm",
        drift=lambda x: mu_bar * np.asarray(x, dtype=float),
        diffusion_sq=lambda x: sigma_bar_sq * np.asarray(x, dtype=float) ** 2,
        interval=interval, a_in_state_space=a_in_state_space, scale_ref=ref,
        params={"mu_bar": mu_bar, "sigma_bar_sq": sigma_bar_sq},
        scale_density_fn=lambda x: (np.asarray(x, dtype=float) / ref) ** (-p),
        scale_diff_fn=scale_diff_fn,
        eig=eig,
        exact_step=ExactStepSpec(kind="loggauss",
                                 mu_sim=mu_bar - 0.5 * sigma_bar_sq,
                                 sig_sq_sim=sigma_bar_sq),
    )


def ornstein_uhlenbeck(theta: float, mean: float = 0.0, sigma_sq: float = 1.0,
                       interval=(-math.inf, math.inf), scale_ref: float | None = None,
                       model_id: str = "ou",
                       a_in_state_space: bool = False) -> DiffusionModel:
    """Ornstein-Uhlenbeck: drift -theta*(x - mean), constant diffusion."""
    if not (theta > 0 and math.isfinite(theta)):
        raise ValidationError("theta must be positive and finite",
                              operation="ornstein_uhlenbeck", value=theta, module=_MOD)
    if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
        raise ValidationError("sigma_sq must be positive and finite",
                              operation="ornstein_uhlenbeck", value=sigma_sq, module=_MOD)
    interval = _check_interval(interval)
    ref = scale_ref if scale_ref is not None else (mean if interval[0] < mean < interval[1]
                                                   else _default_ref(interval))
    ref = _check_ref(ref, interval, "ornstein_uhlenbeck")
    k = theta / sigma_sq  # S'(x) = exp(k ((x-mean)^2 - (ref-mean)^2))
    c0 = k * (ref - mean) ** 2
    sq = math.sqrt(k)
    # S(b) - S(a) = (sqrt(pi/k)/2) e^{-c0} (erfi(sq (b-mean)) - erfi(sq (a-mean)))
    pref = 0.5 * math.sqrt(math.pi / k) * math.exp(-c0)

    def scale_diff_fn(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return pref * (erfi(sq * (b - mean)) - erfi(sq * (a - mean)))

    return DiffusionModel(
        model_id=model_id, kind="ou",
        drift=lambda x: -theta * (np.asarray(x, dtype=float) - mean),
        diffusion_sq=lambda x: sigma_sq + 0.0 * np.asarray(x, dtype=float),
        interval=interval, a_in_state_space=a_in_state_space, scale_ref=ref,
        params={"theta": theta, "mean": mean, "sigma_sq": sigma_sq},
        scale_density_fn=lambda x: np.exp(k * ((np.asarray(x, dtype=float) - mean) ** 2
                                               - (ref - mean) ** 2)),
        scale_diff_fn=scale_diff_fn,
        eig=None,  # no elementary eigenfunctions; hitting uses a truncation box
        exact_step=ExactStepSpec(kind="ou", theta=theta, mean=mean, sig_sq_sim=sigma_sq),
    )


# ---------------------------------------------------------------------------
# custom models from named coefficient forms
# ---------------------------------------------------------------------------

def _build_form(doc, role):
    """Named coefficient forms; the only way to define custom coefficients.

    constant:  {"form": "constant", "value": c}
    affine:    {"form": "affine", "intercept": a, "slope": b}     a + b x
    power:     {"form": "power", "coef": c, "exponent": p}        c x^p
    quadratic: {"form": "quadratic", "c0": ., "c1": ., "c2": .}
    """
    if not isinstance(doc, dict) or "form" not in doc:
        raise ValidationError(f"{role} must be a dict with a 'form' key",
                              operation="custom_model", value=doc, module=_MOD)
    form = doc["form"]

    def num(key):
        if key not in doc:
            raise ValidationError(f"{role} form {form!r} is missing key {key!r}",
                                  operation="custom_model", value=doc, module=_MOD)
        return _real(doc[key], f"{role} {key!r}", "custom_model")

    if form == "constant":
        c = num("value")
        return lambda x: c + 0.0 * np.asarray(x, dtype=float)
    if form == "affine":
        a0, b0 = num("intercept"), num("slope")
        return lambda x: a0 + b0 * np.asarray(x, dtype=float)
    if form == "power":
        c, p = num("coef"), num("exponent")
        return lambda x: c * np.asarray(x, dtype=float) ** p
    if form == "quadratic":
        c0, c1, c2 = num("c0"), num("c1"), num("c2")
        return lambda x: (c0 + np.asarray(x, dtype=float)
                          * (c1 + c2 * np.asarray(x, dtype=float)))
    raise ValidationError(f"unknown coefficient form for {role}: {form!r}",
                          operation="custom_model", value=form, module=_MOD)


def custom_model(drift_form: dict, diffusion_sq_form: dict,
                 interval=(-math.inf, math.inf), scale_ref: float | None = None,
                 model_id: str = "custom",
                 a_in_state_space: bool = False) -> DiffusionModel:
    """Model from named coefficient forms; S and S' come from quadrature."""
    interval = _check_interval(interval)
    ref = _check_ref(scale_ref if scale_ref is not None else _default_ref(interval),
                     interval, "custom_model")
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

    def sprime(x):
        # exp(-int_ref^x 2 mu / sigma_sq), one adaptive quad per point
        def f(u):
            s2 = float(dsq(u))
            if not s2 > 0:
                raise NumericError("diffusion_sq non-positive on integration path",
                                   operation="scale_density", value=u, module=_MOD)
            return 2.0 * float(drift(u)) / s2

        val, err = integrate.quad(f, ref, x, **_QUAD_OPTS)
        if not math.isfinite(val):
            raise NumericError("log scale-density integral diverged",
                               operation="scale_density", value=x, module=_MOD)
        try:
            return math.exp(-val)
        except OverflowError:
            raise NumericError("scale density overflows", operation="scale_density",
                               value=x, module=_MOD) from None

    def diff(lo, hi):
        if lo == hi:
            return 0.0
        val, err = integrate.quad(sprime, lo, hi, **_QUAD_OPTS)
        if abs(err) > 1e-9 * max(1.0, abs(val)):
            raise NumericError("scale quadrature did not converge",
                               operation="scale", value=(lo, hi), module=_MOD,
                               partial=val)
        return val

    return DiffusionModel(
        model_id=model_id, kind="custom", drift=drift, diffusion_sq=dsq,
        interval=interval, a_in_state_space=a_in_state_space, scale_ref=ref,
        params={"drift": dict(drift_form), "diffusion_sq": dict(diffusion_sq_form)},
        scale_density_fn=np.vectorize(sprime, otypes=[float]),
        scale_diff_fn=np.vectorize(diff, otypes=[float]),
    )


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

_CONSTRUCTORS = {
    "bm": brownian,
    "drifted_bm": drifted_brownian,
    "gbm": geometric_brownian,
    "ou": ornstein_uhlenbeck,
}

_KIND_PARAMS = {
    "bm": {"sigma_sq"},
    "drifted_bm": {"mu", "sigma_sq"},
    "gbm": {"mu_bar", "sigma_bar_sq"},
    "ou": {"theta", "mean", "sigma_sq"},
}

_KIND_REQUIRED = {
    "bm": set(),
    "drifted_bm": {"mu"},
    "gbm": {"mu_bar", "sigma_bar_sq"},
    "ou": {"theta"},
}

_DOC_KEYS = {"kind", "params", "interval", "model_id", "a_in_state_space"}


def model_from_dict(doc: dict) -> DiffusionModel:
    """Build a model from the JSON interchange layout.

    {"model_id": str, "kind": "bm"|"drifted_bm"|"gbm"|"ou"|"custom",
     "params": {...}, "interval": [A, B] with "-inf"/"inf" sentinels,
     "a_in_state_space": bool}
    """
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object",
                              operation="model_from_dict", value=type(doc).__name__,
                              module=_MOD)
    kind = doc.get("kind")
    if kind not in (*CATALOG_KINDS, "custom"):
        raise ValidationError("model kind must be one of "
                              f"{(*CATALOG_KINDS, 'custom')}",
                              operation="model_from_dict", value=kind, module=_MOD)
    stray = sorted(set(doc) - _DOC_KEYS)
    if stray:
        raise ValidationError(f"unknown model keys {stray}; parameters go "
                              "inside 'params'", operation="model_from_dict",
                              value=stray, module=_MOD)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("params must be an object",
                              operation="model_from_dict", value=params, module=_MOD)
    raw_iv = doc.get("interval", ["-inf", "inf"] if kind != "gbm" else [0.0, "inf"])
    if not (isinstance(raw_iv, (list, tuple)) and len(raw_iv) == 2):
        raise ValidationError("interval must be a two-element array",
                              operation="model_from_dict", value=raw_iv, module=_MOD)
    interval = (_as_endpoint(raw_iv[0], "left"), _as_endpoint(raw_iv[1], "right"))
    model_id = doc.get("model_id", kind)
    if not isinstance(model_id, str) or not model_id:
        raise ValidationError("model_id must be a nonempty string",
                              operation="model_from_dict", value=model_id, module=_MOD)
    a_flag = doc.get("a_in_state_space", False)
    if not isinstance(a_flag, bool):
        raise ValidationError("a_in_state_space must be true or false",
                              operation="model_from_dict", value=a_flag, module=_MOD)

    if kind == "custom":
        for key in ("drift", "diffusion_sq"):
            if key not in params:
                raise ValidationError(f"custom model params must include {key!r}",
                                      operation="model_from_dict", value=sorted(params),
                                      module=_MOD)
        return custom_model(params["drift"], params["diffusion_sq"],
                            interval=interval,
                            scale_ref=params.get("scale_ref"),
                            model_id=model_id, a_in_state_space=a_flag)

    allowed = _KIND_PARAMS[kind] | {"scale_ref"}
    extra = set(params) - allowed
    if extra:
        raise ValidationError(f"unknown params for kind {kind!r}: {sorted(extra)}",
                              operation="model_from_dict", value=sorted(extra),
                              module=_MOD)
    missing = sorted(_KIND_REQUIRED[kind] - set(params))
    if missing:
        raise ValidationError(f"kind {kind!r} needs params {missing}",
                              operation="model_from_dict", value=missing,
                              module=_MOD)
    kwargs = {k: _real(v, f"params.{k}", "model_from_dict")
              for k, v in params.items()}
    return _CONSTRUCTORS[kind](interval=interval, model_id=model_id,
                               a_in_state_space=a_flag, **kwargs)


def model_from_json(text: str) -> DiffusionModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"model JSON is malformed at line {e.lineno} col {e.colno}: "
                              f"{e.msg}", operation="model_from_json", module=_MOD)
    return model_from_dict(doc)


# ---------------------------------------------------------------------------
# scale machinery
# ---------------------------------------------------------------------------

def _require_interior(model, x, op):
    a, b = model.interval
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return
    if not np.all(np.isfinite(arr)):
        raise DomainError("point must be finite", operation=op,
                          value=x, module=_MOD)
    if not (np.all(arr > a) and np.all(arr < b)):
        bad = arr[~((arr > a) & (arr < b))]
        raise DomainError(f"point outside open interval ]{a}, {b}[",
                          operation=op,
                          value=float(np.atleast_1d(bad)[0]), module=_MOD)


def scale_density(model: DiffusionModel, x):
    """S'(x), normalized so S'(scale_ref) = 1.  Takes arrays; a float
    for scalar x.  A density that overflows or is otherwise not finite
    raises NumericError."""
    _require_interior(model, x, "scale_density")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(model.scale_density_fn(x), dtype=float)
    if not np.isfinite(out).all():
        i = np.flatnonzero(~np.isfinite(out))[0]
        raise NumericError("scale density is not finite", operation="scale_density",
                           value=float(np.asarray(x, dtype=float).flat[i]), module=_MOD)
    return float(out) if out.ndim == 0 else out


def scale_diff(model: DiffusionModel, a, b):
    """S(b) - S(a): the only way scale values enter any law.

    a and b broadcast against each other; a float when both are
    scalars.  A difference that overflows or is otherwise not finite
    raises NumericError.
    """
    _require_interior(model, a, "scale")
    _require_interior(model, b, "scale")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(model.scale_diff_fn(a, b), dtype=float)
    bad = ~np.isfinite(out)
    if np.any(bad):
        pa, pb = np.broadcast_arrays(a, b)
        i = np.flatnonzero(bad)[0]
        raise NumericError("scale difference is not finite", operation="scale",
                           value=(float(pa.flat[i]), float(pb.flat[i])),
                           module=_MOD)
    return float(out) if out.ndim == 0 else out


def scale(model: DiffusionModel, x, anchor: float | None = None):
    """S(x) - S(anchor); anchor defaults to the model's scale_ref."""
    return scale_diff(model, model.scale_ref if anchor is None else anchor, x)


@dataclass(frozen=True, eq=False)
class ScaleMap:
    """Scale function S with a chosen zero.  Re-anchoring shifts values by
    a constant and leaves the density untouched."""

    model: DiffusionModel
    anchor: float

    def __post_init__(self):
        _require_interior(self.model, self.anchor, "ScaleMap")

    def __call__(self, x):
        return scale(self.model, x, anchor=self.anchor)

    def density(self, x):
        return scale_density(self.model, x)


@dataclass(frozen=True, eq=False)
class SpeedDensity:
    """m'(x) = 2 / (sigma_sq(x) S'(x))."""

    model: DiffusionModel

    def __call__(self, x):
        _require_interior(self.model, x, "SpeedDensity")
        s2 = self.model.diffusion_sq(x)
        arr = np.asarray(s2, dtype=float)
        if not np.all(arr > 0):
            raise NumericError("diffusion_sq non-positive",
                               operation="SpeedDensity", value=x, module=_MOD)
        out = 2.0 / (arr * np.asarray(scale_density(self.model, x), dtype=float))
        return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# query validation
# ---------------------------------------------------------------------------

def validate_query(model: DiffusionModel, x: float, delta: float) -> None:
    """Reject (x, delta) pairs whose drawdown law is not well posed.

    Needs x interior and x - delta strictly above the left endpoint, so
    that every drawdown window [z - delta, z] for z >= x stays inside
    the state space.
    """
    a, b = model.interval
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta > 0):
        raise ValidationError("delta must be a positive finite number",
                              operation="validate_query", value=delta, module=_MOD)
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValidationError("x must be finite", operation="validate_query",
                              value=x, module=_MOD)
    if not (a < x < b):
        raise DomainError(f"start x outside open interval ]{a}, {b}[",
                          operation="validate_query", value=x, module=_MOD)
    if not (x - delta > a):
        raise DomainError("x - delta must lie strictly above the left endpoint; "
                          "the first drawdown window would leave the state space",
                          operation="validate_query", value=x - delta, module=_MOD)
