"""Laws of the drawdown time and its running maximum.

For a regular diffusion X with running maximum M, the drawdown time is
tau = inf{t : X_t = M_t - delta}.  Everything here reduces to three
scalar functions of the level z, each formed from a local solution
basis on the window [z - delta, z]:

    nu(z)   mass of excursions below the running maximum at z that
            reach depth delta; the survival rate of the maximum,
    b(z)    the same mass discounted by e^{-alpha T} at the time the
            depth is reached,
    chat(z) total exponent intensity: nu plus the discounting cost of
            the excursions that end before reaching depth delta.

The transform of (tau, M_tau) is an integral over the terminal level y
of  exp(-beta y - int_x^y chat dS) b(y) dS(y);  the M_tau law alone is
the alpha = 0 case, where b = chat = nu and the integral telescopes.

Quadrature runs in a mass coordinate: levels are placed so each step
carries equal increments of int nu dS + beta dy, which concentrates
nodes exactly where the integrand still has weight, and the outer
integral is evaluated segmentwise as exp(-t) times a cubic, which is
exact for the dominant exponential decay.  Numbers degrade gracefully:
transforms too small for double precision underflow to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.interpolate import CubicSpline, PchipInterpolator

from . import invlap
from .basis import OdeSettings, batch_endpoints
from .errors import (DegenerateBasisError, DomainError, NumericError,
                     UnsupportedModelError, ValidationError)
from .models import DiffusionModel, scale_density, scale_diff, validate_query

_MOD = "laws"

# survival mass at which the outer integral is cut; the remaining
# contribution is below 1e-14 of the value scale and is reported
_MASS_CUT = -math.log(1e-14)

_GL_X, _GL_W = leggauss(7)


# ---------------------------------------------------------------------------
# query and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrawdownQuery:
    """Start point, depth and transform arguments for the drawdown laws.

    alpha discounts time, beta discounts the terminal level of the
    running maximum; either may be zero.  tol is the relative target
    for the quadrature layers (the ODE layer runs tighter).
    """

    x: float
    delta: float
    alpha: float = 0.0
    beta: float = 0.0
    tol: float = 1e-9

    def __post_init__(self):
        for name, v, lo in (("alpha", self.alpha, 0.0), ("beta", self.beta, 0.0)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= lo):
                raise ValidationError(f"{name} must be finite and >= 0",
                                      operation="DrawdownQuery", value=v,
                                      module=_MOD)
        if not (0.0 < self.tol <= 1e-2):
            raise ValidationError("tol must lie in ]0, 1e-2]",
                                  operation="DrawdownQuery", value=self.tol,
                                  module=_MOD)


@dataclass(frozen=True)
class TransformResult:
    """Value of a drawdown transform with its error bookkeeping.

    value is E^x[exp(-alpha tau - beta M_tau); tau finite].  It lies in
    [0, 1] whenever beta * x >= 0; a start below zero with beta > 0
    legitimately raises the cap to e^(-beta x).  abs_error_estimate
    combines the truncation remainder bound, the last grid-doubling
    change, and an allowance for the ODE layer; truncation_point is
    the level where the outer integral was cut.
    """

    value: float
    abs_error_estimate: float
    truncation_point: float

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValidationError("value must be finite and >= 0",
                                  operation="TransformResult", value=self.value,
                                  module=_MOD)
        if not (self.abs_error_estimate >= 0.0):
            raise ValidationError("abs_error_estimate must be >= 0",
                                  operation="TransformResult",
                                  value=self.abs_error_estimate, module=_MOD)


@dataclass(frozen=True, eq=False)
class TailCurve:
    """Law of M_tau on a grid: tail P^x[M_tau > y] and its density."""

    x: float
    delta: float
    grid: np.ndarray
    tail: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if np.any(self.tail < -1e-12) or np.any(self.tail > 1.0 + 1e-12):
            raise NumericError("tail left [0, 1]", operation="TailCurve",
                               module=_MOD)
        if np.any(np.diff(self.tail) > 1e-12):
            raise NumericError("tail must be non-increasing",
                               operation="TailCurve", module=_MOD)


# ---------------------------------------------------------------------------
# the three level functions
# ---------------------------------------------------------------------------

def _check_window(model, z, delta, op):
    a, b = model.interval
    if not (isinstance(z, (int, float)) and math.isfinite(z)):
        raise ValidationError("level must be finite", operation=op, value=z,
                              module=_MOD)
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta > 0):
        raise ValidationError("delta must be positive and finite",
                              operation=op, value=delta, module=_MOD)
    if not (z < b):
        raise DomainError("level must be interior", operation=op, value=z,
                          module=_MOD)
    if not (z - delta > a):
        raise DomainError("z - delta must lie strictly above the left endpoint",
                          operation=op, value=z - delta, module=_MOD)


def nu(model: DiffusionModel, z: float, delta: float) -> float:
    """Excursion mass 1 / (S(z) - S(z - delta)); diverges as delta -> 0."""
    _check_window(model, z, delta, "nu")
    return 1.0 / scale_diff(model, z - delta, z)


def _nu_sp(model, z, delta):
    """nu(z) * S'(z): the survival-rate integrand in the level variable.

    Takes arrays of levels; a float for scalar z.  Constant-coefficient
    kinds get the z-free closed form; far in the tail the generic ratio
    would divide one underflowed quantity by another.
    """
    if model.kind == "bm":
        rate = 1.0 / delta
    elif model.kind == "drifted_bm":
        g = 2.0 * model.params["mu"] / model.params["sigma_sq"]
        rate = g / math.expm1(g * delta)
    else:
        return scale_density(model, z) / scale_diff(model, z - delta, z)
    return rate if np.ndim(z) == 0 else np.full(np.shape(z), rate)


def _settings_for(tol: float) -> OdeSettings:
    # one decade tighter than the quadrature target, kept inside
    # [1e-12, 1e-6] so loose requests still get a certified basis
    rel = min(max(tol / 10.0, 1e-12), 1e-6)
    return OdeSettings(rel_tol=rel, abs_tol=rel / 100.0)


def _endpoint_quotients(ep, windows, op):
    """(b, chat) true-scale from batched window endpoints."""
    scale = np.maximum(np.abs(ep.u_r), np.abs(ep.up_r) * windows)
    bad = ~np.isfinite(ep.u_r) | (np.abs(ep.u_r) < 1e-13 * scale)
    if np.any(bad):
        raise DegenerateBasisError(
            "vanishing solution lost all accuracy at the window top; "
            "delta is too large for this window or alpha is extreme",
            operation=op, value=float(np.asarray(windows)[bad][0]), module=_MOD)
    with np.errstate(under="ignore"):
        b = np.exp(-ep.lam) / ep.u_r
    chat = ep.up_r / (ep.u_r * ep.sprime_r)
    return b, chat


def b_factor(model: DiffusionModel, z: float, delta: float, alpha: float,
             settings: OdeSettings | None = None) -> float:
    """Discounted mass of delta-deep excursions at level z.

    Equals nu(z) at alpha = 0 (enforced exactly) and decreases in
    alpha.  Computed as 1 / u(z) from the window basis, which is
    invariant under basis recombination.
    """
    _check_window(model, z, delta, "b_factor")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha >= 0):
        raise ValidationError("alpha must be finite and >= 0",
                              operation="b_factor", value=alpha, module=_MOD)
    if alpha == 0.0:
        return nu(model, z, delta)
    ep = batch_endpoints(model, alpha, np.array([z - delta]), np.array([z]),
                         settings or _settings_for(1e-9))
    b, _ = _endpoint_quotients(ep, np.array([delta]), "b_factor")
    return float(b[0])


def c_hat(model: DiffusionModel, z: float, delta: float, alpha: float,
          settings: OdeSettings | None = None) -> float:
    """Total exponent intensity at level z: survival mass plus the
    discounting cost of excursions that die above depth delta.

    Equals nu(z) at alpha = 0 and dominates both nu and b_factor for
    alpha > 0; the run-up-only intensity is c_hat - nu.
    """
    _check_window(model, z, delta, "c_hat")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha >= 0):
        raise ValidationError("alpha must be finite and >= 0",
                              operation="c_hat", value=alpha, module=_MOD)
    if alpha == 0.0:
        return nu(model, z, delta)
    ep = batch_endpoints(model, alpha, np.array([z - delta]), np.array([z]),
                         settings or _settings_for(1e-9))
    _, chat = _endpoint_quotients(ep, np.array([delta]), "c_hat")
    return float(chat[0])


# ---------------------------------------------------------------------------
# M_tau law (alpha-free: pure scale quadrature)
# ---------------------------------------------------------------------------

def _survival_exponent(model, x, y, delta, tol):
    """int_x^y nu dS by adaptive quadrature in the level variable."""
    if y == x:
        return 0.0
    res = integrate.quad(lambda z: _nu_sp(model, z, delta), x, y,
                         epsabs=1e-13, epsrel=tol, limit=200, full_output=1)
    val, err = res[0], res[1]
    if err > max(10.0 * tol * abs(val), 1e-10):
        raise NumericError("survival quadrature did not converge",
                           operation="max_tail", value=(x, y), module=_MOD,
                           partial=math.exp(-val))
    return float(val)


def max_tail(model: DiffusionModel, query: DrawdownQuery, y: float) -> float:
    """P^x[M_tau > y] = exp(-int_x^y nu dS)."""
    validate_query(model, query.x, query.delta)
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y >= query.x):
        raise ValidationError("y must be finite and >= x", operation="max_tail",
                              value=y, module=_MOD)
    _check_window(model, y, query.delta, "max_tail")
    if y == query.x:
        return 1.0
    with np.errstate(under="ignore"):
        return float(math.exp(-_survival_exponent(model, query.x, y,
                                                  query.delta, query.tol)))


def max_density(model: DiffusionModel, query: DrawdownQuery, y: float) -> float:
    """Density of M_tau at y: nu(y) S'(y) exp(-int_x^y nu dS).

    Integrates to 1 minus the defect exp(-int_x^B nu dS), the
    probability that the drawdown never completes.
    """
    validate_query(model, query.x, query.delta)
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > query.x):
        raise ValidationError("y must be finite and > x", operation="max_density",
                              value=y, module=_MOD)
    _check_window(model, y, query.delta, "max_density")
    return _nu_sp(model, y, query.delta) * max_tail(model, query, y)


def tail_curve(model: DiffusionModel, query: DrawdownQuery, grid) -> TailCurve:
    """Tail and density of M_tau along an increasing grid of levels."""
    validate_query(model, query.x, query.delta)
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)):
        raise ValidationError("grid must be a finite 1d array",
                              operation="tail_curve", value=g.shape, module=_MOD)
    if np.any(np.diff(g) <= 0) or g[0] < query.x:
        raise ValidationError("grid must be strictly increasing with grid[0] >= x",
                              operation="tail_curve", module=_MOD)
    _check_window(model, float(g[-1]), query.delta, "tail_curve")
    exps = np.empty(g.size)
    prev_y, acc = query.x, 0.0
    for i, y in enumerate(g):
        acc += _survival_exponent(model, prev_y, float(y), query.delta, query.tol)
        exps[i] = acc
        prev_y = float(y)
    with np.errstate(under="ignore"):
        tail = np.exp(-exps)
        dens = _nu_sp(model, g, query.delta) * tail
    return TailCurve(x=query.x, delta=query.delta, grid=g, tail=tail,
                     density=dens)


# ---------------------------------------------------------------------------
# mass-coordinate machinery for the transforms
# ---------------------------------------------------------------------------

def _march_mass(model, x, delta, beta, mass_cap, y_stop=None):
    """Cumulative tables of N = int nu dS and Q = N + beta (y - x).

    Marches right from x in steps sized to carry about half a unit of
    combined mass each, until N reaches mass_cap, y reaches y_stop, or
    the state space ends.  Node placement and truncation both read off
    these tables; the transform's own accuracy does not, so the
    fixed-order step rule needs no refinement loop.  Returns
    (levels, N, Q, hit_boundary); hit_boundary records that the march
    ran into a finite upper endpoint rather than the mass cap.
    """
    bnd = model.interval[1]
    ys, Ns, Qs = [x], [0.0], [0.0]
    y, N, Q = x, 0.0, 0.0
    h_prev = None
    for _ in range(200000):
        if N >= mass_cap or (y_stop is not None and y >= y_stop):
            break
        rate = _nu_sp(model, y, delta) + beta
        h = 0.5 / max(rate, 1e-300)
        if h_prev is not None:
            h = min(h, 3.0 * h_prev)
        h = max(h, 1e-12 * max(1.0, abs(y)))
        if y_stop is not None:
            h = min(h, y_stop - y)
        last = False
        if math.isfinite(bnd) and y + h >= bnd - 1e-12 * (bnd - x):
            h = (bnd - y) * (1.0 - 1e-12)
            last = True
        for _ in range(60):
            mid = y + 0.5 * h
            pts = mid + 0.5 * h * _GL_X
            dN = 0.5 * h * float(np.dot(_GL_W, _nu_sp(model, pts, delta)))
            if dN <= 1.0 or h <= 1e-13 * max(1.0, abs(y)):
                break
            h *= 0.5
            last = False
        y += h
        N += dN
        Q += dN + beta * h
        ys.append(y)
        Ns.append(N)
        Qs.append(Q)
        h_prev = h
        if last:
            return np.asarray(ys), np.asarray(Ns), np.asarray(Qs), True
    else:
        raise NumericError("mass march exceeded its step budget",
                           operation="transform", value=y, module=_MOD)
    return np.asarray(ys), np.asarray(Ns), np.asarray(Qs), False


def _nodes_from_table(ys, Qs, nseg):
    """nseg+1 levels carrying equal increments of the combined mass."""
    targets = np.linspace(0.0, Qs[-1], nseg + 1)
    nodes = PchipInterpolator(Qs, ys)(targets)
    nodes[0], nodes[-1] = ys[0], ys[-1]
    if np.any(np.diff(nodes) <= 0):
        raise NumericError("mass inversion produced a non-increasing mesh",
                           operation="transform", module=_MOD)
    return nodes


def _node_values(model, nodes, delta, alpha, settings, cache):
    """(nu, b, chat, S') at each node, memoized across mesh doublings."""
    missing = [float(y) for y in nodes if float(y) not in cache]
    if missing:
        arr = np.asarray(missing)
        sps = scale_density(model, arr)
        nu_vals = 1.0 / scale_diff(model, arr - delta, arr)
        if alpha == 0.0:
            b_vals, c_vals = nu_vals, nu_vals
        else:
            try:
                ep = batch_endpoints(model, alpha, arr - delta, arr, settings)
            except NumericError as exc:
                raise NumericError(
                    f"window solve failed inside the transform for levels in "
                    f"[{arr.min():g}, {arr.max():g}]: {exc}",
                    operation="transform", value=float(arr.min()),
                    module=_MOD) from exc
            b_vals, c_vals = _endpoint_quotients(
                ep, np.full(arr.shape, delta), "transform")
        for y, nv, bv, cv, sp in zip(missing, nu_vals, b_vals, c_vals, sps):
            cache[y] = (float(nv), float(bv), float(cv), float(sp))
    out = np.array([cache[float(y)] for y in nodes])
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3]


def _int_exp_cubic(t, g):
    """int exp(-t) g(t) dt over [t[0], t[-1]], g the cubic spline of the
    samples; exact per segment by integrating the cubic against the
    exponential in closed form."""
    cs = CubicSpline(t, g)
    c0, c1, c2, c3 = cs.c
    # q = p + p' + p'' + p''' turns the integrand into an exact derivative
    q3 = c0
    q2 = c1 + 3.0 * c0
    q1 = c2 + 2.0 * c1 + 6.0 * c0
    q0 = c3 + c2 + 2.0 * c1 + 6.0 * c0
    dt = np.diff(t)
    qa = q0
    qb = ((q3 * dt + q2) * dt + q1) * dt + q0
    with np.errstate(under="ignore"):
        seg = np.exp(-t[:-1]) * qa - np.exp(-t[1:]) * qb
    return math.fsum(seg.tolist())


def _transform_core(model, query, role_swap, tables=None):
    validate_query(model, query.x, query.delta)
    x, delta = query.x, query.delta
    alpha, beta, tol = query.alpha, query.beta, query.tol
    settings = _settings_for(tol)

    if tables is None:
        tables = _march_mass(model, x, delta, beta, _MASS_CUT)
    ys, Ns, Qs, hit_b = tables
    y_star, n_star = float(ys[-1]), float(Ns[-1])
    with np.errstate(under="ignore", over="ignore"):
        remainder = math.exp(min(-beta * y_star - n_star, 50.0))
    if hit_b:
        # the march covered the whole state space up to a relative
        # 1e-12 margin; only that strip's mass is missing (assumes the
        # survival rate stays of one magnitude across the margin)
        margin = model.interval[1] - y_star
        remainder *= min(1.0, 4.0 * _nu_sp(model, y_star, delta) * margin)

    cache = {}
    prev = None
    nseg = 64
    value = None
    while nseg <= 65536:
        nodes = _nodes_from_table(ys, Qs, nseg)
        nu_v, b_v, c_v, sp_v = _node_values(model, nodes, delta, alpha,
                                            settings, cache)
        if role_swap:
            expo = b_v * sp_v
            outside = np.maximum(c_v - nu_v, 0.0) * sp_v
        else:
            expo = c_v * sp_v
            outside = b_v * sp_v
        inner = CubicSpline(nodes, expo).antiderivative()(nodes)
        J = beta * (nodes - x) + inner
        if np.any(np.diff(J) <= 0):
            nseg *= 2
            prev = None
            continue
        psi = outside / (beta + expo)
        with np.errstate(under="ignore"):
            value = math.exp(-beta * x) * _int_exp_cubic(J, psi)
        if prev is not None and abs(value - prev) <= (tol / 10.0) * max(
                abs(value), 1e-300):
            break
        prev = value
        nseg *= 2
    else:
        raise NumericError("transform mesh refinement exceeded its budget",
                           operation="transform", value=nseg, module=_MOD,
                           partial=value)

    abs_err = remainder + abs(value - prev) + 1e-12 * abs(value)
    cap = min(1.0, math.exp(-beta * x)) if beta * x >= 0 else math.exp(-beta * x)
    if value < 0.0:
        abs_err += -value
        value = 0.0
    elif value > cap:
        abs_err += value - cap
        value = cap
    return TransformResult(value=value, abs_error_estimate=abs_err,
                           truncation_point=y_star)


def joint_transform(model: DiffusionModel,
                    query: DrawdownQuery) -> TransformResult:
    """E^x[exp(-alpha tau - beta M_tau); tau finite].

    At alpha = beta = 0 this is the probability the drawdown ever
    completes.  The outer integral is truncated where the survival
    mass falls below 1e-14; the exact bound for the discarded piece is
    part of abs_error_estimate.
    """
    return _transform_core(model, query, role_swap=False)


def _role_swapped_transform(model: DiffusionModel,
                            query: DrawdownQuery) -> TransformResult:
    """Diagnostic variant with the exponent and prefactor exchanged:
    exponent integrand b, outside factor chat - nu.

    Kept because the small-alpha limit separates the two possible role
    assignments unambiguously: the implemented orientation tends to
    the total drawdown probability, this exchanged form tends to 0.
    Not part of the public law surface.
    """
    return _transform_core(model, query, role_swap=True)


# ---------------------------------------------------------------------------
# conditional and run-up transforms
# ---------------------------------------------------------------------------

def _runup_exponent(model, x, ys_eval, delta, alpha, tol):
    """R(y) = int_x^y (chat - nu) dS at each requested level."""
    ys_eval = np.asarray(ys_eval, dtype=float)
    if alpha == 0.0:
        return np.zeros(ys_eval.shape)
    settings = _settings_for(tol)
    ymax = float(ys_eval.max())
    if ymax == x:
        return np.zeros(ys_eval.shape)
    ys, Ns, _, _ = _march_mass(model, x, delta, 0.0, math.inf, y_stop=ymax)
    cache = {}
    prev = None
    nseg = 32
    while nseg <= 65536:
        nodes = _nodes_from_table(ys, Ns, nseg)
        nu_v, b_v, c_v, sp_v = _node_values(model, nodes, delta, alpha,
                                            settings, cache)
        rho = np.maximum(c_v - nu_v, 0.0) * sp_v
        R = CubicSpline(nodes, rho).antiderivative()(ys_eval)
        if prev is not None and np.max(np.abs(R - prev)) <= (tol / 10.0) * (
                1.0 + float(np.max(np.abs(R)))):
            return R
        prev = R
        nseg *= 2
    raise NumericError("run-up mesh refinement exceeded its budget",
                       operation="run_up_transform", value=nseg, module=_MOD)


def run_up_transform(model: DiffusionModel, x: float, y: float, delta: float,
                     alpha: float, tol: float = 1e-9) -> float:
    """Cost of climbing from x to y without completing the drawdown:
    exp(-int_x^y (chat - nu) dS), in ]0, 1], equal to 1 at alpha = 0."""
    query = DrawdownQuery(x=x, delta=delta, alpha=alpha, tol=tol)
    validate_query(model, x, delta)
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > x):
        raise ValidationError("y must be finite and > x",
                              operation="run_up_transform", value=y, module=_MOD)
    _check_window(model, y, delta, "run_up_transform")
    r = _runup_exponent(model, x, np.array([y]), delta, query.alpha, tol)
    return float(np.exp(-r[0]))


def conditional_curve(model: DiffusionModel, query: DrawdownQuery,
                      ys) -> np.ndarray:
    """E^x[e^{-alpha tau} | M_tau = y] along an array of levels y > x."""
    validate_query(model, query.x, query.delta)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size == 0 or not np.all(np.isfinite(ys)):
        raise ValidationError("levels must be a finite 1d array",
                              operation="conditional_curve", module=_MOD)
    if not np.all(ys > query.x):
        raise ValidationError("levels must exceed x",
                              operation="conditional_curve", module=_MOD)
    _check_window(model, float(ys.max()), query.delta, "conditional_curve")
    R = _runup_exponent(model, query.x, ys, query.delta, query.alpha, query.tol)
    if query.alpha == 0.0:
        return np.ones(ys.shape)
    ep = batch_endpoints(model, query.alpha, ys - query.delta, ys,
                         _settings_for(query.tol))
    b_v, _ = _endpoint_quotients(ep, np.full(ys.shape, query.delta),
                                 "conditional_curve")
    nu_v = 1.0 / scale_diff(model, ys - query.delta, ys)
    with np.errstate(under="ignore"):
        out = np.exp(-R) * b_v / nu_v
    return np.clip(out, 0.0, 1.0)


def conditional_laplace(model: DiffusionModel, query: DrawdownQuery,
                        y: float) -> float:
    """E^x[e^{-alpha tau} | M_tau = y]: the run-up cost to y times the
    conditional depth-completion discount b(y) / nu(y)."""
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValidationError("y must be finite", operation="conditional_laplace",
                              value=y, module=_MOD)
    return float(conditional_curve(model, query, np.array([y]))[0])


# ---------------------------------------------------------------------------
# hitting and exit transforms
# ---------------------------------------------------------------------------

def _interior(model, v, op):
    a, b = model.interval
    if not (isinstance(v, (int, float)) and math.isfinite(v) and a < v < b):
        raise DomainError("point must be interior", operation=op, value=v,
                          module=_MOD)


def _psi_ratio(model, alpha, l, r, settings, op):
    """u_[l0, r0](r0) / u_[l1, r1](r1), from one solve of both windows;
    exit_transform states the identity behind it.  At alpha = 0,
    u_[l, r](r) = S(r) - S(l)."""
    if alpha == 0.0:
        return scale_diff(model, l[0], r[0]) / scale_diff(model, l[1], r[1])
    ep = batch_endpoints(model, alpha, np.asarray(l, dtype=float),
                         np.asarray(r, dtype=float), settings)
    if not np.all(np.isfinite(ep.u_r) & (ep.u_r > 0.0)):
        raise DegenerateBasisError("window endpoint value is not finite and "
                                   "positive", operation=op, value=(l, r),
                                   module=_MOD)
    return math.exp(math.log(ep.u_r[0]) - math.log(ep.u_r[1])
                    + ep.lam[0] - ep.lam[1])


def _truncated_hit(model, x, y, alpha, lo, hi, settings):
    """One-sided hitting transform with the far end absorbing at the
    box edge."""
    l, r = ([lo, lo], [x, y]) if x < y else ([x, y], [hi, hi])
    return _psi_ratio(model, alpha, l, r, settings, "hitting_laplace")


def hitting_laplace(model: DiffusionModel, x: float, y: float, alpha: float,
                    box: tuple[float, float] | None = None,
                    full_output: bool = False):
    """E^x[e^{-alpha T_y}] for the first passage to level y.

    Catalog models with closed-form extreme solutions evaluate the
    exact ratio.  Otherwise a truncation box (lo, hi) bracketing x and
    y must be given: the transform is computed with an absorbing end
    pushed to the box edge, re-solved on an enlarged box, and the
    difference reported as the truncation sensitivity (full_output
    returns the (value, sensitivity) pair).

    On a box the transform is a ratio of one solution at two points
    (Borodin & Salminen, Handbook of Brownian Motion, II.10).  As in
    exit_transform, downward it is psi(x) / psi(y) with psi vanishing at
    hi, that is u_[x, hi](hi) / u_[y, hi](hi); upward it is
    u_[lo, x](x) / u_[lo, y](y).  Each is one two-window solve.
    """
    _interior(model, x, "hitting_laplace")
    _interior(model, y, "hitting_laplace")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)
            and alpha >= 0):
        raise ValidationError("alpha must be finite and >= 0",
                              operation="hitting_laplace", value=alpha,
                              module=_MOD)
    if x == y:
        return (1.0, 0.0) if full_output else 1.0
    if model.eig is not None:
        ratios = model.eig(alpha)
        val = ratios.increasing(x, y) if x < y else ratios.decreasing(x, y)
        val = min(float(val), 1.0)
        return (val, 0.0) if full_output else val
    if box is None:
        raise UnsupportedModelError(
            "no closed-form extreme solutions for this model; supply a "
            "truncation box (lo, hi) bracketing x and y",
            operation="hitting_laplace", value=model.model_id, module=_MOD)
    lo, hi = float(box[0]), float(box[1])
    _interior(model, lo, "hitting_laplace")
    _interior(model, hi, "hitting_laplace")
    if not (lo < min(x, y) and hi > max(x, y)):
        raise ValidationError("box must strictly bracket x and y",
                              operation="hitting_laplace", value=(lo, hi),
                              module=_MOD)
    settings = _settings_for(1e-9)
    v1 = _truncated_hit(model, x, y, alpha, lo, hi, settings)
    a, b = model.interval
    lo2 = a + (lo - a) / 4.0 if math.isfinite(a) else 2.0 * lo - min(x, y)
    hi2 = b - (b - hi) / 4.0 if math.isfinite(b) else 2.0 * hi - max(x, y)
    v2 = _truncated_hit(model, x, y, alpha, lo2, hi2, settings)
    val = min(max(v2, 0.0), 1.0)
    sens = abs(v2 - v1)
    return (val, sens) if full_output else val


def exit_probability(model: DiffusionModel, x: float, a: float,
                     bnd: float) -> float:
    """P^x(T_a < T_bnd) = (S(bnd) - S(x)) / (S(bnd) - S(a))."""
    _interior(model, a, "exit_probability")
    _interior(model, bnd, "exit_probability")
    _interior(model, x, "exit_probability")
    if not (a < x < bnd):
        raise ValidationError("need a < x < bnd", operation="exit_probability",
                              value=(a, x, bnd), module=_MOD)
    return scale_diff(model, x, bnd) / scale_diff(model, a, bnd)


def exit_transform(model: DiffusionModel, x: float, a: float, bnd: float,
                   alpha: float, settings: OdeSettings | None = None) -> float:
    """E^x[e^{-alpha T_a}; T_a < T_bnd] = psi(x) / psi(a).

    psi is the solution vanishing at bnd.  Every window [l, r] pins the
    scale Wronskian of its basis (u, v) to +1, so v(r) u - u(r) v is
    psi with psi'(bnd) = S'(bnd) for any l, and psi(l) = -u_[l, bnd](bnd).
    The value is u_[x, bnd](bnd) / u_[a, bnd](bnd), a quotient of two
    right-end values from one solve of the windows [x, bnd] and [a, bnd];
    at alpha = 0 it is exit_probability.
    """
    _interior(model, a, "exit_transform")
    _interior(model, bnd, "exit_transform")
    _interior(model, x, "exit_transform")
    if not (a < x < bnd):
        raise ValidationError("need a < x < bnd", operation="exit_transform",
                              value=(a, x, bnd), module=_MOD)
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)
            and alpha >= 0):
        raise ValidationError("alpha must be finite and >= 0",
                              operation="exit_transform", value=alpha,
                              module=_MOD)
    val = _psi_ratio(model, alpha, [x, a], [bnd, bnd],
                     settings or _settings_for(1e-9), "exit_transform")
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# CDF of tau by Laplace inversion
# ---------------------------------------------------------------------------

def tau_cdf(model: DiffusionModel, query: DrawdownQuery, t_grid,
            full_output: bool = False):
    """P^x(tau <= t) on a time grid, by Gaver-Stehfest inversion of
    alpha -> joint_transform(alpha, beta=0) / alpha.

    Values are clipped to [0, 1] and made non-decreasing by isotonic
    projection.  Accuracy is limited by the inversion scheme (roughly
    1e-5 relative at best; see the invlap module); each entry of the
    full output reports the order-sweep disagreement, flagged unstable
    above 1e-4.
    """
    validate_query(model, query.x, query.delta)
    if query.beta != 0.0:
        raise ValidationError("tau_cdf requires beta = 0",
                              operation="tau_cdf", value=query.beta, module=_MOD)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise ValidationError("t_grid must be a finite 1d array",
                              operation="tau_cdf", module=_MOD)
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValidationError("t_grid must be positive and strictly increasing",
                              operation="tau_cdf", module=_MOD)

    # the mass tables depend on (x, delta) only, not on alpha: march once
    tables = _march_mass(model, query.x, query.delta, 0.0, _MASS_CUT)

    def transform(a):
        q = replace(query, alpha=float(a), beta=0.0)
        return _transform_core(model, q, role_swap=False, tables=tables).value / float(a)

    raw = []
    details = []
    for t in ts:
        res = invlap.invert_sweep(transform, float(t))
        raw.append(min(max(res.value, 0.0), 1.0))
        details.append(res)
    vals = np.clip(invlap.isotonic_non_decreasing(raw), 0.0, 1.0)
    if full_output:
        return vals, details
    return vals
