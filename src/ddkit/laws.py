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

Every law reads one table of the survival mass N(y) = int_x^y nu dS:
Chebyshev-Lobatto panels in y, each sized to carry about two units of
N, on which N is the antiderivative of the interpolant of nu S'.  The
tails read N off it at any level; the transforms solve their windows
at the Lobatto points of the same panels and climb a nested degree
ladder (4, 8, 16, ...; each rung reuses the solves of the one before).
Rung n also reads the degree n / 2 and n / 4 estimates off its even and
every fourth point, with no solve.  The ladder stops once the degree-n
estimate agrees with the degree-n / 2 one (on the first rung, the
degree-2 one with degree 1 too), or, from degree 16, once the gaps fall
fast enough that the next one is predicted under the target.  Those
points do not depend on alpha, so a
request for several alphas (the transform command's grid, the inversion
nodes of tau_cdf) makes one batched window solve per rung for all the
alphas still climbing.  On each panel the outer integral splits its
exponent into a linear part and a remainder, interpolates the rest,
and integrates polynomial times exponential exactly, so the dominant
decay costs no accuracy at any degree.  Numbers degrade gracefully:
transforms too small for double precision underflow to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from . import invlap
from .basis import OdeSettings, batch_endpoints
from .chebyshev import Panels, antiderivative, coefficients, lobatto, series
from .errors import (DegenerateBasisError, DomainError, NumericError,
                     ValidationError, pair, real, real_array)
from .models import (DiffusionModel, _over_scale_density, _require_interior,
                     _require_window, _scale_ratio)

_MOD = "laws"

# survival mass at which the outer integral is cut; the remaining
# contribution is below 1e-14 of the value scale and is reported
_MASS_CUT = -math.log(1e-14)
# survival mass past which exp(-N) is 0 in floats: the tails' table stops there
_ZERO_MASS = 746.0

# survival mass a table panel is sized to carry: at a constant rate
# sixteen panels reach the cut
_PANEL_MASS = 2.0
# the first panel's trial width, in windows delta: past a few windows
# the rate of nu S' at x says nothing about the rate there
_FIRST_SPAN = 8.0
_TABLE_DEGREE = 16              # nu S' on a table panel; its even points certify it
_DEGREES = (4, 8, 16, 32, 64)   # the transforms' nested ladder of panel points
_STRIP_MASS = 1e-14             # mass left below a finite upper endpoint
_REACH = 0.875                  # share of the way to that endpoint a panel may cover
_LEGENDRE = leggauss(96)
_LEGENDRE_CHEB = chebvander(_LEGENDRE[0], max(_DEGREES))   # T_k at its points
_LAGUERRE = laggauss(48)
# relative rounding of a transform value: the same nodes solved in
# other batches move by up to 7.6e-15 relative
_NODE_ROUNDING = 1e-14


# ---------------------------------------------------------------------------
# query and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrawdownQuery:
    """Start point, depth and transform arguments for the drawdown laws.

    alpha discounts time, beta discounts the terminal level of the
    running maximum; either may be zero.  tol is the relative target
    for the quadrature layers (the ODE layer runs tighter).  Every
    field is stored as a float; x and delta meet the model in
    validate_query.
    """

    x: float
    delta: float
    alpha: float = 0.0
    beta: float = 0.0
    tol: float = 1e-9

    def __post_init__(self):
        for name, lower, strict in (("x", None, False), ("delta", None, False),
                                    ("alpha", 0.0, False), ("beta", 0.0, False),
                                    ("tol", 0.0, True)):
            object.__setattr__(self, name, real(getattr(self, name), name,
                                                "DrawdownQuery", _MOD, lower, strict))
        if not self.tol <= 1e-2:
            raise ValidationError("tol must lie in ]0, 1e-2]",
                                  operation="DrawdownQuery", value=self.tol,
                                  module=_MOD)


@dataclass(frozen=True)
class TransformResult:
    """Value of a drawdown transform with its error bookkeeping.

    value is E^x[exp(-alpha tau - beta M_tau); tau finite].  It lies in
    [0, 1] whenever beta * x >= 0; a start below zero with beta > 0
    legitimately raises the cap to e^(-beta x).  abs_error_estimate
    sums three terms: the truncation remainder bound past the mass cut
    (and, below a finite upper endpoint, times the mass left in the
    strip), the refinement term of the outer degree ladder (its last gap
    g1, or the predicted next gap g1^2 / g0 where the gaps fell at least
    100x per rung), and the window solver's certificate (the largest
    endpoint_gap of the node solves, times |value|).
    truncation_point is the level where the outer integral was cut.
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

def nu(model: DiffusionModel, z: float, delta: float) -> float:
    """Excursion mass 1 / (S(z) - S(z - delta)); diverges as delta -> 0.
    Computed as the rate nu S' of the laws over S'(z)."""
    return _window_factor(model, z, delta, 0.0, None, "nu", 0)


def _nu_sp(model, z, delta):
    """nu(z) * S'(z): the survival-rate integrand in the level variable.

    Takes arrays of levels.  It is one over the scale quotient on
    [z - delta, z] anchored at z, which reads S' only relative to S'(z).
    A drifted BM (exact_step of kind arith) gets its exact z-free rate,
    several times faster: g / expm1(g delta) with g = 2 mu_sim /
    sig_sq_sim, or 1 / delta at g = 0.
    """
    step = model.exact_step
    if step is None or step.kind != "arith":
        return 1.0 / _scale_ratio(model, z - delta, z, z, "scale")
    g = 2.0 * step.mu_sim / step.sig_sq_sim
    rate = g / math.expm1(g * delta) if g else 1.0 / delta
    return rate if np.ndim(z) == 0 else np.full(np.shape(z), rate)


def _settings_for(tol: float) -> OdeSettings:
    # the window solves certify one decade tighter than the quadrature
    # target, inside [1e-12, 1e-6]: loose requests still get a certified
    # basis, and tight ones stay above the rounding floor of the tail
    # certificate, which windows up to alpha 2000 and length 3 still meet
    rel = min(max(tol / 10.0, 1e-12), 1e-6)
    return OdeSettings(rel_tol=rel)


def _window_factor(model, z, delta, alpha, settings, op, k):
    """b (k = 0) or chat (k = 1) at level z: the laws' own rate over S'(z),
    nu S' at alpha = 0, else from one window solve under settings (None:
    the solver's default); errors name op."""
    z, delta = _require_window(model, z, delta, op)
    alpha = real(alpha, "alpha", op, _MOD, 0.0)
    if alpha == 0.0:
        rate = _nu_sp(model, z, delta)
    else:
        rate = _factors(model, np.array([z]), delta, alpha, settings, op)[k][0]
    return _over_scale_density(rate, model, z, op)


def b_factor(model: DiffusionModel, z: float, delta: float, alpha: float,
             settings: OdeSettings | None = None) -> float:
    """Discounted mass of delta-deep excursions at level z.

    Equals nu(z) at alpha = 0 (enforced exactly) and decreases in
    alpha.  Computed as 1 / (S'(z - delta) u(z)) from the unit-slope
    window basis, that is its rate e^{log_w} / u(z) over S'(z).
    """
    return _window_factor(model, z, delta, alpha, settings, "b_factor", 0)


def c_hat(model: DiffusionModel, z: float, delta: float, alpha: float,
          settings: OdeSettings | None = None) -> float:
    """Total exponent intensity at level z: survival mass plus the
    discounting cost of excursions that die above depth delta.

    Equals nu(z) at alpha = 0 and dominates both nu and b_factor for
    alpha > 0; the run-up-only intensity is c_hat - nu.
    """
    return _window_factor(model, z, delta, alpha, settings, "c_hat", 1)


# ---------------------------------------------------------------------------
# the mass table: Chebyshev panels in the level
# ---------------------------------------------------------------------------

class _MassTable:
    """N = int_x^y nu dS on Chebyshev-Lobatto panels in the level y.

    Panels run right from x.  On panel k, [edges[k], edges[k + 1]], anti[k]
    holds the antiderivative of the degree-16 interpolant of nu S' and
    offsets[k] is N at edges[k]; mass is N at the last edge.  A panel is
    accepted when the mass from the degree-8 half of its points agrees
    with the degree-16 mass to the window solver's rel_tol (the degree
    ladder), and when it carries at most 2 _PANEL_MASS; otherwise it is
    bisected.  Each trial width scales the last panel (the first one: the
    rate at x, at most _FIRST_SPAN delta) to carry _PANEL_MASS, and a
    panel near the requested mass is stretched to reach it.  beta plays
    no part: it enters the transforms' exponent linearly, which their
    outer rule integrates exactly.

    Toward a finite upper endpoint B a panel covers at most _REACH of
    the way to B, so the distance to B shrinks by a fixed factor per
    panel.  Two such panels in a row with masses m_prev and m_last fit
    the mass within distance d of B to C d^q, which leaves the strip
    m_last r / (1 - r), r = m_last / m_prev, below the last edge.  The
    table stops there (hit_b) once the strip is under _STRIP_MASS or the
    distance to B is at rounding level; a strip that does not shrink
    (r >= 1) is refused.
    """

    def __init__(self, model, x, delta, tol):
        self.model, self.delta = model, delta
        self.rel = _settings_for(tol).rel_tol
        self.edges, self.anti, self.offsets, self.mass = [x], [], [], 0.0
        self.hit_b, self.strip = False, 0.0
        self._trial = None
        self._near_b = []       # masses of the panels in a row that reach _REACH toward B

    def grow(self, mass=math.inf, level=math.inf):
        """Append panels until N reaches mass, the last edge reaches
        level (the last panel then ends on it), or the table hits B."""
        while not self.hit_b and self.mass < mass and self.edges[-1] < level:
            self._append(mass, level)
        return self

    def _append(self, mass, level):
        t = lobatto(_TABLE_DEGREE).t
        e, bnd = self.edges[-1], self.model.interval[1]
        if self._trial is None:
            rate = float(_nu_sp(self.model, np.array([e]), self.delta)[0])
            self._trial = min(_PANEL_MASS / rate if 0.0 < rate < math.inf else 1.0,
                              _FIRST_SPAN * self.delta)
        h = self._trial
        left = mass - self.mass
        if left < 1.5 * _PANEL_MASS:
            h *= left / _PANEL_MASS * (1.0 + 1e-3)
        h = min(h, level - e)
        near_b = math.isfinite(bnd) and not h < _REACH * (bnd - e)
        if near_b:
            h = _REACH * (bnd - e)
        while True:
            f = _nu_sp(self.model, e + (t + 1.0) * (0.5 * h), self.delta)
            A = antiderivative(f, 0.5 * h)
            m = float(A.sum())
            gap = abs(m - 0.5 * h * float(lobatto(_TABLE_DEGREE // 2).w @ f[::2]))
            if gap <= self.rel * m and m <= 2.0 * _PANEL_MASS:
                break
            h *= 0.5
            near_b = False
            if not h > 1e-13 * max(1.0, abs(e)):
                raise NumericError("nu S' is not resolved by any panel width here",
                                   operation="mass table", value=e, module=_MOD)
        self.edges.append(e + h)
        self.anti.append(A)
        self.offsets.append(self.mass)
        self.mass += m
        self._trial = min(2.0 * h, h * _PANEL_MASS / max(m, 1e-300))
        if not near_b:
            self._near_b = []
            return
        self._near_b.append(m)
        if len(self._near_b) < 2:
            return
        r = m / self._near_b[-2]
        self.strip = m * r / (1.0 - r) if r < 1.0 else math.inf
        if self.strip <= _STRIP_MASS or bnd - e - h <= 1e-12 * max(1.0, abs(bnd)):
            if not math.isfinite(self.strip):
                raise NumericError("the survival mass does not shrink toward the "
                                   "upper endpoint", operation="mass table",
                                   value=bnd, module=_MOD)
            self.hit_b = True


# ---------------------------------------------------------------------------
# M_tau law (alpha-free: the mass table alone)
# ---------------------------------------------------------------------------

def _survival_mass(model, query, ys):
    """int_x^y nu dS at the levels ys, an array in [x, B[: inf, unread, past
    a table that stopped on N = _ZERO_MASS short of them; past the last
    edge of a table that stopped at a finite B, its last panel runs on."""
    t = _MassTable(model, query.x, query.delta, query.tol).grow(
        mass=_ZERO_MASS, level=float(np.max(ys)))
    stop = math.inf if t.hit_b else t.edges[-1]
    return np.where(ys > stop, math.inf, Panels(
        np.asarray(t.edges), np.asarray(t.offsets),
        np.reshape(t.anti, (-1, _TABLE_DEGREE + 2)))(np.minimum(ys, stop)))


def max_tail(model: DiffusionModel, query: DrawdownQuery, y: float) -> float:
    """P^x[M_tau > y] = exp(-int_x^y nu dS)."""
    _require_window(model, query.x, query.delta, "max_tail")
    y = real(y, "y", "max_tail", _MOD, query.x)
    _require_interior(model, y, "max_tail")
    with np.errstate(under="ignore"):
        return float(np.exp(-_survival_mass(model, query, np.array([y]))[0]))


def max_density(model: DiffusionModel, query: DrawdownQuery, y: float) -> float:
    """Density of M_tau at y: nu(y) S'(y) exp(-int_x^y nu dS).

    Integrates to 1 minus the defect exp(-int_x^B nu dS), the
    probability that the drawdown never completes.
    """
    _require_window(model, query.x, query.delta, "max_density")
    y = real(y, "y", "max_density", _MOD, query.x, strict=True)
    _require_interior(model, y, "max_density")
    return float(_nu_sp(model, np.array([y]), query.delta)[0]) * max_tail(model, query, y)


def tail_curve(model: DiffusionModel, query: DrawdownQuery, grid) -> TailCurve:
    """Tail and density of M_tau along an increasing grid of levels."""
    _require_window(model, query.x, query.delta, "tail_curve")
    g = real_array(grid, "grid", "tail_curve", _MOD)
    if np.any(np.diff(g) <= 0) or g[0] < query.x:
        raise ValidationError("grid must be strictly increasing with grid[0] >= x",
                              operation="tail_curve", module=_MOD)
    _require_interior(model, float(g[-1]), "tail_curve")
    with np.errstate(under="ignore"):
        tail = np.exp(-_survival_mass(model, query, g))
        dens = _nu_sp(model, g, query.delta) * tail
    return TailCurve(x=query.x, delta=query.delta, grid=g, tail=tail,
                     density=dens)


# ---------------------------------------------------------------------------
# the transforms on the table's panels
# ---------------------------------------------------------------------------

def _level_values(model, ys, delta, alphas, settings, op):
    """The rates (nu S', b S', chat S') at the levels ys for each alpha of
    alphas, shaped (alphas, 3, levels), and the solve gap; errors name op.
    They are the densities in y of nu dS, b dS and chat dS, so S', fixed
    only up to a constant, never enters.  Every alpha > 0 is solved in one
    batch, rows alpha-major; at alpha = 0, b S' = chat S' = nu S'."""
    out = np.empty((len(alphas), 3, ys.size))
    out[:] = _nu_sp(model, ys, delta)
    pos, gap = alphas > 0.0, 0.0
    if pos.any():
        b, c, gap = _factors(model, np.tile(ys, int(pos.sum())), delta,
                             np.repeat(alphas[pos], ys.size), settings, op)
        out[pos, 1] = np.reshape(b, (-1, ys.size))
        out[pos, 2] = np.reshape(c, (-1, ys.size))
    return out, gap


def _endpoints(model, alpha, l, r, op, settings=None):
    """batch_endpoints of the windows [l, r] at alpha; a failed solve
    is raised again under op."""
    try:
        return batch_endpoints(model, alpha, l, r, settings)
    except NumericError as exc:
        raise NumericError(
            f"window solve failed inside {op} for windows in "
            f"[{np.min(l):g}, {np.max(r):g}]: {exc}",
            operation=op, value=float(np.min(r)), module=_MOD) from exc


def _factors(model, ys, delta, alpha, settings, op):
    """(b S', chat S') = (e^{log_w} / u(y), u'(y) / u(y)) at the levels ys
    from one batched solve of the unit-slope windows at alpha (one per
    level or shared), and its gap; errors name op."""
    ep = _endpoints(model, alpha, ys - delta, ys, op, settings)
    scale = np.maximum(np.abs(ep.u_r), np.abs(ep.up_r) * delta)
    if np.any(~np.isfinite(ep.u_r) | (np.abs(ep.u_r) < 1e-13 * scale)):
        raise DegenerateBasisError(
            "vanishing solution lost all accuracy at the window top; "
            "delta is too large for this window or alpha is extreme",
            operation=op, value=delta, module=_MOD)
    with np.errstate(under="ignore"):
        b = np.exp(ep.log_w - ep.lam) / ep.u_r
    return b, ep.up_r / ep.u_r, ep.endpoint_gap


def _panel_values(model, edges, n, delta, alphas, settings, prev, op):
    """(nu S', b S', chat S') at the degree-n Lobatto points of every
    panel for each alpha of alphas, shaped (alphas, 3, panels, n + 1), and
    the solve gap; errors name op.  prev holds the values at degree n / 2,
    whose points are the even ones of degree n, so only the odd points
    are solved."""
    t = lobatto(n).t
    lo, hs = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    panels = hs.shape[0]
    if prev is None:
        ys = np.append((lo + hs * (t[:-1] + 1.0)).ravel(), edges[-1])
        vals, gap = _level_values(model, ys, delta, alphas, settings, op)
        return vals[..., np.arange(panels)[:, None] * n + np.arange(n + 1)], gap
    vals, gap = _level_values(model, (lo + hs * (t[1::2] + 1.0)).ravel(), delta,
                              alphas, settings, op)
    out = np.empty((len(alphas), 3, panels, n + 1))
    out[..., ::2] = prev
    out[..., 1::2] = vals.reshape(len(alphas), 3, panels, n // 2)
    return out, gap


def _exp_moments(a, n):
    """M[p, k] = int_{-1}^{1} e^{-a_p (u + 1)} T_k(u) du for k <= n <= 64.

    Gauss-Legendre on 96 points for a <= 60, Gauss-Laguerre on 48 in
    v = a (u + 1) above, where the part past u = 1 is below e^{-80}.
    Both rules are exact for T_k and resolve the exponential; rounding
    in their points leaves a relative error of about a * 1e-15.
    """
    M = np.empty((a.size, n + 1))
    u, w = _LEGENDRE
    small = a <= 60.0
    M[small] = (w * np.exp(-np.outer(a[small], u + 1.0))) @ _LEGENDRE_CHEB[:, :n + 1]
    if not small.all():
        v, wl = _LAGUERRE
        ab = a[~small, None]
        M[~small] = np.einsum("i,pik->pk", wl, chebvander(v / ab - 1.0, n)) / ab
    return M


def _exponent(hs, rate, n):
    """On each panel, J = int rate from its left edge through the
    degree-n interpolant of rate: its rise D over the panel and, at the
    panel's points, r = J - D (t + 1) / 2, J less its chord."""
    t = lobatto(n).t
    J = series(antiderivative(rate, hs[:, None])[:, None, :], t)
    return J[:, -1], J - J[:, -1:] * (0.5 * (t + 1.0))


def _outer_integral(hs, rise, r, outside, n):
    """int exp(-J) outside dy over the panels, J(x) = 0.

    On each panel _exponent's rise D of J is taken out as
    e^{-D (t + 1) / 2}; what is left, outside e^{-r}, is interpolated at
    degree n, and that polynomial times the exponential is integrated
    exactly (_exp_moments).  Where the rate and outside are constant, as
    on BM and drifted BM, r is exactly 0 and every degree is exact.
    """
    with np.errstate(under="ignore", over="ignore"):
        c = coefficients(outside * np.exp(-r))
        start = np.exp(-np.concatenate([[0.0], np.cumsum(rise)[:-1]]))
        pieces = start * hs * np.sum(c * _exp_moments(0.5 * rise, n), axis=1)
    if not np.all(np.isfinite(pieces)):
        raise NumericError("outer integral is not finite", operation="transform",
                           module=_MOD)
    return math.fsum(pieces.tolist())


def _refinement(e, scale, accept, n):
    """The ladder's acceptance rule on the nested estimates
    e = (e_{n/4}, e_{n/2}, e_n) of rung n: the refinement term of e_n, or
    None to climb on.  With g1 = |e_n - e_{n/2}| and g0 = |e_{n/2} - e_{n/4}|
    (largest entries, for arrays), it accepts

    (a) g1 <= accept * scale, on the first rung only once g0 is too (three
        nested estimates agree), and reports g1;
    (b) from the third rung, where g0 is a gap between rungs, gaps that
        fall at least 100x per rung to a predicted next gap g1^2 / g0
        under accept * scale, and reports that prediction.

    The degree-1 and degree-2 estimates below the first rung show that a
    polynomial is exact, not a rate: on OU with delta = 2 at tol 1e-5 a
    rate read off them predicted 2.8e-8 where the error was 7.4e-6."""
    g0, g1 = (float(np.max(np.abs(a - b))) for a, b in zip(e[1:], e[:2]))
    bound = accept * scale
    if g1 <= bound and (n > _DEGREES[0] or g0 <= bound):
        return g1
    if n >= 4 * _DEGREES[0] and 100.0 * g1 <= g0 and g1 * g1 <= bound * g0:
        return g1 * g1 / g0
    return None


def _climb(model, edges, delta, alphas, tol, estimate, scale, op, name, vals=None,
           gap=0.0):
    """The outer degree ladder on the panels edges, for each alpha of
    alphas: estimate(n, values) at the (nu S', b S', chat S') values of
    the degree-n points of every panel for that alpha, until _refinement
    accepts the last three nested estimates at accept * scale(e_n), accept
    a decade above the window solver's own certificate.  The degree-n / 2
    and n / 4 estimates read the even and every fourth point, so the first
    rung estimates degrees 4, 2 and 1 from one solve, and every later rung
    reuses the two before.  A rung solves the new points of every alpha
    still climbing in one batch; vals may hold the first rung's values of
    every alpha, and gap their solve gap.  Returns, for each alpha, its
    last estimate, its refinement term (the last gap g1, or the predicted
    next gap g1^2 / g0) and the largest gap of the solves it took part in."""
    settings = _settings_for(tol)
    accept = max(tol, 10.0 * settings.rel_tol)
    gaps = np.full(len(alphas), gap)
    est, done = [None] * len(alphas), [None] * len(alphas)
    live = np.arange(len(alphas))
    for n in _DEGREES:
        first = n == _DEGREES[0]
        if vals is None or not first:
            vals, g = _panel_values(model, edges, n, delta, alphas[live], settings,
                                    vals, op)
            gaps[live] = np.maximum(gaps[live], g)
        keep = []
        for j, i in enumerate(live):
            cur = estimate(n, vals[j])
            if first:
                est[i] = [estimate(n // 4, vals[j][..., ::4]),
                          estimate(n // 2, vals[j][..., ::2]), cur]
            else:
                est[i] = est[i][1:] + [cur]
            term = _refinement(est[i], scale(cur), accept, n)
            if term is None:
                keep.append(j)
            else:
                done[i] = (cur, term, float(gaps[i]))
        if not keep:
            return done
        if len(keep) < len(live):
            live, vals = live[keep], vals[keep]
    raise NumericError(f"{name} degree ladder did not converge", operation=op,
                       value=n, module=_MOD, partial=est[live[0]][-1])


def _transform_core(model, query, alphas, role_swap=False):
    """The transform of query at each alpha of alphas (query.alpha is not
    read), as a list of TransformResult.  The mass table, the panels and
    their points do not depend on alpha, so all alphas share them and
    each ladder rung is one window solve for every alpha still climbing;
    each alpha is accepted, bounded and clipped on its own."""
    _require_window(model, query.x, query.delta, "joint_transform")
    x, delta, beta, tol = query.x, query.delta, query.beta, query.tol
    alphas = np.array([real(a, "alpha", "joint_transform", _MOD, 0.0) for a in alphas])
    settings = _settings_for(tol)

    table = _MassTable(model, x, delta, tol).grow(mass=_MASS_CUT)
    edges = np.asarray(table.edges)
    y_star, n_star = float(edges[-1]), table.mass
    # everything below is e^{beta x} times the transform, in [0, 1]; the
    # factor e^{-beta x} is put back last
    remainder = math.exp(-beta * (y_star - x) - n_star)
    if table.hit_b:
        remainder *= min(1.0, table.strip)

    def integrands(vals):
        nu_v, b_v, c_v = vals
        if role_swap:
            return beta + b_v, np.maximum(c_v - nu_v, 0.0)
        return beta + c_v, b_v

    # panels where J bends more than 1 away from its chord, for any alpha,
    # are bisected first: there e^{-r} would need degrees the ladder does
    # not reach
    n = _DEGREES[0]
    while True:
        hs = 0.5 * np.diff(edges)
        vals, solve_gap = _panel_values(model, edges, n, delta, alphas, settings,
                                        None, "transform")
        far = np.any([np.abs(_exponent(hs, integrands(v)[0], n)[1]).max(axis=1) > 1.0
                      for v in vals], axis=0)
        if not far.any() or hs.min() < 1e-9 * max(1.0, abs(y_star)):
            break
        edges = np.sort(np.concatenate([edges, edges[:-1][far] + hs[far]]))

    def estimate(n, vals):
        rate, outside = integrands(vals)
        return _outer_integral(hs, *_exponent(hs, rate, n), outside, n)

    out = []
    for value, refine, gap in _climb(
            model, edges, delta, alphas, tol, estimate, lambda v: max(abs(v), 1e-300),
            "transform", "transform", vals, solve_gap):
        clipped = min(max(value, 0.0), 1.0)
        abs_err = remainder + refine + gap * abs(value) + abs(value - clipped)
        value, abs_err = _times_exp(clipped, -beta * x), _times_exp(abs_err, -beta * x)
        if value == math.inf:
            raise NumericError("the transform exceeds the float range",
                               operation="transform", value=(x, beta), module=_MOD)
        out.append(TransformResult(value=value, abs_error_estimate=abs_err,
                                   truncation_point=y_star))
    return out


def _times_exp(v, e):
    """v e^e for v >= 0, finite wherever that product is, though e^e alone
    may overflow; inf past the float range."""
    with np.errstate(divide="ignore", over="ignore"):
        return v * math.exp(e) if e < 700.0 else float(np.exp(np.log(v) + e))


def joint_transform(model: DiffusionModel,
                    query: DrawdownQuery) -> TransformResult:
    """E^x[exp(-alpha tau - beta M_tau); tau finite].

    At alpha = beta = 0 this is the probability the drawdown ever
    completes.  The outer integral is truncated where the survival
    mass falls below 1e-14; the exact bound for the discarded piece is
    part of abs_error_estimate.  A value past the float range, which
    needs beta x below -709, raises NumericError.
    """
    return _transform_core(model, query, [query.alpha])[0]


def _role_swapped_transform(model: DiffusionModel,
                            query: DrawdownQuery) -> TransformResult:
    """Diagnostic variant with the exponent and prefactor exchanged:
    exponent integrand b, outside factor chat - nu.

    Kept because the small-alpha limit separates the two possible role
    assignments unambiguously: the implemented orientation tends to
    the total drawdown probability, this exchanged form tends to 0.
    Not part of the public law surface.
    """
    return _transform_core(model, query, [query.alpha], role_swap=True)[0]


# ---------------------------------------------------------------------------
# conditional and run-up transforms
# ---------------------------------------------------------------------------

def _runup_exponent(model, x, ys_eval, delta, alpha, tol, op):
    """R(y) = int_x^y (chat - nu) dS at each requested level, on the mass
    table's panels up to the highest level, certified by the transforms'
    degree ladder; errors name op."""
    if alpha == 0.0:
        return np.zeros(ys_eval.shape)
    table = _MassTable(model, x, delta, tol).grow(level=float(ys_eval.max()))
    edges = np.asarray(table.edges)
    hs = 0.5 * np.diff(edges)[:, None]

    def estimate(n, vals):
        nu_v, _, c_v = vals
        A = antiderivative(np.maximum(c_v - nu_v, 0.0), hs)
        offsets = np.concatenate([[0.0], np.cumsum(A.sum(axis=1))[:-1]])
        return Panels(edges, offsets, A)(ys_eval)

    return _climb(
        model, edges, delta, np.array([alpha]), tol, estimate,
        lambda R: 1.0 + np.max(np.abs(R)), op, "run-up")[0][0]


def run_up_transform(model: DiffusionModel, x: float, y: float, delta: float,
                     alpha: float, tol: float = 1e-9) -> float:
    """Cost of climbing from x to y without completing the drawdown:
    exp(-int_x^y (chat - nu) dS), in ]0, 1], equal to 1 at alpha = 0."""
    op = "run_up_transform"
    query = DrawdownQuery(x=x, delta=delta, alpha=alpha, tol=tol)
    x, delta = _require_window(model, query.x, query.delta, op)
    y = real(y, "y", op, _MOD, x, strict=True)
    _require_interior(model, y, op)
    r = _runup_exponent(model, x, np.array([y]), delta, query.alpha, query.tol, op)
    return float(np.exp(-r[0]))


def conditional_curve(model: DiffusionModel, query: DrawdownQuery,
                      ys) -> np.ndarray:
    """E^x[e^{-alpha tau} | M_tau = y] along an array of levels y > x."""
    op = "conditional_curve"
    _require_window(model, query.x, query.delta, op)
    ys = real_array(ys, "levels", op, _MOD)
    if not np.all(ys > query.x):
        raise ValidationError("levels must exceed x", operation=op, module=_MOD)
    _require_interior(model, float(ys.max()), op)
    R = _runup_exponent(model, query.x, ys, query.delta, query.alpha, query.tol, op)
    vals, _ = _level_values(model, ys, query.delta, np.array([query.alpha]),
                            _settings_for(query.tol), op)
    nu_v, b_v, _ = vals[0]
    with np.errstate(under="ignore"):
        out = np.exp(-R) * b_v / nu_v
    return np.clip(out, 0.0, 1.0)


def conditional_laplace(model: DiffusionModel, query: DrawdownQuery,
                        y: float) -> float:
    """E^x[e^{-alpha tau} | M_tau = y]: the run-up cost to y times the
    conditional depth-completion discount b(y) / nu(y)."""
    y = real(y, "y", "conditional_laplace", _MOD)
    return float(conditional_curve(model, query, np.array([y]))[0])


# ---------------------------------------------------------------------------
# hitting and exit transforms
# ---------------------------------------------------------------------------

def _passage(model, x, t, o, alpha, op):
    """(v, v_refl, err): E^x[e^{-alpha T_t}; T_t < T_o] with o absorbing,
    the same with o reflecting (t and o on either side of x), and their
    relative accuracy.

    Each is phi(x) / phi(t), phi the solution vanishing or flat at o
    (Borodin & Salminen, Handbook of Brownian Motion, II.10): u or v of
    the window [o, z] at z, or with o above, S'(z) u or S'(z) u' of
    [z, o] at o (the Wronskian of [l, r] grows from 1 to S'(r) / S'(l),
    so each is one solution whatever z), S'(x) / S'(t) from the log_w
    of the short window [t, x].  err is the solve's endpoint_gap plus
    1e-14 (1 + the logs in the quotient).  At alpha = 0, v_refl = 1 and
    v = (S(o) - S(x)) / (S(o) - S(t)), over S' where it is larger.
    """
    num, den = ((x, o), (t, o)) if t < x else ((o, x), (o, t))
    if alpha == 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            dens = [(float(model.scale_ratio_fn(*den, z)), z) for z in den]
        dens = [d for d in dens if math.isfinite(d[0])]
        if not dens:
            raise NumericError("scale quotient is not finite", operation=op,
                               value=den, module=_MOD)
        d, z = min(dens)
        return _scale_ratio(model, *num, z, op) / d, 1.0, _NODE_ROUNDING
    l, r = np.array([num, den, (t, x)] if t < x else [num, den]).T
    ep = _endpoints(model, alpha, l, r, op)
    ends = np.array([ep.u_r, ep.up_r if t < x else ep.v_r])[:, :2]
    if not np.all(np.isfinite(ends) & (ends > 0.0)):
        raise DegenerateBasisError("window endpoint value is not finite and positive",
                                   operation=op, value=(num, den), module=_MOD)
    log_sp = ep.log_w[2] if t < x else 0.0
    q = np.exp(np.log(ends[:, 0] / ends[:, 1]) + ep.lam[0] - ep.lam[1] + log_sp)
    logs = 1.0 + abs(ep.lam[0]) + abs(ep.lam[1]) + abs(log_sp)
    return float(q[0]), float(q[1]), float(ep.endpoint_gap + _NODE_ROUNDING * logs)


def _hit_rounds(model, x, y, far, alpha, op):
    """_passage of the first round of hitting_laplace without a box whose
    spread |v_refl - v| is at most 1e-9 v, or DomainError."""
    prev, why = math.inf, "60 rounds left the spread above 1e-9 of the value"
    for k in range(1, 61):
        o = (far + (x - far) / 4.0 ** k if math.isfinite(far)
             else x - math.copysign(abs(y - x) * 2.0 ** k, y - x))
        if math.isfinite(far) and not abs(o - far) > 1e-12 * max(1.0, abs(far)):
            why = "o came within 1e-12 max(1, |end|) of the end"
            break
        v, refl, err = _passage(model, x, y, o, alpha, op)
        if abs(refl - v) <= 1e-9 * v:
            return v, refl, err
        if not abs(refl - v) < prev:
            why = f"the spread stopped shrinking at {abs(refl - v):.3g}"
            break
        prev = abs(refl - v)
    raise DomainError(f"the value depends on the end {far:g} beyond x, as absorbing "
                      f"and reflecting at a level o there disagree: {why}; a box "
                      "(lo, hi) truncates at its edge with a bound",
                      operation=op, value=(x, y, alpha), module=_MOD)


def hitting_laplace(model: DiffusionModel, x: float, y: float, alpha: float,
                    box: tuple[float, float] | None = None,
                    full_output: bool = False):
    """E^x[e^{-alpha T_y}] for the first passage to level y.

    A model with an exact_step of kind arith or loggauss is a drifted BM
    (mu, s2) in xi = x or log x; where its end beyond x (below x when
    y > x) is at xi = -+inf, the value is exp(-r |xi(y) - xi(x)|),
    r = (sqrt(mu^2 + 2 alpha s2) - sign(y - x) mu) / s2.  Otherwise that
    end is truncated at o.  E^z[e^{-alpha T_y}] is monotone in z, so on
    [o, y] it combines the solutions vanishing and flat at o with weights
    of one sign: the value lies between v and v_refl of _passage whatever
    the process does past o.  (v_refl - v = v e h / (1 - e h), e the
    discounted mass reaching o first, h <= 1 the reflected one back to x.)

    o is the edge beyond x of a box (lo, hi) bracketing x and y.  Without
    one, o = x -+ |y - x| 2^k toward an infinite end, or A + (x - A) / 4^k
    toward a finite one A, k = 1, 2, ..., until |v_refl - v| <= 1e-9 v.
    A spread that stops shrinking, an o within 1e-12 max(1, |A|) of A or
    60 rounds raise DomainError: the value depends on the end (a regular
    finite A, or escape at alpha = 0, where v_refl = 1), out of scope.
    full_output returns (value, |v_refl - v| + err v + any clip move);
    the closed form reports 0.
    """
    op = "hitting_laplace"
    x, y = real(x, "x", op, _MOD), real(y, "y", op, _MOD)
    alpha = real(alpha, "alpha", op, _MOD, 0.0)
    _require_interior(model, np.array([x, y]), op)
    if box is not None:
        lo, hi = (real(v, "box entry", op, _MOD) for v in pair(box, "box", op, _MOD))
        _require_interior(model, np.array([lo, hi]), op)
        if not (lo < min(x, y) and hi > max(x, y)):
            raise ValidationError("box must strictly bracket x and y",
                                  operation=op, value=(lo, hi), module=_MOD)
    if x == y:
        return (1.0, 0.0) if full_output else 1.0
    step, far = model.exact_step, model.interval[0] if y > x else model.interval[1]
    if box is None and step and step.kind in ("arith", "loggauss") and (
            not math.isfinite(far) or far == 0.0 and step.kind == "loggauss"):
        mu, s2 = step.mu_sim, step.sig_sq_sim
        d = y - x if step.kind == "arith" else math.log(y / x)
        r = (math.sqrt(mu * mu + 2.0 * alpha * s2) - math.copysign(1.0, d) * mu) / s2
        return (math.exp(-r * abs(d)), 0.0) if full_output else math.exp(-r * abs(d))
    v, refl, err = (_hit_rounds(model, x, y, far, alpha, op) if box is None else
                    _passage(model, x, y, lo if y > x else hi, alpha, op))
    val = min(max(v, 0.0), 1.0)
    bound = abs(refl - v) + err * v + abs(val - v)
    return (val, bound) if full_output else val


def exit_probability(model: DiffusionModel, x: float, a: float,
                     bnd: float) -> float:
    """P^x(T_a < T_bnd), exit_transform at alpha = 0."""
    return exit_transform(model, x, a, bnd, 0.0)


def exit_transform(model: DiffusionModel, x: float, a: float, bnd: float,
                   alpha: float) -> float:
    """E^x[e^{-alpha T_a}; T_a < T_bnd] for a < x < bnd: _passage to a with
    bnd absorbing, clipped to [0, 1]."""
    op = "exit_transform"
    x, a, bnd = (real(v, n, op, _MOD) for v, n in ((x, "x"), (a, "a"), (bnd, "bnd")))
    alpha = real(alpha, "alpha", op, _MOD, 0.0)
    _require_interior(model, np.array([a, bnd, x]), op)
    if not (a < x < bnd):
        raise ValidationError("need a < x < bnd", operation=op,
                              value=(a, x, bnd), module=_MOD)
    return min(max(_passage(model, x, a, bnd, alpha, op)[0], 0.0), 1.0)


# ---------------------------------------------------------------------------
# CDF of tau by Laplace inversion
# ---------------------------------------------------------------------------

def tau_cdf(model: DiffusionModel, query: DrawdownQuery, t_grid,
            full_output: bool = False):
    """P^x(tau <= t) on a time grid, by Gaver-Stehfest inversion of
    alpha -> joint_transform(alpha, beta=0) / alpha.

    The inversion nodes k ln2 / t of every t are evaluated together: one
    mass table, and one window solve per outer-ladder rung for all of
    them.  Values are clipped to [0, 1] and made non-decreasing by
    isotonic projection.  Accuracy is limited by the inversion scheme
    (roughly 1e-5 relative at best; see the invlap module).  Each entry of
    the full output keeps the raw inversion value and unstable, the
    order sweep's own flag, set above 1e-4.  Its disagreement is an
    error bar that adds three terms: the spread of the values at the
    chosen order and its neighbours in the sweep (which holds the
    sweep's own disagreement), the nodes' rounding as the weights
    amplify it, and the distance from the raw value to the returned one
    (the clip and the projection).
    """
    _require_window(model, query.x, query.delta, "tau_cdf")
    if query.beta != 0.0:
        raise ValidationError("tau_cdf requires beta = 0",
                              operation="tau_cdf", value=query.beta, module=_MOD)
    ts = real_array(t_grid, "t_grid", "tau_cdf", _MOD)
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValidationError("t_grid must be positive and strictly increasing",
                              operation="tau_cdf", module=_MOD)

    order = max(invlap.DEFAULT_ORDERS)
    alphas = sorted({a for t in ts.tolist() for a in invlap.nodes(t, order)})
    results = _transform_core(model, query, alphas)
    transform = {a: r.value / a for a, r in zip(alphas, results)}

    sweeps = [invlap.invert_sweep(transform.__getitem__, t) for t in ts.tolist()]
    vals = np.clip(invlap.isotonic_non_decreasing(
        [min(max(res.value, 0.0), 1.0) for res in sweeps]), 0.0, 1.0)
    if full_output:
        return vals, [replace(res, disagreement=_inversion_error(transform, t, res)
                              + abs(v - res.value))
                      for t, v, res in zip(ts.tolist(), vals.tolist(), sweeps)]
    return vals


def _inversion_error(transform, t, res):
    """Error bar of the sweep res's value: the spread of the values at
    its order and its neighbours in the sweep, plus
    (ln2 / t) sum_k |w_k F(alpha_k)| _NODE_ROUNDING, the worst the
    weights make of the nodes' rounding."""
    i = [n for n, _ in res.sweep].index(res.order)
    near = [v for _, v in res.sweep[max(i - 1, 0):i + 2]]
    amp = math.fsum(abs(float(w) * transform[a]) for w, a in
                    zip(invlap.stehfest_weights(res.order), invlap.nodes(t, res.order)))
    return max(near) - min(near) + _NODE_ROUNDING * math.log(2.0) / t * amp
