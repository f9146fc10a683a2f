"""Analytics-versus-oracle comparison reports.

Calls the law layer for exact values and the Monte Carlo layer for
estimates, then lines them up with z-scores.  One bias rule serves both
reports: one run at steps dt / r and dt, and the law is compared with
fine + (fine - coarse) / (r^p - 1), the bias falling as dt^p (Talay &
Tubaro, Stoch. Anal. Appl. 8, 1990), at the standard error of those
per-path values.  The reports show both arms' move, not just verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import laws, mc
from .errors import ValidationError, real
from .models import DiffusionModel

_MOD = "verify"
_Z_MAX = 3.0
# order of the drawdown probes' bias in dt: bridge extremes leave O(dt),
# Euler's grid monitoring O(sqrt(dt)) (Broadie, Glasserman & Kou 1997)
_BIAS_ORDER = {"exact_bm": 1.0, "euler": 0.5}


@dataclass(frozen=True)
class CheckRow:
    """One analytic value against its Monte Carlo estimate."""

    name: str
    analytic: float
    estimate: float
    std_error: float
    z_score: float
    dt_move: float          # |fine - coarse| estimate move, in std errors
    passed: bool

    def line(self) -> str:
        tag = "ok  " if self.passed else "FAIL"
        return (f"{tag} {self.name:<28} analytic {self.analytic: .8f}  "
                f"mc {self.estimate: .8f}  se {self.std_error:.2e}  "
                f"z {self.z_score:+.2f}  dt-move {self.dt_move:.2f}se")


@dataclass(frozen=True)
class VerificationReport:
    """Drawdown law checks for one model at one (x, delta)."""

    model_id: str
    x: float
    delta: float
    dt: float
    n_paths: int
    rows: tuple
    unstopped_fraction: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows) and \
            self.unstopped_fraction < 0.01

    def lines(self) -> list[str]:
        out = [f"model {self.model_id}  x={self.x:g} delta={self.delta:g}  "
               f"n={self.n_paths} dt={self.dt:g}  "
               f"unstopped {self.unstopped_fraction:.2%}"]
        out.extend(r.line() for r in self.rows)
        out.append("result: " + ("PASS" if self.passed else "FAIL"))
        return out


@dataclass(frozen=True)
class ExcursionReport:
    """Poisson structure check for excursion counts in one band.

    mean_extrapolated is the bias rule at ratio 4 and order 1/2,
    2 fine - coarse; extrapolated_se is taken from the per-path values
    (both arms share path indices); the mean band is three of it.
    var_over_mean is read on the fine arm, and var_over_mean_se is its
    delta-method standard error from the central moments of the fine
    counts (sqrt(2 / n) for Poisson counts); the dispersion band around
    1 is three of it.
    """

    model_id: str
    x: float
    y: float
    delta: float
    n_paths: int
    dt_fine: float
    analytic_mean: float
    mean_fine: float
    mean_coarse: float
    mean_extrapolated: float
    var_over_mean: float
    finished_fraction: float
    extrapolated_se: float
    var_over_mean_se: float

    @property
    def mean_band(self) -> float:
        return _Z_MAX * self.extrapolated_se

    @property
    def mean_ok(self) -> bool:
        return abs(self.mean_extrapolated - self.analytic_mean) \
            <= self.mean_band

    @property
    def dispersion_band(self) -> float:
        return _Z_MAX * self.var_over_mean_se

    @property
    def dispersion_ok(self) -> bool:
        return abs(self.var_over_mean - 1.0) <= self.dispersion_band

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.dispersion_ok

    def lines(self) -> list[str]:
        return [
            f"model {self.model_id}  band ]{self.x:g}, {self.y:g}] "
            f"delta={self.delta:g}  n={self.n_paths}",
            f"analytic mean {self.analytic_mean:.6f}  "
            f"extrapolated {self.mean_extrapolated:.6f}  "
            f"(fine {self.mean_fine:.6f} @ dt={self.dt_fine:g}, "
            f"coarse {self.mean_coarse:.6f})  band +-{self.mean_band:.4f}",
            f"variance/mean {self.var_over_mean:.4f} in 1 +-"
            f"{self.dispersion_band:.4f}: "
            f"{'yes' if self.dispersion_ok else 'NO'}  "
            f"finished {self.finished_fraction:.2%}",
            "result: " + ("PASS" if self.passed else "FAIL"),
        ]


def _extrapolate(fine, coarse, ratio, order):
    """Mean and standard error of the per-path values
    fine + (fine - coarse) / (ratio^order - 1), the arms at steps
    dt / ratio and dt."""
    vals = fine + (fine - coarse) / (ratio ** order - 1.0)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def _dispersion(counts):
    """var/mean of the counts and its delta-method standard error: the
    spread of each path's influence (c^2 - m2) / m - m2 c / m^2, c the
    centred count and m, m2 the mean and second central moment."""
    m = float(counts.mean())
    c = counts - m
    m2 = float(np.mean(c * c))
    influence = (c * c - m2) / m - (m2 / (m * m)) * c
    return (float(counts.var(ddof=1)) / m,
            float(influence.std(ddof=1) / math.sqrt(counts.size)))


def _probe_paths(samples, ys, alpha):
    """Per-path terms of mc.estimate_tail at ys, then of mc.estimate_transform."""
    with np.errstate(under="ignore"):
        transform = np.where(samples.stopped, np.exp(-alpha * samples.tau_hat), 0.0)
    return [(samples.m_tau_hat > y).astype(float) for y in ys] + [transform]


def dt_pair_simulate(model: DiffusionModel, x: float, delta: float,
                     cfg: mc.McConfig, ys, alpha: float):
    """One coupled (dt, dt/2) run of the probes (tails at ys, the alpha-
    transform) under the bias rule at ratio 2.  Returns (fine collection,
    probes): per probe the extrapolated estimate, its standard error, and
    |fine - coarse| in those errors; the arms share their noise, so that
    move is the bias itself, not Monte Carlo scatter."""
    op = "dt_pair_simulate"
    ys = [real(y, "tail level", op, _MOD) for y in ys]
    alpha = real(alpha, "alpha", op, _MOD, 0.0)
    fine, coarse = mc.paired_simulate(model, x, delta, cfg)
    order = _BIAS_ORDER[cfg.scheme]
    probes = []
    for f, c in zip(_probe_paths(fine, ys, alpha),
                    _probe_paths(coarse, ys, alpha)):
        est, se = _extrapolate(f, c, 2.0, order)
        move = abs(float(f.mean()) - float(c.mean())) / se if se > 0 else 0.0
        probes.append((est, se, move))
    return fine, probes


def verification_report(model: DiffusionModel, x: float, delta: float,
                        cfg: mc.McConfig, ys=None, alpha: float = 0.5,
                        tol: float = 1e-9) -> VerificationReport:
    """Check P(M_tau > y) on three levels and E[e^{-alpha tau}] against
    the oracle's extrapolated estimates from one (dt, dt/2) pair."""
    query = laws.DrawdownQuery(x=x, delta=delta, alpha=alpha, tol=tol)
    x, delta, alpha = query.x, query.delta, query.alpha
    if ys is None:
        ys = (x + 0.5 * delta, x + delta, x + 2.0 * delta)
    ys = tuple(real(v, "tail level", "verification_report", _MOD) for v in ys)
    if len(ys) != 3:
        raise ValidationError("need exactly three tail levels",
                              operation="verification_report", value=ys,
                              module=_MOD)
    samples, probes = dt_pair_simulate(model, x, delta, cfg, ys, alpha)
    rows = []
    names = [f"P(max > {y:g})" for y in ys] + [f"E[exp(-{alpha:g} tau)]"]
    exact = [laws.max_tail(model, query, y) for y in ys]
    exact.append(laws.joint_transform(model, query).value)
    for name, ana, (est, se, move) in zip(names, exact, probes):
        if se > 0:
            z = (est - ana) / se
            ok = abs(z) <= _Z_MAX
        else:
            z = 0.0
            ok = abs(est - ana) <= 1e-12
        rows.append(CheckRow(name=name, analytic=ana, estimate=est,
                             std_error=se, z_score=z, dt_move=move,
                             passed=ok))
    return VerificationReport(model_id=model.model_id, x=x,
                              delta=delta, dt=samples.cfg.dt,
                              n_paths=cfg.n_paths, rows=tuple(rows),
                              unstopped_fraction=samples.unstopped_fraction)


def excursion_report(model: DiffusionModel, x: float, y: float,
                     delta: float, cfg: mc.McConfig,
                     tol: float = 1e-9) -> ExcursionReport:
    """Poisson check of delta-deep excursion counts in ]x, y].

    Counts at cfg.dt and cfg.dt/4 extrapolate the O(sqrt(dt)) depth
    undercount away: the sqrt halves, so 2*fine - coarse cancels it.
    That difference spreads about sqrt(5) times wider than one Poisson
    mean, so its standard error is measured on the per-path values.
    The analytic mean is the tail law's exponent, the integral of nu dS
    read from the mass table; inf where that passes 746, past which the
    table does not grow.  A run whose dt/4 arm counts no excursion leaves
    var/mean undefined and raises ValidationError.
    """
    query = laws.DrawdownQuery(x=x, delta=delta, tol=tol)
    x, delta = query.x, query.delta
    y = real(y, "y", "excursion_report", _MOD)
    counts_c, _ = mc.excursion_counts(model, x, y, delta, cfg)
    analytic = float(laws._survival_mass(model, query, np.array([y]))[0])
    fine_cfg = replace(cfg, dt=cfg.dt / 4)
    counts_f, done_f = mc.excursion_counts(model, x, y, delta, fine_cfg)
    mean_f = float(counts_f.mean())
    if mean_f == 0.0:
        raise ValidationError("no excursion counted at dt/4, so var/mean is "
                              "undefined; widen the band or add paths",
                              operation="excursion_report", value=(x, y),
                              module=_MOD)
    mean_x, se_x = _extrapolate(counts_f, counts_c, 4.0, 0.5)
    disp, disp_se = _dispersion(counts_f)
    return ExcursionReport(model_id=model.model_id, x=x, y=y, delta=delta,
                           n_paths=cfg.n_paths, dt_fine=fine_cfg.dt,
                           analytic_mean=analytic,
                           mean_fine=mean_f, mean_coarse=float(counts_c.mean()),
                           mean_extrapolated=mean_x,
                           var_over_mean=disp,
                           finished_fraction=float(done_f.mean()),
                           extrapolated_se=se_x, var_over_mean_se=disp_se)
