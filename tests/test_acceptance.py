"""Acceptance gate for the package.

Each test is one promised behavior, checked at its stated tolerance
and runtime budget, and prints exactly one [PASS]/[FAIL] line through
the capture so the gate is readable in any pytest run.  Monte Carlo
checks use fixed seeds; every statistical assertion sits at 3 standard
errors or wider.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ddkit import laws, mc, models, verify
from ddkit.basis import batch_endpoints
from ddkit.laws import DrawdownQuery

BM = models.brownian()
DBM = models.drifted_brownian(1.0, 1.0)
GBM = models.geometric_brownian(0.05, 0.09)
OU = models.ornstein_uhlenbeck(1.0)

# standard Brownian motion, delta = 1: E[exp(-alpha tau)] equals
# sech(sqrt(2 alpha)); values frozen from 50-digit evaluation
SECH = {
    0.1: 0.90770639480163086,
    0.5: 0.6480542736638854,
    2.0: 0.26580222883407969,
}
B_BM = 0.85091812823932155       # 1/sinh(1), alpha = 0.5
CHAT_BM = 1.3130352854993313     # coth(1)
B_DBM = 1.7197930762647471       # drifted case at alpha = 1:
CHAT_DBM = 6.2362502946278776    # roots -1 +- sqrt(3), window ]0, 1]


def _report(capsys, ok, label, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {label}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_brownian_tail_closed_form(capsys):
    t0 = time.perf_counter()
    q = DrawdownQuery(0.0, 1.0)
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 4.0):
        got = laws.max_tail(BM, q, y)
        worst = max(worst, abs(got / math.exp(-y) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(capsys, ok, "brownian running-max tail matches exp(-y)",
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_brownian_transform_closed_form(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, want in SECH.items():
        r = laws.joint_transform(BM, DrawdownQuery(0.0, 1.0, alpha=alpha))
        worst = max(worst, abs(r.value / want - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, ok, "brownian transform matches sech(sqrt(2 alpha))",
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_small_alpha_limit_is_one(capsys):
    r = laws.joint_transform(BM, DrawdownQuery(0.0, 1.0, alpha=1e-9))
    gap = abs(r.value - 1.0)
    ok = gap <= 1e-8
    _report(capsys, ok, "transform tends to 1 as alpha tends to 0",
            f"|value - 1| = {gap:.2e} at alpha = 1e-9")


@pytest.mark.xfail(strict=True,
                   reason="swapping the roles of the two exponent factors "
                          "sends the small-alpha limit to 0 instead of 1; "
                          "kept as a guard that the implemented orientation "
                          "is the meaningful one")
def test_swapped_orientation_would_need_limit_one():
    r = laws._role_swapped_transform(BM, DrawdownQuery(0.0, 1.0, alpha=1e-3))
    assert abs(r.value - 1.0) < 0.5


def test_local_factors_and_basis_invariance(capsys):
    frozen = [
        (BM, 0.5, B_BM, CHAT_BM),
        (DBM, 1.0, B_DBM, CHAT_DBM),
    ]
    worst_val = 0.0
    worst_inv = 0.0
    for model, alpha, want_b, want_c in frozen:
        b = laws.b_factor(model, 1.0, 1.0, alpha)
        c = laws.c_hat(model, 1.0, 1.0, alpha)
        worst_val = max(worst_val, abs(b / want_b - 1.0),
                        abs(c / want_c - 1.0))
        b2 = laws.b_factor(model, 1.0, 1.0, alpha, tol=1e-10)
        c2 = laws.c_hat(model, 1.0, 1.0, alpha, tol=1e-10)
        worst_inv = max(worst_inv, abs(b2 / b - 1.0), abs(c2 / c - 1.0))
    ok = worst_val <= 1e-9 and worst_inv <= 1e-10
    _report(capsys, ok, "local factors match closed forms, basis-invariant",
            f"rel err {worst_val:.2e}, tol sweep {worst_inv:.2e}")


def test_catalog_against_oracle(capsys):
    cases = [
        (BM, 0.0, 1.0, mc.McConfig(n_paths=100000, dt=0.01, t_max=40.0,
                                   seed=31)),
        (DBM, 0.0, 1.0, mc.McConfig(n_paths=100000, dt=0.01, t_max=40.0,
                                    seed=33)),
        (GBM, 1.0, 0.3, mc.McConfig(n_paths=100000, dt=0.0009, t_max=15.0,
                                    seed=35)),
        (OU, 0.0, 1.0, mc.McConfig(n_paths=100000, dt=0.01, t_max=40.0,
                                   seed=37)),
    ]
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for model, x, delta, cfg in cases:
        rep = verify.verification_report(model, x, delta, cfg)
        z_max = max(abs(r.z_score) for r in rep.rows)
        details.append(f"{model.model_id} |z|<={z_max:.2f}")
        all_ok = all_ok and rep.passed and rep.unstopped_fraction < 0.01
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 300.0
    _report(capsys, ok, "catalog tails and transforms within 3 se of "
            "the oracle", f"{', '.join(details)}; {elapsed:.0f}s")


def test_excursion_counts_are_poisson(capsys):
    t0 = time.perf_counter()
    cfg = mc.McConfig(n_paths=10000, dt=0.01, t_max=51200.0, seed=3)
    rep = verify.excursion_report(BM, 0.0, 2.0, 1.0, cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 120.0
    _report(capsys, ok, "deep-excursion counts match the Poisson law",
            f"mean {rep.mean_extrapolated:.4f} vs {rep.analytic_mean:.4f} "
            f"band +-{rep.mean_band:.4f}, var/mean {rep.var_over_mean:.3f}, "
            f"{elapsed:.0f}s")


def test_factorization_and_drawdown_time_cdf(capsys):
    q = DrawdownQuery(0.0, 1.0, alpha=0.5, beta=0.25)
    joint = laws.joint_transform(DBM, q).value

    def integrand(y):
        return (laws.conditional_laplace(DBM, q, y)
                * math.exp(-q.beta * y)
                * laws.max_density(DBM, q, y))

    refactored, _ = quad(integrand, q.x, q.x + 30.0,
                         epsabs=1e-13, epsrel=1e-10, limit=200)
    fac_gap = abs(refactored / joint - 1.0)

    t_grid = (0.5, 1.0, 2.0)
    cdf = laws.tau_cdf(BM, DrawdownQuery(0.0, 1.0), t_grid)
    monotone = bool(np.all(np.diff(cdf) > 0))
    sim = mc.simulate(BM, 0.0, 1.0,
                      mc.McConfig(n_paths=20000, dt=0.01, t_max=40.0,
                                  seed=41))
    worst_z = 0.0
    for t, c in zip(t_grid, cdf):
        est, se = mc.tau_cdf_estimate(sim, t)
        worst_z = max(worst_z, abs(est - c) / se)
    ok = fac_gap <= 1e-7 and monotone and worst_z <= 3.0
    _report(capsys, ok, "transform factorizes over the maximum; time cdf "
            "agrees with the oracle",
            f"factorization gap {fac_gap:.2e}, cdf |z| <= {worst_z:.2f}")


def test_wronskian_drift_and_tail_slope(capsys):
    worst_drift = 0.0
    for model, tops in ((DBM, (0.5, 1.0, 2.0)), (OU, (0.5, 1.5)),
                        (GBM, (1.3, 2.0))):
        delta = 0.3 if model is GBM else 1.0
        r = np.asarray(tops, dtype=float)
        ep = batch_endpoints(model, 0.5, r - delta, r)
        worst_drift = max(worst_drift, ep.w_drift)

    q = DrawdownQuery(0.0, 1.0)
    h = 1e-5
    y = 1.5
    slope_fd = (math.log(laws.max_tail(DBM, q, y - h))
                - math.log(laws.max_tail(DBM, q, y + h))) / (2 * h)
    slope_law = laws.nu(DBM, y, 1.0) * models.scale_density(DBM, y)
    slope_gap = abs(slope_fd / slope_law - 1.0)
    ok = worst_drift <= 1e-8 and slope_gap <= 1e-6
    _report(capsys, ok, "log wronskian growth matches int -2 mu / sigma^2; "
            "tail slope equals nu times scale density",
            f"drift {worst_drift:.2e}, slope rel err {slope_gap:.2e}")
