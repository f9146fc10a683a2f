"""Window solver against elementary solutions at several window ends,
multi-panel products, a sequential RK4 loop, Wronskian growth and the
exponent carry."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddkit import (
    DomainError,
    NumericError,
    ValidationError,
    brownian,
    custom_model,
    drifted_brownian,
    geometric_brownian,
    ornstein_uhlenbeck,
)
from ddkit import basis
from ddkit.basis import batch_endpoints
from ddkit.models import scale_density

RS = np.array([0.35, 0.6, 1.0])


def _true(ep, name):
    """True-scale endpoint values of one field."""
    return getattr(ep, name) * np.exp(ep.lam)


def test_bm_basis_matches_hyperbolic_solutions():
    # BM, alpha = 1/2 on [0, r]: u = sinh, v = cosh, and S' = 1
    ep = batch_endpoints(brownian(), 0.5, np.zeros(RS.size), RS)
    assert_allclose(_true(ep, "u_r"), np.sinh(RS), rtol=1e-9)
    assert_allclose(_true(ep, "up_r"), np.cosh(RS), rtol=1e-9)
    assert_allclose(_true(ep, "v_r"), np.cosh(RS), rtol=1e-9)
    assert_allclose(_true(ep, "vp_r"), np.sinh(RS), rtol=1e-9)


def _log_sprime_ratio(model, l, r):
    """log S'(r) / S'(l) from the model's closed-form scale density."""
    return np.log(scale_density(model, r) / scale_density(model, l))


def test_drifted_bm_basis_matches_exponential_solutions():
    # mu = 1, sig2 = 1, alpha = 1/2: roots -1 +- sqrt2, S'(x) = e^{-2x}
    #   u = e^{-x} sinh(sqrt2 x)/sqrt2,  v = e^{-x}(cosh(sqrt2 x) + sinh(sqrt2 x)/sqrt2)
    m = drifted_brownian(mu=1.0, sigma_sq=1.0)
    ep = batch_endpoints(m, 0.5, np.zeros(RS.size), RS)
    q = math.sqrt(2.0)
    sh, ch = np.sinh(q * RS), np.cosh(q * RS)
    assert_allclose(_true(ep, "u_r"), np.exp(-RS) * sh / q, rtol=1e-9)
    assert_allclose(_true(ep, "v_r"), np.exp(-RS) * (ch + sh / q), rtol=1e-9)
    # scale derivative u' / S' = u' e^{2r}
    assert_allclose(_true(ep, "up_r") * np.exp(2.0 * RS),
                    np.exp(RS) * (ch - sh / q), rtol=1e-9)
    # log S'(r) / S'(0) = -2 r
    assert_allclose(ep.log_w, -2.0 * RS, rtol=1e-14)


def test_initial_conditions_and_wronskian_normalization():
    m = drifted_brownian(mu=-0.4, sigma_sq=1.7)
    l, h = -0.5, 1e-7
    # u(l) = 0, u'(l) = 1, v(l) = 1, v'(l) = 0, seen on a window of length h
    short = batch_endpoints(m, 0.8, np.array([l]), np.array([l + h]))
    assert_allclose(_true(short, "u_r")[0] / h, 1.0, rtol=1e-6)
    assert_allclose(_true(short, "up_r")[0], 1.0, rtol=1e-6)
    assert_allclose(_true(short, "v_r")[0], 1.0, rtol=1e-12)
    assert_allclose(_true(short, "vp_r")[0], 0.0, atol=1e-6)
    assert_allclose(short.log_w[0], _log_sprime_ratio(m, l, l + h), rtol=1e-6)
    # the Wronskian u'v - uv' starts at 1 and grows to S'(r) / S'(l) =
    # e^{log_w} at every window end
    rs = np.array([-0.1, 0.4, 1.0, 1.5])
    ep = batch_endpoints(m, 0.8, np.full(rs.size, l), rs)
    w = (ep.up_r * ep.v_r - ep.u_r * ep.vp_r) * np.exp(2.0 * ep.lam)
    assert_allclose(w, np.exp(ep.log_w), rtol=1e-8)
    assert_allclose(ep.log_w, _log_sprime_ratio(m, l, rs), rtol=1e-8)


@pytest.mark.parametrize("make,lo", [
    (lambda: brownian(), -2.0),
    (lambda: drifted_brownian(mu=1.5, sigma_sq=0.8), -2.0),
    (lambda: geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09), 0.5),
    (lambda: ornstein_uhlenbeck(theta=1.0), -2.0),
])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 5.0, 50.0])
def test_wronskian_drift_across_models_and_alphas(make, lo, alpha):
    ep = batch_endpoints(make(), alpha, np.array([lo]), np.array([lo + 3.0]))
    assert ep.w_drift <= 1e-8


def test_long_window_wronskian():
    ep = batch_endpoints(brownian(), 50.0, np.array([-5.0]), np.array([5.0]))
    assert ep.w_drift <= 1e-8


def test_renormalization_kicks_in_and_quotients_survive():
    """alpha large enough that raw solutions overflow without rescaling:
    BM with alpha = 1000 on a length-10 window grows like e^{447}."""
    ep = batch_endpoints(brownian(), 1000.0, np.array([0.0]), np.array([10.0]))
    assert ep.lam[0] > 0.0   # the exponent carry took over
    assert math.isfinite(ep.u_r[0])
    k = math.sqrt(2000.0)
    # u = sinh(k x)/k, so log u(10) = 10k - log(2k) to machine accuracy
    assert_allclose(ep.lam[0] + math.log(ep.u_r[0]), 10.0 * k - math.log(2.0 * k),
                    rtol=1e-12)
    # u'(r)/u(r) = k coth(10 k) = k to machine accuracy
    assert_allclose(ep.up_r[0] / ep.u_r[0], k, rtol=1e-9)
    assert ep.w_drift <= 1e-7


def test_batch_endpoints_agree_with_single_solves():
    m = drifted_brownian(mu=1.0)
    zs = np.linspace(0.5, 4.0, 8)
    out = batch_endpoints(m, 0.5, zs - 1.0, zs)
    for i, z in enumerate(zs):
        one = batch_endpoints(m, 0.5, np.array([z - 1.0]), np.array([z]))
        assert_allclose(_true(out, "u_r")[i], _true(one, "u_r")[0], rtol=1e-9)
        cb = out.up_r[i] / out.u_r[i]
        cs = one.up_r[0] / one.u_r[0]
        assert_allclose(cb, cs, rtol=1e-9)
        assert_allclose(out.log_w[i], one.log_w[0], rtol=1e-9)
    assert out.w_drift <= 1e-8


@pytest.mark.parametrize("model", [brownian(), ornstein_uhlenbeck(theta=1.0)],
                         ids=["bm", "ou"])
def test_mixed_alpha_batch_matches_one_alpha_solves(model):
    # one alpha per window: every row agrees with its own one-alpha solve
    # to the batch's certificate, each component against its solution pair
    l = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, -2.0])
    r = l + np.array([1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
    alpha = np.array([0.3, 5.0, 40.0, 0.01, 2.0, 12.0])
    out = batch_endpoints(model, alpha, l, r)
    for i in range(l.size):
        one = batch_endpoints(model, alpha[i], l[i:i + 1], r[i:i + 1])
        got = np.array([getattr(out, f)[i] for f in ("u_r", "up_r", "v_r", "vp_r")])
        want = np.array([getattr(one, f)[0] for f in ("u_r", "up_r", "v_r", "vp_r")])
        got *= math.exp(out.lam[i] - one.lam[0])
        pair = np.repeat(np.maximum(np.abs(want[::2]), np.abs(want[1::2])), 2)
        assert np.all(np.abs(got - want) <= out.endpoint_gap * pair)
        assert_allclose(out.log_w[i], one.log_w[0], rtol=0, atol=1e-12)


def test_settings_validation_and_window_checks():
    m = brownian()
    one, zero = np.array([1.0]), np.array([0.0])
    for rel_tol in (0.0, 1e-3):
        with pytest.raises(ValidationError, match="rel_tol"):
            batch_endpoints(m, 0.5, zero, one, rel_tol=rel_tol)
    with pytest.raises(ValidationError):
        batch_endpoints(m, 0.5, one, zero)
    with pytest.raises(ValidationError):
        batch_endpoints(m, -1.0, zero, one)
    with pytest.raises(ValidationError):
        batch_endpoints(m, 0.5, np.array([0.0, 0.5]), one)
    with pytest.raises(ValidationError):
        batch_endpoints(m, 1.0, ["a"], [1.0])
    # an alpha array: one finite alpha > 0 per window
    two, three = np.array([0.0, 0.5]), np.array([1.0, 1.5])
    for alpha in ([0.5, True], np.array([True, True]), [0.5, math.nan], [0.5, 0.0],
                  [0.5, -1.0], [0.5], [0.5, 1.0, 2.0], [[0.5, 1.0]], [0.5, [1.0]]):
        with pytest.raises(ValidationError):
            batch_endpoints(m, alpha, two, three)
    g = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2)
    with pytest.raises(DomainError, match="batch_endpoints"):
        batch_endpoints(g, 0.5, np.array([-0.5]), one)
    # sigma^2 = 1 - 0.01 x^2 is negative on [11, 12]
    c = custom_model({"form": "constant", "value": 0.0},
                     {"form": "quadratic", "c0": 1.0, "c1": 0.0, "c2": -0.01})
    with pytest.raises(NumericError, match="diffusion_sq non-positive"):
        batch_endpoints(c, 0.5, np.array([11.0]), np.array([12.0]))


def test_step_budget_exhaustion_reports():
    # 200,000 panels of degree 12 pass the cap of 2,000,000 panel nodes
    with pytest.raises(NumericError, match="window too stiff"):
        batch_endpoints(brownian(), 2e8, np.array([0.0]), np.array([10.0]))


def test_multi_panel_product_matches_closed_forms():
    # BM, alpha = 50 on [-5, 5]: u = sinh(10 (x + 5)) / 10 over 100 panels
    ep = batch_endpoints(brownian(), 50.0, np.array([-5.0]), np.array([5.0]))
    assert ep.n_steps >= 100 * 8
    assert_allclose(ep.lam[0] + math.log(ep.u_r[0]),
                    100.0 - math.log(20.0) + math.log1p(-math.exp(-200.0)),
                    rtol=1e-12)
    # drifted BM: y'' = a y + b y' with a = 2 alpha / s2, b = -2 mu / s2 has
    # roots p, q, and both solutions are combinations of e^{p s}, e^{q s}
    mu, s2, alpha, l = 1.0, 0.8, 3.0, -1.0
    m = drifted_brownian(mu=mu, sigma_sq=s2)
    rs = l + np.array([0.3, 1.2, 2.5, 4.0])
    ep = batch_endpoints(m, alpha, np.full(rs.size, l), rs)
    assert ep.n_steps > 2 * 12    # several panels per window
    d = math.sqrt(mu * mu + 2.0 * alpha * s2) / s2
    p, q = -mu / s2 + d, -mu / s2 - d
    s = rs - l

    def sol(y0, yp0):
        cp, cq = (yp0 - q * y0) / (p - q), (p * y0 - yp0) / (p - q)
        return (cp * np.exp(p * s) + cq * np.exp(q * s),
                cp * p * np.exp(p * s) + cq * q * np.exp(q * s))

    u, up = sol(0.0, 1.0)
    v, vp = sol(1.0, 0.0)
    for name, want in (("u_r", u), ("up_r", up), ("v_r", v), ("vp_r", vp)):
        assert_allclose(_true(ep, name), want, rtol=1e-12)
    assert_allclose(ep.log_w, -2.0 * mu / s2 * s, rtol=1e-12)
    assert ep.w_drift <= 1e-12


def _sequential_rk4(model, alpha, l, r, n):
    """Classical RK4 on (u, u', v, v') for one window, one step at a time;
    returns the state at r."""
    h = (r - l) / n

    def f(x, y):
        mu, s2 = float(model.drift(x)), float(model.diffusion_sq(x))
        return np.array([y[1], 2.0 / s2 * (alpha * y[0] - mu * y[1]),
                         y[3], 2.0 / s2 * (alpha * y[2] - mu * y[3])])

    y = np.array([0.0, 1.0, 1.0, 0.0])
    for j in range(n):
        x = l + j * h
        k1 = f(x, y)
        k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(x + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.mark.parametrize("make", [
    lambda: drifted_brownian(mu=1.0, sigma_sq=0.8),
    lambda: ornstein_uhlenbeck(theta=1.0),
])
@pytest.mark.parametrize("n_windows", [1, 3])
def test_step_matrix_product_matches_sequential_rk4(make, n_windows):
    # the pairwise product of panel maps, with its power-of-two carry,
    # against the same panel maps applied one at a time and against an
    # independent sequential RK4 loop
    m = make()
    n, alpha = 16, 3.0
    l = np.linspace(-1.0, 0.5, n_windows)
    r = l + 1.2
    panels = np.array([6, 3, 11])[:n_windows]
    y0 = np.zeros((2, 2, n_windows))
    y0[1, 0] = 1.0
    y0[0, 1] = 1.0
    out = basis._sweep(m, alpha, l, r, y0, panels, n)
    assert out["drift"] <= 1e-12
    for i in range(n_windows):
        got = out["y"][i] * math.exp(out["lam"][i])
        h = (r[i] - l[i]) / panels[i]
        state = y0[:, :, i]
        for j in range(panels[i]):
            one = basis._sweep(m, alpha, np.array([l[i] + j * h]),
                               np.array([l[i] + (j + 1) * h]),
                               np.eye(2)[:, :, None], np.array([1]), n)
            state = (one["y"][0].reshape(2, 2).T * math.exp(one["lam"][0])) @ state
        assert_allclose(got, state.T.ravel(), rtol=1e-12)
        assert_allclose(got, _sequential_rk4(m, alpha, l[i], r[i], 2048), rtol=1e-10)
        assert_allclose(out["log_w"][i], _log_sprime_ratio(m, l[i], r[i]),
                        rtol=0, atol=1e-12)


def test_batch_spanning_several_blocks_matches_single_windows():
    m = drifted_brownian(mu=1.0)
    zs = np.linspace(0.5, 4.0, 40)
    lengths = np.geomspace(0.05, 30.0, zs.size)   # 1 to 222 panels at alpha 20
    out = batch_endpoints(m, 20.0, zs - lengths, zs)
    panels = basis._panel_counts(m, 20.0, zs - lengths, zs, 10**9)
    assert panels.min() == 1
    assert panels.max() > 2 * (basis._BLOCK_NODES // (zs.size * 9))
    for i, z in enumerate(zs):
        one = batch_endpoints(m, 20.0, np.array([z - lengths[i]]), np.array([z]))
        for name in ("u_r", "up_r", "v_r", "vp_r"):
            assert_allclose(getattr(out, name)[i] * math.exp(out.lam[i]),
                            getattr(one, name)[0] * math.exp(one.lam[0]),
                            rtol=1e-12)


def test_degree_ladder_at_its_rounding_floor_raises():
    g = geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09)
    args = (g, 12.5, np.array([0.7]), np.array([1.0]))
    assert batch_endpoints(*args).endpoint_gap <= 1e-10
    with pytest.raises(NumericError, match="rounding floor"):
        batch_endpoints(*args, rel_tol=1e-17)


def _reference_endpoints(model, alpha, l, r):
    """(y, lam) of every window on twice the solver's panels at degree 64."""
    panels = 2 * basis._panel_counts(model, alpha, l, r, 10**9)
    y0 = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None], (2, 2, l.size))
    ref = basis._sweep(model, alpha, l, r, y0, panels, 64)
    return ref["y"], ref["lam"]


@pytest.mark.parametrize("model,lo", [
    (brownian(), -1.5),
    (drifted_brownian(mu=-3.0), -1.5),
    (geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.04), 0.1),
    (geometric_brownian(mu_bar=-0.2, sigma_bar_sq=0.5), 0.1),
    (ornstein_uhlenbeck(theta=3.0), -1.5),
], ids=["bm", "dbm-3", "gbm", "gbm-0.2", "ou3"])
def test_endpoint_gap_bounds_the_error(model, lo):
    """Each window's tail certificate, plus its rounding, bounds the
    endpoint error of every component against its solution pair, from
    alpha 1e-4 to 2000 and tolerances 1e-6 to 1e-12, also where the error
    is rounding alone; tight GBM windows at alpha >= 500 are still
    answered."""
    for delta in (0.05, 3.0):
        r = lo + delta + np.array([0.0, 0.3, 0.9, 1.9, 3.9])
        l = r - delta
        for alpha in (1e-4, 5.0, 500.0, 2000.0):
            y, lam = _reference_endpoints(model, alpha, l, r)
            want = y.reshape(-1, 2, 2)
            pair = np.abs(want).max(axis=2, keepdims=True)
            for tol in (1e-6, 1e-12):
                ep = batch_endpoints(model, alpha, l, r, rel_tol=tol)
                got = np.stack([ep.u_r, ep.up_r, ep.v_r, ep.vp_r], axis=1)
                got = (got * np.exp(ep.lam - lam)[:, None]).reshape(-1, 2, 2)
                err = np.max(np.abs(got - want) / pair)
                assert err <= ep.endpoint_gap, (delta, alpha, tol, err, ep.endpoint_gap)


_TWIN = custom_model({"form": "affine", "intercept": 0.0, "slope": -1.0},
                     {"form": "constant", "value": 1.0}, model_id="ou_twin")


@pytest.mark.parametrize("model,x0,delta", [
    (brownian(), 0.0, 1.0),
    (drifted_brownian(mu=1.0), 0.0, 1.0),
    (geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.04), 1.0, 0.5),
    (ornstein_uhlenbeck(theta=1.0), 0.0, 1.0),
    (_TWIN, 0.0, 1.0),
], ids=["bm", "dbm", "gbm", "ou", "twin"])
@pytest.mark.parametrize("alpha", [0.2, 1.5])
def test_window_solve_makes_one_sweep(monkeypatch, model, x0, delta, alpha):
    """The drawdown windows [z - delta, z] of b_factor and c_hat at the
    default tol: one degree-12 sweep per solve, accepted on its own tail."""
    sweeps, sweep = [], basis._sweep

    def counted(*args):
        sweeps.append(args[-1])       # the degree
        return sweep(*args)

    monkeypatch.setattr(basis, "_sweep", counted)
    zs = x0 + np.array([0.2, 0.7, 1.2, 1.7])
    for z in zs:
        batch_endpoints(model, alpha, np.array([z - delta]), np.array([z]))
    batch_endpoints(model, alpha, zs - delta, zs)
    assert sweeps == [12] * (zs.size + 1)


def test_panel_iteration_cap_raises_numeric_error(monkeypatch):
    monkeypatch.setattr(basis, "_PICARD_MAX", 2)
    with pytest.raises(NumericError, match="did not converge"):
        batch_endpoints(ornstein_uhlenbeck(theta=1.0), 0.5, np.array([0.0]),
                        np.array([1.0]))


def test_basis_reads_no_scale():
    """The solver works from drift and diffusion_sq alone: basis.py takes
    nothing from the models module but the DiffusionModel type and the
    interior check, which reads only the interval."""
    path = Path(basis.__file__)
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(
                p for p in ("ddkit", node.module) if p)
            names += [f"{base}.{a.name}" for a in node.names]
    assert [n for n in names if n.startswith("ddkit.models")] == [
        "ddkit.models.DiffusionModel", "ddkit.models._require_interior"]
