"""Window solver against elementary solutions at several window ends, a
sequential RK4 loop, Wronskian conservation and the exponent carry."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddkit import (
    NumericError,
    ValidationError,
    brownian,
    drifted_brownian,
    geometric_brownian,
    ornstein_uhlenbeck,
)
from ddkit import basis
from ddkit.basis import OdeSettings, batch_endpoints
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
    assert_allclose(ep.sprime_r, np.exp(-2.0 * RS), rtol=1e-14)


def test_initial_conditions_and_wronskian_normalization():
    m = drifted_brownian(mu=-0.4, sigma_sq=1.7)
    l, h = -0.5, 1e-7
    # u(l) = 0, u'(l) = S'(l), v(l) = 1, v'(l) = 0, seen on a window of length h
    short = batch_endpoints(m, 0.8, np.array([l]), np.array([l + h]))
    assert_allclose(short.sprime_l[0], scale_density(m, l), rtol=1e-15)
    assert_allclose(_true(short, "u_r")[0] / h, short.sprime_l[0], rtol=1e-6)
    assert_allclose(_true(short, "up_r")[0], short.sprime_l[0], rtol=1e-6)
    assert_allclose(_true(short, "v_r")[0], 1.0, rtol=1e-12)
    assert_allclose(_true(short, "vp_r")[0], 0.0, atol=1e-6)
    # the scale Wronskian (u'v - uv') / S' stays +1 at every window end
    rs = np.array([-0.1, 0.4, 1.0, 1.5])
    ep = batch_endpoints(m, 0.8, np.full(rs.size, l), rs)
    w = (ep.up_r * ep.v_r - ep.u_r * ep.vp_r) / ep.sprime_r * np.exp(2.0 * ep.lam)
    assert_allclose(w, 1.0, rtol=1e-8)


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
        cb = out.up_r[i] / (out.u_r[i] * out.sprime_r[i])
        cs = one.up_r[0] / (one.u_r[0] * one.sprime_r[0])
        assert_allclose(cb, cs, rtol=1e-9)
    assert out.w_drift <= 1e-8


def test_settings_validation_and_window_checks():
    with pytest.raises(ValidationError):
        OdeSettings(rel_tol=0.0)
    with pytest.raises(ValidationError):
        OdeSettings(rel_tol=1e-3)
    with pytest.raises(ValidationError):
        OdeSettings(max_steps=10)
    m = brownian()
    one, zero = np.array([1.0]), np.array([0.0])
    with pytest.raises(ValidationError):
        batch_endpoints(m, 0.5, one, zero)
    with pytest.raises(ValidationError):
        batch_endpoints(m, -1.0, zero, one)
    with pytest.raises(ValidationError):
        batch_endpoints(m, 0.5, np.array([0.0, 0.5]), one)
    g = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2)
    with pytest.raises(ValidationError):
        batch_endpoints(g, 0.5, np.array([-0.5]), one)


def test_step_budget_exhaustion_reports():
    with pytest.raises(NumericError):
        batch_endpoints(brownian(), 1e6, np.array([0.0]), np.array([10.0]),
                        settings=OdeSettings(max_steps=2000))


def _sequential_rk4(model, alpha, l, r, n):
    """Classical RK4 on (u, u', v, v') for one window, one step at a time;
    returns the state at every node."""
    h = (r - l) / n

    def f(x, y):
        mu, s2 = float(model.drift(x)), float(model.diffusion_sq(x))
        return np.array([y[1], 2.0 / s2 * (alpha * y[0] - mu * y[1]),
                         y[3], 2.0 / s2 * (alpha * y[2] - mu * y[3])])

    y = np.array([0.0, float(scale_density(model, l)), 1.0, 0.0])
    out = [y]
    for j in range(n):
        x = l + j * h
        k1 = f(x, y)
        k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(x + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("make", [
    lambda: drifted_brownian(mu=1.0, sigma_sq=0.8),
    lambda: ornstein_uhlenbeck(theta=1.0),
])
@pytest.mark.parametrize("n_windows", [1, 3])
def test_step_matrix_product_matches_sequential_rk4(make, n_windows):
    m = make()
    n, alpha = 256, 3.0
    l = np.linspace(-1.0, 0.5, n_windows)
    r = l + 1.2
    y0 = np.zeros((2, 2, n_windows))
    y0[1, 0] = scale_density(m, l)
    y0[0, 1] = 1.0
    out = basis._sweep(m, alpha, l, r, y0, n)
    for i in range(n_windows):
        ref = _sequential_rk4(m, alpha, l[i], r[i], n)
        assert_allclose(out["y"][i] * math.exp(out["lam"][i]), ref[-1], rtol=1e-12)
        for j, xc, logdet in out["checkpoints"]:
            u, up, v, vp = ref[j]
            assert_allclose(xc[i], l[i] + j * (r[i] - l[i]) / n, rtol=1e-15)
            assert_allclose(math.log(scale_density(m, l[i])) + logdet[i],
                            math.log(abs(up * v - u * vp)), rtol=0, atol=1e-12)
    assert [c[0] for c in out["checkpoints"]] == [0, 64, 128, 192, 256]


def test_batch_spanning_several_blocks_matches_single_windows():
    m = drifted_brownian(mu=1.0)
    zs = np.linspace(0.5, 4.0, 40)
    out = batch_endpoints(m, 20.0, zs - 1.0, zs)
    assert zs.size * out.n_steps > 2 * basis._BLOCK_ROW_STEPS
    for i, z in enumerate(zs):
        one = batch_endpoints(m, 20.0, np.array([z - 1.0]), np.array([z]))
        assert one.n_steps == out.n_steps
        for name in ("u_r", "up_r", "v_r", "vp_r"):
            assert_allclose(getattr(out, name)[i] * math.exp(out.lam[i]),
                            getattr(one, name)[0] * math.exp(one.lam[0]),
                            rtol=1e-12)
