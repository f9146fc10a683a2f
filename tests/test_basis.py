"""Window solver against elementary solutions and a sequential RK4 loop,
Wronskian conservation, renormalization bookkeeping, and interpolation
residuals."""

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
from ddkit.basis import (
    OdeSettings,
    batch_endpoints,
    scale_derivative,
    solve_local_basis,
)
from ddkit.models import scale_density

# closed forms on [0, 1]:
#   BM, alpha = 1/2:      u = sinh(x),  v = cosh(x)
#   mu = 1, sig2 = 1, alpha = 1/2:  roots -1 +- sqrt(2)
#       u = e^{-x} sinh(sqrt2 x)/sqrt2,  v = e^{-x}(cosh(sqrt2 x) + sinh(sqrt2 x)/sqrt2)
SINH_1 = 1.1752011936438014
COSH_1 = 1.5430806348152437
SINH_035 = 0.3571897294372719
DBM_U_1 = 0.5033690243900353
DBM_V_1 = 1.304677973964021
DBM_UPLUS_1 = 2.201494821295411     # u'(1) e^{2}
DBM_U_035 = 0.25683609260615164


def test_bm_basis_matches_hyperbolic_solutions():
    m = brownian()
    basis = solve_local_basis(m, alpha=0.5, l=0.0, r=1.0)
    assert basis.wronskian_ref == 1.0
    assert_allclose(basis.u.value(1.0), SINH_1, rtol=1e-9)
    assert_allclose(basis.v.value(1.0), COSH_1, rtol=1e-9)
    # dense interior evaluation through the quintic interpolant
    assert_allclose(basis.u.value(0.35), SINH_035, rtol=1e-8)
    # scale derivative: S' = 1, so u+ = u' = cosh
    assert_allclose(scale_derivative(m, basis.u, 1.0), COSH_1, rtol=1e-9)
    assert_allclose(scale_derivative(m, basis.v, 0.0), 0.0, atol=1e-12)


def test_drifted_bm_basis_matches_exponential_solutions():
    m = drifted_brownian(mu=1.0, sigma_sq=1.0)
    basis = solve_local_basis(m, alpha=0.5, l=0.0, r=1.0)
    assert_allclose(basis.u.value(1.0), DBM_U_1, rtol=1e-9)
    assert_allclose(basis.v.value(1.0), DBM_V_1, rtol=1e-9)
    assert_allclose(basis.u.value(0.35), DBM_U_035, rtol=1e-8)
    assert_allclose(scale_derivative(m, basis.u, 1.0), DBM_UPLUS_1, rtol=1e-9)


def test_initial_conditions_and_wronskian_normalization():
    m = drifted_brownian(mu=-0.4, sigma_sq=1.7)
    basis = solve_local_basis(m, alpha=0.8, l=-0.5, r=1.5)
    assert_allclose(basis.u.value(-0.5), 0.0, atol=1e-14)
    assert_allclose(basis.v.value(-0.5), 1.0, rtol=1e-12)
    # u has unit scale slope at l, so the scale Wronskian starts at +1
    assert_allclose(scale_derivative(m, basis.u, -0.5), 1.0, rtol=1e-10)
    for x in (-0.5, -0.1, 0.4, 1.0, 1.5):
        assert_allclose(basis.wronskian(x), 1.0, rtol=1e-8)


@pytest.mark.parametrize("make,lo", [
    (lambda: brownian(), -2.0),
    (lambda: drifted_brownian(mu=1.5, sigma_sq=0.8), -2.0),
    (lambda: geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09), 0.5),
    (lambda: ornstein_uhlenbeck(theta=1.0), -2.0),
])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 5.0, 50.0])
def test_wronskian_drift_across_models_and_alphas(make, lo, alpha):
    m = make()
    basis = solve_local_basis(m, alpha=alpha, l=lo, r=lo + 3.0)
    assert basis.wronskian_drift() <= 1e-8
    assert basis.meta["w_drift"] <= 1e-8


def test_long_window_wronskian():
    m = brownian()
    basis = solve_local_basis(m, alpha=50.0, l=-5.0, r=5.0)
    assert basis.wronskian_drift() <= 1e-8


def test_interpolation_residual_stays_small():
    rng = np.random.default_rng(7)
    for make, lo in ((lambda: brownian(), -1.0),
                     (lambda: drifted_brownian(mu=0.7), -1.0),
                     (lambda: geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.4), 0.6)):
        m = make()
        basis = solve_local_basis(m, alpha=2.0, l=lo, r=lo + 1.0)
        xs = rng.uniform(lo, lo + 1.0, size=64)
        assert np.max(basis.residual(xs)) <= 1e-7


def test_renormalization_kicks_in_and_quotients_survive():
    """alpha large enough that raw solutions overflow without rescaling:
    BM with alpha = 1000 on a length-10 window grows like e^{447}."""
    m = brownian()
    basis = solve_local_basis(m, alpha=1000.0, l=0.0, r=10.0)
    u_r, lg = basis.u.value_scaled(10.0)
    assert lg > 0.0          # at least one renormalization happened
    assert math.isfinite(u_r)
    k = math.sqrt(2000.0)
    # u'(r)/u(r) -> k coth(10 k) = k to machine accuracy
    ur, _ = basis.u.value_scaled(10.0)
    upr = basis._ys[-1, 1]
    assert_allclose(upr / ur, k, rtol=1e-9)
    assert basis.wronskian_drift() <= 1e-7


def test_batch_endpoints_agree_with_single_solves():
    m = drifted_brownian(mu=1.0)
    zs = np.linspace(0.5, 4.0, 8)
    out = batch_endpoints(m, 0.5, zs - 1.0, zs)
    for i, z in enumerate(zs):
        basis = solve_local_basis(m, 0.5, float(z - 1.0), float(z))
        ur_b = out.u_r[i] * math.exp(out.lam[i])
        assert_allclose(ur_b, basis.u.value(float(z)), rtol=1e-9)
        cb = out.up_r[i] / (out.u_r[i] * out.sprime_r[i])
        cs = scale_derivative(m, basis.u, float(z)) / basis.u.value(float(z))
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
    with pytest.raises(ValidationError):
        solve_local_basis(m, alpha=0.5, l=1.0, r=0.0)
    with pytest.raises(ValidationError):
        solve_local_basis(m, alpha=-1.0, l=0.0, r=1.0)
    g = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2)
    with pytest.raises(ValidationError):
        solve_local_basis(g, alpha=0.5, l=-0.5, r=1.0)


def test_step_budget_exhaustion_reports():
    m = brownian()
    with pytest.raises(NumericError):
        solve_local_basis(m, alpha=1e6, l=0.0, r=10.0,
                          settings=OdeSettings(max_steps=2000))


def test_normalization_rescales_but_preserves_quotients():
    m = brownian()
    plain = solve_local_basis(m, 0.5, 0.0, 1.0)
    norm = solve_local_basis(m, 0.5, 0.0, 1.0,
                             settings=OdeSettings(normalization=1.0))
    mag = max(abs(norm.u.value_scaled(1.0)[0]), abs(norm.v.value_scaled(1.0)[0]))
    assert_allclose(mag, 1.0, rtol=1e-12)
    # true values are unchanged: the factor sits in the log channel
    assert_allclose(norm.u.value(1.0), plain.u.value(1.0), rtol=1e-12)
    assert_allclose(norm.v.value(0.3), plain.v.value(0.3), rtol=1e-10)


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


def test_dense_basis_spanning_several_blocks_matches_endpoints():
    m = ornstein_uhlenbeck(theta=1.0)
    dense = solve_local_basis(m, 50.0, -1.0, 2.0)
    assert dense.meta["n_steps"] > 2 * basis._BLOCK_ROW_STEPS
    ep = batch_endpoints(m, 50.0, np.array([-1.0]), np.array([2.0]))
    assert ep.n_steps == dense.meta["n_steps"]
    end = dense.endpoint_data()
    scale = math.exp(end["lam_r"] - ep.lam[0])
    assert_allclose(end["r"][0] * scale, ep.u_r[0], rtol=1e-12)
    assert_allclose(end["r"][1] * scale, ep.up_r[0], rtol=1e-12)
