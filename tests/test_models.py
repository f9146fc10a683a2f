"""Scale structure of the catalog models against closed forms and
quadrature, the custom models' log-scale table against the same closed
forms, and query validation."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from ddkit import models
from ddkit import (
    DomainError,
    DrawdownQuery,
    NumericError,
    ScaleMap,
    SpeedDensity,
    ValidationError,
    brownian,
    custom_model,
    drifted_brownian,
    exit_probability,
    geometric_brownian,
    joint_transform,
    max_tail,
    model_from_dict,
    model_from_json,
    nu,
    ornstein_uhlenbeck,
    scale,
    scale_density,
    scale_diff,
    tail_curve,
    validate_query,
)

REL = 1e-9

# values frozen from the elementary antiderivatives
DBM_SPRIME_1 = 0.1353352832366127          # e^{-2}
DBM_S_1 = 0.43233235838169365              # (1 - e^{-2})/2
GBM_HALF_SPRIME_2 = 0.7071067811865476     # 2^{-1/2}
OU_SPRIME_1 = 2.718281828459045            # e^{1}
OU_S_1 = 1.4626517459071815                # (sqrt(pi)/2) erfi(1)


def test_bm_is_in_natural_scale():
    m = brownian()
    assert scale_density(m, 3.7) == 1.0
    assert_allclose(scale(m, -2.5), -2.5, rtol=REL)
    xs = np.linspace(-4, 4, 9)
    assert_allclose(scale(m, xs), xs, rtol=REL)


def test_drifted_bm_closed_forms():
    m = drifted_brownian(mu=1.0, sigma_sq=1.0)
    assert_allclose(scale_density(m, 1.0), DBM_SPRIME_1, rtol=REL)
    assert_allclose(scale(m, 1.0), DBM_S_1, rtol=REL)
    # S(b) - S(a) consistent with direct quadrature of S'
    val, _ = integrate.quad(lambda u: scale_density(m, u), -1.0, 2.0,
                            epsabs=1e-13, epsrel=1e-12)
    assert_allclose(scale_diff(m, -1.0, 2.0), val, rtol=REL)


def test_gbm_closed_forms():
    m = geometric_brownian(mu_bar=0.25, sigma_bar_sq=1.0)  # p = 1/2
    assert_allclose(scale_density(m, 2.0), GBM_HALF_SPRIME_2, rtol=REL)
    assert_allclose(scale(m, 4.0), 2.0, rtol=REL)          # 2 (sqrt(x) - 1)
    m1 = geometric_brownian(mu_bar=0.5, sigma_bar_sq=1.0)  # p = 1, log scale
    assert_allclose(scale(m1, math.e), 1.0, rtol=REL)


def test_ou_closed_forms():
    m = ornstein_uhlenbeck(theta=1.0, mean=0.0, sigma_sq=1.0)
    assert_allclose(scale_density(m, 1.0), OU_SPRIME_1, rtol=REL)
    assert_allclose(scale(m, 1.0), OU_S_1, rtol=REL)
    assert_allclose(scale(m, -1.0), -OU_S_1, rtol=REL)     # odd around the mean


@pytest.mark.parametrize("make", [
    lambda: brownian(sigma_sq=2.0),
    lambda: drifted_brownian(mu=-0.7, sigma_sq=1.3),
    lambda: geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09),
    lambda: ornstein_uhlenbeck(theta=0.8, mean=0.4, sigma_sq=1.5),
])
def test_catalog_scale_matches_quadrature(make):
    """Closed-form S agrees with direct quadrature of the closed-form S',
    and closed-form S' agrees with exp(-int 2 mu / sigma_sq)."""
    m = make()
    lo = 0.5 if m.kind == "gbm" else -1.5
    hi = 2.5
    val, _ = integrate.quad(lambda u: scale_density(m, u), lo, hi,
                            epsabs=1e-13, epsrel=1e-12)
    assert_allclose(scale_diff(m, lo, hi), val, rtol=1e-10)
    assert_allclose(scale_diff(m, hi, lo), -scale_diff(m, lo, hi), rtol=1e-14)
    for x in (lo, 1.2, hi):
        lsp, _ = integrate.quad(lambda u: 2 * float(m.drift(u)) / float(m.diffusion_sq(u)),
                                m.scale_ref, x, epsabs=1e-13, epsrel=1e-12)
        assert_allclose(scale_density(m, x), math.exp(-lsp), rtol=1e-10)


@pytest.mark.parametrize("make", [
    lambda: drifted_brownian(mu=0.6, sigma_sq=0.9),
    lambda: geometric_brownian(mu_bar=0.2, sigma_bar_sq=0.5),
    lambda: ornstein_uhlenbeck(theta=1.2, mean=-0.3, sigma_sq=0.7),
])
def test_scale_density_is_derivative_of_scale(make):
    m = make()
    h = 1e-4
    for x in (0.8, 1.6, 2.4):
        fd = (scale_diff(m, x - h, x + h)) / (2 * h)
        assert_allclose(fd, scale_density(m, x), rtol=1e-6)


def test_scale_is_strictly_increasing_on_random_models():
    rng = np.random.default_rng(20260817)
    for _ in range(25):
        kind = rng.integers(0, 4)
        if kind == 0:
            m = brownian(sigma_sq=float(rng.uniform(0.2, 3.0)))
        elif kind == 1:
            m = drifted_brownian(mu=float(rng.uniform(-2, 2)),
                                 sigma_sq=float(rng.uniform(0.2, 3.0)))
        elif kind == 2:
            m = geometric_brownian(mu_bar=float(rng.uniform(-1, 1)),
                                   sigma_bar_sq=float(rng.uniform(0.1, 1.0)))
        else:
            m = ornstein_uhlenbeck(theta=float(rng.uniform(0.1, 3.0)),
                                   mean=float(rng.uniform(-1, 1)),
                                   sigma_sq=float(rng.uniform(0.2, 3.0)))
        lo = 0.3 if m.kind == "gbm" else -3.0
        xs = np.linspace(lo, 3.0, 41)
        svals = scale(m, xs)
        assert np.all(np.diff(svals) > 0)
        assert np.all(np.asarray(scale_density(m, xs)) > 0)


def test_custom_model_matches_catalog_twin():
    """A custom affine-drift constant-diffusion model must reproduce the
    drifted BM scale through the quadrature path."""
    cm = custom_model({"form": "constant", "value": 1.0},
                      {"form": "constant", "value": 1.0})
    tw = drifted_brownian(mu=1.0, sigma_sq=1.0)
    for x in (-1.0, 0.5, 1.0, 2.0):
        assert_allclose(scale_density(cm, x), scale_density(tw, x), rtol=1e-9)
        assert_allclose(scale(cm, x), scale(tw, x), rtol=1e-9, atol=1e-12)


def test_custom_ou_twin_through_quadrature():
    cm = custom_model({"form": "affine", "intercept": 0.0, "slope": -1.0},
                      {"form": "constant", "value": 1.0})
    tw = ornstein_uhlenbeck(theta=1.0)
    for x in (-1.5, -0.2, 0.9):
        assert_allclose(scale_density(cm, x), scale_density(tw, x), rtol=1e-9)
        assert_allclose(scale(cm, x), scale(tw, x), rtol=1e-9, atol=1e-12)


ARRAY_MODELS = {
    "bm": lambda: brownian(sigma_sq=2.0),
    "drifted_bm": lambda: drifted_brownian(mu=-0.7, sigma_sq=1.3),
    "gbm": lambda: geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09),
    "ou": lambda: ornstein_uhlenbeck(theta=0.8, mean=0.4, sigma_sq=1.5),
    "custom_dbm_twin": lambda: custom_model({"form": "constant", "value": 1.0},
                                            {"form": "constant", "value": 1.0}),
    "custom_ou_twin": lambda: custom_model(
        {"form": "affine", "intercept": 0.0, "slope": -1.0},
        {"form": "constant", "value": 1.0}),
}


@pytest.mark.parametrize("make", ARRAY_MODELS.values(), ids=ARRAY_MODELS.keys())
def test_array_scale_calls_match_scalar_calls(make):
    """Array calls agree elementwise with scalar calls; scalars give floats.
    The custom twins' accuracy against the catalog is checked above."""
    m = make()
    xs = np.linspace(0.5 if m.kind == "gbm" else -1.5, 2.5, 5)
    a, b = xs[:, None], xs[None, :] + 0.25
    sd = scale_density(m, xs)
    assert sd.shape == xs.shape
    assert_allclose(sd, [scale_density(m, float(x)) for x in xs], rtol=1e-14)
    d = scale_diff(m, a, b)
    assert d.shape == (5, 5)
    assert_allclose(d, [[scale_diff(m, float(u), float(v)) for v in b[0]]
                        for u in a[:, 0]], rtol=1e-14)
    assert_allclose(scale(m, xs), [scale(m, float(x)) for x in xs], rtol=1e-14)
    assert type(scale_density(m, 1.0)) is float
    assert type(scale_diff(m, 1.0, 1.5)) is float
    assert type(scale(m, 1.5)) is float


def test_scale_overflow_is_numeric_error():
    # e^{800} overflows in the drifted-BM difference form, erfi(30) in OU's
    with pytest.raises(NumericError):
        nu(drifted_brownian(1.0, 1.0), -400.0, 1.0)
    with pytest.raises(NumericError):
        scale_diff(drifted_brownian(1.0, 1.0), np.array([-1.0, -400.0]), 0.0)
    with pytest.raises(NumericError):
        scale(ornstein_uhlenbeck(theta=1.0), 30.0)


def test_scale_below_the_anchor_where_the_far_term_underflows():
    # x below the anchor puts a > b; the quotient still factors out the end
    # with the larger term, so e^{-720} never multiplies e^{720}
    assert_allclose(scale(drifted_brownian(-1.0), -360.0), -0.5, rtol=1e-14)
    assert_allclose(scale_diff(geometric_brownian(-1.0, 0.01), 1.0, 0.02),
                    -1.0 / 201.0, rtol=1e-14)


def test_scale_density_overflow_is_numeric_error():
    # OU: S'(x) = e^{x^2}, past the float range at x = 30
    ou = ornstein_uhlenbeck(theta=1.0)
    with pytest.raises(NumericError):
        scale_density(ou, 30.0)
    with pytest.raises(NumericError):
        scale_density(ou, np.array([1.0, 30.0]))


def test_custom_scale_overflow_is_numeric_error():
    # constant drift -50: log S'(x) = 100 x passes 709 before x = 20
    m = custom_model({"form": "constant", "value": -50.0},
                     {"form": "constant", "value": 1.0})
    with pytest.raises(NumericError):
        scale_density(m, 20.0)
    with pytest.raises(NumericError):
        scale_diff(m, 19.0, 20.0)


# ---------------------------------------------------------------------------
# erfi, the OU scale
# ---------------------------------------------------------------------------

# erfi to 50 digits (mpmath), across the sinh/Dawson switch at 1.5
ERFI_50 = [
    (1e-8, "1.1283791670955126351173795693108632618825957618319e-8"),
    (0.125, "1.4178547413026538926956112918221668702841737982571e-1"),
    (0.75, "1.0357572844119629678601531216578001863864454988882"),
    (1.4999999999999998, "4.5847332572844245650643629909676925444924275754409"),
    (1.5, "4.584733257284426942221381032382701256662242548352"),
    (1.5000000000000002, "4.5847332572844293193783990737992934735048048363419"),
    (2.0, "1.8564802414575552598704291913241017198858001726083e+1"),
    (3.7, "1.4008722838853635814454597583012721277257181561591e+5"),
    (-0.3, "-3.4894933875893616670067503691976019545652433518741e-1"),
    (-1.5, "-4.584733257284426942221381032382701256662242548352"),
    (-6.125, "-1.8329178470795522276546296168514396752117447545008e+15"),
    (9.99, "1.2493843794925595855881765806913780986911708375037e+42"),
    (17.3, "3.119629698621679238357308346679252926358683151633e+128"),
    (24.0, "3.3512992674583197199971413502750264141236381317124e+248"),
    (26.5, "2.0501652832248793153138725650027498044801979093351e+303"),
]


def test_erfi_against_50_digit_values():
    xs = np.array([x for x, _ in ERFI_50])
    want = np.array([float(v) for _, v in ERFI_50])
    for got in (models._erfi(xs), np.array([models._erfi(x) for x in xs])):
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_erfi_edges():
    got = models._erfi(np.array([0.0, -0.0, 26.7, 26.8, -1e300, np.inf, np.nan]))
    assert got[0] == 0.0 and math.copysign(1.0, got[1]) == -1.0
    assert math.isfinite(got[2])          # erfi(26.7) = 8.5e307
    assert got[3] == got[5] == np.inf and got[4] == -np.inf
    assert math.isnan(got[6])
    assert models._erfi(np.zeros((2, 3))).shape == (2, 3)


# ---------------------------------------------------------------------------
# the log-scale table of custom models
# ---------------------------------------------------------------------------

TABLE_REL = 1e-12
OU_TWIN = ({"form": "affine", "intercept": 0.0, "slope": -1.0},
           {"form": "constant", "value": 1.0})


def _ou_twin():
    return custom_model(*OU_TWIN)


def _power_model(c_mu, p_mu, c_s2, p_s2):
    return custom_model({"form": "power", "coef": c_mu, "exponent": p_mu},
                        {"form": "power", "coef": c_s2, "exponent": p_s2},
                        interval=(0.0, math.inf), scale_ref=1.0)


def _power_scale_diff(p):
    """S(b) - S(a) for S'(x) = x^-p, without cancelling for b near a."""
    q = 1.0 - p
    return lambda a, b: a ** q * np.expm1(q * np.log1p((b - a) / a)) / q


def _gl_scale_diff(sprime):
    """S(b) - S(a) by 8-point Gauss-Legendre on a closed-form S': exact to
    rounding on windows as short as the ones it is used for."""
    t, w = np.polynomial.legendre.leggauss(8)

    def diff(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        h = 0.5 * (b - a)
        return h * (sprime((a + h)[..., None] + h[..., None] * t) @ w)
    return diff


def test_custom_ou_twin_scale_to_closed_forms():
    m, ou = _ou_twin(), ornstein_uhlenbeck(theta=1.0)
    xs = np.linspace(-6.0, 6.0, 97)
    assert_allclose(scale_density(m, xs), np.exp(xs ** 2), rtol=TABLE_REL)
    assert_allclose(scale_diff(m, xs[:-1], xs[1:]), scale_diff(ou, xs[:-1], xs[1:]),
                    rtol=TABLE_REL)
    assert_allclose(scale(m, xs), scale(ou, xs), rtol=TABLE_REL, atol=1e-300)
    far = np.array([20.0, 23.0, 24.49])            # S' up to about e^600
    assert_allclose(scale_density(m, far), np.exp(far ** 2), rtol=TABLE_REL)
    assert_allclose(scale_diff(m, far - 0.5, far), scale_diff(ou, far - 0.5, far),
                    rtol=TABLE_REL)


def test_ou_quotient_matches_the_twin_where_erfi_overflows():
    # erfi(30) is past the float range; the anchor's e^{-k (z-mean)^2}
    # enters erfi's exponent, so quotients anchored at 28 or 30 stay finite
    ou, twin = ornstein_uhlenbeck(theta=1.0), _ou_twin()
    for f in (lambda m: exit_probability(m, 29.0, 28.0, 30.0),
              lambda m: exit_probability(m, -29.0, -30.0, -28.0),
              lambda m: max_tail(m, DrawdownQuery(26.0, 1.0), 28.0)):
        assert_allclose(f(ou), f(twin), rtol=1e-12)


def test_custom_drifted_bm_twin_scale_to_closed_forms():
    m = custom_model({"form": "constant", "value": 1.0}, {"form": "constant", "value": 1.0})
    tw = drifted_brownian(mu=1.0, sigma_sq=1.0)
    xs = np.linspace(-8.0, 8.0, 81)
    assert_allclose(scale_density(m, xs), scale_density(tw, xs), rtol=TABLE_REL)
    assert_allclose(scale_diff(m, xs[:-1], xs[1:]), scale_diff(tw, xs[:-1], xs[1:]),
                    rtol=TABLE_REL)


def test_custom_gbm_from_power_forms_to_closed_forms():
    m = _power_model(0.05, 1.0, 0.09, 2.0)
    g = geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09)
    xs = np.geomspace(0.02, 50.0, 120)
    assert_allclose(scale_density(m, xs), scale_density(g, xs), rtol=TABLE_REL)
    assert_allclose(scale_diff(m, xs[:-1], xs[1:]), scale_diff(g, xs[:-1], xs[1:]),
                    rtol=TABLE_REL)


@pytest.mark.parametrize("c", [0.3, 1.5, 3.0])
def test_custom_bessel_like_drift_to_closed_forms(c):
    # drift c/x, sigma^2 = 1: S'(x) = x^(-2c) with scale_ref 1
    m = _power_model(c, -1.0, 1.0, 0.0)
    xs = np.geomspace(1e-3, 30.0, 120)
    assert_allclose(scale_density(m, xs), xs ** (-2.0 * c), rtol=TABLE_REL)
    assert_allclose(scale_diff(m, xs[:-1], xs[1:]),
                    _power_scale_diff(2.0 * c)(xs[:-1], xs[1:]), rtol=TABLE_REL)


@pytest.mark.parametrize("make, zs, ref", [
    (_ou_twin, np.linspace(-6.0, 6.0, 49), _gl_scale_diff(lambda u: np.exp(u * u))),
    (lambda: custom_model({"form": "constant", "value": 1.0},
                          {"form": "constant", "value": 1.0}),
     np.linspace(-8.0, 8.0, 49),
     lambda a, b: scale_diff(drifted_brownian(mu=1.0, sigma_sq=1.0), a, b)),
    (lambda: _power_model(0.05, 1.0, 0.09, 2.0), np.geomspace(0.02, 50.0, 49),
     lambda a, b: scale_diff(geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09), a, b)),
    (lambda: _power_model(1.5, -1.0, 1.0, 0.0), np.geomspace(2e-3, 30.0, 49),
     _power_scale_diff(3.0)),
], ids=["ou", "drifted_bm", "gbm", "bessel"])
def test_custom_scale_short_windows_do_not_cancel(make, zs, ref):
    m = make()
    assert_allclose(scale_diff(m, zs - 1e-6, zs), ref(zs - 1e-6, zs), rtol=TABLE_REL)


def test_custom_scale_at_a_drift_pole_is_numeric_error():
    # drift 1/x has its pole at the default scale_ref 0
    m = custom_model({"form": "power", "coef": 1.0, "exponent": -1.0},
                     {"form": "constant", "value": 1.0})
    with pytest.raises(NumericError):
        scale_density(m, 1.0)
    with pytest.raises(NumericError):
        scale_diff(m, -1.0, 1.0)


def test_custom_scale_past_a_zero_of_diffusion_sq_is_numeric_error():
    # sigma^2 = 1 - 0.2 x reaches zero at x = 5; up to there S' = (1 - 0.2 x)^5
    m = custom_model({"form": "constant", "value": 0.5},
                     {"form": "affine", "intercept": 1.0, "slope": -0.2})
    assert_allclose(scale_density(m, 4.0), 0.2 ** 5, rtol=TABLE_REL)
    with pytest.raises(NumericError):
        scale_density(m, 6.0)
    with pytest.raises(NumericError):
        scale_diff(m, 4.0, 6.0)


@pytest.mark.parametrize("drift, dsq, kw, x, why", [
    ({"form": "constant", "value": 0.5}, {"form": "affine", "intercept": 1.0, "slope": -0.2},
     {}, 6.0, "2 mu / sigma_sq is not resolved near 5"),
    ({"form": "constant", "value": 0.5}, {"form": "affine", "intercept": 1.0, "slope": -1.0},
     {"interval": (-10.0, 10.0), "scale_ref": -5.0}, 2.0,
     "diffusion_sq non-positive on integration path near 1"),
    ({"form": "power", "coef": 1.0, "exponent": -1.0}, {"form": "constant", "value": 1.0},
     {"scale_ref": 0.0}, 1.0, "2 mu / sigma_sq is not finite near 0"),
], ids=["diffusion_sq_zero_at_5", "diffusion_sq_zero_at_1_in_a_finite_interval",
        "drift_pole_at_ref"])
def test_custom_scale_refusal_names_its_reason(drift, dsq, kw, x, why):
    # the table creeps toward sigma^2 = 0 by ever narrower accepted panels
    # before it refuses; the reason must be the last trial's, never empty
    m = custom_model(drift, dsq, **kw)
    with pytest.raises(NumericError) as err:
        scale_density(m, x)
    assert why in str(err.value)
    assert type(err.value.value) is float and err.value.value == x


def _twin_values(m, order):
    out = {}
    for lo, hi in order:
        xs = np.linspace(lo, hi, 11)
        out[lo] = (scale_density(m, xs), scale_diff(m, xs[:-1], xs[1:]),
                   scale_diff(m, xs - 1e-3, xs), scale_density(m, float(xs[3])),
                   scale_diff(m, float(xs[1]), float(xs[-2])))
    return out


def _assert_bit_identical(u, v):
    assert u.keys() == v.keys()
    for key in u:
        for a, b in zip(u[key], v[key]):
            assert np.array_equal(a, b)


def test_custom_scale_does_not_depend_on_query_order():
    first = _twin_values(_ou_twin(), [(5.0, 6.0), (0.0, 1.0)])
    second = _twin_values(_ou_twin(), [(0.0, 1.0), (5.0, 6.0)])
    _assert_bit_identical(first, second)


def test_custom_scale_from_threads_matches_one_thread():
    order = [(-3.0, -2.0), (0.0, 1.0), (2.5, 4.0), (-5.0, -4.0), (5.0, 6.0)]
    want = _twin_values(_ou_twin(), order)
    m = _ou_twin()
    start = threading.Barrier(4)
    got = [None] * 4

    def worker(i):
        start.wait(timeout=30)
        got[i] = _twin_values(m, order[i % 2:] + order[:i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g in got:
        _assert_bit_identical(g, want)


def test_custom_scale_table_anchored_far_from_zero():
    """scale_ref = 2e12: the first trial width is max(1, 1e-6 |scale_ref|),
    so the table does not creep out from there by unit panels.  A GBM-like
    model has S' = (x / ref)^(-2 mu / sigma^2), and a constant g = 2e-3
    has S' = e^(-g (x - ref))."""
    ref = 2e12
    gbm = custom_model({"form": "affine", "intercept": 0.0, "slope": 0.05},
                       {"form": "quadratic", "c0": 0.0, "c1": 0.0, "c2": 0.09},
                       interval=(0.0, math.inf), scale_ref=ref)
    xs = np.array([1e12, ref + 5.0, 7e12])
    assert_allclose(scale_density(gbm, xs), (xs / ref) ** (-0.1 / 0.09),
                    rtol=TABLE_REL)
    const = custom_model({"form": "constant", "value": 1e-3},
                         {"form": "constant", "value": 1.0}, scale_ref=ref)
    d = np.array([-3e3, 5.0, 4e3])
    assert_allclose(scale_density(const, ref + d), np.exp(-2e-3 * d), rtol=TABLE_REL)


@pytest.mark.parametrize("interval, ref, x", [
    ((-math.inf, 1.0), None, 1.0 - 1e-13),
    ((-math.inf, math.inf), 2e12, 2e12 + 5.0),
], ids=["next_to_a_finite_end", "off_a_far_scale_ref"])
def test_custom_scale_table_reaches_within_float_spacing(interval, ref, x):
    """Constant g = 1, S' = e^{-(x - ref)}: the panels toward a finite end,
    and those of width 1 (width * |g| <= 1) at 2e12, are narrower than
    1e-12 max(1, |x|) but wider than the width floor 2^-46 max(1, |x|)."""
    m = custom_model({"form": "constant", "value": 0.5},
                     {"form": "constant", "value": 1.0}, interval=interval, scale_ref=ref)
    assert_allclose(scale_density(m, x), math.exp(-(x - m.scale_ref)), rtol=TABLE_REL)


def test_mass_table_first_trial_stays_within_a_few_windows():
    """OU twin from x = -0.5 with delta = 2: nu S' at x is 0.011, so a
    first trial sized to carry mass 2 at that rate alone is 179 wide, and
    the nu S' it evaluates grow the log-scale table out to there (47,788
    panels) before bisection brings the width back.  The first trial is
    at most 8 delta, so the table ends within about x + 16, and the
    value is the catalog OU's."""
    twin = _ou_twin()
    q = DrawdownQuery(-0.5, 2.0, alpha=0.1)
    got = joint_transform(twin, q)
    panels = twin.scale_density_fn.__self__._tab[0].edges.size - 1
    assert panels <= 400
    want = joint_transform(ornstein_uhlenbeck(1.0), q)
    assert abs(got.value - want.value) <= got.abs_error_estimate


def test_custom_scale_table_work_stays_bounded(monkeypatch):
    """Points at which one tail curve of a fresh OU twin evaluates the
    drift: a count, so it cannot flake.  650 (26 panel trials of 25
    points) when the table was grown one panel at a time, against 121,947
    for per-point nested quadrature; panels that stop growing would blow
    this bound."""
    points = []
    build = models._build_form

    def counted(doc, role):
        f = build(doc, role)
        if role != "drift":
            return f

        def drift(x):
            points.append(np.size(x))
            return f(x)
        return drift

    monkeypatch.setattr(models, "_build_form", counted)
    tail_curve(_ou_twin(), DrawdownQuery(0.0, 1.0), np.linspace(0.2, 2.4, 12))
    assert 0 < sum(points) <= 2 * 650


def test_custom_scale_grows_to_a_singular_finite_endpoint(monkeypatch):
    """sigma^2 = 1 - x on ]-inf, 1[ with drift 1/2: g = 1/(1 - x) is
    singular at B = 1 and S' = 1 - x.  Close to B the rounding noise of
    g at the nodes is above 2^-46 max|g|, and a table that demanded
    that tail crept toward B by panels of 1e-10 and never returned.
    P[tau < inf] = 1 - exp(-int_0^1 (1 - z) / (5/8 - z/2) dz)."""
    points = []
    build = models._build_form

    def counted(doc, role):
        f = build(doc, role)

        def coef(x):
            points.append(np.size(x))
            if role == "drift" and sum(points) > 100_000:
                raise AssertionError("the log-scale table does not stop growing")
            return f(x)
        return coef

    monkeypatch.setattr(models, "_build_form", counted)
    m = custom_model({"form": "constant", "value": 0.5},
                     {"form": "affine", "intercept": 1.0, "slope": -1.0},
                     interval=(-math.inf, 1.0))
    got = joint_transform(m, DrawdownQuery(0.0, 0.5))
    assert_allclose(got.value, -math.expm1(0.5 * math.log(5.0) - 2.0), rtol=1e-9)


def test_anchor_shift_is_additive():
    m = drifted_brownian(mu=0.5)
    xs = np.linspace(-2, 2, 17)
    s1 = ScaleMap(m, anchor=0.0)
    s2 = ScaleMap(m, anchor=1.0)
    gaps = s1(xs) - s2(xs)
    assert_allclose(gaps, gaps[0], rtol=0, atol=1e-12)
    assert_allclose(s1.density(xs), s2.density(xs), rtol=0, atol=0)


def test_speed_density_identity():
    m = drifted_brownian(mu=1.0, sigma_sq=2.0)
    sp = SpeedDensity(m)
    for x in (-0.5, 0.0, 1.2):
        assert_allclose(sp(x), 2.0 / (2.0 * scale_density(m, x)), rtol=1e-12)


@pytest.mark.parametrize("x, why", [(119.0, "not finite"), (300.0, "underflows to 0"),
                                    (np.array([1.0, 300.0]), "underflows to 0")])
def test_speed_density_refuses_where_sprime_leaves_the_float_range(x, why):
    # S'(119) = e^{-714} is subnormal and S'(300) is 0; the first bad
    # level is named
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match=f"{why} at level (119|300)"):
            SpeedDensity(drifted_brownian(mu=3.0))(x)


@pytest.mark.parametrize("model, x, why", [
    (drifted_brownian(mu=3.0), -300.0, "scale density is not finite"),
    (custom_model({"form": "constant", "value": 0.0},
                  {"form": "quadratic", "c0": 1.0, "c1": 0.0, "c2": -0.01}),
     11.0, "diffusion_sq non-positive"),
], ids=["sprime_overflows", "sigma_sq_negative"])
def test_speed_density_refusals_name_speed_density(model, x, why):
    # S'(-300) = e^{1800}; 1 - 0.01 x^2 < 0 at 11
    with pytest.raises(NumericError, match=why) as err:
        SpeedDensity(model)(x)
    assert err.value.operation == "SpeedDensity"


# ---------------------------------------------------------------------------
# validation and ingestion
# ---------------------------------------------------------------------------

def test_validate_query_accepts_and_rejects():
    m = brownian()
    validate_query(m, 0.0, 1.0)
    with pytest.raises(ValidationError):
        validate_query(m, 0.0, 0.0)
    with pytest.raises(ValidationError):
        validate_query(m, 0.0, -1.0)
    g = geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09)
    validate_query(g, 1.0, 0.3)
    with pytest.raises(DomainError):
        validate_query(g, 1.0, 1.0)       # window would hit 0
    with pytest.raises(DomainError):
        validate_query(g, -1.0, 0.3)      # start outside ]0, inf[
    b = brownian(interval=(-2.0, 2.0))
    with pytest.raises(DomainError):
        validate_query(b, 0.0, 2.5)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        brownian(sigma_sq=0.0)
    with pytest.raises(ValidationError):
        ornstein_uhlenbeck(theta=-1.0)
    with pytest.raises(ValidationError):
        geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2, interval=(-1.0, math.inf))
    with pytest.raises(ValidationError):
        custom_model({"form": "constant", "value": 0.0},
                     {"form": "constant", "value": -1.0})
    with pytest.raises(ValidationError):
        brownian(sigma_sq="1")
    with pytest.raises(ValidationError):
        ornstein_uhlenbeck(theta=None)
    with pytest.raises(ValidationError):
        ornstein_uhlenbeck(1.0, mean=math.nan)
    with pytest.raises(ValidationError):
        brownian(interval=("a", "b"))
    with pytest.raises(ValidationError):
        brownian(interval=5)
    with pytest.raises(ValidationError):
        brownian(interval=(0, 1, 2))
    with pytest.raises(ValidationError, match="scale_ref must lie inside"):
        brownian(interval=(0, 1), scale_ref=5)
    with pytest.raises(ValidationError, match="drift must be an object whose 'form'"):
        custom_model({"value": 0.0}, {"form": "constant", "value": 1.0})


def test_domain_errors_on_scale_evaluation():
    g = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2)
    with pytest.raises(DomainError):
        scale_density(g, -0.5)
    with pytest.raises(DomainError):
        scale(g, 0.0)   # boundary point itself is outside the open interval
    with pytest.raises(ValidationError):
        scale_density(g, "a")   # not a number at all
    bm = brownian()
    for call in (lambda: scale_density(bm, True), lambda: scale_density(bm, np.True_),
                 lambda: scale(bm, np.array([True, False])),
                 lambda: scale_diff(bm, [False], [True]),
                 lambda: SpeedDensity(bm)(True), lambda: ScaleMap(bm, True),
                 # a bool among numbers, which numpy would promote to 1.0
                 lambda: scale_density(bm, [True, 0.5]),
                 lambda: scale(bm, [0.5, np.True_])):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, 0.0, 2.0, 3.5])
@pytest.mark.parametrize("wrap", [float, np.float64, np.float32])
def test_scalar_and_array_points_raise_the_same_domain_error(x, wrap):
    m = brownian(interval=(0.0, 2.0))
    with pytest.raises(DomainError) as scalar:
        scale_density(m, wrap(x))
    with pytest.raises(DomainError) as array:
        scale_density(m, np.array([0.5, x]))
    assert scalar.value.operation == array.value.operation == "scale_density"
    assert str(scalar.value).split(" (value=")[0] == str(array.value).split(" (value=")[0]
    if math.isfinite(x):
        assert scalar.value.value == array.value.value == x
    else:
        assert not math.isfinite(scalar.value.value)


def test_model_from_dict_roundtrip():
    doc = {
        "model_id": "dbm-test",
        "kind": "drifted_bm",
        "params": {"mu": 1.0, "sigma_sq": 1.0},
        "interval": ["-inf", "inf"],
    }
    m = model_from_dict(doc)
    assert m.model_id == "dbm-test"
    assert m.interval == (-math.inf, math.inf)
    assert_allclose(scale(m, 1.0), DBM_S_1, rtol=REL)

    c = model_from_dict({
        "model_id": "sq", "kind": "custom",
        "params": {"drift": {"form": "constant", "value": 0.0},
                   "diffusion_sq": {"form": "power", "coef": 1.0, "exponent": 2.0}},
        "interval": [0.0, "inf"],
    })
    assert c.kind == "custom"
    assert c.contains(1.0) and not c.contains(-1.0)


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "lvy", "params": {}})
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "bm", "params": {"sigma": 1.0}})
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "bm", "params": {}, "interval": [3, 1]})
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "bm", "params": {}, "interval": ["nope", "inf"]})
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "bm", "interval": {"-inf": 0, "inf": 0}})
    with pytest.raises(ValidationError, match="model_id must be a nonempty string"):
        model_from_dict({"kind": "bm", "model_id": ""})
    with pytest.raises(ValidationError):
        model_from_json("{not json")
