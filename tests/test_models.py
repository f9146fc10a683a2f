"""Scale structure of the catalog models against closed forms, quadrature
cross-checks for the custom path, and query validation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from ddkit import (
    DomainError,
    NumericError,
    ScaleMap,
    SpeedDensity,
    ValidationError,
    brownian,
    custom_model,
    drifted_brownian,
    geometric_brownian,
    model_from_dict,
    model_from_json,
    nu,
    ornstein_uhlenbeck,
    scale,
    scale_density,
    scale_diff,
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


def test_domain_errors_on_scale_evaluation():
    g = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.2)
    with pytest.raises(DomainError):
        scale_density(g, -0.5)
    with pytest.raises(DomainError):
        scale(g, 0.0)   # boundary point itself is outside the open interval


def test_model_from_dict_roundtrip():
    doc = {
        "model_id": "dbm-test",
        "kind": "drifted_bm",
        "params": {"mu": 1.0, "sigma_sq": 1.0},
        "interval": ["-inf", "inf"],
        "a_in_state_space": False,
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
        model_from_json("{not json")
