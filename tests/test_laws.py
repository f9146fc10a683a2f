"""Drawdown laws against closed forms: the M_tau tail, the joint
transform, conditional and run-up factors, hitting and exit transforms,
and the inverted CDF of tau."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddkit import (
    DomainError,
    NumericError,
    UnsupportedModelError,
    ValidationError,
    brownian,
    drifted_brownian,
    geometric_brownian,
    ornstein_uhlenbeck,
)
from ddkit.laws import (
    DrawdownQuery,
    TailCurve,
    TransformResult,
    _role_swapped_transform,
    b_factor,
    c_hat,
    conditional_curve,
    conditional_laplace,
    exit_probability,
    exit_transform,
    hitting_laplace,
    joint_transform,
    max_density,
    max_tail,
    nu,
    run_up_transform,
    tail_curve,
    tau_cdf,
)

# closed forms used below (BM means sigma_sq = 1, x = 0, delta = 1):
#   E[e^{-a tau}] on BM:               1 / cosh(sqrt(2a))
#   b, chat on BM at a = 1/2:          1/sinh(1), coth(1)
#   run-up / conditional on BM:        e^{1 - coth 1}, e^{1 - coth 1}/sinh 1
#   drifted BM mu=1: S(x) = (1 - e^{-2x})/2, window roots -1 +- sqrt(1+2a)
SECH = {0.1: 0.90770639480163086, 0.5: 0.6480542736638854,
        2.0: 0.26580222883407969}
SWAP = {0.5: 0.36787944117144232, 0.05: 0.03366785934994982,
        0.005: 0.0033366678573633408}   # cosh k - sinh(k)/k, k = sqrt(2a)
RUNUP_BM = 0.73122411050580305
COND_BM = 0.62221185143506075
B_BM = 0.85091812823932155
CHAT_BM = 1.3130352854993313
NU_DBM = 2.3130352854993313             # 2 / (1 - e^{-2})
DBM_TAIL_1 = 0.73122411050580305        # exp(-2 / (e^2 - 1))
B_DBM = 1.7197930762647471              # alpha = 1: 1/u(1), u from the roots
CHAT_DBM = 6.2362502946278776           # u'(1) / (e^{-2} u(1))
GBM_TAIL = 0.17451336607230058          # mu_bar=.1 s2_bar=.3, x=1 d=.5 y=2
EXIT_BM = 0.44340944198503695           # sinh(1/2) / sinh(1)
EXITP_DBM = 0.26894142136999512         # scale ratio on [0, 1] from 1/2
HIT_BM = 0.36787944117144232            # e^{-1}
HIT_DBM = 0.48092170020263207           # e^{1 - sqrt 3}
HIT_OU = 0.33788458755196843            # parabolic-cylinder ratio, a = 1/2
TAUCDF = {0.5: 0.31455423310964801, 1.0: 0.62922257020047609,
          2.0: 0.89202295555589099}     # theta series for the reflected walk

BM = brownian()
DBM = drifted_brownian(mu=1.0, sigma_sq=1.0)
GBM = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.3)
OU = ornstein_uhlenbeck(theta=1.0)


# -- level functions --------------------------------------------------------

def test_nu_is_inverse_scale_gap():
    assert_allclose(nu(BM, 0.7, 1.0), 1.0, rtol=1e-14)
    assert_allclose(nu(BM, 0.7, 0.25), 4.0, rtol=1e-14)
    assert_allclose(nu(DBM, 1.0, 1.0), NU_DBM, rtol=1e-13)


def test_nu_rejects_windows_touching_the_boundary():
    with pytest.raises(DomainError):
        nu(GBM, 1.0, 1.0)           # z - delta hits 0
    with pytest.raises(DomainError):
        nu(brownian(interval=(-math.inf, 2.0)), 2.0, 1.0)
    with pytest.raises(ValidationError):
        nu(BM, 0.5, -1.0)


def test_level_functions_at_alpha_zero_collapse_to_nu():
    for m, z, d in ((BM, 0.3, 0.8), (DBM, 1.2, 0.6), (GBM, 1.5, 0.7)):
        n = nu(m, z, d)
        assert b_factor(m, z, d, 0.0) == n
        assert c_hat(m, z, d, 0.0) == n


@pytest.mark.parametrize("fn,want", [(b_factor, B_BM), (c_hat, CHAT_BM)])
def test_level_functions_brownian_closed_form(fn, want):
    assert_allclose(fn(BM, 1.0, 1.0, 0.5), want, rtol=1e-10)


@pytest.mark.parametrize("fn,want", [(b_factor, B_DBM), (c_hat, CHAT_DBM)])
def test_level_functions_drifted_closed_form(fn, want):
    assert_allclose(fn(DBM, 1.0, 1.0, 1.0), want, rtol=1e-10)


def test_level_function_ordering_strict_for_positive_alpha():
    for m, z, d in ((OU, 0.4, 0.9), (GBM, 1.3, 0.5)):
        n = nu(m, z, d)
        b = b_factor(m, z, d, 0.7)
        c = c_hat(m, z, d, 0.7)
        assert b < n < c


def test_level_functions_scale_covariant_ratios_invariant():
    # changing the scale normalization point rescales nu, b, chat by a
    # common factor; their ratios and nu * S' are what the laws consume
    m0 = drifted_brownian(mu=1.0, sigma_sq=1.0, scale_ref=0.0)
    m1 = drifted_brownian(mu=1.0, sigma_sq=1.0, scale_ref=0.7)
    for z, d, a in ((1.0, 1.0, 1.0), (0.4, 0.9, 0.3)):
        assert_allclose(b_factor(m0, z, d, a) / nu(m0, z, d),
                        b_factor(m1, z, d, a) / nu(m1, z, d), rtol=1e-10)
        assert_allclose(c_hat(m0, z, d, a) / nu(m0, z, d),
                        c_hat(m1, z, d, a) / nu(m1, z, d), rtol=1e-10)


# -- law of the maximum -----------------------------------------------------

def test_max_tail_brownian_is_exponential():
    q = DrawdownQuery(x=0.0, delta=0.5)
    assert max_tail(BM, q, 0.0) == 1.0
    for y in (0.3, 1.0, 2.7):
        assert_allclose(max_tail(BM, q, y), math.exp(-y / 0.5), rtol=1e-10)


def test_max_tail_drifted_and_gbm_fixed_values():
    assert_allclose(max_tail(DBM, DrawdownQuery(0.0, 1.0), 1.0),
                    DBM_TAIL_1, rtol=1e-10)
    assert_allclose(max_tail(GBM, DrawdownQuery(1.0, 0.5), 2.0),
                    GBM_TAIL, rtol=1e-8)


def test_max_density_is_tail_slope():
    q = DrawdownQuery(x=0.0, delta=1.0)
    h = 1e-4
    for m, y in ((DBM, 1.3), (OU, 0.9)):
        fd = (max_tail(m, q, y - h) - max_tail(m, q, y + h)) / (2.0 * h)
        assert_allclose(max_density(m, q, y), fd, rtol=1e-6)


def test_tail_curve_matches_pointwise_and_is_monotone():
    q = DrawdownQuery(x=1.0, delta=0.5)
    grid = np.linspace(1.0, 3.0, 9)
    curve = tail_curve(GBM, q, grid)
    assert curve.tail[0] == 1.0
    assert np.all(np.diff(curve.tail) < 0)
    assert np.all(curve.density > 0)
    for i in (2, 5, 8):
        assert_allclose(curve.tail[i], max_tail(GBM, q, float(grid[i])),
                        rtol=1e-9)
        assert_allclose(curve.density[i], max_density(GBM, q, float(grid[i])),
                        rtol=1e-9)


def test_tail_curve_rejects_bad_grids():
    q = DrawdownQuery(x=0.0, delta=1.0)
    with pytest.raises(ValidationError):
        tail_curve(BM, q, [0.0, 0.5, 0.5])
    with pytest.raises(ValidationError):
        tail_curve(BM, q, [-0.5, 0.5])
    with pytest.raises(ValidationError):
        tail_curve(BM, q, [[0.0, 1.0]])


# -- joint transform --------------------------------------------------------

@pytest.mark.parametrize("alpha", sorted(SECH))
def test_joint_transform_brownian_sech(alpha):
    r = joint_transform(BM, DrawdownQuery(0.0, 1.0, alpha=alpha))
    assert_allclose(r.value, SECH[alpha], rtol=1e-9)
    assert r.abs_error_estimate < 1e-9
    assert r.truncation_point > 30.0


def test_joint_transform_degenerate_arguments_give_total_probability():
    # recurrent model, no discounting: the drawdown completes a.s.
    r = joint_transform(BM, DrawdownQuery(0.0, 1.0))
    assert abs(r.value - 1.0) < 1e-10
    # killed at a finite upper endpoint: mass e^{-2} escapes
    r2 = joint_transform(brownian(interval=(-math.inf, 2.0)),
                         DrawdownQuery(0.0, 1.0))
    assert_allclose(r2.value, -math.expm1(-2.0), rtol=1e-10)
    assert r2.abs_error_estimate < 1e-9
    assert abs(r2.truncation_point - 2.0) < 1e-8


def test_joint_transform_beta_only_brownian_exact_half():
    # with delta = 1 the maximum is exponential(1): E[e^{-M}] = 1/2
    r = joint_transform(BM, DrawdownQuery(0.0, 1.0, beta=1.0))
    assert_allclose(r.value, 0.5, rtol=1e-11)


def test_joint_transform_monotone_in_alpha_and_beta():
    m = drifted_brownian(mu=0.5, sigma_sq=1.0)
    va = [joint_transform(m, DrawdownQuery(0.0, 0.8, alpha=a, beta=0.2)).value
          for a in (0.0, 0.3, 1.0, 3.0)]
    vb = [joint_transform(m, DrawdownQuery(0.0, 0.8, alpha=0.7, beta=b)).value
          for b in (0.0, 0.5, 2.0)]
    assert all(x > y for x, y in zip(va, va[1:]))
    assert all(x > y for x, y in zip(vb, vb[1:]))


def test_joint_transform_small_alpha_limit_linear():
    # 1 - E[e^{-a tau}] = a E[tau] + O(a^2) with E[tau] = 1 here
    gaps = []
    for a in (1e-2, 1e-3, 1e-4):
        v = joint_transform(BM, DrawdownQuery(0.0, 1.0, alpha=a)).value
        gaps.append(1.0 - v)
    slope = math.log10(gaps[1] / gaps[2])
    assert 0.9 < slope < 1.1
    assert_allclose(gaps[2], 1e-4, rtol=2e-2)


def test_joint_transform_invariant_under_scale_normalization():
    m0 = drifted_brownian(mu=1.0, sigma_sq=1.0, scale_ref=0.0)
    m1 = drifted_brownian(mu=1.0, sigma_sq=1.0, scale_ref=0.7)
    q = DrawdownQuery(0.0, 1.0, alpha=0.8, beta=0.3)
    assert_allclose(joint_transform(m0, q).value, joint_transform(m1, q).value,
                    rtol=1e-10)
    assert_allclose(max_tail(m0, DrawdownQuery(0.0, 1.0), 1.5),
                    max_tail(m1, DrawdownQuery(0.0, 1.0), 1.5), rtol=1e-12)


def test_joint_transform_respects_discount_cap():
    q = DrawdownQuery(1.0, 0.5, alpha=0.2, beta=0.8)
    r = joint_transform(GBM, q)
    assert r.value <= min(1.0, math.exp(-0.8 * 1.0)) + 1e-12


@pytest.mark.parametrize("alpha", sorted(SWAP))
def test_role_swapped_variant_matches_its_own_closed_form(alpha):
    r = _role_swapped_transform(BM, DrawdownQuery(0.0, 1.0, alpha=alpha))
    assert_allclose(r.value, SWAP[alpha], rtol=1e-9)


@pytest.mark.xfail(strict=True,
                   reason="exchanging the roles of b and chat - nu sends the "
                          "small-alpha limit to 0, not to the drawdown "
                          "probability 1; the implemented orientation is the "
                          "one with the correct limit")
def test_role_swapped_variant_would_need_limit_one():
    r = _role_swapped_transform(BM, DrawdownQuery(0.0, 1.0, alpha=1e-3))
    assert abs(r.value - 1.0) < 0.5


# -- run-up and conditional -------------------------------------------------

def test_run_up_brownian_closed_form():
    assert_allclose(run_up_transform(BM, 0.0, 1.0, 1.0, 0.5),
                    RUNUP_BM, rtol=1e-9)
    assert run_up_transform(BM, 0.0, 1.0, 1.0, 0.0) == 1.0
    with pytest.raises(ValidationError):
        run_up_transform(BM, 0.0, -0.5, 1.0, 0.5)


def test_conditional_brownian_closed_form():
    q = DrawdownQuery(0.0, 1.0, alpha=0.5)
    assert_allclose(conditional_laplace(BM, q, 1.0), COND_BM, rtol=1e-9)


def test_conditional_curve_shape():
    q = DrawdownQuery(0.0, 1.0, alpha=0.5)
    ys = np.array([0.5, 1.0, 2.0, 4.0])
    vals = conditional_curve(BM, q, ys)
    assert np.all((vals > 0) & (vals <= 1))
    assert np.all(np.diff(vals) < 0)      # longer climbs cost more time
    q0 = DrawdownQuery(0.0, 1.0)
    assert np.all(conditional_curve(BM, q0, ys) == 1.0)


def test_joint_transform_factorizes_over_the_maximum():
    # E[e^{-a tau - b M}] = int e^{-b y} E[e^{-a tau}|M=y] P(M in dy),
    # assembled here from three independently computed pieces
    m = drifted_brownian(mu=0.5, sigma_sq=1.0)
    q = DrawdownQuery(0.0, 0.8, alpha=0.6)
    joint = joint_transform(m, q).value
    nodes, wts = np.polynomial.legendre.leggauss(200)
    lo, hi = 0.0, 35.0
    ys = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    w = 0.5 * (hi - lo) * wts
    cond = conditional_curve(m, q, ys)
    curve = tail_curve(m, DrawdownQuery(0.0, 0.8), ys)
    assert_allclose(joint, float(np.dot(w, cond * curve.density)), rtol=1e-10)


# -- hitting and exit -------------------------------------------------------

def test_hitting_closed_forms():
    assert_allclose(hitting_laplace(BM, 0.0, 1.0, 0.5), HIT_BM, rtol=1e-12)
    assert_allclose(hitting_laplace(BM, 1.0, 0.0, 0.5), HIT_BM, rtol=1e-12)
    assert_allclose(hitting_laplace(DBM, 0.0, 1.0, 1.0), HIT_DBM, rtol=1e-12)
    assert_allclose(hitting_laplace(GBM, 1.0, 2.0, 0.5), 0.25, rtol=1e-12)
    assert hitting_laplace(BM, 0.7, 0.7, 3.0) == 1.0
    # alpha = 0 gives hitting probabilities: recurrent BM hits a.s.,
    # going with the drift is certain, going against it costs e^{-2 mu d / s2}
    assert hitting_laplace(BM, 0.0, 5.0, 0.0) == 1.0
    assert_allclose(hitting_laplace(DBM, 0.0, 1.0, 0.0), 1.0, rtol=1e-12)
    assert_allclose(hitting_laplace(DBM, 1.0, 0.0, 0.0), math.exp(-2.0),
                    rtol=1e-12)
    assert_allclose(hitting_laplace(drifted_brownian(mu=-1.0), 0.0, 1.0, 0.0),
                    math.exp(-2.0), rtol=1e-12)


def test_hitting_ou_needs_box_and_matches_special_function():
    with pytest.raises(UnsupportedModelError):
        hitting_laplace(OU, 0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        hitting_laplace(OU, 0.0, 1.0, 0.5, box=(0.5, 6.0))
    val, sens = hitting_laplace(OU, 0.0, 1.0, 0.5, box=(-6.0, 6.0),
                                full_output=True)
    assert_allclose(val, HIT_OU, rtol=1e-10)
    assert sens < 1e-9
    # downward passage through the restoring drift
    down = hitting_laplace(OU, 1.0, -0.5, 0.8, box=(-6.0, 6.0))
    assert 0.0 < down < 1.0


def test_exit_transforms():
    assert_allclose(exit_transform(BM, 0.5, 0.0, 1.0, 0.5), EXIT_BM,
                    rtol=1e-10)
    assert_allclose(exit_probability(DBM, 0.5, 0.0, 1.0), EXITP_DBM,
                    rtol=1e-13)
    assert exit_transform(DBM, 0.5, 0.0, 1.0, 0.0) == \
        exit_probability(DBM, 0.5, 0.0, 1.0)
    # discounting can only lose mass against the bare exit probability
    assert exit_transform(DBM, 0.5, 0.0, 1.0, 0.7) < \
        exit_probability(DBM, 0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        exit_transform(BM, 1.5, 0.0, 1.0, 0.5)


# OU(theta=1), generator g''/2 - x g' = alpha g, has the solutions
# e^{x^2/2} D_{-alpha}(+-sqrt2 x) (D the parabolic-cylinder function), the
# + sign decaying at +inf.  Frozen from mpmath.pcfd at 50 digits:
#   hit   dec(1)/dec(-0.5),                       dec(x) = e^{x^2/2} D_{-a}(sqrt2 x)
#   exit  f(0)/f(-0.6), f(z) = inc(1.1) dec(z) - inc(z) dec(1.1),  inc(x) = dec(-x)
OU_HIT_DOWN = {50.0: 4.6983306592311619e-7, 200.0: 1.3996609804796442e-13}
OU_EXIT = {50.0: 0.0021275481617638063, 200.0: 5.2013832285473993e-6}


@pytest.mark.parametrize("alpha", [50.0, 200.0])
def test_hit_and_exit_stay_accurate_when_the_value_is_small(alpha):
    # GBM(0.05, 0.09) in log space is drifted BM with m = 0.05 - 0.09/2
    m, s2 = 0.005, 0.09
    y, a, b = 0.0, math.log(0.6), math.log(1.9)
    gam = math.sqrt(m * m + 2.0 * alpha * s2) / s2
    ref = math.exp(-m * (y - a) / s2) * math.sinh(gam * (b - y)) / math.sinh(gam * (b - a))
    gbm = geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.09)
    assert_allclose(exit_transform(gbm, 1.0, 0.6, 1.9, alpha), ref, rtol=1e-9)
    assert_allclose(hitting_laplace(OU, 1.0, -0.5, alpha, box=(-6.0, 6.0)),
                    OU_HIT_DOWN[alpha], rtol=1e-9)
    assert_allclose(exit_transform(OU, 0.0, -0.6, 1.1, alpha), OU_EXIT[alpha],
                    rtol=1e-9)


# -- CDF of tau -------------------------------------------------------------

def test_tau_cdf_brownian_against_series():
    vals, details = tau_cdf(BM, DrawdownQuery(0.0, 1.0), [1.0],
                            full_output=True)
    assert abs(vals[0] - TAUCDF[1.0]) < 2e-4
    assert not details[0].unstable
    assert details[0].disagreement < 1e-4
    plain = tau_cdf(BM, DrawdownQuery(0.0, 1.0), [1.0])
    assert plain.shape == (1,)


def test_tau_cdf_validation():
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0, beta=1.0), [1.0])
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0), [2.0, 1.0])
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0), [-1.0, 1.0])


# -- result and query types -------------------------------------------------

def test_query_and_result_validation():
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, alpha=-0.1)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, beta=math.inf)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, tol=0.0)
    with pytest.raises(ValidationError):
        TransformResult(value=-0.2, abs_error_estimate=0.0,
                        truncation_point=1.0)
    with pytest.raises(NumericError):
        TailCurve(x=0.0, delta=1.0, grid=np.array([1.0, 2.0]),
                  tail=np.array([0.5, 0.9]), density=np.array([0.1, 0.1]))