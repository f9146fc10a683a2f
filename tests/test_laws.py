"""Drawdown laws against closed forms: the M_tau tail, the joint
transform, conditional and run-up factors, hitting and exit transforms,
and the inverted CDF of tau."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddkit
from ddkit import (
    DomainError,
    McConfig,
    NumericError,
    PathCollection,
    ValidationError,
    brownian,
    custom_model,
    drifted_brownian,
    estimate_tail,
    estimate_transform,
    excursion_counts,
    extract_excursions,
    geometric_brownian,
    ornstein_uhlenbeck,
    sample_trajectory,
    scale_diff,
    simulate,
    tau_cdf_estimate,
    validate_query,
)
from ddkit import invlap, laws
from ddkit.basis import batch_endpoints
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
    # zero drift is BM, whose exact step carries g = 0: nu S' = 1 / delta
    assert drifted_brownian(0.0).kind == "bm"
    assert nu(drifted_brownian(0.0), 0.3, 0.25) == 4.0


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


def test_level_functions_refuse_a_level_where_the_scale_underflows():
    # S'(400) = e^{-2400} and S(400) - S(399) are 0 in double precision;
    # b and chat divide their rates by S', nu divides by the scale gap
    m = drifted_brownian(mu=3.0)
    for call in (lambda: b_factor(m, 400.0, 1.0, 0.5),
                 lambda: c_hat(m, 400.0, 1.0, 0.5),
                 lambda: b_factor(m, 400.0, 1.0, 0.0)):
        with pytest.raises(NumericError, match="underflows to 0 at level 400"):
            call()


@pytest.mark.parametrize("call", [
    lambda: nu(drifted_brownian(mu=3.0), 119.0, 1.0),
    lambda: c_hat(drifted_brownian(mu=3.0), 119.0, 1.0, 0.5),
    lambda: b_factor(drifted_brownian(mu=3.0), 119.0, 1.0, 0.0),
    lambda: b_factor(drifted_brownian(mu=-3.0), -119.0, 1.0, 0.5),
], ids=["nu", "c_hat", "b_alpha0", "b_mirror"])
def test_level_functions_refuse_a_quotient_past_the_float_range(call):
    # S'(+-119) = e^{-714} is subnormal: the rate over it overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="not finite at level -?119"):
            call()


@pytest.mark.parametrize("call, op", [
    (lambda: nu(ornstein_uhlenbeck(3.0), 16.0, 1.0), "nu"),
    (lambda: b_factor(ornstein_uhlenbeck(3.0), 16.0, 1.0, 0.5), "b_factor"),
    (lambda: c_hat(drifted_brownian(mu=3.0), -300.0, 1.0, 0.5), "c_hat"),
], ids=["nu", "b_factor", "c_hat"])
def test_level_functions_name_themselves_where_sprime_overflows(call, op):
    # S'(16) = e^{768} on OU theta 3 and S'(-300) = e^{1800} on drifted BM
    # mu 3 leave the float range; the refusal is the level function's own
    with pytest.raises(NumericError, match="scale density is not finite") as err:
        call()
    assert err.value.operation == op


@pytest.mark.parametrize("call, op", [
    (lambda: hitting_laplace(ornstein_uhlenbeck(1.0), 0.0, 1.0, 1e300),
     "hitting_laplace"),
    (lambda: exit_transform(ornstein_uhlenbeck(1.0), 0.0, -1.0, 1.0, 1e300),
     "exit_transform"),
    (lambda: run_up_transform(brownian(), 0.0, 5.0, 1.0, 1e12), "run_up_transform"),
    (lambda: conditional_curve(brownian(), DrawdownQuery(0, 1, alpha=1e12), [2.0]),
     "conditional_curve"),
], ids=["hitting_laplace", "exit_transform", "run_up_transform",
        "conditional_curve"])
def test_window_solve_failures_name_the_public_operation(call, op):
    # alpha this large makes every window too stiff for the solver's cap
    with pytest.raises(NumericError, match="window solve failed") as err:
        call()
    assert err.value.operation == op


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


@pytest.mark.parametrize("model, q, y", [
    (BM, DrawdownQuery(0.0, 1.0), 1e6),
    (BM, DrawdownQuery(0.0, 1e-300), 1.0),
    (geometric_brownian(0.05, 0.04), DrawdownQuery(1.0, 0.5), 1e6),
], ids=["bm_far", "bm_tiny_delta", "gbm_far"])
def test_tail_past_the_float_range_reads_zero_without_growing(monkeypatch, model, q, y):
    # exp(-N) is 0 once N passes 746: the table stops there, after about
    # 373 panels of mass 2 on BM, however far y lies
    appended = []
    grow = laws._MassTable._append
    monkeypatch.setattr(laws._MassTable, "_append",
                        lambda self, *a: appended.append(1) or grow(self, *a))
    assert max_tail(model, q, y) == 0.0
    assert len(appended) < 400
    curve = tail_curve(model, q, [q.x, y])
    assert curve.tail.tolist() == [1.0, 0.0] and curve.density[1] == 0.0


def test_tail_next_to_the_underflow_and_past_a_finite_end():
    # N = 745 is exp's last subnormal; a table that stopped at a finite B
    # is read past its last edge as its last panel runs on
    assert max_tail(BM, DrawdownQuery(0.0, 1.0), 745.0) == 5e-324
    assert_allclose(max_tail(brownian(interval=(-math.inf, 2.0)), DrawdownQuery(0.0, 1.0),
                             2.0 - 1e-13), math.exp(-2.0), rtol=1e-12)


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
    with pytest.raises(ValidationError):
        tail_curve(BM, q, ["a"])
    with pytest.raises(ValidationError):
        tail_curve(BM, q, [0.0, True])   # a bool among numbers


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


def test_joint_transform_with_steep_exponents():
    # on BM, E[e^{-beta M}] = 1 / (1 + beta delta); at beta = 100 the
    # exponent rises by about 200 across each panel of the mass table
    r = joint_transform(BM, DrawdownQuery(0.0, 1.0, beta=100.0))
    assert_allclose(r.value, 1.0 / 101.0, rtol=1e-12)
    # at alpha = 2000 the GBM exponent bends far from linear on a panel;
    # frozen from an independent cubic-spline rule on a 4096-segment mesh
    r = joint_transform(geometric_brownian(mu_bar=0.05, sigma_bar_sq=0.2),
                        DrawdownQuery(1.0, 0.3, alpha=2000.0))
    assert_allclose(r.value, 4.66649833433908e-22, rtol=1e-9)


def test_joint_transform_past_the_exp_range_of_beta_x():
    # e^{-beta x} alone overflows at beta x < -709, the value need not:
    # on BM it is e^{-beta x} b / (beta + chat), b = 1/sinh(1), chat = coth(1)
    q = DrawdownQuery(-1.0, 1.0, alpha=0.5, beta=705.0)
    want = math.exp(705.0 + math.log(B_BM / (705.0 + CHAT_BM)))
    assert_allclose(joint_transform(BM, q).value, want, rtol=1e-9)
    # past the float range the value itself is refused, with no OverflowError
    for m, q in ((BM, replace(q, beta=800.0)),
                 (OU, DrawdownQuery(-300.0, 1.0, alpha=0.5, beta=30.0))):
        with pytest.raises(NumericError, match="float range"):
            joint_transform(m, q)


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


@pytest.mark.parametrize("mu", [0.5, 1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 5.0])
def test_joint_transform_drifted_closed_form_under_strong_drift(mu, alpha):
    # Taylor (Ann. Probab. 1975), Lehoczky (Ann. Probab. 1977): for BM with
    # drift mu and delta = 1, E[e^{-alpha tau}] = (r+ - r-) /
    # (r+ e^{-r-} - r- e^{-r+}) with r+- = -mu +- sqrt(mu^2 + 2 alpha).
    # The outer integral runs to levels where S'(y) = e^{-2 mu y}
    # underflows; the laws read only the rates nu S', b S' and chat S'.
    d = math.sqrt(mu * mu + 2.0 * alpha)
    rp, rm = -mu + d, -mu - d
    want = (rp - rm) / (rp * math.exp(-rm) - rm * math.exp(-rp))
    r = joint_transform(drifted_brownian(mu), DrawdownQuery(0.0, 1.0, alpha=alpha))
    assert_allclose(r.value, want, rtol=1e-9)


def test_tau_cdf_under_strong_drift_is_monotone():
    vals = tau_cdf(drifted_brownian(2.0), DrawdownQuery(0.0, 1.0), [0.5, 1.0, 2.0])
    assert 0.0 < vals[0] < vals[1] < vals[2] < 1.0


CUSTOM_DBM2 = ({"form": "constant", "value": 2.0}, {"form": "constant", "value": 1.0})


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_custom_drifted_bm_transform_where_the_scale_density_is_denormal(alpha):
    # The custom table's S'(y) = e^{-4y} is denormal near y = 180 and 0
    # further out, well short of where the outer integral is cut; its
    # nu S' is one over the scale quotient on [y - 1, y] anchored at y,
    # (e^4 - 1) / 4 at every level.  Closed form as in the test above.
    d = math.sqrt(4.0 + 2.0 * alpha)
    rp, rm = -2.0 + d, -2.0 - d
    want = (rp - rm) / (rp * math.exp(-rm) - rm * math.exp(-rp))
    q = DrawdownQuery(0.0, 1.0, alpha=alpha)
    r = joint_transform(custom_model(*CUSTOM_DBM2), q)
    assert_allclose(r.value, joint_transform(drifted_brownian(2.0), q).value, rtol=1e-12)
    assert_allclose(r.value, want, rtol=1e-9)


def test_custom_drifted_bm_tail_where_the_scale_density_is_denormal():
    # P[M_tau > y] = e^{-rate y}, rate = g / (e^{g delta} - 1), g = 2 mu = 4
    grid = np.linspace(0.0, 300.0, 61)
    q = DrawdownQuery(0.0, 1.0)
    curve = tail_curve(custom_model(*CUSTOM_DBM2), q, grid)
    rate = 4.0 / math.expm1(4.0)
    assert_allclose(curve.tail, np.exp(-rate * grid), rtol=1e-12)
    assert_allclose(curve.density, rate * np.exp(-rate * grid), rtol=1e-12)
    assert_allclose(curve.tail, tail_curve(drifted_brownian(2.0), q, grid).tail,
                    rtol=1e-12)


@pytest.fixture
def solver_calls(monkeypatch):
    """(rows, panel nodes per row) of every window solve the laws make,
    in call order."""
    calls = []
    solve = laws.batch_endpoints

    def counted(model, alpha, l, r, *args, **kwargs):
        ep = solve(model, alpha, l, r, *args, **kwargs)
        calls.append((len(l), ep.n_steps))
        return ep

    monkeypatch.setattr(laws, "batch_endpoints", counted)
    return calls


def test_ou_transform_window_work_stays_bounded(solver_calls):
    """Rows x n_steps over every window solve of one OU transform: a
    count, so it cannot flake.  221,292 panel nodes when the panel
    solver was written (the RK4 grids it replaced ran 12,589,056 accepted
    row-steps); a fallback to step-sized grids would blow this bound."""
    joint_transform(OU, DrawdownQuery(0.0, 1.0, alpha=0.5))
    work = [rows * n_steps for rows, n_steps in solver_calls]
    assert 0 < sum(work) <= 2 * 221_292


def test_ou_transform_nodes_come_from_the_mass_table(solver_calls):
    """Rows over every window solve of one OU transform at alpha = ln 2:
    a count, so it cannot flake.  The cubic mesh doubling this replaced
    stopped at 4096 segments, 4097 window solves."""
    joint_transform(OU, DrawdownQuery(0.0, 1.0, alpha=math.log(2.0)))
    rows = [n for n, _ in solver_calls]
    assert 0 < sum(rows) <= 819


@pytest.mark.parametrize("alpha", [0.5, math.log(2.0)])
def test_ou_transform_accepts_on_the_predicted_gap(solver_calls, alpha):
    """Counts, so they cannot flake.  OU with delta = 1 climbs past the
    first rung (its degree 1, 2 and 4 estimates disagree) and accepts
    degree 16 on the gaps' decay, without the degree-32 rung that only
    confirmed it: 481 rows when two rungs had to agree, 241 now."""
    joint_transform(OU, DrawdownQuery(0.0, 1.0, alpha=alpha))
    assert len(solver_calls) >= 2
    assert sum(rows for rows, _ in solver_calls) <= 260


def test_constant_rate_transforms_accept_on_the_first_rung(solver_calls):
    """Counts: on BM the outer integrand is exact at every degree, so the
    degree 1, 2 and 4 estimates of the first rung agree and one solve
    serves the transform and every node of a tau_cdf t."""
    joint_transform(BM, DrawdownQuery(0.0, 1.0, alpha=0.5, tol=1e-5))
    assert len(solver_calls) == 1
    solver_calls.clear()
    tau_cdf(BM, DrawdownQuery(0.0, 1.0, tol=1e-5), [0.97])
    assert len(solver_calls) == 1


def test_transform_ladder_drops_an_accepted_alpha(solver_calls, monkeypatch):
    """On GBM, alpha = 1e-4 is accepted at rung 16 and alpha = 200 climbs
    on: the rung-32 solve carries its rows alone, and each value is
    within its estimate of a run of that alpha by itself."""
    g, q = geometric_brownian(0.05, 0.04), DrawdownQuery(1.0, 0.2)
    alphas, counted = [], laws.batch_endpoints
    monkeypatch.setattr(laws, "batch_endpoints", lambda m, a, *args, **kw: (
        alphas.append(set(np.atleast_1d(a).tolist())) or counted(m, a, *args, **kw)))
    both = laws._transform_core(g, q, [1e-4, 200.0])
    assert alphas[-2:] == [{1e-4, 200.0}, {200.0}]
    # rung 16 solves 8 new points per panel for two alphas, rung 32 16 for one
    assert solver_calls[-1][0] == solver_calls[-2][0]
    for a, r in zip((1e-4, 200.0), both):
        alone = laws._transform_core(g, q, [a])[0]
        assert abs(r.value - alone.value) <= r.abs_error_estimate


def test_transform_error_estimates_bound_the_error():
    """Every abs_error_estimate bounds the distance to a tol-1e-12 run:
    five models, four alphas, two betas and two tolerances, 80 cases.
    OU with delta = 2 adds eight: its degree-1, 2 and 4 estimates fall
    400x and more per step but the next gaps do not, and a rate read off
    them predicted errors of 2.8e-8 (alpha = 2, beta = 0, tol 1e-5) and
    4.4e-10 (alpha = ln 2, beta = 0.3, tol 1e-6) where the values were
    off by 7.4e-6 and 2.5e-8.  The tightest case when this was written:
    OU, beta = 0.3, alpha = 20 at tol 1e-9, error 1.3e-17 against an
    estimate of 3.2e-14."""
    twin = custom_model({"form": "affine", "intercept": 0.0, "slope": -1.0},
                        {"form": "constant", "value": 1.0})
    sweep, sweep_tols = [0.1, 0.5, 2.0, 20.0], (1e-9, 1e-6)
    misses = []
    for name, m, x, delta, alphas, tols in (
            ("bm", BM, 0.0, 1.0, sweep, sweep_tols),
            ("dbm", DBM, 0.0, 1.0, sweep, sweep_tols),
            ("gbm", geometric_brownian(0.05, 0.04), 1.0, 0.2, sweep, sweep_tols),
            ("ou", OU, 0.0, 1.0, sweep, sweep_tols),
            ("twin", twin, 0.0, 1.0, sweep, sweep_tols),
            ("ou delta 2", OU, -0.5, 2.0, [2.0, math.log(2.0)], (1e-5, 1e-6))):
        for beta in (0.0, 0.3):
            q = DrawdownQuery(x, delta, beta=beta, tol=1e-12)
            ref = laws._transform_core(m, q, alphas)
            for tol in tols:
                got = laws._transform_core(m, replace(q, tol=tol), alphas)
                misses += [(name, beta, tol, a, abs(g.value - r.value), g.abs_error_estimate)
                           for a, r, g in zip(alphas, ref, got)
                           if not abs(g.value - r.value) <= g.abs_error_estimate]
    assert not misses


def test_tail_curve_of_a_custom_model_calls_scale_with_arrays(monkeypatch):
    """A tail of the custom OU twin evaluates nu S' only on arrays of
    levels; one scalar scale call per quadrature point was the old cost."""
    twin = custom_model({"form": "affine", "intercept": 0.0, "slope": -1.0},
                        {"form": "constant", "value": 1.0})
    scalar = []
    for name in ("_scale_ratio",):
        fn = getattr(laws, name)

        def counted(model, *args, _fn=fn, _name=name):
            if all(np.ndim(a) == 0 for a in args):
                scalar.append(_name)
            return _fn(model, *args)

        monkeypatch.setattr(laws, name, counted)
    curve = tail_curve(twin, DrawdownQuery(0.0, 1.0), [0.4, 1.1, 1.7])
    assert scalar == []
    assert_allclose(curve.tail, tail_curve(OU, DrawdownQuery(0.0, 1.0),
                                           [0.4, 1.1, 1.7]).tail, rtol=1e-9)


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


def test_run_up_on_ou_agrees_with_a_tight_run():
    for y in (1.0, 2.5):
        assert_allclose(run_up_transform(OU, 0.0, y, 1.0, 0.5),
                        run_up_transform(OU, 0.0, y, 1.0, 0.5, tol=1e-12), rtol=0, atol=1e-8)


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
    with pytest.raises(ValidationError):
        conditional_curve(BM, q, ["a"])
    with pytest.raises(ValidationError, match="levels must exceed x"):
        conditional_curve(BM, q, [0.0, 1.0])


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


def test_hitting_ou_matches_special_function():
    # without a box the far end is pushed out until absorbing and
    # reflecting there agree; the returned bound covers the frozen value
    val, bound = hitting_laplace(OU, 0.0, 1.0, 0.5, full_output=True)
    assert abs(val - HIT_OU) <= bound <= 1e-9 * HIT_OU
    with pytest.raises(ValidationError):
        hitting_laplace(OU, 0.0, 1.0, 0.5, box=(0.5, 6.0))
    for box in ((-3.0, 3.0, 4.0), 5.0):
        with pytest.raises(ValidationError):
            hitting_laplace(OU, 0.0, 0.5, 0.5, box=box)
    val, sens = hitting_laplace(OU, 0.0, 1.0, 0.5, box=(-6.0, 6.0),
                                full_output=True)
    assert_allclose(val, HIT_OU, rtol=1e-10)
    assert sens < 1e-9
    # downward passage through the restoring drift
    down = hitting_laplace(OU, 1.0, -0.5, 0.8, box=(-6.0, 6.0))
    assert 0.0 < down < 1.0


def test_hitting_refuses_a_reachable_finite_end():
    # BM absorbed at 0 gives sinh(1) / sinh(2) and reflected at 0
    # cosh(1) / cosh(2): on (0, 10) the value depends on the end, so the
    # catalog model and its custom twin both refuse without a box
    bm = brownian(interval=(0.0, 10.0))
    twin = custom_model({"form": "constant", "value": 0.0},
                        {"form": "constant", "value": 1.0}, interval=(0.0, 10.0))
    for m in (bm, twin):
        with pytest.raises(DomainError):
            hitting_laplace(m, 1.0, 2.0, 0.5)
    # with the same box both truncate at its edge, and the bound holds
    # the value absorbed at 0
    (v1, b1), (v2, b2) = (hitting_laplace(m, 1.0, 2.0, 0.5, box=(1e-9, 3.0),
                                          full_output=True) for m in (bm, twin))
    assert abs(v1 - v2) <= b1 + b2
    assert v1 <= math.sinh(1.0) / math.sinh(2.0) <= v1 + b1
    # a box given to a whole-line model is a truncation too, not ignored
    val, bound = hitting_laplace(BM, 1.0, 2.0, 0.5, box=(0.5, 3.0), full_output=True)
    assert val < HIT_BM <= val + bound
    # GBM on (0.5, inf) no longer takes the (0, inf) closed form
    gbm = geometric_brownian(mu_bar=0.1, sigma_bar_sq=0.3, interval=(0.5, math.inf))
    with pytest.raises(DomainError):
        hitting_laplace(gbm, 1.0, 2.0, 0.5)


@pytest.mark.parametrize("mu", [0.0, 1.0, -1.0])
def test_custom_twins_hit_within_their_bound(mu):
    # the twin has no closed form: its far end is pushed out round by
    # round, and the bound it returns must cover its distance to the
    # catalog closed form.  Against the drift at alpha = 0 the path may
    # escape to the far end, so there the twin refuses
    cat = drifted_brownian(mu) if mu else BM
    twin = custom_model({"form": "constant", "value": mu},
                        {"form": "constant", "value": 1.0})
    for x, y in ((0.0, 1.0), (1.0, 0.0), (0.3, 2.5)):
        for alpha in (0.0, 1e-5, 0.5, 50.0):
            ref = hitting_laplace(cat, x, y, alpha)
            if alpha == 0.0 and mu * (y - x) < 0.0:
                with pytest.raises(DomainError):
                    hitting_laplace(twin, x, y, alpha)
                continue
            val, bound = hitting_laplace(twin, x, y, alpha, full_output=True)
            assert abs(val - ref) <= bound <= 1e-9 * ref, (x, y, alpha)


@pytest.mark.parametrize("mu", [-1.0, -50.0])
def test_escape_refusal_is_quick(mu):
    # at alpha = 0 against the drift the spread between absorbing and
    # reflecting at the far end stops shrinking within a few rounds; the
    # refusal must not grow the table or the windows for long
    twin = custom_model({"form": "constant", "value": mu},
                        {"form": "constant", "value": 1.0})
    start = time.perf_counter()
    with pytest.raises(DomainError):
        hitting_laplace(twin, 0.0, 1.0, 0.0)
    assert time.perf_counter() - start < 1.0


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


def test_exit_where_the_scale_differences_underflow():
    # S' = e^{-6x}: S(401) - S(399) is 0 in double precision, while the
    # quotients anchored at a give e^{-6} (1 - e^{-6}) / (1 - e^{-12})
    m, want = drifted_brownian(3.0), 1.0 / (math.exp(6.0) + 1.0)
    assert_allclose(exit_probability(m, 400.0, 399.0, 401.0), want, rtol=1e-13)
    assert_allclose(exit_transform(m, 400.0, 399.0, 401.0, 0.0), want, rtol=1e-13)
    assert exit_transform(m, 400.0, 399.0, 401.0, 0.5) < want
    # the mirror case, S' = e^{6x}: anchored at a = 0 the quotients
    # overflow; anchored at bnd, where S' is larger, they do not
    m, want = drifted_brownian(-3.0), -math.expm1(-6.0) / (1.0 - math.exp(-1206.0))
    assert_allclose(exit_probability(m, 200.0, 0.0, 201.0), want, rtol=1e-13)
    assert_allclose(exit_transform(m, 200.0, 0.0, 201.0, 0.0), want, rtol=1e-13)
    # GBM with S' = x^200: (100^201 - 99.9^201) / (100^201 - 1)
    m, want = geometric_brownian(-1.0, 0.01), -math.expm1(201.0 * math.log(0.999))
    assert_allclose(exit_probability(m, 99.9, 1.0, 100.0), want, rtol=1e-13)


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


def test_tau_cdf_reports_its_clip_in_the_disagreement():
    # at t = 4 the raw inversion passes 1 by 5.3e-5, ten times the order
    # sweep's own disagreement; the clip is added to it
    vals, details = tau_cdf(geometric_brownian(0.05, 0.2), DrawdownQuery(1.0, 0.3),
                            [1.0, 4.0], full_output=True)
    assert details[1].value > 1.0 and vals[1] == 1.0
    for v, d in zip(vals, details):
        assert abs(v - d.value) <= d.disagreement


def test_tau_cdf_disagreement_covers_the_nodes_rounding(monkeypatch):
    """The weights reach 3.4e11, so node transforms that move by rounding
    move the cdf past the order sweep's own gap: on drifted BM at t = 4,
    nodes solved in other batches agreed to 7.6e-15 relative while the
    cdf moved 2.1e-6 against a gap of 2.5e-7.  Here every node moves by
    1e-15 relative, with the signs of the order-18 weights."""
    q = DrawdownQuery(0.0, 1.0)
    vals, details = tau_cdf(DBM, q, [4.0], full_output=True)
    core = laws._transform_core

    def nudged(*args):
        return [replace(res, value=res.value * (1.0 + 1e-15 * (-1) ** i))
                for i, res in enumerate(core(*args))]

    monkeypatch.setattr(laws, "_transform_core", nudged)
    moved = tau_cdf(DBM, q, [4.0])
    assert abs(moved[0] - vals[0]) > 1e-6
    assert abs(moved[0] - vals[0]) <= details[0].disagreement


def test_tau_cdf_solves_all_its_nodes_in_one_call_per_rung(solver_calls):
    """Counts, so they cannot flake: the Gaver-Stehfest nodes of every t
    share each outer-ladder rung's window solve.  With one transform per
    node, one t made 36 solver calls and three t made 108."""
    rows = solver_calls
    tau_cdf(BM, DrawdownQuery(0.0, 1.0, tol=1e-5), [0.97])
    assert 0 < len(rows) <= 3
    rows.clear()
    tau_cdf(BM, DrawdownQuery(0.0, 1.0), [0.5, 1.0, 2.0])
    assert 0 < len(rows) <= len(laws._DEGREES)


def test_tau_cdf_full_output_reads_the_sweep_values(monkeypatch):
    """The error bar reads the order sweep's own values: a full output
    inverts no more than a plain one (five orders per t), and each
    result carries the values invert gave at every order."""
    calls = []
    invert = invlap.invert

    def counted(transform, t, order=14):
        calls.append((t, order, invert(transform, t, order)))
        return calls[-1][2]

    monkeypatch.setattr(invlap, "invert", counted)
    q = DrawdownQuery(0.0, 1.0, tol=1e-5)
    tau_cdf(BM, q, [0.5, 2.0])
    plain = len(calls)
    calls.clear()
    _, details = tau_cdf(BM, q, [0.5, 2.0], full_output=True)
    assert len(calls) == plain == 2 * len(invlap.DEFAULT_ORDERS)
    assert [(t, *nv) for t, d in zip((0.5, 2.0), details)
            for nv in d.sweep] == calls


def test_tau_cdf_memory_does_not_grow_with_the_time_grid():
    """Twenty t (360 nodes, about 23,000 windows a rung) peak under twice
    three t (54 nodes): the window solver counts panels and sweeps its
    rows a block at a time.  Sweeping every row at once peaked 6.5 times
    higher, and counting the panels of every row at once 2.7 times."""
    q = DrawdownQuery(0.0, 1.0, tol=1e-5)
    few, many = [0.37, 1.13, 2.71], np.linspace(0.31, 3.9, 20)
    tau_cdf(BM, q, few)         # fills the module caches first

    def peak(ts):
        tracemalloc.start()
        try:
            tau_cdf(BM, q, ts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(many) <= 2.0 * peak(few)


def test_tau_cdf_validation():
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0, beta=1.0), [1.0])
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0), [2.0, 1.0])
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0), [-1.0, 1.0])
    with pytest.raises(ValidationError):
        tau_cdf(BM, DrawdownQuery(0.0, 1.0), ["a"])


# -- result and query types -------------------------------------------------

def test_query_and_result_validation():
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, alpha=-0.1)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, beta=math.inf)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, tol=0.0)
    with pytest.raises(ValidationError, match=r"tol must lie in \]0, 1e-2\]"):
        DrawdownQuery(0.0, 1.0, tol=0.1)
    # b_factor and c_hat take their tol through the same check, at any alpha
    for level_fn in (b_factor, c_hat):
        for tol in (0.0, 0.1):
            for alpha in (0.0, 0.5):
                with pytest.raises(ValidationError, match="tol must"):
                    level_fn(DBM, 1.0, 1.0, alpha, tol=tol)
    # run_up_transform checks x, delta, alpha and tol under its own name
    for args, tol in (((math.nan, 2.0, 1.0, 0.5), 1e-9), ((0.0, 2.0, 0.0, 0.5), 1e-9),
                      ((0.0, 2.0, 1.0, -0.5), 1e-9), ((0.0, 2.0, 1.0, 0.5), 0.0)):
        with pytest.raises(ValidationError, match=r"\.run_up_transform\]"):
            run_up_transform(DBM, *args, tol=tol)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, alpha=True)
    with pytest.raises(ValidationError):
        DrawdownQuery(0.0, 1.0, tol="a")
    with pytest.raises(ValidationError):
        TransformResult(value=-0.2, abs_error_estimate=0.0,
                        truncation_point=1.0)
    with pytest.raises(NumericError):
        TailCurve(x=0.0, delta=1.0, grid=np.array([1.0, 2.0]),
                  tail=np.array([0.5, 0.9]), density=np.array([0.1, 0.1]))


# -- one check for every public scalar --------------------------------------

_Q = DrawdownQuery(0.0, 1.0, alpha=0.5)
_PATH = np.array([0.0, -0.5, -1.5, 0.5, 0.2, 1.0])
_CFG = McConfig(n_paths=1000, dt=0.01, t_max=40.0, seed=2)
_SAMPLES = PathCollection(x=0.0, delta=1.0, cfg=_CFG,
                          tau_hat=np.resize([0.5, 1.5, 2.5], 1000),
                          m_tau_hat=np.resize([0.2, 1.7, 0.9], 1000),
                          stopped=np.ones(1000, dtype=bool))

# (parameter, call with the value in that slot, a valid integer value)
_SCALARS = [
    ("brownian.sigma_sq", lambda v: hitting_laplace(brownian(v), 0.0, 1.0, 1.0), 2),
    ("brownian.interval", lambda v: brownian(interval=(-1.0, v)).interval, 2),
    ("drifted_brownian.mu", lambda v: nu(drifted_brownian(v), 1.0, 1.0), 1),
    ("drifted_brownian.sigma_sq", lambda v: nu(drifted_brownian(1.0, v), 1.0, 1.0), 2),
    ("geometric_brownian.mu_bar",
     lambda v: nu(geometric_brownian(v, 1.0), 2.0, 1.0), 1),
    ("geometric_brownian.sigma_bar_sq",
     lambda v: nu(geometric_brownian(0.5, v), 2.0, 1.0), 1),
    ("ornstein_uhlenbeck.theta",
     lambda v: scale_diff(ornstein_uhlenbeck(v), -1.0, 1.0), 1),
    ("ornstein_uhlenbeck.mean",
     lambda v: scale_diff(ornstein_uhlenbeck(1.0, v), -1.0, 1.0), 1),
    ("ornstein_uhlenbeck.sigma_sq",
     lambda v: scale_diff(ornstein_uhlenbeck(1.0, 0.0, v), -1.0, 1.0), 2),
    ("validate_query.x", lambda v: validate_query(DBM, v, 1.0), 0),
    ("validate_query.delta", lambda v: validate_query(DBM, 0.0, v), 1),
    ("DrawdownQuery.x", lambda v: max_tail(DBM, DrawdownQuery(v, 1.0), 2.0), 0),
    ("DrawdownQuery.delta", lambda v: max_tail(DBM, DrawdownQuery(0.0, v), 2.0), 1),
    ("DrawdownQuery.alpha",
     lambda v: joint_transform(DBM, DrawdownQuery(0.0, 1.0, alpha=v)).value, 1),
    ("DrawdownQuery.beta",
     lambda v: joint_transform(DBM, DrawdownQuery(0.0, 1.0, beta=v)).value, 1),
    ("nu.z", lambda v: nu(DBM, v, 1.0), 1),
    ("nu.delta", lambda v: nu(DBM, 1.0, v), 1),
    ("b_factor.alpha", lambda v: b_factor(DBM, 1.0, 1.0, v), 1),
    ("c_hat.z", lambda v: c_hat(DBM, v, 1.0, 0.5), 1),
    ("max_tail.y", lambda v: max_tail(DBM, _Q, v), 2),
    ("max_density.y", lambda v: max_density(DBM, _Q, v), 2),
    ("run_up_transform.y", lambda v: run_up_transform(DBM, 0.0, v, 1.0, 0.5), 2),
    ("run_up_transform.alpha", lambda v: run_up_transform(DBM, 0.0, 2.0, 1.0, v), 1),
    ("conditional_laplace.y", lambda v: conditional_laplace(DBM, _Q, v), 2),
    ("hitting_laplace.x", lambda v: hitting_laplace(DBM, v, 1.0, 0.5), 0),
    ("hitting_laplace.y", lambda v: hitting_laplace(DBM, 0.0, v, 0.5), 1),
    ("hitting_laplace.alpha", lambda v: hitting_laplace(DBM, 0.0, 1.0, v), 1),
    ("hitting_laplace.box",
     lambda v: hitting_laplace(OU, 0.0, 1.0, 0.5, box=(-2.0, v)), 3),
    ("exit_probability.x", lambda v: exit_probability(DBM, v, -1.0, 1.0), 0),
    ("exit_probability.a", lambda v: exit_probability(DBM, 0.0, v, 1.0), -1),
    ("exit_probability.bnd", lambda v: exit_probability(DBM, 0.0, -1.0, v), 1),
    ("exit_transform.alpha", lambda v: exit_transform(DBM, 0.0, -1.0, 1.0, v), 1),
    ("batch_endpoints.alpha",
     lambda v: batch_endpoints(DBM, v, np.array([0.0]), np.array([1.0])).u_r, 1),
    ("invert.t", lambda v: invlap.invert(lambda s: 1.0 / (s + 1.0), v), 1),
    ("invert_sweep.t", lambda v: invlap.invert_sweep(lambda s: 1.0 / (s + 1.0), v), 1),
    ("McConfig.dt", lambda v: McConfig(n_paths=1000, dt=v, t_max=40.0, seed=0).dt, 1),
    ("McConfig.t_max", lambda v: McConfig(n_paths=1000, dt=0.01, t_max=v, seed=0).t_max,
     40),
    ("simulate.x", lambda v: simulate(BM, v, 1.0, _CFG).tau_hat, 0),
    ("excursion_counts.y", lambda v: excursion_counts(DBM, 0.0, v, 1.0, _CFG)[0], 1),
    ("sample_trajectory.x", lambda v: sample_trajectory(BM, v, _CFG, n_steps=10), 0),
    ("estimate_tail.y", lambda v: estimate_tail(_SAMPLES, v), 1),
    ("estimate_transform.alpha", lambda v: estimate_transform(_SAMPLES, v, 0.0), 1),
    ("estimate_transform.beta", lambda v: estimate_transform(_SAMPLES, 0.0, v), 1),
    ("tau_cdf_estimate.t", lambda v: tau_cdf_estimate(_SAMPLES, v), 1),
    ("extract_excursions.dt",
     lambda v: extract_excursions(_PATH, v, 1.0, (-1.0, 1.0)), 1),
    ("extract_excursions.delta",
     lambda v: extract_excursions(_PATH, 1.0, v, (-1.0, 1.0)), 1),
    ("extract_excursions.band",
     lambda v: extract_excursions(_PATH, 1.0, 1.0, (-1.0, v)), 1),
]


@pytest.mark.parametrize("call,good", [s[1:] for s in _SCALARS],
                         ids=[s[0] for s in _SCALARS])
def test_public_scalars_are_finite_reals(call, good):
    # bools, strings, None and NaN are refused where the number enters;
    # numpy scalars are read as the Python float of the same value
    for bad in (True, "1", None, math.nan):
        with pytest.raises(ValidationError):
            call(bad)
    want = call(float(good))
    for wrap in (np.float32, np.int64):
        np.testing.assert_equal(call(wrap(good)), want)


def test_public_names_are_pinned():
    # growing or shrinking the public surface is a decision; it shows up
    # here as an edit of this list
    assert sorted(ddkit.__all__) == [
        "CATALOG_KINDS", "CheckRow", "DdkitError", "DegenerateBasisError",
        "DiffusionModel", "DomainError", "DrawdownQuery", "ExcursionRecord",
        "ExcursionReport", "McConfig", "NumericError", "PathCollection",
        "SpeedDensity", "TailCurve", "TransformResult", "UnsupportedModelError",
        "ValidationError", "VerificationReport", "__version__", "b_factor",
        "brownian", "c_hat", "conditional_curve", "conditional_laplace",
        "custom_model", "drifted_brownian", "dt_pair_simulate", "estimate_tail",
        "estimate_transform", "excursion_counts", "excursion_report",
        "exit_probability", "exit_transform", "extract_excursions",
        "geometric_brownian", "hitting_laplace", "joint_transform", "max_density",
        "max_tail", "model_from_dict", "model_from_json", "nu",
        "ornstein_uhlenbeck", "paired_simulate", "run_up_transform",
        "sample_trajectory", "scale", "scale_density", "scale_diff", "simulate",
        "tail_curve", "tau_cdf", "tau_cdf_estimate", "validate_query",
        "verification_report"]
    assert all(hasattr(ddkit, name) for name in ddkit.__all__)
