"""Laplace inversion against closed-form transform pairs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ddkit import invlap
from ddkit.errors import ValidationError

# frozen from mpmath at 50 digits
ONE_MINUS_EXP = {0.5: 0.39346934028736658, 1.0: 0.63212055882855768,
                 2.0: 0.86466471676338731}
ERFC_INV_SQRT = {0.5: 0.15729920705028513, 1.0: 0.3173105078629141,
                 2.0: 0.47950012218695346}


@pytest.mark.parametrize("order", [10, 12, 14, 16, 18])
def test_weights_reproduce_constants_exactly(order):
    # F(a) = 1/a inverts to f == 1, which forces sum w_k / k == 1;
    # the weights are exact rationals so the identity must be exact
    ws = invlap.stehfest_weights(order)
    acc = sum(w / k for k, w in enumerate(ws, start=1))
    assert acc == Fraction(1)


def test_weights_reject_bad_orders():
    for bad in (0, 7, -2, 32):
        with pytest.raises(ValidationError):
            invlap.stehfest_weights(bad)
    with pytest.raises(ValidationError, match="at least two orders"):
        invlap.invert_sweep(lambda a: 1.0 / a, 1.0, orders=(12, 12))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_invert_exponential_relaxation(t):
    # F(a) = 1/(a(a+1))  <->  f(t) = 1 - e^{-t}; measured truncation
    # error at order 18 is 3e-7 at t=2, better at smaller t
    got = invlap.invert(lambda a: 1.0 / (a * (a + 1.0)), t, order=18)
    assert abs(got - ONE_MINUS_EXP[t]) < 1e-6


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_invert_first_passage_cdf(t):
    # F(a) = e^{-sqrt(2a)}/a  <->  P(T_1 <= t) = erfc(1/sqrt(2t)) for
    # the level-1 first passage of standard BM; harder pair because f
    # is flat at 0+ with an essential singularity
    res = invlap.invert_sweep(
        lambda a: math.exp(-math.sqrt(2.0 * a)) / a, t)
    assert abs(res.value - ERFC_INV_SQRT[t]) < 5e-6
    assert not res.unstable


def test_sweep_agrees_and_reports_stability():
    res = invlap.invert_sweep(lambda a: 1.0 / (a * (a + 1.0)), 1.0)
    assert abs(res.value - ONE_MINUS_EXP[1.0]) < 1e-6
    assert not res.unstable
    assert res.order in invlap.DEFAULT_ORDERS
    assert res.disagreement < 1e-5


def test_sweep_caches_transform_evaluations():
    calls = []

    def F(a):
        calls.append(a)
        return 1.0 / a

    invlap.invert_sweep(F, 2.0, orders=(10, 12, 14, 16, 18))
    # all orders share the grid k ln2/t, so at most 18 distinct points
    assert len(calls) == 18


def test_sweep_flags_noisy_transform_unstable():
    rng = np.random.default_rng(11)

    def noisy(a):
        return 1.0 / (a * (a + 1.0)) + 1e-6 * rng.standard_normal()

    res = invlap.invert_sweep(noisy, 1.0)
    # 1e-6 noise amplified by ~1e6..1e8 must trip the disagreement flag
    assert res.unstable


def test_isotonic_projection_properties():
    rng = np.random.default_rng(23)
    base = np.sort(rng.uniform(0, 1, size=40))
    noisy = base + rng.normal(0, 0.02, size=40)
    fixed = invlap.isotonic_non_decreasing(noisy)
    assert np.all(np.diff(fixed) >= -1e-15)
    # projection never moves a point past the data range
    assert fixed.min() >= noisy.min() - 1e-12
    assert fixed.max() <= noisy.max() + 1e-12
    # already-monotone input is untouched
    assert np.array_equal(invlap.isotonic_non_decreasing(base), base)
    with pytest.raises(ValidationError, match="one-dimensional"):
        invlap.isotonic_non_decreasing(base.reshape(8, 5))


def test_isotonic_matches_brute_force_small():
    # brute force: average of each violating pool, checked on a case
    # small enough to verify by hand
    vals = [3.0, 1.0, 2.0, 6.0, 5.0]
    got = invlap.isotonic_non_decreasing(vals)
    assert np.allclose(got, [2.0, 2.0, 2.0, 5.5, 5.5])
