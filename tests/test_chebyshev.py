"""The shared Chebyshev-Lobatto layer: the antiderivative map against
numpy's Chebyshev algebra, the series evaluator's exact zeros and its
indifference to trailing zero coefficients, and a panel table against
a closed-form integral."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from ddkit.chebyshev import Panels, antiderivative, lobatto, series


@pytest.mark.parametrize("n", [4, 8, 16, 24, 32, 64])
def test_antiderivative_matches_chebint(n):
    rng = np.random.default_rng(n)
    t = lobatto(n).t
    for d in sorted({0, 1, 2, n // 2, n - 1, n}):
        c = rng.uniform(-1.0, 1.0, d + 1)
        f = npcheb.chebval(t, c)
        ref = np.zeros(n + 2)
        ci = npcheb.chebint(c, lbnd=-1)
        ref[:ci.size] = ci
        A = antiderivative(f, 1.0)
        assert A.shape == (n + 2,)
        assert np.abs(A - ref).max() <= 1e-15 * np.abs(f).max()
        # the half-width scales every coefficient
        assert np.array_equal(antiderivative(f, 0.25), 0.25 * A)


def test_antiderivative_of_a_constant_has_two_coefficients():
    for n in (4, 16, 64):
        A = antiderivative(np.full((3, n + 1), 0.7), np.array([[1.0], [2.0], [0.5]]))
        assert np.count_nonzero(A[:, 2:]) == 0
        assert np.all(A[:, 1] != 0.0)


def test_series_is_zero_at_minus_one():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 18, 66):
        C = rng.standard_normal((7, m))
        assert np.all(series(C, -1.0) == 0.0)
        assert np.all(series(C, np.full(7, -1.0)) == 0.0)


def test_series_against_chebval():
    rng = np.random.default_rng(4)
    C = rng.standard_normal(20)
    t = rng.uniform(-1.0, 1.0, 50)
    ref = npcheb.chebval(t, C) - npcheb.chebval(-1.0, C)
    assert np.allclose(series(C, t), ref, rtol=0.0, atol=1e-13)


def test_trailing_zero_coefficients_change_no_bit():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((40, 9))
    t = rng.uniform(-1.0, 1.0, 40)
    base = series(C, t)
    for extra in (1, 7, 30):
        padded = np.concatenate([C, np.zeros((40, extra))], axis=1)
        assert np.array_equal(series(padded, t), base)


def test_two_panel_table_is_continuous_and_integrates_exp():
    """N(x) = int_0^x e^s ds = e^x - 1 on the panels [0, 1], [1, 2.5]."""
    n = 24
    edges = np.array([0.0, 1.0, 2.5])
    hs = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + hs * (lobatto(n).t + 1.0)
    A = antiderivative(np.exp(nodes), hs)
    table = Panels(edges, np.array([0.0, A[0].sum()]), A)
    left, right = table(np.array([np.nextafter(1.0, 0.0), 1.0]))
    assert abs(left - right) <= 4 * math.ulp(right)
    assert abs(table.offsets[0] + series(A[0], 1.0) - right) <= 2 * math.ulp(right)
    x = np.linspace(0.0, 2.5, 101)
    assert np.allclose(table(x), np.expm1(x), rtol=1e-14, atol=1e-15)
    assert np.all(Panels(edges[:1], np.empty(0), np.empty((0, n + 2)))(x) == 0.0)
