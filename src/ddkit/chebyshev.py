"""Chebyshev-Lobatto pieces: the only place values at Lobatto points
become coefficients, an antiderivative and a value at any point.

A degree-n polynomial on [-1, 1] is held by its values at the n + 1
points t_j = -cos(j pi / n).  Discrete orthogonality at these points
turns values into Chebyshev coefficients in closed form, and the
antiderivative acts on coefficients by the classical recurrence
int T_k = T_{k+1} / (2 (k + 1)) - T_{k-1} / (2 (k - 1)); no least
squares and no matrix inverse enter.

Five readers share these pieces: the window solver's panel integration
matrices (basis), the survival-mass table, the transforms' exponent and
the run-up exponent (laws), and the log-scale table of custom models
(models).  Each builds its antiderivative panel by panel with
``antiderivative`` and reads it with ``series``, mostly through a
``Panels`` table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np


class Lobatto(NamedTuple):
    """The tables of one degree n.

    t     the points, ascending, shape (n + 1,)
    ev    T_0 .. T_{n+2} at the points, shape (n + 1, n + 3)
    coef  values at the points -> Chebyshev coefficients, (n + 1, n + 1)
    anti  Chebyshev coefficients -> those of the antiderivative that
          vanishes at -1, shape (n + 3, n + 2)
    w     values at the points -> integral of the interpolant, (n + 1,)
    """

    t: np.ndarray
    ev: np.ndarray
    coef: np.ndarray
    anti: np.ndarray
    w: np.ndarray


@functools.lru_cache(maxsize=None)
def lobatto(n: int) -> Lobatto:
    theta = np.pi - np.pi * np.arange(n + 1) / n
    ev = np.cos(np.outer(theta, np.arange(n + 3)))
    k = np.arange(n + 2)
    a = np.zeros((n + 3, n + 2))
    a[k + 1, k] = np.where(k == 0, 1.0, 0.5 / (k + 1))
    a[k[2:] - 1, k[2:]] = -0.5 / (k[2:] - 1)
    a[0] -= (-1.0) ** np.arange(n + 3) @ a          # vanishing at -1
    w = np.where(np.arange(n + 1) % n == 0, 0.5, 1.0)
    coef = (2.0 / n) * w[:, None] * ev[:, :-2].T * w
    return Lobatto(np.cos(theta), ev, coef, a, a[:-1, :-1].sum(axis=0) @ coef)


def coefficients(f):
    """Chebyshev coefficients of the interpolant of the values f
    (..., n + 1) at lobatto(n).t."""
    return f @ lobatto(np.shape(f)[-1] - 1).coef.T


def antiderivative(f, hs):
    """The n + 2 Chebyshev coefficients of hs (the panel half-width) times
    the antiderivative from t = -1 of the interpolant of the values f
    (..., n + 1) at lobatto(n).t.  The interpolant's trailing coefficients
    at or below n + 1 ulps of max |f|, rounding noise, are dropped first,
    so a constant has exactly one."""
    lob = lobatto(np.shape(f)[-1] - 1)
    c = coefficients(f)
    small = np.abs(c) <= (len(lob.t) * 2.0 ** -52) * np.abs(f).max(axis=-1, keepdims=True)
    c[np.logical_and.accumulate(small[..., ::-1], axis=-1)[..., ::-1]] = 0.0
    return hs * (c @ lob.anti[:-1, :-1].T)


def series(C, t):
    """sum_j C[..., j] (T_j(t) - T_j(-1)) for t (broadcast against C[..., 0])
    in [-1, 1] and two or more coefficients, by the three-term recurrence.
    The terms are added in order of j, so trailing zero coefficients
    change no bit, and the sum is exactly 0 at t = -1."""
    s = C[..., 1] * (t + 1.0)
    t2, tj, tm = 2.0 * t, t, 1.0
    for j in range(2, np.shape(C)[-1]):
        tj, tm = t2 * tj - tm, tj
        s += C[..., j] * (tj - (-1.0) ** j)
    return s


class Panels(NamedTuple):
    """A piecewise Chebyshev function: offsets[k] + series(coefs[k], t) on
    panel k, [edges[k], edges[k + 1]], in t = 2 (x - edges[k]) / (edges[k + 1]
    - edges[k]) - 1.  Rows padded with zeros to the longest change no value."""

    edges: np.ndarray
    offsets: np.ndarray
    coefs: np.ndarray

    def __call__(self, x):
        """Values at points x in [edges[0], edges[-1]]; 0 without panels."""
        if not len(self.offsets):
            return np.zeros(np.shape(x))
        k = np.searchsorted(self.edges[1:-1], x, side="right")
        lo = self.edges[k]
        t = 2.0 * (x - lo) / (self.edges[k + 1] - lo) - 1.0
        return self.offsets[k] + series(self.coefs[k], t)
