"""Chebyshev-Lobatto pieces shared by the window solver and the scale table.

A degree-n polynomial on [-1, 1] is held by its values at the n + 1
points t_j = -cos(j pi / n).  Discrete orthogonality at these points
turns values into Chebyshev coefficients in closed form, and the
antiderivative acts on coefficients by the classical recurrence
int T_k = T_{k+1} / (2 (k + 1)) - T_{k-1} / (2 (k - 1)); no least
squares and no matrix inverse enter.
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
    """

    t: np.ndarray
    ev: np.ndarray
    coef: np.ndarray
    anti: np.ndarray


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
    return Lobatto(np.cos(theta), ev, coef, a)
