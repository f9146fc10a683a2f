"""Inversion of Laplace transforms sampled on the positive real axis.

Gaver-Stehfest samples the transform at real points only (the drawdown
transform extends to complex alpha, where a Bromwich-line inversion
could sample it).  The weights grow fast with the order (sum|w| is
about 1.3e6 at order 10 and 3.4e11 at order 18), so transform noise of
1e-9 caps the useful order well below where the scheme's own
truncation error would keep improving.  The order sweep picks the pair
of consecutive even orders that agree best, which is the standard
practical stabilization for this scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, integer, real

_MOD = "invlap"

DEFAULT_ORDERS = (10, 12, 14, 16, 18)
# even/odd-order disagreement above this marks the inversion unstable
INSTABILITY_THRESHOLD = 1e-4


@lru_cache(maxsize=None)
def stehfest_weights(order: int) -> tuple[Fraction, ...]:
    """Exact rational Gaver-Stehfest weights for an even order."""
    order = integer(order, "order", "stehfest_weights", _MOD, 2)
    if order % 2:
        raise ValidationError("order must be even", operation="stehfest_weights",
                              value=order, module=_MOD)
    if order > 30:
        raise ValidationError("order above 30 is pure noise in double precision",
                              operation="stehfest_weights", value=order,
                              module=_MOD)
    half = order // 2
    out = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += (Fraction(j) ** half * Fraction(math.factorial(2 * j)) /
                    (math.factorial(half - j) * math.factorial(j)
                     * math.factorial(j - 1) * math.factorial(k - j)
                     * math.factorial(2 * j - k)))
        out.append(acc if (k + half) % 2 == 0 else -acc)
    return tuple(out)


def nodes(t: float, order: int) -> list[float]:
    """The points k ln2 / t, k = 1..order, where invert samples the
    transform, as the same floats: a caller can evaluate them ahead."""
    ln2t = math.log(2.0) / t
    return [k * ln2t for k in range(1, order + 1)]


def invert(transform: Callable[[float], float], t: float,
           order: int = 14) -> float:
    """Approximate f(t) from its Laplace transform F.

    transform is evaluated at the real points nodes(t, order).
    Truncation accuracy for smooth f is typically 1e-6 .. 1e-8 at
    orders 14-18; noise in F is amplified by roughly sum|weights|,
    which is 1.3e6 at order 10 and 3.4e11 at order 18, so the usable
    order depends on how accurately F can be evaluated.
    """
    t = real(t, "t", "invert", _MOD, 0.0, strict=True)
    ws = stehfest_weights(order)
    terms = [float(w) * float(transform(a)) for a, w in zip(nodes(t, order), ws)]
    return math.log(2.0) / t * math.fsum(terms)


@dataclass(frozen=True)
class InversionResult:
    value: float
    disagreement: float
    order: int
    unstable: bool
    sweep: tuple            # (order, value) at every order swept, ascending


def invert_sweep(transform: Callable[[float], float], t: float,
                 orders: Sequence[int] = DEFAULT_ORDERS) -> InversionResult:
    """Invert at several orders and keep the most self-consistent pair.

    All orders share the same evaluation points k ln2 / t, so the
    transform is called at most max(orders) times.  The reported value
    comes from the higher order of the closest pair; disagreement is
    that pair's gap, flagged unstable above INSTABILITY_THRESHOLD.
    """
    t = real(t, "t", "invert_sweep", _MOD, 0.0, strict=True)
    orders = sorted({integer(n, "order", "invert_sweep", _MOD, 2) for n in orders})
    if len(orders) < 2:
        raise ValidationError("need at least two orders to sweep",
                              operation="invert_sweep", value=orders,
                              module=_MOD)
    cached = lru_cache(maxsize=None)(lambda a: float(transform(a)))
    vals = {n: invert(cached, t, n) for n in orders}
    # the closest pair, the first one on a tie
    gap, order = min((abs(vals[hi] - vals[lo]), hi) for lo, hi in zip(orders, orders[1:]))
    return InversionResult(value=vals[order], disagreement=gap, order=order,
                           unstable=gap > INSTABILITY_THRESHOLD,
                           sweep=tuple(vals.items()))


def isotonic_non_decreasing(values) -> np.ndarray:
    """L2 projection onto non-decreasing sequences (pool adjacent violators)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValidationError("values must be one-dimensional",
                              operation="isotonic", value=v.ndim, module=_MOD)
    # blocks of (mean, count), merged while out of order
    means: list[float] = []
    counts: list[int] = []
    for val in v:
        means.append(float(val))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    return np.repeat(means, counts)
