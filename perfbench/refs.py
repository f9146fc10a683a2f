"""Closed-form references the benchmark checks ddkit's answers against.

All of them are for a start x, depth delta and unit diffusion
coefficient (sigma^2 = 1):

- Brownian motion: P[M_tau > y] = exp(-(y - x)/delta),
  E[e^{-alpha tau}] = sech(delta sqrt(2 alpha)), and the window factors
  b = sqrt(2a)/sinh(delta sqrt(2a)), chat = sqrt(2a) coth(delta sqrt(2a)).
- Drifted Brownian motion with drift mu (Lehoczky, Ann. Probab. 1977):
  P[M_tau > y] = exp(-(y - x) 2mu / (e^{2 mu delta} - 1)),
  E[e^{-alpha tau}] = g e^{-mu delta} / (g cosh(g delta) - mu sinh(g delta))
  with g = sqrt(mu^2 + 2 alpha).  The window factors follow from the same
  exponential solutions; per unit of scale at the window top,
  b S'(z) = g e^{-mu delta} / sinh(g delta) and chat S'(z) = g coth(g delta) - mu.
- P[tau <= t] for Brownian motion equals the exit time of (-delta, delta):
  1 - (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 t / (8 delta^2)).
"""

from __future__ import annotations

import math


def bm_tail(x, y, delta):
    return math.exp(-(y - x) / delta)


def bm_transform(alpha, delta):
    return 1.0 / math.cosh(delta * math.sqrt(2.0 * alpha))


def bm_b(alpha, delta):
    r = math.sqrt(2.0 * alpha)
    return r / math.sinh(delta * r)


def bm_chat(alpha, delta):
    r = math.sqrt(2.0 * alpha)
    return r / math.tanh(delta * r)


def bm_joint_transform(alpha, beta, x, delta):
    """E^x[e^{-alpha tau - beta M_tau}] = b e^{-beta x} / (chat + beta)."""
    if alpha == 0.0:
        return math.exp(-beta * x) / (1.0 + beta * delta)
    return bm_b(alpha, delta) * math.exp(-beta * x) / (bm_chat(alpha, delta) + beta)


def bm_tau_cdf(t, delta, terms=200):
    acc = 0.0
    for k in range(terms):
        m = 2 * k + 1
        acc += (-1) ** k / m * math.exp(-m * m * math.pi ** 2 * t / (8.0 * delta ** 2))
    return 1.0 - 4.0 / math.pi * acc


def bm_exit_transform(x, a, b, alpha):
    """E^x[e^{-alpha T_a}; T_a < T_b] for a < x < b."""
    r = math.sqrt(2.0 * alpha)
    return math.sinh(r * (b - x)) / math.sinh(r * (b - a))


def bm_hitting(x, y, alpha):
    return math.exp(-math.sqrt(2.0 * alpha) * abs(y - x))


def bm_exit_probability(x, a, b):
    return (b - x) / (b - a)


def dbm_tail(x, y, mu, delta):
    """P[M_tau > y] = exp(-(y - x) nu S'), nu S' = 2mu / (e^{2 mu delta} - 1)."""
    return math.exp(-(y - x) * dbm_nu_times_sprime(mu, delta))


def dbm_transform(alpha, mu, delta):
    g = math.sqrt(mu * mu + 2.0 * alpha)
    return g * math.exp(-mu * delta) / (g * math.cosh(g * delta)
                                        - mu * math.sinh(g * delta))


def dbm_b_times_sprime(alpha, mu, delta):
    g = math.sqrt(mu * mu + 2.0 * alpha)
    return g * math.exp(-mu * delta) / math.sinh(g * delta)


def dbm_chat_times_sprime(alpha, mu, delta):
    g = math.sqrt(mu * mu + 2.0 * alpha)
    return g / math.tanh(g * delta) - mu


def dbm_nu_times_sprime(mu, delta):
    g = 2.0 * mu
    return g / math.expm1(g * delta)


def dbm_exit_probability(x, a, b, mu):
    g = 2.0 * mu
    return ((math.exp(-g * x) - math.exp(-g * b))
            / (math.exp(-g * a) - math.exp(-g * b)))


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)
