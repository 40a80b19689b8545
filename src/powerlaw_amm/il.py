"""Impermanent-loss analytics for constant-product and power-law pools.

Two models of the power-law pool's IL are exposed side by side:

- il_proposed_scaled: the traditional IL divided by the improvement factor
  g(n) = (n+1)^2 / (4n). This is the factor model behind the 51.3% headline
  at a 100x move with n=4.
- il_powerlaw_exact: the closed form 1 - (1+eps)^(-1/(n+1)) obtained from the
  pool-value / hold-value ratio, which gives 60.2% for the same point.

They disagree away from small price moves; callers should say which model a
number came from.

The domains are the pool's: a bad exponent n or a price multiplier (m, or
1+eps) that is not positive and finite raises PoolError from
pool._check_exponent or pool._check_multiplier.
"""

from __future__ import annotations

import math

from .pool import _check_exponent, _check_multiplier


def il_traditional(m: float) -> float:
    """Constant-product impermanent loss 1 - 2*sqrt(M)/(M+1).

    Symmetric under m <-> 1/m; zero at m=1.
    """
    _check_multiplier(m)
    return 1.0 - 2.0 * math.sqrt(m) / (m + 1.0)


def il_improvement_factor(n: int) -> float:
    """g(n) = (n+1)^2 / (4n); g(1) = 1."""
    _check_exponent(n)
    return (n + 1) ** 2 / (4.0 * n)


def il_proposed_scaled(m: float, n: int) -> float:
    """Factor model: traditional IL reduced by g(n)."""
    return il_traditional(m) / il_improvement_factor(n)


def il_powerlaw_exact(epsilon: float, n: int) -> float:
    """Exact power-law IL as a function of eps = M - 1.

    Built from pool value (n+1)*Y0*(1+eps)^(1-1/(n+1)) against hold value
    (n+1)*Y0*(1+eps); the common prefactor cancels, leaving
    1 - (1+eps)^(-1/(n+1)).
    """
    _check_exponent(n)
    _check_multiplier(1.0 + epsilon)
    return 1.0 - (1.0 + epsilon) ** (-1.0 / (n + 1))


def il_powerlaw_taylor(epsilon: float, n: int) -> float:
    """Two-term small-eps expansion of the exact power-law IL:
    eps/(n+1) - (n+2)/(2*(n+1)^2) * eps^2."""
    _check_exponent(n)
    _check_multiplier(1.0 + epsilon)
    return epsilon / (n + 1) - (n + 2) / (2.0 * (n + 1) ** 2) * epsilon**2

