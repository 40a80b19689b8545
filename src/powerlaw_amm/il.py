"""Impermanent-loss analytics for constant-product and power-law pools.

Two models of the power-law pool's IL are exposed side by side:

- il_proposed_scaled: the traditional IL divided by the improvement factor
  g(n) = (n+1)^2 / (4n). This is the factor model behind the 51.3% headline
  at a 100x move with n=4.
- il_powerlaw_exact: the closed form 1 - (1+eps)^(-1/(n+1)) obtained from the
  pool-value / hold-value ratio, which gives 60.2% for the same point.

They disagree away from small price moves; callers should say which model a
number came from. il_hold is the loss against holding the initial reserves,
the usual definition; the factor model matches it only for small moves.

The domains are the pool's: a bad exponent n or a price multiplier (m, or
1+eps) that is not positive and finite raises PoolError from
pool._check_exponent or pool._multiplier, and an eps whose square overflows
in il_powerlaw_taylor is a PoolError too, for a float or an array.

m and eps are a float or a 1-D float array, read as a Python float or a
float64 array by the pool's rule; n is one exponent, read as a Python int
by the exponent rule. A float argument, or a 0-d array, returns a Python
float for any accepted n, a numpy integer too, and an array an array of
the same length. The power goes through pool._pow: libm pow per point, by
a float's ** or by np.float_power's float64 loop (not np.power's SIMD
one), so an array call gives the same bits as the per-point float calls.
"""

import math

import numpy as np

from .pool import PoolError, _check_exponent, _multiplier, _number, _pow


def il_traditional(m: float | np.ndarray) -> float | np.ndarray:
    """Constant-product impermanent loss 1 - 2*sqrt(M)/(M+1).

    Symmetric under m <-> 1/m; zero at m=1.
    """
    m = _multiplier(m)
    root = np.sqrt(m) if isinstance(m, np.ndarray) else math.sqrt(m)
    return 1.0 - 2.0 * root / (m + 1.0)


def il_improvement_factor(n: int) -> float:
    """g(n) = (n+1)^2 / (4n); g(1) = 1."""
    n = _check_exponent(n)
    return (n + 1) ** 2 / (4.0 * n)


def il_proposed_scaled(m: float | np.ndarray, n: int) -> float | np.ndarray:
    """Factor model: traditional IL reduced by g(n)."""
    return il_traditional(m) / il_improvement_factor(n)


def il_powerlaw_exact(epsilon: float | np.ndarray, n: int) -> float | np.ndarray:
    """Exact power-law IL as a function of eps = M - 1.

    Built from pool value (n+1)*Y0*(1+eps)^(1-1/(n+1)) against hold value
    (n+1)*Y0*(1+eps); the common prefactor cancels, leaving
    1 - (1+eps)^(-1/(n+1)).
    """
    n = _check_exponent(n)
    return 1.0 - _pow(_eps_multiplier(epsilon)[1], -1.0 / (n + 1))


def il_hold(m: float | np.ndarray, n: int) -> float | np.ndarray:
    """Impermanent loss against holding the initial reserves:
    1 - (n+1)*m^(n/(n+1)) / (n*m + 1).

    X^n * Y = K is a geometric-mean pool with weight n/(n+1) on X, and this
    is its value over the value of the initial reserves held, minus one
    (Evans, "Liquidity Provider Returns in Geometric Mean Markets", arXiv
    2006.08806). At n=1 it is il_traditional; as m -> 1 its ratio to
    il_traditional tends to 1/g(n). Unlike the factor model it is not
    symmetric under m <-> 1/m: on a price fall a larger n loses more.
    """
    m = _multiplier(m)
    n = _check_exponent(n)
    return 1.0 - (n + 1) * _pow(m, n / (n + 1)) / (n * m + 1.0)


def il_powerlaw_taylor(epsilon: float | np.ndarray, n: int) -> float | np.ndarray:
    """Two-term small-eps expansion of the exact power-law IL:
    eps/(n+1) - (n+2)/(2*(n+1)^2) * eps^2."""
    n = _check_exponent(n)
    eps, _ = _eps_multiplier(epsilon)
    # eps > -1, so the expansion is finite exactly when eps**2 is: a float
    # raises OverflowError there, an array gives inf
    with np.errstate(over="ignore"):
        try:
            taylor = eps / (n + 1) - (n + 2) / (2.0 * (n + 1) ** 2) * eps**2
        except OverflowError:
            taylor = -math.inf
    if not np.isfinite(taylor).all():
        raise PoolError(f"eps**2 overflows a float in the Taylor expansion, got eps = {epsilon}")
    return taylor


def _eps_multiplier(epsilon: float | np.ndarray) -> tuple:
    """eps by the number rule, and the multiplier 1 + eps of the eps forms,
    checked by the multiplier rule (an eps past the float range is inf, so
    1 + eps fails it)."""
    eps = _number(epsilon, "eps of the price multiplier 1 + eps")
    return eps, _multiplier(1.0 + eps)

