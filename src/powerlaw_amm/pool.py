"""Power-law constant-invariant pool: X^n * Y = K.

A pool holds a volatile token X against a stablecoin Y. n=1 is the classic
constant-product pool; larger n concentrates stablecoin retention on the
upside at the cost of steeper slippage. Pools are immutable values: swaps
return a new Pool instead of mutating in place, so K can always be recomputed
from state and never drifts from it.

Validation happens at the public boundary: the Pool constructor takes only
finite nonnegative reserves and an integer exponent in [MIN_EXPONENT,
MAX_EXPONENT], spot_price rejects an inactive pool or a price n*Y/X outside
(0, inf), and the swap functions check the fee rate. The swap arithmetic
itself lives once, in the float kernels _buy_x and _sell_x, which assume a
checked pool and fee and keep only the guards a trade can trip: the input
must be positive and finite, at most SWAP_INPUT_CAP times the matching
reserve, and must leave a price in (0, inf). The market loop calls the
kernels directly on plain floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

MIN_EXPONENT = 1
MAX_EXPONENT = 8

# Swap inputs above this multiple of the matching reserve are rejected:
# beyond that the first-order price-impact analysis is meaningless.
SWAP_INPUT_CAP = 10.0


class PoolError(ValueError):
    """Domain error on pool state or swap arguments."""


class TradeTooLarge(PoolError):
    """Swap input exceeded SWAP_INPUT_CAP times the matching reserve."""


@dataclass(frozen=True)
class Pool:
    x_reserve: float
    y_reserve: float
    n: int = 1

    def __post_init__(self):
        _check_exponent(self.n)
        if not (0.0 <= self.x_reserve < math.inf and 0.0 <= self.y_reserve < math.inf):
            raise PoolError(
                f"reserves must be finite and nonnegative, got {self.x_reserve}, {self.y_reserve}"
            )

    @property
    def is_active(self) -> bool:
        return self.x_reserve > 0 and self.y_reserve > 0

    @property
    def invariant(self) -> float:
        """K = X^n * Y, computed on demand and never stored."""
        return self.x_reserve**self.n * self.y_reserve

    @property
    def price(self) -> float:
        return spot_price(self)


@dataclass(frozen=True)
class SwapResult:
    amount_out: float
    fee_paid: float
    price_before: float
    price_after: float
    slippage_exact: float


def _require_active(pool: Pool):
    if not pool.is_active:
        raise PoolError("pool is inactive (a reserve is zero)")


def spot_price(pool: Pool) -> float:
    """Marginal price of X in Y units: n * Y / X. Raises PoolError for an
    inactive pool and for reserves so lopsided that the price leaves (0, inf)."""
    x, y = pool.x_reserve, pool.y_reserve
    if not (x > 0 and y > 0):
        raise PoolError("pool is inactive (a reserve is zero)")
    price = pool.n * y / x
    if not 0.0 < price < math.inf:
        raise PoolError(f"pool price n*y/x is {price}, outside (0, inf)")
    return price


def _buy_x(x: float, y: float, n: int, dy_in: float, fee: float) -> tuple[float, float, float]:
    """Kernel of swap_y_for_x: (new_x, new_y, new_price) after dy_in of Y,
    less the withheld fee, enters a pool with reserves x, y.

    Assumes x, y finite and positive, n a valid exponent and fee in
    [0, dy_in). Raises PoolError for an input that is not positive and finite
    or a result whose price leaves (0, inf), and TradeTooLarge above the cap.
    """
    if not 0.0 < dy_in < math.inf:
        raise PoolError(f"swap input dy_in must be positive and finite, got {dy_in}")
    if dy_in > SWAP_INPUT_CAP * y:
        raise TradeTooLarge(f"buy input {dy_in} exceeds {SWAP_INPUT_CAP}x the reserve {y}")
    dy_eff = dy_in - fee
    new_x = x * (y / (y + dy_eff)) ** (1.0 / n)
    new_y = y + dy_eff
    if new_x > 0.0:
        price = n * new_y / new_x
        if price < math.inf:
            return new_x, new_y, price
    raise PoolError("swap would drain the X reserve: the price n*y/x leaves (0, inf)")


def _sell_x(x: float, y: float, n: int, dx_in: float, fee: float) -> tuple[float, float, float]:
    """Kernel of swap_x_for_y, the mirror of _buy_x: (new_x, new_y,
    new_price) after dx_in of X, less the withheld fee, enters the pool."""
    if not 0.0 < dx_in < math.inf:
        raise PoolError(f"swap input dx_in must be positive and finite, got {dx_in}")
    if dx_in > SWAP_INPUT_CAP * x:
        raise TradeTooLarge(f"sell input {dx_in} exceeds {SWAP_INPUT_CAP}x the reserve {x}")
    new_x = x + (dx_in - fee)
    new_y = y * (x / new_x) ** n
    price = n * new_y / new_x
    if price > 0.0:
        return new_x, new_y, price
    raise PoolError("swap would drain the Y reserve: the price n*y/x leaves (0, inf)")


def swap_y_for_x(pool: Pool, dy_in: float, fee_rate: float = 0.0) -> tuple[Pool, SwapResult]:
    """Buy X with dy_in units of Y. The fee is withheld from the input, so only
    dy_in - fee enters the pool and K is preserved exactly on the fee-free part."""
    price_before = spot_price(pool)
    if not 0.0 <= fee_rate < 1.0:
        raise PoolError(f"fee_rate must be in [0, 1), got {fee_rate}")
    fee = fee_rate * dy_in
    new_x, new_y, price_after = _buy_x(pool.x_reserve, pool.y_reserve, pool.n, dy_in, fee)
    slippage = (price_after - price_before) / price_before
    result = SwapResult(pool.x_reserve - new_x, fee, price_before, price_after, slippage)
    return Pool(new_x, new_y, pool.n), result


def swap_x_for_y(pool: Pool, dx_in: float, fee_rate: float = 0.0) -> tuple[Pool, SwapResult]:
    """Sell dx_in units of X for Y. Mirror of swap_y_for_x."""
    price_before = spot_price(pool)
    if not 0.0 <= fee_rate < 1.0:
        raise PoolError(f"fee_rate must be in [0, 1), got {fee_rate}")
    fee = fee_rate * dx_in
    new_x, new_y, price_after = _sell_x(pool.x_reserve, pool.y_reserve, pool.n, dx_in, fee)
    slippage = (price_after - price_before) / price_before
    result = SwapResult(pool.y_reserve - new_y, fee, price_before, price_after, slippage)
    return Pool(new_x, new_y, pool.n), result


def reserves_at_price(pool: Pool, target_price: float) -> Pool:
    """The unique state on the same invariant whose spot price is target_price.

    Y scales as (P/P0)^(n/(n+1)) and X follows from X = n*Y/P.
    """
    _require_active(pool)
    if target_price <= 0:
        raise PoolError(f"target price must be positive, got {target_price}")
    p0 = spot_price(pool)
    y_t = pool.y_reserve * (target_price / p0) ** (pool.n / (pool.n + 1))
    x_t = pool.n * y_t / target_price
    return Pool(x_t, y_t, pool.n)


def depleted_reserves(y0: float, m: float, n: int) -> float:
    """Stablecoin reserve left after an m-fold price move under the depletion
    convention: y0 * m^(-1/(n+1))."""
    if not 0.0 <= y0 < math.inf:
        raise PoolError(f"initial reserve must be finite and nonnegative, got {y0}")
    if not 0.0 < m < math.inf:
        raise PoolError(f"price multiplier must be positive and finite, got {m}")
    _check_exponent(n)
    return y0 * m ** (-1.0 / (n + 1))


def retention_ratio(m: float, n: int) -> float:
    """Stablecoin retention of an exponent-n pool relative to n=1, after an
    m-fold price move: m^(1/2 - 1/(n+1))."""
    if not 0.0 < m < math.inf:
        raise PoolError(f"price multiplier must be positive and finite, got {m}")
    _check_exponent(n)
    return m ** (0.5 - 1.0 / (n + 1))


def price_elasticity(n: int) -> float:
    """d log P / d log X = -(n+1)."""
    _check_exponent(n)
    return -(n + 1.0)


def min_arbitrage_size(pool: Pool, external_price: float) -> float:
    """Smallest trade that closes a positive external-price gap profitably:
    (P_ext - P) * X / ((n+1) * P). Only the buy direction is modeled."""
    p = spot_price(pool)
    if external_price < p:
        raise PoolError("external price below spot: sell-side gap not modeled")
    return (external_price - p) * pool.x_reserve / ((pool.n + 1) * p)


def slippage_first_order(pool: Pool, dx: float) -> float:
    """First-order slippage for a reserve change dx: -(n+1) * dx / X.
    Valid for |dx| << X; the caller is responsible for staying small."""
    _require_active(pool)
    return -(pool.n + 1) * dx / pool.x_reserve


def slippage_ratio(n: int) -> float:
    """Slippage of an exponent-n pool relative to n=1 for the same trade:
    (n+1)/2."""
    _check_exponent(n)
    return (n + 1) / 2.0


def _check_exponent(n: int):
    if type(n) is int:
        valid = MIN_EXPONENT <= n <= MAX_EXPONENT
    else:  # e.g. 4.0 or a numpy integer; the range test rejects NaN and inf before int()
        valid = (
            isinstance(n, numbers.Real)
            and not isinstance(n, bool)
            and MIN_EXPONENT <= n <= MAX_EXPONENT
            and int(n) == n
        )
    if not valid:
        raise PoolError(f"exponent must be an integer in [{MIN_EXPONENT}, {MAX_EXPONENT}], got {n!r}")
