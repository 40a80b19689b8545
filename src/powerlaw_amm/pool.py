"""Power-law constant-invariant pool: X^n * Y = K.

A pool holds a volatile token X against a stablecoin Y. n=1 is the classic
constant-product pool; larger n concentrates stablecoin retention on the
upside at the cost of steeper slippage. Pools are immutable values: swaps
return a new Pool instead of mutating in place, so K can always be recomputed
from state and never drifts from it. Pool and SwapResult are frozen
dataclasses with a hand-written __init__ that stores the fields in the
instance __dict__; equality, hashing, repr, dataclasses.replace (which
revalidates through Pool's __init__), pickling and copying are the
dataclass ones.

Validation happens once, at the public boundary, and every number there
is read as a Python float (_real) or a float64 array. The Pool constructor
takes only finite nonnegative reserves and an integer exponent in
[MIN_EXPONENT, MAX_EXPONENT] (a numpy integer counts, 4.0 does not), and
every function taking n holds and computes with it as a Python int;
spot_price is the one check of pool state (active, with a price n*Y/X in
(0, inf)) and every function taking a Pool calls it, and the swap functions
check the fee rate. The swap arithmetic lives once, in the float kernels
_buy_x and _sell_x. They take the fee rate and return the fee withheld from
the input, assume a checked pool and fee rate, and own the one check of a
trade amount: positive and finite, at most SWAP_INPUT_CAP times the
matching reserve, leaving a price in (0, inf); a swap's result Pool takes
their new reserves unchecked. The market loop calls them on plain floats.

The closed forms (depleted_reserves, retention_ratio) take the price
multiplier m as a float or as a 1-D float array, so a sweep makes one call
per exponent rather than one per grid point. A float argument returns a
Python float, for any accepted n. The only power they raise goes through
_pow: libm pow per point, by a float's ** or np.float_power's float64 loop
(never np.power's SIMD one). Every other operation is correctly rounded in
numpy and Python alike, so array and per-point float calls give the same bits.

The checks shared with the rest of the package live here too: the number
rule (_real), one finiteness bound (FLOAT_MAX), one exponent rule
(_check_exponent, which returns the Python int it checked), one
price-multiplier rule for floats and arrays (_multiplier) and the type rule
of every config dataclass field (_check_fields).

This module does not import numpy, so a Pool, a swap and a quote cost no
numpy import. The rules recognise a numpy scalar or array through _numpy,
which returns numpy only once something else has loaded it. No numpy value
can exist before then, so each rule means what it would with numpy
imported here. An array closed form builds its result with that numpy.
"""

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

MIN_EXPONENT = 1
MAX_EXPONENT = 8

# Swap inputs above this multiple of the matching reserve are rejected:
# beyond that the first-order price-impact analysis is meaningless.
SWAP_INPUT_CAP = 10.0


# The largest finite float. Every finiteness bound is an exact comparison
# with it, False for NaN and inf: no float lies between it and inf.
FLOAT_MAX = sys.float_info.max


class PoolError(ValueError):
    """Domain error on pool state or swap arguments."""


class TradeTooLarge(PoolError):
    """Swap input exceeded SWAP_INPUT_CAP times the matching reserve."""


# Pool and SwapResult write their own __init__, which dataclass keeps. The
# generated one of a frozen dataclass stores each field through
# object.__setattr__, about half the cost of building one; writing the
# instance __dict__ directly stores the same attributes, and assignment and
# deletion still raise FrozenInstanceError.


@dataclass(frozen=True)
class Pool:
    x_reserve: float
    y_reserve: float
    n: int = 1

    def __init__(self, x_reserve: float, y_reserve: float, n: int = 1):
        # one inline test passes floats in range; anything else takes the full rules
        if not (type(x_reserve) is float and type(y_reserve) is float and type(n) is int
                and 0.0 <= x_reserve <= FLOAT_MAX and 0.0 <= y_reserve <= FLOAT_MAX
                and MIN_EXPONENT <= n <= MAX_EXPONENT):
            n = _check_exponent(n)
            x_reserve, y_reserve = _nonnegative(x_reserve, "reserves"), _nonnegative(y_reserve, "reserves")
        d = self.__dict__
        d["x_reserve"] = x_reserve
        d["y_reserve"] = y_reserve
        d["n"] = n

    @property
    def invariant(self) -> float:
        """K = X^n * Y, computed on demand and never stored. Raises PoolError
        when K is too large for a float."""
        try:
            k = self.x_reserve**self.n * self.y_reserve
            if k <= FLOAT_MAX:
                return k
        except OverflowError:
            pass
        raise PoolError(f"invariant K = X^n * Y overflows a float for {self}")


def _checked_pool(x: float, y: float, n: int) -> Pool:
    """A Pool of state a swap kernel has proven valid, without the checks."""
    pool = object.__new__(Pool)
    d = pool.__dict__
    d["x_reserve"] = x
    d["y_reserve"] = y
    d["n"] = n
    return pool


@dataclass(frozen=True)
class SwapResult:
    """amount_out = x - x' on a buy (y - y' on a sell) is exact token
    accounting: the pool loses what the trader gets, since the subtraction is
    exact for x' >= x/2 (Sterbenz's lemma). Its error is the rounding of x',
    the granularity of the reserve x, which no formula removes: against
    decimal (2000 random pools, n = 1..8), 9 % of a buy's amount_out at dy/y
    near 1e-14, 2 % of a sell's at dx/x near 1e-14, and falling in
    proportion to the trade (8e-6 and 1.5e-6 at 1e-10)."""

    amount_out: float
    fee_paid: float
    price_before: float
    price_after: float
    slippage_exact: float

    def __init__(
        self, amount_out: float, fee_paid: float, price_before: float, price_after: float, slippage_exact: float
    ):
        d = self.__dict__
        d["amount_out"] = amount_out
        d["fee_paid"] = fee_paid
        d["price_before"] = price_before
        d["price_after"] = price_after
        d["slippage_exact"] = slippage_exact


def spot_price(pool: Pool) -> float:
    """Marginal price of X in Y units: n * Y / X. Raises PoolError for an
    inactive pool and for reserves so lopsided that the price leaves (0, inf)."""
    x, y = pool.x_reserve, pool.y_reserve
    if not (x > 0 and y > 0):
        raise PoolError("pool is inactive (a reserve is zero)")
    price = pool.n * y / x
    if not 0.0 < price <= FLOAT_MAX:
        raise PoolError(f"pool price n*y/x is {price}, outside (0, inf)")
    return price


def _buy_x(x: float, y: float, n: int, dy_in: float, fee_rate: float) -> tuple[float, float, float, float]:
    """Kernel of swap_y_for_x: (new_x, new_y, new_price, fee) after dy_in of
    Y, less the fee fee_rate * dy_in withheld from it, enters reserves x, y.

    Assumes x, y finite and positive, n a valid exponent and fee_rate in
    [0, 1). Raises PoolError for an input that is not positive and finite
    or a result whose price leaves (0, inf), and TradeTooLarge above the cap.
    """
    if not 0.0 < dy_in <= FLOAT_MAX:
        raise PoolError(f"swap input dy_in must be positive and finite, got {dy_in}")
    if dy_in > SWAP_INPUT_CAP * y:
        raise TradeTooLarge(f"buy input {dy_in} exceeds {SWAP_INPUT_CAP}x the reserve {y}")
    fee = fee_rate * dy_in
    new_y = y + (dy_in - fee)
    new_x = x * (y / new_y) ** (1.0 / n)
    if new_x > 0.0:
        price = n * new_y / new_x
        if price <= FLOAT_MAX:
            return new_x, new_y, price, fee
    raise PoolError("swap would drain the X reserve: the price n*y/x leaves (0, inf)")


def _sell_x(x: float, y: float, n: int, dx_in: float, fee_rate: float) -> tuple[float, float, float, float]:
    """Kernel of swap_x_for_y, the mirror of _buy_x: (new_x, new_y, new_price,
    fee) after dx_in of X, less the fee fee_rate * dx_in withheld, enters the pool."""
    if not 0.0 < dx_in <= FLOAT_MAX:
        raise PoolError(f"swap input dx_in must be positive and finite, got {dx_in}")
    if dx_in > SWAP_INPUT_CAP * x:
        raise TradeTooLarge(f"sell input {dx_in} exceeds {SWAP_INPUT_CAP}x the reserve {x}")
    fee = fee_rate * dx_in
    new_x = x + (dx_in - fee)
    new_y = y * (x / new_x) ** n
    price = n * new_y / new_x
    if price > 0.0:
        return new_x, new_y, price, fee
    raise PoolError("swap would drain the Y reserve: the price n*y/x leaves (0, inf)")


def swap_y_for_x(pool: Pool, dy_in: float, fee_rate: float = 0.0) -> tuple[Pool, SwapResult]:
    """Buy X with dy_in units of Y. The fee is withheld from the input, so only
    dy_in - fee enters the pool and K is preserved exactly on the fee-free part."""
    price_before = spot_price(pool)
    fee_rate = fee_rate if type(fee_rate) is float else _real(fee_rate, "fee_rate")
    if not 0.0 <= fee_rate < 1.0:
        raise PoolError(f"fee_rate must be in [0, 1), got {fee_rate}")
    dy_in = dy_in if type(dy_in) is float else _real(dy_in, "swap input dy_in")
    new_x, new_y, price_after, fee = _buy_x(pool.x_reserve, pool.y_reserve, pool.n, dy_in, fee_rate)
    slippage = (price_after - price_before) / price_before
    result = SwapResult(pool.x_reserve - new_x, fee, price_before, price_after, slippage)
    return _checked_pool(new_x, new_y, pool.n), result


def swap_x_for_y(pool: Pool, dx_in: float, fee_rate: float = 0.0) -> tuple[Pool, SwapResult]:
    """Sell dx_in units of X for Y. Mirror of swap_y_for_x."""
    price_before = spot_price(pool)
    fee_rate = fee_rate if type(fee_rate) is float else _real(fee_rate, "fee_rate")
    if not 0.0 <= fee_rate < 1.0:
        raise PoolError(f"fee_rate must be in [0, 1), got {fee_rate}")
    dx_in = dx_in if type(dx_in) is float else _real(dx_in, "swap input dx_in")
    new_x, new_y, price_after, fee = _sell_x(pool.x_reserve, pool.y_reserve, pool.n, dx_in, fee_rate)
    slippage = (price_after - price_before) / price_before
    result = SwapResult(pool.y_reserve - new_y, fee, price_before, price_after, slippage)
    return _checked_pool(new_x, new_y, pool.n), result


def reserves_at_price(pool: Pool, target_price: float) -> Pool:
    """The unique state on the same invariant whose spot price is target_price.

    Y scales as (P/P0)^(n/(n+1)) and X follows from X = n*Y/P. The move
    P/P0 is a price multiplier, so it must be positive and finite.
    """
    p0 = spot_price(pool)
    if type(target_price) is not float:
        target_price = _real(target_price, "target_price of the price multiplier")
    m = _multiplier(target_price / p0)
    y_t = pool.y_reserve * m ** (pool.n / (pool.n + 1))
    x_t = pool.n * y_t / target_price
    return Pool(x_t, y_t, pool.n)


def depleted_reserves(y0: float, m: "float | np.ndarray", n: int) -> "float | np.ndarray":
    """Stablecoin reserve left after an m-fold price move under the depletion
    convention: y0 * m^(-1/(n+1)). m is a float or a 1-D float array. A
    reserve past the float range is a PoolError; for an array it names the
    first such entry and its index."""
    y0 = _nonnegative(y0, "initial reserve")
    m = _multiplier(m)
    n = _check_exponent(n)
    powers = _pow(m, -1.0 / (n + 1))
    if type(powers) is float:
        return _finite(y0 * powers, "depleted reserve y0 * m^(-1/(n+1))")
    with _numpy().errstate(over="ignore"):
        reserves = y0 * powers
    bad = reserves > FLOAT_MAX
    if bad.any():
        i = int(bad.argmax())
        raise PoolError(f"depleted reserve y0 * m^(-1/(n+1)) overflows a float for m {m.flat[i]} at index {i}")
    return reserves


def retention_ratio(m: "float | np.ndarray", n: int) -> "float | np.ndarray":
    """Stablecoin retention of an exponent-n pool relative to n=1, after an
    m-fold price move: m^(1/2 - 1/(n+1)). m is a float or a 1-D float array."""
    m = _multiplier(m)
    n = _check_exponent(n)
    return _pow(m, 0.5 - 1.0 / (n + 1))


def price_elasticity(n: int) -> float:
    """d log P / d log X = -(n+1)."""
    return -(_check_exponent(n) + 1.0)


def min_arbitrage_size(pool: Pool, external_price: float) -> float:
    """Smallest trade that closes a positive external-price gap profitably:
    (P_ext - P) * X / ((n+1) * P). Only the buy direction is modeled. A
    size past the float range is a PoolError."""
    p = spot_price(pool)
    if type(external_price) is not float:
        external_price = _real(external_price, "external_price")
    if not abs(external_price) <= FLOAT_MAX:
        raise PoolError(f"external_price must be finite, got {external_price}")
    if external_price < p:
        raise PoolError("external price below spot: sell-side gap not modeled")
    size = (external_price - p) * pool.x_reserve / ((pool.n + 1) * p)
    return _finite(size, "minimum arbitrage size (P_ext - P) * X / ((n+1) * P)")


def slippage_first_order(pool: Pool, dx: float) -> float:
    """First-order slippage for a reserve change dx: -(n+1) * dx / X.
    Valid for |dx| << X; the caller is responsible for staying small. A
    slippage past the float range is a PoolError."""
    spot_price(pool)  # the pool-state check: active, price in (0, inf)
    dx = dx if type(dx) is float else _real(dx, "dx")
    if not abs(dx) <= FLOAT_MAX:
        raise PoolError(f"dx must be finite, got {dx}")
    return _finite(-(pool.n + 1) * dx / pool.x_reserve, "first-order slippage -(n+1) * dx / X")


def slippage_ratio(n: int) -> float:
    """Slippage of an exponent-n pool relative to n=1 for the same trade:
    (n+1)/2."""
    return (_check_exponent(n) + 1) / 2.0


def _pow(base: "float | np.ndarray", e: float) -> "float | np.ndarray":
    """base ** e for a float base, or elementwise for a float64 array.

    Both are libm pow: a float's ** calls it, as np.float_power's float64
    loop does per element. np.power's SIMD routines differ from libm in the
    last bit on a few percent of inputs, which would change the bits of the
    per-point float calls and the pinned outputs.
    """
    if type(base) is float:
        return base**e
    return _numpy().float_power(base, e)


def _finite(result: float, name: str) -> float:
    """A float result, unless it is past the float range: then a PoolError naming it."""
    if abs(result) <= FLOAT_MAX:
        return result
    raise PoolError(f"{name} overflows a float: got {result}")


def _numpy():
    """numpy if something has loaded it, else None, when no numpy value can exist."""
    return sys.modules.get("numpy")


def _real(value, name: str, error: type[ValueError] = PoolError) -> float:
    """The number rule, for an argument that is not a Python float: a numpy
    scalar is read as its item(), and a real number that is not a bool
    becomes float(value), an int past the float range the inf of its sign
    (the caller's bound rejects it). Anything else is an error naming it."""
    np = _numpy()
    if np is not None and isinstance(value, np.generic):
        value = value.item()
        if type(value) is float:
            return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be finite and real, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nonnegative(value, name: str, error: type[ValueError] = PoolError) -> float:
    """value by the number rule, if it is finite and nonnegative."""
    if type(value) is not float:
        value = _real(value, name, error)
    if not 0.0 <= value <= FLOAT_MAX:
        raise error(f"{name} must be finite and nonnegative, got {value}")
    return value


def _number(value, name: str) -> "float | np.ndarray":
    """value by the number rule, or an array as a float64 array (a float64
    one is not copied); a 0-d array is its element, by the number rule."""
    if type(value) is float:
        return value
    np = _numpy()
    if np is not None and isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float) if value.ndim else _real(value[()], name)
    return _real(value, name)


def _multiplier(m: "float | np.ndarray") -> "float | np.ndarray":
    """The price-multiplier rule of the closed forms: m, by the number rule,
    positive and finite. An array is checked with one mask, and the error
    names its first bad value."""
    m = _number(m, "price multiplier")
    if type(m) is float:
        if not 0.0 < m <= FLOAT_MAX:
            raise PoolError(f"price multiplier must be positive and finite, got {m}")
        return m
    bad = ~((m > 0.0) & (m <= FLOAT_MAX))
    if bad.any():
        i = int(bad.argmax())
        raise PoolError(f"price multiplier must be positive and finite, got {m.flat[i]} at index {i}")
    return m


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_fields(obj):
    """Type rule of a config dataclass, called first by its __post_init__:
    an int field takes an integer, a float field a finite real number (bools
    are neither) and a dataclass field an instance of its class. The package
    does not postpone annotations, so each field's type is the class
    itself. A numpy scalar is read as its item(), and a float field holds
    its value by the number rule (_real): an int or a float32 there runs and
    is echoed as its float twin."""
    np = _numpy()
    for f in dataclasses.fields(obj):
        kind = f.type
        value = getattr(obj, f.name)
        if np is not None and isinstance(value, np.generic):
            value = value.item()
        if kind is int and not _is_integer(value):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind is float:
            value = _real(value, f.name, ValueError)
            if not abs(value) <= FLOAT_MAX:
                raise ValueError(f"{f.name} must be finite and real, got {value!r}")
        if dataclasses.is_dataclass(kind) and not isinstance(value, kind):
            raise ValueError(f"{f.name} must be a {kind.__name__}, got {value!r}")
        object.__setattr__(obj, f.name, value)


def _check_exponent(n, name: str = "exponent", error: type[ValueError] = PoolError) -> int:
    """The exponent rule: n as a Python int, if it is an integer in
    [MIN_EXPONENT, MAX_EXPONENT]; numpy integers count, bools and floats
    (4.0 too) do not. The error names the field."""
    if not ((type(n) is int or _is_integer(n)) and MIN_EXPONENT <= n <= MAX_EXPONENT):
        raise error(f"{name} must be an integer in [{MIN_EXPONENT}, {MAX_EXPONENT}], got {n!r}")
    return int(n)
