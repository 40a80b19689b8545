"""Pool math: pricing, swaps, retention, slippage, arbitrage bounds."""

import copy
import dataclasses
import decimal
import hashlib
import math
import pickle
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm.fees import EpochLedger, FeeSchedule, classify_regime, compute_fee, split_fee
from powerlaw_amm.il import (
    il_hold,
    il_improvement_factor,
    il_powerlaw_exact,
    il_powerlaw_taylor,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import (
    Pool,
    PoolError,
    SwapResult,
    TradeTooLarge,
    _buy_x,
    _sell_x,
    depleted_reserves,
    min_arbitrage_size,
    price_elasticity,
    reserves_at_price,
    retention_ratio,
    slippage_first_order,
    slippage_ratio,
    spot_price,
    swap_x_for_y,
    swap_y_for_x,
)

reserves = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
exponents = st.integers(min_value=1, max_value=8)


def make_pool(x, y, n):
    return Pool(x, y, n)


class TestSpotPrice:
    def test_constant_product(self):
        assert spot_price(Pool(1000, 10000, 1)) == 10.0

    def test_power_law(self):
        assert spot_price(Pool(1000, 10000, 4)) == 40.0

    def test_hand_value(self):
        assert spot_price(Pool(500, 3981, 4)) == pytest.approx(31.848, abs=1e-12)

    def test_inactive_pool_rejected(self):
        with pytest.raises(PoolError):
            spot_price(Pool(0.0, 100.0, 1))
        with pytest.raises(PoolError):
            spot_price(Pool(100.0, 0.0, 1))

    def test_bad_exponent_rejected(self):
        with pytest.raises(PoolError):
            Pool(1.0, 1.0, 0)
        with pytest.raises(PoolError):
            Pool(1.0, 1.0, 9)


class TestSwapYForX:
    def test_constant_product_doubling(self):
        new_pool, res = swap_y_for_x(Pool(100, 100, 1), 100, 0.0)
        assert res.amount_out == pytest.approx(50.0, rel=1e-12)
        assert new_pool.x_reserve == pytest.approx(50.0, rel=1e-12)
        assert new_pool.y_reserve == pytest.approx(200.0, rel=1e-12)

    def test_n4_closed_form(self):
        _, res = swap_y_for_x(Pool(100, 100, 4), 100, 0.0)
        assert res.amount_out == pytest.approx(100 * (1 - 0.5**0.25), rel=1e-12)

    def test_fee_withheld_from_input(self):
        new_pool, res = swap_y_for_x(Pool(100, 100, 4), 100, 0.01)
        assert res.fee_paid == pytest.approx(1.0, rel=1e-12)
        assert res.amount_out == pytest.approx(100 * (1 - (100 / 199) ** 0.25), rel=1e-12)
        # only the effective input enters the pool
        assert new_pool.y_reserve == pytest.approx(199.0, rel=1e-12)

    def test_buy_raises_price(self):
        _, res = swap_y_for_x(Pool(100, 100, 4), 10, 0.0)
        assert res.price_after > res.price_before
        assert res.slippage_exact > 0

    def test_nonpositive_input_rejected(self):
        with pytest.raises(PoolError):
            swap_y_for_x(Pool(100, 100, 4), 0.0, 0.0)
        with pytest.raises(PoolError):
            swap_y_for_x(Pool(100, 100, 4), -1.0, 0.0)

    def test_oversized_input_rejected(self):
        with pytest.raises(TradeTooLarge):
            swap_y_for_x(Pool(100, 100, 4), 1001.0, 0.0)


class TestSwapXForY:
    def test_constant_product_symmetry(self):
        _, res = swap_x_for_y(Pool(100, 100, 1), 100, 0.0)
        assert res.amount_out == pytest.approx(50.0, rel=1e-12)

    def test_n4_closed_form(self):
        new_pool, res = swap_x_for_y(Pool(100, 100, 4), 10, 0.0)
        assert res.amount_out == pytest.approx(100 * (1 - (100 / 110) ** 4), rel=1e-12)
        k0 = Pool(100, 100, 4).invariant
        assert abs(new_pool.invariant / k0 - 1) < 1e-12

    def test_sell_lowers_price(self):
        _, res = swap_x_for_y(Pool(100, 100, 4), 10, 0.0)
        assert res.price_after < res.price_before
        assert res.slippage_exact < 0

    def test_zero_input_rejected(self):
        with pytest.raises(PoolError):
            swap_x_for_y(Pool(100, 100, 4), 0.0, 0.0)


class TestReservesAtPrice:
    def test_n4_hundredfold(self):
        pool = Pool(1000.0, 10000.0, 4)
        moved = reserves_at_price(pool, spot_price(pool) * 100)
        assert moved.y_reserve / pool.y_reserve == pytest.approx(100**0.8, rel=1e-12)

    def test_n1_hundredfold(self):
        pool = Pool(1000.0, 10000.0, 1)
        moved = reserves_at_price(pool, spot_price(pool) * 100)
        assert moved.y_reserve / pool.y_reserve == pytest.approx(10.0, rel=1e-12)

    def test_identity(self):
        pool = Pool(123.0, 456.0, 3)
        moved = reserves_at_price(pool, spot_price(pool))
        assert moved.x_reserve == pytest.approx(pool.x_reserve, rel=1e-12)
        assert moved.y_reserve == pytest.approx(pool.y_reserve, rel=1e-12)

    @given(x=reserves, y=reserves, n=exponents, mult=st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_price_consistency_and_invariant(self, x, y, n, mult):
        pool = Pool(x, y, n)
        target = spot_price(pool) * mult
        moved = reserves_at_price(pool, target)
        assert spot_price(moved) == pytest.approx(target, rel=1e-12)
        assert moved.invariant == pytest.approx(pool.invariant, rel=1e-9)


class TestDepletionAndRetention:
    def test_table_values(self):
        assert depleted_reserves(10000, 100, 4) == pytest.approx(3981.07, abs=0.01)
        assert depleted_reserves(10000, 100, 1) == pytest.approx(1000.0, rel=1e-12)
        assert depleted_reserves(10000, 1, 3) == 10000.0

    def test_retention_headline(self):
        assert retention_ratio(100, 4) == pytest.approx(100**0.3, rel=1e-12)
        assert retention_ratio(1, 5) == 1.0
        assert retention_ratio(10000, 4) == pytest.approx(10000**0.3, rel=1e-12)

    @given(m=st.floats(1.0 + 1e-6, 1e6))
    @settings(max_examples=100)
    def test_monotone_in_n(self, m):
        depleted = [depleted_reserves(1.0, m, n) for n in range(1, 9)]
        ratios = [retention_ratio(m, n) for n in range(1, 9)]
        assert all(a < b for a, b in zip(depleted, depleted[1:]))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestElasticityAndSlippage:
    @pytest.mark.parametrize("n,expected", [(1, -2.0), (4, -5.0), (8, -9.0)])
    def test_elasticity(self, n, expected):
        assert price_elasticity(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (4, 2.5), (5, 3.0)])
    def test_slippage_ratio(self, n, expected):
        assert slippage_ratio(n) == expected

    def test_slippage_ratio_monotone(self):
        vals = [slippage_ratio(n) for n in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_first_order_values(self):
        assert slippage_first_order(Pool(10000, 1, 4), 0.0) == 0.0
        assert slippage_first_order(Pool(10000, 1, 4), 10.0) == pytest.approx(-0.005)
        assert slippage_first_order(Pool(10000, 1, 1), 10.0) == pytest.approx(-0.002)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_first_order_matches_exact_small_trade(self, n):
        pool = Pool(10000.0, 10000.0, n)
        dx = 1.0  # dx / X = 1e-4
        _, res = swap_x_for_y(pool, dx, 0.0)
        approx = slippage_first_order(pool, dx)
        assert abs(approx - res.slippage_exact) / abs(res.slippage_exact) < 1e-3

    @pytest.mark.parametrize("n", [1, 4])
    def test_first_order_error_shrinks_linearly(self, n):
        pool = Pool(10000.0, 10000.0, n)
        errors = []
        for dx in (1.0, 0.5, 0.25):
            _, res = swap_x_for_y(pool, dx, 0.0)
            errors.append(abs(slippage_first_order(pool, dx) - res.slippage_exact))
        assert errors[0] / errors[1] > 1.9
        assert errors[1] / errors[2] > 1.9


class TestMinArbitrageSize:
    def test_no_gap(self):
        pool = Pool(1000.0, 10000.0, 4)
        assert min_arbitrage_size(pool, spot_price(pool)) == 0.0

    def test_n4_example(self):
        pool = Pool(1000.0, 10000.0, 4)  # price 40
        assert min_arbitrage_size(pool, 44.0) == pytest.approx(20.0, rel=1e-12)

    def test_n1_same_gap(self):
        pool = Pool(1000.0, 40000.0, 1)  # price 40
        assert min_arbitrage_size(pool, 44.0) == pytest.approx(50.0, rel=1e-12)

    def test_scales_inverse_n_plus_one(self):
        base = None
        for n in range(1, 9):
            pool = Pool(1000.0, 40000.0 / n, n)  # price 40 for every n
            size = min_arbitrage_size(pool, 42.0)
            if base is None:
                base = size * 2  # n=1 -> (n+1)=2
            assert size == pytest.approx(base / (n + 1), rel=1e-12)

    def test_sell_side_not_modeled(self):
        pool = Pool(1000.0, 10000.0, 4)
        with pytest.raises(PoolError):
            min_arbitrage_size(pool, 39.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_the_exact_fee_free_buy(self, n):
        # A fee-free buy to price P(1+g) takes X(1 - (1+g)**(-a)), a = 1/(n+1),
        # out of the pool; the first-order size is aXg. By the mean value
        # theorem 1 - (1+g)**(-a) = ag(1+t)**(-a-1) for some t in (0, g), so
        # first-order / exact = (1+t)**(a+1) lies in [1, (1+g)**(a+1)]. x is a
        # power of two and y has at most 50 significant bits, so the price
        # n*y/x is exact as a float. (P_ext - P) * X / ((n+1) * P) then rounds
        # at most three times (the difference only past g = 1, as Sterbenz
        # shows), each by at most 2**-53 relative: the budget is 4 * 2**-53.
        budget = Decimal(4) * Decimal(2) ** -53
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for x, y in [(1024.0, 1000.0), (1.0, 0.75), (2.0**-10, math.ldexp(0x2B7E151628AED, -40))]:
                pool = Pool(x, y, n)
                p = spot_price(pool)
                assert Decimal(p) == n * Decimal(y) / Decimal(x)
                for g in np.logspace(-12, 1, 27).tolist():
                    p_ext = p * (1.0 + g)
                    gap = Decimal(p_ext) / Decimal(p) - 1  # g from the float inputs
                    exact = Decimal(x) * (1 - (1 + gap) ** (Decimal(-1) / (n + 1)))
                    ratio = Decimal(min_arbitrage_size(pool, p_ext)) / exact
                    bound = (1 + gap) ** (Decimal(n + 2) / (n + 1))
                    assert 1 - budget <= ratio <= bound * (1 + budget), (x, y, g)


class TestInvariantConservation:
    @given(
        x=reserves,
        y=reserves,
        n=exponents,
        fracs=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=20),
        sides=st.lists(st.booleans(), min_size=20, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_swap_sequences_preserve_k(self, x, y, n, fracs, sides):
        pool = Pool(x, y, n)
        k0 = pool.invariant
        for frac, buy in zip(fracs, sides):
            if buy:
                pool, _ = swap_y_for_x(pool, frac * pool.y_reserve, 0.0)
            else:
                pool, _ = swap_x_for_y(pool, frac * pool.x_reserve, 0.0)
        assert abs(pool.invariant / k0 - 1) < 1e-9

    @given(x=reserves, y=reserves, n=exponents, frac=st.floats(1e-6, 5.0))
    @settings(max_examples=200)
    def test_round_trip_never_profits(self, x, y, n, frac):
        pool = Pool(x, y, n)
        dy_in = frac * pool.y_reserve
        mid, res = swap_y_for_x(pool, dy_in, 0.0)
        _, back = swap_x_for_y(mid, res.amount_out, 0.0)
        # slack scales with the reserve: rounding happens at the pool scale,
        # not at the trade scale
        assert back.amount_out <= dy_in * (1 + 1e-9) + 1e-12 * y

    def test_output_never_drains_reserve(self):
        pool = Pool(100.0, 100.0, 4)
        _, res = swap_y_for_x(pool, 1000.0, 0.0)
        assert res.amount_out < pool.x_reserve


class TestBoundaryValidation:
    @pytest.mark.parametrize(
        "x, y",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (-1.0, 1.0),
         # a reserve takes what a config float field takes: a real number, not a bool
         (True, 1.0), (1.0, False), ("5", 1.0), (1.0, None)],
    )
    def test_non_finite_or_negative_reserves_rejected(self, x, y):
        with pytest.raises(PoolError, match="reserves must be finite"):
            Pool(x, y, 1)

    @pytest.mark.parametrize(
        "n",
        [math.nan, math.inf, 1.5, True, "4", None, 4.0, pytest.param(np.float64(4.0), id="np.float64(4.0)")],
    )
    def test_non_integer_exponent_rejected(self, n):
        with pytest.raises(PoolError, match="exponent"):
            Pool(1.0, 1.0, n)

    def test_numpy_integer_exponent_is_an_integer(self):
        n = np.int64(4)
        assert type(Pool(100.0, 1000.0, n).n) is int
        assert spot_price(Pool(100.0, 1000.0, n)) == spot_price(Pool(100.0, 1000.0, 4))
        m = np.array([0.5, 2.0, 100.0])
        assert retention_ratio(m, n).tobytes() == retention_ratio(m, 4).tobytes()

    @pytest.mark.parametrize("fee_rate", [math.nan, -0.1, 1.0])
    @pytest.mark.parametrize("swap", [swap_y_for_x, swap_x_for_y])
    def test_fee_rate_outside_unit_interval_rejected(self, swap, fee_rate):
        with pytest.raises(PoolError, match="fee_rate"):
            swap(Pool(1.0, 1.0, 1), 0.5, fee_rate)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("swap, name", [(swap_y_for_x, "dy_in"), (swap_x_for_y, "dx_in")])
    def test_bad_swap_input_is_named(self, swap, name, amount):
        with pytest.raises(PoolError, match=name) as exc:
            swap(Pool(1.0, 1.0, 1), amount)
        assert type(exc.value) is PoolError  # not TradeTooLarge, not "inactive"

    @pytest.mark.parametrize("m", [math.nan, math.inf, 0.0, -1.0])
    def test_retention_ratio_rejects_bad_multiplier(self, m):
        with pytest.raises(PoolError, match="multiplier"):
            retention_ratio(m, 4)

    @pytest.mark.parametrize(
        "y0, m, name",
        [(1.0, math.nan, "multiplier"), (1.0, math.inf, "multiplier"), (1.0, 0.0, "multiplier"),
         (math.nan, 2.0, "reserve"), (math.inf, 2.0, "reserve"), (-1.0, 2.0, "reserve")],
    )
    def test_depleted_reserves_rejects_bad_inputs(self, y0, m, name):
        with pytest.raises(PoolError, match=name):
            depleted_reserves(y0, m, 4)

    def test_nan_fee_rate_rejected(self):
        with pytest.raises(PoolError, match="fee_rate"):
            swap_y_for_x(Pool(1.0, 1.0, 1), 1.0, math.nan)

    def test_price_out_of_range_rejected(self):
        with pytest.raises(PoolError, match="price"):
            spot_price(Pool(1e300, 1e-300, 1))  # n*y/x underflows to 0
        with pytest.raises(PoolError, match="price"):
            swap_y_for_x(Pool(1e-300, 1e300, 1), 1.0)  # n*y/x overflows
        # an int reserve whose n*y/x is past the float range fails as its float twin
        for y in (10**308, 1e308):
            with pytest.raises(PoolError, match=r"pool price n\*y/x is inf, outside \(0, inf\)"):
                spot_price(Pool(1e10, y, 8))

    def test_sell_that_underflows_the_price_is_a_drain(self):
        pool = Pool(1.0, 1e-320, 8)  # price 8e-320, subnormal but positive
        with pytest.raises(PoolError, match="drain the Y reserve"):
            swap_x_for_y(pool, 10.0)

    def test_buy_that_overflows_the_price_is_a_drain(self):
        pool = Pool(1e-300, 1e7, 1)  # price 1e307
        with pytest.raises(PoolError, match="drain the X reserve"):
            swap_y_for_x(pool, 1e8)


class TestInvariant:
    def test_value(self):
        assert Pool(2.0, 3.0, 4).invariant == 48.0
        assert Pool(0.0, 3.0, 4).invariant == 0.0

    @pytest.mark.parametrize(
        "pool",
        [Pool(1e100, 1.0, 4), Pool(1e300, 1e300, 8), Pool(1e300, 1e300, 1), Pool(10**300, 1, 2)],
        ids=["pow", "pow-n8", "product", "int"],
    )
    def test_overflow_is_a_pool_error(self, pool):
        with pytest.raises(PoolError, match=r"K = X\^n \* Y overflows a float"):
            pool.invariant

    def test_numpy_exponent_overflow_is_a_pool_error(self):
        pool = Pool(1e100, 1.0, np.int64(4))  # numpy's power returns inf instead of raising
        with np.errstate(over="ignore"), pytest.raises(PoolError, match="overflows a float"):
            pool.invariant


class TestNonFiniteArguments:
    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_min_arbitrage_size_rejects_non_finite_price(self, price):
        with pytest.raises(PoolError, match="external_price"):
            min_arbitrage_size(Pool(100.0, 1000.0, 4), price)

    @pytest.mark.parametrize("dx", [math.nan, math.inf, -math.inf])
    def test_slippage_first_order_rejects_non_finite_dx(self, dx):
        with pytest.raises(PoolError, match="dx"):
            slippage_first_order(Pool(100.0, 1000.0, 4), dx)

    def test_slippage_first_order_checks_the_pool_like_spot_price(self):
        with pytest.raises(PoolError, match="inactive"):
            slippage_first_order(Pool(0.0, 100.0, 4), 1.0)
        with pytest.raises(PoolError, match="price"):
            slippage_first_order(Pool(1e-300, 1e300, 8), 1e-301)  # n*y/x overflows

    @pytest.mark.parametrize("price", [math.nan, math.inf, 0.0, -1.0])
    def test_reserves_at_price_uses_the_multiplier_rule(self, price):
        with pytest.raises(PoolError, match="multiplier"):
            reserves_at_price(Pool(100.0, 1000.0, 4), price)


class TestOverflowingResults:
    """Finite inputs whose result is past the float range: a PoolError
    naming the result, never an inf."""

    def test_slippage_first_order(self):
        with pytest.raises(PoolError, match=r"first-order slippage .* overflows a float: got -inf"):
            slippage_first_order(Pool(1e-300, 1.0, 8), 1e300)

    def test_min_arbitrage_size(self):
        with pytest.raises(PoolError, match=r"minimum arbitrage size .* overflows a float: got inf"):
            min_arbitrage_size(Pool(1e300, 1.0, 1), 1e300)

    def test_depleted_reserves(self):
        with pytest.raises(PoolError, match=r"depleted reserve .* overflows a float: got inf"):
            depleted_reserves(1e308, 5e-324, 1)

    def test_depleted_reserves_array_names_the_first_bad_index(self):
        # without a warning: pyproject turns warnings into errors
        m = np.array([1.0, 2.0, 5e-324, 1e-300, 5e-324])
        with pytest.raises(PoolError, match=r"depleted reserve .* overflows a float for m 5e-324 at index 2"):
            depleted_reserves(1e308, m, 1)

    def test_results_just_inside_the_range_are_kept(self):
        assert depleted_reserves(1e308, 1.0, 1) == 1e308
        assert depleted_reserves(0.0, 5e-324, 1) == 0.0
        assert depleted_reserves(1e308, np.array([1.0, 4.0]), 1).tolist() == [1e308, 5e307]
        assert slippage_first_order(Pool(1.0, 1.0, 1), -8e307) == 1.6e308


BIG = 10**400  # an int past the largest float


def _recorded(volume):
    ledger = EpochLedger()
    ledger.record("t0", volume)
    return ledger


def _rewarded(amount):
    ledger = EpochLedger()
    ledger.add_reward(amount)
    return ledger

# Every finiteness bound, as (id, call taking the bad value, error, match).
BOUND_SITES = [
    ("Pool-x", lambda bad: Pool(bad, 1.0, 4), PoolError, "reserves"),
    ("Pool-y", lambda bad: Pool(1.0, bad, 4), PoolError, "reserves"),
    ("swap_y_for_x", lambda bad: swap_y_for_x(Pool(100.0, 100.0, 4), bad), PoolError, "dy_in"),
    ("swap_y_for_x-fee", lambda bad: swap_y_for_x(Pool(100.0, 100.0, 4), bad, 0.01), PoolError, "dy_in"),
    ("swap_x_for_y-fee", lambda bad: swap_x_for_y(Pool(100.0, 100.0, 4), bad, 0.01), PoolError, "dx_in"),
    ("slippage_first_order", lambda bad: slippage_first_order(Pool(100.0, 100.0, 4), bad), PoolError, "dx"),
    ("retention_ratio", lambda bad: retention_ratio(bad, 4), PoolError, "multiplier"),
    ("depleted_reserves-y0", lambda bad: depleted_reserves(bad, 2.0, 4), PoolError, "initial reserve"),
    ("depleted_reserves-m", lambda bad: depleted_reserves(1.0, bad, 4), PoolError, "multiplier"),
    ("il_traditional", lambda bad: il_traditional(bad), PoolError, "multiplier"),
    ("il_hold", lambda bad: il_hold(bad, 4), PoolError, "multiplier"),
    ("il_powerlaw_exact", lambda bad: il_powerlaw_exact(bad, 4), PoolError, "multiplier"),
    ("il_powerlaw_taylor", lambda bad: il_powerlaw_taylor(bad, 4), PoolError, "multiplier"),
    ("reserves_at_price", lambda bad: reserves_at_price(Pool(100.0, 100.0, 4), bad), PoolError, "multiplier"),
    ("min_arbitrage_size", lambda bad: min_arbitrage_size(Pool(100.0, 100.0, 4), bad), PoolError, "external_price"),
    ("compute_fee", lambda bad: compute_fee(bad, 0.01), ValueError, "volume"),
    ("split_fee", lambda bad: split_fee(bad, 0.35), ValueError, "fee"),
    ("classify_regime", lambda bad: classify_regime(bad, FeeSchedule()), ValueError, "volatility"),
    ("EpochLedger", lambda bad: EpochLedger(0, bad), ValueError, "reward_pool"),
    ("EpochLedger-volumes", lambda bad: EpochLedger(0, 1.0, {"t0": 1.0, "t1": bad}), ValueError, "trade volume of 't1'"),
    ("EpochLedger.record", lambda bad: _recorded(bad), ValueError, "trade volume"),
    ("EpochLedger.add_reward", lambda bad: _rewarded(bad), ValueError, "reward amount"),
]
# An int past the largest float (the bare site id); a float32 inf and a
# float16 NaN, which numpy would compare with a plain-float bound in their
# own type, where the largest float is inf; and a bool and a string, which
# are not numbers.
BAD_VALUES = [
    (BIG, ""), (np.float32("inf"), "-float32-inf"), (np.float16("nan"), "-float16-nan"),
    (True, "-bool"), ("5", "-str"),
]


class TestIntegersPastFloatRange:
    """A value that is not a finite float is rejected, with an error naming
    the argument: an int too large for a float does not pass a bound
    `< inf` and raise OverflowError in the arithmetic after it, a narrow
    numpy inf or NaN is not compared in its own type, and a bool or a
    string is not taken as a number."""

    @pytest.mark.parametrize(
        "call, bad, error, name",
        [
            pytest.param(call, bad, error, name, id=site + suffix)
            for site, call, error, name in BOUND_SITES
            for bad, suffix in BAD_VALUES
        ]
        + [
            pytest.param(lambda _: il_powerlaw_taylor(1e200, 4), None, PoolError, "overflows",
                         id="il_powerlaw_taylor-square"),
            pytest.param(lambda _: il_powerlaw_taylor(10**200, 4), None, PoolError, "overflows",
                         id="il_powerlaw_taylor-int-square"),
        ],
    )
    def test_rejected_with_a_named_value_error(self, call, bad, error, name):
        with pytest.raises(error, match=name):
            call(bad)


# A valid value for each of BOUND_SITES (the pool there has spot price 4).
GOOD_VALUES = {
    "Pool-x": 3.0, "Pool-y": 3.0, "swap_y_for_x": 10.0, "swap_y_for_x-fee": 10.0, "swap_x_for_y-fee": 10.0,
    "slippage_first_order": 2.0, "retention_ratio": 3.0, "depleted_reserves-y0": 3.0, "depleted_reserves-m": 3.0,
    "il_traditional": 3.0, "il_hold": 3.0, "il_powerlaw_exact": 2.0, "il_powerlaw_taylor": 0.1,
    "reserves_at_price": 40.0, "min_arbitrage_size": 5.0, "compute_fee": 100.0, "split_fee": 2.0,
    "classify_regime": 0.02, "EpochLedger": 3.0, "EpochLedger-volumes": 2.0, "EpochLedger.record": 2.0,
    "EpochLedger.add_reward": 2.0,
}


# Every site taking an exponent, as (id, call taking n): each reads n by the
# exponent rule, so a numpy integer n computes as its Python int.
EXPONENT_SITES = [
    ("Pool", lambda n: Pool(100.0, 1000.0, n)),
    ("swap_y_for_x", lambda n: swap_y_for_x(Pool(100.0, 1000.0, n), 10.0, 0.003)),
    ("swap_x_for_y", lambda n: swap_x_for_y(Pool(100.0, 1000.0, n), 10.0, 0.003)),
    ("spot_price", lambda n: spot_price(Pool(100.0, 1000.0, n))),
    ("invariant", lambda n: Pool(100.0, 1000.0, n).invariant),
    ("reserves_at_price", lambda n: reserves_at_price(Pool(100.0, 1000.0, n), 77.0)),
    ("min_arbitrage_size", lambda n: min_arbitrage_size(Pool(100.0, 1000.0, n), 100.0)),
    ("slippage_first_order", lambda n: slippage_first_order(Pool(100.0, 1000.0, n), 2.0)),
    ("depleted_reserves", lambda n: depleted_reserves(3.0, 2.5, n)),
    ("retention_ratio", lambda n: retention_ratio(2.5, n)),
    ("price_elasticity", lambda n: price_elasticity(n)),
    ("slippage_ratio", lambda n: slippage_ratio(n)),
    ("il_improvement_factor", lambda n: il_improvement_factor(n)),
    ("il_proposed_scaled", lambda n: il_proposed_scaled(2.5, n)),
    ("il_powerlaw_exact", lambda n: il_powerlaw_exact(1.5, n)),
    ("il_hold", lambda n: il_hold(2.5, n)),
    ("il_powerlaw_taylor", lambda n: il_powerlaw_taylor(0.1, n)),
]


def _values(result) -> list:
    """The numbers and strings a bound site's call returns, flattened."""
    if isinstance(result, EpochLedger):
        return [result.reward_pool, *result.volumes.values()]
    if dataclasses.is_dataclass(result):
        return list(dataclasses.astuple(result))
    if isinstance(result, tuple):
        return [value for part in result for value in _values(part)]
    return [result]


class TestNumpyScalarTwins:
    """A numpy scalar argument is read as the Python float it equals: each
    bound site returns Python floats equal to those of its float twin (a
    float32's twin is the float it rounds to, and it computes in float64)."""

    def test_every_site_has_a_good_value(self):
        assert set(GOOD_VALUES) == {site for site, *_ in BOUND_SITES}

    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("site, call", [(site, call) for site, call, *_ in BOUND_SITES])
    def test_returns_the_python_float_twins_values(self, site, call, kind):
        good = GOOD_VALUES[site]
        if kind is np.int64 and not good.is_integer():
            pytest.skip("no integer is a valid value here")
        want = _values(call(float(kind(good))))
        got = _values(call(kind(good)))
        assert all(type(value) in (float, int, str) for value in want)
        assert [type(value) for value in got] == [type(value) for value in want]
        assert got == want

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("site, call", EXPONENT_SITES)
    def test_numpy_exponent_returns_the_int_twins_values(self, site, call, n, kind):
        want = _values(call(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _values(call(kind(n)))
        assert all(type(value) in (float, int) for value in want)
        assert [type(value) for value in got] == [type(value) for value in want]
        assert got == want

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_exponent_price_overflow_is_a_pool_error(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoolError, match=r"pool price n\*y/x is inf"):
                spot_price(Pool(1e-300, 1e300, kind(8)))

    def test_float32_swap_keeps_k_in_float64(self):
        pool = Pool(100.0, 100.0, 4)
        new_pool, _ = swap_y_for_x(pool, np.float32(10.0), 0.003)
        assert type(new_pool.x_reserve) is float and type(new_pool.y_reserve) is float
        assert new_pool.invariant == pytest.approx(1e10, rel=1e-15)

    def test_float32_reserves_price_in_float64_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            price = spot_price(Pool(np.float32(1e-30), np.float32(1e30), 8))
        assert type(price) is float
        assert price == 8 * float(np.float32(1e30)) / float(np.float32(1e-30))

    def test_float32_array_computes_in_float64(self):
        m = np.array([0.5, 2.0, 100.0, 1e30], dtype=np.float32)
        got = retention_ratio(m, 4)
        assert got.dtype == np.float64
        assert got.tobytes() == retention_ratio(m.astype(float), 4).tobytes()


class TestSwapKernels:
    """_buy_x and _sell_x take the fee rate, withhold fee_rate * amount and
    return it; the public swaps read fee_paid from them. The amount checks
    the kernels own are tested through the swaps (test_bad_swap_input_is_named,
    TestIntegersPastFloatRange)."""

    @pytest.mark.parametrize("kernel, swap", [(_buy_x, swap_y_for_x), (_sell_x, swap_x_for_y)])
    def test_kernel_fee_is_the_swaps_fee_paid(self, kernel, swap):
        new_x, new_y, price, fee = kernel(100.0, 1000.0, 4, 7.0, 0.003)
        new_pool, res = swap(Pool(100.0, 1000.0, 4), 7.0, 0.003)
        assert fee == 0.003 * 7.0 == res.fee_paid
        assert (new_x, new_y, price) == (new_pool.x_reserve, new_pool.y_reserve, res.price_after)


class TestSwapKernelOracle:
    """_buy_x and _sell_x against exact arithmetic (stdlib decimal, 60
    digits). Each kernel stores one new reserve as a rounded sum (y + dy on
    a buy, x + dx on a sell) and computes the other from it; the error of
    that other reserve is measured against its exact value given the sum
    as rounded, in ulps of the old reserve.

    Measured over 3 x 3000 and 20000 random cases per decade of r = dy/y
    (or dx/x) in [1e-14, 10], reserves log-uniform in [1e-3, 1e8] and n in
    1..8: buys at most 1.18 ulp of x; sells at most 0.97 ulp of y at n = 1,
    rising with n to 4.71 at n = 8, because the quotient x/x' is rounded
    and then raised to the power n. The budgets are 1.5 ulp on a buy and
    n/2 + 1.5 ulp on a sell."""

    CASES_PER_DECADE = 200

    def cases(self):
        rng = np.random.default_rng(20261019)
        for decade in range(-14, 1):
            for _ in range(self.CASES_PER_DECADE):
                x, y = (10.0 ** v for v in rng.uniform(-3.0, 8.0, 2).tolist())
                yield x, y, 10.0 ** rng.uniform(decade, decade + 1), int(rng.integers(1, 9))

    def test_errors_within_budget(self):
        worst_buy = worst_sell = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for x, y, r, n in self.cases():
                new_x, new_y, _, _ = _buy_x(x, y, n, r * y, 0.0)
                exact = Decimal(x) * (Decimal(y) / Decimal(new_y)) ** (Decimal(1) / n)
                error = abs(float((Decimal(new_x) - exact) / Decimal(math.ulp(x))))
                assert error <= 1.5, (x, y, r, n, error)
                worst_buy = max(worst_buy, error)
                new_x, new_y, _, _ = _sell_x(x, y, n, r * x, 0.0)
                exact = Decimal(y) * (Decimal(x) / Decimal(new_x)) ** n
                error = abs(float((Decimal(new_y) - exact) / Decimal(math.ulp(y))))
                assert error <= n / 2 + 1.5, (x, y, r, n, error)
                worst_sell = max(worst_sell, error)
        # the oracle sees real rounding, not exact agreement
        assert worst_buy > 0.5 and worst_sell > 1.0


class TestValueSemantics:
    """Pool and SwapResult are frozen dataclasses: immutable values compared,
    hashed, printed, replaced, pickled and copied by their fields."""

    POOL = Pool(1.0, 2.0, 4)
    RESULT = SwapResult(0.5, 0.01, 8.0, 9.5, 0.1875)

    @pytest.mark.parametrize("obj, name", [(POOL, "x_reserve"), (POOL, "n"), (RESULT, "amount_out")])
    def test_fields_cannot_be_assigned_or_deleted(self, obj, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.new_attribute = 1

    def test_equality_and_hash_by_value(self):
        assert Pool(1.0, 2.0, 4) == self.POOL
        assert hash(Pool(1.0, 2.0, 4)) == hash(self.POOL)
        assert Pool(1.0, 2.0, 5) != self.POOL
        assert Pool(1.0, 2.0, 4) != (1.0, 2.0, 4)
        assert SwapResult(0.5, 0.01, 8.0, 9.5, 0.1875) == self.RESULT
        assert hash(SwapResult(0.5, 0.01, 8.0, 9.5, 0.1875)) == hash(self.RESULT)
        assert SwapResult(0.5, 0.01, 8.0, 9.5, 0.2) != self.RESULT
        assert len({Pool(1.0, 2.0, 4), Pool(1.0, 2.0, 4), Pool(2.0, 1.0, 4)}) == 2

    def test_repr(self):
        assert repr(self.POOL) == "Pool(x_reserve=1.0, y_reserve=2.0, n=4)"
        assert repr(self.RESULT) == (
            "SwapResult(amount_out=0.5, fee_paid=0.01, price_before=8.0, price_after=9.5, slippage_exact=0.1875)"
        )

    def test_fields_in_order(self):
        assert [f.name for f in dataclasses.fields(Pool)] == ["x_reserve", "y_reserve", "n"]
        assert [f.name for f in dataclasses.fields(SwapResult)] == [
            "amount_out", "fee_paid", "price_before", "price_after", "slippage_exact",
        ]
        assert dataclasses.astuple(self.POOL) == (1.0, 2.0, 4)

    def test_replace_revalidates(self):
        assert dataclasses.replace(self.POOL, n=5) == Pool(1.0, 2.0, 5)
        with pytest.raises(PoolError, match="exponent"):
            dataclasses.replace(self.POOL, n=9)
        with pytest.raises(PoolError, match="reserves"):
            dataclasses.replace(self.POOL, y_reserve=-1.0)
        assert dataclasses.replace(self.RESULT, fee_paid=0.0) == SwapResult(0.5, 0.0, 8.0, 9.5, 0.1875)

    @pytest.mark.parametrize("obj", [POOL, RESULT], ids=["Pool", "SwapResult"])
    def test_pickle_and_deepcopy_round_trip(self, obj):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is type(obj)
            assert clone == obj
            assert repr(clone) == repr(obj)

    def test_keywords_and_default_exponent(self):
        assert Pool(x_reserve=1.0, y_reserve=2.0, n=4) == self.POOL
        assert Pool(y_reserve=2.0, x_reserve=1.0).n == 1
        assert Pool(1.0, 2.0) == Pool(1.0, 2.0, 1)
        kwargs = dict(amount_out=0.5, fee_paid=0.01, price_before=8.0, price_after=9.5, slippage_exact=0.1875)
        assert SwapResult(**kwargs) == self.RESULT
        with pytest.raises(TypeError):
            Pool(1.0)
        with pytest.raises(TypeError):
            SwapResult(0.5, 0.01, 8.0, 9.5)

    def test_numpy_exponent_stored_as_its_int(self):
        pool = Pool(1.0, 2.0, np.int64(4))
        assert type(pool.n) is int
        assert pool == self.POOL
        assert repr(pool) == repr(self.POOL)


# The digest of the quote stream below, computed before public arguments
# were read as Python floats. It pins every bit of every quote.
QUOTE_STREAM_DIGEST = "9e96e5af11d2d535379f528a087b292929fd709e8efc721508c2b79aac6375f5"


class TestQuoteStreamOracle:
    """2000 seeded quotes through the public API, as `powerlaw-amm quote`
    makes them: a fresh Pool, one swap on either side, first-order slippage
    of the X reserve change. Exponents 1..8, fees in [0, 3 %] and sizes wide
    enough that some exceed the 10x cap and raise TradeTooLarge."""

    COUNT = 2000

    def quotes(self):
        rng = np.random.default_rng(20240601)
        n = self.COUNT
        # each power and exp is libm's, one value at a time: numpy's array
        # power and exp round differently on a CPU with AVX-512
        x = [10.0**v for v in rng.uniform(-2.0, 8.0, n).tolist()]
        y = [10.0**v for v in rng.uniform(-2.0, 8.0, n).tolist()]
        exponent = rng.integers(1, 9, n).tolist()
        buy = (rng.random(n) < 0.5).tolist()
        fee = rng.uniform(0.0, 0.03, n)
        fee[:8] = 0.0
        size = [math.exp(math.log(0.05) + 2.5 * z) for z in rng.standard_normal(n).tolist()]
        amount = [(y_i if b else x_i) * s for x_i, y_i, b, s in zip(x, y, buy, size)]
        return zip(x, y, exponent, buy, amount, fee.tolist())

    def test_digest(self):
        digest = hashlib.sha256()
        rejected = buys = 0
        exponents = set()
        for x, y, n, buy, amount, fee in self.quotes():
            pool = Pool(x, y, n)
            try:
                if buy:
                    new_pool, res = swap_y_for_x(pool, amount, fee)
                    delta_x = -res.amount_out
                else:
                    new_pool, res = swap_x_for_y(pool, amount, fee)
                    delta_x = amount - res.fee_paid
            except TradeTooLarge:
                rejected += 1
                digest.update(b"rejected")
                continue
            slip = slippage_first_order(pool, delta_x)
            assert type(new_pool) is Pool and type(res) is SwapResult
            assert new_pool.n == n and res.price_before == spot_price(pool)
            digest.update(struct.pack(
                "<8dq",
                res.amount_out, res.fee_paid, res.price_before, res.price_after, res.slippage_exact,
                new_pool.x_reserve, new_pool.y_reserve, slip, new_pool.n,
            ))
            buys += buy
            exponents.add(n)
        assert 10 <= rejected <= 100
        assert 800 <= buys <= 1200
        assert exponents == set(range(1, 9))
        assert digest.hexdigest() == QUOTE_STREAM_DIGEST

    def test_digest_does_not_depend_on_avx512(self, run_without_avx512):
        run_without_avx512(f"{__file__}::TestQuoteStreamOracle::test_digest")
