"""Pool math: pricing, swaps, retention, slippage, arbitrage bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm.pool import (
    Pool,
    PoolError,
    TradeTooLarge,
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
        "x, y", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (-1.0, 1.0)]
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
        assert Pool(100.0, 1000.0, n).n is n
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

    def test_sell_that_underflows_the_price_is_a_drain(self):
        pool = Pool(1.0, 1e-320, 8)  # price 8e-320, subnormal but positive
        with pytest.raises(PoolError, match="drain the Y reserve"):
            swap_x_for_y(pool, 10.0)

    def test_buy_that_overflows_the_price_is_a_drain(self):
        pool = Pool(1e-300, 1e7, 1)  # price 1e307
        with pytest.raises(PoolError, match="drain the X reserve"):
            swap_y_for_x(pool, 1e8)


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
