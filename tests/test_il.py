"""Impermanent-loss formulas: traditional, factor-scaled, exact, Taylor, hold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm.il import (
    il_hold,
    il_improvement_factor,
    il_powerlaw_exact,
    il_powerlaw_taylor,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import PoolError

BAD_MULTIPLIERS = [math.nan, math.inf, 0.0, -1.0]


class TestTraditional:
    def test_no_move(self):
        assert il_traditional(1.0) == 0.0

    def test_hundredfold(self):
        assert il_traditional(100.0) == pytest.approx(0.80198, abs=1e-5)

    def test_fourfold(self):
        assert il_traditional(4.0) == pytest.approx(0.2, rel=1e-12)

    @given(m=st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, m):
        il = il_traditional(m)
        assert 0.0 <= il < 1.0
        assert il == pytest.approx(il_traditional(1.0 / m), rel=1e-9, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            il_traditional(0.0)


class TestImprovementFactor:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (4, 1.5625), (5, 1.8)])
    def test_values(self, n, expected):
        assert il_improvement_factor(n) == pytest.approx(expected, rel=1e-15)


class TestScaledModel:
    def test_headline(self):
        assert il_proposed_scaled(100.0, 4) == pytest.approx(0.51327, abs=1e-5)

    def test_no_move(self):
        assert il_proposed_scaled(1.0, 7) == 0.0

    def test_n1_is_traditional(self):
        assert il_proposed_scaled(100.0, 1) == il_traditional(100.0)

    @given(m=st.floats(1e-3, 1e3).filter(lambda m: abs(m - 1) > 1e-6))
    @settings(max_examples=100)
    def test_strictly_decreasing_in_n(self, m):
        vals = [il_proposed_scaled(m, n) for n in range(1, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(m=st.floats(1e-3, 1e3), n=st.integers(1, 8))
    @settings(max_examples=200)
    def test_never_exceeds_traditional(self, m, n):
        assert 0.0 <= il_proposed_scaled(m, n) <= il_traditional(m)


class TestExactModel:
    def test_no_move(self):
        assert il_powerlaw_exact(0.0, 4) == 0.0

    def test_hundredfold_n4(self):
        assert il_powerlaw_exact(99.0, 4) == pytest.approx(1 - 100 ** (-0.2), rel=1e-12)
        assert il_powerlaw_exact(99.0, 4) == pytest.approx(0.60189, abs=1e-5)

    def test_doubling_n1(self):
        assert il_powerlaw_exact(1.0, 1) == pytest.approx(1 - 2 ** (-0.5), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            il_powerlaw_exact(-1.0, 4)

    @given(eps=st.floats(1e-6, 1e6))
    @settings(max_examples=100)
    def test_strictly_decreasing_in_n(self, eps):
        vals = [il_powerlaw_exact(eps, n) for n in range(1, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTaylor:
    def test_no_move(self):
        assert il_powerlaw_taylor(0.0, 3) == 0.0

    def test_hand_values(self):
        assert il_powerlaw_taylor(0.01, 4) == pytest.approx(0.001988, rel=1e-9)
        assert il_powerlaw_taylor(0.01, 1) == pytest.approx(0.0049625, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_cubic_order_agreement_with_exact(self, n):
        # halving eps should shrink the gap by ~8x (cubic remainder)
        gaps = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            gaps.append(abs(il_powerlaw_exact(eps, n) - il_powerlaw_taylor(eps, n)))
        assert gaps[0] / gaps[1] >= 7.0
        assert gaps[1] / gaps[2] >= 7.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quadratic_coefficient_mismatch_documented(self, n):
        # The quadratic Taylor coefficient is (n+2)/(2(n+1)^2); matching it to
        # the factor model's eps^2/(8 g(n)) would instead need n/(2(n+1)^2).
        # The two agree only asymptotically in n; their ratio is (n+2)/n.
        taylor_coeff = (n + 2) / (2.0 * (n + 1) ** 2)
        factor_coeff = 1.0 / (8.0 * il_improvement_factor(n))
        assert taylor_coeff / factor_coeff == pytest.approx((n + 2) / n, rel=1e-12)
        if n <= 4:
            assert taylor_coeff / factor_coeff >= 1.5


class TestHoldModel:
    """IL against holding the initial reserves, 1 - (n+1)*m^(n/(n+1)) / (n*m + 1)."""

    @given(m=st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_n1_is_traditional(self, m):
        assert il_hold(m, 1) == pytest.approx(il_traditional(m), rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_move_ratio_is_one_over_g(self, n):
        ratio = il_hold(1.001, n) / il_traditional(1.001)
        assert ratio == pytest.approx(1.0 / il_improvement_factor(n), rel=0, abs=1e-3)

    def test_larger_exponent_loses_more_on_a_fall(self):
        assert il_hold(0.01, 4) == pytest.approx(0.879, abs=1e-3)
        assert il_hold(0.01, 1) == pytest.approx(0.802, abs=1e-3)
        assert il_hold(0.01, 4) > il_hold(0.01, 1)

    def test_hundredfold_n4(self):
        assert il_hold(100.0, 4) == pytest.approx(0.5036, abs=1e-4)

    def test_no_move(self):
        assert il_hold(1.0, 6) == 0.0


class TestCurveShape:
    def test_thousandfold_values_and_ordering(self):
        assert il_traditional(1000.0) == pytest.approx(0.93682, abs=1e-5)
        m = 1.0
        while m <= 1000.0:
            if m > 1.0:
                assert il_proposed_scaled(m, 4) < il_traditional(m)
                assert il_powerlaw_exact(m - 1.0, 4) < il_powerlaw_exact(m - 1.0, 1)
            m *= 1.5


class TestDomain:
    """The multiplier must be positive and finite, and the exponent is the
    pool's: an integer in [1, 8], else PoolError."""

    @pytest.mark.parametrize("m", BAD_MULTIPLIERS)
    def test_traditional_rejects_bad_multiplier(self, m):
        with pytest.raises(ValueError, match="multiplier"):
            il_traditional(m)

    @pytest.mark.parametrize("m", BAD_MULTIPLIERS)
    def test_scaled_rejects_bad_multiplier(self, m):
        with pytest.raises(ValueError, match="multiplier"):
            il_proposed_scaled(m, 4)

    @pytest.mark.parametrize("m", BAD_MULTIPLIERS)
    def test_exact_rejects_bad_multiplier(self, m):
        with pytest.raises(ValueError, match="multiplier"):
            il_powerlaw_exact(m - 1.0, 4)

    @pytest.mark.parametrize("m", BAD_MULTIPLIERS)
    def test_taylor_rejects_bad_multiplier(self, m):
        with pytest.raises(ValueError, match="multiplier"):
            il_powerlaw_taylor(m - 1.0, 4)

    @pytest.mark.parametrize("m", BAD_MULTIPLIERS)
    def test_hold_rejects_bad_multiplier(self, m):
        with pytest.raises(ValueError, match="multiplier"):
            il_hold(m, 4)

    @pytest.mark.parametrize(
        "n",
        [0, 9, 50, 1.5, math.inf, math.nan, True, 4.0, pytest.param(np.float64(4.0), id="np.float64(4.0)")],
    )
    @pytest.mark.parametrize(
        "call",
        [
            il_improvement_factor,
            lambda n: il_proposed_scaled(2.0, n),
            lambda n: il_powerlaw_exact(1.0, n),
            lambda n: il_powerlaw_taylor(0.01, n),
            lambda n: il_hold(2.0, n),
        ],
        ids=["improvement_factor", "scaled", "exact", "taylor", "hold"],
    )
    def test_exponent_domain_is_the_pools(self, call, n):
        with pytest.raises(PoolError, match="exponent"):
            call(n)

    @pytest.mark.parametrize(
        "eps",
        [np.float64(1e200), np.array([0.1, 1e200])],
        ids=["np.float64", "array"],
    )
    def test_taylor_square_overflow_is_a_pool_error(self, eps):
        # numpy squares to inf (with a RuntimeWarning) where a Python float
        # raises OverflowError; the float and int cases are in test_pool.py
        with pytest.raises(PoolError, match="overflows"):
            il_powerlaw_taylor(eps, 4)

    def test_taylor_keeps_numpy_input(self):
        eps = np.array([0.1, 0.01, -0.5])
        want = [il_powerlaw_taylor(float(e), 4) for e in eps]
        assert il_powerlaw_taylor(eps, 4).tolist() == want
        assert il_powerlaw_taylor(np.float64(0.01), 4) == il_powerlaw_taylor(0.01, 4)
