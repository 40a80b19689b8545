"""Fee engine: fee computation, regimes, splits, rebates, epoch rewards."""

import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm.fees import (
    EpochLedger,
    REBATE_FLOOR,
    FeeSchedule,
    RebateContext,
    RegimeParams,
    classify_regime,
    compute_fee,
    dynamic_rebate,
    settle_epoch,
    split_fee,
)


class TestComputeFee:
    def test_low_regime_rate(self):
        assert compute_fee(1_000_000, 0.003) == pytest.approx(3000.0)

    def test_zero_volume(self):
        assert compute_fee(0.0, 0.005) == 0.0

    def test_high_regime_rate(self):
        assert compute_fee(1_000_000, 0.01) == pytest.approx(10_000.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            compute_fee(-1.0, 0.003)

    @pytest.mark.parametrize("volume", [math.nan, math.inf])
    def test_non_finite_volume_rejected(self, volume):
        with pytest.raises(ValueError, match="volume"):
            compute_fee(volume, 0.003)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, math.nan])
    def test_gamma_outside_open_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            compute_fee(1.0, gamma)


class TestSchedule:
    def test_defaults_match_regime_table(self):
        sched = FeeSchedule()
        assert (sched.high.gamma, sched.high.rho_max) == (0.010, 0.40)
        assert (sched.moderate.gamma, sched.moderate.rho_max) == (0.005, 0.35)
        assert (sched.low.gamma, sched.low.rho_max) == (0.003, 0.30)
        assert sched.sigma_low < sched.sigma_high

    def test_severity_ordering(self):
        sched = FeeSchedule()
        gammas = [sched.low.gamma, sched.moderate.gamma, sched.high.gamma]
        caps = [sched.low.rho_max, sched.moderate.rho_max, sched.high.rho_max]
        assert gammas == sorted(gammas)
        assert caps == sorted(caps)

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            FeeSchedule(sigma_low=0.05, sigma_high=0.01)

    @pytest.mark.parametrize("field", ["low", "moderate", "high"])
    def test_regime_fields_must_hold_regime_params(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a RegimeParams"):
            FeeSchedule(**{field: (0.01, 0.4)})

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: RegimeParams(0.0, 0.3), "gamma"),
            (lambda: RegimeParams(1.0, 0.3), "gamma"),
            (lambda: FeeSchedule(sigma_low=-0.01), "sigma_low and sigma_high must be nonnegative"),
            (lambda: FeeSchedule().params_for("extreme"), "unknown regime 'extreme'"),
        ],
        ids=["gamma-zero", "gamma-one", "negative-sigma-low", "unknown-regime"],
    )
    def test_out_of_range_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_rho_max_below_rebate_floor_rejected(self):
        # split_fee never accepts a rebate below the floor, so a cap below it
        # could only fail mid-run.
        with pytest.raises(ValueError, match="rho_max"):
            FeeSchedule(low=RegimeParams(0.003, 0.2))
        assert RegimeParams(0.003, REBATE_FLOOR).rho_max == REBATE_FLOOR


class TestClassifyRegime:
    def test_boundaries_are_moderate(self):
        sched = FeeSchedule()
        assert classify_regime(sched.sigma_low, sched) == "moderate"
        assert classify_regime(sched.sigma_high, sched) == "moderate"

    def test_above_high_threshold(self):
        sched = FeeSchedule()
        assert classify_regime(sched.sigma_high + 1e-12, sched) == "high"

    def test_zero_vol_is_low(self):
        assert classify_regime(0.0, FeeSchedule()) == "low"

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.01])
    def test_nan_or_infinite_vol_rejected(self, sigma):
        with pytest.raises(ValueError, match="volatility"):
            classify_regime(sigma, FeeSchedule())

    @given(sigma=st.floats(0.0, 1.0))
    def test_exactly_one_regime(self, sigma):
        assert classify_regime(sigma, FeeSchedule()) in ("low", "moderate", "high")


class TestDynamicRebate:
    def test_at_target(self):
        assert dynamic_rebate(RebateContext(1e6, 1e6)) == pytest.approx(0.4)

    def test_at_twice_target(self):
        assert dynamic_rebate(RebateContext(2e6, 1e6)) == pytest.approx(0.3)

    def test_zero_volume_capped(self):
        assert dynamic_rebate(RebateContext(0.0, 1e6)) == 0.4

    def test_regime_cap_applies(self):
        assert dynamic_rebate(RebateContext(0.0, 1e6), rho_max=0.30) == 0.30
        assert dynamic_rebate(RebateContext(0.0, 1e6), rho_max=0.35) == 0.35

    @pytest.mark.parametrize("rho_max", [0.2, 1.0, math.nan])
    def test_regime_cap_out_of_range_rejected(self, rho_max):
        with pytest.raises(ValueError, match="rho_max"):
            dynamic_rebate(RebateContext(0.0, 1e6), rho_max=rho_max)

    @pytest.mark.parametrize(
        "volume, target", [(math.nan, 1e6), (math.inf, 1e6), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_context_rejected(self, volume, target):
        with pytest.raises(ValueError, match="volume"):
            RebateContext(volume, target)

    @pytest.mark.parametrize(
        "volume, target, match",
        [(-1.0, 1e6, "current_volume"), (1.0, 0.0, "target_volume"), (1.0, -1.0, "target_volume")],
    )
    def test_out_of_range_context_rejected(self, volume, target, match):
        with pytest.raises(ValueError, match=match):
            RebateContext(volume, target)

    @given(v=st.floats(0.0, 1e9), vmax=st.floats(1.0, 1e9))
    @settings(max_examples=200)
    def test_bounds_and_monotonicity(self, v, vmax):
        rho = dynamic_rebate(RebateContext(v, vmax))
        assert 0.3 <= rho <= 0.4
        assert dynamic_rebate(RebateContext(v + vmax, vmax)) <= rho
        if v <= vmax:
            assert rho == 0.4


class TestSplitFee:
    def test_max_rebate(self):
        s = split_fee(1000.0, 0.4)
        assert (s.lp_share, s.rebate_share, s.protocol_share) == (300.0, 400.0, 300.0)

    def test_min_rebate(self):
        s = split_fee(1000.0, 0.3)
        assert (s.lp_share, s.rebate_share, s.protocol_share) == (300.0, 300.0, 400.0)

    def test_zero_fee(self):
        s = split_fee(0.0, 0.35)
        assert (s.lp_share, s.rebate_share, s.protocol_share) == (0.0, 0.0, 0.0)

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(ValueError):
            split_fee(100.0, 0.25)
        with pytest.raises(ValueError):
            split_fee(100.0, 0.45)

    @pytest.mark.parametrize("fee", [math.nan, math.inf, -1.0])
    def test_negative_or_non_finite_fee_rejected(self, fee):
        with pytest.raises(ValueError, match="fee"):
            split_fee(fee, 0.35)

    @given(fee=st.floats(0.0, 1e12, allow_subnormal=False), rho=st.floats(0.3, 0.4))
    @settings(max_examples=300)
    def test_conservation_and_shares(self, fee, rho):
        s = split_fee(fee, rho)
        assert s.lp_share + s.rebate_share + s.protocol_share == pytest.approx(
            fee, rel=1e-12, abs=1e-300
        )
        assert s.lp_share == 0.3 * fee
        assert s.protocol_share >= -1e-12 * max(fee, 1.0)
        if fee > 0:
            assert 0.3 - 1e-12 <= s.rebate_share / fee <= 0.4 + 1e-12


class TestEpochSettlement:
    def test_single_trader_gets_everything(self):
        ledger = EpochLedger(reward_pool=123.0)
        ledger.record("alice", 10.0)
        assert settle_epoch(ledger) == [("alice", 123.0)]

    def test_proportional_split(self):
        ledger = EpochLedger(reward_pool=100.0)
        ledger.record("a", 75.0)
        ledger.record("b", 25.0)
        payouts = dict(settle_epoch(ledger))
        assert payouts["a"] == pytest.approx(75.0)
        assert payouts["b"] == pytest.approx(25.0)

    def test_empty_ledger_carries(self):
        ledger = EpochLedger(reward_pool=50.0)
        assert settle_epoch(ledger) == []
        assert ledger.reward_pool == 50.0

    def test_volume_accumulates(self):
        ledger = EpochLedger()
        ledger.record("a", 1.0)
        ledger.record("a", 2.0)
        ledger.record("b", 4.0)
        assert ledger.volumes["a"] == 3.0
        assert ledger.total_volume == pytest.approx(7.0)

    @given(
        volumes=st.lists(st.floats(0.0, 1e9), min_size=1, max_size=50),
        pool=st.floats(0.0, 1e9),
    )
    @settings(max_examples=300)
    def test_payouts_sum_exactly_to_pool(self, volumes, pool):
        ledger = EpochLedger(reward_pool=pool)
        for i, v in enumerate(volumes):
            ledger.record(f"t{i}", v)
        payouts = settle_epoch(ledger)
        if ledger.total_volume == 0:
            assert payouts == []
        else:
            total = sum(p for _, p in payouts)
            assert total == pytest.approx(pool, rel=1e-12, abs=0.0) or total == pool
            assert all(p >= 0 or abs(p) < 1e-9 * max(pool, 1.0) for _, p in payouts)


# Every int and float field of every fee dataclass, read from the classes,
# with the arguments that build a valid instance around it.
BASE_ARGS = {
    RegimeParams: {"gamma": 0.003, "rho_max": 0.3},
    FeeSchedule: {},
    RebateContext: {"current_volume": 1.0, "target_volume": 1.0},
}
NUMERIC_FIELDS = [
    pytest.param(cls, name, kind, id=f"{cls.__name__}.{name}")
    for cls in BASE_ARGS
    for name, kind in typing.get_type_hints(cls).items()
    if kind in (int, float)
]


class TestFieldTypes:
    """The fee dataclasses own their type rules: a float field takes a
    finite number, and a bool or a string is not one."""

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    @pytest.mark.parametrize(
        "value",
        [True, "1", math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-past-float")],
    )
    def test_bad_value_rejected(self, cls, name, kind, value):
        with pytest.raises(ValueError, match=name):
            cls(**{**BASE_ARGS[cls], name: value})

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_numpy_scalar_accepted_as_given(self, cls, name, kind):
        base = BASE_ARGS[cls]
        value = np.float64(getattr(cls(**base), name))
        assert getattr(cls(**{**base, name: value}), name) is value

    def test_infinite_high_threshold_rejected(self):
        with pytest.raises(ValueError, match="sigma_high"):
            FeeSchedule(sigma_high=math.inf)


class TestLedgerInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_reward_pool_must_be_finite(self, value):
        with pytest.raises(ValueError, match="reward_pool"):
            EpochLedger(reward_pool=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_record_volume_must_be_finite(self, value):
        ledger = EpochLedger()
        with pytest.raises(ValueError, match="volume"):
            ledger.record("a", value)
        assert ledger.volumes == {}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_add_reward_amount_must_be_finite(self, value):
        ledger = EpochLedger(reward_pool=1.0)
        with pytest.raises(ValueError, match="amount"):
            ledger.add_reward(value)
        assert ledger.reward_pool == 1.0
