"""Fee engine: fee computation, regimes, splits, rebates, epoch rewards."""

import math
import typing
import warnings

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
    _rebate,
    _settle,
)
from powerlaw_amm.pool import FLOAT_MAX


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
        got = dynamic_rebate(RebateContext(0.0, 1e6), rho_max=np.float64(0.35))
        assert type(got) is float and got.hex() == (0.35).hex()

    @pytest.mark.parametrize(
        "rho_max", [0.2, 1.0, math.nan, 1, pytest.param(10**400, id="int-past-float")]
    )
    def test_regime_cap_out_of_range_rejected(self, rho_max):
        with pytest.raises(ValueError, match=r"rho_max must be in \[0\.3, 1\)"):
            dynamic_rebate(RebateContext(0.0, 1e6), rho_max=rho_max)

    @pytest.mark.parametrize("rho_max", [True, "0.35"])
    def test_regime_cap_not_a_number_rejected(self, rho_max):
        with pytest.raises(ValueError, match="rho_max must be finite and real"):
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

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, FLOAT_MAX), st.sampled_from([0.0, 5e-324, math.inf])),
                st.floats(REBATE_FLOOR, 1.0, exclude_max=True),
            ),
            max_size=20,
        ),
        target=st.one_of(st.floats(5e-324, FLOAT_MAX), st.just(5e-324)),
    )
    @settings(max_examples=200)
    def test_kernel_over_arrays_equals_its_scalar_calls(self, rows, target):
        # the market loop's epoch close takes a period's volume and regime
        # cap per element; a volume / target past the float range clamps to
        # the floor, warning only for the array
        volumes = np.array([v for v, _ in rows], dtype=float)
        rho_maxes = np.array([r for _, r in rows], dtype=float)
        with np.errstate(over="ignore"):
            got = _rebate(volumes, target, rho_maxes)
        want = [float(_rebate(v, target, r)) for v, r in rows]
        assert [float.hex(g) for g in got.tolist()] == [float.hex(w) for w in want]


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

    def test_total_volume_adds_left_to_right(self):
        # a compensated sum (the builtin sum from Python 3.12) gives 1e16 + 2
        ledger = EpochLedger(0, 0.0, {"a": 1e16, "b": 1.0, "c": 1.0})
        assert ledger.total_volume == 1e16

    def test_empty_total_volume_is_the_int_zero(self):
        total = EpochLedger().total_volume
        assert total == 0 and type(total) is int

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
        [
            True, "1", math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-past-float"),
            pytest.param(np.float32("inf"), id="float32-inf"),
            pytest.param(np.float16("nan"), id="float16-nan"),
        ],
    )
    def test_bad_value_rejected(self, cls, name, kind, value):
        with pytest.raises(ValueError, match=name):
            cls(**{**BASE_ARGS[cls], name: value})

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_numpy_scalar_accepted_as_given(self, cls, name, kind):
        # stored as the equal Python number
        base = BASE_ARGS[cls]
        default = getattr(cls(**base), name)
        for value in (np.float64(default), np.float32(default)):
            stored = getattr(cls(**{**base, name: value}), name)
            assert stored == value and type(stored) is float

    def test_infinite_high_threshold_rejected(self):
        with pytest.raises(ValueError, match="sigma_high"):
            FeeSchedule(sigma_high=math.inf)


BAD_VOLUMES = [("nan", math.nan), ("inf", math.inf), ("-1.0", -1.0), ("int-past-float", 10**400)]


class TestLedgerInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_reward_pool_must_be_finite(self, value):
        with pytest.raises(ValueError, match="reward_pool"):
            EpochLedger(reward_pool=value)

    @pytest.mark.parametrize(
        "value, given",
        [pytest.param(value, False, id=name) for name, value in BAD_VOLUMES[:3]]
        + [pytest.param(value, True, id=f"volumes-{name}") for name, value in BAD_VOLUMES],
    )
    def test_record_volume_must_be_finite(self, value, given):
        # a volume recorded, or given in the volumes dict, passes one rule
        if given:
            with pytest.raises(ValueError, match="volume of 'b'"):
                EpochLedger(0, 1.0, {"a": 1.0, "b": value})
            return
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


class TestSettlementPastFloatRange:
    """Each input is finite, but a sum of them is not: the ledger refuses
    rather than pay inf or NaN, or give one trader the whole pool."""

    def test_reward_pool_overflow_names_the_amount(self):
        ledger = EpochLedger(0, 1e308, {"a": 1.0, "b": 3.0})
        with pytest.raises(ValueError, match=r"reward amount 1e\+308 overflows the reward pool"):
            ledger.add_reward(1e308)
        assert ledger.reward_pool == 1e308
        assert settle_epoch(ledger) == [("a", 2.5e307), ("b", 7.5e307)]

    def test_trader_volume_overflow_names_the_trader(self):
        ledger = EpochLedger(0, 1.0)
        ledger.record("a", 1e308)
        with pytest.raises(ValueError, match=r"trade volume 1e\+308 overflows the epoch volume of 'a'"):
            ledger.record("a", 1e308)
        assert ledger.volumes == {"a": 1e308}

    def test_total_volume_overflow_names_the_epoch(self):
        ledger = EpochLedger(7, 1.0, {"a": 1e308, "b": 1e308})
        with pytest.raises(ValueError, match="epoch 7: total volume inf overflows a float"):
            settle_epoch(ledger)

    def test_total_volume_past_the_float_range_is_inf_without_a_warning(self):
        ledger = EpochLedger(7, 1.0, {"a": 1e308, "b": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.total_volume == math.inf

    def test_payout_sum_overflow_names_the_epoch(self):
        # the shares before the last each round up, and their sum passes the largest float
        ledger = EpochLedger(3, FLOAT_MAX, {"a": 6.098847240216778, "b": 6.107337163044295,
                                            "c": 5.85391976940883, "d": 0.0})
        with pytest.raises(ValueError, match="epoch 3: payouts of the reward pool"):
            settle_epoch(ledger)


def reference_settle(volumes: dict, reward_pool: float, epoch_id: int = 0) -> list:
    """settle_epoch's arithmetic as it ran on Python floats before the array
    kernel: the total and the paid part are loops of += from the int 0,
    each payout but the last is volume / total * reward_pool, and the last
    is the pool minus the paid part. (trader, payout) pairs in the dict's
    order; a zero total pays nothing."""
    total = 0
    for volume in volumes.values():
        total += volume
    if total > FLOAT_MAX:
        raise ValueError(f"epoch {epoch_id}: total volume {total} overflows a float")
    if total <= 0:
        return []
    traders = list(volumes)
    payouts = [(t, volumes[t] / total * reward_pool) for t in traders[:-1]]
    paid = 0
    for _, payout in payouts:
        paid += payout
    if paid > FLOAT_MAX:
        raise ValueError(f"epoch {epoch_id}: payouts of the reward pool {reward_pool} overflow a float")
    payouts.append((traders[-1], reward_pool - paid))
    return payouts


# Heavy-tailed: zeros, subnormals, every decade and the top of the float range
SETTLE_VOLUMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2250738585072014e-308),
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),
    st.floats(0.0, 1e3),
    st.floats(1e300, FLOAT_MAX),
)
SETTLE_POOLS = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, FLOAT_MAX))


def settled(settle):
    """The payouts settle() returns as float.hex strings, or its ValueError's message."""
    try:
        return [float.hex(p) for p in settle()]
    except ValueError as exc:
        return str(exc)


class TestSettlementKernel:
    """fees._settle, the array settlement, must give the reference's bits
    (float.hex, so -0.0 and 0.0 differ) and its errors, message for
    message; settle_epoch must give the same through a ledger."""

    @staticmethod
    def assert_matches_reference(volumes: list, pool: float, epoch_id: int = 0):
        want = settled(lambda: [p for _, p in reference_settle(dict(enumerate(volumes)), pool, epoch_id)])
        got = settled(lambda: _settle(np.array(volumes, dtype=float), pool, epoch_id).tolist())
        assert got == want
        ledger = EpochLedger(epoch_id, pool, {f"t{i}": v for i, v in enumerate(volumes)})
        public = settled(lambda: [p for _, p in settle_epoch(ledger)])
        assert public == want
        if not isinstance(want, str):
            assert [t for t, _ in settle_epoch(ledger)] == [f"t{i}" for i in range(len(want))]
        return want

    @given(
        volumes=st.lists(SETTLE_VOLUMES, max_size=60),
        pool=SETTLE_POOLS,
        epoch_id=st.integers(0, 10**6),
    )
    @settings(max_examples=400, deadline=None)
    def test_bits_equal_the_scalar_reference(self, volumes, pool, epoch_id):
        self.assert_matches_reference(volumes, pool, epoch_id)

    def test_one_trader_gets_the_pool(self):
        assert self.assert_matches_reference([2.5], 0.1) == [float.hex(0.1)]

    def test_zero_pool_pays_zeros(self):
        assert self.assert_matches_reference([1.0, 3.0, 1e-300], 0.0) == [float.hex(0.0)] * 3

    def test_zero_volumes_pay_nothing(self):
        assert self.assert_matches_reference([0.0, 0.0], 5.0) == []
        assert self.assert_matches_reference([], 5.0) == []

    def test_documented_negative_payout(self):
        # the last trader's share is below the rounding of the others' sum
        paid = self.assert_matches_reference([12.5, 1.89e13, 2.9e-12], 0.0719)
        assert paid[-1] == float.hex(-1.3877787807814457e-17)

    @pytest.mark.parametrize("pool", [1.0, 3.0])
    def test_sums_are_left_folds(self, pool):
        # from 8 terms on np.sum adds pairwise: its total here is
        # 1.0000000000000014e16, where the left fold stays at 1e16
        volumes = [1e16] + [1.0] * 15
        assert float(np.sum(volumes)) != 1e16
        self.assert_matches_reference(volumes, pool)

    def test_total_volume_overflow_names_the_epoch(self):
        message = self.assert_matches_reference([1e308, 1e308], 1.0, 7)
        assert message == "epoch 7: total volume inf overflows a float"

    def test_payout_sum_overflow_names_the_epoch(self):
        message = self.assert_matches_reference(
            [6.098847240216778, 6.107337163044295, 5.85391976940883, 0.0], FLOAT_MAX, 3
        )
        assert message.startswith("epoch 3: payouts of the reward pool")

    def test_kernel_keeps_its_volumes(self):
        volumes = np.array([1.0, 3.0])
        _settle(volumes, 8.0, 0)
        assert volumes.tolist() == [1.0, 3.0]
