"""Simulation harness: DRS experiment, sweeps, and the market loop."""

import math
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm import sim
from powerlaw_amm.fees import (
    REWARD_FRACTION,
    EpochLedger,
    FeeSchedule,
    RebateContext,
    classify_regime,
    compute_fee,
    dynamic_rebate,
    settle_epoch,
    split_fee,
)
from powerlaw_amm.il import (
    il_hold,
    il_improvement_factor,
    il_powerlaw_exact,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import (
    Pool,
    PoolError,
    TradeTooLarge,
    depleted_reserves,
    reserves_at_price,
    retention_ratio,
    spot_price,
    swap_x_for_y,
    swap_y_for_x,
)
from powerlaw_amm.sim import (
    DRS_BLOCK_CELLS,
    DrsSimConfig,
    MarketLoopConfig,
    SweepGridConfig,
    TradeStreamConfig,
    drs_geometric_upper_bound,
    drs_noise_free_series,
    replication_rng,
    run_drs_simulation,
    run_market_loop,
    sweep_il,
    sweep_retention,
)


class TestDrsSimulation:
    def test_noise_free_static_is_constant(self):
        res = run_drs_simulation(DrsSimConfig(noise_std=0.0))
        assert np.all(res.static_series == res.static_series[0])

    def test_noise_free_matches_recurrence_oracle(self):
        # independent re-derivation of the deterministic recurrence
        cfg = DrsSimConfig(noise_std=0.0)
        expected = [cfg.initial_volume]
        for _ in range(cfg.days - 1):
            prev = expected[-1]
            rho = min(max(0.4 + 0.1 * (1 - prev / cfg.target_volume), 0.3), 0.4)
            expected.append(prev * (1 + cfg.sensitivity * (rho - cfg.static_rebate)))
        res = run_drs_simulation(cfg)
        assert np.allclose(res.dynamic_series, expected, rtol=1e-12, atol=0)
        assert np.allclose(res.dynamic_series, drs_noise_free_series(cfg), rtol=0, atol=0)

    def test_noise_free_growth_below_geometric_bound(self):
        # the rebate decays below its 0.4 cap once volume passes target, so
        # growth must stay under the pinned-cap geometric envelope
        cfg = DrsSimConfig(noise_std=0.0)
        ratio = run_drs_simulation(cfg).summary["final_ratio_dynamic"]
        assert 1.0 < ratio < drs_geometric_upper_bound(cfg)

    def test_deterministic_under_seed(self):
        cfg = DrsSimConfig(seed=7, replications=3)
        a = run_drs_simulation(cfg)
        b = run_drs_simulation(cfg)
        assert np.array_equal(a.static_series, b.static_series)
        assert np.array_equal(a.dynamic_series, b.dynamic_series)
        assert a.summary == b.summary

    def test_different_seeds_differ(self):
        a = run_drs_simulation(DrsSimConfig(seed=1))
        b = run_drs_simulation(DrsSimConfig(seed=2))
        assert not np.array_equal(a.dynamic_series, b.dynamic_series)

    def test_series_lengths_and_positivity(self):
        cfg = DrsSimConfig(days=50, seed=3)
        res = run_drs_simulation(cfg)
        assert len(res.static_series) == 50
        assert len(res.dynamic_series) == 50
        assert np.all(res.static_series > 0)
        assert np.all(res.dynamic_series > 0)

    def test_rho_series_within_bounds(self):
        res = run_drs_simulation(DrsSimConfig(seed=11))
        assert np.all(res.rho_series >= 0.3)
        assert np.all(res.rho_series <= 0.4)

    def test_volume_floor_holds_under_extreme_noise(self):
        res = run_drs_simulation(DrsSimConfig(noise_std=0.09, seed=5, days=400))
        assert np.all(res.static_series >= 1.0)
        assert np.all(res.dynamic_series >= 1.0)

    def test_replications_summary_fields(self):
        res = run_drs_simulation(DrsSimConfig(replications=20, seed=9))
        s = res.summary
        assert s["replications"] == 20
        assert 0.0 <= s["dynamic_beats_static_fraction"] <= 1.0
        assert s["mean_final_ratio_dynamic"] > s["mean_final_ratio_static"]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DrsSimConfig(days=0)
        with pytest.raises(ValueError):
            DrsSimConfig(noise_std=-0.1)
        with pytest.raises(ValueError):
            DrsSimConfig(replications=0)

    def test_replications_fit_one_seed_word(self):
        # the seeding kernel holds a replication index in one 32-bit word
        assert DrsSimConfig(replications=2**32).replications == 2**32
        with pytest.raises(ValueError, match="replications"):
            DrsSimConfig(replications=2**32 + 1)

    @pytest.mark.parametrize(
        "field", ["noise_std", "sensitivity", "static_rebate", "volume_floor"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DrsSimConfig(**{field: value})


# Configs whose DRS volumes overflow a float: a mean volume past the float
# range, and a noise that drives the series to inf and NaN.
DRS_OVERFLOWS = [
    {"days": 3, "initial_volume": 1e308, "target_volume": 1e-300},
    {"days": 5, "sensitivity": 1e308, "noise_std": 1e300},
]


class TestDrsOverflow:
    """A run whose volumes or summary overflow a float raises ValueError
    rather than return inf or NaN; an overflow that only clamps the rebate
    leaves a finite, correct run and no numpy warning (warnings are errors
    under this suite)."""

    @pytest.mark.parametrize("overrides", DRS_OVERFLOWS)
    def test_series_overflow_raises(self, overrides):
        with pytest.raises(ValueError, match="DRS volumes overflow a float in replication 0"):
            run_drs_simulation(DrsSimConfig(**overrides))

    def test_summary_overflow_raises(self):
        # the volumes stay finite at the floor; final / initial does not
        cfg = DrsSimConfig(days=3, initial_volume=1e-300, volume_floor=1e10)
        with pytest.raises(ValueError, match="final_ratio_static overflows a float"):
            run_drs_simulation(cfg)

    def test_rebate_overflow_clamps_without_warning(self):
        # volume / target overflows to inf, which clamps the rebate to 0.3
        res = run_drs_simulation(DrsSimConfig(days=5, target_volume=1e-305))
        assert np.all(res.rho_series == 0.3)
        assert all(math.isfinite(v) for v in res.summary.values())
        assert np.isfinite(res.static_series).all() and np.isfinite(res.dynamic_series).all()


def reference_drs(cfg: DrsSimConfig):
    """The DRS recurrence one replication and one day at a time: one
    replication_rng per replication, the public dynamic_rebate, Python max.
    Returns replication 0's (static, dynamic, rho) series and the summary."""
    finals_static, finals_dynamic, beats = [], [], 0
    for rep in range(cfg.replications):
        noise = replication_rng(cfg.seed, rep).normal(0.0, cfg.noise_std, size=(cfg.days - 1, 2))
        static, dynamic = [cfg.initial_volume], [cfg.initial_volume]
        rho = [dynamic_rebate(RebateContext(cfg.initial_volume, cfg.target_volume))]
        for eps_static, eps_dynamic in noise.tolist():
            static.append(max(static[-1] * (1.0 + eps_static), cfg.volume_floor))
            r = dynamic_rebate(RebateContext(dynamic[-1], cfg.target_volume))
            step = 1.0 + cfg.sensitivity * (r - cfg.static_rebate) + eps_dynamic
            dynamic.append(max(dynamic[-1] * step, cfg.volume_floor))
            rho.append(r)
        static, dynamic = np.array(static), np.array(dynamic)
        if rep == 0:
            series = static, dynamic, np.array(rho)
        finals_static.append(static[-1] / cfg.initial_volume)
        finals_dynamic.append(dynamic[-1] / cfg.initial_volume)
        beats += bool(np.mean(dynamic) > np.mean(static))
    static0, dynamic0, _ = series

    def vol(x):
        return float(np.std(np.diff(np.log(x)))) if len(x) > 1 else 0.0

    summary = {
        "days": cfg.days,
        "replications": cfg.replications,
        "mean_volume_static": float(np.mean(static0)),
        "mean_volume_dynamic": float(np.mean(dynamic0)),
        "final_ratio_static": float(static0[-1] / cfg.initial_volume),
        "final_ratio_dynamic": float(dynamic0[-1] / cfg.initial_volume),
        "volatility_static": vol(static0),
        "volatility_dynamic": vol(dynamic0),
        "mean_final_ratio_static": float(np.mean(finals_static)),
        "mean_final_ratio_dynamic": float(np.mean(finals_dynamic)),
        "dynamic_beats_static_fraction": beats / cfg.replications,
    }
    return series, summary


SRC = Path(__file__).resolve().parent.parent / "src"
BLOCK = DRS_BLOCK_CELLS // 100  # replications per block at 100 days
LONG_DAYS = DRS_BLOCK_CELLS // 3 + 1  # blocks of two replications, so 5 make 3 blocks


class TestBlockedDrs:
    """run_drs_simulation runs blocks of replications as arrays; every
    series and summary value must equal the scalar recurrence bit for bit."""

    @pytest.mark.parametrize(
        "replications, days, noise_std, seed",
        [
            (1, 100, 0.01, 3),
            (BLOCK - 1, 100, 0.01, 0),
            (BLOCK, 100, 0.0, 11),
            (BLOCK, 100, 0.05, 11),
            (BLOCK + 1, 100, 0.01, 2024),
            (2 * BLOCK + 1, 100, 0.05, 5),
            (3, 1, 0.01, 7),
            (1, 1, 0.0, 7),
            (4, 2, 0.01, 1),
            (5, LONG_DAYS, 0.01, 9),
            (5, LONG_DAYS, 0.0, 9),
        ],
    )
    def test_bit_identical_to_scalar_reference(self, replications, days, noise_std, seed):
        cfg = DrsSimConfig(days=days, replications=replications, noise_std=noise_std, seed=seed)
        self.assert_matches_reference(cfg)

    def test_bit_identical_where_the_floor_binds(self):
        # a static rebate above the 0.4 cap makes the dynamic arm drift down too
        cfg = DrsSimConfig(
            replications=BLOCK + 1, noise_std=0.05, volume_floor=9e5, static_rebate=0.45, seed=4
        )
        res = self.assert_matches_reference(cfg)
        assert np.any(res.static_series == 9e5) and np.any(res.dynamic_series == 9e5)

    @staticmethod
    def assert_matches_reference(cfg):
        (static, dynamic, rho), summary = reference_drs(cfg)
        res = run_drs_simulation(cfg)
        assert res.static_series.tobytes() == static.tobytes()
        assert res.dynamic_series.tobytes() == dynamic.tobytes()
        assert res.rho_series.tobytes() == rho.tobytes()
        assert res.summary == summary
        assert all(type(v) in (int, float) for v in res.summary.values())
        return res


class TestReplicationSeeding:
    """sim._seed_words hashes a block of replications' seeds in one pass of
    uint32 array operations; each row must be the PCG64 seed words of
    SeedSequence([seed, rep]), and sim._replication_rngs must build the
    generators replication_rng builds."""

    # 2**100 + 7 has four 32-bit words, so with the replication index the
    # entropy overflows the pool of four and runs the extra mixing loop
    SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7]
    # (first, count) pieces: a full 100-day block, the first rows of the
    # next, and the top of the index range DrsSimConfig allows
    PIECES = [(0, BLOCK), (BLOCK, 2), (2**32 - 3, 3)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_seed_sequence(self, seed):
        for first, count in self.PIECES:
            words = sim._seed_words(seed, first, count)
            expected = [
                np.random.SeedSequence([seed, rep]).generate_state(4, np.uint64)
                for rep in range(first, first + count)
            ]
            assert words.dtype == np.uint64 and words.flags.c_contiguous
            assert words.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_draw_like_replication_rng(self, seed):
        for first, count in self.PIECES:
            for rep, rng in enumerate(sim._replication_rngs(seed, first, count), first):
                expected = replication_rng(seed, rep).normal(0.0, 0.3, size=(4, 2))
                assert rng.normal(0.0, 0.3, size=(4, 2)).tobytes() == expected.tobytes()

    def test_seed_words_serve_only_pcg64s_request(self):
        words = sim._seed_words(0, 0, 1)[0]
        assert sim._SeedWords(words).generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            sim._SeedWords(words).generate_state(8)

    def test_import_leaves_numpy_random_unloaded(self):
        # importing numpy.random costs tens of milliseconds on every command;
        # the package loads it only when a run first draws
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import powerlaw_amm, powerlaw_amm.cli; "
            "print(powerlaw_amm.__file__); print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert Path(out[0]).is_relative_to(SRC)
        assert out[1] == "False"


class TestSweeps:
    def test_retention_default_shape(self):
        rows = sweep_retention()
        assert len(rows) == 200 * 5
        ms = sorted({row["m"] for row in rows})
        assert ms[0] == pytest.approx(1.0)
        assert ms[-1] == pytest.approx(100.0)

    def test_retention_anchor_rows(self):
        rows = sweep_retention(m_grid=[1.0, 100.0], n_values=[1, 4, 5])
        table = {(row["m"], row["n"]): row for row in rows}
        assert table[(100.0, 4)]["retention_ratio"] == pytest.approx(3.981, abs=1e-3)
        assert table[(100.0, 5)]["retention_ratio"] == pytest.approx(100 ** (1 / 3), rel=1e-12)
        assert table[(1.0, 1)]["retention_ratio"] == 1.0
        assert table[(1.0, 5)]["retention_ratio"] == 1.0

    def test_retention_rows_match_direct_calls(self):
        for row in sweep_retention(m_grid=[2.0, 31.0], n_values=[1, 3, 8]):
            assert row["retention_ratio"] == retention_ratio(row["m"], row["n"])
            assert row["depleted_fraction"] == depleted_reserves(1.0, row["m"], row["n"])

    def test_il_anchor_rows(self):
        rows = sweep_il(m_grid=[1.0, 100.0], n_values=[1, 4])
        table = {(row["m"], row["n"]): row for row in rows}
        assert table[(100.0, 4)]["il_traditional"] == pytest.approx(0.80198, abs=1e-5)
        assert table[(100.0, 4)]["il_scaled"] == pytest.approx(0.51327, abs=1e-5)
        row1 = table[(1.0, 4)]
        assert row1["il_traditional"] == 0.0
        assert row1["il_scaled"] == 0.0
        assert row1["il_exact"] == 0.0

    def test_il_rows_match_direct_calls(self):
        for row in sweep_il(m_grid=[3.0, 250.0], n_values=[2, 4]):
            assert row["il_traditional"] == il_traditional(row["m"])
            assert row["il_scaled"] == il_proposed_scaled(row["m"], row["n"])
            assert row["il_exact"] == il_powerlaw_exact(row["m"] - 1.0, row["n"])


class TestMarketLoop:
    def test_zero_trade_stream(self):
        cfg = MarketLoopConfig(stream=TradeStreamConfig(trades_per_period=0.0))
        res = run_market_loop(cfg)
        assert res.total_fees == 0.0
        assert res.executed_trades == 0
        assert res.final_pool.x_reserve == cfg.x_reserve
        assert res.final_pool.y_reserve == cfg.y_reserve
        # zero-volume epochs carry the (empty) pool forward
        assert res.rewards_distributed == 0.0

    def test_fee_conservation(self):
        res = run_market_loop(MarketLoopConfig(seed=123))
        buckets = res.lp_total + res.rebate_total + res.protocol_total
        assert abs(buckets / res.total_fees - 1) < 1e-9

    def test_fees_match_gamma_weighted_volume(self):
        # single-regime schedule makes gamma constant; total fees must equal
        # gamma times total volume
        sched = FeeSchedule(sigma_low=1e9 - 1, sigma_high=1e9)
        res = run_market_loop(MarketLoopConfig(seed=4, schedule=sched))
        assert res.total_fees == pytest.approx(sched.low.gamma * res.total_volume, rel=1e-9)

    def test_epoch_payouts_sum_to_pool(self):
        res = run_market_loop(MarketLoopConfig(seed=77))
        for er in res.epoch_reports:
            if er.payouts:
                assert sum(p for _, p in er.payouts) == pytest.approx(
                    er.reward_pool, rel=1e-12
                )

    def test_reward_pool_is_tenth_of_epoch_fees(self):
        res = run_market_loop(MarketLoopConfig(seed=5))
        first = res.epoch_reports[0]
        assert first.reward_pool == pytest.approx(0.1 * first.fees, rel=1e-12)
        assert res.protocol_net == pytest.approx(
            res.protocol_total - res.rewards_distributed - res.reward_carry, rel=1e-12
        )

    def test_deterministic_under_seed(self):
        a = run_market_loop(MarketLoopConfig(seed=31))
        b = run_market_loop(MarketLoopConfig(seed=31))
        assert a.total_fees == b.total_fees
        assert a.final_pool == b.final_pool
        assert a.epoch_reports == b.epoch_reports

    def test_oversized_trades_rejected_not_fatal(self):
        cfg = MarketLoopConfig(
            epochs=1,
            periods_per_epoch=5,
            stream=TradeStreamConfig(size_median_frac=20.0),
            seed=2,
        )
        res = run_market_loop(cfg)
        assert res.rejected_trades > 0

    def test_size_overflow_is_a_pool_error(self):
        cfg = MarketLoopConfig(
            epochs=1, periods_per_epoch=2, seed=2, stream=TradeStreamConfig(size_sigma=1000.0)
        )
        with pytest.raises(PoolError, match="size_sigma"):
            run_market_loop(cfg)

    def test_sigma_series_recorded_per_period(self):
        cfg = MarketLoopConfig(epochs=2, periods_per_epoch=10, seed=6)
        res = run_market_loop(cfg)
        assert len(res.sigma_series) == 20
        assert all(s >= 0 for s in res.sigma_series)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MarketLoopConfig(epochs=0)
        with pytest.raises(ValueError):
            MarketLoopConfig(target_volume=0.0)
        with pytest.raises(ValueError):
            TradeStreamConfig(size_median_frac=0.0)

    def test_num_traders_fit_one_32_bit_draw(self):
        # the trader draw takes 32-bit values
        assert TradeStreamConfig(num_traders=2**32).num_traders == 2**32
        for value in (2**32 + 1, 2**63 + 1, np.uint64(2**32 + 1)):
            with pytest.raises(ValueError, match=r"^num_traders must be in \[1, 2\*\*32\]"):
                TradeStreamConfig(num_traders=value)

    @pytest.mark.parametrize(
        "field, value",
        [("stream", {"trades_per_period": 1.0}), ("schedule", None), ("stream", FeeSchedule())],
    )
    def test_nested_fields_must_hold_their_class(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            MarketLoopConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n", 9), ("n", 0), ("x_reserve", -1.0), ("y_reserve", -1), ("x_reserve", -0.5)],
    )
    def test_pool_fields_checked_and_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}[ :]"):
            MarketLoopConfig(**{field: value})


def reference_market_loop(cfg: MarketLoopConfig) -> dict:
    """The market loop as numpy's scalar draws and the public pool and fee
    functions give it: per trade rng.random() < 0.5 for the side,
    rng.integers(num_traders) for the trader and rng.standard_normal() for
    the size, each epoch's volumes recorded by trader name."""
    rng = replication_rng(cfg.seed, 0)
    stream, schedule = cfg.stream, cfg.schedule
    pool = Pool(cfg.x_reserve, cfg.y_reserve, cfg.n)
    price = spot_price(pool)
    prices = [price]
    out = dict.fromkeys(
        ["total_volume", "total_fees", "lp_total", "rebate_total", "protocol_total"], 0.0
    )
    out.update(rejected_trades=0, executed_trades=0, sigma_series=[], epoch_reports=[])
    rewards = carry = 0.0
    prev_volume = cfg.target_volume
    for epoch_id in range(cfg.epochs):
        ledger = EpochLedger(epoch_id)
        epoch_fees = epoch_volume = 0.0
        for _ in range(cfg.periods_per_epoch):
            window = prices[-cfg.vol_window :]
            sigma = float(np.std(np.diff(np.log(window)))) if len(window) > 1 else 0.0
            out["sigma_series"].append(sigma)
            params = schedule.params_for(classify_regime(sigma, schedule))
            rho = dynamic_rebate(RebateContext(prev_volume, cfg.target_volume), params.rho_max)
            period_volume = 0.0
            for _ in range(int(rng.poisson(stream.trades_per_period))):
                buy_side = rng.random() < 0.5
                trader = f"t{rng.integers(stream.num_traders)}"
                volume = stream.size_median_frac * pool.y_reserve * math.exp(
                    stream.size_sigma * rng.standard_normal()
                )
                try:
                    if buy_side:
                        pool, _ = swap_y_for_x(pool, volume, params.gamma)
                    else:
                        pool, _ = swap_x_for_y(pool, volume / price, params.gamma)
                except TradeTooLarge:
                    out["rejected_trades"] += 1
                    continue
                price = spot_price(pool)
                fee = compute_fee(volume, params.gamma)
                split = split_fee(fee, rho)
                out["executed_trades"] += 1
                out["total_volume"] += volume
                out["total_fees"] += fee
                out["lp_total"] += split.lp_share
                out["rebate_total"] += split.rebate_share
                out["protocol_total"] += split.protocol_share
                epoch_fees += fee
                epoch_volume += volume
                period_volume += volume
                ledger.record(trader, volume)
            prev_volume = period_volume
            prices.append(price)
        reward_pool = REWARD_FRACTION * epoch_fees + carry
        ledger.add_reward(reward_pool)
        payouts = settle_epoch(ledger)
        if payouts:
            rewards += reward_pool
            carry = 0.0
        else:
            carry = reward_pool
        out["epoch_reports"].append(
            (epoch_id, epoch_fees, epoch_volume, reward_pool, carry, payouts)
        )
    out.update(
        protocol_net=out["protocol_total"] - (rewards + carry),
        rewards_distributed=rewards,
        reward_carry=carry,
        final_reserves=(pool.x_reserve, pool.y_reserve),
    )
    return out


class TestTradeDraws:
    """run_market_loop reads each trade's side and trader from raw PCG64
    words; every output must equal the loop driven by numpy's scalar calls.
    2**31 + 1 traders reject almost half of all 32-bit values, 3 * 2**30 a
    quarter, and 2**32 none."""

    TRADERS = [1, 2, 7, 1000, 2**31 + 1, 3 * 2**30, 2**32]

    @pytest.mark.parametrize("num_traders", TRADERS)
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_run_equals_scalar_draws(self, num_traders, seed):
        stream = TradeStreamConfig(trades_per_period=15.0, num_traders=num_traders)
        cfg = MarketLoopConfig(epochs=3, periods_per_epoch=8, vol_window=5, seed=seed, stream=stream)
        self.assert_matches_reference(cfg)

    @pytest.mark.parametrize("num_traders", [3, 2**31 + 1])
    def test_rejected_trades_keep_the_stream(self, num_traders):
        stream = TradeStreamConfig(
            trades_per_period=12.0, size_median_frac=3.0, size_sigma=1.5, num_traders=num_traders
        )
        cfg = MarketLoopConfig(epochs=2, periods_per_epoch=6, seed=9, stream=stream)
        res = self.assert_matches_reference(cfg)
        assert res.rejected_trades > 0 and res.executed_trades > 0

    def test_numpy_integer_trader_count(self):
        # u * num_traders exceeds int64 here, so the run must take a Python int
        stream = TradeStreamConfig(trades_per_period=15.0, num_traders=np.int64(3 * 2**30))
        self.assert_matches_reference(MarketLoopConfig(epochs=2, periods_per_epoch=5, stream=stream))

    @staticmethod
    def assert_matches_reference(cfg):
        ref = reference_market_loop(cfg)
        res = run_market_loop(cfg)
        for name in ref:
            if name == "final_reserves":
                assert (res.final_pool.x_reserve, res.final_pool.y_reserve) == ref[name]
            elif name == "epoch_reports":
                got = [
                    (e.epoch_id, e.fees, e.volume, e.reward_pool, e.carried, e.payouts)
                    for e in res.epoch_reports
                ]
                assert got == ref[name]
            else:
                assert getattr(res, name) == ref[name], name
        return res

    @given(
        seed=st.integers(0, 2**64),
        num_traders=st.one_of(
            st.integers(1, 2**32), st.sampled_from([1, 2, 2**31 + 1, 3 * 2**30, 2**32])
        ),
        periods=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_sequence_equals_numpy_calls(self, seed, num_traders, periods):
        # per period a Poisson count, then per trade side, trader and normal,
        # on one generator, against the same calls through numpy
        ours, numpys = replication_rng(seed, 0), replication_rng(seed, 0)
        raw = ours.bit_generator.random_raw
        traders = sim._trader_ids(raw, num_traders)
        for trades in periods:
            assert ours.poisson(3.0) == numpys.poisson(3.0)
            for _ in range(trades):
                assert (raw() < sim._HALF_WORD) == (numpys.random() < 0.5)
                assert next(traders) == numpys.integers(num_traders)
                assert ours.standard_normal() == numpys.standard_normal()


class TestRebateComposition:
    def test_regime_cap_bounds_rebate_total(self):
        # with a permanently-low-vol schedule the rebate is pinned at the 0.30
        # regime cap, so the rebate bucket is exactly 30% of fees
        sched = FeeSchedule(sigma_low=1e9 - 1, sigma_high=1e9)
        res = run_market_loop(MarketLoopConfig(seed=8, schedule=sched))
        assert res.rebate_total == pytest.approx(0.30 * res.total_fees, rel=1e-9)
        assert dynamic_rebate(RebateContext(0.0, 1000.0), rho_max=sched.low.rho_max) == 0.30


class TestWholeRunConservation:
    """Conservation identities over whole market-loop runs, not single calls."""

    @given(
        n=st.integers(1, 8),
        epochs=st.integers(1, 3),
        periods=st.integers(1, 8),
        trades=st.floats(0.0, 30.0),
        size_sigma=st.floats(0.0, 2.0),
        size_frac=st.floats(1e-4, 0.5),
        traders=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fees_rewards_and_reserves(
        self, n, epochs, periods, trades, size_sigma, size_frac, traders, seed
    ):
        cfg = MarketLoopConfig(
            n=n,
            epochs=epochs,
            periods_per_epoch=periods,
            vol_window=5,
            seed=seed,
            stream=TradeStreamConfig(
                trades_per_period=trades,
                size_median_frac=size_frac,
                size_sigma=size_sigma,
                num_traders=traders,
            ),
        )
        res = run_market_loop(cfg)
        attempted = res.executed_trades + res.rejected_trades
        # each running sum over N terms is off by at most N/2 ulp; four meet here
        buckets = res.lp_total + res.rebate_total + res.protocol_total
        assert abs(buckets - res.total_fees) <= 4 * max(attempted, 1) * math.ulp(res.total_fees)
        parts = res.rewards_distributed + res.reward_carry + res.protocol_net
        assert abs(parts - res.protocol_total) <= math.ulp(res.protocol_total)
        for er in res.epoch_reports:
            assert all(p >= 0.0 for _, p in er.payouts)
            if er.payouts:
                total = sum(p for _, p in er.payouts)
                assert abs(total - er.reward_pool) <= math.ulp(er.reward_pool)
            else:
                assert er.carried == er.reward_pool
        final = res.final_pool
        assert 0.0 < final.x_reserve < math.inf and 0.0 < final.y_reserve < math.inf


class TestFeeFreeArbitragePath:
    """A pool closed to an external price path by fee-free swaps follows the
    closed forms. With m the spot price over the start price, the invariant
    K is preserved, the X (volatile) reserve is x0 * m^(-1/(n+1)) =
    depleted_reserves(x0, m, n), and the pool value x*P + y is
    V0 * m * (1 - il_powerlaw_exact(m - 1, n)), where V0 = x0*P0 + y0.
    Against holding the initial reserves, worth x0*P + y0, the pool value
    is (1 - il_hold(m, n)) times that.

    The depletion closed form m^(-1/(n+1)) is what the X reserve does on a
    price rise. The Y (stablecoin) reserve goes as (P/P0)^(n/(n+1)): after a
    100x fall at n = 4 it keeps 100^(-4/5) = 0.0251 of its start, not
    100^(-1/5) = 0.398."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_path_matches_closed_forms(self, n):
        rng = np.random.default_rng([2024, n])
        x0, y0 = 1_000.0, 10_000.0
        pool = Pool(x0, y0, n)
        p0, k0 = spot_price(pool), pool.invariant
        v0 = x0 * p0 + y0
        log_price = 0.0
        for step in rng.normal(0.0, 0.1, 200):
            log_price += step
            target = reserves_at_price(pool, p0 * math.exp(log_price))
            if target.x_reserve < pool.x_reserve:  # price rises: buy X with Y
                pool, _ = swap_y_for_x(pool, target.y_reserve - pool.y_reserve)
            else:
                pool, _ = swap_x_for_y(pool, target.x_reserve - pool.x_reserve)
            x, y, price = pool.x_reserve, pool.y_reserve, spot_price(pool)
            m = price / p0
            assert pool.invariant == pytest.approx(k0, rel=1e-12, abs=0)
            assert x / x0 == pytest.approx(depleted_reserves(1.0, m, n), rel=1e-12, abs=0)
            value_ratio = (x * price + y) / (v0 * m)
            assert value_ratio == pytest.approx(1.0 - il_powerlaw_exact(m - 1.0, n), rel=1e-12, abs=0)
            hold_ratio = (x * price + y) / (x0 * price + y0)
            assert hold_ratio == pytest.approx(1.0 - il_hold(m, n), rel=1e-12, abs=0)


class TestLossVersusRebalancing:
    """The paper's 36 % cut is exact as a rate of loss-versus-rebalancing
    (LVR: Milionis, Moallemi, Roughgarden & Zhang, "Automated Market Making
    and Loss-Versus-Rebalancing", arXiv 2208.06046).

    X^n * Y = K is a geometric-mean pool holding w = n/(n+1) of its value V
    in X. When the price moves by R in one step and arbitrage closes the
    pool to it, the pool is worth R^w V, while a portfolio holding the
    pool's X gains w (R - 1) V. The loss of the pool against it is
    w (R - 1) - (R^w - 1) of V; with R = exp(sigma z - sigma^2 / 2), z
    standard normal, its mean is 1 - exp(-w (1 - w) sigma^2 / 2). So the
    LVR rate is proportional to w (1 - w), and its ratio to n = 1's is
    4 w (1 - w) = 1 / g(n), 0.64 at n = 4."""

    SIGMA = 0.05

    @staticmethod
    def step_losses(n, ratios):
        """Walk a pool through the price ratios by reserves_at_price: each
        step's loss against holding the pool's X, and the pool's value
        before the step."""
        pool = Pool(1_000.0, 10_000.0, n)
        losses, values = [], []
        for r in ratios:
            price = spot_price(pool)
            value = pool.x_reserve * price + pool.y_reserve
            moved = reserves_at_price(pool, price * r)
            new_value = moved.x_reserve * price * r + moved.y_reserve
            losses.append(pool.x_reserve * (price * r - price) - (new_value - value))
            values.append(value)
            pool = moved
        return np.array(losses), np.array(values)

    def price_ratios(self, seed, size):
        z = np.random.default_rng(seed).standard_normal(size)
        return np.exp(self.SIGMA * z - self.SIGMA**2 / 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_step_loss_is_exact(self, n):
        ratios = self.price_ratios([7, n], 2000)
        losses, values = self.step_losses(n, ratios)
        w = n / (n + 1)
        expected = w * (ratios - 1.0) - (ratios**w - 1.0)
        assert np.max(np.abs(losses - expected * values) / values) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rate_ratio_is_inverse_improvement_factor(self, n):
        w = n / (n + 1)
        assert 4 * w * (1 - w) == pytest.approx(1 / il_improvement_factor(n), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 4])
    def test_mean_loss_matches_expectation(self, n):
        losses, values = self.step_losses(n, self.price_ratios([11, n], 20_000))
        rates = losses / values
        w = n / (n + 1)
        expected = 1.0 - math.exp(-w * (1 - w) * self.SIGMA**2 / 2)
        stderr = rates.std(ddof=1) / math.sqrt(rates.size)
        assert abs(rates.mean() - expected) <= 4 * stderr


# Every int and float field of every sim config, read from the dataclasses,
# so a field or a config class added later is covered too.
CONFIGS = [DrsSimConfig, TradeStreamConfig, MarketLoopConfig, SweepGridConfig]
NUMERIC_FIELDS = [
    pytest.param(cls, name, kind, id=f"{cls.__name__}.{name}")
    for cls in CONFIGS
    for name, kind in typing.get_type_hints(cls).items()
    if kind in (int, float)
]


class TestConfigFieldTypes:
    """The config dataclasses own their type rules: an int field takes an
    integer, a float field a finite number, and a bool is neither."""

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_bool_and_string_rejected(self, cls, name, kind):
        for value in (True, "1"):
            with pytest.raises(ValueError, match=name):
                cls(**{name: value})

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_fraction_or_non_finite_rejected(self, cls, name, kind):
        for value in [2.5, math.nan] if kind is int else [math.nan, math.inf, -math.inf, 10**400]:
            with pytest.raises(ValueError, match=name):
                cls(**{name: value})

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_numpy_scalars_accepted_as_given(self, cls, name, kind):
        value = np.int64(3) if kind is int else np.float64(getattr(cls(), name))
        assert getattr(cls(**{name: value}), name) is value

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            (DrsSimConfig, "initial_volume", 0.0),
            (DrsSimConfig, "target_volume", -1.0),
            (DrsSimConfig, "volume_floor", 0.0),
            (TradeStreamConfig, "trades_per_period", -1.0),
            (TradeStreamConfig, "num_traders", 0),
            (MarketLoopConfig, "vol_window", 1),
        ],
    )
    def test_range_rule_names_its_field(self, cls, name, value):
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("cls", [DrsSimConfig, MarketLoopConfig])
    def test_negative_seed_rejected(self, cls):
        with pytest.raises(ValueError, match="seed"):
            cls(seed=-1)


class TestSweepGridConfig:
    def test_defaults_are_the_old_grid(self):
        grid = SweepGridConfig()
        assert np.array_equal(grid.m_grid(), np.logspace(0, 2, 200))
        assert grid.n_values == [1, 2, 3, 4, 5]
        rows = sweep_il()
        assert [row["m"] for row in rows[:200]] == np.logspace(0, 2, 200).tolist()
        assert sorted({row["n"] for row in rows}) == [1, 2, 3, 4, 5]

    def test_n_values_must_be_a_list(self):
        with pytest.raises(ValueError, match="n_values"):
            SweepGridConfig(n_values=(1, 4))

    @pytest.mark.parametrize("n", [0, 9, 4.0, True, math.nan])
    def test_bad_exponent_is_named_by_index(self, n):
        with pytest.raises(ValueError, match=r"n_values\[1\]"):
            SweepGridConfig(n_values=[1, n])

    @pytest.mark.parametrize("m_min, m_max", [(5.0, 2.0), (0.0, 2.0), (-1.0, 2.0)])
    def test_bad_range_rejected(self, m_min, m_max):
        with pytest.raises(ValueError, match="m_min"):
            SweepGridConfig(m_min=m_min, m_max=m_max)

    def test_m_points_at_least_one(self):
        with pytest.raises(ValueError, match="m_points"):
            SweepGridConfig(m_points=0)
