"""Simulation harness: DRS experiment, sweeps, and the market loop."""

import dataclasses
import math
import subprocess
import sys
import tracemalloc
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm import sim
from powerlaw_amm.fees import (
    LP_SHARE,
    REWARD_FRACTION,
    FeeSchedule,
    RebateContext,
    RegimeParams,
    classify_regime,
    compute_fee,
    dynamic_rebate,
    split_fee,
    _fold,
)
from powerlaw_amm.il import (
    il_hold,
    il_improvement_factor,
    il_powerlaw_exact,
    il_proposed_scaled,
    il_traditional,
)
from powerlaw_amm.pool import (
    FLOAT_MAX,
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
from test_fees import reference_settle


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"volume_floor": 5e6},  # the floor lifts the arm past the cap's growth
            {"static_rebate": 15.0},  # a negative step: the arm sits on its floor
            {"static_rebate": 30.0, "days": 4},
            {"sensitivity": -1.0, "target_volume": 1.0},  # k < 0: the rebate floor steps highest
            {"target_volume": 1e9},  # the rebate pinned at its cap reaches the bound
            {"days": 1},
        ],
        ids=["default", "floor", "negative-step", "negative-step-4-days", "negative-k", "pinned-cap", "one-day"],
    )
    def test_geometric_bound_holds(self, overrides):
        cfg = DrsSimConfig(noise_std=0.0, **overrides)
        bound = drs_geometric_upper_bound(cfg)
        assert run_drs_simulation(cfg).summary["final_ratio_dynamic"] <= bound
        assert drs_noise_free_series(cfg)[-1] / cfg.initial_volume <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        days=st.integers(1, 60),
        sensitivity=st.floats(-2.0, 2.0),
        static_rebate=st.floats(-1.0, 3.0),
        target_volume=st.floats(1e-3, 1e9),
        volume_floor=st.floats(1e-3, 1e7),
    )
    def test_geometric_bound_holds_for_any_config(self, **fields):
        cfg = DrsSimConfig(noise_std=0.0, **fields)
        bound = drs_geometric_upper_bound(cfg)
        assert run_drs_simulation(cfg).summary["final_ratio_dynamic"] <= bound
        assert drs_noise_free_series(cfg)[-1] / cfg.initial_volume <= bound

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

    def test_results_compare_by_value(self):
        # the series are arrays, compared element for element
        cfg = DrsSimConfig(seed=7, replications=3)
        a = run_drs_simulation(cfg)
        assert a == run_drs_simulation(cfg)
        assert a != run_drs_simulation(dataclasses.replace(cfg, seed=8))
        assert (a == 1) is False

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

    @pytest.mark.parametrize("value", [-0.0, -1e-320, np.float64(-0.0)])
    def test_negative_signed_noise_std_rejected(self, value):
        # numpy's normal checks the sign bit, so -0.0 is rejected here, not in the run
        with pytest.raises(ValueError, match=r"^noise_std must be nonnegative and not -0\.0"):
            DrsSimConfig(noise_std=value)
        assert DrsSimConfig(noise_std=0.0).noise_std == 0.0

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

    def test_noise_free_series_overflow_raises(self):
        # the oracle steps on Python floats, so the overflowing multiply
        # raises no numpy warning (an error under this suite); its check does
        cfg = DrsSimConfig(days=5, initial_volume=1e308, sensitivity=10.0, static_rebate=0.0)
        with pytest.raises(ValueError, match="DRS noise-free volume overflows a float on day 1"):
            drs_noise_free_series(cfg)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"days": 5, "sensitivity": 1e300},
            {"days": 1000, "sensitivity": 1e10},
            # the step itself is inf
            {"days": 5, "sensitivity": 1e308, "static_rebate": -10.0},
        ],
    )
    def test_geometric_bound_overflow_raises(self, overrides):
        with pytest.raises(ValueError, match=r"DRS geometric bound .* overflows a float"):
            drs_geometric_upper_bound(DrsSimConfig(**overrides))


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
            # the edges of 2**14-cell blocks: sizes inside one block here
            (162, 100, 0.01, 0),
            (163, 100, 0.0, 11),
            (163, 100, 0.05, 11),
            (164, 100, 0.01, 2024),
            (327, 100, 0.05, 5),
            (5, 5462, 0.01, 9),
            (5, 5462, 0.0, 9),
            pytest.param(2, 100, 0.01, np.int64(3), id="2-100-0.01-int64-3"),
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

    def test_a_2000_by_100_run_allocates_at_most_1_mib(self):
        # one (block, days, 2) float array, DRS_BLOCK_CELLS cells per arm, is 640 KiB;
        # a first small run loads numpy.random outside the trace
        run_drs_simulation(DrsSimConfig(replications=2, days=2))
        tracemalloc.start()
        try:
            run_drs_simulation(DrsSimConfig(replications=2000, days=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("cells", [100, 300, DRS_BLOCK_CELLS])
    def test_block_width_moves_no_bit(self, monkeypatch, cells):
        # 100 cells give 1-row blocks at 100 days; 300 give 3-row blocks,
        # so 7 replications leave a 1-row tail
        cfg = DrsSimConfig(replications=7, days=100, noise_std=0.05, seed=5)
        default = run_drs_simulation(cfg)
        monkeypatch.setattr(sim, "DRS_BLOCK_CELLS", cells)
        res = self.assert_matches_reference(cfg)
        for name in ("static_series", "dynamic_series", "rho_series"):
            assert getattr(res, name).tobytes() == getattr(default, name).tobytes()
        assert repr(res.summary) == repr(default.summary)

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    def test_standard_normal_times_scale_is_numpys_normal(self, seed):
        """run_drs_simulation draws standard normals and scales them by
        noise_std where the reference draws normal(0.0, noise_std). numpy's
        normal is loc + scale * z, z from the same ziggurat draw, so the two
        differ only where scale * z is -0.0, which loc turns into +0.0; the
        recurrence adds the noise to a nonzero term, where both give the same
        sum. If a numpy release changes normal, this test fails and points
        at the cause, not only the golden digests."""
        days = 997
        for rep in (0, 1, 409):
            for scale in (0.0, 0.01, 1.0, 1e300):
                with np.errstate(over="ignore"):
                    scaled = replication_rng(seed, rep).standard_normal((days, 2)) * scale + 0.0
                normal = replication_rng(seed, rep).normal(0.0, scale, (days, 2))
                assert scaled.tobytes() == normal.tobytes()

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
        # the package loads it only when a run first draws, not when the
        # simulation commands import sim, fees and il
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import powerlaw_amm, powerlaw_amm.cli, powerlaw_amm.sim, powerlaw_amm.fees, powerlaw_amm.il; "
            "powerlaw_amm.run_market_loop; powerlaw_amm.cli.run_market_loop; "
            "print(powerlaw_amm.__file__); print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert Path(out[0]).is_relative_to(SRC)
        assert out[1] == "False"

    def test_pool_api_and_quote_leave_numpy_unloaded(self, tmp_path):
        # numpy's import is most of a quote's start-up; the pool API and the
        # quote command are plain Python and must not load it, while the
        # commands that do load it later in the same process still write
        # their golden outputs
        out = subprocess.run(
            [sys.executable, "-c", SCALAR_PATH_CHILD, str(SRC), str(SRC.parent / "bench")],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr[-3000:]
        assert out.stdout.splitlines()[-1] == "goldens match"


# Run in a child process from an empty directory: the scalar path first, then
# two commands that load numpy, against the digests bench/golden.py pins.
SCALAR_PATH_CHILD = """
import sys
src, bench = sys.argv[1:]
sys.path[:0] = [src, bench]
import powerlaw_amm, powerlaw_amm.cli
from powerlaw_amm import cli, pool
floats, ints = pool.Pool(100.0, 100.0, 4), pool.Pool(100, 100, 4)
assert floats == ints
pool.swap_y_for_x(floats, 10.0, 0.01)
pool.swap_x_for_y(ints, 10, 0.01)
pool.spot_price(ints)
pool.slippage_first_order(floats, 1.0)
pool.depleted_reserves(1.0, 2.0, 4)
pool.retention_ratio(2.0, 4)
quote = ["quote", "--x", "100", "--y", "100", "--n", "4", "--buy-x", "--in", "100", "--fee", "0.01"]
assert cli.main(quote) == 0
assert cli.main(quote + ["--in", "nan"]) == 2
cli.run_market_loop, cli.sweep_il  # the tracer reads the entry points before any command runs
assert "powerlaw_amm.sim" not in sys.modules
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))[:5]

import golden
for argv, files in golden.COMMANDS:
    if argv[0] in ("market-loop", "sweep-il"):
        assert cli.main(argv) == 0
        for name in files:
            assert golden.sha256_file(name) == golden.PINNED[f"{argv[0]}:{name}"], name
print("goldens match")
"""


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

    def test_il_exact_below_half_is_taken_on_m(self):
        # il_powerlaw_exact(m - 1.0, n) would form 1 + (m - 1), which is not m
        # below m = 0.5 (0.0 at m = 1e-17)
        grid = [1e-17, 1e-10, 0.25, 0.4999]
        rows = sweep_il(m_grid=grid, n_values=[4])
        assert rows["il_exact"].tolist() == [1.0 - m**-0.2 for m in grid]
        assert rows["il_exact"][1] == -99.00000000000003

    def test_il_rows_match_direct_calls(self):
        for row in sweep_il(m_grid=[3.0, 250.0], n_values=[2, 4]):
            assert row["il_traditional"] == il_traditional(row["m"])
            assert row["il_scaled"] == il_proposed_scaled(row["m"], row["n"])
            assert row["il_exact"] == il_powerlaw_exact(row["m"] - 1.0, row["n"])


class TestLogChangeVolatility:
    # numpy sums in blocks of 8 below 128 elements and pairwise above, so the
    # lengths cross both edges on either side
    LENGTHS = [*range(2, 12), 16, 17, *range(126, 133), *range(255, 260), 1000, 2001]

    def test_equals_np_std_of_the_log_changes(self):
        # callers pass the logs, each taken once with math.log
        rng = np.random.default_rng(20261019)
        for length in self.LENGTHS:
            for scale in (1e-6, 0.02, 3.0):
                start = rng.uniform(1e-3, 1e6)
                series = start * np.exp(np.cumsum(rng.normal(0.0, scale, length)))
                logs = [math.log(v) for v in series.tolist()]
                want = float(np.std(np.diff(logs)))
                for s in (np.array(logs), logs):
                    got = sim._log_change_vol(s)
                    assert type(got) is float
                    assert got == want, (length, scale)


class TestVolatilityFromConfig:
    """The market loop's sigma against what its config implies. A trade's
    log-price jump J does not depend on the pool state: a buy moves it by
    ((n+1)/n)·log1p(r), a sell by -(n+1)·log1p(r/n), with r = (1-gamma)·f·e^z,
    f the median size fraction and z = size_sigma·N(0, 1). A period's log
    change is then a compound-Poisson sum of variance λ·E[J²] (Feller, vol.
    2), and sigma, a ddof-0 deviation of the w - 1 changes in a window of w
    logs, has E[sigma²] = ((w-2)/(w-1))·λ·E[J²]. Periods are independent
    but for gamma, which the regime sets: the schedule's largest and
    smallest gamma bound the prediction."""

    @staticmethod
    def predicted_sigma2(cfg: MarketLoopConfig) -> tuple[float, float]:
        """The (low, high) bounds of E[sigma²], E[J²] by Gauss-Hermite
        quadrature over z."""
        z, weights = np.polynomial.hermite_e.hermegauss(60)
        weights = weights / weights.sum()  # the standard normal's
        n, w, stream = cfg.n, cfg.vol_window, cfg.stream
        gammas = [cfg.schedule.params_for(regime).gamma for regime in ("low", "moderate", "high")]
        bounds = []
        for gamma in (max(gammas), min(gammas)):
            r = (1 - gamma) * stream.size_median_frac * np.exp(stream.size_sigma * z)
            j2 = 0.5 * ((n + 1) / n * np.log1p(r)) ** 2 + 0.5 * ((n + 1) * np.log1p(r / n)) ** 2
            bounds.append((w - 2) / (w - 1) * stream.trades_per_period * float(weights @ j2))
        return bounds[0], bounds[1]

    @staticmethod
    def full_windows(cfg: MarketLoopConfig) -> np.ndarray:
        """sigma of each period whose window holds vol_window logs."""
        return np.array(run_market_loop(cfg).sigma_series[cfg.vol_window - 1 :])

    # λ >= 30: at λ = 10 the median sigma read 7 % under the prediction
    @pytest.mark.parametrize("n, trades_per_period", [(1, 30.0), (8, 50.0)])
    def test_mean_sigma2_matches_the_compound_poisson_variance(self, n, trades_per_period):
        # Overlapping windows of one run are correlated, so the standard
        # error is taken over independent runs: 16 seeds of 171 full windows,
        # whose run means spread by about 3 % of their mean. The mean must
        # lie within 4 standard errors of the bounds.
        cfg = MarketLoopConfig(n=n, epochs=1, periods_per_epoch=200,
                               stream=TradeStreamConfig(trades_per_period=trades_per_period))
        means = [np.mean(self.full_windows(dataclasses.replace(cfg, seed=seed)) ** 2) for seed in range(16)]
        low, high = self.predicted_sigma2(cfg)
        mean, se = np.mean(means), np.std(means, ddof=1) / math.sqrt(len(means))
        assert low - 4 * se <= mean <= high + 4 * se, (mean / low, mean / high, se / mean)

    # each predicted sigma is over twice as far as the nearest threshold, the
    # default schedule's 0.01 and 0.05: about 0.0036, 0.022 and 0.12
    @pytest.mark.parametrize("size_median_frac, regime", [(0.0002, "low"), (0.0012, "moderate"), (0.007, "high")])
    def test_periods_land_in_the_predicted_regime(self, size_median_frac, regime):
        stream = TradeStreamConfig(trades_per_period=30.0, size_median_frac=size_median_frac)
        schedule = FeeSchedule()
        for bound in self.predicted_sigma2(MarketLoopConfig(stream=stream)):
            sigma = math.sqrt(bound)
            assert classify_regime(sigma, schedule) == regime
            assert not schedule.sigma_low / 2 <= sigma <= 2 * schedule.sigma_low
            assert not schedule.sigma_high / 2 <= sigma <= 2 * schedule.sigma_high
        landed = Counter()
        for seed in range(4):
            cfg = MarketLoopConfig(epochs=1, periods_per_epoch=200, seed=seed, stream=stream)
            landed.update(classify_regime(sigma, schedule) for sigma in self.full_windows(cfg).tolist())
        # every one of the 684 periods did, measured
        assert landed[regime] >= 0.99 * landed.total(), landed


class TestMarketLoop:
    def test_zero_trade_stream(self):
        cfg = MarketLoopConfig(stream=TradeStreamConfig(trades_per_period=0.0))
        res = run_market_loop(cfg)
        assert res.total_fees == 0.0
        assert res.executed_trades == 0
        assert res.final_pool.x_reserve == cfg.x_reserve
        assert res.final_pool.y_reserve == cfg.y_reserve
        # zero-volume epochs have empty pools and pay nothing
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
            if er.payouts.size:
                assert sum(er.payouts.tolist()) == pytest.approx(
                    er.reward_pool, rel=1e-12
                )

    def test_reward_pool_is_tenth_of_epoch_fees(self):
        res = run_market_loop(MarketLoopConfig(seed=5))
        first = res.epoch_reports[0]
        assert first.reward_pool == pytest.approx(0.1 * first.fees, rel=1e-12)
        assert res.protocol_net == pytest.approx(
            res.protocol_total - res.rewards_distributed, rel=1e-12
        )

    def test_deterministic_under_seed(self):
        a = run_market_loop(MarketLoopConfig(seed=31))
        b = run_market_loop(MarketLoopConfig(seed=31))
        assert a.total_fees == b.total_fees
        assert a.final_pool == b.final_pool
        assert a.epoch_reports == b.epoch_reports
        # a report is unequal to anything that is not a report
        assert a.epoch_reports[0] != object()
        assert (a.epoch_reports[0] == 1) is False

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
        # at seed 2 the first trade's exp(size_sigma * z) overflows: a size of
        # inf, reported like any size outside (0, inf)
        cfg = MarketLoopConfig(
            epochs=1, periods_per_epoch=2, seed=2, stream=TradeStreamConfig(size_sigma=1000.0)
        )
        with pytest.raises(PoolError) as exc:
            run_market_loop(cfg)
        assert str(exc.value) == (
            "trade size inf leaves (0, inf): stream.size_median_frac 0.001 and"
            " stream.size_sigma 1000.0 are too extreme"
        )

    @pytest.mark.parametrize(
        "stream",
        [
            {"size_sigma": 300.0},  # underflows to 0 on a buy (dy_in)
            {"size_sigma": 400.0},  # underflows to 0 on a sell (dx_in)
            {"size_median_frac": 1e303},  # a finite median whose first sizes overflow to inf
        ],
        ids=["buy-underflow", "sell-underflow", "product-overflow"],
    )
    def test_size_out_of_float_range_names_the_stream(self, stream):
        cfg = MarketLoopConfig(epochs=2, periods_per_epoch=30, seed=1, stream=TradeStreamConfig(**stream))
        with pytest.raises(PoolError, match=r"^trade size .* stream\.size_median_frac .* stream\.size_sigma"):
            run_market_loop(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            # sizes near 5e304: the sum of the trades passes the largest float
            MarketLoopConfig(
                x_reserve=1.0050559575135922e301, y_reserve=6.964825529160703e304, n=1,
                epochs=2, periods_per_epoch=10,
                stream=TradeStreamConfig(trades_per_period=20.0, size_median_frac=0.6821472032286585),
            ),
            # a 99% fee on sizes near 1e306: the fees pass it too
            MarketLoopConfig(
                x_reserve=4.3972307153698604e303, y_reserve=2.1535942670545874e306, n=5,
                epochs=2, periods_per_epoch=10,
                stream=TradeStreamConfig(trades_per_period=20.0, size_median_frac=0.48115646257296785),
                schedule=FeeSchedule(**dict.fromkeys(["low", "moderate", "high"], RegimeParams(0.99, 0.4))),
            ),
        ],
        ids=["volume", "volume-and-fees"],
    )
    def test_total_volume_overflow_names_the_reserve_and_stream(self, cfg):
        message = r"^total volume inf overflows a float: y_reserve \S+ and stream\.size_median_frac \S+ "
        with pytest.raises(PoolError, match=message):
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

    @pytest.mark.parametrize(
        "reserves, message",
        [
            ({"x_reserve": 0}, "pool is inactive"),
            ({"y_reserve": 0.0}, "pool is inactive"),
            ({"x_reserve": -0.0}, "pool is inactive"),
            ({"x_reserve": 1e-320}, r"pool price n\*y/x is inf"),
            ({"y_reserve": 5e-324}, r"pool price n\*y/x is 0\.0"),
        ],
    )
    def test_pool_state_checked_and_named(self, reserves, message):
        # the run's first spot_price would reject these; the config does it first
        with pytest.raises(ValueError, match=f"^x_reserve and y_reserve: {message}"):
            MarketLoopConfig(**reserves)

    @pytest.mark.parametrize(
        "frac, y_reserve", [(1e305, 100_000.0), (1e10, 1e299), (1e-300, 1e-30), (10**200, 10**200)]
    )
    def test_median_trade_must_be_a_positive_float(self, frac, y_reserve):
        stream = TradeStreamConfig(size_median_frac=frac)
        with pytest.raises(ValueError, match=r"^stream\.size_median_frac .* outside \(0, inf\)$"):
            MarketLoopConfig(y_reserve=y_reserve, stream=stream)

    @pytest.mark.parametrize(
        "value", [1e300, 2e19, 9.3e18, 2**63, math.nextafter(sim._POISSON_LAM_MAX, math.inf)]
    )
    def test_trades_per_period_past_numpys_poisson_limit_rejected(self, value):
        with pytest.raises(ValueError, match=r"^trades_per_period must be in \[0, 9\.22337200648"):
            TradeStreamConfig(trades_per_period=value)

    def test_poisson_limit_is_numpys(self):
        # numpy draws at the limit and rejects the next float up
        limit = sim._POISSON_LAM_MAX
        assert TradeStreamConfig(trades_per_period=limit).trades_per_period == limit
        rng = np.random.default_rng(0)
        rng.poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(limit, math.inf))


def reference_market_loop(cfg: MarketLoopConfig, trades: list | None = None) -> sim.MarketLoopResult:
    """The market loop as numpy's scalar draws and the public pool and fee
    functions give it, one trade at a time: per trade rng.random() < 0.5
    for the side, rng.integers(num_traders) for the trader and
    rng.standard_normal() for the size, swap_y_for_x or swap_x_for_y, and
    compute_fee, dynamic_rebate and split_fee; sigma is np.std of libm logs,
    every running sum a float +=, and each epoch's volumes a trader ->
    volume dict in first-trade order, settled by the scalar reference
    settlement. Every output of run_market_loop must have its bits. Given a
    list as trades, it appends each executed trade's (epoch_id, volume,
    gamma, rho, trader) to it."""
    rng = replication_rng(cfg.seed, 0)
    stream, schedule = cfg.stream, cfg.schedule
    pool = Pool(cfg.x_reserve, cfg.y_reserve, cfg.n)
    price = spot_price(pool)
    prices = [price]
    sigma_series, epoch_reports = [], []
    total_volume = total_fees = lp_total = rebate_total = protocol_total = rewards = 0.0
    rejected = executed = 0
    prev_volume = cfg.target_volume
    for epoch_id in range(cfg.epochs):
        volumes = {}
        epoch_fees = epoch_volume = 0.0
        for _ in range(cfg.periods_per_epoch):
            window = prices[-cfg.vol_window :]
            # the logs are libm's, as the loop takes them: numpy's SIMD np.log
            # differs from math.log in the last bit on some prices
            logs = [math.log(p) for p in window]
            sigma = float(np.std(np.diff(logs))) if len(window) > 1 else 0.0
            sigma_series.append(sigma)
            params = schedule.params_for(classify_regime(sigma, schedule))
            gamma = params.gamma
            rho = dynamic_rebate(RebateContext(prev_volume, cfg.target_volume), params.rho_max)
            period_volume = 0.0
            for _ in range(int(rng.poisson(stream.trades_per_period))):
                buy_side = rng.random() < 0.5
                trader = int(rng.integers(stream.num_traders))
                volume = stream.size_median_frac * pool.y_reserve * math.exp(
                    stream.size_sigma * rng.standard_normal()
                )
                try:
                    if buy_side:
                        pool, _ = swap_y_for_x(pool, volume, gamma)
                    else:
                        pool, _ = swap_x_for_y(pool, volume / price, gamma)
                except TradeTooLarge:
                    rejected += 1
                    continue
                price = spot_price(pool)
                executed += 1
                fee = compute_fee(volume, gamma)
                split = split_fee(fee, rho)
                total_volume += volume
                total_fees += fee
                lp_total += split.lp_share
                rebate_total += split.rebate_share
                protocol_total += split.protocol_share
                epoch_fees += fee
                epoch_volume += volume
                period_volume += volume
                volumes[trader] = volumes.get(trader, 0.0) + volume
                if trades is not None:
                    trades.append((epoch_id, volume, gamma, rho, trader))
            prev_volume = period_volume
            prices.append(price)
        assert total_volume <= FLOAT_MAX
        reward_pool = REWARD_FRACTION * epoch_fees
        rewards += reward_pool
        payouts = reference_settle(volumes, reward_pool, epoch_id)
        traders = np.array([t for t, _ in payouts], dtype=np.int64)
        amounts = np.array([p for _, p in payouts], dtype=float)
        epoch_reports.append(sim.EpochReport(epoch_id, epoch_fees, epoch_volume, reward_pool, traders, amounts))
    return sim.MarketLoopResult(
        total_volume=total_volume,
        total_fees=total_fees,
        lp_total=lp_total,
        rebate_total=rebate_total,
        protocol_total=protocol_total,
        protocol_net=protocol_total - rewards,
        rewards_distributed=rewards,
        rejected_trades=rejected,
        executed_trades=executed,
        final_pool=pool,
        sigma_series=sigma_series,
        epoch_reports=epoch_reports,
    )


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

    def test_float32_config_runs_like_its_python_twin(self):
        # numpy scalars are stored as Python numbers, so the loop runs in float64
        def run(num, count):
            stream = TradeStreamConfig(trades_per_period=num(100.0), num_traders=count(100))
            cfg = MarketLoopConfig(
                x_reserve=num(10_000.0), y_reserve=num(100_000.0), target_volume=num(1_000.0),
                epochs=2, periods_per_epoch=50, seed=count(1), stream=stream,
            )
            return run_market_loop(cfg)

        got, want = run(np.float32, np.int32), run(float, int)
        # repr tells a leaked numpy scalar from its Python twin; bits() the
        # payout arrays, whose repr prints 8 digits
        assert repr(got) == repr(want)
        assert bits(got) == bits(want)

    @staticmethod
    def assert_matches_reference(cfg):
        res = run_market_loop(cfg)
        assert bits(res) == bits(reference_market_loop(cfg))
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


def bits(value):
    """value with every float replaced by its float.hex, through dataclasses,
    lists, tuples and numpy arrays (kept with their dtype), so == compares
    bit for bit (-0.0 and 0.0 differ)."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return [value.dtype.str, bits(value.tolist())]
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


@st.composite
def oracle_configs(draw):
    """Small market loops over the corners the epoch close must get right:
    one trader and 2**32 of them, trades rejected at the input cap (a median
    of 3x the reserve), periods and whole epochs without a trade, every
    regime, and a target of 5e-324, where volume / target overflows."""
    low = draw(st.sampled_from([1e-4, 1e-3, 0.01, 0.05]))
    stream = TradeStreamConfig(
        trades_per_period=draw(st.sampled_from([0.0, 0.2, 1.0, 4.0, 15.0])),
        size_median_frac=draw(st.sampled_from([1e-3, 0.05, 3.0])),
        size_sigma=draw(st.sampled_from([0.0, 0.5, 1.5])),
        num_traders=draw(st.one_of(st.sampled_from([1, 2, 2**32]), st.integers(1, 2**32))),
    )
    return MarketLoopConfig(
        n=draw(st.sampled_from([1, 4, 8])),
        epochs=draw(st.integers(1, 4)),
        periods_per_epoch=draw(st.integers(1, 6)),
        target_volume=draw(st.sampled_from([5e-324, 1.0, 1_000.0, 1e300])),
        vol_window=draw(st.integers(2, 5)),
        seed=draw(st.integers(0, 2**64)),
        stream=stream,
        schedule=FeeSchedule(sigma_low=low, sigma_high=low * draw(st.sampled_from([1.5, 10.0]))),
    )


class TestEpochCloseOracle:
    """run_market_loop does its fee, rebate, sum and trader-volume work at
    each epoch close, as arrays; reference_market_loop does it per trade. Every
    field, sigma and payout must have the same bits."""

    @given(cfg=oracle_configs())
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_the_per_trade_loop(self, cfg):
        assert bits(run_market_loop(cfg)) == bits(reference_market_loop(cfg))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_volume": 5e-324},
            {"stream": TradeStreamConfig(trades_per_period=0.0)},
            {"stream": TradeStreamConfig(trades_per_period=0.3, num_traders=2**32)},
            {"stream": TradeStreamConfig(trades_per_period=12.0, size_median_frac=3.0, num_traders=1)},
            # one period per epoch: every rebate input is carried across an
            # epoch close; sigma_low=0.0 keeps every period out of the low
            # regime, whose 0.30 cap would pin rho and hide a wrong carry
            {"epochs": 20, "periods_per_epoch": 1, "schedule": FeeSchedule(sigma_low=0.0)},
        ],
    )
    def test_corners(self, overrides):
        defaults = {"epochs": 3, "periods_per_epoch": 6, "vol_window": 4, "seed": 3}
        cfg = MarketLoopConfig(**{**defaults, **overrides})
        assert bits(run_market_loop(cfg)) == bits(reference_market_loop(cfg))

    def test_every_regime_in_one_run(self):
        # sigma starts at 0.0 (low) and the trades move the price enough to
        # cross both thresholds
        schedule = FeeSchedule(sigma_low=0.01, sigma_high=0.05)
        stream = TradeStreamConfig(trades_per_period=8.0, size_median_frac=0.01)
        cfg = MarketLoopConfig(epochs=3, periods_per_epoch=10, vol_window=4, seed=1, stream=stream, schedule=schedule)
        res = run_market_loop(cfg)
        regimes = {classify_regime(sigma, schedule) for sigma in res.sigma_series}
        assert regimes == {"low", "moderate", "high"}
        assert res.rejected_trades == 0 < res.executed_trades
        assert bits(res) == bits(reference_market_loop(cfg))

    def test_bits_tell_two_runs_apart(self):
        # the comparison can fail: another seed's run differs
        cfg = MarketLoopConfig(epochs=2, periods_per_epoch=3, seed=5)
        other = MarketLoopConfig(epochs=2, periods_per_epoch=3, seed=6)
        assert bits(run_market_loop(cfg)) != bits(reference_market_loop(other))


class TestArrayFolds:
    """The epoch close relies on two numpy calls summing left to right, one
    term at a time, as a Python loop of += does: np.add.accumulate over
    [start, *values], and np.bincount(keys, weights=values) per key in input
    order, from 0.0. Compared with float.hex, so equal is bit-identical."""

    magnitudes = st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.2250738585072014e-308),  # subnormals
        st.floats(0.0, 1e300),
        st.floats(1e300, FLOAT_MAX),  # sums overflow to inf
    )

    @staticmethod
    def left_fold(start, values):
        total = start
        for value in values:
            total += value
        return total

    @given(start=magnitudes, values=st.lists(magnitudes, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_accumulate_is_the_left_fold(self, start, values):
        with np.errstate(over="ignore"):
            got = np.add.accumulate(np.array([start, *values]))[-1]
            assert float.hex(float(got)) == float.hex(self.left_fold(start, values))
            assert float.hex(_fold(start, values)) == float.hex(self.left_fold(start, values))

    def test_pairwise_sum_would_differ(self):
        # np.sum's pairwise blocks add the small terms together first, so a
        # test of the fold can tell the two apart
        values = [1.0] + [1e-16] * 100
        assert _fold(0.0, values) == self.left_fold(0.0, values) == 1.0
        assert float(np.sum(values)) != 1.0

    def test_overflow_is_inf_without_a_warning(self):
        # pyproject turns warnings into errors: _fold must silence its own
        assert _fold(1e308, [1e308, 1.0]) == math.inf

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 6), magnitudes), max_size=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_bincount_is_the_left_fold_per_key(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        weights = np.array([w for _, w in pairs], dtype=float)
        _ids, inverse = np.unique(keys, return_inverse=True)
        want = {}
        for key, weight in pairs:
            want[key] = want.get(key, 0.0) + weight
        got = np.bincount(inverse, weights=weights).tolist()
        assert [float.hex(v) for v in got] == [float.hex(want[k]) for k in sorted(want)]


class TestRebateComposition:
    def test_regime_cap_bounds_rebate_total(self):
        # with a permanently-low-vol schedule the rebate is pinned at the 0.30
        # regime cap, so the rebate bucket is exactly 30% of fees
        sched = FeeSchedule(sigma_low=1e9 - 1, sigma_high=1e9)
        res = run_market_loop(MarketLoopConfig(seed=8, schedule=sched))
        assert res.rebate_total == pytest.approx(0.30 * res.total_fees, rel=1e-9)
        assert dynamic_rebate(RebateContext(0.0, 1000.0), rho_max=sched.low.rho_max) == 0.30


def k_drift(cfg, res) -> Fraction:
    """|K_final / K_0 - 1| of a market-loop run, exactly: K = X^n * Y from
    the Fractions of the reserves, so the check itself does not round."""
    k0 = Fraction(cfg.x_reserve) ** cfg.n * Fraction(cfg.y_reserve)
    final = res.final_pool
    return abs(Fraction(final.x_reserve) ** cfg.n * Fraction(final.y_reserve) / k0 - 1)


def k_bound(n: int, trades: int) -> float:
    """The worst-case |K_final / K_0 - 1| after `trades` swaps at exponent n.

    The fee is withheld from the input before it enters the pool (it goes to
    the fee buckets), so the pool sees only the rest, and the kernel sets the
    other reserve so that x'^n * y' = x^n * y in exact arithmetic. The one
    new reserve that is not rounded from a sum is the only error. With
    u = 2**-53 and libm's pow within one ulp (2u):
    - a buy, x' = x * (y / y')**(1/n) with y' = y + dy as stored, rounds the
      quotient (u, scaled by 1/n), 1/n (u times |log(y/y')| / n, and the
      input cap keeps |log(y/y')| <= log(11) < 2.4), the pow (2u) and the
      product (u): x' is within 3u + 3.4u/n, and K = x'^n * y' within
      3n*u + 3.4u;
    - a sell, y' = y * (x / x')**n, rounds the quotient (u, scaled by n),
      the pow (2u) and the product (u): K within (n + 3)u.
    Each trade then moves K by a factor within b = (3n + 5)u of 1 (one u
    over the first-order terms), and N trades by (1 + b)**N - 1.
    """
    return math.expm1(trades * math.log1p((3 * n + 5) * 2.0**-53))


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
        parts = res.rewards_distributed + res.protocol_net
        assert abs(parts - res.protocol_total) <= math.ulp(res.protocol_total)
        # an epoch pays nothing only when it executed no trade, and then its
        # volume, fees and pool are 0.0: no reward pool is ever left unpaid
        for er in res.epoch_reports:
            assert er.traders.size == er.payouts.size
            assert (er.payouts >= 0.0).all()
            assert (er.payouts.size == 0) == (er.volume == 0.0)
            if er.payouts.size:
                total = sum(er.payouts.tolist())
                assert abs(total - er.reward_pool) <= math.ulp(er.reward_pool)
            else:
                assert er.volume == er.fees == er.reward_pool == 0.0
        final = res.final_pool
        assert 0.0 < final.x_reserve < math.inf and 0.0 < final.y_reserve < math.inf
        assert k_drift(cfg, res) <= k_bound(n, res.executed_trades)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_k_over_200k_trades(self, n):
        # 20 x 100 x Poisson(100): measured 2.0e-14 (n = 1), 1.7e-13 (4) and
        # 3.8e-14 (8), against worst-case bounds of 1.6e-10 to 6.2e-10
        cfg = MarketLoopConfig(
            n=n, epochs=20, periods_per_epoch=100, seed=31,
            stream=TradeStreamConfig(trades_per_period=100.0, num_traders=1000),
        )
        res = run_market_loop(cfg)
        assert res.executed_trades > 200_000
        assert k_drift(cfg, res) <= k_bound(n, res.executed_trades)


def gamma_k(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), u = 2**-53: k roundings, each a
    factor (1 + delta) with |delta| <= u, move a value by a factor within
    gamma_k of 1 (Accuracy and Stability of Numerical Algorithms, lemma
    3.1); gamma_k for k <= 0 is 0."""
    ku = max(k, 0) * 2.0**-53
    return ku / (1.0 - ku)


def exact_market_loop(cfg: MarketLoopConfig, trades: list) -> dict:
    """The money of a market-loop run in exact arithmetic, as Fractions,
    from the per-trade (epoch_id, volume, gamma, rho, trader) floats that
    reference_market_loop appends, taken as given, as are LP_SHARE and
    REWARD_FRACTION: each fee F = gamma * V, its shares by split_fee's rule
    (LP_SHARE * F, rho * F and F less both), the running totals, and per
    epoch its fees, volume, reward pool (REWARD_FRACTION of its fees) and
    payouts (each trader's volume / the epoch's volume * the pool, in
    first-trade order)."""
    lp_share, reward_fraction = Fraction(LP_SHARE), Fraction(REWARD_FRACTION)
    totals = ["total_volume", "total_fees", "lp_total", "rebate_total", "protocol_total"]
    exact = dict.fromkeys(totals, Fraction(0))
    epochs = [(dict.fromkeys(["fees", "volume"], Fraction(0)), {}) for _ in range(cfg.epochs)]
    for epoch_id, volume, gamma, rho, trader in trades:
        volume = Fraction(volume)
        fee = Fraction(gamma) * volume
        lp, rebate = lp_share * fee, Fraction(rho) * fee
        for name, term in zip(totals, [volume, fee, lp, rebate, fee - lp - rebate]):
            exact[name] += term
        sums, traders = epochs[epoch_id]
        sums["fees"] += fee
        sums["volume"] += volume
        traders[trader] = traders.get(trader, 0) + volume
    rewards = Fraction(0)
    exact["epoch_reports"] = []
    for sums, traders in epochs:
        pool = reward_fraction * sums["fees"]
        rewards += pool
        payouts = [(t, w / sums["volume"] * pool) for t, w in traders.items()]
        exact["epoch_reports"].append((sums["fees"], sums["volume"], pool, payouts))
    exact.update(rewards_distributed=rewards, protocol_net=exact["protocol_total"] - rewards)
    return exact


def relative_error(got: float, want: Fraction, scale: Fraction | None = None) -> float:
    """|got - want| / scale, scale |want| unless given; 0.0 when got is
    exact, inf when it is not and the scale is 0."""
    diff = abs(Fraction(got) - want)
    if not diff:
        return 0.0
    scale = abs(want) if scale is None else scale
    return float(diff / scale) if scale else math.inf


def market_loop_errors(cfg: MarketLoopConfig, res, trades: list) -> list[tuple[str, float, float]]:
    """(name, relative error, bound) of every money output of res, the run
    of cfg that appended trades, against exact_market_loop.

    The bounds count roundings (Higham, ch. 4): a left fold from 0.0 of k
    terms, each within gamma_j of its exact value, is within
    gamma_{k-1+j} of the exact sum when the terms are nonnegative (lemma
    3.3 and eq. 4.4). With N executed trades, n an epoch's and E epochs:
    - a fee gamma*V rounds once; an LP or rebate share once more
      (gamma_2). The protocol share fl(fl(F - lp) - rebate) is at least
      (1 - 0.3 - 0.4)F = 0.3F and rounds by at most (0.3 + 0.7 + 0.4)u*F
      inside and 2u on F and on the result, so it is within
      2u + 1.4u/0.3 < gamma_8 of its exact value;
    - total_volume is within gamma_{N-1}, total_fees gamma_N, lp_total and
      rebate_total gamma_{N+1}, protocol_total gamma_{N+7};
    - an epoch's volume gamma_{n-1}, its fees gamma_n, its reward pool (a
      product more) gamma_{n+1};
    - rewards_distributed folds at most E pools: gamma_{N+E+1};
    - protocol_net, protocol_total less the rewards, at least
      0.3F - 0.1F = 0.2F, sums at most 0.4F*gamma_{N+7} and
      0.1F*gamma_{N+E+2} of error and rounds once: within 3*gamma_{N+E+8};
    - a payout w / W * pool but the last: w within gamma_{m-1} (m <= n
      trades), W gamma_{n-1}, the quotient, the pool and the product:
      gamma_{3n+1};
    - the last payout is the pool less the fold of the others, which can
      cancel to nothing or below (settle_epoch's docstring): its error,
      at most the pool's, the fold's and the others', is bounded relative
      to the pool, gamma_{5n+4}.
    """
    exact = exact_market_loop(cfg, trades)
    N, E = res.executed_trades, cfg.epochs
    bounds = {
        "total_volume": gamma_k(N - 1),
        "total_fees": gamma_k(N),
        "lp_total": gamma_k(N + 1),
        "rebate_total": gamma_k(N + 1),
        "protocol_total": gamma_k(N + 7),
        "rewards_distributed": gamma_k(N + E + 1),
        "protocol_net": 3 * gamma_k(N + E + 8),
    }
    errors = [
        (name, relative_error(getattr(res, name), exact[name]), bound) for name, bound in bounds.items()
    ]
    epoch_trades = Counter(epoch_id for epoch_id, *_ in trades)
    for report, (fees, volume, pool, payouts) in zip(res.epoch_reports, exact["epoch_reports"]):
        n = epoch_trades[report.epoch_id]
        errors += [
            ("epoch fees", relative_error(report.fees, fees), gamma_k(n)),
            ("epoch volume", relative_error(report.volume, volume), gamma_k(n - 1)),
            ("reward_pool", relative_error(report.reward_pool, pool), gamma_k(n + 1)),
        ]
        assert report.traders.tolist() == [t for t, _ in payouts]
        got = report.payouts.tolist()
        errors += [
            ("payout", relative_error(p, want), gamma_k(3 * n + 1)) for p, (_, want) in zip(got[:-1], payouts)
        ]
        if payouts:
            errors.append(("last payout", relative_error(got[-1], payouts[-1][1], pool), gamma_k(5 * n + 4)))
    return errors


class TestExactErrorOfTotals:
    """Every money output of a market-loop run, against the same run in
    exact arithmetic on its own per-trade floats, within the relative-error
    bound its rounding steps give (market_loop_errors)."""

    @given(cfg=oracle_configs())
    @settings(max_examples=150, deadline=None)
    def test_within_the_stated_bounds(self, cfg):
        trades = []
        reference_market_loop(cfg, trades)
        for name, error, bound in market_loop_errors(cfg, run_market_loop(cfg), trades):
            assert error <= bound, name

    def test_an_error_past_its_bound_is_caught(self):
        # the replay can fail: a total off by 100 ulp, far past a few-trade bound
        cfg = MarketLoopConfig(epochs=2, periods_per_epoch=3, seed=5)
        trades = []
        res = reference_market_loop(cfg, trades)
        off = dataclasses.replace(res, total_fees=res.total_fees + 100 * math.ulp(res.total_fees))
        failing = [name for name, error, bound in market_loop_errors(cfg, off, trades) if error > bound]
        assert failing == ["total_fees"]


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


class TestArbitrageAtFeeRates:
    """An arbitrageur trades a pool through the fee path of the swap kernels
    at the paper's fee rates (Milionis, Moallemi & Roughgarden, "Automated
    Market Making and Arbitrage Profits in the Presence of Fees", 2023).

    Blocks come at Poisson rate lambda and the external price P is a
    geometric Brownian motion of volatility sigma. A fee gamma withheld from
    the input makes buying X worth it while the pool price p < (1-gamma) P
    and selling it while p > P / (1-gamma): the no-trade band is
    log p in log P +- gamma', gamma' = -log(1-gamma). At each block the
    arbitrageur trades the pool to the band's edge, sized by the closed form
    (reserves_at_price), so only where the pool left the band. A fraction
    P_trade = 1 / (1 + gamma' sqrt(2 lambda) / sigma) of blocks trade, the
    same for every curve, and the arbitrage profit is about P_trade times
    the loss-versus-rebalancing (LVR) rate n sigma^2 / (2 (n+1)^2)."""

    SIGMA, RATE, BLOCKS, BATCHES = 0.05, 1.0, 10_000, 20

    @staticmethod
    def arbitrage(n, gamma, prices):
        """Each block's trade side (1 buys X from the pool, -1 sells it, 0
        none), the pool's log(p/P) after it, and the arbitrage profit over
        the pool's value at P before it."""
        pool = Pool(1000.0, 1000.0 / n, n)  # price 1
        sides, gaps, profits = [], [], []
        for price in prices:
            value = pool.x_reserve * price + pool.y_reserve
            side, profit = 0, 0.0
            if spot_price(pool) < (1 - gamma) * price:
                dy_in = (reserves_at_price(pool, (1 - gamma) * price).y_reserve - pool.y_reserve) / (1 - gamma)
                pool, result = swap_y_for_x(pool, dy_in, gamma)
                side, profit = 1, result.amount_out * price - dy_in
            elif spot_price(pool) > price / (1 - gamma):
                dx_in = (reserves_at_price(pool, price / (1 - gamma)).x_reserve - pool.x_reserve) / (1 - gamma)
                pool, result = swap_x_for_y(pool, dx_in, gamma)
                side, profit = -1, result.amount_out - dx_in * price
            sides.append(side)
            gaps.append(math.log(spot_price(pool) / price))
            profits.append(profit / value)
        return np.array(sides), np.array(gaps), np.array(profits)

    def within_four_batch_errors(self, batch_values, expected):
        stderr = batch_values.std(ddof=1) / math.sqrt(batch_values.size)
        return abs(batch_values.mean() - expected) <= 4 * stderr

    @pytest.mark.parametrize("gamma", [0.003, 0.005, 0.01])
    def test_trades_band_and_profit(self, gamma):
        rng = np.random.default_rng([16, round(gamma * 1000)])
        dt = rng.exponential(1 / self.RATE, self.BLOCKS)
        log_steps = self.SIGMA * np.sqrt(dt) * rng.standard_normal(self.BLOCKS) - self.SIGMA**2 * dt / 2
        prices = np.exp(np.cumsum(log_steps)).tolist()
        edge = -math.log1p(-gamma)
        p_trade = 1 / (1 + edge * math.sqrt(2 * self.RATE) / self.SIGMA)
        # Each swap, reserves_at_price and log(p/P) round a few times: the
        # largest excess over the edge measured was 14 ulps of 1 (n = 8),
        # and the budget is 64 ulps of 1, relative to gamma'.
        budget = 64 * 2.0**-52 / edge
        batch_time = dt.reshape(self.BATCHES, -1).sum(axis=1)
        pattern = None
        for n in (1, 2, 4, 8):
            sides, gaps, profits = self.arbitrage(n, gamma, prices)
            if pattern is None:
                pattern = sides
                traded = (sides != 0).reshape(self.BATCHES, -1).mean(axis=1)
                assert self.within_four_batch_errors(traded, p_trade), (traded.mean(), p_trade)
            # the same blocks trade, on the same side, whatever the curve
            assert np.array_equal(sides, pattern), np.flatnonzero(sides != pattern)[:5]
            assert np.abs(gaps).max() <= (1 + budget) * edge
            lvr = n * self.SIGMA**2 / (2 * (n + 1) ** 2)
            ratios = profits.reshape(self.BATCHES, -1).sum(axis=1) / (lvr * batch_time)
            assert self.within_four_batch_errors(ratios, p_trade), (n, ratios.mean(), p_trade)


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
        narrow = [np.float32("inf"), np.float32("nan"), np.float16("inf"), np.float16("nan")]
        for value in [2.5, math.nan] if kind is int else [math.nan, math.inf, -math.inf, 10**400, *narrow]:
            with pytest.raises(ValueError, match=name):
                cls(**{name: value})

    @pytest.mark.parametrize("cls, name, kind", NUMERIC_FIELDS)
    def test_numpy_scalars_accepted_as_given(self, cls, name, kind):
        # stored as the equal Python number
        default = getattr(cls(), name)
        values = (np.int64(3), np.uint16(3)) if kind is int else (np.float64(default), np.float32(default))
        for value in values:
            stored = getattr(cls(**{name: value}), name)
            assert stored == value and type(stored) is kind

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

    def test_n_values_must_not_be_empty(self):
        with pytest.raises(ValueError, match="n_values"):
            SweepGridConfig(n_values=[])

    @pytest.mark.parametrize("m_min, m_max", [(1, 5), (1.0, 1.5)])
    def test_one_point_grid_needs_m_min_equal_m_max(self, m_min, m_max):
        # logspace(..., 1) holds m_min only, so m_max would be dropped
        with pytest.raises(ValueError, match="m_points"):
            SweepGridConfig(m_min=m_min, m_max=m_max, m_points=1)
        assert SweepGridConfig(m_min=m_max, m_max=m_max, m_points=1).m_grid().size == 1

    @pytest.mark.parametrize(
        "m_min, m_max, m_points", [(1.0, FLOAT_MAX, 3), (1e-300, FLOAT_MAX, 200), (FLOAT_MAX, FLOAT_MAX, 1)]
    )
    def test_grid_past_the_float_range_names_m_max(self, m_min, m_max, m_points):
        # np.logspace rounds 10**log10(FLOAT_MAX) up to inf; warnings are errors here
        with pytest.raises(ValueError, match=r"m_max 1\.7976931348623157e\+308 puts the last grid point"):
            SweepGridConfig(m_min=m_min, m_max=m_max, m_points=m_points)

    @pytest.mark.parametrize("m_points", [1, 3, 200])
    def test_finite_grids_near_the_top_keep_their_bits(self, m_points):
        # walk m_max down from the largest float, in steps of 2**-20 until a
        # grid is accepted, then one ulp at a time: each grid is refused with
        # an inf in np.logspace's, or is np.logspace's bit for bit
        m_max, refused, accepted = FLOAT_MAX, 0, 0
        while accepted < 50:
            m_min = m_max if m_points == 1 else 1.0
            with np.errstate(over="ignore"):
                want = np.logspace(np.log10(m_min), np.log10(m_max), m_points)
            try:
                got = SweepGridConfig(m_min=m_min, m_max=m_max, m_points=m_points).m_grid()
            except ValueError:
                assert not np.isfinite(want).all()
                refused += 1
            else:
                assert np.isfinite(want).all() and got.tobytes() == want.tobytes()
                accepted += 1
            m_max = math.nextafter(m_max, 0.0) if accepted else m_max * (1 - 2**-20)
        assert refused > 0
