"""Deterministic, seeded simulations.

- run_drs_simulation: static-rebate vs dynamic-rebate daily-volume experiment.
- sweep_retention / sweep_il: grid evaluations of the retention and
  impermanent-loss curves.
- run_market_loop: integrated pool + fee-engine market loop driven by a
  seeded synthetic trade stream.

Randomness contract: every run derives its generator from
numpy.random.default_rng(SeedSequence([seed, replication_index])) (PCG64;
normal variates via numpy's ziggurat). The market loop draws, per period, a
Poisson trade count, then per trade a uniform (side), a bounded integer
(trader) and a standard normal (size), in that order. Identical (config,
seed) pairs produce bit-identical outputs within this implementation.

Validation happens once, at the boundary: the config dataclasses reject
out-of-range and non-finite fields when built, and run_market_loop checks
its initial Pool before the first trade. The DRS recurrence and the trade
loop then run on plain floats through the pool and fee kernels
(pool._buy_x, pool._sell_x, fees._rebate, fees._split), which assume checked
inputs. drs_noise_free_series iterates the recurrence apart from the
simulator, through the public dynamic_rebate, as the oracle it must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import il as il_mod
from . import pool as pool_mod
from .fees import (
    REBATE_CAP,
    REWARD_FRACTION,
    EpochLedger,
    FeeSchedule,
    RebateContext,
    _rebate,
    _split,
    classify_regime,
    dynamic_rebate,
    settle_epoch,
)
from .pool import Pool, PoolError, TradeTooLarge, _buy_x, _sell_x, spot_price

# The public fee and swap functions stay importable from this module although
# the loops call the kernels: bench/tracing.py rebinds these names to time them.
from .fees import compute_fee, split_fee  # noqa: F401
from .pool import swap_x_for_y, swap_y_for_x  # noqa: F401

DEFAULT_N_VALUES = (1, 2, 3, 4, 5)


def default_m_grid() -> np.ndarray:
    """200 log-spaced price multipliers from 1 to 100."""
    return np.logspace(0, 2, 200)


# ---------------------------------------------------------------------------
# Dynamic rebate system: static vs dynamic daily volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrsSimConfig:
    days: int = 100
    initial_volume: float = 1e6
    target_volume: float = 1e6
    static_rebate: float = 0.35
    sensitivity: float = 0.05
    noise_std: float = 0.01
    seed: int = 0
    replications: int = 1
    volume_floor: float = 1.0

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if not (0 < self.initial_volume < math.inf and 0 < self.target_volume < math.inf):
            raise ValueError("volumes must be finite and positive")
        if not (abs(self.static_rebate) < math.inf and abs(self.sensitivity) < math.inf):
            raise ValueError("static_rebate and sensitivity must be finite")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and nonnegative")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 < self.volume_floor < math.inf:
            raise ValueError("volume_floor must be finite and positive")


@dataclass(frozen=True)
class DrsSimResult:
    static_series: np.ndarray
    dynamic_series: np.ndarray
    rho_series: np.ndarray
    summary: dict
    config: DrsSimConfig


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Child generator for one replication: SeedSequence([seed, replication])."""
    return np.random.default_rng(np.random.SeedSequence([seed, replication]))


def _run_one_replication(cfg: DrsSimConfig, replication: int):
    """One seeded path of both arms.

    Day 0 holds the initial volume; days 1..days-1 are updates (days-1 updates
    in total). Each day draws the static noise first, then the dynamic noise.
    The dynamic arm's rebate is evaluated on the previous day's volume.
    """
    rng = replication_rng(cfg.seed, replication)
    t_n = cfg.days
    static = np.empty(t_n)
    dynamic = np.empty(t_n)
    rho_applied = np.empty(t_n)
    static[0] = cfg.initial_volume
    dynamic[0] = cfg.initial_volume
    rho_applied[0] = _rebate(dynamic[0], cfg.target_volume, REBATE_CAP)
    noise = (
        rng.normal(0.0, cfg.noise_std, size=(t_n - 1, 2))
        if t_n > 1
        else np.empty((0, 2))
    )
    for t in range(1, t_n):
        static[t] = max(static[t - 1] * (1.0 + noise[t - 1, 0]), cfg.volume_floor)
        rho = _rebate(dynamic[t - 1], cfg.target_volume, REBATE_CAP)
        feedback = cfg.sensitivity * (rho - cfg.static_rebate)
        dynamic[t] = max(
            dynamic[t - 1] * (1.0 + feedback + noise[t - 1, 1]), cfg.volume_floor
        )
        rho_applied[t] = rho
    return static, dynamic, rho_applied


def _log_change_vol(series) -> float:
    """Standard deviation of the log changes of a positive series; 0.0 for
    fewer than two points (one change has a deviation of exactly 0.0)."""
    if len(series) < 2:
        return 0.0
    return float(np.std(np.diff(np.log(series))))


def run_drs_simulation(cfg: DrsSimConfig) -> DrsSimResult:
    """Run the static-vs-dynamic rebate experiment.

    The stored series come from replication 0; the summary additionally
    aggregates final/initial ratios and the dynamic-beats-static fraction
    across all replications.
    """
    static0 = dynamic0 = rho0 = None
    final_static = np.empty(cfg.replications)
    final_dynamic = np.empty(cfg.replications)
    beats = 0
    for rep in range(cfg.replications):
        static, dynamic, rho = _run_one_replication(cfg, rep)
        if rep == 0:
            static0, dynamic0, rho0 = static, dynamic, rho
        final_static[rep] = static[-1] / cfg.initial_volume
        final_dynamic[rep] = dynamic[-1] / cfg.initial_volume
        if np.mean(dynamic) > np.mean(static):
            beats += 1
    summary = {
        "days": cfg.days,
        "replications": cfg.replications,
        "mean_volume_static": float(np.mean(static0)),
        "mean_volume_dynamic": float(np.mean(dynamic0)),
        "final_ratio_static": float(static0[-1] / cfg.initial_volume),
        "final_ratio_dynamic": float(dynamic0[-1] / cfg.initial_volume),
        "volatility_static": _log_change_vol(static0),
        "volatility_dynamic": _log_change_vol(dynamic0),
        "mean_final_ratio_static": float(np.mean(final_static)),
        "mean_final_ratio_dynamic": float(np.mean(final_dynamic)),
        "dynamic_beats_static_fraction": beats / cfg.replications,
    }
    return DrsSimResult(
        static_series=static0,
        dynamic_series=dynamic0,
        rho_series=rho0,
        summary=summary,
        config=cfg,
    )


def drs_noise_free_series(cfg: DrsSimConfig) -> np.ndarray:
    """Closed-form (deterministic) dynamic-arm path with the noise switched
    off: the same recurrence iterated without random terms. This is the
    oracle the seeded simulator must match exactly when noise_std == 0."""
    vols = np.empty(cfg.days)
    vols[0] = cfg.initial_volume
    for t in range(1, cfg.days):
        rho = dynamic_rebate(RebateContext(vols[t - 1], cfg.target_volume))
        vols[t] = max(
            vols[t - 1] * (1.0 + cfg.sensitivity * (rho - cfg.static_rebate)),
            cfg.volume_floor,
        )
    return vols


def drs_geometric_upper_bound(cfg: DrsSimConfig) -> float:
    """Growth bound (1 + k*(0.4 - static_rebate))^(days-1): the noise-free
    dynamic arm can never beat a rebate pinned at its 0.4 cap."""
    step = 1.0 + cfg.sensitivity * (0.4 - cfg.static_rebate)
    return step ** (cfg.days - 1)


# ---------------------------------------------------------------------------
# Retention and impermanent-loss sweeps
# ---------------------------------------------------------------------------

def sweep_retention(m_grid=None, n_values=None) -> list[dict]:
    """Rows of (m, n, retention_ratio, depleted_fraction) over the grid."""
    m_grid = default_m_grid() if m_grid is None else np.asarray(m_grid, dtype=float)
    n_values = DEFAULT_N_VALUES if n_values is None else n_values
    rows = []
    for n in n_values:
        for m in m_grid:
            rows.append(
                {
                    "m": float(m),
                    "n": int(n),
                    "retention_ratio": pool_mod.retention_ratio(m, n),
                    "depleted_fraction": pool_mod.depleted_reserves(1.0, m, n),
                }
            )
    return rows


def sweep_il(m_grid=None, n_values=None) -> list[dict]:
    """Rows of (m, n, il_traditional, il_scaled, il_exact) over the grid."""
    m_grid = default_m_grid() if m_grid is None else np.asarray(m_grid, dtype=float)
    n_values = DEFAULT_N_VALUES if n_values is None else n_values
    rows = []
    for n in n_values:
        for m in m_grid:
            rows.append(
                {
                    "m": float(m),
                    "n": int(n),
                    "il_traditional": il_mod.il_traditional(m),
                    "il_scaled": il_mod.il_proposed_scaled(m, n),
                    "il_exact": il_mod.il_powerlaw_exact(m - 1.0, n),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Integrated pool + fee-engine market loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeStreamConfig:
    """Synthetic order flow: Poisson trade counts per period (exponential
    inter-arrivals), fair coin for side, log-normal sizes with a median of
    size_median_frac times the matching reserve."""

    trades_per_period: float = 10.0
    size_median_frac: float = 0.001
    size_sigma: float = 1.0
    num_traders: int = 20

    def __post_init__(self):
        if not 0 <= self.trades_per_period < math.inf:
            raise ValueError("trades_per_period must be finite and nonnegative")
        if not (0 < self.size_median_frac < math.inf and 0 <= self.size_sigma < math.inf):
            raise ValueError("bad size distribution parameters")
        if self.num_traders < 1:
            raise ValueError("num_traders must be >= 1")


@dataclass(frozen=True)
class MarketLoopConfig:
    x_reserve: float = 10_000.0
    y_reserve: float = 100_000.0
    n: int = 4
    epochs: int = 5
    periods_per_epoch: int = 30
    target_volume: float = 1_000.0  # per-period rebate target
    vol_window: int = 30
    seed: int = 0
    stream: TradeStreamConfig = field(default_factory=TradeStreamConfig)
    schedule: FeeSchedule = field(default_factory=FeeSchedule)

    def __post_init__(self):
        if self.epochs < 1 or self.periods_per_epoch < 1:
            raise ValueError("epochs and periods_per_epoch must be >= 1")
        if not 0 < self.target_volume < math.inf:
            raise ValueError("target_volume must be finite and positive")
        if self.vol_window < 2:
            raise ValueError("vol_window must be >= 2")


@dataclass(frozen=True)
class EpochReport:
    epoch_id: int
    fees: float
    volume: float
    reward_pool: float
    carried: float
    payouts: list


@dataclass(frozen=True)
class MarketLoopResult:
    total_volume: float
    total_fees: float
    lp_total: float
    rebate_total: float
    protocol_total: float  # raw protocol share, before the reward carve-out
    protocol_net: float  # protocol share after funding reward pools
    rewards_distributed: float
    reward_carry: float
    rejected_trades: int
    executed_trades: int
    final_pool: Pool
    sigma_series: list
    epoch_reports: list
    config: MarketLoopConfig


class _TraderNames(dict):
    """Trader ids: names[i] is "t{i}", made on first use, so a large
    num_traders costs nothing up front."""

    def __missing__(self, i):
        name = self[i] = f"t{i}"
        return name


def run_market_loop(cfg: MarketLoopConfig) -> MarketLoopResult:
    """Drive a pool through a seeded trade stream with regime-aware fees,
    dynamic rebates, and per-epoch volume rewards.

    Per trade: classify the regime from trailing realized volatility (stdev of
    per-period log price changes over vol_window periods), charge gamma on the
    stablecoin value of the trade, and split the fee with the rebate ratio
    derived from the previous period's volume, capped by the regime's rho_max.
    At each epoch close, a tenth of the epoch's fees moves from the protocol
    share into the reward pool and settles pro-rata to trader volume.

    The config and the initial Pool are validated once, up front; the trade
    loop then keeps the reserves and the price as plain floats and calls the
    pool and fee kernels directly. A trade above the input cap is rejected
    and counted; a trade whose size overflows a float, or that would drain a
    reserve (its price n*y/x leaving (0, inf)), stops the run with a
    PoolError.
    """
    rng = replication_rng(cfg.seed, 0)
    x, y, n = cfg.x_reserve, cfg.y_reserve, cfg.n
    price = spot_price(Pool(x, y, n))
    stream = cfg.stream
    size_frac, size_sigma = stream.size_median_frac, stream.size_sigma
    num_traders = stream.num_traders
    names = _TraderNames()
    random, integers, normal = rng.random, rng.integers, rng.standard_normal
    price_history = [price]
    sigma_series = []
    epoch_reports = []

    total_volume = total_fees = lp_total = rebate_total = protocol_total = 0.0
    rewards_distributed = 0.0
    carry = 0.0
    rejected = executed = 0
    prev_period_volume = cfg.target_volume  # neutral start: rebate begins at 0.4

    for epoch_id in range(cfg.epochs):
        ledger = EpochLedger(epoch_id=epoch_id)
        volumes = ledger.volumes
        epoch_fees = 0.0
        epoch_volume = 0.0
        for _ in range(cfg.periods_per_epoch):
            sigma = _log_change_vol(price_history[-cfg.vol_window :])
            sigma_series.append(sigma)
            regime = classify_regime(sigma, cfg.schedule)
            params = cfg.schedule.params_for(regime)
            gamma = params.gamma
            rho = _rebate(prev_period_volume, cfg.target_volume, params.rho_max)
            period_volume = 0.0
            n_trades = int(rng.poisson(stream.trades_per_period))
            for _ in range(n_trades):
                buy_side = random() < 0.5
                trader = names[integers(num_traders)]  # same draw as integers(0, num_traders)
                try:
                    # both sides sized by stablecoin value, median 0.1% of Y
                    volume = size_frac * y * math.exp(size_sigma * normal())
                    fee = gamma * volume
                    if buy_side:
                        x, y, price = _buy_x(x, y, n, volume, fee)
                    else:
                        size = volume / price
                        x, y, price = _sell_x(x, y, n, size, gamma * size)
                except TradeTooLarge:
                    rejected += 1
                    continue
                except OverflowError:
                    raise PoolError(
                        f"trade size overflows a float: size_sigma {size_sigma} is too large"
                    ) from None
                executed += 1
                lp, rebate, protocol = _split(fee, rho)
                total_volume += volume
                total_fees += fee
                lp_total += lp
                rebate_total += rebate
                protocol_total += protocol
                epoch_fees += fee
                epoch_volume += volume
                period_volume += volume
                volumes[trader] = volumes.get(trader, 0.0) + volume
            prev_period_volume = period_volume
            price_history.append(price)
        reward_pool = REWARD_FRACTION * epoch_fees + carry
        ledger.add_reward(reward_pool)
        payouts = settle_epoch(ledger)
        if payouts:
            rewards_distributed += reward_pool
            carry = 0.0
        else:
            carry = reward_pool
        epoch_reports.append(
            EpochReport(
                epoch_id=epoch_id,
                fees=epoch_fees,
                volume=epoch_volume,
                reward_pool=reward_pool,
                carried=carry,
                payouts=payouts,
            )
        )

    return MarketLoopResult(
        total_volume=total_volume,
        total_fees=total_fees,
        lp_total=lp_total,
        rebate_total=rebate_total,
        protocol_total=protocol_total,
        protocol_net=protocol_total - (rewards_distributed + carry),
        rewards_distributed=rewards_distributed,
        reward_carry=carry,
        rejected_trades=rejected,
        executed_trades=executed,
        final_pool=Pool(x, y, n),
        sigma_series=sigma_series,
        epoch_reports=epoch_reports,
        config=cfg,
    )
