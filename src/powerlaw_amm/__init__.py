"""Power-law AMM pool math, impermanent-loss analytics, dynamic fee rebates,
and seeded market simulations."""

from .pool import (
    Pool,
    PoolError,
    SwapResult,
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
from .il import (
    il_hold,
    il_improvement_factor,
    il_powerlaw_exact,
    il_powerlaw_taylor,
    il_proposed_scaled,
    il_traditional,
)
from .fees import (
    EpochLedger,
    FeeSchedule,
    FeeSplit,
    RebateContext,
    RegimeParams,
    classify_regime,
    compute_fee,
    dynamic_rebate,
    settle_epoch,
    split_fee,
)
from .sim import (
    DrsSimConfig,
    DrsSimResult,
    MarketLoopConfig,
    MarketLoopResult,
    SweepGridConfig,
    TradeStreamConfig,
    drs_geometric_upper_bound,
    drs_noise_free_series,
    run_drs_simulation,
    run_market_loop,
    sweep_il,
    sweep_retention,
)

__version__ = "0.1.0"
