"""Power-law AMM pool math, impermanent-loss analytics, dynamic fee rebates,
and seeded market simulations.

The exported names are resolved on first use (PEP 562): the package imports
no submodule itself, and powerlaw_amm.Pool loads the pool module only. The
pool API does not import numpy; a name from il, fees or sim loads that
module, and numpy with it. `from powerlaw_amm import *` binds every name
in __all__, the four submodules among them, and so loads every submodule.
"""

import importlib

# each submodule (an attribute of the package too) and the names it exports
_EXPORTED = {
    "pool": (
        "Pool",
        "PoolError",
        "SwapResult",
        "TradeTooLarge",
        "depleted_reserves",
        "min_arbitrage_size",
        "price_elasticity",
        "reserves_at_price",
        "retention_ratio",
        "slippage_first_order",
        "slippage_ratio",
        "spot_price",
        "swap_x_for_y",
        "swap_y_for_x",
    ),
    "il": (
        "il_hold",
        "il_improvement_factor",
        "il_powerlaw_exact",
        "il_powerlaw_taylor",
        "il_proposed_scaled",
        "il_traditional",
    ),
    "fees": (
        "EpochLedger",
        "FeeSchedule",
        "FeeSplit",
        "RebateContext",
        "RegimeParams",
        "classify_regime",
        "compute_fee",
        "dynamic_rebate",
        "settle_epoch",
        "split_fee",
    ),
    "sim": (
        "DrsSimConfig",
        "DrsSimResult",
        "MarketLoopConfig",
        "MarketLoopResult",
        "SweepGridConfig",
        "TradeStreamConfig",
        "drs_geometric_upper_bound",
        "drs_noise_free_series",
        "run_drs_simulation",
        "run_market_loop",
        "sweep_il",
        "sweep_retention",
    ),
}
# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTED.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTED]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTED:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
