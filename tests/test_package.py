"""The package namespace: every name powerlaw_amm has exported since it
first listed them resolves, on first use, to its submodule's object."""

import importlib

import pytest

import powerlaw_amm

EXPORTS = {
    "pool": [
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
    ],
    "il": [
        "il_hold",
        "il_improvement_factor",
        "il_powerlaw_exact",
        "il_powerlaw_taylor",
        "il_proposed_scaled",
        "il_traditional",
    ],
    "fees": [
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
    ],
    "sim": [
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
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_export_list_is_complete():
    assert len(NAMES) == 42
    assert sorted(powerlaw_amm.__all__) == sorted([*EXPORTS, *(name for _, name in NAMES)])


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_submodules_object(module, name):
    source = importlib.import_module(f"powerlaw_amm.{module}")
    assert getattr(powerlaw_amm, name) is getattr(source, name)
    assert name in dir(powerlaw_amm)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from powerlaw_amm import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"powerlaw_amm.{module}"), name)
    # the eagerly imported submodules were package attributes, so * bound them too
    for module in EXPORTS:
        assert namespace[module] is importlib.import_module(f"powerlaw_amm.{module}")


def test_submodules_stay_importable_from_the_package():
    from powerlaw_amm import il, pool

    assert il is importlib.import_module("powerlaw_amm.il")
    assert pool is importlib.import_module("powerlaw_amm.pool")
    for module in EXPORTS:
        assert getattr(powerlaw_amm, module) is importlib.import_module(f"powerlaw_amm.{module}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        powerlaw_amm.cli_main
    assert not hasattr(powerlaw_amm, "np")
