"""Bit-identity: the five CLI commands at their default seed and config
write exactly the outputs whose SHA-256 digests bench/golden.py pins."""

import math

from powerlaw_amm import cli, fees
from powerlaw_amm.cli import main


def test_default_outputs_match_pinned_digests(tmp_path, monkeypatch, load_bench_module):
    # the commands write relative --out names, which the digests include
    monkeypatch.chdir(tmp_path)
    assert load_bench_module("golden").check(main) == []


def compensated_sum(values):
    """The builtin sum as Python 3.12 and later compute it: floats are added
    with Neumaier's compensation, which 3.10 and 3.11 do not apply."""
    items = list(values)
    if not items:
        return 0
    total, compensation = 0.0, 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_outputs_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch, load_bench_module):
    # settlement and the market-loop payout totals must not call the builtin
    # sum, whose float rounding changed in Python 3.12
    assert compensated_sum([1e16, 1.0, 1.0]) == 1.0000000000000002e16 != (1e16 + 1.0) + 1.0
    for module in (fees, cli):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.chdir(tmp_path)
    assert load_bench_module("golden").check(main) == []
