"""Byte-identity of the column writer beyond the pinned default outputs.

The oracle here is the per-cell writer the CLI used before it wrote by
columns: rows of dicts, each cell through format(value, ".17g") unless it is
a string, and the sweep rows built from one float call of a closed form per
grid point. Each case runs a CLI command on a config other than the default
and compares its file with the oracle's, byte for byte."""

import dataclasses
import json

import numpy as np
import pytest

from powerlaw_amm import il, pool
from powerlaw_amm.cli import SCHEMA_VERSION, build_config, main
from powerlaw_amm.sim import DrsSimConfig, MarketLoopConfig, run_drs_simulation, run_market_loop

SWEEP = {"m_min": 1.5, "m_max": 150.0, "m_points": 2000, "n_values": list(range(1, 9))}


def old_cell(value) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


def old_csv(command: str, config: dict, columns: list, rows: list) -> bytes:
    lines = [
        f"# schema_version: {SCHEMA_VERSION}",
        f"# command: {command}",
        "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(old_cell(row[c]) for c in columns))
    return ("\n".join(lines) + "\n").encode()


def old_json(command: str, config: dict, columns: list, rows: list) -> bytes:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "columns": columns,
        "rows": [[row[c] for c in columns] for row in rows],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


OLD_WRITERS = {"csv": old_csv, "json": old_json}


def old_sweep_rows(command: str) -> tuple[list, list]:
    m_grid = np.logspace(np.log10(SWEEP["m_min"]), np.log10(SWEEP["m_max"]), SWEEP["m_points"])
    rows = []
    for n in SWEEP["n_values"]:
        for m in m_grid:
            row = {"m": float(m), "n": int(n)}
            if command == "sweep-retention":
                row["retention_ratio"] = pool.retention_ratio(m, n)
                row["depleted_fraction"] = pool.depleted_reserves(1.0, m, n)
            else:
                row["il_traditional"] = il.il_traditional(m)
                row["il_scaled"] = il.il_proposed_scaled(m, n)
                row["il_exact"] = il.il_powerlaw_exact(m - 1.0, n)
            rows.append(row)
    return list(rows[0]), rows


def run_cli(tmp_path, argv, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([*argv, "--config", str(path)]) == 0


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("command", ["sweep-retention", "sweep-il"])
def test_sweep_on_a_non_default_grid(tmp_path, command, output_format):
    out = str(tmp_path / f"sweep.{output_format}")
    run_cli(tmp_path, [command, "--out", out, "--format", output_format], SWEEP)
    config = {**SWEEP, "out": out, "format": output_format}
    columns, rows = old_sweep_rows(command)
    with open(out, "rb") as fh:
        assert fh.read() == OLD_WRITERS[output_format](command, config, columns, rows)


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_thirty_day_drs_run(tmp_path, output_format):
    out = str(tmp_path / f"drs.{output_format}")
    run_cli(tmp_path, ["simulate-drs", "--seed", "5", "--out", out, "--format", output_format], {"days": 30})
    cfg = DrsSimConfig(days=30, seed=5)
    result = run_drs_simulation(cfg)
    config = {**dataclasses.asdict(cfg), "out": out, "format": output_format}
    columns = ["day", "static_volume", "dynamic_volume", "rho_applied"]
    rows = [
        {
            "day": t,
            "static_volume": result.static_series[t],
            "dynamic_volume": result.dynamic_series[t],
            "rho_applied": result.rho_series[t],
        }
        for t in range(cfg.days)
    ]
    if output_format == "json":
        want = json.loads(old_json("simulate-drs", config, columns, rows))
        want["summary"] = result.summary
        expected = (json.dumps(want, sort_keys=True, indent=2) + "\n").encode()
    else:
        expected = old_csv("simulate-drs", config, columns, rows)
    with open(out, "rb") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize(
    "stream",
    [{"trades_per_period": 20.0, "num_traders": 7}, {"trades_per_period": 0.0}],
    ids=["traders", "no-trades"],
)
def test_market_loop_epochs_csv(tmp_path, stream):
    data = {"epochs": 3, "periods_per_epoch": 4, "stream": stream}
    out = str(tmp_path / "loop.json")
    run_cli(tmp_path, ["market-loop", "--seed", "9", "--out", out], data)
    cfg = build_config(MarketLoopConfig, {**data, "seed": 9})
    result = run_market_loop(cfg)
    rows = [
        {"epoch": er.epoch_id, "trader": trader, "reward": reward}
        for er in result.epoch_reports
        for trader, reward in er.payouts
    ]
    assert bool(rows) == bool(stream["trades_per_period"])  # the empty table is the no-trades case
    config = {**dataclasses.asdict(cfg), "out": out, "format": "csv", "ledger_of": out}
    with open(tmp_path / "loop.epochs.csv", "rb") as fh:
        assert fh.read() == old_csv("market-loop", config, ["epoch", "trader", "reward"], rows)
