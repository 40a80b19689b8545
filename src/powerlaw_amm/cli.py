"""Command-line surface with bit-stable tabular output.

Subcommands and the flags each reads:

- quote: --x, --y, --n, --buy-x or --sell-x, --in, --fee; prints to stdout.
- sweep-retention, sweep-il: --config, --out, --format csv|json.
- simulate-drs: --config, --seed, --out, --format csv|json.
- market-loop: --config, --seed, --out, --format. It always writes JSON plus
  an epochs CSV; --format is only echoed into the resolved config.

A config file holds one JSON object, built into the command's config
dataclass by build_config. Unknown keys are rejected at every nesting level;
every other rule (integers for integer fields, finite numbers for number
fields, ranges) belongs to the dataclass, and a broken one is reported with
the dotted path of the key. A float field holds float(value), so an integer
literal there runs and writes exactly as its float twin. Every output file
embeds a schema version, the fully-resolved configuration, and the seed, so
a run can be reproduced from its own output. CSV numbers are serialized
with %.17g (17 significant digits) and JSON numbers as Python's shortest
round-trip repr (json.dump); both reparse to the same IEEE doubles, and
rerunning a command with the same config and seed yields byte-identical
files.

Every table is a numpy structured array (the sweeps, the simulate-drs
series, the market-loop epochs), and every CSV is written as bytes by one
writer, csvbytes.block_rows, with no Python string per cell (see its
docstring for how a cell gets the bytes of %.17g). The market-loop epochs
table is built from the EpochReport arrays: its epoch column holds the int
ids, and its trader column bytes, formatted once per distinct trader id.

quote loads neither numpy nor sim: the pool API is plain Python. The other
commands reach sim through run_drs_simulation, run_market_loop,
sweep_retention and sweep_il, which import it, and numpy with it, when
called; write_csv imports the writer when it writes.

Exit codes: 0 success, 2 usage or validation error, 1 runtime error (a file
that cannot be read or written, or an array too large to allocate).
The POWERLAW_AMM_OUT_DIR environment variable overrides the default output
directory (used when --out is not given).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

from .pool import Pool, slippage_first_order, swap_x_for_y, swap_y_for_x

SCHEMA_VERSION = 1

OUT_DIR_ENV = "POWERLAW_AMM_OUT_DIR"


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def build_config(cls, data, where: str = ""):
    """Build dataclass cls from a JSON object, raising ConfigError on bad input.

    Unknown keys, and missing keys of fields without a default, are rejected
    at every level, and a dataclass field is built from a nested JSON object
    the same way. Every other rule is the dataclass's own; its error is
    reported under the dotted path of the object (where) it came from.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    place = f" in {where}" if where else ""
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown config keys{place}: {sorted(unknown)}")
    no_default = dataclasses.MISSING
    missing = [
        f.name
        for f in fields
        if f.name not in data and f.default is no_default and f.default_factory is no_default
    ]
    if missing:
        raise ConfigError(f"missing config keys{place}: {sorted(missing)}")
    types = {f.name: f.type for f in fields}
    values = {}
    for key, value in data.items():
        if dataclasses.is_dataclass(types[key]):
            value = build_config(types[key], value, f"{where}.{key}" if where else key)
        values[key] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {where + '.' if where else ''}{exc}") from exc


# sim's entry points, imported when first called so that quote loads neither
# sim nor numpy. They are module globals only so that the benchmark's tracer
# (bench/tracing.py) can rebind them to timing wrappers; tracing by
# profiling (ROADMAP item 10) would let the commands call sim directly.
def run_drs_simulation(cfg):
    from .sim import run_drs_simulation

    return run_drs_simulation(cfg)


def run_market_loop(cfg):
    from .sim import run_market_loop

    return run_market_loop(cfg)


def sweep_retention(m_grid, n_values):
    from .sim import sweep_retention

    return sweep_retention(m_grid, n_values)


def sweep_il(m_grid, n_values):
    from .sim import sweep_il

    return sweep_il(m_grid, n_values)


def resolve_out(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), default_name)


def write_csv(path: str, command: str, config: dict, table: "np.ndarray"):
    """Write a 1-D or 2-D structured array as a CSV with the schema version,
    command and config as "# " lines above the header. The rows are laid
    out by csvbytes.block_rows; a 1-D table is one block. Every row is
    formatted before the file is opened, so a table that cannot be
    formatted leaves no file, and the file is written as bytes."""
    from .csvbytes import block_rows

    header = [
        f"# schema_version: {SCHEMA_VERSION}",
        f"# command: {command}",
        "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(table.dtype.names),
    ]
    rows = block_rows(table)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.writelines(rows)


def write_json(path: str, payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_table(path, output_format, command, config, table, summary=None):
    """Write a structured array as a CSV (see write_csv) or as one JSON
    object with its rows in row-major order; return the paths written.

    A summary goes into the JSON object, or beside a CSV as
    <root>.summary.json.
    """
    record = {"command": command, "config": config}
    if summary is not None:
        record["summary"] = summary
    if output_format == "json":
        write_json(path, {**record, "columns": list(table.dtype.names), "rows": table.ravel().tolist()})
        return [path]
    write_csv(path, command, config, table)
    if summary is None:
        return [path]
    sidecar = os.path.splitext(path)[0] + ".summary.json"
    write_json(sidecar, record)
    return [path, sidecar]


def _parse_cell(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def read_table(path: str):
    """Reparse a CSV written by write_csv into (meta, rows of dicts): a cell
    is a float where it parses as one, else its text (a trader name)."""
    meta = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append({c: _parse_cell(v) for c, v in zip(columns, line.split(","))})
    if "config" in meta:
        meta["config"] = json.loads(meta["config"])
    return meta, rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_quote(args) -> int:
    pool = Pool(args.x, args.y, args.n)
    if args.buy_x:
        _new_pool, res = swap_y_for_x(pool, args.amount_in, args.fee)
        delta_x = -res.amount_out
    else:
        _new_pool, res = swap_x_for_y(pool, args.amount_in, args.fee)
        delta_x = args.amount_in - res.fee_paid
    first_order = slippage_first_order(pool, delta_x)
    for name, value in [
        ("amount_out", res.amount_out),
        ("fee_paid", res.fee_paid),
        ("price_before", res.price_before),
        ("price_after", res.price_after),
        ("slippage_exact", res.slippage_exact),
        ("slippage_first_order", first_order),
    ]:
        print(f"{name} = {value:.17g}")
    return 0


def _sweep_grid(cfg: dict):
    """(m grid, n values, resolved config) of a sweep config object."""
    from .sim import SweepGridConfig

    grid = build_config(SweepGridConfig, cfg)
    return grid.m_grid(), grid.n_values, dataclasses.asdict(grid)


def _run_sweep(args, command: str, runner) -> int:
    m_grid, n_values, resolved = _sweep_grid(load_config_file(args.config))
    table = runner(m_grid, n_values)
    out = resolve_out(args, f"{command.replace('-', '_')}.{args.format}")
    config = {**resolved, "out": out, "format": args.format}
    # one block of rows per entry of n_values (duplicates included)
    blocks = table.reshape(len(n_values), m_grid.size)
    write_table(out, args.format, command, config, blocks)
    print(f"wrote {len(table)} rows to {out}")
    return 0


def cmd_sweep_retention(args) -> int:
    return _run_sweep(args, "sweep-retention", sweep_retention)


def cmd_sweep_il(args) -> int:
    return _run_sweep(args, "sweep-il", sweep_il)


def _seeded_config(args) -> dict:
    data = load_config_file(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    return data


def cmd_simulate_drs(args) -> int:
    import numpy as np

    from .sim import DrsSimConfig

    cfg = build_config(DrsSimConfig, _seeded_config(args))
    result = run_drs_simulation(cfg)
    out = resolve_out(args, f"drs.{args.format}")
    config = {**dataclasses.asdict(cfg), "out": out, "format": args.format}
    table = np.rec.fromarrays(
        [np.arange(cfg.days), result.static_series, result.dynamic_series, result.rho_series],
        names=["day", "static_volume", "dynamic_volume", "rho_applied"],
    )
    paths = write_table(out, args.format, "simulate-drs", config, table, summary=result.summary)
    print("wrote " + " and ".join(paths))
    return 0


def _epochs_table(reports) -> "np.ndarray":
    """The (epoch, trader, reward) rows of every payout, epoch by epoch in
    payout order. The epoch column holds each report's int id; the trader
    column holds the bytes of "t{id}", formatted once per distinct trader
    id and gathered."""
    import numpy as np

    rewards = np.concatenate([er.payouts for er in reports])
    ids, which = np.unique(np.concatenate([er.traders for er in reports]), return_inverse=True)
    names = np.array([b"t%d" % i for i in ids.tolist()], dtype="S")
    table = np.empty(rewards.size, dtype=[("epoch", int), ("trader", names.dtype), ("reward", float)])
    table["epoch"] = np.repeat([er.epoch_id for er in reports], [er.payouts.size for er in reports])
    table["trader"] = names[which]
    table["reward"] = rewards
    return table


def cmd_market_loop(args) -> int:
    from .fees import _fold
    from .sim import MarketLoopConfig

    cfg = build_config(MarketLoopConfig, _seeded_config(args))
    result = run_market_loop(cfg)
    out = resolve_out(args, "market_loop.json")
    config = {**dataclasses.asdict(cfg), "out": out, "format": args.format}
    metrics = {
        "total_volume": result.total_volume,
        "total_fees": result.total_fees,
        "lp_total": result.lp_total,
        "rebate_total": result.rebate_total,
        "protocol_total": result.protocol_total,
        "protocol_net": result.protocol_net,
        "rewards_distributed": result.rewards_distributed,
        "reward_carry": result.reward_carry,
        "rejected_trades": result.rejected_trades,
        "executed_trades": result.executed_trades,
        "final_x_reserve": result.final_pool.x_reserve,
        "final_y_reserve": result.final_pool.y_reserve,
        "fee_bucket_sum": result.lp_total + result.rebate_total + result.protocol_total,
        "epochs": [
            {
                "epoch_id": er.epoch_id,
                "fees": er.fees,
                "volume": er.volume,
                "reward_pool": er.reward_pool,
                "carried": er.carried,
                "payout_total": _fold(0.0, er.payouts) if er.payouts.size else 0,
            }
            for er in result.epoch_reports
        ],
    }
    write_json(out, {"command": "market-loop", "config": config, "metrics": metrics})
    table = _epochs_table(result.epoch_reports)
    epochs_csv = os.path.splitext(out)[0] + ".epochs.csv"
    ledger_config = {**config, "ledger_of": out}
    write_csv(epochs_csv, "market-loop", ledger_config, table)
    print(f"wrote {out} and {epochs_csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and each subcommand's func looks up the functions it calls when it
    runs, so a name rebound in this module after the first build is the one
    called."""
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", help="JSON config file; unknown keys are rejected")
    files.add_argument("--out", help="output file path")
    files.add_argument("--format", choices=("csv", "json"), default="csv")
    seeded = argparse.ArgumentParser(add_help=False, parents=[files])
    seeded.add_argument("--seed", type=int, help="seed override")

    parser = argparse.ArgumentParser(
        prog="powerlaw-amm",
        description="Power-law AMM analytics and seeded market simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quote", help="price a single swap")
    q.add_argument("--x", type=float, required=True, help="X (volatile) reserve")
    q.add_argument("--y", type=float, required=True, help="Y (stablecoin) reserve")
    q.add_argument("--n", type=int, default=1, help="pool exponent")
    side = q.add_mutually_exclusive_group(required=True)
    side.add_argument("--buy-x", action="store_true", help="spend Y to buy X")
    side.add_argument("--sell-x", action="store_true", help="sell X for Y")
    q.add_argument("--in", dest="amount_in", type=float, required=True, help="input amount")
    q.add_argument("--fee", type=float, default=0.0, help="fee rate in [0, 1)")
    q.set_defaults(func=cmd_quote)

    for name, parent, func, text in (
        ("sweep-retention", files, cmd_sweep_retention, "retention-ratio grid"),
        ("sweep-il", files, cmd_sweep_il, "impermanent-loss grid"),
        ("simulate-drs", seeded, cmd_simulate_drs, "static vs dynamic rebate volumes"),
        ("market-loop", seeded, cmd_market_loop, "integrated pool + fee market loop"),
    ):
        sub.add_parser(name, parents=[parent], help=text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and PoolError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
