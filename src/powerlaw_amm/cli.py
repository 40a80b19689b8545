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
a run can be reproduced from its own output. Numbers are serialized with 17 significant digits, which
round-trips IEEE doubles exactly; rerunning a command with the same config
and seed yields byte-identical files.

Every table is a numpy structured array (the sweeps, the simulate-drs
series, the market-loop epochs), and every CSV is written as bytes by one
writer, with no Python string per cell. A number cell holds the bytes of
%.17g. Where %.17g prints fixed notation (finite |x| in [1e-4, 1e17)),
numpy computes them: with k the decimal exponent, the 17 digits are
|x|·10**(16-k) rounded half to even, and that product is exact as a sum of
two doubles (Dekker's TwoProduct), so correctly rounded IEEE arithmetic
yields the digits %.17g prints, on any CPU (see _number_cells). %.17g
itself formats every other cell (zeros, subnormals, exponent notation, inf,
nan), an int cell is formatted as the float %.17g converts it to, and a
string cell is bytes (a str column UTF-8 encoded once, into a numpy bytes
array), so it cannot end in NUL, which numpy's bytes arrays drop. The
market-loop epochs table is built from the EpochReport arrays: its trader
column holds b"t{id}", formatted once per distinct id. A sweep is handed
to the writer as one block of m-grid rows per entry of n_values, a 1-D
table as one block, and repeated columns are formatted once: a column
whose blocks are bit-identical (m, and il_traditional in sweep-il) once
for all blocks, a column constant within each block (n, or a DRS series
that never moves) once per block.

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

import numpy as np

from . import sim
from .fees import _fold
from .pool import Pool, slippage_first_order, swap_x_for_y, swap_y_for_x
from .sim import (
    MarketLoopConfig,
    run_drs_simulation,
    run_market_loop,
    sweep_il,
    sweep_retention,
)

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


def resolve_out(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), default_name)


# ---------------------------------------------------------------------------
# CSV cells as bytes
# ---------------------------------------------------------------------------

# %.17g prints a finite x in fixed notation when its decimal exponent k is in
# [-4, 16], which holds for |x| in [1e-4, 1e17): the double 1e-4 lies above
# 10**-4 and the double below it under, and 1e17 is exact. 10**p is an exact
# double for 0 <= p <= 22, so |x|·10**(16-k) is exactly hi + lo (Dekker's
# TwoProduct).
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter


def _halves(v):
    """(hi, lo): v split exactly into two doubles of at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**p) for p in range(21)])
_POW10_HI, _POW10_LO = _halves(_POW10)
# for doubles of one sign, the order of the bit patterns is the order of the values
_FIXED_BITS = np.array([1e-4, 1e17]).view(np.uint64)
_MAGNITUDE = np.uint64(2**63 - 1)
_ONE_BITS = np.array(1.0).view(np.uint64)


def _scaled(a, k):
    """(hi, lo) with hi = fl(a·10**(16-k)) and hi + lo equal to the product exactly."""
    p = 16 - k
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _below(hi, lo):
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0))


def _above(hi, lo):
    return (hi > 1e17) | ((hi == 1e17) & (lo >= 0))


# A number cell is a slot of 11 words, 44 bytes, that holds every byte its
# fixed notation can use: " -0.000", the 17 digits d0..d16, then ".   " and
# d1..d16 again. A row of _KEEP, picked by (sign, k, significant digits),
# marks the bytes the text uses: "-" for a negative x; for k >= 0 the digits
# d0..dk, then, while digits remain, "." and the rest from the second copy;
# for k < 0 "0.", -k-1 zeros and the significant digits.
_SLOT = 44
_SIGN_ZERO_POINT = np.frombuffer(b" -0.", np.uint32)[0]
_POINT = np.frombuffer(b".   ", np.uint32)[0]
_ZEROS_LEAD = np.array([b"000%d" % d for d in range(10)]).view(np.uint32)  # "000" + d0
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_BYTES = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"), axis=-1).reshape(-1, 4)
_QUAD = _QUAD_BYTES.view(np.uint32)[:, 0]  # the four digits of 0..9999 as one word
_ZERO = (_QUAD_BYTES == ord("0")).view(np.uint8)
_TRAILING_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0])))


def _keep_table() -> np.ndarray:
    """_KEEP indexed by (negative, k + 4, significant digits), flattened."""
    p = np.arange(_SLOT)
    negative = np.arange(2)[:, None, None, None]
    k = np.arange(-4, 17)[:, None, None]
    digits = np.arange(18)[:, None]
    fraction = (digits > k + 1) & ((p == 24) | ((28 + k <= p) & (p < 27 + digits)))
    fixed_point = (k >= 0) & (((7 <= p) & (p < 8 + k)) | fraction)
    below_one = (k < 0) & (((2 <= p) & (p < 3 - k)) | ((7 <= p) & (p < 7 + digits)))
    return ((negative == 1) & (p == 1) | fixed_point | below_one).reshape(-1, _SLOT)


_KEEP = _keep_table()


def _text_cells(texts: np.ndarray, lengths):
    """(bytes, keep) of a 1-D numpy bytes (S) array: row i of the uint8
    cells is texts[i] padded with NULs to the itemsize, and keep marks its
    first lengths[i] bytes."""
    cells = np.ascontiguousarray(texts).view(np.uint8).reshape(texts.size, texts.itemsize)
    return cells, np.arange(texts.itemsize) < np.asarray(lengths, dtype=np.intp)[:, None]


def _formatted_numbers(values: np.ndarray):
    """(cells, keep) of a column of numbers, as _number_cells fills them."""
    cells, keep = np.empty((values.size, _SLOT), np.uint8), np.empty((values.size, _SLOT), bool)
    _number_cells(values, cells, keep)
    return cells, keep


def _fixed_digits(x: np.ndarray):
    """(fixed, k, digits) of a float array: where fixed is True, %.17g
    prints x in fixed notation with decimal exponent k, and its 17
    significant digits are those of the int64 digits, in [1e16, 1e17).

    k = floor(log10|x|) is only an estimate, moved by one where the exact
    product |x|·10**(16-k) = hi + lo falls outside [1e16, 1e17). In that
    range hi is an even integer, so hi + rint(lo) rounds half to even as
    %.17g does. No double rounds up to 10**17 there: the nearest one below
    each power of ten from 1e-3 to 1e17 lies more than 8e-17 below it,
    relatively, and a carry would need 5e-18. Only correctly rounded IEEE
    operations decide the digits, so they do not depend on how np.log10
    rounds.
    """
    magnitude = x.view(np.uint64) & _MAGNITUDE
    fixed = (magnitude >= _FIXED_BITS[0]) & (magnitude < _FIXED_BITS[1])
    a = np.where(fixed, magnitude, _ONE_BITS).view(np.float64)  # other cells take 1.0
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(a, k)
    step = _above(hi, lo).astype(np.intp) - _below(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:  # near a power of ten
        k[moved] = np.clip(k[moved] + step[moved], -4, 16)
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
        missed = moved[_below(hi[moved], lo[moved]) | _above(hi[moved], lo[moved])]
        fixed[missed] = False
        hi[missed], lo[missed] = 1e16, 0.0
    return fixed, k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _number_cells(values: np.ndarray, cells: np.ndarray, keep: np.ndarray):
    """Write the %.17g text of each of values into the same row of cells
    (n, _SLOT) uint8, and mark its bytes in that row of keep (n, _SLOT) bool.

    An int column is formatted as float, which is how %.17g converts an int.
    A cell in fixed notation gets its digits from _fixed_digits; every other
    cell (zeros, subnormals, |x| < 1e-4 or >= 1e17, inf, nan, and any cell
    the exact path leaves over) is formatted by %.17g itself.
    """
    x = values.astype(float, copy=False)
    fixed, k, digits = _fixed_digits(x)
    lead, tail = np.divmod(digits, 10**16)
    high, low = np.divmod(tail, 10**8)
    quads = np.empty((x.size, 4), np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10**4)
    words = cells.view(np.uint32)
    words[:, 0] = _SIGN_ZERO_POINT
    words[:, 1] = _ZEROS_LEAD.take(lead)
    words[:, 2:6] = words[:, 7:11] = _QUAD.take(quads)
    words[:, 6] = _POINT
    zeros, last = _TRAILING_ZEROS.take(quads), quads == 0  # per quad, of the 16 digits after d0
    zeros = zeros[:, 3] + last[:, 3] * (zeros[:, 2] + last[:, 2] * (zeros[:, 1] + last[:, 1] * zeros[:, 0]))
    keep[:] = _KEEP.take((np.signbit(x) * 21 + k + 4) * 18 + 17 - zeros, axis=0)
    rest = np.flatnonzero(~fixed)
    if rest.size:
        texts = [b"%.17g" % v for v in x[rest].tolist()]
        cells[rest], keep[rest] = _text_cells(np.array(texts, f"S{_SLOT}"), [len(t) for t in texts])


_CHUNK_BYTES = 1 << 18  # slot bytes laid out at once, which bounds the writer's buffers


def _block_rows(table: np.ndarray) -> list[np.ndarray]:
    """The CSV rows of a 2-D structured array of 8-byte numbers and strings
    (a bytes column, a numpy str column or an object column of str), read as
    blocks of rows (a sweep: one block of m-grid rows per exponent), as a
    list of uint8 arrays whose concatenation is the rows' bytes. Numbers get
    the text of %.17g (see _number_cells), strings their bytes: a str column
    is UTF-8 encoded into one bytes array, once. A string cell cannot end in
    NUL, which numpy's bytes arrays drop.

    The rows are laid out a chunk at a time: each column's cells go into a
    (rows, columns, width) buffer, a separator after each cell, and one
    boolean compress keeps the bytes the cells use. A string column is laid
    out once, as its bytes array's uint8 view. A number column whose blocks
    are bit-identical is formatted for the first block and its cells reused
    in every block; one constant within each block (n) is formatted once per
    block. Cells are compared on their bits, never with ==, because -0.0 and
    0.0 print differently.
    """
    blocks, size = table.shape
    names = table.dtype.names
    reused = {}  # column name -> (cells, keep, index of each row's cell given the row numbers)
    values = {}  # column name -> its cells in row order, formatted a chunk at a time
    for name in names:
        column = table[name]
        if column.dtype.kind in "OUS":
            texts = column.reshape(-1)
            if texts.dtype.kind != "S":
                texts = np.array([v.encode() for v in texts.tolist()], dtype="S")
            # numpy drops a bytes cell's trailing NULs, so str_len is its length
            reused[name] = (*_text_cells(texts, np.strings.str_len(texts)), lambda rows: rows)
            continue
        bits = column.view(np.uint64)
        if size and blocks > 1 and (bits == bits[0]).all():
            reused[name] = (*_formatted_numbers(column[0]), lambda rows: rows % size)
        elif size and (bits == bits[:, :1]).all():
            reused[name] = (*_formatted_numbers(column[:, 0]), lambda rows: rows // size)
        else:
            values[name] = column.reshape(-1)
    # a width of whole words, so that a number slot can be written as words
    width = -(-(max([_SLOT, *(cells.shape[1] for cells, _, _ in reused.values())]) + 1) // 4) * 4
    chunk = max(1, min(blocks * size, _CHUNK_BYTES // (len(names) * width)))
    buffer = np.empty((chunk, len(names), width), np.uint8)
    keep = np.zeros(buffer.shape, bool)  # bytes past a cell's slot stay False
    buffer[:, :, -1] = np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8)
    keep[:, :, -1] = True
    texts = []
    for start in range(0, blocks * size, chunk):
        rows = np.arange(start, min(start + chunk, blocks * size))
        out, out_keep = buffer[: rows.size], keep[: rows.size]
        for j, name in enumerate(names):
            if name in reused:
                cells, kept, index = reused[name]
                picked, w = index(rows), cells.shape[1]
                out[:, j, :w], out_keep[:, j, :w] = cells.take(picked, axis=0), kept.take(picked, axis=0)
            else:
                _number_cells(values[name][start : start + rows.size], out[:, j, :_SLOT], out_keep[:, j, :_SLOT])
        texts.append(out[out_keep])
    return texts


def write_csv(path: str, command: str, config: dict, table: np.ndarray):
    """Write a 1-D or 2-D structured array as a CSV with the schema version,
    command and config as "# " lines above the header. The rows are laid
    out by _block_rows; a 1-D table is one block. Every row is formatted
    before the file is opened, so a table that cannot be formatted leaves
    no file, and the file is written as bytes."""
    header = [
        f"# schema_version: {SCHEMA_VERSION}",
        f"# command: {command}",
        "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(table.dtype.names),
    ]
    rows = _block_rows(np.atleast_2d(table))
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
    """Reparse a CSV written by write_csv into (meta, rows-of-floats)."""
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
                rows.append(
                    {c: _parse_cell(v) for c, v in zip(columns, line.split(","))}
                )
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
    grid = build_config(sim.SweepGridConfig, cfg)
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
    # Read through sim: the benchmark's tracer rebinds names imported into
    # this module to timing wrappers, which are not dataclasses.
    cfg = build_config(sim.DrsSimConfig, _seeded_config(args))
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


def _epochs_table(reports) -> np.ndarray:
    """The (epoch, trader, reward) rows of every payout, epoch by epoch in
    payout order. A trader cell is the bytes of "t{id}", formatted once per
    distinct id and gathered."""
    rewards = np.concatenate([er.payouts for er in reports])
    ids, which = np.unique(np.concatenate([er.traders for er in reports]), return_inverse=True)
    names = np.array([b"t%d" % i for i in ids.tolist()], dtype="S")
    table = np.empty(rewards.size, dtype=[("epoch", int), ("trader", names.dtype), ("reward", float)])
    table["epoch"] = np.repeat([er.epoch_id for er in reports], [er.payouts.size for er in reports])
    table["trader"] = names[which]
    table["reward"] = rewards
    return table


def cmd_market_loop(args) -> int:
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
