"""Byte-identity of the column writer beyond the pinned default outputs.

The oracle here is the per-cell writer the CLI used before it wrote by
columns: rows of dicts, each cell through format(value, ".17g") unless it is
a string, and the sweep rows built from one float call of a closed form per
grid point. Each case runs a CLI command on a config other than the default
and compares its file with the oracle's, byte for byte."""

import dataclasses
import decimal
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_amm import csvbytes, il, pool
from powerlaw_amm.cli import SCHEMA_VERSION, build_config, main, write_csv
from powerlaw_amm.sim import (
    DrsSimConfig,
    MarketLoopConfig,
    SweepGridConfig,
    run_drs_simulation,
    run_market_loop,
    sweep_il,
)

SWEEP = {"m_min": 1.5, "m_max": 150.0, "m_points": 2000, "n_values": list(range(1, 9))}


def old_cell(value) -> str:
    if isinstance(value, bytes):  # an ASCII bytes cell reads as its text
        return value.decode("ascii")
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


def old_sweep_rows(command: str, sweep: dict = SWEEP) -> tuple[list, list]:
    m_grid = np.logspace(np.log10(sweep["m_min"]), np.log10(sweep["m_max"]), sweep["m_points"])
    rows = []
    for n in sweep["n_values"]:
        for m in m_grid:
            row = {"m": float(m), "n": int(n)}
            if command == "sweep-retention":
                row["retention_ratio"] = pool.retention_ratio(m, n)
                row["depleted_fraction"] = pool.depleted_reserves(1.0, m, n)
            else:
                row["il_traditional"] = il.il_traditional(m)
                row["il_scaled"] = il.il_proposed_scaled(m, n)
                # 1 - m**(-1/(n+1)) on m itself, right below m = 0.5 too
                row["il_exact"] = 1.0 - float(m) ** (-1.0 / (n + 1))
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


# Grids that stress the CLI's block writer, which formats a column once when
# its blocks (one per entry of n_values) are bit-identical and a column that
# changes at few rows once per run of equal cells.
BLOCK_GRIDS = {
    "duplicate-n": {"m_min": 1.5, "m_max": 150.0, "m_points": 40, "n_values": [4, 4]},
    "unsorted-n": {"m_min": 0.25, "m_max": 4.0, "m_points": 40, "n_values": [3, 1]},
    "n-is-1": {"m_min": 1.5, "m_max": 150.0, "m_points": 40, "n_values": [1]},  # retention all 1.0
    "flat-m": {"m_min": 7.0, "m_max": 7.0, "m_points": 3, "n_values": [1, 2, 8]},
    "one-point": {"m_min": 100.0, "m_max": 100.0, "m_points": 1, "n_values": [2, 5, 2]},
    # il_exact below m = 0.5, where 1 + (m - 1) is not m (0.0 at 1e-17)
    "below-half": {"m_min": 1e-17, "m_max": 1.0, "m_points": 3, "n_values": [4]},
}


@pytest.mark.parametrize("grid", list(BLOCK_GRIDS.values()), ids=list(BLOCK_GRIDS))
@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("command", ["sweep-retention", "sweep-il"])
def test_sweep_on_a_grid_that_stresses_the_blocks(tmp_path, command, output_format, grid):
    out = str(tmp_path / f"sweep.{output_format}")
    run_cli(tmp_path, [command, "--out", out, "--format", output_format], grid)
    config = {**grid, "out": out, "format": output_format}
    columns, rows = old_sweep_rows(command, grid)
    with open(out, "rb") as fh:
        assert fh.read() == OLD_WRITERS[output_format](command, config, columns, rows)


def test_writing_a_sweep_peaks_below_twice_its_file(tmp_path):
    # each block is one string and no per-row strings or whole-file join are
    # held, so the writer's own peak stays near the file's bytes
    grid = build_config(SweepGridConfig, SWEEP)
    table = sweep_il(grid.m_grid(), grid.n_values).reshape(len(grid.n_values), -1)
    path = tmp_path / "sweep.csv"
    write_csv(str(path), "sweep-il", SWEEP, table)  # a first write outside the trace
    tracemalloc.start()
    try:
        write_csv(str(path), "sweep-il", SWEEP, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_blocks_differing_only_in_the_sign_of_zero(tmp_path):
    # -0.0 == 0.0, yet they print "-0" and "0": blocks are compared on bits
    table = np.zeros((2, 2), dtype=[("m", float), ("n", int), ("x", float)])
    table["m"] = [[0.0, 1.0], [-0.0, 1.0]]
    table["n"] = [[1, 1], [2, 2]]
    table["x"] = [[-0.0, -0.0], [0.0, 0.0]]
    path = tmp_path / "zeros.csv"
    write_csv(str(path), "sweep-il", {}, table)
    rows = [dict(zip(table.dtype.names, cells)) for cells in table.ravel().tolist()]
    assert path.read_bytes() == old_csv("sweep-il", {}, ["m", "n", "x"], rows)
    assert path.read_text().splitlines()[-4:] == ["0,1,-0", "1,1,-0", "-0,2,0", "1,2,0"]
    # a run of -0.0 then a run of 0.0, each formatted once
    runs = np.zeros(10, dtype=[("x", float)])
    runs["x"][:5] = -0.0
    write_csv(str(path), "table", {}, runs)
    assert path.read_bytes() == old_csv("table", {}, ["x"], [{"x": x} for x in runs["x"].tolist()])
    assert path.read_text().splitlines()[4:] == ["-0"] * 5 + ["0"] * 5


@pytest.fixture
def formatted(monkeypatch):
    """The values of each call the writer makes to format number cells."""
    calls = []
    number_cells = csvbytes._number_cells

    def spy(values, cells, keep):
        calls.append(values.copy())
        number_cells(values, cells, keep)

    monkeypatch.setattr(csvbytes, "_number_cells", spy)
    return calls


def test_runs_across_chunk_boundaries(tmp_path, formatted):
    # a lone number column is laid out in chunks of _CHUNK_BYTES // _SLOT
    # rows (its slot holds the separator and the text)
    chunk = csvbytes._CHUNK_BYTES // csvbytes._SLOT
    starts, cells = [0, chunk - 1, chunk + 1, 2 * chunk, 3 * chunk + 5], [0.1, -0.0, 0.0, 2.5, 1e300]
    table = np.zeros(3 * chunk + 12, dtype=[("x", float)])
    for start, x in zip(starts, cells):
        table["x"][start:] = x
    assert [piece.tobytes().count(b"\n") for piece in csvbytes.block_rows(table)] == [chunk] * 3 + [12]
    assert [values.tolist() for values in formatted] == [cells]
    path = tmp_path / "runs.csv"
    write_csv(str(path), "table", {}, table)
    assert path.read_bytes() == old_csv("table", {}, ["x"], [{"x": x} for x in table["x"].tolist()])


# The market-loop benchmark workload's config: 20 epochs of ~1000 payouts each.
MARKET_LOOP = {
    "epochs": 20,
    "periods_per_epoch": 100,
    "stream": {"trades_per_period": 100.0, "num_traders": 1000},
}


def test_epochs_csv_formats_each_epoch_id_once(tmp_path, formatted):
    run_cli(tmp_path, ["market-loop", "--seed", "1", "--out", str(tmp_path / "loop.json")], MARKET_LOOP)
    ids = [values.tolist() for values in formatted if values.dtype.kind == "i"]  # epoch is the int column
    assert ids == [list(range(20))]


@pytest.mark.parametrize("command", ["sweep-retention", "sweep-il"])
def test_sweep_formats_each_n_and_each_m_once(tmp_path, formatted, command):
    run_cli(tmp_path, [command, "--out", str(tmp_path / "sweep.csv")], SWEEP)
    assert [values.tolist() for values in formatted if values.dtype.kind == "i"] == [SWEEP["n_values"]]
    m_bits = build_config(SweepGridConfig, SWEEP).m_grid().view(np.uint64)
    cells = np.concatenate([values for values in formatted if values.dtype.kind == "f"])
    assert np.isin(cells.view(np.uint64), m_bits).sum() == SWEEP["m_points"]


def test_drs_formats_each_constant_column_once(tmp_path, formatted):
    data = {"days": 30, "noise_std": 0.0, "target_volume": 1e300}
    run_cli(tmp_path, ["simulate-drs", "--seed", "5", "--out", str(tmp_path / "drs.csv")], data)
    # day and dynamic_volume move every day; static_volume and rho_applied never do
    assert sorted(values.tolist() for values in formatted if values.size == 1) == [[0.4], [1e6]]
    assert sum(values.size for values in formatted) == 30 + 1 + 30 + 1


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
        # the summary goes beside the CSV with the same metadata
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate-drs",
            "config": config,
            "summary": result.summary,
        }
        with open(tmp_path / "drs.summary.json", "rb") as fh:
            assert fh.read() == (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode()
    with open(out, "rb") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_drs_run_with_columns_constant_in_its_block(tmp_path, output_format):
    # noise-free with a target out of reach: the rebate stays at its 0.4 cap
    # and the static arm is flat, so the writer formats those columns once
    data = {"days": 30, "noise_std": 0.0, "target_volume": 1e300}
    out = str(tmp_path / f"drs.{output_format}")
    run_cli(tmp_path, ["simulate-drs", "--seed", "5", "--out", out, "--format", output_format], data)
    cfg = DrsSimConfig(**data, seed=5)
    result = run_drs_simulation(cfg)
    assert set(result.rho_series.tolist()) == {0.4} and len(set(result.static_series.tolist())) == 1
    config = {**dataclasses.asdict(cfg), "out": out, "format": output_format}
    columns = ["day", "static_volume", "dynamic_volume", "rho_applied"]
    series = zip(range(cfg.days), result.static_series, result.dynamic_series, result.rho_series)
    rows = [dict(zip(columns, cells)) for cells in series]
    if output_format == "json":
        want = {**json.loads(old_json("simulate-drs", config, columns, rows)), "summary": result.summary}
        expected = (json.dumps(want, sort_keys=True, indent=2) + "\n").encode()
    else:
        expected = old_csv("simulate-drs", config, columns, rows)
    with open(out, "rb") as fh:
        assert fh.read() == expected


CELLS = {
    "i": st.integers(-(2**63), 2**63 - 1),
    "f": st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e308]), st.floats()),
    # % would be a conversion if a cell ever reached the format string
    "U": st.text("t0123456789%", max_size=4),
    "S": st.text("t0123456789%", max_size=4).map(str.encode),
}
DTYPES = {"i": np.int64, "f": np.float64, "U": "U4", "S": "S4"}


@st.composite
def small_tables(draw):
    """A 2-D structured array of int and float columns, or a 1-D one that
    may hold a str or a bytes column too. A column draws its cells from one
    to three values (a float column from their negations too) and may hold
    them sorted, in runs that in 2-D cross the blocks' boundaries; a 2-D
    column may also repeat its first block in every block or be constant
    within each block, so every path of the writer is taken."""
    two_d = draw(st.booleans())
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5))) if two_d else (draw(st.integers(0, 6)),)
    kinds = draw(st.lists(st.sampled_from("if" if two_d else "ifUS"), min_size=1, max_size=4))
    table = np.zeros(shape, [(f"c{i}", DTYPES[kind]) for i, kind in enumerate(kinds)])
    for name, kind in zip(table.dtype.names, kinds):
        values = draw(st.lists(CELLS[kind], min_size=1, max_size=3))
        if kind == "f":  # so -0.0 meets 0.0: equal, yet printed differently
            values += [-v for v in values]
        cells = draw(st.lists(st.sampled_from(values), min_size=table.size, max_size=table.size))
        column = np.array(cells, dtype=DTYPES[kind]).reshape(shape)
        patterns = ["free", "runs", "same-blocks", "constant-blocks"] if two_d else ["free", "runs"]
        pattern = draw(st.sampled_from(patterns))
        if pattern == "runs":  # np.sort ranks -0.0 and 0.0 as equal, so they may interleave
            column = np.sort(column, axis=None).reshape(shape)
        elif pattern == "same-blocks":
            column[1:] = column[0]
        elif pattern == "constant-blocks":
            column[:] = column[:, :1]
        table[name] = column
    return table


@given(table=small_tables())
@settings(max_examples=300, deadline=None)
def test_small_tables_are_written_as_the_per_cell_writer_wrote_them(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "small_table.csv"
    write_csv(str(path), "table", {"shape": list(table.shape)}, table)
    rows = [dict(zip(table.dtype.names, cells)) for cells in table.ravel().tolist()]
    expected = old_csv("table", {"shape": list(table.shape)}, list(table.dtype.names), rows)
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "stream",
    [
        {"trades_per_period": 20.0, "num_traders": 7},
        {"trades_per_period": 0.0},
        {"num_traders": 1},
        # names up to t4294967295
        {"num_traders": 4294967296, "trades_per_period": 0.3},
    ],
    ids=["traders", "no-trades", "one-trader", "2**32-traders"],
)
def test_market_loop_epochs_csv(tmp_path, stream):
    data = {"epochs": 3, "periods_per_epoch": 4, "stream": stream}
    out = str(tmp_path / "loop.json")
    run_cli(tmp_path, ["market-loop", "--seed", "9", "--out", out], data)
    cfg = build_config(MarketLoopConfig, {**data, "seed": 9})
    result = run_market_loop(cfg)
    rows = [
        {"epoch": er.epoch_id, "trader": f"t{trader}", "reward": reward}
        for er in result.epoch_reports
        for trader, reward in zip(er.traders.tolist(), er.payouts.tolist())
    ]
    assert bool(rows) == bool(cfg.stream.trades_per_period)  # the empty table is the no-trades case
    config = {**dataclasses.asdict(cfg), "out": out, "format": "csv", "ledger_of": out}
    with open(tmp_path / "loop.epochs.csv", "rb") as fh:
        assert fh.read() == old_csv("market-loop", config, ["epoch", "trader", "reward"], rows)


# The number cells: every cell against format(v, ".17g"), over families that
# reach each branch of the writer's exact-digit path and its fallback. The
# values are drawn with Python's float arithmetic, never numpy's dispatched
# kernels, so a family holds the same values on every CPU.
def _powers_of_ten_and_neighbours() -> np.ndarray:
    values = []
    for k in range(-5, 19):
        below = above = float(f"1e{k}")
        values.append(below)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
    return np.array(values + [-v for v in values])


def _half_way_cases() -> np.ndarray:
    # N + 0.25 and N + 0.75 are exact doubles with 18 significant digits for
    # N in [1e15, 2**51): the 17th digit is a tie, which rounds to even
    whole = np.random.default_rng(2).integers(10**15, 2**51, 12000).tolist()
    return np.array([n + 0.25 for n in whole] + [n + 0.75 for n in whole])


def _log_uniform() -> np.ndarray:
    rng = np.random.default_rng(1)
    exponents, signs = rng.uniform(-6.0, 18.0, 200_000).tolist(), rng.choice([-1.0, 1.0], 200_000).tolist()
    return np.array([sign * 10.0**e for sign, e in zip(signs, exponents)])


KERNEL_FAMILIES = {
    "bit-patterns": lambda: np.random.default_rng(0).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
    "log-uniform": _log_uniform,
    "powers-of-ten": _powers_of_ten_and_neighbours,
    "half-way": _half_way_cases,
    "int64": lambda: np.array(
        [-(2**63), -(2**63) + 1, -(2**53) - 1, -1, 0, 1, 2**53 + 1, 10**16 - 1, 10**17 - 1, 10**17, 2**63 - 1],
        dtype=np.int64,
    ),
    "specials": lambda: np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, -np.nan]
    ),
}


# A row's newline is its first cell's separator, so each family is written
# as the first, the middle and the last column, beside two constant columns.
@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("family", list(KERNEL_FAMILIES))
def test_kernel_writes_each_number_as_format_does(tmp_path, family, position):
    values = KERNEL_FAMILIES[family]()
    names = ["a", "b"]
    names.insert(position, "x")
    table = np.zeros(values.shape, [(name, values.dtype) for name in names])
    table["x"], table["a"], table["b"] = values, -1, 2**62
    path = tmp_path / "cells.csv"
    write_csv(str(path), "cells", {}, table)
    got = path.read_bytes().split(b"\n")[4:-1]
    texts = {"a": [b"-1"] * values.size, "b": [b"4.6116860184273879e+18"] * values.size}
    texts["x"] = [format(v, ".17g").encode() for v in values.tolist()]
    want = [b",".join(row) for row in zip(*(texts[name] for name in names))]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong[:5]


def test_kernel_half_way_family_holds_ties():
    digits = [decimal.Decimal(v).as_tuple().digits for v in _half_way_cases().tolist()]
    assert sum(len(d) == 18 and d[-1] == 5 for d in digits) >= 1000


@pytest.mark.parametrize(
    "names", [["trader", "epoch", "reward"], ["epoch", "trader", "reward"], ["epoch", "reward", "trader"]]
)
def test_kernel_writes_strings_as_utf8(tmp_path, names):
    # % would be a conversion if a cell reached a format string
    rows = [
        {"epoch": epoch, "trader": trader, "reward": reward}
        for epoch, trader, reward in [(0, "%s", 1.5), (1, "100%", -0.25), (1, "é%d", 1e-5), (2, "", 1e17)]
    ]
    types = {"epoch": int, "trader": object, "reward": float}
    table = np.array([tuple(row[name] for name in names) for row in rows], [(name, types[name]) for name in names])
    path = tmp_path / "strings.csv"
    write_csv(str(path), "table", {}, table)
    assert path.read_bytes() == old_csv("table", {}, names, rows)
