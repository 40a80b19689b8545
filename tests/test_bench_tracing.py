"""The benchmark tracer (bench/tracing.py) still finds every program name it
rebinds, so a refactor that deletes one fails here rather than in a traced
benchmark run."""

import json

from powerlaw_amm import cli, il, pool, sim

# Names the tracer rebinds if present (it looks them up with a default) and
# the program no longer has.
KNOWN_MISSING = {"powerlaw_amm.cli._build_loop_config", "powerlaw_amm.cli.DrsSimConfig"}

# The sweep grid: both sweeps run over it.
SWEEP = {"m_points": 5, "n_values": [1, 4]}

# A DRS run one replication past a full block, so it crosses a block boundary.
DRS_DAYS = 100
DRS_REPLICATIONS = sim.DRS_BLOCK_CELLS // DRS_DAYS + 1


def test_traced_commands_run_and_find_their_names(tmp_path, monkeypatch, load_bench_module):
    tracing = load_bench_module("tracing")
    monkeypatch.chdir(tmp_path)
    configs = {
        "sweep.json": SWEEP,
        "drs.json": {"days": DRS_DAYS, "replications": DRS_REPLICATIONS},
        "loop.json": {"epochs": 2, "periods_per_epoch": 3},
    }
    for name, data in configs.items():
        (tmp_path / name).write_text(json.dumps(data))
    commands = [
        ["quote", "--x", "100", "--y", "100", "--n", "4", "--buy-x", "--in", "10"],
        ["sweep-retention", "--config", "sweep.json", "--out", "ret.csv"],
        ["sweep-il", "--config", "sweep.json", "--out", "il.csv"],
        ["simulate-drs", "--config", "drs.json", "--seed", "1", "--out", "drs.csv"],
        ["market-loop", "--config", "loop.json", "--seed", "1", "--out", "loop.json"],
    ]
    write_csv = cli.write_csv
    rec = tracing.Recorder()
    codes = []
    with tracing.traced(rec, cli, sim, pool, il):
        for argv in commands:
            codes.append(cli.main(argv))
            if argv[0] == "simulate-drs":  # the first command that draws
                drs_counts = rec.calls("sim.replication_rng"), rec.counts["sim.rng.draws"]
        api = tracing.pool_api(rec, pool)  # what the quotes workload calls
        quoted, _ = api.swap_y_for_x(api.Pool(100.0, 100.0, 4), 10.0)
        api.slippage_first_order(quoted, 1.0)

    assert codes == [0] * len(commands)
    assert set(rec.missing) <= KNOWN_MISSING
    calls = {name: rec.calls(name) for name in ("sim.sweep", "sim.drs", "sim.market_loop", "pool.swap")}
    assert calls == {"sim.sweep": 2, "sim.drs": 1, "sim.market_loop": 1, "pool.swap": 1}
    assert cli.write_csv is write_csv  # traced() put every name back
    # the sweeps are array-first: one closed-form call per (column, n), not
    # one per grid point (2 retention columns, 3 IL columns, of which
    # il_exact is 1 - depleted_reserves)
    per_n = len(SWEEP["n_values"])
    assert rec.calls("pool.closed_form") == 3 * per_n
    il_calls = [rec.calls(f"il.{f}") for f in ("il_traditional", "il_proposed_scaled", "il_powerlaw_exact")]
    assert il_calls == [per_n, per_n, 0]
    # DRS seeds each block of replications at once (sim._replication_rngs),
    # not through replication_rng, so the tracer sees no generator or draw
    # there; the market loop still makes its one replication_rng call
    assert drs_counts == (0, 0)
    assert rec.calls("sim.replication_rng") == 1
