"""The benchmark tracer (bench/tracing.py) still finds every program name it
rebinds, so a refactor that deletes one fails here rather than in a traced
benchmark run."""

import json

from powerlaw_amm import cli, il, pool, sim

# Names the tracer rebinds if present (it looks them up with a default) and
# the program no longer has.
KNOWN_MISSING = {"powerlaw_amm.cli._build_loop_config", "powerlaw_amm.cli.DrsSimConfig"}


def test_traced_commands_run_and_find_their_names(tmp_path, monkeypatch, load_bench_module):
    tracing = load_bench_module("tracing")
    monkeypatch.chdir(tmp_path)
    configs = {
        "sweep.json": {"m_points": 5, "n_values": [1, 4]},
        "drs.json": {"days": 5, "replications": 2},
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
    with tracing.traced(rec, cli, sim, pool, il):
        codes = [cli.main(argv) for argv in commands]
        api = tracing.pool_api(rec, pool)  # what the quotes workload calls
        quoted, _ = api.swap_y_for_x(api.Pool(100.0, 100.0, 4), 10.0)
        api.slippage_first_order(quoted, 1.0)

    assert codes == [0] * len(commands)
    assert set(rec.missing) <= KNOWN_MISSING
    calls = {name: rec.calls(name) for name in ("sim.sweep", "sim.drs", "sim.market_loop", "pool.swap")}
    assert calls == {"sim.sweep": 2, "sim.drs": 1, "sim.market_loop": 1, "pool.swap": 1}
    assert cli.write_csv is write_csv  # traced() put every name back
