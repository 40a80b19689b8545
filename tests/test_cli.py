"""CLI surface: output determinism, round-trip parsing, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerlaw_amm import cli, sim, sweep_retention
from powerlaw_amm.cli import main, read_table
from powerlaw_amm.sim import DrsSimConfig, MarketLoopConfig


def run(args):
    return main(args)


class TestQuote:
    def test_constant_product_buy(self, capsys):
        assert run(["quote", "--x", "100", "--y", "100", "--n", "1", "--buy-x", "--in", "100", "--fee", "0"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["amount_out"]) == pytest.approx(50.0)
        assert float(values["fee_paid"]) == 0.0

    def test_power_law_buy(self, capsys):
        assert run(["quote", "--x", "100", "--y", "100", "--n", "4", "--buy-x", "--in", "100", "--fee", "0"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["amount_out"]) == pytest.approx(15.910, abs=1e-3)
        assert float(values["slippage_exact"]) > 0

    def test_sell_direction(self, capsys):
        assert run(["quote", "--x", "100", "--y", "100", "--n", "4", "--sell-x", "--in", "10"]) == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["amount_out"]) == pytest.approx(100 * (1 - (100 / 110) ** 4))
        assert float(values["slippage_exact"]) < 0

    def test_zero_input_exits_2(self, capsys):
        assert run(["quote", "--x", "100", "--y", "100", "--n", "4", "--buy-x", "--in", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_side_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["quote", "--x", "1", "--y", "1", "--in", "1"])
        assert exc.value.code == 2


class TestSweepCommands:
    def test_retention_csv_matches_library(self, tmp_path):
        out = tmp_path / "ret.csv"
        assert run(["sweep-retention", "--out", str(out)]) == 0
        meta, rows = read_table(str(out))
        assert meta["schema_version"] == "1"
        assert meta["config"]["m_points"] == 200
        expected = sweep_retention()
        assert len(rows) == len(expected) == 1000
        for got, want in zip(rows, expected):
            assert got["m"] == want["m"]
            assert got["n"] == want["n"]
            assert got["retention_ratio"] == want["retention_ratio"]
            assert got["depleted_fraction"] == want["depleted_fraction"]

    def test_retention_anchor_row(self, tmp_path):
        out = tmp_path / "ret.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_min": 100.0, "m_max": 100.0, "m_points": 1, "n_values": [4]}))
        assert run(["sweep-retention", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_table(str(out))
        assert rows[0]["retention_ratio"] == pytest.approx(3.981, abs=1e-3)

    def test_il_json_anchor(self, tmp_path):
        out = tmp_path / "il.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_min": 100.0, "m_max": 100.0, "m_points": 1, "n_values": [4]}))
        assert run(["sweep-il", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["il_scaled"] == pytest.approx(0.51327, abs=1e-5)
        assert row["il_traditional"] == pytest.approx(0.80198, abs=1e-5)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["sweep-retention", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        assert run(["sweep-retention", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1

    def test_int_past_int64_sweeps_like_its_float(self, tmp_path):
        # m_max is held as a float, so the files must match byte for byte
        out, cfg = tmp_path / "ret.csv", tmp_path / "cfg.json"
        files = []
        for m_max in ("1000000000000000000000000000000", "1e30"):
            cfg.write_text('{"m_max": %s}' % m_max)
            assert run(["sweep-retention", "--config", str(cfg), "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestDeterminism:
    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep-il", "--out", str(a)]) == 0
        assert run(["sweep-il", "--out", str(b)]) == 0
        assert a.read_bytes().replace(b"a.csv", b"x.csv") == b.read_bytes().replace(
            b"b.csv", b"x.csv"
        )

    def test_drs_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate-drs", "--seed", "42", "--out", str(a)]) == 0
        assert run(["simulate-drs", "--seed", "42", "--out", str(b)]) == 0
        norm = lambda p, name: p.read_bytes().replace(name, b"x")
        assert norm(a, b"a.csv") == norm(b, b"b.csv")
        sa, sb = tmp_path / "a.summary.json", tmp_path / "b.summary.json"
        assert norm(sa, b"a.csv") == norm(sb, b"b.csv")

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate-drs", "--seed", "1", "--out", str(a)])
        run(["simulate-drs", "--seed", "2", "--out", str(b)])
        assert a.read_bytes().replace(b"a.csv", b"") != b.read_bytes().replace(b"b.csv", b"")


class TestSimulateDrs:
    def test_noise_free_final_ratio(self, tmp_path):
        out = tmp_path / "drs.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_std": 0.0}))
        assert run(["simulate-drs", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_table(str(out))
        assert len(rows) == 100
        assert rows[0]["day"] == 0
        summary = json.loads((tmp_path / "drs.summary.json").read_text())["summary"]
        assert summary["final_ratio_static"] == 1.0
        assert summary["final_ratio_dynamic"] == pytest.approx(1.2119831273130861, rel=1e-12)

    def test_config_echo_embeds_seed(self, tmp_path):
        out = tmp_path / "drs.json"
        assert run(["simulate-drs", "--seed", "99", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["seed"] == 99
        assert payload["config"]["days"] == 100
        assert payload["config"]["initial_volume"] == 1e6

    def test_csv_roundtrips_full_precision(self, tmp_path):
        out = tmp_path / "drs.csv"
        assert run(["simulate-drs", "--seed", "5", "--out", str(out)]) == 0
        from powerlaw_amm.sim import DrsSimConfig, run_drs_simulation

        res = run_drs_simulation(DrsSimConfig(seed=5))
        _, rows = read_table(str(out))
        for t, row in enumerate(rows):
            assert row["static_volume"] == res.static_series[t]
            assert row["dynamic_volume"] == res.dynamic_series[t]
            assert row["rho_applied"] == res.rho_series[t]

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 0}))
        assert run(["simulate-drs", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "days" in capsys.readouterr().err

    def test_replications_past_one_word_exit_2(self, tmp_path, capsys):
        # the seeding kernel holds a replication index in one 32-bit word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replications": 2**32 + 1}))
        assert run(["simulate-drs", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: replications")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"days": 3, "initial_volume": 1e308, "target_volume": 1e-300}',
            '{"days": 5, "sensitivity": 1e308, "noise_std": 1e300}',
        ],
    )
    def test_overflow_exits_2_without_output(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["simulate-drs", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: DRS volumes overflow a float")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_harmless_overflow_prints_no_warning(self, tmp_path):
        # volume / target overflows inside the rebate, which only clamps it;
        # a fresh interpreter shows numpy's warnings as a user would see them
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"days": 5, "target_volume": 1e-305}')
        argv = ["simulate-drs", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "powerlaw_amm.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "o.summary.json").exists()

    def test_failed_allocation_exits_1_without_traceback(self, tmp_path, capsys):
        # 2**50 days of float64 is 8 PiB, past any address space, so the
        # allocation fails at once and touches no memory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 2**50}))
        assert run(["simulate-drs", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert not (tmp_path / "o.csv").exists()


# Market loops at seed 0 whose summed trade volume passes the largest float:
# sizes near 5e304, and sizes near 1e306 with a 99% fee in every regime.
OVERFLOW_VOLUME = {
    "x_reserve": 1.0050559575135922e301, "y_reserve": 6.964825529160703e304, "n": 1,
    "epochs": 2, "periods_per_epoch": 10,
    "stream": {"trades_per_period": 20.0, "size_median_frac": 0.6821472032286585},
}
OVERFLOW_FEES = {
    "x_reserve": 4.3972307153698604e303, "y_reserve": 2.1535942670545874e306, "n": 5,
    "epochs": 2, "periods_per_epoch": 10,
    "stream": {"trades_per_period": 20.0, "size_median_frac": 0.48115646257296785},
    "schedule": dict.fromkeys(["low", "moderate", "high"], {"gamma": 0.99, "rho_max": 0.4}),
}


class TestMarketLoop:
    def test_zero_intensity_all_zero(self, tmp_path):
        out = tmp_path / "loop.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stream": {"trades_per_period": 0.0}}))
        assert run(["market-loop", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["total_fees"] == 0.0
        assert metrics["fee_bucket_sum"] == 0.0
        assert metrics["executed_trades"] == 0

    def test_conservation_in_output(self, tmp_path):
        out = tmp_path / "loop.json"
        assert run(["market-loop", "--seed", "3", "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["fee_bucket_sum"] == pytest.approx(metrics["total_fees"], rel=1e-9)
        for epoch in metrics["epochs"]:
            if epoch["payout_total"] > 0:
                assert epoch["payout_total"] == pytest.approx(epoch["reward_pool"], rel=1e-12)

    def test_epoch_ledger_csv_sums(self, tmp_path):
        out = tmp_path / "loop.json"
        assert run(["market-loop", "--seed", "3", "--out", str(out)]) == 0
        meta, rows = read_table(str(tmp_path / "loop.epochs.csv"))
        metrics = json.loads(out.read_text())["metrics"]
        by_epoch = {}
        for row in rows:
            by_epoch[row["epoch"]] = by_epoch.get(row["epoch"], 0.0) + row["reward"]
        for epoch in metrics["epochs"]:
            if epoch["payout_total"] > 0:
                assert by_epoch[epoch["epoch_id"]] == pytest.approx(
                    epoch["reward_pool"], rel=1e-12
                )


    def test_price_underflow_exits_2_without_traceback(self, tmp_path, capsys):
        # heavy-tailed sizes push the price n*y/x to 0 within the first epochs
        text = json.dumps(
            {
                "epochs": 20,
                "periods_per_epoch": 100,
                "stream": {"trades_per_period": 100.0, "num_traders": 1000, "size_sigma": 3.0},
            }
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o.json"
        assert run(["market-loop", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "drain" in err
        assert "Traceback" not in err

    def test_num_traders_past_one_word_exit_2(self, tmp_path, capsys):
        # the trader draw takes 32-bit values; 2**63 + 1 is past int64 too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stream": {"num_traders": 2**63 + 1}}))
        out = tmp_path / "o.json"
        assert run(["market-loop", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: stream.num_traders must be in [1, 2**32]")
        assert "Traceback" not in err
        assert not out.exists()

    def test_size_overflow_exits_2_without_traceback(self, tmp_path, capsys):
        # at seed 2 the first trade's exp(size_sigma * z) overflows a float:
        # one message for every size outside (0, inf)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "periods_per_epoch": 2, "stream": {"size_sigma": 1000.0}}))
        out = tmp_path / "o.json"
        assert run(["market-loop", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: trade size inf leaves (0, inf): stream.size_median_frac 0.001 and"
            " stream.size_sigma 1000.0 are too extreme\n"
        )

    @pytest.mark.parametrize("config", [OVERFLOW_VOLUME, OVERFLOW_FEES], ids=["volume", "volume-and-fees"])
    def test_total_volume_overflow_exits_2_and_writes_nothing(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["market-loop", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: total volume inf overflows a float: y_reserve \S+ and stream\.size_median_frac \S+"
            r" make trades too large to sum\n",
            err,
        ), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "stream",
        [{"size_sigma": 300.0}, {"size_sigma": 400.0}, {"size_median_frac": 1e303}],
        ids=["buy-underflow", "sell-underflow", "product-overflow"],
    )
    def test_size_out_of_float_range_names_the_stream(self, tmp_path, capsys, stream):
        # at seed 1 a size underflows to 0 (on a buy, then a sell) or a size
        # around the finite median 1e308 overflows to inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stream": stream, "epochs": 2, "periods_per_epoch": 30}))
        out = tmp_path / "o.json"
        assert run(["market-loop", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trade size ") and "stream.size_sigma" in err
        assert "dy_in" not in err and "dx_in" not in err and "Traceback" not in err


class TestParser:
    def test_built_once_and_calls_rebound_names(self, tmp_path, monkeypatch, capsys):
        # the benchmark's tracer rebinds cli.run_market_loop after the
        # parser exists; the parser must not have kept the old function
        cli.build_parser.cache_clear()
        quote = ["quote", "--x", "100", "--y", "100", "--buy-x", "--in", "1"]
        assert run(quote) == 0
        calls = []

        def traced(cfg):
            calls.append(cfg)
            return sim.run_market_loop(cfg)

        monkeypatch.setattr(cli, "run_market_loop", traced)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "periods_per_epoch": 2}))
        assert run(["market-loop", "--config", str(cfg), "--out", str(tmp_path / "loop.json")]) == 0
        assert len(calls) == 1 and calls[0].epochs == 1
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        capsys.readouterr()


class TestOutDirEnv:
    def test_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERLAW_AMM_OUT_DIR", str(tmp_path))
        assert run(["sweep-retention"]) == 0
        assert (tmp_path / "sweep_retention.csv").exists()


def run_config(tmp_path, command, text):
    """Run command with a config file holding text (raw JSON)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return run([command, "--config", str(cfg), "--out", str(tmp_path / "o.json")])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("market-loop", '{"epochs": 1.5}', "epochs"),
            ("simulate-drs", '{"days": 10.0}', "days"),
            ("market-loop", '{"epochs": true}', "epochs"),
            ("simulate-drs", '{"noise_std": NaN}', "noise_std"),
            ("market-loop", '{"x_reserve": NaN}', "x_reserve"),
            ("simulate-drs", '{"initial_volume": Infinity}', "initial_volume"),
            ("market-loop", '{"stream": {"trades_per_period": "10"}}', "stream.trades_per_period"),
            ("market-loop", '{"schedule": {"high": {"gamma": true, "rho_max": 0.4}}}', "schedule.high.gamma"),
            ("sweep-retention", '{"m_points": 1.5}', "m_points"),
            ("sweep-il", '{"m_points": true}', "m_points"),
            ("sweep-retention", '{"n_values": [1.5]}', "n_values[0]"),
            ("sweep-il", '{"n_values": [4, 9]}', "n_values[1]"),
            ("sweep-retention", '{"n_values": 4}', "n_values"),
            ("sweep-il", '{"m_min": NaN}', "m_min"),
            ("sweep-retention", '{"m_max": Infinity}', "m_max"),
            ("sweep-il", '{"n_values": []}', "n_values"),
            ("sweep-retention", '{"m_points": 1, "m_min": 1, "m_max": 5}', "m_points"),
            ("simulate-drs", '{"seed": -1}', "seed"),
            ("market-loop", '{"seed": -1}', "seed"),
            ("simulate-drs", '{"days": 10,}', "is not valid JSON"),
            ("sweep-il", '[1, 2]', "must hold a JSON object"),
            ("market-loop", '{"stream": 5}', "stream must be a JSON object"),
            # 400-digit ints, too large for a float
            pytest.param(
                "simulate-drs", '{"initial_volume": 1%s}' % ("0" * 400), "initial_volume",
                id="simulate-drs-initial_volume-int-past-float",
            ),
            pytest.param(
                "market-loop", '{"stream": {"size_sigma": 1%s}}' % ("0" * 400), "stream.size_sigma",
                id="market-loop-stream.size_sigma-int-past-float",
            ),
        ],
    )
    def test_bad_field_type_exits_2(self, tmp_path, capsys, command, text, key):
        assert run_config(tmp_path, command, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 9}', "error: bad config: n: exponent must be an integer"),
            ('{"x_reserve": -1}', "error: bad config: x_reserve must be finite and nonnegative"),
            ('{"y_reserve": -0.5}', "error: bad config: y_reserve must be finite and nonnegative"),
        ],
    )
    def test_pool_fields_named_by_key(self, tmp_path, capsys, text, message):
        assert run_config(tmp_path, "market-loop", text) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["sweep-il", "sweep-retention"])
    def test_grid_past_the_float_range_exits_2(self, tmp_path, capsys, command):
        # a valid config whose last np.logspace point rounds past the float
        # range; a numpy warning would be an error here
        assert run_config(tmp_path, command, '{"m_max": 1.7976931348623157e308, "m_points": 3}') == 2
        err = capsys.readouterr().err
        assert err == "error: bad config: m_max 1.7976931348623157e+308 puts the last grid point past the float range: got inf\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"schedule": {"high": {"gamma": 0.01}}}', "missing config keys in schedule.high: ['rho_max']"),
            ('{"schedule": {"low": {}}}', "missing config keys in schedule.low: ['gamma', 'rho_max']"),
        ],
    )
    def test_missing_nested_keys_named(self, tmp_path, capsys, text, message):
        assert run_config(tmp_path, "market-loop", text) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("market-loop", '{"x_reserve": 0}', "x_reserve and y_reserve: pool is inactive"),
            ("market-loop", '{"y_reserve": 0.0}', "x_reserve and y_reserve: pool is inactive"),
            ("market-loop", '{"x_reserve": 1e-320}', r"x_reserve and y_reserve: pool price n*y/x is inf"),
            # y_reserve 10**308 written as an integer: held as 1e308, it fails as its float twin
            *[
                pytest.param(
                    "market-loop", '{"x_reserve": %s, "y_reserve": 1%s, "n": 8}' % (x, "0" * 308),
                    "x_reserve and y_reserve: pool price n*y/x is inf, outside (0, inf)\n",
                    id=f"market-loop-int-y_reserve-x{x}",
                )
                for x in ("1", "1e10")
            ],
            (
                "market-loop",
                '{"stream": {"size_median_frac": 1e305}}',
                "stream.size_median_frac 1e+305 times y_reserve 100000.0 is a median trade of inf",
            ),
            ("market-loop", '{"stream": {"trades_per_period": 1e300}}', "stream.trades_per_period must be in [0, "),
            ("market-loop", '{"stream": {"trades_per_period": 2e19}}', "stream.trades_per_period must be in [0, "),
            ("market-loop", '{"stream": {"trades_per_period": 9.3e18}}', "stream.trades_per_period must be in [0, "),
            ("simulate-drs", '{"noise_std": -0.0}', "noise_std must be nonnegative and not -0.0"),
        ],
    )
    def test_config_that_cannot_run_rejected_up_front(self, tmp_path, capsys, command, text, message):
        assert run_config(tmp_path, command, text) == 2
        assert capsys.readouterr().err.startswith(f"error: bad config: {message}")
        assert not (tmp_path / "o.json").exists()

    def test_rho_max_below_rebate_floor_exits_2(self, tmp_path, capsys):
        text = '{"schedule": {"low": {"gamma": 0.003, "rho_max": 0.2}}}'
        assert run_config(tmp_path, "market-loop", text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rho_max" in err

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("sweep-retention", '{"seed": 1}', "unknown config keys: ['seed']"),
            ("simulate-drs", '{"out": "x"}', "unknown config keys: ['out']"),
            ("market-loop", '{"format": "csv"}', "unknown config keys: ['format']"),
            ("market-loop", '{"stream": {"bogus": 1}}', "in stream: ['bogus']"),
            (
                "market-loop",
                '{"schedule": {"low": {"gamma": 0.003, "rho_max": 0.3, "x": 1}}}',
                "in schedule.low: ['x']",
            ),
        ],
    )
    def test_unknown_keys_rejected_at_every_level(self, tmp_path, capsys, command, text, where):
        assert run_config(tmp_path, command, text) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["quote", "--x", "100", "--y", "100", "--buy-x", "--in", "1", "--seed", "1"],
            ["quote", "--x", "100", "--y", "100", "--buy-x", "--in", "1", "--out", "q.txt"],
            ["sweep-il", "--seed", "1"],
            ["sweep-retention", "--seed", "1"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_nested_config_builds_schedule(self, tmp_path):
        text = '{"epochs": 1, "periods_per_epoch": 3, "schedule": {"low": {"gamma": 0.002, "rho_max": 0.35}}}'
        assert run_config(tmp_path, "market-loop", text) == 0
        config = json.loads((tmp_path / "o.json").read_text())["config"]
        assert config["schedule"]["low"] == {"gamma": 0.002, "rho_max": 0.35}
        assert config["schedule"]["high"] == {"gamma": 0.01, "rho_max": 0.4}


# For each file command, float fields set to integral values that run, all
# at once and one field at a time (plus a market loop with no trades, whose
# final reserves are the configured ones). Written as integer literals,
# they must run and write exactly what their float twins write.
INTEGRAL_FLOATS = {
    "sweep-retention": {"m_min": 2, "m_max": 300},
    "sweep-il": {"m_min": 2, "m_max": 300},
    "simulate-drs": {
        "initial_volume": 1000000, "target_volume": 2000000, "static_rebate": 0,
        "sensitivity": 1, "noise_std": 1, "volume_floor": 5,
    },
    "market-loop": {
        "x_reserve": 20000, "y_reserve": 100000, "target_volume": 2000,
        "stream": {"trades_per_period": 12, "size_sigma": 1},
        "schedule": {"sigma_low": 0, "sigma_high": 1},
    },
}


def integer_literal_cases():
    for command, config in INTEGRAL_FLOATS.items():
        yield pytest.param(command, config, id=f"{command}-all")
        for key, value in config.items():
            leaves = value.items() if isinstance(value, dict) else [(None, value)]
            for leaf, number in leaves:
                one = {key: {leaf: number}} if leaf else {key: number}
                yield pytest.param(command, one, id=f"{command}-{key}" + (f".{leaf}" if leaf else ""))
    no_trades = {"x_reserve": 20000, "stream": {"trades_per_period": 0}}
    yield pytest.param("market-loop", no_trades, id="market-loop-no-trades")


def as_floats(config):
    return {k: as_floats(v) if isinstance(v, dict) else float(v) for k, v in config.items()}


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("command, config", list(integer_literal_cases()))
def test_integer_literal_writes_as_its_float_twin(tmp_path, command, config, output_format):
    out = tmp_path / "out"
    written = []
    for literal in (config, as_floats(config)):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(literal))
        argv = [command, "--config", str(cfg), "--out", str(out / f"o.{output_format}"), "--format", output_format]
        assert run(argv) == 0
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[0] == written[1]


# The extreme-value alphabet of the config property below: signed zeros,
# subnormals, huge floats, the largest float, NaN, the infinities, ints past
# int64 and past the float range, and values of the wrong type.
EXTREMES = [
    0.0, -0.0, 5e-324, 1e-320, 1e300, 1e305, sys.float_info.max, math.nan, math.inf, -math.inf,
    2**63, 10**400, True, "1", None, [1.0], {},
]
extreme = st.sampled_from(EXTREMES)


def counts(limit, big_ints=False):
    """A count field: a small valid value (at most limit) or one the config
    rejects. The big ints of the alphabet go in only where the config
    rejects them (big_ints), so every config that builds runs in
    milliseconds."""
    return st.integers(-1, limit) | st.sampled_from(
        [v for v in EXTREMES if big_ints or type(v) is not int]
    )


def regime():
    return st.fixed_dictionaries({"gamma": extreme | st.just(0.003), "rho_max": extreme | st.just(0.35)})


def configs(base, fields):
    """Configs that set up to three of fields (dotted key -> strategy) over
    base, so that most of them build and run."""
    def nest(flat):
        config = dict(base)
        for key, value in flat.items():
            *path, name = key.split(".")
            node = config
            for part in path:
                node = node.setdefault(part, {})
            node[name] = value
        return config

    keys = st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True)
    return keys.flatmap(lambda keys: st.fixed_dictionaries({k: fields[k] for k in keys})).map(nest)


# Market loops of at most 3 epochs x 10 periods x 20 trades.
LOOP_CONFIGS = configs(
    {"epochs": 2, "periods_per_epoch": 5},
    {
        "x_reserve": extreme,
        "y_reserve": extreme,
        "n": extreme | st.integers(1, 8),
        "epochs": counts(3),
        "periods_per_epoch": counts(10),
        "target_volume": extreme,
        "vol_window": extreme | st.integers(2, 5),
        "seed": extreme,
        "stream.trades_per_period": counts(20, big_ints=True),  # past numpy's Poisson limit
        "stream.size_median_frac": extreme,
        "stream.size_sigma": extreme,
        "stream.num_traders": extreme | st.integers(1, 5),
        "schedule.sigma_low": extreme,
        "schedule.sigma_high": extreme,
        "schedule.low": regime(),
        "schedule.moderate": regime(),
        "schedule.high": regime(),
    },
)

# DRS runs of at most 3 replications x 100 days.
DRS_CONFIGS = configs(
    {},
    {
        "days": counts(100),
        "replications": counts(3, big_ints=True),  # past 2**32
        **dict.fromkeys(
            ["initial_volume", "target_volume", "static_rebate", "sensitivity", "noise_std",
             "seed", "volume_floor"],
            extreme,
        ),
    },
)

# The run-time errors a config that builds may still end in: a trade size
# drawn outside (0, inf), a trade that would drain a reserve, a market-loop
# volume past the float range, and DRS volumes past it.
RUNTIME_ERRORS = [
    r"trade size \S+ leaves \(0, inf\): stream\.size_median_frac \S+ and stream\.size_sigma \S+"
    r" are too extreme",
    r"swap would drain the [XY] reserve: the price n\*y/x leaves \(0, inf\)",
    r"total volume \S+ overflows a float: y_reserve \S+ and stream\.size_median_frac \S+"
    r" make trades too large to sum",
    r"DRS volumes overflow a float in replication \d+",
    r"DRS summary value \w+ overflows a float: \S+",
]


def dotted_keys(cls, where=""):
    """Every config key of dataclass cls, nested ones as dotted paths."""
    keys = set()
    for f in dataclasses.fields(cls):
        keys.add(where + f.name)
        if dataclasses.is_dataclass(f.type):
            keys |= dotted_keys(f.type, f"{where}{f.name}.")
    return keys


def run_in_process(command, config):
    """(exit code, stderr, outputs) of cli.main running command on a config
    file holding config, with every warning an error; outputs maps the name
    of each file the run wrote to its text."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o.json")])
        outputs = {
            name: Path(tmp, name).read_text(encoding="utf-8")
            for name in os.listdir(tmp) if name != "cfg.json"
        }
    return code, err.getvalue(), outputs


def reject_constant(name):
    raise ValueError(f"{name} in a JSON output")


class TestConfigThatBuildsRuns:
    """A config that builds is a config that runs: over the extreme-value
    alphabet, market-loop and simulate-drs exit 0, or exit 2 naming the key
    at fault, or exit 2 with one of the run-time errors above and no file
    written. Never a numpy message, an inactive pool, a warning, a traceback,
    or an output holding inf or NaN. 500 examples per command."""

    def check(self, cls, command, config):
        code, err, outputs = run_in_process(command, config)
        if code == 0:
            assert err == ""
            for name, text in outputs.items():
                if text.startswith("# "):  # a CSV
                    assert not re.search(r"(^|,)-?(inf|nan)(,|$)", text, re.M), name
                else:
                    json.loads(text, parse_constant=reject_constant)
            return
        assert not outputs, sorted(outputs)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        message = err[len("error: "):-1]
        key = re.match(r"bad config: ([\w.]+)", message)
        if key:
            assert key.group(1) in dotted_keys(cls), err
        else:
            assert any(re.fullmatch(pattern, message) for pattern in RUNTIME_ERRORS), err

    @settings(max_examples=500, deadline=None)
    @given(LOOP_CONFIGS)
    @example(OVERFLOW_VOLUME)
    def test_market_loop(self, config):
        self.check(MarketLoopConfig, "market-loop", config)

    @settings(max_examples=500, deadline=None)
    @given(DRS_CONFIGS)
    def test_simulate_drs(self, config):
        self.check(DrsSimConfig, "simulate-drs", config)
