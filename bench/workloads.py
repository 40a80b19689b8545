"""The four benchmark workloads.

Each workload is a closed loop with one client: an iteration starts after the
previous one has finished and been checked. Inputs are generated here from
the benchmark's --seed; the program only receives configs (CLI workloads)
or call arguments (quotes). Every iteration checks its own outputs and
reports the SHA-256 of what it produced, so iterations, traced runs and
later runs can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import tracing
from golden import sha256_file

# Relative tolerance for values computed two ways that may round differently.
REL_TOL = 1e-12


@dataclass
class Outcome:
    """One iteration: its timed seconds, the work it completed, and what went wrong."""

    seconds: float
    items: int
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    latencies_ns: array | None = None
    rejected: int = 0
    slowdown: float = 1.0  # host speed during the iteration, against the reference


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


# ---------------------------------------------------------------------------
# CLI workloads: powerlaw_amm.cli.main in-process, files written and parsed
# ---------------------------------------------------------------------------


class CliWorkload:
    """Runs a fixed list of CLI commands per iteration in the current directory."""

    name = ""
    commands: list = []
    outputs: tuple = ()

    def __init__(self, cli):
        self.cli = cli

    def probe_args(self) -> list:
        """The argv whose set-up (import, parse, config) setup_probe.py times."""
        return self.commands[0]

    def _write_config(self, name: str, config: dict):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def run(self, rec: tracing.Recorder | None) -> Outcome:
        main = self.cli.main if rec is None else rec.wrap("cli.main", self.cli.main)
        problems = []
        start = time.perf_counter()
        try:
            for argv in self.commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    problems.append(f"{argv[0]} exited {code}")
        except Exception as exc:  # a crash is a failed iteration, not a dead benchmark
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        items = 0
        digests = {}
        if not problems:
            try:
                items = self.check(problems)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        for name in self.outputs:
            if os.path.exists(name):
                digests[name] = sha256_file(name)
                os.remove(name)
        return Outcome(seconds, items, attempted=1, failed=int(bool(problems)), problems=problems, digests=digests)

    def check(self, problems: list) -> int:
        """Append a message per failed check; return the items completed."""
        raise NotImplementedError


def _close(a: float, b: float, ulps: float) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


class MarketLoop(CliWorkload):
    name = "market-loop"
    outputs = ("market_loop.json", "market_loop.epochs.csv")
    CONFIG = {
        "epochs": 20,
        "periods_per_epoch": 100,
        "stream": {"trades_per_period": 100.0, "num_traders": 1000},
    }

    def __init__(self, seed: int, cli, _pool_module):
        super().__init__(cli)
        self._write_config("market_loop_config.json", self.CONFIG)
        self.commands = [
            ["market-loop", "--config", "market_loop_config.json", "--seed", str(seed), "--out", "market_loop.json"]
        ]

    def check(self, problems: list) -> int:
        with open("market_loop.json", encoding="utf-8") as fh:
            m = json.load(fh)["metrics"]
        trades = m["executed_trades"] + m["rejected_trades"]
        # Each running sum over N terms is off by at most N/2 ulp of its final
        # value; four sums (three buckets and the total) meet here.
        buckets = m["lp_total"] + m["rebate_total"] + m["protocol_total"]
        if not _close(buckets, m["total_fees"], 4 * max(trades, 1)):
            problems.append(f"fee buckets {buckets!r} != total_fees {m['total_fees']!r}")
        parts = m["rewards_distributed"] + m["reward_carry"] + m["protocol_net"]
        if not _close(parts, m["protocol_total"], 1):
            problems.append(f"rewards + carry + protocol_net {parts!r} != protocol_total {m['protocol_total']!r}")
        _meta, rows = self.cli.read_table("market_loop.epochs.csv")
        paid: dict[int, float] = {}
        for row in rows:
            epoch = int(row["epoch"])
            paid[epoch] = paid.get(epoch, 0.0) + row["reward"]
        for ep in m["epochs"]:
            total = paid.get(ep["epoch_id"])
            if total is None:
                if ep["carried"] != ep["reward_pool"]:
                    problems.append(f"epoch {ep['epoch_id']}: no payouts but carry != reward_pool")
            elif total != ep["payout_total"] or not _close(total, ep["reward_pool"], 1):
                problems.append(
                    f"epoch {ep['epoch_id']}: payouts sum {total!r}, reward_pool {ep['reward_pool']!r}"
                )
        if len(m["epochs"]) != self.CONFIG["epochs"] or trades < 1:
            problems.append(f"{len(m['epochs'])} epochs and {trades} trades reported")
        return trades


class DrsMc(CliWorkload):
    name = "drs-mc"
    outputs = ("drs.csv", "drs.summary.json")
    REPLICATIONS = 2000
    DAYS = 100

    def __init__(self, seed: int, cli, _pool_module):
        super().__init__(cli)
        self._write_config("drs_config.json", {"replications": self.REPLICATIONS, "days": self.DAYS})
        self.commands = [["simulate-drs", "--config", "drs_config.json", "--seed", str(seed), "--out", "drs.csv"]]

    def check(self, problems: list) -> int:
        meta, rows = self.cli.read_table("drs.csv")
        with open("drs.summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        initial = meta["config"]["initial_volume"]
        static = np.array([r["static_volume"] for r in rows])
        dynamic = np.array([r["dynamic_volume"] for r in rows])
        rho = np.array([r["rho_applied"] for r in rows])
        if [int(r["day"]) for r in rows] != list(range(self.DAYS)):
            problems.append(f"drs.csv days are not 0..{self.DAYS - 1}")
            return 0
        expect = {
            "days": self.DAYS,
            "replications": self.REPLICATIONS,
            "final_ratio_static": static[-1] / initial,
            "final_ratio_dynamic": dynamic[-1] / initial,
        }
        near = {
            "mean_volume_static": np.mean(static),
            "mean_volume_dynamic": np.mean(dynamic),
            "volatility_static": np.std(np.diff(np.log(static))),
            "volatility_dynamic": np.std(np.diff(np.log(dynamic))),
        }
        for key, want in expect.items():
            if summary[key] != want:
                problems.append(f"summary {key} {summary[key]!r} != {want!r} from drs.csv")
        for key, want in near.items():
            if not abs(summary[key] - want) <= REL_TOL * abs(want):
                problems.append(f"summary {key} {summary[key]!r} != {want!r} from drs.csv")
        if not (0.0 <= summary["dynamic_beats_static_fraction"] <= 1.0):
            problems.append("dynamic_beats_static_fraction outside [0, 1]")
        if not (np.all(rho >= 0.3) and np.all(rho <= 0.4)):
            problems.append("rho_applied outside [0.3, 0.4]")
        return self.REPLICATIONS * self.DAYS


def _read_numeric_csv(path: str):
    """(meta, columns, 2-D float array) of a CSV written by cli.write_csv."""
    meta, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                meta[key] = value
            else:
                lines.append(line)
    columns = lines[0].strip().split(",")
    return meta, columns, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


class Sweeps(CliWorkload):
    name = "sweeps"
    outputs = ("sweep_retention.csv", "sweep_il.csv")
    M_POINTS = 20000
    N_VALUES = list(range(1, 9))

    def __init__(self, seed: int, cli, _pool_module):
        super().__init__(cli)
        lo, hi = _rng(seed, 1).uniform([0.0, 1.7], [0.3, 2.3])
        self.grid = {"m_min": 10.0**lo, "m_max": 10.0**hi, "m_points": self.M_POINTS, "n_values": self.N_VALUES}
        self._write_config("sweep_config.json", self.grid)
        self.commands = [
            ["sweep-retention", "--config", "sweep_config.json", "--out", "sweep_retention.csv"],
            ["sweep-il", "--config", "sweep_config.json", "--out", "sweep_il.csv"],
        ]

    def check(self, problems: list) -> int:
        g = self.grid
        m_grid = np.logspace(np.log10(g["m_min"]), np.log10(g["m_max"]), g["m_points"])
        m_want = np.tile(m_grid, len(self.N_VALUES))
        n_want = np.repeat(np.array(self.N_VALUES, dtype=float), g["m_points"])
        expo = -1.0 / (n_want + 1.0)
        il_trad = 1.0 - 2.0 * np.sqrt(m_want) / (m_want + 1.0)
        expected = {
            "sweep_retention.csv": {
                "retention_ratio": m_want ** (0.5 + expo),
                "depleted_fraction": m_want**expo,
            },
            # IL columns are differences from 1, so their rounding is on the
            # scale of 1, not of the (possibly tiny) difference.
            "sweep_il.csv": {
                "il_traditional": il_trad,
                "il_scaled": il_trad / ((n_want + 1.0) ** 2 / (4.0 * n_want)),
                "il_exact": 1.0 - m_want**expo,
            },
        }
        rows = 0
        for path, cols in expected.items():
            meta, columns, data = _read_numeric_csv(path)
            config = json.loads(meta["config"])
            if any(config[k] != g[k] for k in ("m_points", "n_values")) or data.shape[0] != m_want.size:
                problems.append(f"{path}: {data.shape[0]} rows for config {config}")
                continue
            table = dict(zip(columns, data.T))
            if not np.array_equal(table["n"], n_want):
                problems.append(f"{path}: n column differs from the grid")
            if not np.all(np.abs(table["m"] - m_want) <= REL_TOL * m_want):
                problems.append(f"{path}: m column differs from the grid")
            for col, want in cols.items():
                scale = np.maximum(np.abs(want), 1.0) if col.startswith("il_") else np.abs(want)
                bad = np.count_nonzero(~(np.abs(table[col] - want) <= REL_TOL * scale))
                if bad:
                    problems.append(f"{path}: {bad} {col} values differ from the closed form")
            rows += data.shape[0]
        return rows


# ---------------------------------------------------------------------------
# Library workload: independent quotes through the public pool API
# ---------------------------------------------------------------------------

QUOTE_FIELDS = 8  # amount_out, fee_paid, price_before, price_after, slippage_exact,
#                   slippage_first_order, new x reserve, new y reserve
_REJECTED = (math.nan,) * QUOTE_FIELDS


class Quotes:
    """What `powerlaw-amm quote` computes, without argparse or print: a fresh
    Pool, one swap, first-order slippage. Sizes are log-normal with median
    1% of the input-side reserve and sigma 2, so ~0.03% exceed the 10x cap
    and raise TradeTooLarge, a correct outcome counted as rejected."""

    name = "quotes"
    COUNT = 200_000

    def __init__(self, seed: int, _cli, pool_module):
        self.pool = pool_module
        rng = _rng(seed, 2)
        n = self.COUNT
        x = 10.0 ** rng.uniform(2.0, 6.0, n)
        y = 10.0 ** rng.uniform(2.0, 6.0, n)
        exponent = rng.integers(1, 9, n)
        buy = rng.random(n) < 0.5
        fee = rng.uniform(0.0, 0.03, n)
        amount = np.where(buy, y, x) * np.exp(math.log(0.01) + 2.0 * rng.standard_normal(n))
        self.arrays = (x, y, exponent, buy, amount, fee)
        self.inputs = list(zip(x.tolist(), y.tolist(), exponent.tolist(), buy.tolist(), amount.tolist(), fee.tolist()))

    def probe_args(self) -> list:
        x, y, n = self.inputs[0][:3]
        return [x, y, n]

    def run(self, rec: tracing.Recorder | None) -> Outcome:
        api = self.pool if rec is None else tracing.pool_api(rec, self.pool)
        make_pool, buy_x, sell_x, first_order = api.Pool, api.swap_y_for_x, api.swap_x_for_y, api.slippage_first_order
        too_large = self.pool.TradeTooLarge
        clock = time.perf_counter_ns
        latencies = array("q", bytes(8 * self.COUNT))
        results = array("d")
        rejected = 0
        problems = []
        errored = []
        for i, (x, y, n, buy, amount, fee) in enumerate(self.inputs):
            t0 = clock()
            try:
                pool = make_pool(x, y, n)
                if buy:
                    new_pool, res = buy_x(pool, amount, fee)
                    delta_x = -res.amount_out
                else:
                    new_pool, res = sell_x(pool, amount, fee)
                    delta_x = amount - res.fee_paid
                slip = first_order(pool, delta_x)
            except too_large:
                latencies[i] = clock() - t0
                rejected += 1
                results.extend(_REJECTED)
                continue
            except Exception as exc:  # counted as a failed quote
                latencies[i] = clock() - t0
                errored.append(i)
                problems.append(f"quote {i}: {type(exc).__name__}: {exc}")
                results.extend(_REJECTED)
                continue
            latencies[i] = clock() - t0
            results.extend(
                (res.amount_out, res.fee_paid, res.price_before, res.price_after,
                 res.slippage_exact, slip, new_pool.x_reserve, new_pool.y_reserve)
            )
        failed = len(errored) + self.check(results, errored, problems)
        return Outcome(
            seconds=sum(latencies) / 1e9,
            items=self.COUNT,
            attempted=self.COUNT,
            failed=failed,
            problems=problems[:20],
            digests={"quote-stream": hashlib.sha256(results.tobytes()).hexdigest()},
            latencies_ns=latencies,
            rejected=rejected,
        )

    def check(self, results: array, errored: list, problems: list) -> int:
        """K preserved on the fee-free part of each swap; exactly the quotes
        over the cap rejected. Returns the number of other quotes that fail."""
        x, y, n, buy, amount, _fee = self.arrays
        out = np.frombuffer(results, dtype=float).reshape(self.COUNT, QUOTE_FIELDS)
        over_cap = amount > self.pool.SWAP_INPUT_CAP * np.where(buy, y, x)
        done = ~np.isnan(out[:, 0])
        k_before = x**n * y
        k_after = out[:, 6] ** n * out[:, 7]
        k_bad = done & ~(np.abs(k_after - k_before) <= REL_TOL * k_before)
        cap_bad = done == over_cap
        cap_bad[errored] = False
        bad = k_bad | cap_bad
        if np.any(k_bad):
            problems.append(f"{np.count_nonzero(k_bad)} quotes do not preserve K")
        if np.any(cap_bad):
            problems.append(f"{np.count_nonzero(cap_bad)} quotes rejected or accepted against the 10x cap")
        return int(np.count_nonzero(bad))


WORKLOADS = {w.name: w for w in (MarketLoop, DrsMc, Sweeps, Quotes)}


def make(name: str, seed: int, cli, pool_module):
    return WORKLOADS[name](seed, cli, pool_module)
