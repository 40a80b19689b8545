"""Span tracing for the benchmark, recorded from outside the program.

Spans come from rebinding the names that `powerlaw_amm.cli` and
`powerlaw_amm.sim` call (and the pool functions the quote loop calls) to
timing wrappers; `traced()` restores every name on exit. Nothing inside the
package is edited, so a span sits on a layer boundary: the call from one
module into another module's public function.

A market-loop iteration opens about two million spans, so spans are not kept
one by one. They are aggregated in memory per (parent span, span) edge:
calls, total time, and time covered by child spans. Self time is total time
minus child time. Each wrapper charges its own bookkeeping to its parent as
child time, so a parent's self time excludes most of the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter


class Recorder:
    """In-memory span aggregates and integer counters for one traced iteration."""

    def __init__(self):
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_ns, child_ns]
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.counts: Counter = Counter()
        self.rebate_inputs: set = set()  # distinct dynamic_rebate arguments
        self.missing: list[str] = []  # names traced() could not rebind
        self._stack: list[list] = []  # open spans: [name, child_ns]

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span called name. after(result, args, kwargs)
        runs once the span has closed; its time is charged to the parent."""
        edges, errors, stack = self.edges, self.errors, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            outer0 = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                own = clock() - start
                stack.pop()
                key = (parent[0] if parent else None, name)
                agg = edges.get(key)
                if agg is None:
                    agg = edges[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += own
                agg[2] += frame[1]
                if parent is not None:
                    parent[1] += clock() - outer0
            if after is not None:
                hook0 = clock()
                after(result, args, kwargs)
                if parent is not None:
                    parent[1] += clock() - hook0
            return result

        return wrapper

    # -- aggregates ---------------------------------------------------------

    def calls(self, name) -> int:
        return sum(a[0] for (_p, n), a in self.edges.items() if n == name)

    def total_ns(self, name) -> int:
        """Time inside name, not counting spans of name nested in itself."""
        return sum(a[1] for (p, n), a in self.edges.items() if n == name and p != name)

    def self_ns(self, name) -> int:
        return sum(a[1] - a[2] for (_p, n), a in self.edges.items() if n == name)

    def edge_table(self) -> list[dict]:
        return [
            {"parent": p, "span": n, "calls": a[0], "total_ns": a[1], "self_ns": a[1] - a[2]}
            for (p, n), a in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]


class _Namespace:
    """Stand-in for a module: overridden names first, the module otherwise."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class TracedGenerator:
    """Proxy around a numpy Generator: each method call is a `sim.rng` span;
    `sim.rng.draws` counts the variates returned."""

    def __init__(self, rng, rec: Recorder):
        self._rng = rng
        self._rec = rec

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if not callable(value):
            return value
        counts = self._rec.counts

        def count_draws(result, _args, _kwargs):
            counts["sim.rng.calls"] += 1
            counts["sim.rng.draws"] += getattr(result, "size", 1)

        wrapped = self._rec.wrap("sim.rng", value, after=count_draws)
        setattr(self, attr, wrapped)  # later lookups skip __getattr__
        return wrapped


def _rebind(stack: contextlib.ExitStack, module, attr: str, value, missing: list):
    """Set module.attr to value until the stack closes; note absent names."""
    if not hasattr(module, attr):
        missing.append(f"{module.__name__}.{attr}")
        return
    original = getattr(module, attr)
    setattr(module, attr, value)
    stack.callback(setattr, module, attr, original)


def pool_api(rec: Recorder, pool_module):
    """The pool entry points the quote loop calls, wrapped in spans."""
    return _Namespace(
        pool_module,
        {
            "Pool": rec.wrap("pool.Pool", pool_module.Pool),
            "swap_y_for_x": rec.wrap("pool.swap", pool_module.swap_y_for_x),
            "swap_x_for_y": rec.wrap("pool.swap", pool_module.swap_x_for_y),
            "slippage_first_order": rec.wrap(
                "pool.slippage_first_order", pool_module.slippage_first_order
            ),
        },
    )


@contextlib.contextmanager
def traced(rec: Recorder, cli, sim, pool, il):
    """Rebind the names cli and sim call into the other modules until exit.
    Names that were not found (a refactor removed them) go to rec.missing."""
    missing = rec.missing
    counts = rec.counts
    with contextlib.ExitStack() as stack:
        w = rec.wrap

        # cli -> cli helpers: configuration and serialization
        for attr in ("load_config_file", "_build_loop_config", "_sweep_grid", "DrsSimConfig"):
            _rebind(stack, cli, attr, w("cli.config", getattr(cli, attr, None)), missing)

        def count_csv(_result, args, _kwargs):
            with open(args[0], "rb") as fh:
                data = fh.read()
            counts["cli.write.bytes"] += len(data)
            # data rows: lines that are neither "# " metadata nor the header
            counts["cli.write.rows"] += sum(1 for ln in data.split(b"\n") if ln and not ln.startswith(b"# ")) - 1

        def count_json(_result, args, kwargs):
            path, payload = args[0], (args[1] if len(args) > 1 else kwargs["payload"])
            counts["cli.write.bytes"] += os.path.getsize(path)
            counts["cli.write.rows"] += len(payload.get("rows", ()))

        _rebind(stack, cli, "write_csv", w("cli.write", cli.write_csv, count_csv), missing)
        _rebind(stack, cli, "write_json", w("cli.write", cli.write_json, count_json), missing)

        # cli -> sim entry points
        _rebind(stack, cli, "run_market_loop", w("sim.market_loop", cli.run_market_loop), missing)
        _rebind(stack, cli, "run_drs_simulation", w("sim.drs", cli.run_drs_simulation), missing)
        _rebind(stack, cli, "sweep_retention", w("sim.sweep", cli.sweep_retention), missing)
        _rebind(stack, cli, "sweep_il", w("sim.sweep", cli.sweep_il), missing)

        # sim -> its own generator factory, proxied to count draws
        traced_rng = w("sim.replication_rng", sim.replication_rng)
        _rebind(
            stack,
            sim,
            "replication_rng",
            lambda seed, replication: TracedGenerator(traced_rng(seed, replication), rec),
            missing,
        )

        # sim -> pool
        for attr, name in (
            ("Pool", "pool.Pool"),
            ("spot_price", "pool.spot_price"),
            ("swap_x_for_y", "pool.swap"),
            ("swap_y_for_x", "pool.swap"),
        ):
            _rebind(stack, sim, attr, w(name, getattr(sim, attr)), missing)
        closed = {
            attr: w("pool.closed_form", getattr(pool, attr))
            for attr in ("retention_ratio", "depleted_reserves")
        }
        _rebind(stack, sim, "pool_mod", _Namespace(pool, closed), missing)

        # sim -> il
        il_calls = {
            attr: w(f"il.{attr}", getattr(il, attr))
            for attr in ("il_traditional", "il_proposed_scaled", "il_powerlaw_exact")
        }
        _rebind(stack, sim, "il_mod", _Namespace(il, il_calls), missing)

        # sim -> fees
        def note_rebate_input(_result, args, kwargs):
            ctx = args[0]
            rho_max = args[1] if len(args) > 1 else kwargs.get("rho_max")
            rec.rebate_inputs.add((ctx.current_volume, ctx.target_volume, rho_max))

        def count_payouts(result, _args, _kwargs):
            counts["fees.settle_epoch.payouts"] += len(result)

        for attr, name, after in (
            ("classify_regime", "fees.classify_regime", None),
            ("compute_fee", "fees.compute_fee", None),
            ("RebateContext", "fees.RebateContext", None),
            ("dynamic_rebate", "fees.dynamic_rebate", note_rebate_input),
            ("split_fee", "fees.split_fee", None),
            ("settle_epoch", "fees.settle_epoch", count_payouts),
        ):
            _rebind(stack, sim, attr, w(name, getattr(sim, attr), after), missing)

        ledger_cls = sim.EpochLedger
        traced_ledger = type(
            "EpochLedger",
            (ledger_cls,),
            {"record": w("fees.ledger.record", ledger_cls.record)},
        )
        _rebind(stack, sim, "EpochLedger", traced_ledger, missing)

        yield


def _per(numer_ns: int, denom: int) -> float:
    """Microseconds per unit; 0.0 when the layer did no work on this workload."""
    return numer_ns / denom / 1e3 if denom else 0.0


def layer_metrics(rec: Recorder, items: int, slowdown: float) -> tuple[dict, dict]:
    """Per-layer (counts, values) for one traced iteration. items is the
    workload's unit of work (trades, replication-days, or rows written);
    times are divided by the iteration's slowdown, giving reference time."""
    calls = rec.calls
    counts = {
        "pool.swap.calls": calls("pool.swap"),
        "pool.swap.rejected": rec.errors[("pool.swap", "TradeTooLarge")],
        "pool.spot_price.calls": calls("pool.spot_price"),
        "pool.Pool.calls": calls("pool.Pool"),
        "pool.slippage_first_order.calls": calls("pool.slippage_first_order"),
        "pool.closed_form.calls": calls("pool.closed_form"),
        "il.calls": sum(calls(f"il.{f}") for f in ("il_traditional", "il_proposed_scaled", "il_powerlaw_exact")),
        "fees.compute_fee.calls": calls("fees.compute_fee"),
        "fees.split_fee.calls": calls("fees.split_fee"),
        "fees.dynamic_rebate.calls": calls("fees.dynamic_rebate"),
        "fees.dynamic_rebate.distinct_inputs": len(rec.rebate_inputs),
        "fees.classify_regime.calls": calls("fees.classify_regime"),
        "fees.ledger.record.calls": calls("fees.ledger.record"),
        "fees.settle_epoch.payouts": rec.counts["fees.settle_epoch.payouts"],
        "sim.rng.calls": rec.counts["sim.rng.calls"],
        "sim.rng.draws": rec.counts["sim.rng.draws"],
        "sim.replication_rng.calls": calls("sim.replication_rng"),
        "cli.write.bytes": rec.counts["cli.write.bytes"],
        "cli.write.rows": rec.counts["cli.write.rows"],
    }
    total, self_ns = rec.total_ns, rec.self_ns
    loop_items = items if calls("sim.market_loop") else 0
    drs_items = items if calls("sim.drs") else 0
    sweep_items = items if calls("sim.sweep") else 0
    times = {
        "pool.swap.us_per_call": _per(total("pool.swap"), counts["pool.swap.calls"]),
        "pool.spot_price.us_per_call": _per(total("pool.spot_price"), counts["pool.spot_price.calls"]),
        "pool.Pool.us_per_call": _per(total("pool.Pool"), counts["pool.Pool.calls"]),
        "pool.slippage_first_order.us_per_call": _per(
            total("pool.slippage_first_order"), counts["pool.slippage_first_order.calls"]
        ),
        "pool.closed_form.us_per_call": _per(total("pool.closed_form"), counts["pool.closed_form.calls"]),
        **{
            f"il.{f}.us_per_call": _per(total(f"il.{f}"), calls(f"il.{f}"))
            for f in ("il_traditional", "il_proposed_scaled", "il_powerlaw_exact")
        },
        "fees.compute_fee.us_per_call": _per(total("fees.compute_fee"), counts["fees.compute_fee.calls"]),
        "fees.split_fee.us_per_call": _per(total("fees.split_fee"), counts["fees.split_fee.calls"]),
        "fees.dynamic_rebate.us_per_call": _per(
            total("fees.dynamic_rebate") + total("fees.RebateContext"),
            counts["fees.dynamic_rebate.calls"],
        ),
        "fees.ledger.record.us_per_call": _per(total("fees.ledger.record"), counts["fees.ledger.record.calls"]),
        "fees.settle_epoch.us_per_payout": _per(
            total("fees.settle_epoch"), counts["fees.settle_epoch.payouts"]
        ),
        "sim.rng.us_per_draw": _per(total("sim.rng"), counts["sim.rng.draws"]),
        "sim.replication_rng.us_per_call": _per(
            total("sim.replication_rng"), counts["sim.replication_rng.calls"]
        ),
        "sim.market_loop.self_us_per_trade": _per(self_ns("sim.market_loop"), loop_items),
        "sim.drs.self_us_per_day": _per(self_ns("sim.drs"), drs_items),
        "sim.sweep.self_us_per_row": _per(self_ns("sim.sweep"), sweep_items),
        "cli.config_s": total("cli.config") / 1e9,
        "cli.write_s": total("cli.write") / 1e9,
        "cli.write.us_per_row": _per(total("cli.write"), counts["cli.write.rows"]),
        "cli.self_s": self_ns("cli.main") / 1e9,
    }
    values = {name: t / slowdown for name, t in times.items()}
    values["fees.dynamic_rebate.distinct_input_ratio"] = (
        counts["fees.dynamic_rebate.distinct_inputs"] / counts["fees.dynamic_rebate.calls"]
        if counts["fees.dynamic_rebate.calls"]
        else 0.0
    )
    return counts, values
