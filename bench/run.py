"""powerlaw-amm benchmark.

    python3 bench/run.py --workload market-loop --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; the package is imported from ./src (it need
not be installed). --trace 0 measures the end-to-end metrics with tracing
off; --trace 1 alternates untraced and traced iterations and reports the
per-layer metrics and the tracing overhead. The metric names and units come
from BENCHMARK.json. Human-readable lines go to stdout first; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
Results, digests and an environment sidecar are written under bench/out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import golden
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
MIN_ITERATIONS = 3  # untraced iterations per --trace 0 run
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per --trace 1 run, so counts can be compared
TIME_CAP_S = 150.0  # no new iteration starts past this, whatever the minimums say

# The host's CPU speed drifts by tens of percent over seconds to minutes, so
# every iteration is bracketed by a fixed loop that does not touch the
# package. Its median time over the bracket, divided by its time on an
# uncontended core of the reference machine, is the iteration's slowdown;
# dividing the iteration's seconds by it gives reference seconds. The loop
# mixes what the workloads do (objects with a __dict__, method calls, a
# string-keyed dict, math, float formatting, scalar numpy draws), because a
# tight loop over slotted objects tracks their slowdown less well.
CAL_STEPS = 2_000
CAL_SAMPLES = 3  # before and after each iteration
CAL_REFERENCE_S = 0.006  # Intel Xeon at 2.1 GHz, CPython 3.11, numpy 2.4, no contention
# Set-up is mostly loading numpy's files and extension modules, which the
# loop above does not track. Each set-up sample is paired with a fresh
# interpreter importing numpy alone; this is that import's time on the
# reference machine (numpy 2.4, page cache warm, no contention).
SETUP_REFERENCE_S = 0.12
_CAL_KEYS = [f"k{i}" for i in range(1000)]


class _Trade:
    def __init__(self, size, price):
        self.size = size
        self.price = price

    def value(self):
        return self.size * self.price


def calibration_times() -> list:
    times = []
    rng = np.random.default_rng(0)
    gc.disable()
    try:
        for _ in range(CAL_SAMPLES):
            start = time.perf_counter()
            book, acc, out = {}, 0.0, []
            for i in range(CAL_STEPS):
                trade = _Trade(rng.random() + 1.0, math.exp(-1e-3 * (i & 15)))
                acc += trade.value()
                key = _CAL_KEYS[int(rng.integers(0, 1000))]
                book[key] = book.get(key, 0.0) + acc
                if i & 3 == 0:
                    out.append(format(acc, ".17g"))
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def calibrated_run(workload, rec):
    """workload.run(rec) with its slowdown against the reference machine."""
    before = calibration_times()
    outcome = workload.run(rec)
    outcome.slowdown = statistics.median(before + calibration_times()) / CAL_REFERENCE_S
    return outcome


class ProgramMissing(Exception):
    """The checkout does not hold the package this benchmark measures."""


def load_program():
    package = SRC / "powerlaw_amm"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"{package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import powerlaw_amm
    from powerlaw_amm import cli, il, pool, sim

    if Path(powerlaw_amm.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported powerlaw_amm from {powerlaw_amm.__file__}, not {package}")
    return cli, il, pool, sim


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units, and why each workload exists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


def _probe(name: str, args: list, workdir: Path, problems: list):
    """Run setup_probe.py once; return its parsed output, or None on failure."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), name, json.dumps(args)],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        problems.append(f"setup probe {name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload, workdir: Path, problems: list):
    """Time set-up once in a fresh interpreter, then the reference probe
    (numpy's import alone) right after it. Returns (seconds, slowdown), or
    None on failure."""
    sample = _probe(workload.name, workload.probe_args(), workdir, problems)
    reference = _probe("reference", [], workdir, problems)
    if sample is None or reference is None:
        return None
    if Path(sample["module"]).resolve().parent != (SRC / "powerlaw_amm").resolve():
        problems.append(f"setup probe imported {sample['module']}")
    return sample["setup_s"], reference["setup_s"] / SETUP_REFERENCE_S


def measure(workload, seconds: float, trace: bool, modules, probe) -> tuple[list, list, list, float]:
    """Closed loop until --seconds would be exceeded: untraced iterations, or
    (untraced, traced) pairs when trace is set. probe() times set-up once; it
    runs after each iteration until SETUP_SAMPLES are taken, so the samples
    spread over the run like the iterations do. Returns (untraced, traced,
    recorders, peak RSS in MiB after the first iteration). Later iterations
    are left out of the peak because heap fragmentation then varies."""
    cli, il, pool, sim = modules
    plain, traced, recorders, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        gc.collect()
        plain.append(calibrated_run(workload, None))
        if len(plain) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            gc.collect()
            rec = tracing.Recorder()
            with tracing.traced(rec, cli, sim, pool, il):
                traced.append(calibrated_run(workload, rec))
            recorders.append(rec)
        probe()
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = len(walls) >= (MIN_TRACED_PAIRS if trace else MIN_ITERATIONS)
        if elapsed + statistics.median(walls) > (seconds if enough else TIME_CAP_S):
            return plain, traced, recorders, peak_rss_mib


def compare_with_earlier(path: Path, record: dict, what: str, problems: list):
    """Record is deterministic for (workload, seed): an earlier run of this
    checkout must have written the same, or this is the first run."""
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != record:
            problems.append(f"{what} differ from an earlier run with this seed ({path.name})")
            return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    try:
        modules = load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    cli, _il, pool, _sim = modules
    spec = load_spec()
    catalog = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    stem = f"{args.workload}-seed{args.seed}"
    problems: list[str] = []
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        problems += golden.check(cli.main)  # also warms imports and first calls
        workload = workloads.make(args.workload, args.seed, cli, pool)
        setup: list[tuple] = []  # (seconds, slowdown)

        def probe():
            if len(setup) < SETUP_SAMPLES:
                sample = probe_setup(workload, workdir, problems)
                if sample:
                    setup.append(sample)

        plain, traced, recorders, peak_rss_mib = measure(workload, args.seconds, bool(args.trace), modules, probe)
        while len(setup) < SETUP_SAMPLES and not problems:
            probe()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    runs = plain + traced
    attempted = sum(o.attempted for o in runs)
    failed = sum(o.failed for o in runs)
    for o in runs:
        problems += o.problems
    digests = runs[0].digests
    if any(o.digests != digests for o in runs):
        problems.append("output digests differ between iterations or between traced and untraced runs")
    compare_with_earlier(
        OUT / f"{stem}.digests.json",
        {"workload": args.workload, "seed": args.seed, "outputs": digests},
        "output digests",
        problems,
    )

    rates = [o.items / o.seconds for o in plain if o.items and o.seconds > 0]
    ref_rates = [o.items * o.slowdown / o.seconds for o in plain if o.items and o.seconds > 0]
    summary = {
        "iterations": len(plain),
        "items_per_iteration": plain[0].items,
        "iteration_seconds": [o.seconds for o in plain],
        "iteration_slowdown": [o.slowdown for o in plain],
        "items_per_wall_s": statistics.median(rates) if rates else 0.0,
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }
    if plain[0].latencies_ns is not None:
        lat = np.concatenate([np.frombuffer(o.latencies_ns, dtype=np.int64) / (1e3 * o.slowdown) for o in plain])
        summary.update(
            quote_p50_us=float(np.percentile(lat, 50)),
            quote_p99_us=float(np.percentile(lat, 99)),
            quote_samples=int(lat.size),
            quotes_rejected=sum(o.rejected for o in plain),
        )

    values: dict = {}
    extra: dict = {}
    if args.trace:
        layers = [tracing.layer_metrics(rec, o.items, o.slowdown) for rec, o in zip(recorders, traced)]
        counts = layers[0][0]
        if any(c != counts for c, _t in layers):
            problems.append("per-layer counts differ between traced iterations")
        compare_with_earlier(
            OUT / f"{stem}.counts.json",
            {"workload": args.workload, "seed": args.seed, "counts": counts},
            "per-layer counts",
            problems,
        )
        values.update(counts)
        for name in layers[0][1]:
            values[name] = statistics.median(t[name] for _c, t in layers)
        values["trace.overhead_frac"] = (
            statistics.median(o.seconds / o.slowdown for o in traced)
            / statistics.median(o.seconds / o.slowdown for o in plain)
            - 1.0
        )
        extra = {"spans": recorders[-1].edge_table(), "missing_spans": recorders[-1].missing}
    else:
        values["items_per_s"] = statistics.median(ref_rates) if ref_rates else 0.0
        values["setup_s"] = statistics.median(t / slow for t, slow in setup) if setup else 0.0
        values["peak_rss_mib"] = peak_rss_mib
        summary["items_per_s_quartiles"] = statistics.quantiles(ref_rates, n=4) if len(ref_rates) > 1 else ref_rates
        summary["setup_samples"] = setup
        summary["setup_wall_s"] = statistics.median(t for t, _slow in setup) if setup else 0.0

    missing_metrics = sorted(set(catalog) - set(values))
    if missing_metrics:
        problems.append(f"metrics not produced: {missing_metrics}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in catalog.items()}
    correct = failed == 0 and not problems

    stem_t = f"{stem}-trace{args.trace}"
    with open(OUT / f"{stem_t}.env.json", "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)
        fh.write("\n")
    with open(OUT / f"{stem_t}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "correct": correct,
                "problems": problems,
                "metrics": metrics,
                "summary": summary,
                "digests": digests,
                "environment": f"{stem_t}.env.json",
                **extra,
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    print_summary(args, why, metrics, summary, problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_summary(args, why: str, metrics: dict, summary: dict, problems: list):
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace}): {why}")
    print(
        f"   {summary['iterations']} untraced iterations of {summary['items_per_iteration']} items;"
        f" failed_frac = {summary['failed_frac']:.6g} ({summary['failed']} of {summary['attempted']} operations)"
    )
    print(f"   items_per_wall_s = {summary['items_per_wall_s']:.6g} 1/s (wall clock, not corrected for host speed)")
    if "quote_p50_us" in summary:
        print(
            f"   quote_p50_us = {summary['quote_p50_us']:.4f} us   quote_p99_us = {summary['quote_p99_us']:.4f} us"
            f"   ({summary['quote_samples']} quotes, {summary['quotes_rejected']} rejected as TradeTooLarge)"
        )
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"   PROBLEM: {problem}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
