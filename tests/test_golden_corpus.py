"""Golden corpus: SHA-256 of CLI runs away from the defaults.

bench/golden.py pins the five commands at their default seed and config.
These runs cover what the defaults miss: number cells in exponent notation
and at or above 1e17, a DRS run whose volume floor binds and one at
initial_volume 1e18, market loops with one trader, with rejected trades and
at n = 1, a market loop with no trade at all, one whose epochs with and
without a trade interleave, and JSON output. Each run is
a (name, argv, config, files) entry; its config is written to a JSON file
passed with --config, and every output goes to a relative --out name,
because the resolved config embedded in each file includes that name.

The sweeps are left out: their m grid comes from np.logspace, whose bits
depend on numpy's AVX-512 kernels, and this corpus must hold on any CPU.
test_cpu_independent_tests_pass_without_avx512 reruns it, with every other
test whose bits must hold on any CPU, in one child process with those
kernels switched off.

A change that moves an output on purpose re-pins PINNED by copying the
lines the failing test prints.
"""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from powerlaw_amm import pool, sim
from powerlaw_amm.cli import main

# (name, argv, config or None, files): "stdout" names what the command prints.
CORPUS = [
    ("quote-buy-tiny", ["quote", "--x", "1e-3", "--y", "2e-3", "--n", "4", "--buy-x", "--in", "1e-12"],
     None, ("stdout",)),
    ("quote-sell-huge", ["quote", "--x", "3e20", "--y", "7e21", "--n", "1", "--sell-x", "--in", "1e19",
                         "--fee", "0.003"], None, ("stdout",)),
    ("quote-sell-n8", ["quote", "--x", "1000", "--y", "10000", "--n", "8", "--sell-x", "--in", "2500",
                       "--fee", "0.01"], None, ("stdout",)),
    ("quote-buy-at-cap", ["quote", "--x", "5", "--y", "7", "--n", "2", "--buy-x", "--in", "70"],
     None, ("stdout",)),
    ("drs-json", ["simulate-drs", "--seed", "11", "--format", "json", "--out", "drs.json"],
     {"days": 60, "replications": 5}, ("drs.json",)),
    ("drs-floor-binds", ["simulate-drs", "--seed", "3", "--out", "drs.csv"],
     {"days": 80, "initial_volume": 20.0, "target_volume": 1e6, "noise_std": 1.5, "volume_floor": 10.0,
      "replications": 4}, ("drs.csv", "drs.summary.json")),
    ("drs-1e18", ["simulate-drs", "--out", "drs.csv"],
     {"days": 50, "initial_volume": 1e18, "target_volume": 1e18, "replications": 3}, ("drs.csv", "drs.summary.json")),
    ("drs-1e18-json", ["simulate-drs", "--format", "json", "--out", "drs.json"],
     {"days": 30, "initial_volume": 1e18, "target_volume": 2e18, "sensitivity": 0.2}, ("drs.json",)),
    ("drs-tiny", ["simulate-drs", "--seed", "5", "--out", "drs.csv"],
     {"days": 40, "initial_volume": 1e-6, "target_volume": 1e-6, "volume_floor": 1e-9, "noise_std": 0.3},
     ("drs.csv", "drs.summary.json")),
    ("drs-noise-free", ["simulate-drs", "--out", "drs.csv"],
     {"days": 120, "initial_volume": 2e5, "noise_std": 0.0, "sensitivity": 0.5}, ("drs.csv", "drs.summary.json")),
    ("drs-many-replications", ["simulate-drs", "--seed", "2024", "--out", "drs.csv"],
     {"days": 25, "replications": 300}, ("drs.csv", "drs.summary.json")),
    ("market-one-trader", ["market-loop", "--seed", "4", "--out", "ml.json"],
     {"epochs": 3, "periods_per_epoch": 10, "stream": {"num_traders": 1, "trades_per_period": 8.0}},
     ("ml.json", "ml.epochs.csv")),
    ("market-rejected", ["market-loop", "--seed", "9", "--out", "ml.json"],
     {"epochs": 2, "periods_per_epoch": 10, "n": 2,
      "stream": {"size_median_frac": 0.5, "size_sigma": 2.5, "trades_per_period": 6.0}},
     ("ml.json", "ml.epochs.csv")),
    ("market-n1", ["market-loop", "--seed", "21", "--out", "ml.json"],
     {"n": 1, "epochs": 3, "periods_per_epoch": 12, "stream": {"trades_per_period": 20.0, "num_traders": 7}},
     ("ml.json", "ml.epochs.csv")),
    ("market-n8", ["market-loop", "--seed", "8", "--out", "ml.json"],
     {"n": 8, "epochs": 2, "periods_per_epoch": 15, "vol_window": 4,
      "stream": {"trades_per_period": 12.0, "size_sigma": 1.5}},
     ("ml.json", "ml.epochs.csv")),
    ("market-json-huge", ["market-loop", "--seed", "1", "--format", "json", "--out", "ml.json"],
     {"x_reserve": 1e17, "y_reserve": 3e18, "epochs": 2, "periods_per_epoch": 8, "target_volume": 1e16},
     ("ml.json", "ml.epochs.csv")),
    ("market-tiny", ["market-loop", "--seed", "6", "--out", "ml.json"],
     {"x_reserve": 1e-3, "y_reserve": 2e-3, "epochs": 2, "periods_per_epoch": 8, "target_volume": 1e-5},
     ("ml.json", "ml.epochs.csv")),
    ("market-no-trades", ["market-loop", "--out", "ml.json"],
     {"epochs": 2, "periods_per_epoch": 5, "stream": {"trades_per_period": 0.0}}, ("ml.json", "ml.epochs.csv")),
    ("market-sparse", ["market-loop", "--seed", "12", "--out", "ml.json"],
     {"epochs": 200, "periods_per_epoch": 1, "stream": {"trades_per_period": 1.0, "num_traders": 3}},
     ("ml.json", "ml.epochs.csv")),
]

PINNED = {
    "quote-buy-tiny:stdout": "dcc378fb7df1c3f9a7e34073a9a2420882ed5c0d393cb37b3929545b6e12551f",
    "quote-sell-huge:stdout": "18be03f847a2dab41da2d7f29b3015f3b09b8cee7b4107b86776cf6eb5a36050",
    "quote-sell-n8:stdout": "08e170d8c00c64df46809bdf92856ccf1ebadcd037ce9e8e253afe6347918e01",
    "quote-buy-at-cap:stdout": "1de0295ddd390ece5d8397a3ca0b2397ff69593094ee3787c9cbb28b3197188f",
    "drs-json:drs.json": "59def79d62c5dd551582a04a74905da8b779f145d75893d23837afa69388c68f",
    "drs-floor-binds:drs.csv": "632b190cc24b7ef46c81d0d75b3f41269e211421628fa9f764d7cf84bf7e8911",
    "drs-floor-binds:drs.summary.json": "fa41d7653680fe2613526965819a2dc0154731c1e88c931583e8c7eeea0981c1",
    "drs-1e18:drs.csv": "877f763d582de185e988bd785f44478e03ad27e1de01ad0f5301899db20b3d2e",
    "drs-1e18:drs.summary.json": "f4e5d5a6ac10e3d3e88d0c79ea2c477a75ad8d962742e9ca2c04fb8a0659beb8",
    "drs-1e18-json:drs.json": "925555643143084b2f87c0d7312ce786e5d41c7a208f5232f4016af2fcb362c1",
    "drs-tiny:drs.csv": "6f7765eea15965fffb5b464820cb046002e3498ad879e64a89fa434120e20490",
    "drs-tiny:drs.summary.json": "529e16cb3c83a4bcdf3394b1406812961df68507801aa1361e43df80f18710bf",
    "drs-noise-free:drs.csv": "5207187ebbbbec42c21b4052bc3d08401692b7fa63098d065b14d66fd1d77807",
    "drs-noise-free:drs.summary.json": "30bbd243e7b022ee73c435f3ced4bb983e77d377cf1ef8c0c28ad655c4719856",
    "drs-many-replications:drs.csv": "9da91c7660d91ae2ffb6f8c26a8924526db92b307f13e3d9978c4ccfcc947fe1",
    "drs-many-replications:drs.summary.json": "8a1e7d0fcd573b5766bf8bfd6861441b6f857403f2e2bb909b6da4a128e3ef18",
    "market-one-trader:ml.json": "d5c125883ceaf19cf678e28173184300ecf0bfb3573d3827af8dbc1ff3e1e38f",
    "market-one-trader:ml.epochs.csv": "3242556e42a285e3f61786ee4d1398d131b40eeea501ffc88d320ba0e58379e9",
    "market-rejected:ml.json": "3ac1c53ce370454bba83b9116b713bf818a5eda00395e7da8dc7df2574f04a61",
    "market-rejected:ml.epochs.csv": "6645a4a53e97c1a7c8f1255db53bea72dcfcd9f4ad19c259c2c8bc8054d11071",
    "market-n1:ml.json": "1b7a058608642540e1fb0909d3cefa38e003e4010d36a15809571565f14e7818",
    "market-n1:ml.epochs.csv": "77111ac0afb0fa713bb3a85a2114a11e0f4151bcb306955a0666145a5e4d635c",
    "market-n8:ml.json": "7ab9d9eb135f2a9ea68a88ee40d06d894ab482f27474d2353964a7562719e043",
    "market-n8:ml.epochs.csv": "953349a6b4058880faf2d0ad2e95a8ac64d0ceb9a973bc41dc379345a47b6f2e",
    "market-json-huge:ml.json": "64777cbdb0ef5d73f9ea0d509016782553f4003dfedf4c85aa321b7a11fb2527",
    "market-json-huge:ml.epochs.csv": "83c69fe8d51e6f658ea44e3ff9d434da622f5b0bfa141c617470ea0922df91f9",
    "market-tiny:ml.json": "b5187dc4fea6013b56ccc37c2684a7f25c99365f072dd00ce7fa1a630b8299e9",
    "market-tiny:ml.epochs.csv": "1502fc593f3cb7b7220d8e1e23e681c9eea1ee1b51c9314aa070ccb451c69178",
    "market-no-trades:ml.json": "933f582881e9b9cb7621dee6a6fa9560013fec5fc7979fadf8fb4d3f3e23b2ca",
    "market-no-trades:ml.epochs.csv": "f30a2b08addc44fc7aa49022f30481415e74aeeebbf3d8a457f95de657d99eb1",
    "market-sparse:ml.json": "22ff1e4cf6877d84f98a045e121d4b74f2ead7959f76dcd0561c49f0dc095721",
    "market-sparse:ml.epochs.csv": "079fcd56e1fafbd70b391884ff83f415c1f367a42d83b5ad4bdbc1c0e9511c1d",
}


def outputs() -> dict:
    """Run the corpus in the current directory; return "name:file" -> the
    bytes of each output, or "exit <code>" for a run that failed."""
    found = {}
    for name, argv, config, files in CORPUS:
        if config is not None:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [*argv, "--config", "config.json"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv)
        for file in files:
            key = f"{name}:{file}"
            if code != 0:
                found[key] = f"exit {code}"
            elif file == "stdout":
                found[key] = printed.getvalue().encode()
            else:
                with open(file, "rb") as fh:
                    found[key] = fh.read()
    return found


def mismatches(found: dict) -> dict:
    """"name:file" -> new digest, for each output whose digest is not pinned."""
    new = {key: hashlib.sha256(data).hexdigest() if isinstance(data, bytes) else data
           for key, data in found.items()}
    return {key: new.get(key) for key in PINNED.keys() | new.keys() if new.get(key) != PINNED.get(key)}


def test_corpus_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    moved = mismatches(outputs())
    assert not moved, "new digests, each with the pinned one after it:\n" + "\n".join(
        f'    "{key}": "{moved[key]}",  # pinned {PINNED.get(key)}' for key in sorted(moved)
    )


# The tests whose bits must not depend on numpy's AVX-512 kernels, which
# round differently from its baseline ones: the corpus, the quote stream's
# digest, the writer's number cells (which use no such kernel, and must go on
# using none) and the closed forms over arrays (np.float_power has no SIMD
# loop today).
CPU_INDEPENDENT = [
    "test_golden_corpus.py::test_corpus_matches_pinned_digests",
    "test_pool.py::TestQuoteStreamOracle::test_digest",
    "test_writer_oracle.py::test_kernel_writes_each_number_as_format_does",
    "test_writer_oracle.py::test_kernel_half_way_family_holds_ties",
    "test_writer_oracle.py::test_kernel_writes_strings_as_utf8",
    "test_array_closed_forms.py",
]

# Run in the child: check that numpy switched the named targets off, then run
# the given tests. -W error makes numpy's ImportWarning for a name it cannot
# disable an error.
_WITHOUT_TARGETS = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1].split() if __cpu_features__[name]]
if still_on:
    sys.exit(f"still dispatched: {still_on}")
sys.exit(pytest.main(sys.argv[2:]))
"""


# numpy functions whose float64 loops numpy dispatches to SIMD kernels
# (np.logspace calls np.power), and the one place in src/ that may use them
# until the sweep grid is built with libm's pow.
SIMD_DISPATCHED = {"log", "log10", "log1p", "exp", "expm1", "power", "logspace"}
SIMD_ALLOWED = "sim.SweepGridConfig.m_grid"


def _is_numpy(node) -> bool:
    """Whether node names numpy: np, numpy, or pool's _numpy()."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Name) and node.id == "_numpy"
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _numpy_uses(node, scope):
    """(scope, name) of each np.<name> in the tree of node, scope being the
    dotted module, class and function names around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Attribute) and _is_numpy(child.value):
            yield scope, child.attr
        yield from _numpy_uses(child, inner)


def test_src_uses_no_simd_dispatched_numpy_function():
    # Runs on every CPU, also where the AVX-512-off rerun below skips. It
    # sees each use of np.<name>, called or not, but not the ufunc behind an
    # operator: a ** b on arrays is np.power, and this cannot see it.
    package = Path(sim.__file__).parent
    found = [
        (scope, name)
        for path in sorted(package.glob("*.py"))
        for scope, name in _numpy_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if name in SIMD_DISPATCHED and scope != SIMD_ALLOWED
    ]
    assert not found


def test_cpu_independent_tests_pass_without_avx512(tmp_path):
    # CPU_INDEPENDENT in one child pytest whose numpy dispatches to none of
    # this CPU's AVX-512 targets, named as numpy names them
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [
        name
        for name in __cpu_dispatch__
        if (name == "X86_V4" or name.startswith("AVX512")) and __cpu_features__.get(name)
    ]
    if not targets:
        pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
    names = " ".join(targets)
    tests = Path(__file__).parent
    proc = subprocess.run(
        [
            sys.executable, "-W", "error", "-c", _WITHOUT_TARGETS, names,
            "-q", "-p", "no:cacheprovider", "--basetemp", str(tmp_path / "child"),
            *(str(tests / node) for node in CPU_INDEPENDENT),
        ],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": names},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_one_ulp_in_a_kernel_moves_the_corpus(tmp_path, monkeypatch):
    # every buy's new X reserve one ulp larger: each market loop that trades
    # must change, and nothing that never buys (a single quote's printed
    # values can round the ulp away)
    buy_x = pool._buy_x

    def nudged(x, y, n, dy_in, fee_rate):
        new_x, new_y, price, fee = buy_x(x, y, n, dy_in, fee_rate)
        return math.nextafter(new_x, math.inf), new_y, price, fee

    monkeypatch.setattr(pool, "_buy_x", nudged)
    monkeypatch.setattr(sim, "_buy_x", nudged)
    monkeypatch.chdir(tmp_path)
    moved = {key.split(":")[0] for key in mismatches(outputs())}
    loops = {name for name, argv, *_ in CORPUS if argv[0] == "market-loop"} - {"market-no-trades"}
    buys = {name for name, argv, *_ in CORPUS if "--buy-x" in argv}
    assert loops <= moved <= loops | buys


def test_runs_cover_what_they_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = outputs()
    text = b"".join(found.values()).decode()
    assert re.search(r"[0-9]e-0[5-9]", text) and re.search(r"[0-9]e\+(1[7-9]|2[0-9])", text)
    assert "\n4,10,10," in found["drs-floor-binds:drs.csv"].decode()  # both arms at the floor
    assert b"\n0,1e+18,1e+18," in found["drs-1e18:drs.csv"]
    metrics = {key.split(":")[0]: json.loads(data)["metrics"] for key, data in found.items()
               if key.endswith(":ml.json")}
    assert metrics["market-rejected"]["rejected_trades"] > 0
    assert metrics["market-no-trades"]["executed_trades"] == 0
    assert all(m["executed_trades"] > 100 for name, m in metrics.items() if name != "market-no-trades")
    sparse = found["market-sparse:ml.epochs.csv"].decode().splitlines()
    paid = {row.split(",")[0] for row in sparse if row[:1].isdigit()}
    assert 0 < len(paid) < len(metrics["market-sparse"]["epochs"])  # paid and unpaid epochs
    ledger = found["market-one-trader:ml.epochs.csv"].decode().splitlines()
    assert {row.split(",")[1] for row in ledger if row[:1].isdigit()} == {"t0"}
    for key in ("drs-json:drs.json", "drs-1e18-json:drs.json", "market-json-huge:ml.json"):
        assert json.loads(found[key])["config"]["format"] == "json"
