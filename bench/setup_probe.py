"""Time one workload's set-up in a fresh interpreter.

    python3 setup_probe.py <src dir> <workload> <JSON args>
    python3 setup_probe.py <src dir> reference '[]'

Set-up is what a user pays before the first unit of work: importing
powerlaw_amm.cli (and numpy with it), parsing the command line and building
and validating the workload's config objects. For quotes it is the import
and the first Pool. The reference probe imports numpy alone; it does not
touch the package, and its time tracks the host's speed at import-type work.
Prints {"setup_s": ..., "module": ...} as JSON. Nothing is imported before
the clock starts except what the interpreter has already loaded.
"""

import sys
import time

start = time.perf_counter()

import json  # noqa: E402

src, workload, args = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])

if workload == "reference":
    import numpy  # noqa: E402

    print(json.dumps({"setup_s": time.perf_counter() - start, "module": numpy.__file__}))
    sys.exit(0)

sys.path.insert(0, src)

import powerlaw_amm as pa  # noqa: E402
from powerlaw_amm import cli  # noqa: E402

if workload == "quotes":
    pa.Pool(*args)
else:
    parsed = cli.build_parser().parse_args(args)
    with open(parsed.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if workload == "market-loop":
        stream = pa.TradeStreamConfig(**config.pop("stream"))
        pa.MarketLoopConfig(seed=parsed.seed, stream=stream, **config)
    elif workload == "drs-mc":
        pa.DrsSimConfig(seed=parsed.seed, **config)
    # sweeps: the grid is built inside the command, so set-up is import and parse

elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": cli.__file__}))
