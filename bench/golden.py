"""Golden outputs: SHA-256 of what the five CLI commands write at their
default seed and config.

A change that keeps these digests kept the program's outputs bit-identical.
A change that alters outputs on purpose (a new randomness contract, a
schema_version bump) updates PINNED in the same change and says so.

Every command writes to a relative --out name in the current directory,
because the resolved config embedded in each file includes the --out path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

# (argv, files it writes); "stdout" names the text the command prints.
COMMANDS = (
    (["quote", "--x", "100", "--y", "100", "--n", "4", "--buy-x", "--in", "100", "--fee", "0.01"], ("stdout",)),
    (["sweep-retention", "--out", "sweep_retention.csv"], ("sweep_retention.csv",)),
    (["sweep-il", "--out", "sweep_il.csv"], ("sweep_il.csv",)),
    (["simulate-drs", "--out", "drs.csv"], ("drs.csv", "drs.summary.json")),
    (["market-loop", "--out", "market_loop.json"], ("market_loop.json", "market_loop.epochs.csv")),
)

PINNED = {
    "quote:stdout": "6595442deed712e66131f74ddf8e98fa5c96e1e0b4965633e7588885262a17d6",
    "sweep-retention:sweep_retention.csv": "aa41ab356daf4db5de7c0580e75fdb736910798e7315a6d4dd466fc00d1f55a2",
    "sweep-il:sweep_il.csv": "7cab9539259c7b333633cd9949fe2a0e021fef84aef62b66d817b01495f83567",
    "simulate-drs:drs.csv": "184782a7851775d53b03224fd1c1e9600ed6365b91b4ef332b4061edb856705d",
    "simulate-drs:drs.summary.json": "3ddb40e08a86404c9fd9105cbd50936a734a23045ecb6f90660a592ac19831c4",
    "market-loop:market_loop.json": "f83cff1db6725e970b0e7bd2db0c88e922c04c12df65ddb739fa7780c9369393",
    "market-loop:market_loop.epochs.csv": "9ee70013f09d750108c5ebf56445f560d1fb8100c0c8a1e4137718f6f43baeeb",
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(main) -> dict[str, str]:
    """Run the five commands in the current directory; return name -> SHA-256.
    A command that exits nonzero is recorded as "exit <code>"."""
    found = {}
    for argv, files in COMMANDS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv)
        for name in files:
            key = f"{argv[0]}:{name}"
            if code != 0:
                found[key] = f"exit {code}"
            elif name == "stdout":
                found[key] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
            else:
                found[key] = sha256_file(name)
                os.remove(name)
    return found


def check(main) -> list[str]:
    """Messages for every output whose digest differs from PINNED."""
    found = digests(main)
    return [
        f"golden {key}: got {found.get(key)}, pinned {want}"
        for key, want in PINNED.items()
        if found.get(key) != want
    ] + [f"golden {key}: not pinned" for key in found if key not in PINNED]
