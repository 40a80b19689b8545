"""Bit-identity: the five CLI commands at their default seed and config
write exactly the outputs whose SHA-256 digests bench/golden.py pins."""

import types
from pathlib import Path

from powerlaw_amm.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "golden.py"


def load_golden() -> types.ModuleType:
    """bench/golden.py as a module, read from its source (no bytecode is
    written beside it)."""
    module = types.ModuleType("golden")
    module.__file__ = str(GOLDEN_PATH)
    source = GOLDEN_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(GOLDEN_PATH), "exec"), module.__dict__)
    return module


def test_default_outputs_match_pinned_digests(tmp_path, monkeypatch):
    # the commands write relative --out names, which the digests include
    monkeypatch.chdir(tmp_path)
    assert load_golden().check(main) == []
