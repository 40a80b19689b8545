"""Shared fixture: benchmark files under bench/ loaded as modules."""

import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py as a module, read from its source (no bytecode is
    written beside it)."""
    path = BENCH_DIR / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    source = path.read_text(encoding="utf-8")
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def load_bench_module():
    return _load_bench_module

