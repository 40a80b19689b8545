"""Shared fixtures: benchmark files under bench/ loaded as modules, and a
pytest run in a child process with numpy's AVX-512 kernels switched off."""

import os
import subprocess
import sys
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


def _avx512_targets() -> list:
    """The AVX-512 targets numpy dispatches to on this CPU, by numpy's own names."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [
        name
        for name in __cpu_dispatch__
        if (name == "X86_V4" or name.startswith("AVX512")) and __cpu_features__.get(name)
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


@pytest.fixture
def run_without_avx512(tmp_path):
    """Run pytest on the given arguments in a child process whose numpy
    dispatches to none of this CPU's AVX-512 targets (NPY_DISABLE_CPU_FEATURES),
    and fail unless it passes. Skips on a CPU with no such target."""

    def run(*args: str):
        targets = _avx512_targets()
        if not targets:
            pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
        names = " ".join(targets)
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-c", _WITHOUT_TARGETS, names,
                "-q", "-p", "no:cacheprovider", "--basetemp", str(tmp_path / "child"), *args,
            ],
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": names},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    return run
