"""Bit-identity: the five CLI commands at their default seed and config
write exactly the outputs whose SHA-256 digests bench/golden.py pins."""

from powerlaw_amm.cli import main


def test_default_outputs_match_pinned_digests(tmp_path, monkeypatch, load_bench_module):
    # the commands write relative --out names, which the digests include
    monkeypatch.chdir(tmp_path)
    assert load_bench_module("golden").check(main) == []
