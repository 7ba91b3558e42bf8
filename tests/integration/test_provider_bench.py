"""Tier-1 wiring for ``benchmarks/bench_provider.py --check``.

The provider storage benchmark's smoke mode has two halves.  The
deterministic one — the full read-RPC result-equality battery against a
faithful copy of the pre-overhaul naive row-store engine, cost-counter
parity between bulk- and incrementally-loaded providers, and scalar ==
numpy across the RPC battery — runs here.  The timed one (≥5× bulk load,
the backend's scan and SUM ratios, the incremental-load milliseconds) is
a ratio of two wall-clock timings and fails intermittently on a loaded
host, so tier-1 holds no wall-clock assertion: the CI bench-smoke job
runs plain ``--check`` and enforces both halves, and the pipeline's e2e
benchmark (``bulk_load``, ``analytics``, ``range_scan``) is the perf
tripwire.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_provider.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_provider", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_passes():
    """run_equality_check() raises AssertionError on any storage-engine
    result, cost or backend divergence."""
    _load_bench().run_equality_check()


def test_cli_check_flag(monkeypatch, capsys):
    """``--check`` runs the deterministic half, then the timed gates."""
    bench = _load_bench()
    timed = []
    monkeypatch.setattr(bench, "run_timed_gates", lambda: timed.append(True))
    assert bench.main(["--check"]) == 0
    assert timed == [True]
    assert "columnar == naive on all read RPCs" in capsys.readouterr().out
