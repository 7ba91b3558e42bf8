"""Tier-1 wiring for ``benchmarks/bench_resilience.py --check``.

The resilience benchmark's smoke mode asserts exact query results under
every (n−k)-crash pattern (including mid-round crashes), under any
⌊(n−k)/2⌋ tamperers with verified reads, and under combined
crash+tamper at the full failure budget; and that the fail-fast baseline
*does* fail (so the resilient path is doing real work).  Running it here
keeps the bench honest in CI without paying full benchmark cost.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_resilience.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_resilience", BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_passes():
    """run_check() raises AssertionError on any resilience regression."""
    _load_bench().run_check()


def test_cli_check_flag():
    """The --check CLI entry point exits 0 and reports success."""
    result = subprocess.run(
        [sys.executable, str(BENCH_PATH), "--check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "exact results under every (n-k)-crash pattern" in result.stdout
