"""Tier-1 wiring for ``benchmarks/bench_provider.py --check``.

The provider storage benchmark's smoke mode runs the full read-RPC
result-equality battery against a faithful copy of the pre-overhaul
naive row-store engine, asserts cost-counter parity between bulk- and
incrementally-loaded providers, and gates the columnar engine's two
headline speedups (≥5× bulk load, ≥2× filtered SUM at 50 000 rows).
Running it here keeps the bench honest in CI without paying the full
sweep's cost.  The scalar backend's ordered-range-scan ratio straddles
its 1.3× gate on a noisy host, so tier-1 measures it without enforcing
it, and the incremental-load bars are absolute milliseconds, so tier-1
skips that section; the CI bench-smoke job runs plain ``--check`` and
enforces both.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_provider.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_provider", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_passes():
    """run_check() raises AssertionError on any storage-engine regression."""
    _load_bench().run_check(scalar_scan_gate=False, incremental_gate=False)


def test_cli_check_flag():
    """The --check CLI entry point exits 0 and reports success."""
    result = subprocess.run(
        [
            sys.executable, str(BENCH_PATH), "--check",
            "--skip-scalar-scan-gate", "--skip-incremental-gate",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "columnar == naive on all read RPCs" in result.stdout
