"""Tier-1 wiring for ``benchmarks/bench_hotpath.py --check``.

The hot-path benchmark ships a smoke mode that asserts the batched
kernels are bit-identical to the naive reference paths at tiny sizes.
Loading the benchmark module from its file path (benchmarks/ is not a
package) and running that mode here keeps the bench honest in CI without
paying full benchmark cost.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_hotpath.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_hotpath", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_passes():
    """run_check() raises AssertionError on any kernel/naive divergence.

    The response path's wall-clock bar against the parent's frozen
    numbers is the CI bench-smoke job's (plain ``--check``); byte parity
    and exact rows are asserted here too.
    """
    _load_bench().run_check(response_path_gate=False)


def test_cli_check_flag():
    """The --check CLI entry point exits 0 and reports success."""
    result = subprocess.run(
        [sys.executable, str(BENCH_PATH), "--check", "--skip-response-path-gate"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "bit-identical" in result.stdout
