"""Tier-1 wiring for ``benchmarks/bench_service.py``.

The service benchmark's smoke mode asserts, at 16 concurrent point
queries, that batched results match the sequential run and the plaintext
oracle, that telemetry byte accounting equals the network counters
exactly, and that batched modelled-latency throughput is at least 2x
sequential.  Running it here keeps the bench honest in CI without
paying full benchmark cost.

The full sweep runs on the modelled clock, so everything it reports but
the wall-clock columns is a function of the seed: it must regenerate the
committed ``BENCH_service.json`` — bytes, messages, modelled seconds and
batcher counters — value for value.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_service.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_service", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_wall_seconds(value):
    if isinstance(value, dict):
        return {
            key: _without_wall_seconds(item)
            for key, item in value.items()
            if key != "wall_seconds"
        }
    if isinstance(value, list):
        return [_without_wall_seconds(item) for item in value]
    return value


def test_check_mode_passes():
    """run_check() raises AssertionError on any service-layer regression."""
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
    assert "speedup >= 2x" in result.stdout


def test_committed_report_is_what_the_sweep_regenerates(tmp_path, capsys):
    bench = _load_bench()
    output = tmp_path / "BENCH_service.json"
    assert bench.main(["--output", str(output)]) == 0
    capsys.readouterr()  # the sweep echoes its report
    regenerated = _without_wall_seconds(json.loads(output.read_text()))
    committed = _without_wall_seconds(json.loads(bench.RESULT_PATH.read_text()))
    assert regenerated == committed, (
        "BENCH_service.json is stale: rerun "
        "`python benchmarks/bench_service.py` and commit the result"
    )
    # the headline rows, so a drift names itself in the diff
    levels = committed["sweep"]["levels"]
    assert [level["concurrency"] for level in levels] == list(
        bench.CONCURRENCY_SWEEP
    )
    assert all(
        level["batched"]["batcher"]["max_batch"] == level["concurrency"]
        for level in levels
    )
