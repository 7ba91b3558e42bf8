"""Tier-1 wiring for ``benchmarks/bench_resilience.py --check``.

The resilience benchmark's smoke mode asserts exact query results under
every (n−k)-crash pattern (including mid-round crashes), under any
⌊(n−k)/2⌋ tamperers with verified reads, and under combined
crash+tamper at the full failure budget; and that the fail-fast baseline
*does* fail (so the resilient path is doing real work).  Running it here
keeps the bench honest in CI without paying full benchmark cost.  The
full sweep is deterministic and takes a few seconds, so it must also
regenerate the committed ``BENCH_resilience.json`` value for value — the
file once drifted for sixteen PRs with nothing to notice.
"""

import importlib.util
import json
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


def test_committed_report_is_what_the_sweep_regenerates(tmp_path, capsys):
    bench = _load_bench()
    output = tmp_path / "BENCH_resilience.json"
    assert bench.main(["--output", str(output)]) == 0
    capsys.readouterr()  # the sweep echoes its report
    regenerated = json.loads(output.read_text())
    committed = json.loads(bench.RESULT_PATH.read_text())
    assert regenerated == committed, (
        "BENCH_resilience.json is stale: rerun "
        "`python benchmarks/bench_resilience.py` and commit the result"
    )
    # the headline: the resilient client answers everything, exactly
    for level in committed["levels"]:
        assert level["resilient"]["availability"] == 1.0
        assert level["resilient"]["correctness"] == 1.0
