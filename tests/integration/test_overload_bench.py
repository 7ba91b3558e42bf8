"""Tier-1 wiring for ``benchmarks/bench_overload.py``.

The overload benchmark runs on the modelled clock and the deterministic
RNG, so both halves are cheap and exact: ``run_check()`` asserts the
overload gates (zero incorrect at 1x/4x, priority-ordered shedding, the
degradation ladder engaging, no goodput cliff, each crashed provider
quarantined as down and then sent no more requests), and the full sweep
must regenerate the committed
``BENCH_overload.json`` value for value — the file went stale once
(PR 10 → PR 22) with nothing to notice.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_overload.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_overload", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_passes():
    """run_check() raises AssertionError on any overload-gate regression."""
    _load_bench().run_check()


def test_committed_report_is_what_the_sweep_regenerates(tmp_path, capsys):
    bench = _load_bench()
    output = tmp_path / "BENCH_overload.json"
    assert bench.main(["--output", str(output)]) == 0
    capsys.readouterr()  # the sweep echoes its report
    regenerated = json.loads(output.read_text())
    committed = json.loads(bench.RESULT_PATH.read_text())
    assert regenerated == committed, (
        "BENCH_overload.json is stale: rerun "
        "`python benchmarks/bench_overload.py` and commit the result"
    )
    # the headline rows, so a drift names itself in the diff
    assert [run["load_factor"] for run in committed["loads"]] == list(
        bench.LOAD_SWEEP
    )
    assert all(run["incorrect"] == 0 for run in committed["loads"])
