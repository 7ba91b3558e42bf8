"""Tier-1 wiring for ``benchmarks/bench_txn.py``: its full sweep counts
bytes and messages on the simulated network with a seeded RNG, takes
about a second, and must regenerate the committed ``BENCH_txn.json``
value for value — the file was once committed at ``--rows 200`` while
the script and CI regenerate it at the default 400.
"""

import importlib.util
import json
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_txn.py"


def test_committed_report_is_what_the_sweep_regenerates(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_txn", BENCH_PATH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    output = tmp_path / "BENCH_txn.json"
    assert bench.main(["--output", str(output)]) == 0
    capsys.readouterr()  # the sweep echoes its report
    assert json.loads(output.read_text()) == json.loads(bench.RESULT_PATH.read_text()), (
        "BENCH_txn.json is stale: rerun `python benchmarks/bench_txn.py` and commit the result"
    )
