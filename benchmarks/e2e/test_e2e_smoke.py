"""Smoke tests of the end-to-end benchmark (``python -m pytest benchmarks/e2e``).

Not named ``bench_*.py`` and outside ``testpaths``, so neither tier-1 nor
``pytest benchmarks/ --benchmark-only`` collects it.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    done = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(os.path.join(HERE, "out", "results.json"), encoding="utf-8") as handle:
        return json.load(handle), elapsed


def test_smoke_finishes_all_six_workloads_in_time(smoke):
    results, elapsed = smoke
    assert elapsed < 30
    assert list(results["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    assert list(results["workloads"]) == [w.name for w in workloads.WORKLOADS]
    assert {"kernel_backend", "python", "numpy", "nproc", "commit"} <= set(results["env"])


def test_every_named_metric_is_emitted_finite_with_its_unit(smoke):
    results, _ = smoke
    for name, run in results["workloads"].items():
        assert run["correct"] and run["failed"] == 0, run["problems"]
        assert run["diagnostics"]["error_rate"]["value"] == 0
        for section in ("end_to_end", "per_layer"):
            emitted = run[section]
            assert list(emitted) == [m["name"] for m in CONTRACT[section]], (name, section)
            for metric in CONTRACT[section]:
                reading = emitted[metric["name"]]
                assert NAME.fullmatch(metric["name"])
                assert reading["unit"] == metric["unit"], metric["name"]
                assert math.isfinite(reading["value"]), (name, metric["name"])
        for reading in run["end_to_end"].values():
            assert reading["value"] > 0  # the contract wants end-to-end metrics never 0
        assert run["per_layer"]["trace.coverage"]["value"] >= 0.9


def test_cache_bypassing_workloads_never_hit_the_row_cache(smoke):
    results, _ = smoke
    for name in ("point_lookup", "range_scan"):
        layer = results["workloads"][name]["per_layer"]
        assert layer["client.rowcache.query_hit_ratio"]["value"] == 0
        assert layer["client.rowcache.row_hit_ratio"]["value"] == 0
    assert results["workloads"]["oltp_mix"]["per_layer"][
        "client.rowcache.query_hit_ratio"]["value"] > 0


def test_last_line_is_the_drivers_json_object():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, RUN, "--smoke", "--workload", "analytics", "--seed", "7",
             "--seconds", "6", "--trace", str(trace)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in CONTRACT[section]]
        for name, reading in last["metrics"].items():
            assert set(reading) == {"value", "unit"}, name


@pytest.mark.parametrize("workload", ["point_lookup", "oltp_mix", "bulk_load"])
def test_a_wrong_oracle_row_flips_the_exit_code(workload):
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", workload, "--corrupt-oracle"],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "PROBLEM" in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_same_seed_repeats_every_count_and_a_new_seed_keeps_the_mix():
    import random

    import harness

    workload = workloads.BY_NAME["oltp_mix"]
    runs = [
        harness.run_once(workload, seed, 0.6, os.path.join(HERE, "out"), n_rows=1_000,
                         timed_passes=1, traced=traced)
        for seed, traced in ((3, False), (3, True), (4, False))
    ]
    assert metrics.count_mismatches(runs[0], runs[1]) == []
    assert runs[0].counters != runs[2].counters
    assert [p.classes for p in runs[0].passes] == [p.classes for p in runs[2].passes]
    tables = workload.tables(1_000, 3)
    a = workload.batches(tables, random.Random(3), 100, 1)
    b = workload.batches(tables, random.Random(3), 100, 1)
    assert a == b


def test_thresholds_cover_their_range_evenly_in_every_pass():
    import random

    strata = workloads._Strata(random.Random(5), 4)
    for _ in range(3):  # three passes of four statements
        assert sorted(int(strata.draw() * 4) for _ in range(4)) == [0, 1, 2, 3]


def test_a_stall_on_one_chunk_does_not_speak_for_the_stretch():
    import harness

    host = harness.HostSpeed()
    host.chunks_s = [harness.REFERENCE_CHUNK_S] * 9 + [100 * harness.REFERENCE_CHUNK_S]
    assert host.slowdown == pytest.approx(1.1)  # the stalled chunk counts as 2x, not 100x
    slow = harness.Pass(wall_s=2.0, cpu_s=1.0, rows=10, latencies_s=[0.2] * 10,
                        classes=["point"] * 10, slowdown=2.0)
    assert slow.ref_wall_s == pytest.approx(1.0) and slow.ref_cpu_s == pytest.approx(0.5)


def test_traced_run_restores_every_patched_attribute():
    tracer = layers.Tracer()
    tracer.install()
    sites = tracer.patched_sites()
    assert layers.wrappers_installed()
    # the names bound at import are patched where they are looked up
    patched = {(getattr(holder, "__name__", ""), attribute) for holder, attribute, _ in sites}
    for module, attribute in (
        ("repro.client.datasource", "reconstruct_rows"),
        ("repro.client.datasource", "rewrite_predicate"),
        ("repro.client.datasource", "parse_sql"),
        ("repro.core.scheme", "reconstruct_integer"),
        ("repro.core.scheme", "batch_reconstruct"),
        ("repro.txn.manager", "parse_sql"),
        ("repro.service.sharding", "parse_sql"),
    ):
        assert (module, attribute) in patched
    for holder, attribute, original in sites:
        assert vars(holder)[attribute] is not original
    tracer.uninstall()
    assert not layers.wrappers_installed()
    for holder, attribute, original in sites:
        assert vars(holder)[attribute] is original


def test_a_vanished_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        layers, "TARGETS",
        layers.TARGETS + (("core.scheme", layers.SPAN, "repro.core.scheme:TableSharing", "gone"),),
    )
    tracer = layers.Tracer()
    with pytest.raises(layers.TraceTargetError, match="gone"):
        tracer.install()
    monkeypatch.undo()
    assert not tracer.patched_sites() and not layers.wrappers_installed()


def test_self_time_subtracts_the_union_of_children_across_threads():
    # root [0, 10] on thread 1; cluster [1, 9] hands off to two pool spans
    # [2, 6] and [4, 8] (union 6) and makes one same-thread send [8, 9]
    spans = [
        (3, "providers.provider", 2, 2.0, 6.0, 2, 0),
        (4, "providers.provider", 3, 4.0, 8.0, 2, 0),
        (5, "sim.network", 1, 8.0, 9.0, 2, 0),
        (2, "providers.cluster", 1, 1.0, 9.0, 1, 0),
        (1, "client.datasource", 1, 0.0, 10.0, 0, 0),
    ]
    accum = {(0, 1, "core.encoding"): [0.5, 5]}
    result = layers.analyse(spans, accum)
    assert result["self_s"]["providers.cluster"] == pytest.approx(1.0)  # 8 - (6 + 1)
    assert result["self_s"]["client.datasource"] == pytest.approx(1.5)  # 10 - 8 - 0.5
    assert result["self_s"]["providers.provider"] == pytest.approx(8.0)  # thread time
    assert result["busy_s"]["providers.provider"] == pytest.approx(8.0)
    assert result["wall_s"]["providers.provider"] == pytest.approx(6.0)  # wall it covered
    assert sum(result["wall_s"].values()) == pytest.approx(result["root_s"]) == 10.0
    assert result["calls"]["core.encoding"] == 5
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
