"""Service-layer benchmark: sequential vs batched concurrent fan-out.

Sweeps concurrency 1 → 64 point queries over the Employees workload and
compares two executions of the *same* statement list:

* **sequential** — each query runs alone through ``DataSource.sql``:
  one fan-out per query, so N queries pay N provider rounds of modelled
  WAN latency;
* **batched** — all N queries are admitted concurrently through
  :class:`repro.service.QueryService` and coalesced by the fan-out
  batcher into combined rounds: ~1 round per provider per query phase,
  regardless of N.

Modelled-latency throughput (queries per modelled network second) is the
headline number; both modes also assert that the telemetry byte counters
equal the simulated network's own accounting exactly, so batching cannot
silently drop or double-count traffic.

Results go to ``BENCH_service.json`` at the repo root.  Run modes::

    python benchmarks/bench_service.py           # full sweep + JSON
    python benchmarks/bench_service.py --check   # small invariants-only run

``--check`` (used by CI's bench-smoke job and the tier-1 suite) asserts
on a small table that batched results == sequential results == the
plaintext oracle, byte accounting matches, and the 16-way batched run
beats sequential by ≥2× modelled-latency throughput.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry
from repro.client.datasource import DataSource
from repro.providers.cluster import ProviderCluster
from repro.service import QueryService
from repro.workloads.employees import employees_table

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_service.json"
CONCURRENCY_SWEEP = (1, 2, 4, 8, 16, 32, 64)


def build_source(rows: int, providers: int, threshold: int):
    """One outsourced Employees deployment plus its plaintext table."""
    table = employees_table(rows, seed=SEED)
    source = DataSource(ProviderCluster(providers, threshold), seed=SEED)
    source.outsource_table(table)
    return source, table


def point_statements(table, count: int):
    """``count`` point SELECTs over existing eids (wraps if count > rows)."""
    eids = sorted(row["eid"] for row in table.rows())
    return [
        f"SELECT name, salary FROM Employees WHERE eid = {eids[i % len(eids)]}"
        for i in range(count)
    ]


def plaintext_oracle(table, statements):
    """What each point SELECT should return, from the plaintext table."""
    results = []
    for text in statements:
        eid = int(text.rsplit("=", 1)[1])
        results.append(
            [
                {"name": row["name"], "salary": row["salary"]}
                for row in table.rows()
                if row["eid"] == eid
            ]
        )
    return results


def _assert_accounting(hub, network) -> None:
    assert hub.registry.counter_total("net.bytes") == network.total_bytes, (
        "telemetry byte counters diverged from network accounting"
    )
    assert hub.registry.counter_total("net.messages") == (
        network.total_messages
    ), "telemetry message counters diverged from network accounting"


def run_sequential(source, statements):
    """Each statement alone: per-query fan-out, summed modelled latency."""
    network = source.cluster.network
    source.reset_accounting()
    with telemetry.session(
        clock=lambda net=network: net.modelled_seconds
    ) as hub:
        wall_start = time.perf_counter()
        results = [source.sql(text) for text in statements]
        wall = time.perf_counter() - wall_start
        _assert_accounting(hub, network)
    return results, {
        "modelled_network_seconds": round(network.modelled_seconds, 6),
        "network_bytes": network.total_bytes,
        "network_messages": network.total_messages,
        "wall_seconds": round(wall, 6),
    }


def run_batched(source, statements, service=None):
    """All statements admitted concurrently; fan-outs coalesced."""
    network = source.cluster.network
    own_service = service is None
    if service is None:
        service = QueryService(
            source, max_in_flight=max(len(statements), 1), queue_limit=0
        )
    source.reset_accounting()
    with telemetry.session(
        clock=lambda net=network: net.modelled_seconds
    ) as hub:
        wall_start = time.perf_counter()
        results = service.run_wave(statements)
        wall = time.perf_counter() - wall_start
        _assert_accounting(hub, network)
    stats = {
        "modelled_network_seconds": round(network.modelled_seconds, 6),
        "network_bytes": network.total_bytes,
        "network_messages": network.total_messages,
        "wall_seconds": round(wall, 6),
        "batcher": service.batcher.snapshot(),
    }
    if own_service:
        service.close()
    return results, stats


def bench_concurrency_sweep(rows: int, providers: int, threshold: int):
    """The headline table: throughput at each concurrency level."""
    seq_source, table = build_source(rows, providers, threshold)
    bat_source, _ = build_source(rows, providers, threshold)
    service = QueryService(
        bat_source, max_in_flight=max(CONCURRENCY_SWEEP), queue_limit=0
    )
    levels = []
    for concurrency in CONCURRENCY_SWEEP:
        statements = point_statements(table, concurrency)
        # each level repeats the level before's statements: cold row
        # caches, or half of every wave replays with no RPC and
        # "concurrency N" puts N/2 queries on the wire
        seq_source.row_cache.clear()
        bat_source.row_cache.clear()
        seq_results, seq = run_sequential(seq_source, statements)
        bat_results, bat = run_batched(bat_source, statements, service)
        assert bat_results == seq_results, (
            f"batched results diverged at concurrency {concurrency}"
        )
        seq_qps = concurrency / seq["modelled_network_seconds"]
        bat_qps = concurrency / bat["modelled_network_seconds"]
        levels.append(
            {
                "concurrency": concurrency,
                "sequential": seq,
                "batched": bat,
                "sequential_modelled_qps": round(seq_qps, 1),
                "batched_modelled_qps": round(bat_qps, 1),
                "modelled_throughput_speedup": round(bat_qps / seq_qps, 2),
            }
        )
    service.close()
    return {
        "rows": rows,
        "providers": providers,
        "threshold": threshold,
        "levels": levels,
    }


def write_statements(table, count: int):
    """Half fresh INSERTs, half salary UPDATEs over existing eids."""
    eids = sorted(row["eid"] for row in table.rows())
    top = max(eids) + 1
    statements = []
    for i in range(count):
        if i % 2 == 0:
            statements.append(
                f"INSERT INTO Employees (eid, name, lastname, department, "
                f"salary) VALUES ({top + i}, 'WAVE', 'WRITER', 'OPS', "
                f"{40_000 + i})"
            )
        else:
            statements.append(
                f"UPDATE Employees SET salary = {50_000 + i} "
                f"WHERE eid = {eids[i % len(eids)]}"
            )
    return statements


def _table_state(source):
    return sorted(
        tuple(sorted(row.items()))
        for row in source.sql("SELECT * FROM Employees")
    )


def bench_write_wave(rows: int, providers: int, threshold: int, wave: int):
    """Per-statement transactional writes vs one coalesced write wave.

    Both modes run the same statement list through the WAL'd write path;
    the wave mode groups the whole list into one staged-then-flip
    provider round via :meth:`QueryService.run_write_wave`, so its
    per-transaction round cost amortises.  Final table states must be
    identical.
    """
    solo_source, table = build_source(rows, providers, threshold)
    statements = write_statements(table, wave)
    solo_service = QueryService(
        solo_source, max_in_flight=1, queue_limit=0, transactional=True
    )
    network = solo_source.cluster.network
    solo_source.reset_accounting()
    for text in statements:
        solo_service.execute(text)
    solo = {
        "modelled_network_seconds": round(network.modelled_seconds, 6),
        "network_messages": network.total_messages,
        "txn": solo_service.report()["txn"],
    }
    solo_service.close()

    wave_source, _ = build_source(rows, providers, threshold)
    wave_service = QueryService(wave_source, max_in_flight=1, queue_limit=0)
    network = wave_source.cluster.network
    wave_source.reset_accounting()
    wave_service.run_write_wave(statements)
    grouped = {
        "modelled_network_seconds": round(network.modelled_seconds, 6),
        "network_messages": network.total_messages,
        "txn": wave_service.report()["txn"],
    }
    wave_service.close()
    return {
        "wave": wave,
        "per_statement": solo,
        "grouped": grouped,
        "message_saving": round(
            1 - grouped["network_messages"] / solo["network_messages"], 3
        ),
        "states_identical": _table_state(solo_source)
        == _table_state(wave_source),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_check() -> None:
    """Small invariants-only run (CI bench-smoke + tier-1 suite).

    Asserts, at 16 concurrent point queries over a small deployment:

    * batched results == sequential results == the plaintext oracle,
    * telemetry byte/message counters == network counters in both modes
      (checked inside the run helpers),
    * batched modelled-latency throughput ≥ 2× sequential.
    """
    concurrency = 16
    seq_source, table = build_source(40, providers=4, threshold=2)
    bat_source, _ = build_source(40, providers=4, threshold=2)
    statements = point_statements(table, concurrency)
    oracle = plaintext_oracle(table, statements)
    seq_results, seq = run_sequential(seq_source, statements)
    bat_results, bat = run_batched(bat_source, statements)
    assert seq_results == oracle, "sequential diverged from plaintext oracle"
    assert bat_results == oracle, "batched diverged from plaintext oracle"
    speedup = (
        seq["modelled_network_seconds"] / bat["modelled_network_seconds"]
    )
    assert speedup >= 2.0, (
        f"batched fan-out only {speedup:.2f}x faster than sequential "
        f"at {concurrency} concurrent point queries (need >= 2x)"
    )
    assert bat["batcher"]["max_batch"] == concurrency, (
        "the wave did not coalesce into a single combined round"
    )
    writes = bench_write_wave(24, providers=4, threshold=2, wave=8)
    assert writes["states_identical"], (
        "coalesced write wave diverged from per-statement writes"
    )
    assert writes["message_saving"] > 0, (
        "group commit did not reduce write-round messages"
    )


def run_full(args) -> dict:
    return {
        "seed": SEED,
        "sweep": bench_concurrency_sweep(
            args.rows, args.providers, args.threshold
        ),
        "write_waves": [
            bench_write_wave(args.rows, args.providers, args.threshold, wave)
            for wave in (4, 16, 64)
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="small smoke mode: assert service invariants, no timing/JSON",
    )
    parser.add_argument("--rows", type=int, default=500,
                        help="Employees table size (default 500)")
    parser.add_argument("--providers", type=int, default=5,
                        help="providers n (default 5)")
    parser.add_argument("--threshold", type=int, default=3,
                        help="reconstruction threshold k (default 3)")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.check:
        run_check()
        print(
            "bench_service --check: batched == sequential == oracle, "
            "accounting exact, speedup >= 2x at 16 concurrent queries"
        )
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
