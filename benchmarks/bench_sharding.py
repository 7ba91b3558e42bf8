"""Sharding benchmark: query throughput vs number of provider groups.

Range-shards the Employees workload on ``eid`` across 1 / 2 / 4 provider
groups and replays the same point-query workload against each layout.
Groups are independent deployments that serve traffic in parallel, so
the modelled elapsed time of a workload is the **max** of the groups'
modelled network clocks (bytes still sum exactly across groups).  Range
pruning sends each point query to exactly one owning group, so at G
groups each group carries ~1/G of the bytes — the headline scaling.

Also measured: cross-shard aggregate parity (COUNT/SUM/AVG/MIN/MAX fan
out and merge; results must equal the unsharded oracle exactly — Shamir
linearity makes the partials sound), and the elastic operations
(``repro.drills.split`` / ``rebalance``), which must preserve every row.

Results go to ``BENCH_sharding.json`` at the repo root.  Run modes::

    python benchmarks/bench_sharding.py           # full sweep + JSON
    python benchmarks/bench_sharding.py --check   # small invariants-only run

``--check`` (CI's bench-smoke job and the tier-1 suite) asserts on a
small deployment that every layout returns byte-identical results to
the plaintext oracle, byte accounting is exact at every group count,
4-group modelled throughput is ≥ 2.5× single-group, and an online split
plus a hash rebalance both preserve the full row set.
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

from repro import drills, telemetry
from repro.service.sharding import ShardRouter
from repro.sqlengine.sqlparser import parse_sql
from repro.workloads.employees import employees_table

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_sharding.json"
GROUP_SWEEP = (1, 2, 4)

AGGREGATE_PROBES = (
    "SELECT COUNT(*) FROM Employees",
    "SELECT COUNT(*) FROM Employees WHERE salary >= 500000",
    "SELECT SUM(salary) FROM Employees",
    "SELECT AVG(salary) FROM Employees",
    "SELECT MIN(salary) FROM Employees",
    "SELECT MAX(salary) FROM Employees WHERE salary <= 900000",
    "SELECT MEDIAN(salary) FROM Employees",
    "SELECT COUNT(*) FROM Employees GROUP BY department",
    "SELECT AVG(salary) FROM Employees GROUP BY department",
)


def point_statements(rows: int, count: int):
    """``count`` point SELECTs over distinct existing eids.

    The eids are strided across the sorted id list, so the workload
    spans the whole key range — a prefix would all fall into the first
    range shard and measure nothing.
    """
    table = employees_table(rows, seed=SEED)
    eids = sorted(row["eid"] for row in table.rows())
    return [
        f"SELECT name, salary FROM Employees "
        f"WHERE eid = {eids[(i * len(eids)) // count % len(eids)]}"
        for i in range(count)
    ]


def _assert_accounting(hub, router: ShardRouter) -> None:
    assert hub.registry.counter_total("net.bytes") == (
        router.total_network_bytes()
    ), "telemetry byte counters diverged from the groups' network accounting"
    assert hub.registry.counter_total("net.messages") == (
        router.total_network_messages()
    ), "telemetry message counters diverged from network accounting"


def run_workload(router: ShardRouter, statements):
    """Replay statements; elapsed = max over groups (they run in parallel)."""
    router.reset_accounting()
    with telemetry.session(
        clock=lambda r=router: r.modelled_network_seconds()
    ) as hub:
        wall_start = time.perf_counter()
        results = [router.sql(text) for text in statements]
        wall = time.perf_counter() - wall_start
        _assert_accounting(hub, router)
    return results, {
        "modelled_network_seconds": round(
            router.modelled_network_seconds(), 6
        ),
        "modelled_network_seconds_total": round(
            router.modelled_network_seconds_total(), 6
        ),
        "network_bytes": router.total_network_bytes(),
        "network_messages": router.total_network_messages(),
        "per_group_modelled_seconds": [
            round(group.network.modelled_seconds, 6)
            for group in router.groups
        ],
        "wall_seconds": round(wall, 6),
    }


def bench_group_sweep(rows: int, providers: int, threshold: int, queries: int):
    """The headline table: throughput at each group count."""
    table = employees_table(rows, seed=SEED)
    oracle = drills.plaintext_oracle(table)
    statements = point_statements(rows, queries)
    oracle_results = [oracle.execute(parse_sql(text)) for text in statements]
    levels = []
    baseline_qps = None
    for n_groups in GROUP_SWEEP:
        router, _ = drills.sharded_employees(
            rows, providers, threshold, SEED, n_groups, "range"
        )
        for text, matches in drills.shard_probes(router, table, AGGREGATE_PROBES):
            assert matches, f"sharded {text!r} diverged from the oracle"
        results, stats = run_workload(router, statements)
        assert results == oracle_results, (
            f"sharded results diverged from the oracle at {n_groups} groups"
        )
        qps = queries / stats["modelled_network_seconds"]
        if baseline_qps is None:
            baseline_qps = qps
        levels.append(
            {
                "groups": n_groups,
                "queries": queries,
                **stats,
                "modelled_qps": round(qps, 1),
                "speedup_vs_1_group": round(qps / baseline_qps, 2),
            }
        )
        router.close()
    return {
        "rows": rows,
        "providers_per_group": providers,
        "threshold": threshold,
        "levels": levels,
    }


def bench_elastic(rows: int, providers: int, threshold: int):
    """Split + rebalance timings; each must hold every row exactly once
    and answer the oracle probes (``repro.drills``)."""
    # 250k is mid-range of the first shard ([1, 500k) at two groups), so
    # the split moves a real slice rather than an empty boundary sliver
    report = {
        "split": drills.split(rows, providers, threshold, SEED, at=250_000),
        "rebalance": drills.rebalance(rows, providers, threshold, SEED),
    }
    for name, result in report.items():
        assert result["placement_ok"], f"{name} lost or duplicated rows"
        for text, matches in result["probes"]:
            assert matches, f"after the {name}, {text!r} diverged from the oracle"
    return {
        name: {
            "rows_moved": result["rows_moved"],
            "groups_after": len(result["groups"]),
            "distribution": {
                str(index): count for index, count in result["after"].items()
            },
            "migration_bytes": result["migration_bytes"],
            "wall_seconds": round(result["wall_seconds"], 6),
        }
        for name, result in report.items()
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_check() -> None:
    """Small invariants-only run (CI bench-smoke + tier-1 suite).

    Asserts on a 96-row deployment:

    * point and aggregate results equal the plaintext oracle at every
      group count (byte-exact merges),
    * telemetry byte/message counters equal the groups' network
      accounting at every group count,
    * 4-group modelled throughput ≥ 2.5× single-group,
    * an online split and a hash rebalance both preserve every row.
    """
    levels = bench_group_sweep(96, 4, 2, 24)["levels"]
    qps = {
        level["groups"]: level["queries"] / level["modelled_network_seconds"]
        for level in levels
    }
    speedup = qps[4] / qps[1]
    assert speedup >= 2.5, (
        f"4-group sharding only {speedup:.2f}x single-group modelled "
        f"throughput (need >= 2.5x)"
    )
    bench_elastic(96, 4, 2)


def run_full(args) -> dict:
    return {
        "seed": SEED,
        "sweep": bench_group_sweep(
            args.rows, args.providers, args.threshold, args.queries
        ),
        "elastic": bench_elastic(args.rows, args.providers, args.threshold),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="small smoke mode: assert sharding invariants, no timing/JSON",
    )
    parser.add_argument("--rows", type=int, default=400,
                        help="Employees table size (default 400)")
    parser.add_argument("--providers", type=int, default=5,
                        help="providers n per group (default 5)")
    parser.add_argument("--threshold", type=int, default=3,
                        help="reconstruction threshold k (default 3)")
    parser.add_argument("--queries", type=int, default=64,
                        help="point queries per sweep level (default 64)")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.check:
        run_check()
        print(
            "bench_sharding --check: sharded == oracle at 1/2/4 groups, "
            "accounting exact, 4-group speedup >= 2.5x, split/rebalance "
            "preserve every row"
        )
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
