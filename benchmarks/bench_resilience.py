"""Resilience benchmark: availability and latency under crash/tamper faults.

Sweeps injected fault load (crashed providers × tampering providers)
over a four-shape query mix — point read, range scan, SUM aggregate,
equi-join — and compares two client configurations on the *same* faults:

* **fail-fast** — the historical client: no failover, no verification.
  A crashed provider inside the default read quorum surfaces as
  :class:`QuorumError`; a tamperer silently corrupts results.
* **resilient** — quorum failover + retry accounting + verified reads:
  short rounds re-dispatch to spare providers, redundant interpolation
  cross-checks shares, blamed providers are quarantined and the query
  re-issues without them.

Availability (fraction of queries that return), correctness (fraction
matching the fault-free oracle), and modelled-latency overhead are
reported per fault level.  Results go to ``BENCH_resilience.json``.

Run modes::

    python benchmarks/bench_resilience.py           # full sweep + JSON
    python benchmarks/bench_resilience.py --check   # invariants only

``--check`` (CI bench-smoke + tier-1) asserts on a small n=5, k=3
deployment that every query shape returns *exactly* the fault-free
result under (a) **every** crash pattern that leaves k providers live —
including a crash injected *between* quorum selection and response
collection — and (b) any single tamperer (= ⌊(n−k)/2⌋) in verified
mode, with no caller-visible :class:`QuorumError`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.client.datasource import DataSource
from repro.errors import QuorumError, ReproError
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.workloads.employees import employees_table, managers_table

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_resilience.json"


def query_mix(employees_rows):
    """The four query shapes, parameterised from the actual data."""
    eids = sorted(row["eid"] for row in employees_rows)
    point_eid = eids[len(eids) // 2]
    salaries = sorted(row["salary"] for row in employees_rows)
    lo, hi = salaries[len(salaries) // 4], salaries[(3 * len(salaries)) // 4]
    return [
        ("point", f"SELECT name, salary FROM Employees WHERE eid = {point_eid}"),
        ("range", "SELECT eid, salary FROM Employees "
                  f"WHERE salary BETWEEN {lo} AND {hi} ORDER BY eid"),
        ("sum", f"SELECT SUM(salary) FROM Employees WHERE salary >= {lo}"),
        ("join", "SELECT Employees.name, Managers.manager_username "
                 "FROM Employees JOIN Managers "
                 "ON Employees.eid = Managers.eid"),
    ]


def build_deployment(
    rows: int,
    providers: int,
    threshold: int,
    verified: bool = False,
    failover: bool = True,
):
    """An outsourced Employees+Managers deployment, accounting zeroed."""
    source = DataSource(
        ProviderCluster(providers, threshold),
        seed=SEED,
        verified_reads=verified,
        failover=failover,
    )
    employees = employees_table(rows, seed=SEED)
    managers = managers_table(employees, 0.2, seed=SEED)
    source.outsource_table(employees)
    source.outsource_table(managers)
    source.reset_accounting()
    return source


def canonical(result):
    """Order-insensitive comparable form of any query result."""
    if isinstance(result, list):
        return sorted(
            (sorted(row.items()) for row in result), key=repr
        )
    return result


def oracle_results(rows: int, providers: int, threshold: int):
    """Fault-free answers for the query mix (same deployment, no faults)."""
    source = build_deployment(rows, providers, threshold)
    employees = employees_table(rows, seed=SEED)
    return {
        label: canonical(source.sql(text))
        for label, text in query_mix(employees.rows())
    }


def run_mix(source, statements):
    """Run the mix; returns (per-query outcomes, modelled seconds)."""
    outcomes = {}
    network = source.cluster.network
    start = network.modelled_seconds
    for label, text in statements:
        try:
            outcomes[label] = ("ok", canonical(source.sql(text)))
        except ReproError as exc:
            outcomes[label] = ("error", f"{type(exc).__name__}: {exc}")
    return outcomes, network.modelled_seconds - start


def crash_faults(indexes, delayed=()):
    """CRASH faults for ``indexes``; ``delayed`` crash after one request."""
    return [
        (
            i,
            Fault(
                FailureMode.CRASH,
                after_requests=1 if i in delayed else 0,
            ),
        )
        for i in indexes
    ]


def tamper_faults(indexes):
    return [(i, Fault(FailureMode.TAMPER, seed=SEED + i)) for i in indexes]


# ---------------------------------------------------------------------------
# full sweep
# ---------------------------------------------------------------------------


def sweep_level(rows, providers, threshold, oracle, crashes, tamperers):
    """One fault level: fail-fast vs resilient on identical faults."""
    statements = query_mix(employees_table(rows, seed=SEED).rows())
    level = {
        "crashed_providers": list(crashes),
        "tampering_providers": list(tamperers),
    }
    for mode, verified, failover in (
        ("fail_fast", False, False),
        ("resilient", bool(tamperers), True),
    ):
        source = build_deployment(
            rows, providers, threshold, verified=verified, failover=failover
        )
        for index, fault in crash_faults(crashes) + tamper_faults(tamperers):
            source.cluster.inject_fault(index, fault)
        outcomes, seconds = run_mix(source, statements)
        answered = sum(1 for status, _ in outcomes.values() if status == "ok")
        correct = sum(
            1
            for label, (status, result) in outcomes.items()
            if status == "ok" and result == oracle[label]
        )
        level[mode] = {
            "availability": round(answered / len(statements), 4),
            "correctness": round(correct / len(statements), 4),
            "modelled_seconds": round(seconds, 6),
            "network_bytes": source.cluster.network.total_bytes,
            "errors": sorted(
                detail
                for status, detail in outcomes.values()
                if status == "error"
            ),
        }
    fail_fast, resilient = level["fail_fast"], level["resilient"]
    if fail_fast["modelled_seconds"] > 0:
        level["latency_overhead"] = round(
            resilient["modelled_seconds"] / fail_fast["modelled_seconds"], 3
        )
    return level


def run_full(args) -> dict:
    providers, threshold = args.providers, args.threshold
    spare = providers - threshold
    max_tamperers = spare // 2
    oracle = oracle_results(args.rows, providers, threshold)
    levels = []
    for n_crashes in range(spare + 1):
        for n_tamperers in range(max_tamperers + 1):
            if n_crashes + n_tamperers > spare:
                continue  # fewer than k honest live providers: out of model
            crashes = tuple(range(n_crashes))
            tamperers = tuple(
                range(n_crashes, n_crashes + n_tamperers)
            )
            levels.append(
                sweep_level(
                    args.rows, providers, threshold, oracle, crashes, tamperers
                )
            )
    return {
        "seed": SEED,
        "rows": args.rows,
        "providers": providers,
        "threshold": threshold,
        "query_mix": [label for label, _ in
                      query_mix(employees_table(args.rows, seed=SEED).rows())],
        "levels": levels,
    }


# ---------------------------------------------------------------------------
# --check gate
# ---------------------------------------------------------------------------


def run_check() -> None:
    """Invariants at n=5, k=3 over a 40-row deployment (CI + tier-1)."""
    rows, providers, threshold = 40, 5, 3
    spare = providers - threshold
    statements = query_mix(employees_table(rows, seed=SEED).rows())
    oracle = oracle_results(rows, providers, threshold)

    # 1. every crash pattern leaving k live: failover answers correctly
    for crashes in itertools.combinations(range(providers), spare):
        source = build_deployment(rows, providers, threshold)
        for index, fault in crash_faults(crashes):
            source.cluster.inject_fault(index, fault)
        outcomes, _ = run_mix(source, statements)
        for label, (status, result) in outcomes.items():
            assert status == "ok", (
                f"{label} failed under crashes {crashes}: {result}"
            )
            assert result == oracle[label], (
                f"{label} wrong under crashes {crashes}"
            )

    # 2. a crash injected BETWEEN quorum selection and response collection:
    #    the provider accepts the table scan during outsourcing replay? no —
    #    after_requests=1 lets it serve exactly one more RPC, so it is
    #    selected as live, then dies mid-workload
    source = build_deployment(rows, providers, threshold)
    for index, fault in crash_faults((0, 1), delayed=(1,)):
        source.cluster.inject_fault(index, fault)
    outcomes, _ = run_mix(source, statements)
    for label, (status, result) in outcomes.items():
        assert status == "ok" and result == oracle[label], (
            f"{label} wrong under mid-round crash: {result}"
        )

    # 3. any single tamperer (= ⌊(n−k)/2⌋) in verified mode: exact results
    #    and the tamperer ends up quarantined
    for tamperer in range(providers):
        source = build_deployment(rows, providers, threshold, verified=True)
        source.cluster.inject_fault(*tamper_faults([tamperer])[0])
        outcomes, _ = run_mix(source, statements)
        for label, (status, result) in outcomes.items():
            assert status == "ok", (
                f"{label} failed under tamperer {tamperer}: {result}"
            )
            assert result == oracle[label], (
                f"{label} wrong under tamperer {tamperer}"
            )
        name = source.cluster.providers[tamperer].name
        assert source.cluster.health.snapshot()[name]["quarantined"], (
            f"tamperer {name} was not quarantined"
        )

    # 4. crash + tamperer together, still within the threshold model
    source = build_deployment(rows, providers, threshold, verified=True)
    source.cluster.inject_fault(*crash_faults([4])[0])
    source.cluster.inject_fault(*tamper_faults([2])[0])
    outcomes, _ = run_mix(source, statements)
    for label, (status, result) in outcomes.items():
        assert status == "ok" and result == oracle[label], (
            f"{label} wrong under crash+tamper: {result}"
        )

    # 5. the fail-fast baseline actually fails where failover succeeds —
    #    the resilience is doing something
    source = build_deployment(rows, providers, threshold, failover=False)
    source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
    try:
        source.sql(statements[0][1])
    except QuorumError:
        pass
    else:
        raise AssertionError(
            "fail-fast baseline survived a quorum crash; the failover "
            "comparison is measuring nothing"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="invariants-only smoke mode (CI bench-smoke and tier-1)",
    )
    parser.add_argument("--rows", type=int, default=200,
                        help="Employees table size (default 200)")
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
            "bench_resilience --check: exact results under every "
            "(n-k)-crash pattern, mid-round crashes, and any "
            "floor((n-k)/2) tamperers; fail-fast baseline fails"
        )
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
