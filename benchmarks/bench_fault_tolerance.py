"""EXP-T7 — fault tolerance and availability (Sec. V-A).

"The consequence of this overhead does result in greater fault-tolerance
and data availability in the presence of failures."  For each (n, k)
configuration, sweep the number of crashed providers and measure query
availability, plus the communication overhead paid for the redundancy.
"""

import itertools


from repro import DataSource, ProviderCluster
from repro.bench.reporting import record_experiment
from repro.errors import QuorumError
from repro.providers.failures import Fault, FailureMode
from repro.workloads.employees import employees_table

CONFIGS = [(3, 2), (5, 3), (7, 4)]
N_ROWS = 200
QUERY = "SELECT COUNT(*) FROM Employees WHERE salary BETWEEN 0 AND 1000000"


def _availability(n, k):
    source = DataSource(ProviderCluster(n, k), seed=2009)
    source.outsource_table(employees_table(N_ROWS, seed=2009))
    row = {"(n,k)": f"({n},{k})"}
    for crashed_count in range(n + 1):
        # exhaustively try every crash subset of this size (capped)
        subsets = list(itertools.combinations(range(n), crashed_count))[:20]
        survived = 0
        for subset in subsets:
            source.cluster.clear_faults()
            for index in subset:
                source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
            try:
                assert source.sql(QUERY) == N_ROWS
                survived += 1
            except QuorumError:
                pass
        source.cluster.clear_faults()
        row[f"{crashed_count} down"] = f"{survived}/{len(subsets)}"
    return row


def _storage_overhead(n, k):
    """Bytes uploaded at outsourcing time vs a single plaintext copy."""
    source = DataSource(ProviderCluster(n, k), seed=2009)
    source.outsource_table(employees_table(N_ROWS, seed=2009))
    return source.cluster.network.total_bytes


def test_availability_table(benchmark):
    rows = benchmark.pedantic(
        lambda: [_availability(n, k) for n, k in CONFIGS],
        rounds=1,
        iterations=1,
    )
    record_experiment(
        "EXP-T7a",
        "Query availability vs crashed providers (survived/attempted)",
        rows,
    )
    for (n, k), row in zip(CONFIGS, rows):
        # available at exactly n-k failures, unavailable beyond
        ok, total = row[f"{n - k} down"].split("/")
        assert ok == total
        ok, _ = row[f"{n - k + 1} down"].split("/")
        assert ok == "0"


def test_redundancy_overhead_table(benchmark):
    def sweep():
        base = None
        rows = []
        for n, k in CONFIGS:
            total = _storage_overhead(n, k)
            if base is None:
                base = total / 3  # one provider's part of the (3,2) upload
            rows.append(
                {
                    "(n,k)": f"({n},{k})",
                    "upload KB": round(total / 1024, 1),
                    "tolerates crashes": n - k,
                    "x one (3,2) provider's part": round(total / base, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_experiment(
        "EXP-T7b",
        "Redundancy cost: upload volume vs crash tolerance",
        rows,
    )
    # more providers → proportionally more upload, linear in n
    assert rows[-1]["upload KB"] > 2 * rows[0]["upload KB"]


def test_degraded_read_latency(benchmark):
    source = DataSource(ProviderCluster(5, 3), seed=2009)
    source.outsource_table(employees_table(N_ROWS, seed=2009))
    source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
    source.cluster.inject_fault(1, Fault(FailureMode.CRASH))
    benchmark(lambda: source.sql(QUERY))
