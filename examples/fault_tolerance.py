"""Fault tolerance and trust: surviving crashes, catching cheats.

Demonstrates the operational story of Sec. V-A ("greater fault-tolerance
and data availability in the presence of failures") and Sec. I's third
challenge (the trust mechanism), with checked reads
(``DataSource(verified_reads=True)``): the client asks more than k
providers, decodes every cell robustly, votes on which rows are present,
and quarantines a provider it catches:

* queries keep answering while up to n−k providers are down;
* a tampering provider is outvoted, named and quarantined;
* an omitting provider is caught by the presence vote, where a plain
  quorum read comes back silently short.

Run: python examples/fault_tolerance.py
"""

from repro import DataSource, ProviderCluster, Select
from repro.errors import QuorumError
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.expression import Between
from repro.workloads.employees import employees_table

QUERY = "SELECT COUNT(*) FROM Employees WHERE salary BETWEEN 0 AND 1000000"
RANGE = Select("Employees", where=Between("salary", 20_000, 80_000))


def crash_sweep() -> None:
    print("=== availability under crashes: (n=5, k=3) ===")
    source = DataSource(ProviderCluster(5, 3), seed=1)
    source.outsource_table(employees_table(300, seed=1))
    for crashed in range(6):
        source.cluster.clear_faults()
        for index in range(crashed):
            source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
        try:
            count = source.sql(QUERY)
            print(f"  {crashed} provider(s) down -> query OK ({count} rows)")
        except QuorumError as exc:
            print(f"  {crashed} provider(s) down -> UNAVAILABLE ({exc})")


def _quarantined(cluster) -> list:
    return [i for i in range(cluster.n_providers) if cluster.health.is_quarantined(i)]


def _in_range(table) -> list:
    return [row for row in table.rows() if 20_000 <= row["salary"] <= 80_000]


def tamper_detection() -> None:
    print("\n=== tampering provider outvoted by a checked read ===")
    cluster = ProviderCluster(4, 2)
    source = DataSource(cluster, seed=2, verified_reads=True)
    table = employees_table(200, seed=2)
    source.outsource_table(table)
    cluster.inject_fault(
        1, Fault(FailureMode.TAMPER, rate=0.4, rng=DeterministicRNG(2, "t"))
    )
    rows = source.select(RANGE)
    exact = rows_equal_unordered(rows, _in_range(table))
    print(f"  checked read: {len(rows)} rows, all exact: {exact}")
    print(f"  quarantined provider(s): {_quarantined(cluster)}")


def omission_detection() -> None:
    print("\n=== omitted tuples caught by the presence vote ===")
    for verified in (False, True):
        cluster = ProviderCluster(4, 2)
        source = DataSource(cluster, seed=3, verified_reads=verified)
        table = employees_table(200, seed=3)
        source.outsource_table(table)
        cluster.inject_fault(
            0, Fault(FailureMode.OMIT, rate=0.25, rng=DeterministicRNG(3, "o0"))
        )
        rows = source.select(RANGE)
        label = "checked read" if verified else "plain quorum read"
        print(
            f"  {label}: {len(rows)} of {len(_in_range(table))} rows, "
            f"quarantined provider(s): {_quarantined(cluster)}"
        )


def main() -> None:
    crash_sweep()
    tamper_detection()
    omission_detection()


if __name__ == "__main__":
    main()
