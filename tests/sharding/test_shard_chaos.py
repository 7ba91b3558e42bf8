"""Fault matrix against a sharded deployment — including mid-migration.

The acceptance grid the CI chaos-smoke job runs: with n=5, k=3 per
group, a 2-group sharded deployment must return exact plaintext results
with the full per-group crash budget (n−k = 2) or a tampering provider
— and an *online migration* (split / rebalance) hit by a crash or a
tamperer mid-flight must still preserve every row.  Migration rebuilds
fetch one redundant share so a tampering quorum member is blamed rather
than steering the extended polynomial.
"""

import pytest

from repro.client.datasource import DataSource
from repro.client.repair import repair_provider
from repro.core.secrets import generate_client_secrets
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.service.sharding import ShardRouter
from repro.sqlengine.executor import rows_equal_unordered

from tests.sharding.shardutil import (
    all_row_ids,
    build_oracle,
    oracle_answer,
    workload_tables,
)

N, K, ROWS, SEED = 5, 3, 30, 2009
N_FAULTY = N - K  # the full per-group crash budget

QUERY_SHAPES = {
    "point": "SELECT * FROM Employees WHERE eid = {eid}",
    "ordered": (
        "SELECT name, salary FROM Employees "
        "WHERE salary BETWEEN 200000 AND 800000 ORDER BY eid"
    ),
    "sum": "SELECT SUM(salary) FROM Employees WHERE salary >= 300000",
    "avg": "SELECT AVG(salary) FROM Employees GROUP BY department",
    "join": (
        "SELECT * FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid"
    ),
}


def build_sharded(mode, verified):
    """2-group sharded Employees/Managers with optional verified reads."""
    secrets = generate_client_secrets(N, SEED)
    sources = []
    for index in range(2):
        cluster = ProviderCluster(N, K, name_prefix=f"g{index}/")
        sources.append(
            DataSource(
                cluster,
                seed=SEED + 101 * index,
                secrets=secrets,
                verified_reads=verified,
            )
        )
    router = ShardRouter(sources, mode=mode)
    employees, managers = workload_tables(rows=ROWS, seed=SEED)
    if mode == "range":
        router.outsource_table(employees, partition_column="eid")
        router.outsource_table(managers, partition_column="eid")
    else:
        router.outsource_table(employees)
        router.outsource_table(managers)
    return router


def queries():
    employees, _ = workload_tables(rows=ROWS, seed=SEED)
    eid = sorted(row["eid"] for row in employees.rows())[ROWS // 2]
    return {
        label: sql.format(eid=eid) for label, sql in QUERY_SHAPES.items()
    }


def faults_for(mode, indexes):
    if mode is FailureMode.CRASH:
        return [(i, Fault(FailureMode.CRASH)) for i in indexes]
    return [(i, Fault(mode, seed=SEED + i)) for i in indexes]


def assert_same(label, want, got):
    if isinstance(want, list) and label != "ordered":
        assert rows_equal_unordered(want, got), label
    else:
        assert got == want, label


class TestShardedFaultMatrix:
    """Steady-state queries with per-group fault injection."""

    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    @pytest.mark.parametrize(
        "mode", [FailureMode.CRASH, FailureMode.TAMPER, FailureMode.OMIT]
    )
    def test_exact_results_under_faults(self, mode, shape):
        verified = mode is not FailureMode.CRASH
        oracle = build_oracle(rows=ROWS, seed=SEED)
        with build_sharded("range", verified) as router:
            # full crash budget on group 0, one more fault on group 1
            for index, fault in faults_for(mode, range(N_FAULTY)):
                router.groups[0].cluster.inject_fault(index, fault)
            for index, fault in faults_for(mode, range(1)):
                router.groups[1].cluster.inject_fault(index, fault)
            sql = queries()[shape]
            assert_same(shape, oracle_answer(oracle, sql), router.sql(sql))


class TestFaultsDuringMigration:
    """Crashes and tamperers landing while a migration is in flight."""

    def test_crash_during_split(self):
        oracle = build_oracle(rows=ROWS, seed=SEED)
        with build_sharded("range", verified=False) as router:
            before = all_row_ids(router)
            # one provider of the source group is already down...
            router.groups[0].cluster.inject_fault(0, Fault(FailureMode.CRASH))

            def checkpoint(phase):
                if phase == "scanned":
                    # ...and another dies mid-migration
                    router.groups[0].cluster.inject_fault(
                        1, Fault(FailureMode.CRASH)
                    )

            moved = router.split_shard(
                "Employees", 250_000, checkpoint=checkpoint
            )
            assert moved > 0
            assert all_row_ids(router) == before
            for label, sql in queries().items():
                assert_same(label, oracle_answer(oracle, sql), router.sql(sql))
            # crashed providers missed the migration deletes: after they
            # recover, the standard repair flow re-syncs them exactly
            router.groups[0].cluster.clear_faults()
            repair_provider(router.groups[0].source, 0)
            repair_provider(router.groups[0].source, 1)
            for label, sql in queries().items():
                assert_same(label, oracle_answer(oracle, sql), router.sql(sql))

    def test_tamper_during_split(self):
        """A tampering source provider is blamed by the redundant-share
        rebuild; the migrated rows reconstruct to the true plaintext."""
        oracle = build_oracle(rows=ROWS, seed=SEED)
        with build_sharded("range", verified=True) as router:
            before = all_row_ids(router)
            router.groups[0].cluster.inject_fault(
                0, Fault(FailureMode.TAMPER, seed=SEED)
            )
            moved = router.split_shard("Employees", 250_000)
            assert moved > 0
            assert all_row_ids(router) == before
            for label, sql in queries().items():
                assert_same(label, oracle_answer(oracle, sql), router.sql(sql))

    def test_crash_during_rebalance(self):
        oracle = build_oracle(rows=ROWS, seed=SEED)
        with build_sharded("hash", verified=False) as router:
            before = all_row_ids(router)
            router.add_group()
            router.groups[0].cluster.inject_fault(2, Fault(FailureMode.CRASH))
            moved = router.rebalance()
            assert moved > 0
            assert all_row_ids(router) == before
            for label, sql in queries().items():
                assert_same(label, oracle_answer(oracle, sql), router.sql(sql))

    def test_tamper_during_rebalance(self):
        oracle = build_oracle(rows=ROWS, seed=SEED)
        with build_sharded("hash", verified=True) as router:
            before = all_row_ids(router)
            router.add_group()
            router.groups[1].cluster.inject_fault(
                3, Fault(FailureMode.TAMPER, seed=SEED + 3)
            )
            moved = router.rebalance()
            assert moved > 0
            assert all_row_ids(router) == before
            for label, sql in queries().items():
                assert_same(label, oracle_answer(oracle, sql), router.sql(sql))
