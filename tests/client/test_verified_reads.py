"""End-to-end tests for verified-read mode (blame, quarantine, re-issue)."""

import os

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.client.updates import LazyUpdateBuffer
from repro.errors import SchemaError
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.txn import TransactionManager
from repro.workloads.ecommerce import clicklog_table
from repro.workloads.employees import employees_table, managers_table

QUERIES = [
    "SELECT * FROM Employees WHERE eid = 7",
    "SELECT name, salary FROM Employees WHERE salary BETWEEN 20000 AND 60000",
    "SELECT SUM(salary) FROM Employees WHERE department = 'Sales'",
    "SELECT AVG(salary) FROM Employees",
    "SELECT COUNT(*) FROM Employees WHERE salary >= 30000",
    "SELECT department, COUNT(*) FROM Employees GROUP BY department",
]


def build_pair(rows=30, seed=11, **kwargs):
    """An oracle (fault-free) source and a verified source, same data."""
    oracle = DataSource(ProviderCluster(5, 3), seed=seed)
    verified = DataSource(
        ProviderCluster(5, 3), seed=seed, verified_reads=True, **kwargs
    )
    employees = employees_table(rows, seed=seed)
    for source in (oracle, verified):
        source.outsource_table(employees)
        source.outsource_table(managers_table(employees, 0.2, seed=seed))
    return oracle, verified


def same_result(expected, actual):
    if isinstance(expected, list):
        return rows_equal_unordered(expected, actual)
    return expected == actual


class TestConfig:
    def test_zero_redundancy_rejected(self):
        with pytest.raises(SchemaError):
            DataSource(ProviderCluster(5, 3), seed=1, read_redundancy=0)


class TestVerifiedAgainstTamper:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_exact_results_with_one_tamperer(self, sql):
        oracle, verified = build_pair()
        verified.cluster.inject_fault(2, Fault(FailureMode.TAMPER, seed=5))
        assert same_result(oracle.sql(sql), verified.sql(sql))

    def test_blamed_provider_quarantined_and_reissued(self):
        oracle, verified = build_pair()
        verified.cluster.inject_fault(2, Fault(FailureMode.TAMPER, seed=5))
        with telemetry.session() as hub:
            sql = "SELECT * FROM Employees WHERE salary >= 10000"
            assert rows_equal_unordered(oracle.sql(sql), verified.sql(sql))
            assert hub.registry.counter_total("verified.reissued") >= 1
        assert verified.cluster.health.is_quarantined(2)
        snapshot = verified.cluster.health.snapshot()["DAS3"]
        assert snapshot["quarantine_reason"] == "blamed"

    def test_later_queries_avoid_the_quarantined_tamperer(self):
        oracle, verified = build_pair()
        verified.cluster.inject_fault(2, Fault(FailureMode.TAMPER, seed=5))
        verified.sql("SELECT * FROM Employees WHERE salary >= 10000")
        with telemetry.session() as hub:
            verified.sql("SELECT * FROM Employees WHERE salary >= 10000")
            # quarantined tamperer sorts out of the quorum: nothing to blame
            assert hub.registry.counter_total("verified.reissued") == 0

    def test_verified_join_with_tamperer(self):
        oracle, verified = build_pair()
        verified.cluster.inject_fault(1, Fault(FailureMode.TAMPER, seed=6))
        sql = (
            "SELECT * FROM Employees JOIN Managers "
            "ON Employees.eid = Managers.eid"
        )
        assert rows_equal_unordered(oracle.sql(sql), verified.sql(sql))
        assert verified.cluster.health.is_quarantined(1)

    def test_omission_detected_and_masked(self):
        oracle, verified = build_pair()
        verified.cluster.inject_fault(
            3, Fault(FailureMode.OMIT, rate=0.5, seed=8)
        )
        sql = "SELECT name FROM Employees WHERE salary >= 10000"
        with telemetry.session() as hub:
            assert rows_equal_unordered(oracle.sql(sql), verified.sql(sql))
            assert (
                hub.registry.counter_value(
                    "faults.detected", kind="omission", provider="3"
                )
                >= 1
            )

    def test_crash_plus_tamper_together(self):
        # n - k failures total, split across both failure classes: the
        # acceptance scenario the robust vote alone cannot decode
        oracle, verified = build_pair()
        verified.cluster.inject_fault(4, Fault(FailureMode.CRASH))
        verified.cluster.inject_fault(2, Fault(FailureMode.TAMPER, seed=5))
        for sql in QUERIES:
            assert same_result(oracle.sql(sql), verified.sql(sql)), sql

    def test_explicit_redundancy_respected(self):
        oracle, verified = build_pair(read_redundancy=2)
        verified.cluster.inject_fault(0, Fault(FailureMode.TAMPER, seed=9))
        sql = "SELECT * FROM Employees WHERE salary >= 10000"
        assert rows_equal_unordered(oracle.sql(sql), verified.sql(sql))


class TestVerifiedCleanPath:
    def test_clean_cluster_matches_oracle(self):
        oracle, verified = build_pair()
        for sql in QUERIES:
            assert same_result(oracle.sql(sql), verified.sql(sql)), sql

    def test_clean_cluster_never_reissues(self):
        _, verified = build_pair()
        with telemetry.session() as hub:
            for sql in QUERIES:
                verified.sql(sql)
            assert hub.registry.counter_total("verified.reissued") == 0


class TestCheckedWrites:
    """A checked source reads what it writes back checked too: with n=4,
    k=2 and provider 0 omitting half the rows it matches, a plain quorum
    match read made an UPDATE change 21 of 40 rows, a DELETE leave 19,
    and resync and rotation drop 19 rows for good; a tamperer made an
    eager UPDATE raise.  Every one now leaves the table equal to the
    oracle and provider 0 quarantined."""

    UPDATE = "UPDATE Employees SET salary = 7 WHERE salary >= 0"

    def deploy(self, table, mode=FailureMode.OMIT):
        cluster = ProviderCluster(4, 2)
        source = DataSource(cluster, seed=1, verified_reads=True)
        source.outsource_table(table)
        catalog = Catalog()
        catalog.add_table(Table(table.schema, table.rows()))
        cluster.inject_fault(0, Fault(mode, rate=0.5, seed=1))
        return source, PlaintextExecutor(catalog)

    def assert_exact(self, source, oracle, table):
        assert source.cluster.health.is_quarantined(0)
        source.cluster.clear_faults()
        query = parse_sql(f"SELECT * FROM {table}")
        assert rows_equal_unordered(source.select(query), oracle.execute(query))

    def test_update_and_delete(self):
        for sql in (self.UPDATE, "DELETE FROM Employees WHERE salary >= 0"):
            source, oracle = self.deploy(employees_table(40, seed=1))
            assert source.sql(sql) == oracle.execute(parse_sql(sql)) == 40
            self.assert_exact(source, oracle, "Employees")

    def test_lazy_flush(self):
        source, oracle = self.deploy(employees_table(40, seed=1))
        buffer = LazyUpdateBuffer(source)
        buffer.enqueue(parse_sql(self.UPDATE))
        assert buffer.flush() == oracle.execute(parse_sql(self.UPDATE)) == 40
        self.assert_exact(source, oracle, "Employees")

    def test_atomic_batch(self, tmp_path):
        source, oracle = self.deploy(employees_table(40, seed=1))
        batch = [self.UPDATE, "DELETE FROM Employees WHERE eid < 0"]
        manager = TransactionManager(source, os.path.join(tmp_path, "client.wal"))
        try:
            assert manager.atomic(batch) == [40, 0]
        finally:
            manager.close()
        oracle.execute(parse_sql(self.UPDATE))
        self.assert_exact(source, oracle, "Employees")

    @pytest.mark.parametrize("call", ["resync", "rotate"])
    def test_resync_and_rotation_keep_every_row(self, call):
        source, oracle = self.deploy(employees_table(40, seed=1))
        if call == "resync":
            assert source.resync_table("Employees") == 40
        else:
            assert source.rotate_secrets(5) == {"Employees": 40}
        self.assert_exact(source, oracle, "Employees")

    def test_time_travel(self):
        table = employees_table(40, seed=1)
        source, oracle = self.deploy(table)
        source.cluster.clear_faults()
        epoch = source.table_epoch("Employees")
        source.sql("DELETE FROM Employees WHERE salary >= 0")
        source.cluster.inject_fault(0, Fault(FailureMode.OMIT, rate=0.5, seed=1))
        pairs = source.scan_asof("Employees", epoch)
        assert rows_equal_unordered([row for _, row in pairs], table.rows())
        oracle.execute(parse_sql("DELETE FROM Employees WHERE salary >= 0"))
        self.assert_exact(source, oracle, "Employees")

    def test_share_increments_and_refresh(self, tmp_path):
        sql = "UPDATE Events SET amount_cents = amount_cents + 5"
        source, oracle = self.deploy(clicklog_table(40, seed=1))
        manager = TransactionManager(source, os.path.join(tmp_path, "client.wal"))
        try:
            # pure delta: the manager ships share increments for the matching ids
            assert manager.execute(sql) == oracle.execute(parse_sql(sql)) == 40
        finally:
            manager.close()
        assert source.refresh_table_shares("Events") == 40
        self.assert_exact(source, oracle, "Events")

    def test_a_tamperer_no_longer_breaks_an_eager_update(self):
        sql = "UPDATE Events SET amount_cents = amount_cents + 5"
        source, oracle = self.deploy(clicklog_table(40, seed=1), FailureMode.TAMPER)
        assert source.sql(sql) == oracle.execute(parse_sql(sql)) == 40
        self.assert_exact(source, oracle, "Events")
