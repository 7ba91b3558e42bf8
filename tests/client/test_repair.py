"""Tests for provider repair (share-column rebuild from k live peers)."""

import pytest

from repro import DataSource, ProviderCluster
from repro.client.repair import repair_provider, verify_repair
from repro.errors import ProviderUnavailableError, QuorumError
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.executor import rows_equal_unordered
from repro.workloads.employees import employees_table, managers_table


def build_source(rows=40, seed=13):
    source = DataSource(ProviderCluster(5, 3), seed=seed)
    employees = employees_table(rows, seed=seed)
    source.outsource_table(employees)
    source.outsource_table(managers_table(employees, 0.2, seed=seed))
    return source


def stored_tables(source, provider_index):
    """physical table name → {row_id: share_row} for one provider."""
    provider = source.cluster.providers[provider_index]
    out = {}
    for table_name in source.table_names():
        physical = source.physical_name(table_name)
        rows = provider.handle(
            "scan", {"table": table_name, "projection": None}
        )["rows"]
        out[physical] = {row_id: dict(values) for row_id, values in rows}
    return out


class TestRepairRebuild:
    def test_repaired_shares_identical_to_originals(self):
        """Share extension evaluates the *same* polynomial, so a repaired
        provider ends up byte-identical to its pre-loss state — no other
        provider's shares change."""
        source = build_source()
        originals = stored_tables(source, 2)
        # lose the provider's storage outright
        provider = source.cluster.providers[2]
        for table_name in source.table_names():
            provider.store.drop_table(source.physical_name(table_name))
        counts = repair_provider(source, 2)
        assert counts == {"Employees": 40, "Managers": 8}
        assert stored_tables(source, 2) == originals

    def test_other_providers_untouched(self):
        source = build_source()
        before = {i: stored_tables(source, i) for i in (0, 1, 3, 4)}
        repair_provider(source, 2)
        assert {i: stored_tables(source, i) for i in (0, 1, 3, 4)} == before

    def test_repair_after_missed_writes(self):
        """A provider that crashed through INSERTs is stale; repair
        re-syncs it to the quorum state."""
        source = build_source()
        source.cluster.inject_fault(3, Fault(FailureMode.CRASH))
        source.sql(
            "INSERT INTO Employees (eid, name, lastname, department, salary) "
            "VALUES (9001, 'NEW', 'HIRE', 'Sales', 50000)"
        )
        source.cluster.clear_faults()
        repair_provider(source, 3, tables=["Employees"])
        report = verify_repair(source, 3)
        assert report["Employees"]["consistent"] == 1
        assert report["Employees"]["rows"] == report["Employees"]["quorum_rows"]
        # the repaired provider serves reads again: rotate it into a quorum
        rows = source.sql("SELECT name FROM Employees WHERE eid = 9001")
        assert rows == [{"name": "NEW"}]

    def test_repair_tolerates_tampering_source(self):
        """Rebuilt shares come from the majority polynomial, not any single
        source provider, so a tampering member of the source quorum does
        not poison the repair."""
        source = build_source()
        originals = stored_tables(source, 2)
        provider = source.cluster.providers[2]
        for table_name in source.table_names():
            provider.store.drop_table(source.physical_name(table_name))
        source.cluster.inject_fault(0, Fault(FailureMode.TAMPER, seed=4))
        repair_provider(source, 2)
        source.cluster.clear_faults()
        assert stored_tables(source, 2) == originals

    def test_queries_correct_after_repair(self):
        source = build_source()
        oracle = source.sql("SELECT * FROM Employees WHERE salary >= 10000")
        provider = source.cluster.providers[1]
        for table_name in source.table_names():
            provider.store.drop_table(source.physical_name(table_name))
        repair_provider(source, 1)
        assert rows_equal_unordered(
            source.sql("SELECT * FROM Employees WHERE salary >= 10000"), oracle
        )


class TestRepairGuards:
    def test_bad_index_rejected(self):
        source = build_source(rows=10)
        with pytest.raises(QuorumError):
            repair_provider(source, 7)

    def test_still_crashed_target_rejected(self):
        source = build_source(rows=10)
        source.cluster.inject_fault(2, Fault(FailureMode.CRASH))
        with pytest.raises(ProviderUnavailableError):
            repair_provider(source, 2)

    def test_repair_releases_quarantine(self):
        source = build_source(rows=10)
        source.cluster.health.quarantine(2, reason="blamed")
        repair_provider(source, 2)
        assert not source.cluster.health.is_quarantined(2)

    def test_verify_flags_inconsistent_provider(self):
        source = build_source(rows=10)
        provider = source.cluster.providers[2]
        physical = source.physical_name("Employees")
        table = provider.store.table(physical)
        row_id = table.all_row_ids()[0]
        table.update_rows([[row_id, {"salary": table.rows[row_id]["salary"] + 1}]])
        report = verify_repair(source, 2)
        assert report["Employees"]["consistent"] == 0
