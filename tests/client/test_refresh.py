"""Tests for proactive share refresh (mobile-adversary defence)."""

import pytest

from repro import DataSource, ProviderCluster, Table, TableSchema, integer_column
from repro.workloads.employees import employees_table


@pytest.fixture
def source():
    source = DataSource(ProviderCluster(4, 2), seed=67)
    source.outsource_table(employees_table(25, seed=67))
    return source


def random_column_shares(source, table, column):
    """Snapshot every provider's shares of one column."""
    return {
        index: {
            rid: provider.store.table(table).get(rid)[column]
            for rid in provider.store.table(table).all_row_ids()
        }
        for index, provider in enumerate(source.cluster.providers)
    }


class TestRefresh:
    def test_values_unchanged(self, source):
        before = source.sql("SELECT * FROM Employees")
        schema_table = TableSchema(
            "Accounts",
            (
                integer_column("aid", 1, 100),
                integer_column("balance", 0, 10**6, searchable=False),
            ),
            primary_key="aid",
        )
        accounts = Table(
            schema_table, [{"aid": i, "balance": 100 * i} for i in range(1, 11)]
        )
        source.outsource_table(accounts)
        before_accounts = source.sql("SELECT * FROM Accounts")
        assert source.refresh_table_shares("Accounts") == 10
        after_accounts = source.sql("SELECT * FROM Accounts")
        from repro.sqlengine.executor import rows_equal_unordered

        assert rows_equal_unordered(before_accounts, after_accounts)
        # the original (OP-only Employees columns + password-free schema)
        from repro.sqlengine.executor import rows_equal_unordered as req

        assert req(source.sql("SELECT * FROM Employees"), before)

    def test_shares_actually_change(self, source):
        schema_table = TableSchema(
            "Accounts",
            (
                integer_column("aid", 1, 100),
                integer_column("balance", 0, 10**6, searchable=False),
            ),
            primary_key="aid",
        )
        accounts = Table(
            schema_table, [{"aid": i, "balance": 100 * i} for i in range(1, 11)]
        )
        source.outsource_table(accounts)
        before = random_column_shares(source, "Accounts", "balance")
        source.refresh_table_shares("Accounts")
        after = random_column_shares(source, "Accounts", "balance")
        for index in before:
            assert before[index] != after[index], index

    def test_epoch_mixing_fails(self, source):
        """Shares from different refresh epochs cannot be combined — the
        proactive-security property."""
        schema_table = TableSchema(
            "Accounts",
            (
                integer_column("aid", 1, 100),
                integer_column("balance", 0, 10**6, searchable=False),
            ),
            primary_key="aid",
        )
        accounts = Table(schema_table, [{"aid": 1, "balance": 777}])
        source.outsource_table(accounts)
        sharing = source.sharing("Accounts")
        old = random_column_shares(source, "Accounts", "balance")
        source.refresh_table_shares("Accounts")
        new = random_column_shares(source, "Accounts", "balance")
        rid = next(iter(old[0]))
        mixed = {0: old[0][rid], 1: new[1][rid]}
        decoded = sharing.random_scheme.reconstruct(
            {i: s % sharing.random_scheme.field.modulus for i, s in mixed.items()}
        )
        assert sharing.random_scheme.field.decode_signed(decoded) != 777

    def test_op_only_table_is_noop(self, source):
        # Employees has no non-searchable columns in the fixture schema
        searchables = [
            c.searchable for c in source.sharing("Employees").schema.columns
        ]
        if all(searchables):
            assert source.refresh_table_shares("Employees") == 0

    def test_shares_stay_bounded(self, source):
        """Modular reduction at the providers keeps magnitudes bounded
        across many refresh epochs."""
        schema_table = TableSchema(
            "Accounts",
            (
                integer_column("aid", 1, 100),
                integer_column("balance", 0, 10**6, searchable=False),
            ),
            primary_key="aid",
        )
        source.outsource_table(Table(schema_table, [{"aid": 1, "balance": 5}]))
        modulus = source.secrets.field.modulus
        for _ in range(5):
            source.refresh_table_shares("Accounts")
        shares = random_column_shares(source, "Accounts", "balance")
        for per_provider in shares.values():
            for share in per_provider.values():
                assert 0 <= share < modulus
        assert source.sql("SELECT * FROM Accounts")[0]["balance"] == 5
