"""Regression tests for the three bugs ISSUE-15 fixed (each failed at 64d633f)."""

import os

import pytest

from repro.client.datasource import DataSource
from repro.errors import QueryError, UnsupportedQueryError
from repro.providers.cluster import ProviderCluster
from repro.service.sharding import ShardRouter
from repro.sqlengine.schema import TableSchema, integer_column
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import ShardedTransactionManager, TransactionManager


def _accounts(balance_searchable: bool, balance_hi: int) -> TableSchema:
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000),
            integer_column("balance", 0, balance_hi, searchable=balance_searchable),
        ),
        primary_key="aid",
    )


# -- 1. transactional UPDATE of a range-partition column stranded rows ----------


def _sharded(mode: str, tmp_path):
    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=5, mode=mode
    )
    schema = _accounts(balance_searchable=True, balance_hi=100_000)
    if mode == "range":
        router.create_table(schema, partition_column="balance", boundaries=[50_000])
    else:
        router.create_table(schema)
    manager = ShardedTransactionManager(router, str(tmp_path / f"{mode}.wal"))
    for aid in range(6):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({aid}, {10_000 * (aid + 1)})"
        )
    return router, manager


def test_sharded_txn_refuses_to_update_the_range_partition_column(tmp_path):
    router, manager = _sharded("range", tmp_path)
    # 70000 lives in the other group: applying the UPDATE in place would
    # leave the row where pruned reads (balance >= 60000) never look
    with pytest.raises(UnsupportedQueryError, match="re-home rows"):
        manager.execute("UPDATE Accounts SET balance = 70000 WHERE aid = 3")
    assert manager.stats()["logged"] == 6  # nothing reached the WAL
    assert router.sql("SELECT balance FROM Accounts WHERE aid = 3") == [
        {"balance": 40_000}
    ]
    assert router.sql("SELECT COUNT(*) FROM Accounts WHERE balance >= 60000") == 1
    # the supported spelling re-homes the row and pruned reads find it
    manager.execute("DELETE FROM Accounts WHERE aid = 3")
    manager.execute("INSERT INTO Accounts (aid, balance) VALUES (3, 70000)")
    assert sorted(
        row["aid"]
        for row in router.sql("SELECT aid FROM Accounts WHERE balance >= 60000")
    ) == [3, 5]
    manager.close()


def test_sharded_txn_still_updates_that_column_on_a_hash_sharded_table(tmp_path):
    router, manager = _sharded("hash", tmp_path)
    assert manager.execute("UPDATE Accounts SET balance = 70000 WHERE aid = 3") == 1
    assert sorted(
        row["aid"]
        for row in router.sql("SELECT aid FROM Accounts WHERE balance >= 60000")
    ) == [3, 5]
    assert router.sql("SELECT COUNT(*) FROM Accounts WHERE balance >= 60000") == 2
    manager.close()


# -- 2. prepare_increment_shares bounded only positive deltas ---------------------


def test_delta_larger_than_the_domain_is_refused_in_both_directions(tmp_path):
    source = DataSource(ProviderCluster(3, 2), seed=3)
    source.create_table(_accounts(balance_searchable=False, balance_hi=1_000))
    source.insert_many("Accounts", [{"aid": 1, "balance": 5}, {"aid": 2, "balance": 9}])
    everything = parse_sql("SELECT * FROM Accounts WHERE aid >= 0").where
    manager = TransactionManager(source, str(tmp_path / "delta.wal"))
    for delta in (5_000, -5_000):
        with pytest.raises(QueryError, match="domain span"):
            source.increment("Accounts", "balance", delta, everything)
        sign = "+" if delta > 0 else "-"
        with pytest.raises(QueryError, match="domain span"):
            manager.execute(
                f"UPDATE Accounts SET balance = balance {sign} {abs(delta)} WHERE aid >= 0"
            )
    assert manager.stats()["logged"] == 0
    manager.close()
    # the table is still readable (an accepted -5000 decoded outside the domain)
    assert sorted(r["balance"] for r in source.sql("SELECT * FROM Accounts")) == [5, 9]
    # a step that fits the span still goes through, both ways
    assert source.increment("Accounts", "balance", -4, everything) == 2
    assert sorted(r["balance"] for r in source.sql("SELECT * FROM Accounts")) == [1, 5]


# -- 3. throwaway WALs were never removed ------------------------------------------


def test_default_path_wal_is_removed_on_close_and_an_explicit_one_is_kept(tmp_path):
    source = DataSource(ProviderCluster(3, 2), seed=3)
    source.create_table(_accounts(balance_searchable=False, balance_hi=1_000))
    throwaway = TransactionManager(source)
    path = throwaway.wal.path
    throwaway.execute("INSERT INTO Accounts (aid, balance) VALUES (1, 5)")
    assert os.path.exists(path)
    throwaway.close()
    assert not os.path.exists(path)
    throwaway.close()  # closing twice is harmless

    explicit_path = str(tmp_path / "kept.wal")
    explicit = TransactionManager(source, explicit_path)
    explicit.execute("INSERT INTO Accounts (aid, balance) VALUES (2, 6)")
    explicit.close()
    # crash tests recover from an explicit log: it is never deleted
    assert os.path.getsize(explicit_path) > 0
