"""A provider whose rows drifted refuses a transactional write whole.

A provider that was down while an INSERT committed misses that row, and
nothing the client plans can see it.  A later transaction naming the
missed row and a row the provider does hold is refused there as one
request: the held row stays, the transaction stays out of
``applied_txns``, and a replay of the WAL meets the same error as the
first attempt — not "no row with id …" for a row a half-applied first
attempt removed.  The same holds for a multi-row INSERT that hits an id
the provider already holds.
"""

import pytest

from repro.client.datasource import DataSource
from repro.errors import ProviderError
from repro.persistence import provider_to_dict
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import FailureMode, Fault
from repro.sqlengine.schema import TableSchema, integer_column
from repro.txn import TransactionManager

DRIFTED = 1


def accounts_schema():
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000),
            integer_column("balance", 0, 1_000_000, searchable=False),
        ),
        primary_key="aid",
    )


@pytest.fixture
def deployment(tmp_path):
    source = DataSource(ProviderCluster(3, 2), seed=31)
    source.create_table(accounts_schema())
    source.insert_many("Accounts", [{"aid": i, "balance": 100 * i} for i in range(5)])
    manager = TransactionManager(source, str(tmp_path / "client.wal"))
    yield source, manager
    manager.close()


def replay(source, manager):
    """Restart the client: a fresh manager recovers from the same WAL."""
    manager.close()
    recovering = TransactionManager(source, manager.wal.path)
    try:
        recovering.recover()
    finally:
        recovering.close()


def provider_state(provider):
    table = provider.store.table("Accounts")
    indexes = {
        column: table.index_for(column).entries_in_order()
        for column in sorted(table.searchable)
    }
    return provider_to_dict(provider), table.version, indexes


def refused_twice(source, manager, sql):
    """Run ``sql`` (refused at the drifted provider), then replay the WAL;
    the provider must read as before after each.  Returns both errors."""
    drifted = source.cluster.providers[DRIFTED]
    before = provider_state(drifted)
    applied = set(drifted.store.applied_txns)
    errors = []
    for attempt in (lambda: manager.execute(sql), lambda: replay(source, manager)):
        with pytest.raises(ProviderError) as caught:
            attempt()
        errors.append(str(caught.value))
        assert provider_state(drifted) == before
        assert drifted.store.applied_txns == applied
    return errors


def test_a_delete_naming_a_missed_row_is_refused_whole(deployment):
    source, manager = deployment
    source.cluster.inject_fault(DRIFTED, Fault(FailureMode.CRASH))
    missed = manager.execute("INSERT INTO Accounts (aid, balance) VALUES (50, 1)")
    # read while the provider is still down: the DELETE below takes its
    # matches from this cached read, so it names the missed row too
    assert len(manager.execute("SELECT * FROM Accounts WHERE aid >= 4")) == 2
    source.cluster.clear_faults()
    drifted = source.cluster.providers[DRIFTED]
    table = drifted.store.table(source.physical_name("Accounts"))
    assert not table.has_row(missed) and table.has_row(4)
    # row 4 (aid 4) comes first in the request, the missed row after it
    errors = refused_twice(source, manager, "DELETE FROM Accounts WHERE aid >= 4")
    assert errors[0] == errors[1] == f"table Accounts: no row with id {missed}"
    assert table.has_row(4)
    for index, provider in enumerate(source.cluster.providers):
        if index != DRIFTED:
            held = provider.store.table("Accounts")
            assert not held.has_row(4) and not held.has_row(missed)


def test_a_multi_row_insert_hitting_a_held_row_id_is_refused_whole(deployment):
    """One transaction, one ``insert_many`` op of two rows — the shape a
    batch upload takes — at a provider that already holds the second
    id; the round is sent, then sent again as a replay would."""
    source, _ = deployment
    drifted = source.cluster.providers[DRIFTED]
    row_ids, shared, _ = source.prepare_insert_shares(
        "Accounts", [{"aid": 60, "balance": 1}, {"aid": 61, "balance": 1}]
    )
    drifted.handle(
        "insert_many", {"table": "Accounts", "rows": [[row_ids[1], {"aid": 1, "balance": 2}]]}
    )
    txn_id = source.txn_id_high + 1

    def apply_request(i):
        op = {"table": "Accounts", "rows": shared[i], "epoch": 2}
        return {"txns": [[txn_id, [["insert_many", op]]]]}

    before = provider_state(drifted)
    applied = set(drifted.store.applied_txns)
    errors = []
    for _ in range(2):  # the first round, then the replay's
        with pytest.raises(ProviderError) as caught:
            source.control_round("txn_apply", apply_request, source.cluster.write_targets())
        errors.append(str(caught.value))
        assert provider_state(drifted) == before
        assert drifted.store.applied_txns == applied
    assert errors[0] == errors[1] == f"table Accounts: duplicate row id {row_ids[1]}"
    assert not drifted.store.table("Accounts").has_row(row_ids[0])
    for index, provider in enumerate(source.cluster.providers):
        if index != DRIFTED:
            assert txn_id in provider.store.applied_txns
            assert provider.store.table("Accounts").has_row(row_ids[0])
