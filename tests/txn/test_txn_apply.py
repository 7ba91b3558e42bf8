"""``txn_apply``: one validate-then-apply round per commit.

A provider validates every op of a request (a transactional method, a
table it holds) before it mutates anything, so a refused request leaves
it exactly as it was.  What validation cannot see is a provider whose
rows have drifted from the client's view — ``plan_write`` cannot either,
and neither could the old ``txn_prepare`` (it checked the same two
things): such a provider refuses alone, after the others applied.
"""

import pytest

from repro.client.datasource import DataSource
from repro.errors import ProviderError
from repro.persistence import provider_to_dict
from repro.providers.cluster import ProviderCluster
from repro.sqlengine.schema import TableSchema, integer_column
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import TransactionManager

TXN_METHODS = {"insert_many", "update_rows", "delete_rows", "increment_rows"}


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
    source = DataSource(ProviderCluster(3, 2), seed=29)
    source.create_table(accounts_schema())
    source.insert_many("Accounts", [{"aid": i, "balance": 100 * i} for i in range(5)])
    manager = TransactionManager(source, str(tmp_path / "client.wal"))
    # one applied transaction, so applied_txns and the undo history hold it
    manager.execute("UPDATE Accounts SET balance = 7 WHERE aid = 2")
    yield source, manager
    manager.close()


def provider_state(provider):
    table = provider.store.table("Accounts")
    indexes = {
        column: table.index_for(column).entries_in_order()
        for column in sorted(table.searchable)
    }
    return provider_to_dict(provider), table.version, indexes


VALID = ["delete_rows", {"table": "Accounts", "row_ids": [0], "epoch": 9}]

REFUSED = {
    "later_op_names_an_unknown_table": [
        [50, [VALID, ["delete_rows", {"table": "Nope", "row_ids": [1], "epoch": 9}]]],
    ],
    "later_op_is_not_transactional": [
        [50, [VALID, ["merge_table", {"table": "Accounts", "into": "Accounts"}]]],
    ],
    "later_transaction_is_refused": [
        [50, [VALID]],
        [51, [["create_table", {"table": "X", "columns": ["a"], "searchable": []}]]],
    ],
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_apply_changes_nothing(deployment, case):
    source, _ = deployment
    provider = source.cluster.providers[0]
    before = provider_state(provider)
    with pytest.raises(ProviderError):
        provider.handle("txn_apply", {"txns": REFUSED[case]})
    assert provider_state(provider) == before
    # the same request minus the refused part applies
    provider.handle("txn_apply", {"txns": [[50, [VALID]]]})
    assert 50 in provider.store.applied_txns
    assert not provider.store.table("Accounts").has_row(0)


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO Accounts (aid, balance) VALUES (77, 1)",
        "UPDATE Accounts SET balance = 5 WHERE aid = 1",
        "UPDATE Accounts SET balance = balance + 5 WHERE aid >= 1",
        "DELETE FROM Accounts WHERE aid = 4",
    ],
)
def test_a_planned_op_always_passes_validation(deployment, sql):
    """What ``txn_apply`` validates is what ``plan_write`` guarantees: one
    of the four transactional methods, on a table every provider holds."""
    source, manager = deployment
    op = source.plan_write(parse_sql(sql))
    assert op.method in TXN_METHODS
    physical = source.physical_name(op.table)
    assert all(p.store.has_table(physical) for p in source.cluster.providers)
    manager.execute(sql)  # and it applies everywhere
    ids = [sorted(p.store.applied_txns) for p in source.cluster.providers]
    assert ids[0] == ids[1] == ids[2]


def test_a_provider_whose_rows_drifted_refuses_alone(deployment):
    """The answer to "can a provider-side error still hit some providers
    and not others once ``plan_write`` validated the statement?": yes, but
    only from state the client cannot see — here provider 1 already holds
    the row id the client assigns next.  Prepare-then-commit checked no
    more than ``txn_apply`` does, so its commit round failed the same way.
    """
    source, manager = deployment
    drifted = source.cluster.providers[1]
    drifted.handle(
        "insert_many", {"table": "Accounts", "rows": [[5, {"aid": 1, "balance": 2}]]}
    )
    before = provider_state(drifted)
    with pytest.raises(ProviderError, match="duplicate row id 5"):
        manager.execute("INSERT INTO Accounts (aid, balance) VALUES (99, 1)")
    txn_id = source.txn_id_high
    applied = [txn_id in p.store.applied_txns for p in source.cluster.providers]
    assert applied == [True, False, True]
    assert provider_state(drifted) == before
