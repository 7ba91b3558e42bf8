"""A refused ``increment_rows`` changes nothing, directly or inside a
transaction.

The request is validated whole before any cell moves: a missing row id,
a row id named twice and an order-preserving column each refuse it with
a typed error, and rows, undo history, version and epoch read as
before.  Inside ``txn_apply`` the refused transaction does not
enter ``applied_txns``, so a WAL replay sends it again — and it must
still find row 0 untouched, or the replay would add Δ a second time.
"""

import pytest

from repro.core.field import MERSENNE_61
from repro.errors import ProviderError, QueryError
from repro.providers.provider import ShareProvider

REFUSED = {
    "missing_row": (
        {"row_ids": [0, 99], "deltas": {"w": 5}},
        ProviderError,
    ),
    "searchable_in_a_later_row": (
        {"increments": [[0, {"w": 5}], [1, {"k": 5}]]},
        QueryError,
    ),
    "duplicate_row_id": (
        {"row_ids": [3, 3], "deltas": {"w": 5}},
        ProviderError,
    ),
}


def ten_row_provider():
    provider = ShareProvider("P")
    provider.handle(
        "create_table",
        {"table": "T", "columns": ["k", "w"], "searchable": ["k"]},
    )
    provider.handle("insert_many", {
        "table": "T", "epoch": 1,
        "rows": [[i, {"k": 7 * i, "w": 100 + i}] for i in range(10)],
    })
    return provider


def state(provider):
    table = provider.store.table("T")
    return (
        table.rows,
        list(table.history),
        table.version,
        table.epoch,
    )


def request_for(shape):
    fields, error = REFUSED[shape]
    return {"table": "T", "epoch": 2, "modulus": MERSENNE_61, **fields}, error


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_a_refused_increment_changes_nothing(shape):
    provider = ten_row_provider()
    request, error = request_for(shape)
    before = state(provider)
    with pytest.raises(error):
        provider.handle("increment_rows", request)
    assert state(provider) == before


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_a_refused_increment_inside_a_txn_changes_nothing(shape):
    provider = ten_row_provider()
    request, error = request_for(shape)
    txns = {"txns": [[7, [["increment_rows", request]]]]}
    before = state(provider)
    for _ in range(2):  # the first send, then the WAL replay
        with pytest.raises(error):
            provider.handle("txn_apply", txns)
        assert 7 not in provider.store.applied_txns
        assert state(provider) == before
