"""A refused provider write changes nothing, directly or inside a
transaction.

Every write RPC validates its whole request before any row moves, so a
request with one bad entry anywhere — a missing row id (update, delete)
or a taken one (insert), a row id named twice, a column the table lacks
(NULL or not), a malformed entry — raises a typed error and leaves rows,
every index's entries, the undo history, version, epoch, history horizon
and ``applied_txns`` as they were.  Inside ``txn_apply`` the refused
transaction stays out of ``applied_txns``, so a WAL replay sends it again
and must meet the same error, not one a half-applied first attempt left
behind.
"""

import re

import pytest

from repro.errors import ProviderError
from repro.providers.provider import ShareProvider

#: shape -> (method, request fields): one bad entry after a good one
REFUSED = {
    "delete_missing_row": ("delete_rows", {"row_ids": [0, 99]}),
    "update_missing_row": ("update_rows", {"updates": [[1, {"w": 5}], [99, {"w": 6}]]}),
    "insert_taken_row": ("insert_many", {"rows": [[7, {"k": 1}], [2, {"k": 2}]]}),
    "insert_row_twice": ("insert_many", {"rows": [[7, {"k": 1}], [7, {"k": 2}]]}),
    "update_row_twice": ("update_rows", {"updates": [[1, {"w": 5}], [1, {"w": 6}]]}),
    "delete_row_twice": ("delete_rows", {"row_ids": [1, 1]}),
    "update_unknown_column": ("update_rows", {"updates": [[1, {"w": 5}], [2, {"zz": 6}]]}),
    "insert_null_unknown_column": ("insert_many", {"rows": [[7, {"k": 1}], [8, {"zz": None}]]}),
    "update_unkeyable_share": ("update_rows", {"updates": [[1, {"k": 5}], [2, {"k": "x"}]]}),
}

#: (method, request field, value) that raised a bare exception before
#: writes were validated whole
MALFORMED = [
    ("update_rows", "updates", [[0]]),
    ("update_rows", "updates", [[[0], {"b": 1}]]),
    ("delete_rows", "row_ids", [[0]]),
    ("insert_many", "rows", [[5]]),
    ("increment_rows", "row_ids", [[0]]),
]


def five_row_provider():
    provider = ShareProvider("P")
    provider.handle(
        "create_table", {"table": "T", "columns": ["k", "w"], "searchable": ["k"]}
    )
    provider.handle("insert_many", {
        "table": "T", "epoch": 1,
        "rows": [[i, {"k": 7 * i, "w": 100 + i}] for i in range(5)],
    })
    provider.handle("txn_apply", {"txns": [[3, [
        ["update_rows", {"table": "T", "epoch": 2, "updates": [[4, {"k": 1}]]}],
    ]]]})
    return provider


def state(provider):
    table = provider.store.table("T")
    return (
        table.rows,
        {column: index.entries_in_order() for column, index in table.indexes.items()},
        list(table.history),
        table.version,
        table.epoch,
        table.history_floor,
        set(provider.store.applied_txns),
    )


def request_for(method, fields):
    request = {"table": "T", "epoch": 5, **fields}
    if method == "increment_rows" and "deltas" not in request:
        request["deltas"] = {"w": 1}
    return request


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_a_refused_write_changes_nothing(shape):
    provider = five_row_provider()
    method, fields = REFUSED[shape]
    before = state(provider)
    with pytest.raises(ProviderError):
        provider.handle(method, request_for(method, fields))
    assert state(provider) == before


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_a_refused_write_inside_a_txn_changes_nothing(shape):
    provider = five_row_provider()
    method, fields = REFUSED[shape]
    txns = {"txns": [[7, [[method, request_for(method, fields)]]]]}
    before = state(provider)
    errors = []
    for _ in range(2):  # the first send, then the WAL replay
        with pytest.raises(ProviderError) as caught:
            provider.handle("txn_apply", txns)
        errors.append(str(caught.value))
        assert state(provider) == before
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "method, field, value", MALFORMED, ids=[f"{m}-{v}" for m, _, v in MALFORMED]
)
def test_a_malformed_write_is_refused_typed_and_changes_nothing(method, field, value):
    provider = five_row_provider()
    before = state(provider)
    with pytest.raises(ProviderError):
        provider.handle(method, request_for(method, {field: value}))
    assert state(provider) == before


def test_the_first_offender_in_request_order_is_named():
    provider = five_row_provider()
    cases = [
        ("delete_rows", {"row_ids": [0, 98, 1, 1, 99]}, "no row with id 98"),
        ("delete_rows", {"row_ids": [0, 1, 1, 98]}, "row id 1 is named twice"),
        ("insert_many", {"rows": [[9, {}], [3, {}], [9, {}]]}, "duplicate row id 3"),
        ("insert_many", {"rows": [[9, {}], [9, {}], [3, {}]]}, "duplicate row id 9"),
        ("update_rows", {"updates": [[0, {"w": 1}], [1, {"y": 1}], [2, {"z": 1}]]},
         "unknown columns ['y']"),
        ("update_rows", {"updates": [[0, {"w": 1}], [1, {"k": 2.5}], [2, {"k": "x"}]]},
         "field 'updates' must be a list of [int >= 0, {column: int or None}], "
         "holding [1, {'k': 2.5}]"),
        ("update_rows", {"updates": [[0, {"w": 1}], [1], [[2], {}]]},
         "field 'updates' must be a list of [int >= 0, {column: int or None}], holding [1]"),
    ]
    for method, fields, message in cases:
        with pytest.raises(ProviderError, match=re.escape(message)):
            provider.handle(method, request_for(method, fields))
