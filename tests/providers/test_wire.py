"""The provider wire is checked once, at ``handle``, against ``WIRE``.

Each request below matches no form its RPC declares — a field of the
wrong type, a field missing, a condition of another shape, an epoch that
does not compare — and each used to raise a bare ``TypeError``,
``KeyError``, ``AttributeError`` or ``ZeroDivisionError`` from inside a
handler, or to be accepted.  One (``insert_many`` with ``epoch: "x"``)
also kept its row with no undo record.  Now each raises
``ProviderError`` naming the RPC and the field and changes nothing: rows,
every index's entries, history, version, epoch, history horizon and
``applied_txns`` of every table stay as they were, and no table appears.
"""

import pytest

from repro.errors import ProviderError
from repro.providers.provider import ShareProvider
from repro.sim.network import ShareRows

#: a well-formed condition, for the cases that break one key of it
RANGE = {"column": "k", "op": "range", "low": 0, "high": 50}

#: a well-formed transactional op
INCREMENT = ["increment_rows", {"table": "T", "increments": [[0, {"w": 5}]]}]

#: case -> (method, request, the field the refusal names)
MALFORMED = {
    "update_rows-updates-int": ("update_rows", {"table": "T", "updates": 5}, "updates"),
    "delete_rows-row_ids-none": ("delete_rows", {"table": "T", "row_ids": None}, "row_ids"),
    "txn_apply-txns-int": ("txn_apply", {"txns": 5}, "txns"),
    "batch-requests-int": ("batch", {"requests": 5}, "requests"),
    "select-conditions-int": ("select", {"table": "T", "conditions": 5}, "conditions"),
    "select-limit-str": ("select", {"table": "T", "limit": "a"}, "limit"),
    "select-no-table": ("select", {"conditions": []}, "table"),
    "update_rows-no-updates": ("update_rows", {"table": "T"}, "updates"),
    "aggregate-no-func": ("aggregate", {"table": "T", "column": "w"}, "func"),
    "join-no-right_column": (
        "join", {"left": "T", "right": "T", "left_column": "k"}, "right_column",
    ),
    "select-condition-no-high": (
        "select", {"table": "T", "conditions": [{k: v for k, v in RANGE.items() if k != "high"}]},
        "conditions",
    ),
    "select-condition-no-column": (
        "select",
        {"table": "T", "conditions": [{k: v for k, v in RANGE.items() if k != "column"}]},
        "conditions",
    ),
    "select-condition-low-str": (
        "select", {"table": "T", "conditions": [{**RANGE, "low": "a"}]}, "conditions",
    ),
    "aggregate_group-condition-int": (
        "aggregate_group",
        {"table": "T", "func": "count", "group_column": "k", "conditions": [5]},
        "conditions",
    ),
    "txn_apply-payload-int": ("txn_apply", {"txns": [[9, [["update_rows", 5]]]]}, "txns"),
    # applied twice, an increment would move the share by 2 delta
    "txn_apply-txn-id-repeated": (
        "txn_apply",
        {"txns": [[88, [INCREMENT]], [88, [INCREMENT]]]},
        "txns",
    ),
    "increment_rows-delta-str": (
        "increment_rows", {"table": "T", "row_ids": [0], "deltas": {"w": "x"}}, "deltas",
    ),
    "increment_rows-modulus-str": (
        "increment_rows",
        {"table": "T", "row_ids": [0], "deltas": {"w": 1}, "modulus": "p"},
        "modulus",
    ),
    "increment_rows-modulus-zero": (
        "increment_rows",
        {"table": "T", "row_ids": [0], "deltas": {"w": 1}, "modulus": 0},
        "modulus",
    ),
    "scan_asof-epoch-str": ("scan_asof", {"table": "T", "epoch": "x"}, "epoch"),
    "insert_many-epoch-str": (
        "insert_many", {"table": "T", "rows": [[9, {"k": 1}]], "epoch": "x"}, "epoch",
    ),
    "create_table-searchable-int": (
        "create_table", {"table": "U", "columns": ["a"], "searchable": 5}, "searchable",
    ),
    "select-limit-negative": ("select", {"table": "T", "limit": -1}, "limit"),
    "select-descending-str": ("select", {"table": "T", "descending": "yes"}, "descending"),
    "select-projection-str": ("select", {"table": "T", "projection": "k"}, "projection"),
    "select-range-low-none": (
        "select", {"table": "T", "conditions": [{**RANGE, "low": None}]}, "conditions",
    ),
    "create_table-columns-str": (
        "create_table", {"table": "U", "columns": "ab", "searchable": []}, "columns",
    ),
}


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
    store = provider.store
    tables = {}
    for name in store.table_names():
        table = store.table(name)
        tables[name] = (
            table.rows,
            {column: index.entries_in_order() for column, index in table.indexes.items()},
            list(table.history),
            table.version,
            table.epoch,
            table.history_floor,
        )
    return tables, set(store.applied_txns)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_request_is_refused_at_the_wire_and_changes_nothing(case):
    method, request, field = MALFORMED[case]
    provider = five_row_provider()
    before = state(provider)
    with pytest.raises(ProviderError, match=f"{method} (field|request).*'{field}'"):
        provider.handle(method, request)
    assert state(provider) == before


def test_a_bad_rider_fails_alone():
    provider = five_row_provider()
    response = provider.handle("batch", {"requests": [
        ["row_count", {"table": "T"}],
        ["select", {"table": "T", "conditions": 5}],
        ["nope", {}],
        ["batch", {"requests": []}],
    ]})["responses"]
    assert response[0] == ["ok", {"count": 5}]
    for entry in response[1:]:
        assert entry[:2] == ["err", "ProviderError"]
    assert "select field 'conditions'" in response[1][2]


def test_an_undeclared_field_is_refused():
    provider = five_row_provider()
    with pytest.raises(ProviderError, match="row_count request carries undeclared field 'pad'"):
        provider.handle("row_count", {"table": "T", "pad": "x"})


def test_increment_rows_takes_either_form_whole():
    provider = five_row_provider()
    before = state(provider)
    for request, message in [
        ({"table": "T", "row_ids": [0]}, "lacks field 'deltas'"),
        ({"table": "T", "increments": [[0, {"w": 1}]], "row_ids": [0], "deltas": {"w": 1}},
         "undeclared field 'increments'"),
    ]:
        with pytest.raises(ProviderError, match=message):
            provider.handle("increment_rows", request)
    assert state(provider) == before
    assert provider.handle(
        "increment_rows", {"table": "T", "increments": [[0, {"w": 1}]]}
    ) == {"incremented": 1}


def test_an_insert_refused_for_its_epoch_keeps_no_row():
    # the table stamps its epoch before any row moves
    provider = five_row_provider()
    table = provider.store.table("T")
    before = state(provider)
    with pytest.raises(TypeError):
        table.insert_many(ShareRows.from_pairs([[9, {"k": 1}]]), epoch="x")
    assert state(provider) == before
    assert sorted(table.rows_asof(1)) == [0, 1, 2, 3, 4]
