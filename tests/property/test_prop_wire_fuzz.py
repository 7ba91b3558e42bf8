"""Property: ``ShareProvider.handle`` answers or refuses typed, and a
refused request changes nothing.

Requests are drawn from the provider's own wire table (``WIRE``): a
method, one of its forms, and a value of each declared field's shape —
then, often, mutated away from it (a field dropped, an undeclared field
added, a value swapped for one of another type, a value nested one level
too deep or too shallow, an item of a list swapped).  Whatever arrives,
``handle`` must return a dict or raise a ``ReproError`` subclass; no bare
``TypeError``/``KeyError`` may escape.  A refused request must leave every
table's rows, index entries, history, version, epoch and horizon and
``applied_txns`` as they were, and table ``T`` must still equal
``test_prop_storage_oracle``'s dict-of-rows model, which follows every
accepted ``insert_many`` / ``update_rows`` / ``delete_rows`` on ``T``
(any other write that changes ``T`` retires the model for the rest of
the example).

A ``txn_apply`` is drawn with one to three transactions of one to three
ops.  One refused after an op ran has undone that op, so it too leaves
everything as it was but ``version``, which must not have fallen.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.providers import storage
from repro.providers.provider import TXN_OPS, WIRE, ShareProvider
from repro.sim.network import ShareRows
from tests.property.test_prop_storage_oracle import (
    COLUMNS,
    RETENTION,
    SEARCHABLE,
    Model,
    check,
)

TABLES = ["T", "T", "T", "U", "S"]
NAMES = COLUMNS + ["zz"]
#: fields whose ``name`` is a table's
TABLE_FIELDS = {"table", "left", "right", "into"}
READS = sorted(set(WIRE) - TXN_OPS - {
    "batch", "txn_apply", "create_table", "drop_table", "merge_table",
})
MODELLED = {"insert_many": "insert", "update_rows": "update", "delete_rows": "delete"}

row_ids = st.integers(min_value=0, max_value=12)
shares = st.integers(min_value=-3, max_value=40)
junk = st.sampled_from([5, -1, "x", None, True, 2.5, [], {}, [5], [[1]], {"a": 1}, b"1"])


def cell_dicts(values):
    return st.dictionaries(st.sampled_from(COLUMNS + ["zz", 5]), values, max_size=3)


def pairs(values):
    return st.lists(st.tuples(row_ids, cell_dicts(values)).map(list), max_size=4)


def condition():
    return st.fixed_dictionaries({
        "column": st.sampled_from(NAMES), "op": st.just("range"),
        "low": shares, "high": shares,
    })


@st.composite
def shaped(draw, shape, field, model_epoch):
    """A value of ``shape`` for ``field``."""
    if shape == "name":
        return draw(st.sampled_from(TABLES if field in TABLE_FIELDS else NAMES))
    if shape == "names":
        pool = COLUMNS if field in ("columns", "searchable") else NAMES
        return draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    if shape == "natural":
        if field == "epoch":
            return model_epoch + draw(st.integers(min_value=0, max_value=2))
        return draw(st.integers(min_value=0, max_value=12))
    if shape == "positive":
        return draw(st.sampled_from([7, (1 << 61) - 1]))
    if shape == "bool":
        return draw(st.booleans())
    if shape == "func":
        return draw(st.sampled_from(["sum", "count", "min", "max", "median"]))
    if shape == "naturals":
        return draw(st.lists(row_ids, max_size=4))
    if shape == "deltas":
        return draw(st.dictionaries(st.sampled_from(["w", "w", "k", "zz", 5]), shares, max_size=2))
    if shape == "share pairs":
        return draw(pairs(st.one_of(st.none(), shares)))
    if shape == "delta pairs":
        return draw(pairs(shares))
    if shape == "rows":
        rows = draw(pairs(st.one_of(st.none(), shares)))
        return ShareRows.from_pairs(rows) if draw(st.booleans()) else rows
    if shape == "conditions":
        return draw(st.lists(condition(), max_size=2))
    if shape == "calls":
        methods = st.sampled_from(READS)
        return draw(st.lists(
            methods.flatmap(lambda m: wire_request(m, model_epoch).map(lambda r: [m, r])),
            max_size=3,
        ))
    assert shape == "txns"
    # on the one table that exists, so that an op often runs before one
    # is refused
    op = st.sampled_from(sorted(TXN_OPS)).flatmap(
        lambda m: wire_request(m, model_epoch).map(lambda r: [m, dict(r, table="T")])
    )
    ids = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3, unique=True))
    return [[txn_id, draw(st.lists(op, min_size=1, max_size=3))] for txn_id in ids]


@st.composite
def wire_request(draw, method, model_epoch=1):
    """A request matching one of ``method``'s forms."""
    form = draw(st.sampled_from(WIRE[method]))
    request = {}
    for field, shape in form.items():
        if shape.endswith("?") and draw(st.booleans()):
            continue
        request[field] = draw(shaped(shape.rstrip("?"), field, model_epoch))
    return request


@st.composite
def mutated(draw, request):
    """``request`` as drawn, or moved away from its form by one step."""
    request = dict(request)
    how = draw(st.sampled_from(
        ["none", "none", "drop", "add", "swap", "nest", "unnest", "item"]
    ))
    fields = sorted(request)
    if how == "add" or not fields:
        request[draw(st.sampled_from(["zz", "op", "rows", "table"]))] = draw(junk)
        return request
    field = draw(st.sampled_from(fields))
    value = request[field]
    if how == "drop":
        del request[field]
    elif how == "swap":
        request[field] = draw(junk)
    elif how == "nest":
        request[field] = [value]
    elif how == "unnest" and isinstance(value, (list, tuple)) and value:
        request[field] = value[0]
    elif how == "item" and isinstance(value, list) and value:
        items = list(value)
        items[draw(st.integers(min_value=0, max_value=len(items) - 1))] = draw(junk)
        request[field] = items
    return request


def snapshot(provider):
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


def unversioned(snap):
    """A :func:`snapshot` without each table's ``version``, and the versions."""
    tables, applied = snap
    return (
        ({name: state[:3] + state[4:] for name, state in tables.items()}, applied),
        {name: state[3] for name, state in tables.items()},
    )


def op_count(method, request):
    """How many ops a ``txn_apply`` request carries (0 for anything else)."""
    txns = request.get("txns") if method == "txn_apply" else None
    try:
        return sum(len(ops) for _, ops in txns)
    except (TypeError, ValueError):
        return 0


def modelled(method, request):
    """``(kind, pairs or ids, stamp)`` of an accepted write the model
    follows, or None."""
    if method not in MODELLED or request.get("table") != "T":
        return None
    kind = MODELLED[method]
    if kind == "insert":
        return kind, [[rid, cells] for rid, cells in request["rows"]], request.get("epoch")
    if kind == "update":
        return kind, request["updates"], request.get("epoch")
    return kind, request["row_ids"], request.get("epoch")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_handle_answers_or_refuses_typed_and_a_refusal_changes_nothing(data):
    with mock.patch.object(storage, "_BLOCK", 3):
        provider = ShareProvider("P")
        provider.store.history_retention = RETENTION
        table = provider.store.create_table("T", COLUMNS, SEARCHABLE)
        model = Model()
        start = [[row_id, {"k": row_id % 4, "j": None, "w": row_id}] for row_id in range(6)]
        table.insert_many(ShareRows.from_pairs(start), epoch=1)
        model.apply("insert", start, 1)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            method = data.draw(st.sampled_from(sorted(WIRE) + ["txn_apply"] * 3))
            request = data.draw(wire_request(method, table.epoch))
            request = data.draw(mutated(request))
            before = snapshot(provider)
            try:
                response = provider.handle(method, request)
            except ReproError:
                if op_count(method, request) > 1:
                    (same, versions), (was, was_versions) = map(
                        unversioned, (snapshot(provider), before)
                    )
                    assert same == was, (method, request)
                    assert all(versions[t] >= was_versions[t] for t in was_versions)
                    if model is not None:  # undone, but counted: it only rises
                        model.version += versions["T"] - was_versions["T"]
                else:
                    assert snapshot(provider) == before, (method, request)
            else:
                assert isinstance(response, dict)
                write = modelled(method, request)
                if model is not None and write is not None:
                    model.apply(*write)
                elif snapshot(provider)[0].get("T") != before[0].get("T"):
                    model = None
            if model is not None:
                check(provider.store.table("T"), model)
