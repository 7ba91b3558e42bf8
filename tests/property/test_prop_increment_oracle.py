"""Property: ``increment_rows`` == one read-modify-write per row.

The oracle is the plainest reading of Sec. V-C's incremental update: for
each listed row, in request order, read the row and write
``{c: (share + Δ) mod p}`` for every delta column the row holds a
non-NULL share in, through ``ShareTable.update_rows`` with a batch of
one; a row with nothing to
write is left alone and not counted.  The provider's one pass must leave
the same rows, undo history, version, epoch and history horizon, and
answer that count — for both wire shapes (compact
``{row_ids, deltas}``, per-row ``increments``), with unknown columns,
NULL cells, moduli 2⁶¹−1, 2⁸⁹ and none, shares wider than the modulus,
stamped and unstamped epochs, and slots moved by an earlier delete.

A request naming a missing row, a row twice, or an order-preserving
column is refused with a typed error and changes nothing.

No engine choice is involved, so this runs with and without numpy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProviderError, QueryError
from repro.providers.provider import ShareProvider

COLUMNS = ["k", "a", "b", "c"]
SEARCHABLE = ["k"]

shares = st.integers(min_value=0, max_value=2**90)
cells = st.one_of(st.none(), shares)
epochs = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
moduli = st.sampled_from([2**61 - 1, 2**89, None])
deltas = st.dictionaries(
    st.sampled_from(["a", "b", "c", "zz"]), shares, max_size=4
)


@st.composite
def tables(draw):
    """Rows over ``COLUMNS`` with sparse ids, the epoch they were loaded
    at, and an optional row deleted before the increment (its slot is
    refilled by the last row)."""
    ids = draw(st.lists(
        st.integers(min_value=0, max_value=60), unique=True, max_size=12
    ))
    rows = [
        [rid, {"k": draw(cells), "a": draw(cells), "b": draw(cells),
               "c": draw(cells)}]
        for rid in ids
    ]
    deleted = draw(st.one_of(st.none(), st.sampled_from(ids))) if ids else None
    return rows, draw(epochs), deleted


@st.composite
def cases(draw):
    rows, load_epoch, deleted = draw(tables())
    present = [rid for rid, _ in rows if rid != deleted]
    chosen = draw(st.permutations(present))
    chosen = chosen[: draw(st.integers(min_value=0, max_value=len(chosen)))]
    request = {"table": "T"}
    if draw(st.booleans()):
        request["row_ids"] = chosen
        request["deltas"] = draw(deltas)
    else:
        request["increments"] = [[rid, draw(deltas)] for rid in chosen]
    modulus = draw(moduli)
    if modulus is not None:
        request["modulus"] = modulus
    epoch = draw(epochs)
    if epoch is not None:
        request["epoch"] = epoch
    return rows, load_epoch, deleted, request


def build(rows, load_epoch, deleted):
    provider = ShareProvider("P")
    provider.handle(
        "create_table",
        {"table": "T", "columns": COLUMNS, "searchable": SEARCHABLE},
    )
    provider.handle(
        "insert_many", {"table": "T", "rows": rows, "epoch": load_epoch}
    )
    if deleted is not None:
        provider.handle("delete_rows", {"table": "T", "row_ids": [deleted]})
    return provider


def state(provider):
    table = provider.store.table("T")
    return (
        table.rows,
        list(table.history),
        table.version,
        table.epoch,
        table.history_floor,
    )


def entries_of(request):
    if "increments" in request:
        return request["increments"]
    return [[rid, request["deltas"]] for rid in request["row_ids"]]


def oracle_increment(provider, request):
    """One ``ShareTable.update_rows`` of one row per row with anything to
    assign."""
    table = provider.store.table("T")
    modulus = request.get("modulus")
    touched = 0
    for row_id, row_deltas in entries_of(request):
        row = table.get(row_id)
        assignments = {}
        for column, delta in row_deltas.items():
            if row.get(column) is not None:
                total = row[column] + delta
                assignments[column] = total if modulus is None else total % modulus
        if assignments:
            table.update_rows([[row_id, assignments]], epoch=request.get("epoch"))
            touched += 1
    return {"incremented": touched}


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_one_pass_equals_one_update_per_row(case):
    rows, load_epoch, deleted, request = case
    provider = build(rows, load_epoch, deleted)
    oracle = build(rows, load_epoch, deleted)
    got = provider.handle("increment_rows", dict(request))
    assert got == oracle_increment(oracle, request)
    assert state(provider) == state(oracle)


@given(
    case=cases(),
    poison=st.sampled_from(["missing", "duplicate", "searchable"]),
    position=st.integers(min_value=0),
)
@settings(max_examples=150, deadline=None)
def test_a_refused_request_changes_nothing(case, poison, position):
    rows, load_epoch, deleted, request = case
    entries = entries_of(request)
    if not entries and poison != "missing":
        return
    poisoned = dict(request)
    where = position % (len(entries) + 1)
    if poison == "searchable":
        error = QueryError
        if "deltas" in request:
            poisoned["deltas"] = {**request["deltas"], "k": 1}
        else:
            where %= len(entries)
            row_id, row_deltas = entries[where]
            poisoned["increments"] = (
                entries[:where] + [[row_id, {**row_deltas, "k": 1}]]
                + entries[where + 1:]
            )
    else:
        error = ProviderError
        row_id = 61 if poison == "missing" else entries[0][0]  # ids stop at 60
        if "row_ids" in request:
            ids = request["row_ids"]
            poisoned["row_ids"] = ids[:where] + [row_id] + ids[where:]
        else:
            poisoned["increments"] = (
                entries[:where] + [[row_id, {"a": 1}]] + entries[where:]
            )
    provider = build(rows, load_epoch, deleted)
    before = state(provider)
    with pytest.raises(error):
        provider.handle("increment_rows", poisoned)
    assert state(provider) == before
