"""Property: ``ShareTable``'s batch mutators == a dict of rows.

Random batches of inserts, updates and deletes — some of them refused —
run against one ``ShareTable`` and against a plain ``{row_id: row}``
model that shares no code with ``repro.providers.storage``.  The model
decides on its own whether a request is refused: a malformed entry, a
row id that is not a non-negative ``int``, one that is missing (update,
delete) or taken (insert), one named twice, a column the table lacks,
or a searchable cell that is neither an ``int`` nor NULL.  A request
goes to the table directly or through its provider's ``handle``; one
whose shape is wrong (a malformed entry, a junk row id) always goes
through ``handle``, because the provider wire, not the table, refuses
it.  A refused request must raise ``ProviderError`` and change nothing;
an accepted one applies in request order.  After every step the table must hold the
model's rows, every index the model's ``(share, row id)`` pairs in
order, the model's version (one per row written), history length,
epoch and history horizon, and ``rows_asof(e)`` must be the model's rows
as of every retained epoch ``e``.

The index blocks are cut at 3 keys so the draws split, empty and refill
many blocks.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProviderError
from repro.providers import storage
from repro.providers.provider import ShareProvider
from repro.sim.network import ShareRows

COLUMNS = ["k", "j", "w"]
SEARCHABLE = ["k", "j"]
RETENTION = 3

cells = st.one_of(st.none(), st.integers(min_value=-3, max_value=9))
junk_ids = st.sampled_from([-1, True, "3", 2.0, [4]])
junk_cells = st.sampled_from(["x", 2.5, False, b"1"])
malformed = st.sampled_from([[1], [1, {"w": 1}, 2], (2, "w"), 3])
poisons = st.sampled_from(
    [None] * 6 + ["stray id", "repeat", "junk id", "unknown column", "junk cell", "malformed"]
)
stamps = st.sampled_from([None, -1, 0, 0, 1, 2])  # relative to the table's epoch


@st.composite
def requests(draw, rows):
    """``(kind, request, misshapen)``: mostly a request the model accepts
    — held rows for an update or delete, fresh ones for an insert — with
    at most one poison put in at a random position; ``misshapen`` when
    the poison is one of shape, the provider wire's to refuse."""
    kind = draw(st.sampled_from(["insert", "update", "update", "delete"]))
    held = sorted(rows)
    pool = [r for r in range(16) if r not in rows] if kind == "insert" else held
    ids = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4)) if pool else []
    if kind == "delete":
        request = list(ids)
    else:
        columns = COLUMNS if kind == "insert" else SEARCHABLE + ["w", "w"]
        request = [
            [row_id, draw(st.dictionaries(st.sampled_from(columns), cells, max_size=3))]
            for row_id in ids
        ]
    poison = draw(poisons)
    if poison is None or (poison != "junk id" and poison != "stray id" and not request):
        return kind, request, False
    misshapen = poison in ("junk id", "malformed") or (
        kind == "delete" and poison not in ("stray id", "repeat")
    )
    at = draw(st.integers(min_value=0, max_value=max(0, len(request) - 1)))
    if poison == "stray id":  # taken for an insert, missing otherwise
        stray = draw(st.sampled_from(held or [0]) if kind == "insert" else st.integers(16, 20))
        entry = stray if kind == "delete" else [stray, {}]
        request = request[:at] + [entry] + request[at:]
    elif poison == "repeat":
        request = request + [request[at]]
    elif poison == "junk id":
        junk = draw(junk_ids)
        entry = junk if kind == "delete" else [junk, {}]
        request = request[:at] + [entry] + request[at + 1:]
    elif kind == "delete":
        request = request + [draw(junk_ids)]
    elif poison == "unknown column":
        request[at] = [request[at][0], {**request[at][1], "zz": draw(cells)}]
    elif poison == "junk cell":
        column = draw(st.sampled_from(SEARCHABLE))
        request[at] = [request[at][0], {**request[at][1], column: draw(junk_cells)}]
    elif kind == "update":  # malformed
        request = request[:at] + [draw(malformed)] + request[at:]
    return kind, request, misshapen


def well_formed(entry):
    return type(entry) in (list, tuple) and len(entry) == 2 and type(entry[1]) is dict


def accepted(rows, kind, request):
    """Whether the model accepts the request, decided row by row."""
    if kind == "delete":
        request = [[row_id, {}] for row_id in request]
    if not all(well_formed(entry) for entry in request):
        return False
    ids = [row_id for row_id, _ in request]
    if not all(type(row_id) is int and row_id >= 0 for row_id in ids):
        return False
    if len(set(ids)) != len(ids):
        return False
    if any((row_id in rows) == (kind == "insert") for row_id in ids):
        return False
    for _, cells in request:
        if not set(cells) <= set(COLUMNS):
            return False
        if any(type(cells.get(c)) not in (int, type(None)) for c in SEARCHABLE):
            return False
    return True


class Model:
    def __init__(self):
        self.rows = {}
        self.version = 0
        self.epoch = 0
        self.floor = 0
        self.history = []  # one epoch per undo record
        self.asof = {0: {}}  # epoch -> rows at its end

    def apply(self, kind, request, stamp):
        count = len(request)
        if kind == "insert":
            for row_id, cells in request:
                self.rows[row_id] = {c: cells.get(c) for c in COLUMNS}
        elif kind == "update":
            for row_id, cells in request:
                self.rows[row_id].update(cells)
        else:
            for row_id in request:
                del self.rows[row_id]
        # an empty update or delete is a no-op; an empty insert still
        # stamps the epoch
        if count or kind == "insert":
            if stamp is not None:
                self.epoch = max(self.epoch, stamp)
            self.floor = max(self.floor, self.epoch - RETENTION)
            self.history = [e for e in self.history if e > self.floor]
            self.history += [self.epoch] * count
            self.version += count
            self.asof[self.epoch] = {rid: dict(row) for rid, row in self.rows.items()}

    def rows_asof(self, epoch):
        return self.asof[max(e for e in self.asof if e <= epoch)]


#: request field and response key of each kind's write RPC
RPCS = {
    "insert": ("insert_many", "rows", "inserted"),
    "update": ("update_rows", "updates", "updated"),
    "delete": ("delete_rows", "row_ids", "deleted"),
}


def send(provider, kind, request, stamp, via_handle):
    if via_handle:
        method, field, answer = RPCS[kind]
        payload = {"table": "T", field: request}
        if stamp is not None:
            payload["epoch"] = stamp
        return provider.handle(method, payload)[answer]
    table = provider.store.table("T")
    if kind == "insert":
        return table.insert_many(ShareRows.from_pairs(request), epoch=stamp)
    if kind == "update":
        return table.update_rows(request, epoch=stamp)
    return table.delete_rows(request, epoch=stamp)


def check(table, model):
    assert table.rows == model.rows
    for column in SEARCHABLE:
        assert table.index_for(column).entries_in_order() == sorted(
            (row[column], row_id)
            for row_id, row in model.rows.items()
            if row[column] is not None
        )
    assert table.version == model.version
    assert len(table.history) == len(model.history)
    assert (table.epoch, table.history_floor) == (model.epoch, model.floor)
    for epoch in range(model.floor, model.epoch + 1):
        assert table.rows_asof(epoch) == model.rows_asof(epoch)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_batches_apply_like_a_dict_of_rows_or_change_nothing(data):
    with mock.patch.object(storage, "_BLOCK", 3):
        provider = ShareProvider("P")
        provider.store.history_retention = RETENTION
        table = provider.store.create_table("T", COLUMNS, SEARCHABLE)
        model = Model()
        start = [[row_id, {"k": row_id % 4, "j": None, "w": row_id}] for row_id in range(6)]
        table.insert_many(ShareRows.from_pairs(start), epoch=1)
        model.apply("insert", start, 1)
        for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
            kind, request, misshapen = data.draw(requests(model.rows))
            via_handle = misshapen or data.draw(st.booleans())
            offset = data.draw(stamps)
            stamp = None if offset is None else model.epoch + offset
            if accepted(model.rows, kind, request):
                assert send(provider, kind, request, stamp, via_handle) == len(request)
                model.apply(kind, request, stamp)
            else:
                with pytest.raises(ProviderError):
                    send(provider, kind, request, stamp, via_handle)
            check(table, model)
