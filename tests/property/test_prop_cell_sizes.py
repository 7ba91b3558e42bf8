"""The store's column cell sizes are exact (``ShareTable.gather``).

A ``ShareTable`` keeps, per column, bounds on the wire size of every cell
the column holds, and ``gather`` hands a column whose two bounds meet to
its ``ShareRows`` as one size, which ``wire_size`` then multiplies by the
row count instead of visiting the cells.  Updates widen the bounds at
once, inserted rows widen them at the next ``gather`` (or before a
delete's swap-remove moves one of them), and nothing narrows them, so
they must bound every cell after any sequence of inserts, updates,
deletes and reverts, gathered after any of its steps.  The reference is
the codec: for several row subsets and projections, the gathered value
is sized at ``len(wire.encode(value))``, and at the same number when
sized cell by cell (its sizes removed).
"""

from hypothesis import example, given, settings, strategies as st

from repro.providers.failures import Fault, FailureMode
from repro.providers.storage import ShareTable
from repro.sim import wire
from repro.sim.network import ShareRows

COLUMNS = ["a", "b", "c"]
SEARCHABLE = ["a", "b"]
#: shares on either side of a byte boundary, both signs
EDGES = [
    sign * value
    for k in range(1, 10)
    for value in (256**k - 1, 256**k)
    for sign in (1, -1)
]


def shares():
    """A share of one of a few widths — so one-size columns are common —
    or NULL, zero, an edge of a byte boundary or anything up to 2**80."""
    return st.one_of(
        st.integers(256**3, 256**4 - 1),
        st.integers(256**7, 256**8 - 1),
        st.none(),
        st.just(0),
        st.sampled_from(EDGES),
        st.integers(-(2**80), 2**80),
    )


def cells(column):
    # a randomly-shared column may hold what no index could key
    return st.one_of(shares(), st.just(True)) if column == "c" else shares()


ROW = st.fixed_dictionaries({column: cells(column) for column in COLUMNS})
OPS = st.one_of(
    st.tuples(st.just("insert"), st.lists(ROW, min_size=1, max_size=6)),
    st.tuples(
        st.just("update"),
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from(COLUMNS), shares()),
            min_size=1,
            max_size=6,
        ),
    ),
    st.tuples(st.just("delete"), st.lists(st.integers(0, 30), min_size=1, max_size=4)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("revert")),
)


def apply(table, op, marks, next_id):
    """Apply one drawn step; returns the next free row id."""
    held = table.all_row_ids()
    if op[0] == "insert":
        ids = list(range(next_id, next_id + len(op[1])))
        table.insert_many(
            ShareRows(ids, tuple(COLUMNS), [[row[c] for row in op[1]] for c in COLUMNS])
        )
        return next_id + len(ids)
    if op[0] == "update" and held:
        updates = {}
        for at, column, share in op[1]:
            updates.setdefault(held[at % len(held)], {})[column] = share
        table.update_rows([[row_id, values] for row_id, values in updates.items()])
    elif op[0] == "delete" and held:
        table.delete_rows(list(dict.fromkeys(held[at % len(held)] for at in op[1])))
    elif op[0] == "mark":
        marks.append(table.mark())
    elif op[0] == "revert" and marks:
        table.revert(marks.pop())
    return next_id


def assert_sized_exactly(rows):
    size = rows.wire_size()
    assert size == len(wire.encode(rows))
    assert size == ShareRows(rows.row_ids, rows.columns, rows.shares).wire_size()


def check(table):
    held = table.all_row_ids()
    subsets = [held, held[::2], held[1:2], held[: len(held) // 2], []]
    projections = [None, ["a"], ["b"], ["c"], ["c", "a"], []]
    for row_ids in subsets:
        slots = table.slots_for(row_ids)
        for columns in projections:
            rows = table.gather(row_ids, slots, columns)
            assert_sized_exactly(rows)
            assert_sized_exactly(rows.take(row_ids[::-1]))


def checked(*ops):
    """``ops``, each gathered after."""
    return [(op, True) for op in ops]


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(OPS, st.booleans()), max_size=12))
@example(  # a one-size column widened by an update, then reverted
    steps=checked(
        ("insert", [{"a": 256**3, "b": 255, "c": 7}, {"a": 256**4 - 1, "b": 1, "c": 8}]),
        ("mark",),
        ("update", [(0, "a", 256**4), (1, "b", 256)]),
        ("revert",),
        ("delete", [0]),
    )
)
@example(  # NULLs, negatives and a boundary pair in one batch
    steps=checked(
        ("insert", [{"a": None, "b": -(256**2), "c": True}, {"a": 0, "b": 256**2 - 1, "c": None}]),
        ("update", [(1, "a", None), (0, "c", 5)]),
    )
)
@example(  # a wider row inserted after a gather, then swapped into a gathered slot
    steps=[
        (("insert", [{"a": 256**3, "b": 1, "c": 1}, {"a": 256**3 + 1, "b": 2, "c": 2}]), True),
        (("insert", [{"a": 256**4, "b": 3, "c": 3}]), False),
        (("delete", [0]), True),
    ]
)
def test_a_gathered_answer_is_sized_at_its_encoding(steps):
    table = ShareTable("t", COLUMNS, SEARCHABLE)
    marks, next_id = [], 0
    check(table)
    for op, gathered in steps:
        next_id = apply(table, op, marks, next_id)
        if gathered:
            check(table)
    check(table)


def test_a_column_of_one_width_carries_its_size():
    """The closed form is taken: a column of one width hands its size on."""
    table = ShareTable("t", COLUMNS, SEARCHABLE)
    table.insert_many(ShareRows([1, 2], ("a", "c"), [[256**4, 256**5 - 1], [None, 3]]))
    rows = table.gather([1, 2], table.slots_for([1, 2]))
    # "b" was never sent: both its cells are NULL, one byte each
    assert rows.sizes == (7, 1, None)
    assert_sized_exactly(rows)


def test_a_tampered_share_that_crosses_a_byte_boundary_is_sized_cell_by_cell():
    """TAMPER rebuilds the answer: a corrupted share one byte wider than
    its column's size must not be sized from the store's sizes."""
    table = ShareTable("t", ["a"], ["a"])
    table.insert_many(ShareRows([1, 2, 3], ("a",), [[255, 254, 253]]))
    rows = table.gather([1, 2, 3], table.slots_for([1, 2, 3]))
    assert rows.sizes == (3,)
    tampered = Fault(FailureMode.TAMPER, seed=7).corrupt_share_rows(rows)
    assert max(tampered.shares[0]) > 255  # now a two-byte magnitude
    assert tampered.sizes is None
    assert tampered.wire_size() == len(wire.encode(tampered)) > rows.wire_size()
