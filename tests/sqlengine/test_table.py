"""Unit tests for the in-memory plaintext table."""

import pytest

from repro.errors import SchemaError
from repro.sqlengine.expression import Comparison, ComparisonOp, TruePredicate
from repro.sqlengine.schema import TableSchema, integer_column, string_column
from repro.sqlengine.table import Table

SCHEMA = TableSchema(
    "T",
    (
        integer_column("id", 1, 1000),
        string_column("name", 6),
        integer_column("v", 0, 100, nullable=True),
    ),
    primary_key="id",
)


@pytest.fixture
def table():
    return Table(
        SCHEMA,
        [
            {"id": 1, "name": "A", "v": 10},
            {"id": 2, "name": "B", "v": 20},
            {"id": 3, "name": "C", "v": None},
        ],
    )


class TestInsert:
    def test_len(self, table):
        assert len(table) == 3

    def test_duplicate_pk_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert({"id": 1, "name": "X", "v": 0})

    def test_validation_applied(self, table):
        with pytest.raises(SchemaError):
            table.insert({"id": 4, "name": "TOOLONGNAME", "v": 0})

    def test_insert_many(self):
        table = Table(SCHEMA)
        count = table.insert_many(
            [{"id": i, "name": "X", "v": i} for i in range(1, 6)]
        )
        assert count == 5 and len(table) == 5

    def test_rows_are_copies(self, table):
        rows = table.rows()
        rows[0]["v"] = 999
        assert table.get_by_pk(1)["v"] == 10


#: one bad value per rejection kind, as a change to an otherwise valid row
BAD = {
    "unknown_column": {"bonus": 1},
    "not_null": {"name": None},
    "missing_not_null": {"name": "DROP"},
    "out_of_domain": {"v": 101},
    "duplicate_pk": {"id": 2},  # the prefilled table holds id 2
}


def _batch(*edits):
    """Six valid rows (ids 10..15), with ``(position, kind)`` edits."""
    rows = [{"id": 10 + i, "name": "N" + "ABCDEF"[i], "v": i} for i in range(6)]
    for position, kind in edits:
        rows[position].update(BAD[kind])
        if rows[position]["name"] == "DROP":
            del rows[position]["name"]
    return rows


def _outcome(load):
    """What a load into a two-row table leaves: its rows, its primary
    key lookups, and the error it raised."""
    table = Table(
        SCHEMA, [{"id": 1, "name": "A", "v": 10}, {"id": 2, "name": "B", "v": 20}]
    )
    try:
        load(table)
        error = None
    except SchemaError as exc:
        error = str(exc)
    return table.rows(), [table.get_by_pk(key) for key in range(20)], error


def _row_by_row(rows):
    def load(table):
        for row in rows:
            table.insert(row)

    return load


BATCHES = {"valid": _batch()}
for _kind in BAD:
    for _position in (0, 2, 5):
        BATCHES[f"{_kind}@{_position}"] = _batch((_position, _kind))
BATCHES.update(
    {
        # the lower bad row wins, whatever its kind
        "duplicate_before_bad_cell": _batch((1, "duplicate_pk"), (3, "out_of_domain")),
        "bad_cell_before_duplicate": _batch((1, "out_of_domain"), (3, "duplicate_pk")),
        "duplicate_inside_batch": _batch() + [{"id": 12, "name": "X", "v": None}],
        "unknown_after_not_null": _batch((2, "not_null"), (4, "unknown_column")),
        "two_kinds_in_one_row": _batch((3, "out_of_domain"), (3, "unknown_column")),
    }
)


class TestBatchInsert:
    @pytest.mark.parametrize("case", sorted(BATCHES))
    def test_batch_is_row_by_row(self, case):
        """``insert_many`` validates in one encode and leaves what inserting
        row by row leaves: the rows ahead of the first bad one, and its
        error."""
        rows = BATCHES[case]
        batched = _outcome(lambda table: table.insert_many(rows))
        assert batched == _outcome(_row_by_row(rows))
        assert (batched[2] is None) == (case == "valid")

    def test_returns_the_count_inserted(self):
        table = Table(SCHEMA)
        assert table.insert_many(_batch()) == 6
        assert table.insert_many([]) == 0
        assert len(table) == 6

    def test_constructor_takes_the_batch_path(self):
        with pytest.raises(SchemaError, match="duplicate primary key 12"):
            Table(SCHEMA, BATCHES["duplicate_inside_batch"])


class TestSelect:
    def test_predicate_filter(self, table):
        rows = table.select(Comparison("v", ComparisonOp.GE, 20))
        assert [r["id"] for r in rows] == [2]

    def test_true_predicate_returns_all(self, table):
        assert len(table.select(TruePredicate())) == 3

    def test_pk_lookup(self, table):
        assert table.get_by_pk(2)["name"] == "B"
        assert table.get_by_pk(99) is None

    def test_pk_lookup_without_pk_raises(self):
        schema = TableSchema("U", (integer_column("x", 0, 1),))
        with pytest.raises(SchemaError):
            Table(schema).get_by_pk(0)

    def test_sorted_by_with_nulls_first(self, table):
        ordered = table.sorted_by("v")
        assert [r["id"] for r in ordered] == [3, 1, 2]


class TestUpdate:
    def test_update_where(self, table):
        changed = table.update_where(
            Comparison("id", ComparisonOp.EQ, 1), {"v": 99}
        )
        assert changed == 1
        assert table.get_by_pk(1)["v"] == 99

    def test_update_validates(self, table):
        with pytest.raises(SchemaError):
            table.update_where(TruePredicate(), {"v": 101})

    def test_update_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.update_where(TruePredicate(), {"zzz": 1})

    def test_pk_update_rejected(self, table):
        with pytest.raises(SchemaError):
            table.update_where(Comparison("id", ComparisonOp.EQ, 1), {"id": 9})

    def test_update_no_match(self, table):
        assert table.update_where(Comparison("id", ComparisonOp.EQ, 99), {"v": 1}) == 0


class TestDelete:
    def test_delete_where(self, table):
        removed = table.delete_where(Comparison("v", ComparisonOp.LE, 10))
        assert removed == 1
        assert len(table) == 2
        assert table.get_by_pk(1) is None

    def test_pk_index_rebuilt(self, table):
        table.delete_where(Comparison("id", ComparisonOp.EQ, 2))
        assert table.get_by_pk(3)["name"] == "C"

    def test_delete_none(self, table):
        assert table.delete_where(Comparison("id", ComparisonOp.EQ, 99)) == 0
