"""Unit tests for table schemas and columns."""

import datetime
from decimal import Decimal

import pytest

from repro.errors import SchemaError
from repro.sqlengine.schema import (
    Column,
    ColumnType,
    ForeignKey,
    TableSchema,
    boolean_column,
    coerce_literal,
    date_column,
    decimal_column,
    integer_column,
    python_value_sort_key,
    string_column,
)


class TestColumnValidation:
    def test_integer_requires_bounds(self):
        with pytest.raises(SchemaError):
            Column("x", ColumnType.INTEGER)

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaError):
            integer_column("x", 10, 5)

    def test_bad_name_rejected(self):
        with pytest.raises(SchemaError):
            integer_column("bad name", 0, 1)
        with pytest.raises(SchemaError):
            integer_column("", 0, 1)

    def test_underscore_names_allowed(self):
        assert integer_column("my_col_2", 0, 1).name == "my_col_2"

    def test_string_width_validation(self):
        with pytest.raises(SchemaError):
            string_column("s", 0)

    def test_value_validation(self):
        schema = TableSchema("T", (integer_column("x", 0, 10),))
        schema.validate_row({"x": 5})
        with pytest.raises(SchemaError):
            schema.validate_row({"x": 11})
        with pytest.raises(SchemaError):
            schema.validate_row({"x": "five"})

    def test_null_validation(self):
        not_null = TableSchema("T", (integer_column("x", 0, 10),))
        with pytest.raises(SchemaError):
            not_null.validate_row({"x": None})
        nullable = TableSchema("T", (integer_column("x", 0, 10, nullable=True),))
        assert nullable.validate_row({"x": None}) == {"x": None}
        assert nullable.validate_row({}) == {"x": None}

    def test_is_numeric(self):
        assert integer_column("x", 0, 1).is_numeric()
        assert decimal_column("d", 0, 1).is_numeric()
        assert not string_column("s", 5).is_numeric()
        assert not date_column("t").is_numeric()
        assert not boolean_column("b").is_numeric()

    def test_effective_domain_label(self):
        col = integer_column("eid", 0, 9, domain_label="dom/eid")
        assert col.effective_domain_label("T") == "dom/eid"
        plain = integer_column("eid", 0, 9)
        assert plain.effective_domain_label("T") == "T.eid"


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", (integer_column("x", 0, 1), integer_column("x", 0, 1)))

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ())

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", (integer_column("x", 0, 1),), primary_key="y")

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "T",
                (integer_column("x", 0, 1),),
                foreign_keys=(ForeignKey("y", "U", "y"),),
            )

    def test_column_lookup(self):
        schema = TableSchema("T", (integer_column("x", 0, 1),))
        assert schema.column("x").name == "x"
        assert schema.has_column("x")
        assert not schema.has_column("y")
        with pytest.raises(SchemaError):
            schema.column("y")

    def test_validate_row_unknown_column(self):
        schema = TableSchema("T", (integer_column("x", 0, 1),))
        with pytest.raises(SchemaError):
            schema.validate_row({"x": 0, "z": 1})

    def test_validate_row_missing_not_null(self):
        schema = TableSchema("T", (integer_column("x", 0, 1),))
        with pytest.raises(SchemaError):
            schema.validate_row({})

    def test_validate_row_fills_nullable(self):
        schema = TableSchema(
            "T",
            (
                integer_column("x", 0, 1),
                integer_column("y", 0, 1, nullable=True),
            ),
        )
        row = schema.validate_row({"x": 1})
        assert row == {"x": 1, "y": None}


class TestLiteralCoercion:
    def test_date_string_coerced(self):
        col = date_column("d")
        assert coerce_literal(col, "2020-01-15") == datetime.date(2020, 1, 15)

    def test_bad_date_string_raises(self):
        with pytest.raises(SchemaError):
            coerce_literal(date_column("d"), "not-a-date")

    def test_decimal_coercion(self):
        col = decimal_column("p", 0, 10)
        assert coerce_literal(col, 5) == Decimal(5)
        assert coerce_literal(col, "2.5") == Decimal("2.5")

    def test_integer_from_whole_decimal(self):
        col = integer_column("x", 0, 10)
        assert coerce_literal(col, Decimal("5")) == 5

    def test_integer_from_fractional_decimal_raises(self):
        with pytest.raises(SchemaError):
            coerce_literal(integer_column("x", 0, 10), Decimal("5.5"))

    def test_boolean_from_int(self):
        assert coerce_literal(boolean_column("b"), 1) is True

    def test_none_passthrough(self):
        assert coerce_literal(integer_column("x", 0, 1), None) is None


class TestSortKey:
    def test_nulls_first(self):
        col = integer_column("x", 0, 10, nullable=True)
        assert python_value_sort_key(col, None) < python_value_sort_key(col, 0)

    def test_value_order(self):
        col = integer_column("x", 0, 10)
        assert python_value_sort_key(col, 3) < python_value_sort_key(col, 7)
