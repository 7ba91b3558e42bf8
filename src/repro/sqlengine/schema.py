"""Table schemas for both the plaintext engine and the outsourced store.

A :class:`TableSchema` declares columns with logical types, bounded domains
(the sharing schemes need finite ordered domains, Sec. IV), nullability,
searchability, and the **domain label** that governs join compatibility:
the paper builds polynomials *per domain, not per attribute* (Sec. V-A
"Join Operations"), so two columns are provider-side join-compatible
exactly when they share a label.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.encoding import (
    BooleanCodec,
    Codec,
    ColumnEncodingError,
    DateCodec,
    DecimalCodec,
    IntegerCodec,
    StringCodec,
)
from .. import telemetry
from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INTEGER = "integer"
    STRING = "string"
    DECIMAL = "decimal"
    DATE = "date"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class Column:
    """One column of a table.

    Parameters
    ----------
    name:
        Column name (case-sensitive, SQL identifiers are folded upstream).
    ctype:
        Logical type.
    lo, hi:
        Domain bounds for INTEGER/DECIMAL columns; mandatory there because
        the sharing schemes require finite domains.
    width:
        Maximum length for STRING columns (the paper's VARCHAR(5) example).
    scale:
        Fractional digits for DECIMAL columns.
    nullable:
        Whether SQL NULL is admitted (stored as a shared presence bit).
    searchable:
        Searchable columns are shared with the order-preserving scheme and
        support provider-side filtering; non-searchable columns use random
        Shamir sharing (stronger secrecy, no filtering).
    domain_label:
        Join-compatibility label.  Defaults to a per-column label; set the
        same label on referential key pairs (e.g. ``Employees.eid`` and
        ``Managers.eid``) to enable provider-side joins.
    """

    name: str
    ctype: ColumnType
    lo: Optional[int] = None
    hi: Optional[int] = None
    width: int = 8
    scale: int = 2
    nullable: bool = False
    searchable: bool = True
    domain_label: Optional[str] = None
    #: STRING columns only: None = the paper's 27-symbol alphabet; pass
    #: :data:`repro.core.encoding.EXTENDED_ALPHABET` for digits too.
    alphabet: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.ctype in (ColumnType.INTEGER, ColumnType.DECIMAL):
            if self.lo is None or self.hi is None:
                raise SchemaError(
                    f"column {self.name}: {self.ctype.value} columns need "
                    "explicit [lo, hi] domain bounds (finite domains are "
                    "required by the sharing scheme)"
                )
            if self.lo > self.hi:
                raise SchemaError(
                    f"column {self.name}: empty domain [{self.lo}, {self.hi}]"
                )
        if self.ctype is ColumnType.STRING and self.width < 1:
            raise SchemaError(f"column {self.name}: width must be >= 1")

    def codec(self) -> Codec:
        """The order-preserving codec for this column's type (one object
        per column, built on first use)."""
        return self._codec

    @cached_property
    def _codec(self) -> Codec:
        if self.ctype is ColumnType.INTEGER:
            return IntegerCodec(self.lo, self.hi)
        if self.ctype is ColumnType.STRING:
            if self.alphabet is not None:
                return StringCodec(self.width, alphabet=self.alphabet)
            return StringCodec(self.width)
        if self.ctype is ColumnType.DECIMAL:
            return DecimalCodec(Decimal(self.lo), Decimal(self.hi), self.scale)
        if self.ctype is ColumnType.DATE:
            return DateCodec()
        if self.ctype is ColumnType.BOOLEAN:
            return BooleanCodec()
        raise SchemaError(f"unhandled column type {self.ctype}")  # pragma: no cover

    def effective_domain_label(self, table_name: str) -> str:
        """The label keying this column's polynomial family."""
        return self.domain_label or f"{table_name}.{self.name}"

    def is_numeric(self) -> bool:
        return self.ctype in (ColumnType.INTEGER, ColumnType.DECIMAL)


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint; also documents join paths (Sec. V-A)."""

    column: str
    references_table: str
    references_column: str


@dataclass(frozen=True)
class TableSchema:
    """An immutable table definition."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: Optional[str] = None
    foreign_keys: Tuple[ForeignKey, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name {self.name!r}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name}: duplicate column names")
        if not self.columns:
            raise SchemaError(f"table {self.name}: at least one column required")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"table {self.name}: primary key {self.primary_key!r} is not a column"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise SchemaError(
                    f"table {self.name}: foreign key column {fk.column!r} missing"
                )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def validate_row(self, row: Dict[str, object]) -> Dict[str, object]:
        """Validate and normalise a row dict; unknown keys are rejected,
        missing nullable columns default to None."""
        # unspanned: a plaintext Table validates every row it holds here
        self._encode_rows([row])
        return {col.name: row.get(col.name) for col in self.columns}

    @telemetry.spanned("codec.encode_rows")
    def encode_rows(
        self, rows: Sequence[Dict[str, object]]
    ) -> Dict[str, List[Optional[int]]]:
        """Validate a batch of row dicts column by column; returns each
        column's encoded values (``None`` = NULL), keyed in column order.

        Validation *is* the encode, done once per cell with the number
        kept.  Of several bad cells the one reported is the one validating
        row by row meets first: the lowest row, there unknown keys, then
        column order — a rejection cuts ``rows`` down to the rows ahead of
        it, where alone a cell can still come first.
        """
        return self._encode_rows(rows)

    def _encode_rows(
        self, rows: Sequence[Dict[str, object]]
    ) -> Dict[str, List[Optional[int]]]:
        names = set(self.column_names)
        rejected: Optional[SchemaError] = None
        for position, row in enumerate(rows):
            if not row.keys() <= names:
                rejected = SchemaError(
                    f"table {self.name}: unknown columns {sorted(set(row) - names)}"
                )
                rows = rows[:position]
                break
        encoded: Dict[str, List[Optional[int]]] = {}
        for col in self.columns:
            name = col.name
            values = [row.get(name) for row in rows]
            nulls = [p for p, value in enumerate(values) if value is None]
            if nulls and not col.nullable:
                position = nulls[0]
                rejected = SchemaError(
                    f"column {name} is NOT NULL"
                    if name in rows[position]
                    else f"table {self.name}: missing value for NOT NULL column {name}"
                )
                rows, values, nulls = rows[:position], values[:position], []
            try:
                numbers = col.codec().encode_many(
                    [value for value in values if value is not None] if nulls else values
                )
            except ColumnEncodingError as exc:
                rejected = SchemaError(f"column {name}: {exc}")
                rejected.__cause__ = exc.__cause__
                position = exc.position  # among the values the codec saw
                for null in nulls:
                    if null <= position:
                        position += 1
                rows = rows[:position]
                continue
            if nulls:
                dense = iter(numbers)
                numbers = [None if value is None else next(dense) for value in values]
            encoded[name] = numbers
        if rejected is not None:
            raise rejected
        return encoded

    def decode_rows(
        self, encoded: Dict[str, List[Optional[int]]]
    ) -> List[Dict[str, object]]:
        """The rows :meth:`encode_rows` encoded, as a read reconstructs them:
        each value decode∘encode (``'2.50'`` → ``Decimal('2.5')``, ``'bob'``
        → ``'BOB'``), missing nullable columns as None."""
        columns = []
        for name, numbers in encoded.items():
            codec = self.column(name).codec()
            if None not in numbers:
                columns.append(codec.decode_many(numbers))
                continue
            decoded = iter(codec.decode_many([n for n in numbers if n is not None]))
            columns.append([None if n is None else next(decoded) for n in numbers])
        names = list(encoded)
        return [dict(zip(names, values)) for values in zip(*columns)]


def integer_column(
    name: str,
    lo: int,
    hi: int,
    *,
    nullable: bool = False,
    searchable: bool = True,
    domain_label: Optional[str] = None,
) -> Column:
    """Shorthand constructor for INTEGER columns."""
    return Column(
        name,
        ColumnType.INTEGER,
        lo=lo,
        hi=hi,
        nullable=nullable,
        searchable=searchable,
        domain_label=domain_label,
    )


def string_column(
    name: str,
    width: int,
    *,
    nullable: bool = False,
    searchable: bool = True,
    domain_label: Optional[str] = None,
    alphabet: Optional[str] = None,
) -> Column:
    """Shorthand constructor for STRING columns."""
    return Column(
        name,
        ColumnType.STRING,
        width=width,
        nullable=nullable,
        searchable=searchable,
        domain_label=domain_label,
        alphabet=alphabet,
    )


def decimal_column(
    name: str,
    lo: int,
    hi: int,
    scale: int = 2,
    *,
    nullable: bool = False,
    searchable: bool = True,
) -> Column:
    """Shorthand constructor for DECIMAL columns."""
    return Column(
        name,
        ColumnType.DECIMAL,
        lo=lo,
        hi=hi,
        scale=scale,
        nullable=nullable,
        searchable=searchable,
    )


def date_column(
    name: str, *, nullable: bool = False, searchable: bool = True
) -> Column:
    """Shorthand constructor for DATE columns."""
    return Column(
        name, ColumnType.DATE, nullable=nullable, searchable=searchable
    )


def boolean_column(name: str, *, nullable: bool = False) -> Column:
    """Shorthand constructor for BOOLEAN columns."""
    return Column(name, ColumnType.BOOLEAN, nullable=nullable, searchable=True)


def python_value_sort_key(column: Column, value) -> Tuple[int, int]:
    """Order-compatible sort key for possibly-NULL values (NULLs first)."""
    if value is None:
        return (0, 0)
    return (1, column.codec().encode(value))


def coerce_literal(column: Column, literal: object) -> object:
    """Coerce a parsed SQL literal to the column's Python type.

    The SQL parser produces ints, Decimals, and strings; this maps them to
    the column type (e.g. a quoted '2020-01-15' to a date for DATE columns)
    so predicates compare correctly.
    """
    if literal is None:
        return None
    if column.ctype is ColumnType.DATE and isinstance(literal, str):
        try:
            return datetime.date.fromisoformat(literal)
        except ValueError as exc:
            raise SchemaError(
                f"column {column.name}: bad date literal {literal!r}"
            ) from exc
    if column.ctype is ColumnType.DECIMAL and isinstance(literal, (int, str)):
        return Decimal(literal)
    if column.ctype is ColumnType.INTEGER and isinstance(literal, Decimal):
        if literal != literal.to_integral_value():
            raise SchemaError(
                f"column {column.name}: non-integer literal {literal}"
            )
        return int(literal)
    if column.ctype is ColumnType.BOOLEAN and isinstance(literal, int):
        return bool(literal)
    return literal
