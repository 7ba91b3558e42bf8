"""In-memory plaintext tables.

These back the reference executor (ground truth for every integration
test), the workload generators, and the plaintext baseline in the
cross-model benchmarks.  Rows are stored as dicts keyed by column name;
every mutation validates against the schema so silent type drift is
impossible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import SchemaError
from .expression import Predicate
from .query import resolve_assignments
from .schema import TableSchema, python_value_sort_key


class Table:
    """A schema-validated, row-oriented in-memory table."""

    def __init__(self, schema: TableSchema, rows: Optional[Iterable[Dict]] = None):
        self.schema = schema
        self._rows: List[Dict[str, object]] = []
        self._pk_index: Dict[object, int] = {}
        if rows:
            self.insert_many(rows)

    # -- properties -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self._rows)

    def rows(self) -> List[Dict[str, object]]:
        """Snapshot copy of all rows (mutating it does not affect the table)."""
        return [dict(r) for r in self._rows]

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Dict[str, object]) -> Dict[str, object]:
        """Validate and append a row; returns the normalised row."""
        self.insert_many([row])
        return dict(self._rows[-1])

    def insert_many(self, rows: Iterable[Dict[str, object]]) -> int:
        """Insert rows in order; returns the count inserted.

        The batch is validated in one encode.  The first bad row in row
        order — a bad cell or a duplicate primary key — raises as inserting
        row by row would, with the rows ahead of it inserted.
        """
        normalised, rejected = self.schema.validate_rows(list(rows))
        pk = self.schema.primary_key
        for row in normalised:
            if pk is not None:
                key = row[pk]
                if key in self._pk_index:
                    raise SchemaError(
                        f"table {self.name}: duplicate primary key {key!r}"
                    )
                self._pk_index[key] = len(self._rows)
            self._rows.append(row)
        if rejected is not None:
            raise rejected
        return len(normalised)

    def update_where(
        self, predicate: Predicate, assignments: Dict[str, object]
    ) -> int:
        """Apply assignments to matching rows; returns rows changed."""
        for column in assignments:
            self.schema.column(column)  # existence check
        changed = 0
        for row in self._rows:
            if predicate.matches(row):
                candidate = dict(row)
                candidate.update(resolve_assignments(row, assignments))
                normalised = self.schema.validate_row(candidate)
                pk = self.schema.primary_key
                if pk is not None and normalised[pk] != row[pk]:
                    raise SchemaError(
                        f"table {self.name}: primary key update not supported"
                    )
                row.update(normalised)
                changed += 1
        return changed

    def delete_where(self, predicate: Predicate) -> int:
        """Remove matching rows; returns rows removed."""
        kept = [r for r in self._rows if not predicate.matches(r)]
        removed = len(self._rows) - len(kept)
        if removed:
            self._rows = kept
            self._rebuild_pk_index()
        return removed

    def _rebuild_pk_index(self) -> None:
        pk = self.schema.primary_key
        self._pk_index = (
            {row[pk]: i for i, row in enumerate(self._rows)} if pk else {}
        )

    # -- lookup ------------------------------------------------------------------

    def select(self, predicate: Predicate) -> List[Dict[str, object]]:
        """Rows matching the predicate (copies)."""
        return [dict(r) for r in self._rows if predicate.matches(r)]

    def get_by_pk(self, key: object) -> Optional[Dict[str, object]]:
        """Primary-key point lookup, or None."""
        if self.schema.primary_key is None:
            raise SchemaError(f"table {self.name} has no primary key")
        index = self._pk_index.get(key)
        return dict(self._rows[index]) if index is not None else None

    def sorted_by(self, column: str) -> List[Dict[str, object]]:
        """Rows sorted by a column in codec order (NULLs first)."""
        col = self.schema.column(column)
        return sorted(
            (dict(r) for r in self._rows),
            key=lambda r: python_value_sort_key(col, r[column]),
        )
