"""Plaintext oracle: mirror the tables, replay statements, compare results.

Every table is copied into a ``sqlengine.catalog.Catalog`` and statements
are replayed through ``sqlengine.executor.PlaintextExecutor`` after the
timed passes.  Workloads that write replay *every* statement in order and
finish with full-table equality (every acknowledged write readable,
deleted rows gone); read-only workloads replay a seeded sample and apply a
cheap invariant to the rest.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.query import Insert, Select
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table

#: read-only workloads replay at least this many statements
SAMPLE_SIZE = 200


class Failure:
    """A statement that raised; kept in place of its result."""

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"raised {type(self.error).__name__}: {self.error}"


class Oracle:
    def __init__(self, tables: Dict[str, Table], preload: bool = True) -> None:
        self.catalog = Catalog()
        for table in tables.values():
            self.catalog.add_table(Table(table.schema, table.rows() if preload else None))
        self.executor = PlaintextExecutor(self.catalog)

    def corrupt(self, table_name: str) -> None:
        """Testing aid: make every row of a table wrong, so any check on it fails."""
        table = self.catalog.table(table_name)
        column = next(c for c in table.schema.columns if c.name != table.schema.primary_key)
        for row in table:
            value = row[column.name]
            row[column.name] = value + 1 if isinstance(value, int) else "WRONG"

    def mismatch(self, op, actual: object) -> Optional[str]:
        """Replay ``op`` and describe how ``actual`` differs, or None if it agrees."""
        if not isinstance(op.sql, str):
            table, rows = op.sql
            before = len(self.catalog.table(table))
            self.catalog.table(table).insert_many(rows)
            expected_ids = list(range(before, before + len(rows)))
            return None if actual == expected_ids else f"row ids {actual!r} != {expected_ids!r}"
        query = parse_sql(op.sql)
        expected = self.executor.execute(query)
        if isinstance(query, Insert):
            # the transaction layer acknowledges an INSERT with its row id
            return None if isinstance(actual, int) else f"INSERT returned {actual!r}"
        if isinstance(query, Select) and query.order_by and query.limit is not None:
            return self._top_k_mismatch(query, expected, actual)
        if isinstance(expected, list):
            if isinstance(actual, list) and rows_equal_unordered(expected, actual):
                return None
            return _describe(expected, actual)
        return None if actual == expected and type(actual) is type(expected) else (
            f"got {actual!r}, oracle {expected!r}"
        )

    def _top_k_mismatch(self, query: Select, expected, actual) -> Optional[str]:
        # ties at the LIMIT boundary may legitimately pick different rows:
        # the ordered key sequence must agree and every row must be real
        if not isinstance(actual, list) or len(actual) != len(expected):
            return _describe(expected, actual)
        key = query.order_by
        if [row[key] for row in actual] != [row[key] for row in expected]:
            return _describe(expected, actual)
        table = self.catalog.table(query.table)
        pk = table.schema.primary_key
        for row in actual:
            stored = table.get_by_pk(row[pk])
            if stored is None or any(stored[name] != value for name, value in row.items()):
                return f"row {row!r} is not in {query.table}"
        return None

    def table_mismatch(self, table_name: str, actual_rows: List[dict]) -> Optional[str]:
        expected = self.catalog.table(table_name).rows()
        if rows_equal_unordered(expected, actual_rows):
            return None
        return f"{table_name}: {len(actual_rows)} rows read back, oracle holds {len(expected)}" + (
            "" if len(expected) != len(actual_rows) else " (same count, different content)"
        )


def _describe(expected, actual) -> str:
    if isinstance(expected, list) and isinstance(actual, list):
        return f"{len(actual)} rows, oracle {len(expected)} rows (or different content)"
    return f"got {actual!r}, oracle {expected!r}"


def invariant_mismatch(op, actual: object) -> Optional[str]:
    """The cheap check applied to every read-only statement."""
    if op.cls == "point":
        key = int(op.sql.rsplit("=", 1)[1])
        if not (isinstance(actual, list) and len(actual) == 1 and actual[0].get("eid") == key):
            return f"expected exactly one row with eid {key}"
    elif op.cls in ("scan", "topk", "join", "group_by"):
        if not isinstance(actual, list):
            return f"expected rows, got {type(actual).__name__}"
    elif isinstance(actual, list):
        return "expected a scalar, got rows"
    return None


def sample_positions(n_statements: int, seed: int) -> Sequence[int]:
    if n_statements <= SAMPLE_SIZE:
        return range(n_statements)
    return sorted(random.Random(seed).sample(range(n_statements), SAMPLE_SIZE))


def verify(
    workload, tables: Dict[str, Table], executed: List[Tuple[object, object]],
    read_back, seed: int, corrupt: bool = False,
) -> Tuple[int, List[str]]:
    """``(statements verified, mismatch descriptions)`` for one run.

    ``executed`` is every ``(op, result)`` in execution order, warm-up
    included (its writes are part of the state).  ``read_back(table)``
    returns the deployment's current rows of a table.
    """
    oracle = Oracle(tables, preload=workload.preloaded)
    if corrupt and not workload.writes:
        oracle.corrupt("Employees")
    problems: List[str] = []
    if workload.writes:
        checked = range(len(executed))
    else:
        checked = sample_positions(len(executed), seed)
        for op, result in executed:
            problem = None if isinstance(result, Failure) else invariant_mismatch(op, result)
            if problem:
                problems.append(f"{op.describe()}: {problem}")
    for position in checked:
        op, result = executed[position]
        problem = oracle.mismatch(op, result)
        if problem and not isinstance(result, Failure):  # a raise is already counted
            problems.append(f"{op.describe()}: {problem}")
    if workload.writes:
        if corrupt:
            oracle.corrupt("Employees")
        for name in tables:
            problem = oracle.table_mismatch(name, read_back(name))
            if problem:
                problems.append(f"final state of {problem}")
    return len(checked), problems
