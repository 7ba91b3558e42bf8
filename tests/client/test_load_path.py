"""Characterisation of the load path.

``load_path_golden.json`` holds one current record per case, so that
"bit-identical shares" is a tier-1 fact rather than a benchmark
observation:

* ``load/<table>/<rows>`` — a 200-row and then a 1-row ``insert_many`` of
  ``employees_table`` (every column order-preserving) and of a ledger
  with every codec type, NULLs, duplicate values and randomly-shared
  columns: a digest of the ``rows`` payload each provider is sent (as
  the row-major list it stands for), the assigned row ids and the byte /
  message / modelled-clock / cost / epoch accounting of each call;
* ``shares`` — ``share_row`` output for a handful of ledger rows on one
  seed (the random columns' RNG stream is part of it);
* ``reject/<case>`` — a batch with a bad cell at each (row, column) of a
  3 x 5 ``Employees`` batch, and a few multi-error / ledger batches: the
  error text, what the rejection left behind, and the row id the next
  insert gets.

A change that moves these on purpose re-bases the file in place and puts
the printed list of moved fields in ``CHANGES.md`` (``tests/golden.py``)::

    PYTHONPATH=src python -m tests.client.test_load_path
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from decimal import Decimal
from typing import Dict, List

import pytest

from repro import DataSource, ProviderCluster
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.errors import SchemaError
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.schema import (
    Column,
    ColumnType,
    TableSchema,
    boolean_column,
    date_column,
    decimal_column,
    integer_column,
    string_column,
)
from repro.workloads.employees import employees_schema, employees_table
from tests import golden

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "load_path_golden.json")
SEED = 18
N_PROVIDERS, THRESHOLD = 5, 3

def ledger_schema() -> TableSchema:
    """Every codec type, order-preserving and randomly shared, with NULLs."""
    return TableSchema(
        "Ledger",
        (
            integer_column("lid", 0, 1_000_000),
            string_column("owner", 6),
            decimal_column("amount", 0, 100_000, 2, nullable=True),
            date_column("opened", nullable=True),
            boolean_column("active"),
            integer_column("balance", -(10**9), 10**9, searchable=False, nullable=True),
            string_column("note", 6, searchable=False, nullable=True),
            decimal_column("fee", 0, 1_000, 3, searchable=False),
            date_column("closed", searchable=False, nullable=True),
            Column("flagged", ColumnType.BOOLEAN, searchable=False),
        ),
        primary_key="lid",
    )


_OWNERS = ("ANNA", "BOB", "CAROL", "DAVE", "ERIN", "bob")


def ledger_rows(count: int, start: int = 0) -> List[Dict[str, object]]:
    """Deterministic rows: few distinct owners/amounts/dates (duplicates
    inside a batch), NULLs in every nullable column, keys left out."""
    rows = []
    for i in range(start, start + count):
        row: Dict[str, object] = {
            "lid": 7 * i + 3,
            "owner": _OWNERS[i % len(_OWNERS)],
            "amount": None if i % 9 == 4 else Decimal(i % 12) / 4,
            "opened": None if i % 7 == 2 else datetime.date(2009, 1 + i % 12, 1 + i % 5),
            "active": i % 3 == 0,
            "balance": None if i % 11 == 5 else 1000 - 37 * (i % 10),
            "note": None if i % 4 == 0 else "N" + "ABCDEFGH"[i % 8],
            "fee": Decimal(i % 5) / 8,
            "flagged": i % 2 == 1,
        }
        if i % 6:
            row["closed"] = datetime.date(2010, 1 + i % 12, 2)
        rows.append(row)
    return rows


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("ascii")).hexdigest()


class Loader:
    """One n=5/k=3 deployment whose sent write payloads are observable."""

    def __init__(self, schema: TableSchema) -> None:
        self.table = schema.name
        self.source = DataSource(ProviderCluster(N_PROVIDERS, THRESHOLD), seed=SEED)
        self.source.create_table(schema)
        self.source.reset_accounting()
        self.ops: List[object] = []
        send = self.source.apply_write

        def spy(op):
            self.ops.append(op)
            return send(op)

        self.source.apply_write = spy  # insert_many looks it up on self

    def accounting(self) -> Dict[str, object]:
        source = self.source
        network = source.cluster.network
        return {
            "bytes": network.total_bytes,
            "messages": network.total_messages,
            "modelled_seconds": network.modelled_seconds,
            "client": source.cost.snapshot(),
            "providers": source.cluster.total_provider_cost().snapshot(),
            "epoch": source.table_epoch(self.table),
        }

    def insert_many(self, rows) -> Dict[str, object]:
        row_ids = self.source.insert_many(self.table, rows)
        (op,) = self.ops
        self.ops.clear()
        record = self.accounting()
        record["row_ids"] = _digest(row_ids)
        # each upload digested as the row-major list it stands for
        record["payloads"] = [_digest(list(request["rows"])) for request in op.requests]
        self.source.reset_accounting()
        return record


def load_records() -> Dict[str, object]:
    employees = employees_table(201, seed=SEED).rows()
    batches = {
        "employees": (employees_schema(), employees[:200], employees[200:]),
        "ledger": (ledger_schema(), ledger_rows(200), ledger_rows(1, start=200)),
    }
    records = {}
    for name, (schema, many, one) in batches.items():
        loader = Loader(schema)
        records[f"{name}/200"] = loader.insert_many(many)
        records[f"{name}/1"] = loader.insert_many(one)
    return records


def ledger_sharing() -> TableSharing:
    return TableSharing(
        ledger_schema(),
        generate_client_secrets(N_PROVIDERS, SEED),
        THRESHOLD,
        DeterministicRNG(SEED),
    )


def share_records() -> List[List[Dict[str, object]]]:
    sharing = ledger_sharing()
    return [sharing.share_row(row) for row in ledger_rows(12)]


_DROP = object()  # "leave the key out" in the edits below

#: one bad value per ``Employees`` column, in schema order
BAD_CELLS = {
    "eid": 0,  # below the domain
    "name": "J0HN",  # digit outside the alphabet
    "lastname": "WOLFESCHLEGELSTEIN",  # longer than the width
    "department": 7,  # not a string
    "salary": True,  # a bool is not an integer
}


def reject_batches() -> Dict[str, tuple]:
    """id -> (schema, rows) for every batch that must be refused."""
    employees = employees_table(3, seed=SEED).rows()
    cases: Dict[str, tuple] = {}

    def spoiled(base, *edits):
        rows = [dict(row) for row in base]
        for position, column, value in edits:
            if value is _DROP:
                del rows[position][column]
            else:
                rows[position][column] = value
        return rows

    for position in range(3):
        for column, bad in BAD_CELLS.items():
            cases[f"employees/r{position}/{column}"] = (
                employees_schema(), spoiled(employees, (position, column, bad)),
            )
    extra = {
        # the lowest bad row wins, whatever its column
        "two_rows": [(2, "eid", 0), (1, "salary", True)],
        # inside a row, schema column order
        "two_columns": [(1, "department", 7), (1, "name", "J0HN")],
        "null": [(1, "lastname", None)],
        "missing": [(2, "salary", _DROP)],
        "missing_after_bad": [(1, "salary", _DROP), (1, "eid", 0)],
        # unknown keys are a row-level check, ahead of every cell of the row
        "unknown": [(1, "bonus", 5)],
        "unknown_and_bad": [(1, "bonus", 5), (1, "eid", 0), (2, "eid", 0)],
        "bad_before_unknown": [(2, "bonus", 5), (1, "salary", -1)],
        "unhashable": [(0, "name", ["JOHN"])],
    }
    for name, edits in extra.items():
        cases[f"employees/{name}"] = (employees_schema(), spoiled(employees, *edits))
    ledger = ledger_rows(4)
    for name, edits in {
        "decimal_text": [(3, "amount", "12.x")],
        "decimal_digits": [(2, "fee", Decimal("0.12345"))],
        "date_type": [(1, "opened", "2009-01-01")],
        "boolean_type": [(3, "flagged", 1)],
        "random_range": [(2, "balance", 10**9 + 1)],
        "random_null": [(3, "fee", None), (3, "note", "toolong")],
        "random_after_good_rows": [(3, "note", "N0")],
    }.items():
        cases[f"ledger/{name}"] = (ledger_schema(), spoiled(ledger, *edits))
    return cases


def reject_record(schema: TableSchema, rows) -> Dict[str, object]:
    loader = Loader(schema)
    good = employees_table(1, seed=SEED + 1).rows() if schema.name == "Employees" else (
        ledger_rows(1, start=900)
    )
    with pytest.raises(SchemaError) as caught:
        loader.source.insert_many(schema.name, rows)
    record = loader.accounting()
    record["error"] = str(caught.value)
    record["sent"] = len(loader.ops)
    # row ids are handed out before the batch is looked at
    record["next_row_ids"] = loader.source.insert_many(schema.name, good)
    return json.loads(json.dumps(record))


def golden_records() -> Dict[str, object]:
    """Every record the golden holds, by its id."""
    records: Dict[str, object] = {
        f"load/{case}": record for case, record in load_records().items()
    }
    records["shares"] = share_records()
    for case, (schema, rows) in sorted(reject_batches().items()):
        records[f"reject/{case}"] = reject_record(schema, rows)
    return records


# ------------------------------------------------------------------- tests --


def test_loads_send_the_parents_payloads_and_account_alike():
    """Every call sends the recorded payloads and accounts as recorded."""
    records = golden.load(GOLDEN_PATH)
    for case, record in load_records().items():
        golden.assert_record(records, f"load/{case}", record)


def test_share_row_draws_the_parents_shares():
    golden.assert_record(golden.load(GOLDEN_PATH), "shares", share_records())


def test_share_rows_is_the_parents_share_row_transposed():
    recorded = golden.load(GOLDEN_PATH)["shares"]
    by_provider = ledger_sharing().share_rows(ledger_rows(12), range(12))
    assert len(by_provider) == N_PROVIDERS
    assert [batch.row_ids for batch in by_provider] == [list(range(12))] * N_PROVIDERS
    share_rows = [[values for _, values in batch] for batch in by_provider]
    assert json.loads(json.dumps([list(rows) for rows in zip(*share_rows)])) == recorded


@pytest.mark.parametrize("case", sorted(reject_batches()))
def test_a_rejected_batch_raises_and_leaves_what_the_parent_does(case):
    schema, rows = reject_batches()[case]
    record = reject_record(schema, rows)
    # refused before any row of it is shared: nothing sent, nothing spent
    assert record["sent"] == 0 and record["epoch"] == 0 and record["bytes"] == 0
    assert record["client"] == {}
    golden.assert_record(golden.load(GOLDEN_PATH), f"reject/{case}", record)


def test_golden_covers_exactly_the_cases():
    cases = [f"load/{case}" for case in ("employees/200", "employees/1", "ledger/200", "ledger/1")]
    cases += ["shares"] + [f"reject/{case}" for case in reject_batches()]
    golden.assert_flat(golden.load(GOLDEN_PATH), cases)


def test_batched_load_builds_the_indexes_of_a_one_shot_load():
    rows = employees_table(2_000, seed=SEED).rows()
    batched, one_shot = Loader(employees_schema()), Loader(employees_schema())
    for start in range(0, len(rows), 200):
        batched.source.insert_many("Employees", rows[start:start + 200])
    one_shot.source.insert_many("Employees", rows)
    for a, b in zip(batched.source.cluster.providers, one_shot.source.cluster.providers):
        left, right = a.store.table("Employees"), b.store.table("Employees")
        assert left.rows == right.rows
        assert set(left.indexes) == set(employees_schema().column_names)
        for column, index in left.indexes.items():
            entries = index.entries_in_order()
            assert entries == right.indexes[column].entries_in_order()
            assert entries == sorted(entries) and len(entries) == len(rows)


if __name__ == "__main__":
    golden.rebase(GOLDEN_PATH, golden_records())
