"""What an upload puts on the wire, in the WAL and in a snapshot.

Insert batches travel in process as column-major ``ShareRows``; everything
outside the process must still see the row-major list
``[[row_id, {column: share}], ...]`` they stand for.  The numbers in
``upload_bytes_golden.json`` were captured at the commit before that
change, while batches were still built as that list
(``PYTHONPATH=src python -m tests.client.test_upload_bytes`` there):

* ``"network"`` — a 250-row ``insert_many`` of the ledger (every codec
  type, NULLs in five columns): bytes and messages per link and the
  modelled clock;
* ``"wal"`` — the log file after a three-row transactional INSERT
  through ``TransactionManager.atomic`` reached the log (the manager is
  killed right after it): length and SHA-256 of its bytes;
* ``"snapshots"`` — each provider's snapshot file once that transaction
  reached one provider only (killed mid-round).

Nothing may move, except by two declared deltas.  When share rows went
column-major on the wire, the upload's bytes and modelled clock fell;
the ``"column_major"`` entry holds its record (``PYTHONPATH=src python -m
tests.client.test_upload_bytes column_major`` rewrites only that entry),
and sized as the row-major list the record is the parent's.  And when
``txn_prepare`` + ``txn_commit`` became one ``txn_apply`` round, providers
stopped staging transactions, so each file is the parent's with its
``"staged_txns"`` entry dropped (empty at the provider that applied the
insert, the staged insert at the four others) and nothing else changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro import DataSource, ProviderCluster
from repro.errors import SimulatedCrash
from repro.persistence import provider_from_dict, provider_to_dict, save_deployment
from repro.sqlengine.query import Insert
from repro.txn import TransactionManager
from tests.client.test_load_path import ledger_rows, ledger_schema
from tests.column_major import sized_row_major

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "upload_bytes_golden.json")
SEED = 28


def _ledger_source() -> DataSource:
    source = DataSource(ProviderCluster(5, 3), seed=SEED)
    source.create_table(ledger_schema())
    source.reset_accounting()
    return source


def network_record() -> dict:
    source = _ledger_source()
    rows = ledger_rows(250)
    assert sum(value is None for row in rows for value in row.values()) > 0
    source.insert_many("Ledger", rows)
    network = source.cluster.network
    return {
        "bytes": network.total_bytes,
        "messages": network.total_messages,
        "modelled_seconds": network.modelled_seconds,
        "links": {
            f"{src}->{dst}": [stats.messages, stats.payload_bytes]
            for (src, dst), stats in sorted(network.stats.by_link.items())
        },
    }


def _digest(data: bytes) -> list:
    return [len(data), hashlib.sha256(data).hexdigest()]


def _atomic_insert(directory: str, phase: str) -> DataSource:
    """A three-row INSERT through ``atomic()``, killed at ``phase``."""
    source = _ledger_source()
    source.insert_many("Ledger", ledger_rows(4))
    manager = TransactionManager(source, os.path.join(directory, "ledger.wal"))
    manager.kill_at = phase
    with pytest.raises(SimulatedCrash):
        manager.atomic([Insert("Ledger", row) for row in ledger_rows(3, start=300)])
    manager.close()
    return source


def wal_record(directory: str) -> list:
    _atomic_insert(directory, "post-log")
    with open(os.path.join(directory, "ledger.wal"), "rb") as handle:
        return _digest(handle.read())


def snapshot_records(directory: str) -> dict:
    source = _atomic_insert(directory, "mid-round")
    applied = [sorted(p.store.applied_txns) for p in source.cluster.providers]
    assert applied == [[1], [], [], [], []]
    save_deployment(source, os.path.join(directory, "snapshot"))
    records = {}
    for index in range(5):
        name = f"provider_{index}.json"
        with open(os.path.join(directory, "snapshot", name), "rb") as handle:
            records[name] = _digest(handle.read())
    return records


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_an_insert_sends_the_parents_bytes():
    """Sized as the row-major lists the parent sent, the upload is the
    parent's record; column-major, the ``"column_major"`` record: the
    same messages per link, fewer bytes on every upload link."""
    golden = _golden()
    with sized_row_major():
        assert network_record() == golden["network"]
    record = network_record()
    assert record == golden["column_major"]
    parent = golden["network"]
    assert record["messages"] == parent["messages"] and record["bytes"] < parent["bytes"]
    assert record["modelled_seconds"] < parent["modelled_seconds"]
    for link, (messages, size) in record["links"].items():
        assert messages == parent["links"][link][0]
        assert size < parent["links"][link][1] if link.startswith("client->") else size == (
            parent["links"][link][1]
        )


def test_a_transactional_insert_logs_the_parents_frame(tmp_path):
    assert wal_record(str(tmp_path)) == _golden()["wal"]


def test_a_mid_round_insert_snapshots_to_the_declared_bytes(tmp_path):
    assert snapshot_records(str(tmp_path)) == _golden()["snapshots"]


def test_an_old_snapshot_with_staged_txns_loads_without_them(tmp_path):
    """A snapshot written while providers still staged transactions loads;
    the staged ops are dropped — the client WAL holds every one of them."""
    source = _atomic_insert(str(tmp_path), "mid-round")
    provider = source.cluster.providers[1]
    current = provider_to_dict(provider)
    staged_op = ["insert_many", {"table": "Ledger", "rows": [], "epoch": 2}]
    old = json.loads(json.dumps(dict(current, staged_txns={"1": [staged_op]})))
    assert provider_to_dict(provider_from_dict(old)) == current


if __name__ == "__main__" and sys.argv[1:] == ["column_major"]:
    golden = _golden()
    golden["column_major"] = network_record()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
elif __name__ == "__main__":  # at the parent commit only
    import tempfile

    with tempfile.TemporaryDirectory() as wal_dir, tempfile.TemporaryDirectory() as snap_dir:
        golden = {
            "network": network_record(),
            "wal": wal_record(wal_dir),
            "snapshots": snapshot_records(snap_dir),
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(golden, indent=1), file=sys.stderr)
