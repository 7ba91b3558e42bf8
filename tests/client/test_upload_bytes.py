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
  was prepared everywhere and committed at one provider only (killed
  mid-round), so four of the five files hold the staged insert op.

Nothing may move.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro import DataSource, ProviderCluster
from repro.errors import SimulatedCrash
from repro.persistence import save_deployment
from repro.sqlengine.query import Insert
from repro.txn import TransactionManager
from tests.client.test_load_path import ledger_rows, ledger_schema

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
    staged = [len(p.store.staged_txns) for p in source.cluster.providers]
    assert staged == [0, 1, 1, 1, 1]
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
    assert network_record() == _golden()["network"]


def test_a_transactional_insert_logs_the_parents_frame(tmp_path):
    assert wal_record(str(tmp_path)) == _golden()["wal"]


def test_a_staged_insert_snapshots_to_the_parents_bytes(tmp_path):
    assert snapshot_records(str(tmp_path)) == _golden()["snapshots"]


if __name__ == "__main__":  # at the parent commit only
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
