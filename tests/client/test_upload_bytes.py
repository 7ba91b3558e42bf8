"""What an upload puts on the wire, in the WAL and in a snapshot.

Insert batches travel in process as column-major ``ShareRows``; everything
outside the process sees the row-major list ``[[row_id, {column: share}],
...]`` they stand for.  ``upload_bytes_golden.json`` holds one current
record per case:

* ``"network"`` — a 250-row ``insert_many`` of the ledger (every codec
  type, NULLs in five columns): bytes and messages per link and the
  modelled clock;
* ``"wal"`` — the log file after a three-row transactional INSERT
  through ``TransactionManager.atomic`` reached the log (the manager is
  killed right after it): length and SHA-256 of its bytes;
* ``"snapshots"`` — each provider's snapshot file once that transaction
  reached one provider only (killed mid-round).

A change that moves these on purpose re-bases the file in place and puts
the printed list of moved fields in ``CHANGES.md`` (``tests/golden.py``)::

    PYTHONPATH=src python -m tests.client.test_upload_bytes
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro import DataSource, ProviderCluster
from repro.errors import SimulatedCrash
from repro.persistence import provider_from_dict, provider_to_dict, save_deployment
from repro.sqlengine.query import Insert
from repro.txn import TransactionManager
from tests.client.test_load_path import ledger_rows, ledger_schema
from tests import golden

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
    return golden.load(GOLDEN_PATH)


def test_an_insert_sends_the_parents_bytes():
    golden.assert_record(_golden(), "network", network_record())


def test_a_transactional_insert_logs_the_parents_frame(tmp_path):
    golden.assert_record(_golden(), "wal", wal_record(str(tmp_path)))


def test_a_mid_round_insert_snapshots_to_the_declared_bytes(tmp_path):
    golden.assert_record(_golden(), "snapshots", snapshot_records(str(tmp_path)))


def test_golden_covers_exactly_the_cases():
    golden.assert_flat(_golden(), ("network", "wal", "snapshots"))


def test_an_old_snapshot_with_staged_txns_loads_without_them(tmp_path):
    """A snapshot written while providers still staged transactions loads;
    the staged ops are dropped — the client WAL holds every one of them."""
    source = _atomic_insert(str(tmp_path), "mid-round")
    provider = source.cluster.providers[1]
    current = provider_to_dict(provider)
    staged_op = ["insert_many", {"table": "Ledger", "rows": [], "epoch": 2}]
    old = json.loads(json.dumps(dict(current, staged_txns={"1": [staged_op]})))
    assert provider_to_dict(provider_from_dict(old)) == current


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as wal_dir, tempfile.TemporaryDirectory() as snap_dir:
        golden.rebase(GOLDEN_PATH, {
            "network": network_record(),
            "wal": wal_record(wal_dir),
            "snapshots": snapshot_records(snap_dir),
        })
