"""A WAL written by the parent commit replays under the current manager.

``parent_wal_64d633f.json`` holds every ``txn`` record the parent commit
(``64d633f``, before the ISSUE-15 write-pipeline refactor) logged while
running the kill-phase drill of ``test_recovery.py`` — 14 INSERTs, the
first three statements of ``repro.drills.txn_script`` and the victim — for
the unsharded and the sharded manager.  The records carry all share material, so replaying them onto
empty tables rebuilds the parent's provider state bit for bit; the victim's
record is then appended exactly as the parent's ``_log`` left it, the
current manager's apply is killed at each phase, and a fresh manager's
``recover()`` must land on the oracle state.

Regenerate (only at the parent commit)::

    PYTHONPATH=src:. python tests/txn/test_parent_wal_replay.py capture
"""

from __future__ import annotations

import functools
import json
import os
import sys

import pytest

from repro import drills
from repro.errors import SimulatedCrash
from repro.sim.network import json_default
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import KILL_PHASES, ShardedTransactionManager, TransactionManager
from repro.txn.wal import WriteAheadLog
from repro.workloads.accounts import accounts_table

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "parent_wal_64d633f.json")
#: the parent's drill: 14 rows and the first three statements of the script
ROWS = 14
SCRIPT = drills.txn_script(ROWS)[:3]
VICTIM = drills.victim(ROWS)
MAKERS = {
    shape: functools.partial(
        drills.txn_deployment, providers=3, threshold=2, seed=11,
        sharded=shape == "sharded",
    )
    for shape in ("unsharded", "sharded")
}


def _statements():
    return drills.inserts(ROWS) + SCRIPT + [VICTIM]


def _manager_for(reader, wal_path):
    if hasattr(reader, "groups"):
        return ShardedTransactionManager(reader, wal_path)
    return TransactionManager(reader, wal_path)


def _write_log(wal_path, records):
    with WriteAheadLog(wal_path) as wal:
        for txn_id, ops in records:
            wal.log_txn(txn_id, ops)


@pytest.mark.parametrize("phase", KILL_PHASES)
@pytest.mark.parametrize("shape", sorted(MAKERS))
def test_parent_written_log_recovers_to_the_oracle(tmp_path, shape, phase):
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        records = json.load(handle)[shape]
    assert len(records) == ROWS + len(SCRIPT) + 1
    wal_path = str(tmp_path / "parent.wal")
    reader, manager = MAKERS[shape](wal_path)
    manager.close()
    oracle = drills.plaintext_oracle(accounts_table(ROWS))
    for text in SCRIPT:
        oracle.execute(parse_sql(text))

    # the parent's provider state, rebuilt from the parent's own records
    _write_log(wal_path, records[:-1])
    rebuilding = _manager_for(reader, wal_path)
    assert rebuilding.recover()["replayed"] == len(records) - 1
    rebuilding.close()
    assert drills.accounts(reader) == drills.accounts(oracle)

    if phase != "pre-log":
        # the durability point: the victim's record reached the log
        _write_log(wal_path, records[-1:])
        oracle.execute(parse_sql(VICTIM))
    if phase in ("mid-round", "pre-ack", "post-ack", "lost-ack"):
        crashing = _manager_for(reader, wal_path)
        crashing.kill_at = phase
        with pytest.raises(SimulatedCrash):
            crashing.recover()
        crashing.close()

    recovering = _manager_for(reader, wal_path)
    report = recovering.recover()
    recovering.close()
    assert drills.accounts(reader) == drills.accounts(oracle)
    expected_replay = 0 if phase in ("pre-log", "post-ack") else 1
    assert report["replayed"] == expected_replay


def _logged_records(make):
    """Every ``txn`` record the drill's statements log, uncrashed."""
    import tempfile

    logged = []
    original = WriteAheadLog.log_txn

    def recording(self, txn_id, ops, sync=True):
        logged.append([txn_id, ops])
        return original(self, txn_id, ops, sync)

    WriteAheadLog.log_txn = recording
    try:
        with tempfile.TemporaryDirectory() as wal_dir:
            _, manager = make(os.path.join(wal_dir, "capture.wal"))
            for text in _statements():
                manager.execute(text)
            manager.close()
    finally:
        WriteAheadLog.log_txn = original
    # uploads travel as ShareRows and are logged as the list they stand for
    return json.loads(json.dumps(logged, default=json_default))


def test_unsharded_drill_still_logs_the_parents_records_bit_for_bit():
    # same seeds, same statements: the refactor moved where payloads are
    # built, not one byte of what is logged.  (The sharded drill's two
    # pure-delta UPDATEs now log share increments — a sharded pure-delta
    # UPDATE ships them, as tests/client/test_write_pipeline.py records —
    # so only its replay is pinned.)
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        parent = json.load(handle)["unsharded"]
    # compared as serialised text: key order is part of the WAL's bytes
    assert json.dumps(_logged_records(MAKERS["unsharded"])) == json.dumps(parent)


def _capture() -> None:
    captured = {shape: _logged_records(make) for shape, make in MAKERS.items()}
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        json.dump(captured, handle, separators=(",", ":"))
        handle.write("\n")
    print({shape: len(records) for shape, records in captured.items()})


if __name__ == "__main__":
    if sys.argv[1:] == ["capture"]:
        _capture()
