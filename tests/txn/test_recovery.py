"""Crash recovery: kill-at-every-phase exactness, idempotence, snapshots."""

import pytest

from repro import drills
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import KILL_PHASES, TransactionManager

ROWS = 14
SCRIPT = drills.txn_script(ROWS)


def drill(tmp_path, phase, sharded=False):
    """The crash drill at ``phase`` on a small deployment; every kill
    phase crashes the victim."""
    result = drills.crash_replay(
        str(tmp_path / "drill.wal"), phase, ROWS, providers=3, threshold=2,
        seed=11, sharded=sharded,
    )
    assert result.crashed
    return result


@pytest.mark.parametrize("phase", KILL_PHASES)
def test_unsharded_recovery_is_exact(tmp_path, phase):
    result = drill(tmp_path, phase)
    assert result.exact
    expected_replay = 0 if phase in ("pre-log", "post-ack") else 1
    assert result.replayed == expected_replay
    result.manager.close()


@pytest.mark.parametrize("phase", KILL_PHASES)
def test_sharded_recovery_is_exact(tmp_path, phase):
    result = drill(tmp_path, phase, sharded=True)
    assert result.exact
    result.manager.close()


def test_recovery_is_idempotent(tmp_path):
    """Recovering twice (crash during recovery) must not double-apply.

    The victim is a delta increment — the op where double-apply would
    actually corrupt values instead of being absorbed.
    """
    result = drill(tmp_path, "mid-round")
    state_after_first = drills.accounts(result.reader)
    result.manager.close()
    second = TransactionManager(result.reader, str(tmp_path / "drill.wal"))
    report = second.recover()
    assert report["replayed"] == 0
    assert drills.accounts(result.reader) == state_after_first == result.expected
    second.close()


def test_recovery_checkpoints_the_log(tmp_path):
    result = drill(tmp_path, "pre-ack")
    # after recovery every txn is acked; the log must have been compacted
    # to just the checkpoint high-water record
    from repro.txn.wal import WriteAheadLog

    result.manager.close()
    records = WriteAheadLog.read_records(str(tmp_path / "drill.wal"))
    assert all(r["kind"] != "txn" for r in records)
    ckpts = [r for r in records if r["kind"] == "ckpt"]
    assert ckpts and ckpts[-1]["next_id"] >= ROWS + len(SCRIPT) + 1


def test_txn_ids_never_recycle_after_recovery(tmp_path):
    """A recycled txn id would be skipped by providers' applied sets."""
    recovering = drill(tmp_path, "post-log").manager
    first_round_high = recovering._next_txn_id
    assert first_round_high >= ROWS + len(SCRIPT) + 2
    recovering.execute("UPDATE Accounts SET balance = 1 WHERE aid = 2")
    assert recovering._next_txn_id > first_round_high
    recovering.close()


def test_persistence_roundtrip_preserves_txn_state(tmp_path):
    """Snapshot + restore keeps epochs, history, and applied-txn sets."""
    from repro.persistence import load_deployment, save_deployment

    reader, manager = drills.txn_deployment(
        str(tmp_path / "p.wal"), providers=3, threshold=2, seed=11,
        sharded=False,
    )
    for text in drills.inserts(ROWS) + SCRIPT:
        manager.execute(text)
    epoch = reader.table_epoch("Accounts")
    state = drills.accounts(reader)
    manager.close()
    directory = str(tmp_path / "snap")
    save_deployment(reader, directory)
    restored = load_deployment(directory)
    assert restored.table_epoch("Accounts") == epoch
    assert drills.accounts(restored) == state
    # time travel works across the snapshot boundary
    past = restored.select_asof(parse_sql("SELECT * FROM Accounts"), epoch - 1)
    live = restored.select_asof(parse_sql("SELECT * FROM Accounts"), epoch)
    assert sorted((r["aid"], r["balance"]) for r in live) == state
    assert past != live
    # and the provider-side exactly-once sets survived
    provider = restored.cluster.providers[0]
    assert len(provider.store.applied_txns) == ROWS + len(SCRIPT)
