"""Write-ahead log framing, torn-tail repair, and checkpointing."""

import os

import pytest

from repro.errors import WALError
from repro.txn.wal import HEADER_SIZE, MAGIC, WriteAheadLog, _frame

#: one op in the shape the manager logs (a ``WriteOp`` stamped with its
#: epoch and group, one request per provider)
OP = {
    "method": "delete_rows",
    "table": "T",
    "epoch": 1,
    "group": 0,
    "requests": [{"table": "T", "row_ids": [3], "epoch": 1}],
}


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "client.wal")


class TestFraming:
    def test_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [OP])
            wal.log_ack(1)
        records = WriteAheadLog.read_records(wal_path)
        assert records == [
            {"kind": "txn", "id": 1, "ops": [OP]},
            {"kind": "ack", "id": 1},
        ]

    def test_append_returns_monotonic_offsets(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            offsets = [wal.append({"kind": "ack", "id": i}) for i in range(5)]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == 5

    def test_missing_file_reads_empty(self, wal_path):
        assert WriteAheadLog.read_records(wal_path) == []

    def test_counters(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [])
            wal.log_ack(1)
            assert wal.appends == 2
            assert wal.fsyncs == 1  # the ack rides the next fsync
            assert wal.bytes_written == wal.end()


class TestTornTail:
    def _write_then_truncate(self, wal_path, keep_extra: int):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [OP])
            good_end = wal.end()
            wal.log_txn(2, [OP])
        # tear the tail record: keep the good prefix plus a partial frame
        with open(wal_path, "r+b") as handle:
            handle.truncate(good_end + keep_extra)
        return good_end

    def test_torn_tail_is_discarded(self, wal_path):
        good_end = self._write_then_truncate(wal_path, keep_extra=HEADER_SIZE)
        records = WriteAheadLog.read_records(wal_path)
        assert [r["id"] for r in records] == [1]
        # repair truncates the file back to the last whole frame
        assert os.path.getsize(wal_path) == good_end

    def test_torn_tail_without_repair_raises(self, wal_path):
        self._write_then_truncate(wal_path, keep_extra=4)
        with pytest.raises(WALError):
            WriteAheadLog.read_records(wal_path, repair=False)

    def test_corrupt_crc_stops_the_scan(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [])
            middle = wal.end()
            wal.log_txn(2, [])
        with open(wal_path, "r+b") as handle:
            # flip a payload byte of the second frame: CRC must catch it
            handle.seek(middle + HEADER_SIZE + 2)
            byte = handle.read(1)
            handle.seek(middle + HEADER_SIZE + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        records = WriteAheadLog.read_records(wal_path)
        assert [r["id"] for r in records] == [1]

    def test_foreign_magic_rejected(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(b"XX" + b"\x00" * (HEADER_SIZE - 2) + b"junk")
        assert MAGIC != b"XX"
        with pytest.raises(WALError):
            WriteAheadLog.read_records(wal_path, repair=False)
        # repair mode treats it as an (empty) torn tail and truncates
        assert WriteAheadLog.read_records(wal_path) == []
        assert os.path.getsize(wal_path) == 0


class TestCheckpoint:
    def test_checkpoint_keeps_only_given_records(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(1, 6):
                wal.log_txn(i, [])
                wal.log_ack(i)
            wal.checkpoint([{"kind": "ckpt", "next_id": 6}])
            # the log stays appendable after the swap
            wal.log_txn(6, [])
        records = WriteAheadLog.read_records(wal_path)
        assert records[0] == {"kind": "ckpt", "next_id": 6}
        assert [r.get("id") for r in records[1:]] == [6]

    def test_checkpoint_shrinks_the_file(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(1, 50):
                wal.log_txn(i, [OP])
                wal.log_ack(i)
            before = wal.end()
            wal.checkpoint([{"kind": "ckpt", "next_id": 50}])
            assert wal.end() < before


class TestUnsyncedTail:
    def test_an_unsynced_append_is_lost_with_the_tail(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [OP])
            wal.log_ack(1)
            assert wal.fsyncs == 1
            wal.drop_unsynced()
            assert wal.end() == os.path.getsize(wal_path)
        assert WriteAheadLog.read_records(wal_path) == [
            {"kind": "txn", "id": 1, "ops": [OP]}
        ]

    def test_the_next_fsync_carries_an_unsynced_ack(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.log_txn(1, [OP])
            wal.log_ack(1)
            wal.log_txn(2, [OP])
            wal.drop_unsynced()
        assert [(r["kind"], r["id"]) for r in WriteAheadLog.read_records(wal_path)] == [
            ("txn", 1), ("ack", 1), ("txn", 2)
        ]


#: checksum-valid frames whose record has the wrong shape; each used to
#: crash ``TransactionManager.recover()`` with a bare AttributeError,
#: KeyError or TypeError.  The seed corpus of a WAL-frame fuzzer.
MALFORMED = {
    "not_an_object": [1, 2],
    "txn_without_id": {"kind": "txn"},
    "txn_with_text_id": {"kind": "txn", "id": "x", "ops": []},
    "ckpt_without_next_id": {"kind": "ckpt"},
    "op_without_table": {
        "kind": "txn",
        "id": 2,
        "ops": [{key: value for key, value in OP.items() if key != "table"}],
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_record_raises_wal_error_naming_its_offset(wal_path, name):
    from repro.client.datasource import DataSource
    from repro.providers.cluster import ProviderCluster
    from repro.txn import TransactionManager

    with WriteAheadLog(wal_path) as wal:
        wal.append({"kind": "ckpt", "next_id": 1})
        good_end = wal.end()
    with open(wal_path, "ab") as handle:
        handle.write(_frame(MALFORMED[name]))
    for repair in (False, True):
        with pytest.raises(WALError, match=f"at offset {good_end}$"):
            WriteAheadLog.read_records(wal_path, repair=repair)
    # a checksum-valid frame is not a torn tail: nothing was cut off
    assert os.path.getsize(wal_path) > good_end
    manager = TransactionManager(DataSource(ProviderCluster(3, 2)), wal_path)
    with pytest.raises(WALError, match=f"at offset {good_end}$"):
        manager.recover()
    manager.close()
