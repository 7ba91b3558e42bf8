"""Client-side write-ahead log (ISSUE-8 tentpole, part a).

The paper's client is the only trusted party, so durability of
in-flight writes has to live *at the client*: a statement that has been
acknowledged to the application must survive a client crash even though
no provider has seen it yet.  This module is that durability primitive —
an append-only, CRC-framed, fsync-modelled log file.

Frame layout (all integers big-endian)::

    +-------+----------+-----------+--------------+
    | MAGIC | len (u32)| crc32(u32)| payload JSON |
    +-------+----------+-----------+--------------+

Records are JSON objects with a ``"kind"`` discriminator:

* ``{"kind": "txn", "id": N, "ops": [...]}`` — a resolved transaction:
  every op carries the full per-provider share material, so replay
  needs no re-resolution (and therefore no reads) — the decisive
  property for crash recovery, because re-resolving against
  partially-applied state would double-apply deltas.
* ``{"kind": "ack", "id": N}`` — transaction N was committed by every
  live provider; replay skips it.

Torn tails are expected, not exceptional: a crash mid-``write`` leaves
a truncated or corrupt final frame.  :meth:`WriteAheadLog.replay`
truncates the file back to the last whole, checksum-valid frame —
exactly the ARIES convention.  Corruption *before* the tail (a bad
frame followed by a good one) means the medium, not a crash, damaged
the log, and that raises :class:`~repro.errors.WALError`.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import WALError
from ..sim.network import json_default

MAGIC = b"RW"
HEADER_SIZE = len(MAGIC) + 4 + 4


def _frame(record: Dict) -> bytes:
    # an upload's ShareRows is logged as the row-major list it stands for
    payload = json.dumps(
        record, separators=(",", ":"), sort_keys=True, default=json_default
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return (
        MAGIC
        + len(payload).to_bytes(4, "big")
        + crc.to_bytes(4, "big")
        + payload
    )


class WriteAheadLog:
    """An append-only transaction log backed by one file.

    ``fsync`` is issued for real (the file is genuinely durable) *and*
    counted (``fsyncs``) so benchmarks can model its cost: group commit's
    whole point is amortising this counter over many transactions.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(self.path, "ab")
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # -- writing ---------------------------------------------------------------

    def append(self, record: Dict, sync: bool = True) -> int:
        """Append one record; returns the file offset it starts at.

        ``sync=False`` skips the fsync — used by group commit to stack
        several records behind a single durability point (the final
        synced append of the group).
        """
        if self._file.closed:
            raise WALError(f"WAL {self.path} is closed")
        frame = _frame(record)
        offset = self._file.tell()
        self._file.write(frame)
        self.appends += 1
        self.bytes_written += len(frame)
        if sync:
            self.sync()
        return offset

    def sync(self) -> None:
        """Flush and fsync — the durability point group commit amortises."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        telemetry.count("txn.wal_fsyncs")

    def log_txn(self, txn_id: int, ops: List[Dict], sync: bool = True) -> int:
        return self.append({"kind": "txn", "id": txn_id, "ops": ops}, sync=sync)

    def log_ack(self, txn_id: int, sync: bool = True) -> int:
        return self.append({"kind": "ack", "id": txn_id}, sync=sync)

    # -- recovery ----------------------------------------------------------------

    @staticmethod
    def read_records(path: str, repair: bool = True) -> List[Dict]:
        """Decode every whole frame; truncate (or reject) a torn tail.

        With ``repair=True`` a torn/corrupt tail is cut off and the
        remaining prefix returned — the normal crash-recovery path.  With
        ``repair=False`` the file is left untouched and a torn tail
        raises, for callers that only want to *inspect* a log.
        """
        if not os.path.exists(path):
            return []
        with open(path, "rb") as fh:
            data = fh.read()
        records: List[Dict] = []
        offset = 0
        good_end = 0
        error: Optional[str] = None
        while offset < len(data):
            header = data[offset : offset + HEADER_SIZE]
            if len(header) < HEADER_SIZE:
                error = f"torn frame header at offset {offset}"
                break
            if header[: len(MAGIC)] != MAGIC:
                error = f"bad magic at offset {offset}"
                break
            length = int.from_bytes(header[len(MAGIC) : len(MAGIC) + 4], "big")
            crc = int.from_bytes(header[len(MAGIC) + 4 :], "big")
            payload = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
            if len(payload) < length:
                error = f"torn frame payload at offset {offset}"
                break
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                error = f"checksum mismatch at offset {offset}"
                break
            try:
                records.append(json.loads(payload.decode("utf-8")))
            except ValueError:
                error = f"undecodable payload at offset {offset}"
                break
            offset += HEADER_SIZE + length
            good_end = offset
        if error is not None:
            if not repair:
                raise WALError(f"WAL {path}: {error}")
            discarded = len(data) - good_end
            telemetry.count("txn.wal_torn_bytes", discarded)
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
        return records

    # -- maintenance ----------------------------------------------------------------

    def checkpoint(self, keep: List[Dict]) -> None:
        """Atomically rewrite the log to contain only ``keep``.

        Called once every logged transaction in a prefix has been acked:
        the acked prefix carries no recovery information, so the log is
        compacted to the still-pending suffix.  Write-temp-then-rename
        keeps the log recoverable even if the checkpoint itself crashes.
        """
        if self._file.closed:
            raise WALError(f"WAL {self.path} is closed")
        temp = self.path + ".ckpt"
        with open(temp, "wb") as fh:
            for record in keep:
                fh.write(_frame(record))
            fh.flush()
            os.fsync(fh.fileno())
        self.fsyncs += 1
        self._file.close()
        os.replace(temp, self.path)
        self._file = open(self.path, "ab")
        telemetry.count("txn.wal_checkpoints")

    def size_bytes(self) -> int:
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
