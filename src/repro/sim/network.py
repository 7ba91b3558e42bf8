"""Simulated client↔provider network with byte-exact accounting.

The paper's evaluation question is a **computation vs communication
trade-off** (Sec. V-A, "Future work entails a detailed performance
evaluation...").  Communication is therefore measured, not guessed: every
request and response between the data source and a provider passes through
a :class:`SimulatedNetwork`, which sizes the payload with a documented
wire format and tallies messages/bytes per endpoint and direction.

Wire format (data never actually leaves the process; sizing is by
closed form, and :mod:`repro.sim.wire` is the codec it describes):

* integer: 2-byte tag/length header + big-endian magnitude bytes
  (order-preserving shares are big integers, so their real size matters);
* string: 2-byte header + UTF-8 bytes;
* bytes: 2-byte header + raw length;
* None/bool: 1 byte;
* float: 8 bytes + 1 tag;
* Decimal: 2-byte header + its decimal string;
* list/tuple: 4-byte count + elements;
* dict: 4-byte count + key/value pairs;
* share rows (:class:`ShareRows`) — what every row-returning provider
  RPC answers with and every ``insert_many`` uploads — go column-major:
  a 4-byte row count, then, unless it is 0, the column names once (as a
  tuple of strings), every row id, and each column's cells (an int as
  above, a NULL one byte);
* any other object: whatever its ``wire_size()`` reports (the codec
  carries no such object).

For n ≥ 1 rows of C columns whose names take L bytes, share rows take
8 + 2C + L bytes plus their row ids and cells.  A column whose cells all
have one size takes n × that size: the provider's store keeps each
column's range of cell sizes, and an answer it gathers carries the size
of every column whose range is one value, so :meth:`ShareRows.wire_size`
visits only the row ids and the other columns' cells.  Everything else —
uploads, decoded messages, a tampered answer — carries no sizes and is
sized cell by cell.  The row-major list
``[(row_id, {column: share}), ...]`` they stand for would take
(n − 1)(8 + 2C + L) + 4 bytes more, because it names every column in
every row.  :mod:`repro.sim.wire` writes and reads these bytes; sizing
never encodes, and the tests hold every size here to ``len`` of that
encoding.  The JSON boundaries are not the wire: the WAL and provider
snapshots write a ``ShareRows`` as the row-major list
(:func:`json_default`), and the list read back from them becomes a
``ShareRows`` again through :meth:`ShareRows.from_pairs`.  A ``join``
response is the dict ``{"left": rows, "right": rows}`` of two such
values — each side's matched rows once, no pair list.

Modelled transfer time = RTT/2 per message + bytes / bandwidth, using the
latency model's constants; benchmarks report both raw bytes and modelled
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def measure_bytes(payload: object) -> int:
    """Size of ``payload`` under the documented wire format.

    A response is a few containers around thousands of share cells, so a
    plain ``dict``/``list``/``tuple`` sizes its plain ``int`` and ``str``
    members in its own loop instead of one call each.  The test is on the
    exact type: ``bool``, other subclasses and every other kind of value
    take :func:`_measure_value`, which applies the same formulas.
    """
    kind = type(payload)
    if kind is dict:
        items = chain.from_iterable(payload.items())
    elif kind is list or kind is tuple:
        items = payload
    elif kind is ShareRows:
        return payload.wire_size()
    else:
        return _measure_value(payload)
    total = 4
    for item in items:
        kind = type(item)
        if kind is int:
            total += 2 + ((item.bit_length() + 7) // 8 or 1)
        elif kind is str:
            total += 2 + len(item.encode("utf-8"))
        else:
            total += measure_bytes(item)
    return total


def _measure_value(payload: object) -> int:
    """The wire format, one ``isinstance`` rule per line of the docstring."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        magnitude = abs(payload)
        return 2 + max(1, (magnitude.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 9
    if isinstance(payload, Decimal):
        return 2 + len(str(payload))
    if isinstance(payload, str):
        return 2 + len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return 2 + len(payload)
    if isinstance(payload, (list, tuple)):
        return 4 + sum(measure_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            measure_bytes(k) + measure_bytes(v) for k, v in payload.items()
        )
    if hasattr(payload, "wire_size"):
        return payload.wire_size()
    raise TypeError(
        f"cannot size object of type {type(payload).__name__} for the wire"
    )


@lru_cache(maxsize=256)
def _rows_header(columns: Tuple[str, ...]) -> int:
    """Bytes of share rows (at least one row) that do not depend on the
    rows: the 4-byte row count and the column names as a tuple."""
    return 4 + 4 + sum(2 + len(name.encode("utf-8")) for name in columns)


def _cell_bytes(cell: object) -> int:
    """A share-rows cell: an int (shares are ints, so a ``bool`` counts as
    the int it is) its 2-byte header and magnitude, anything else what
    :func:`measure_bytes` makes of it (a NULL: one byte)."""
    if isinstance(cell, int):
        return 2 + ((cell.bit_length() + 7) >> 3 or 1)
    return measure_bytes(cell)


class ShareRows:
    """Share rows of one provider's answer or upload, column-major.

    ``shares[c][r]`` is the share (``None`` for NULL) of column
    ``columns[c]`` in the row ``row_ids[r]``.  The value stands for the
    row-major list ``[(row_id, {column: share}), ...]``: iterating yields
    exactly those pairs (the per-row readers — checked decoding and
    repair — take them one at a time), and two values are equal when
    their lists are.  On the wire it goes column-major, and
    :meth:`wire_size` is its size there.  Treat it as read-only: the
    provider may hand out its cached row-id list, and an upload's value
    is logged and staged as it was sent.

    ``sizes``, when given, is aligned with ``columns``: the wire size
    every cell of that column has, or ``None`` where its cells differ or
    are not known to agree.  Only the store's ``gather`` knows them (it
    keeps each column's range of cell sizes) and only :meth:`take` passes
    them on; a value built anywhere else — an upload, a decoded message,
    a tampered answer — has none, and :meth:`wire_size` visits its cells.
    """

    __slots__ = ("row_ids", "columns", "shares", "sizes")

    def __init__(
        self,
        row_ids: List[int],
        columns: Tuple[str, ...],
        shares: Sequence[Sequence[Optional[int]]],
        sizes: Optional[Tuple[Optional[int], ...]] = None,
    ) -> None:
        self.row_ids = row_ids
        self.columns = columns
        self.shares = shares
        self.sizes = sizes

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence]) -> "ShareRows":
        """The value standing for the row-major list
        ``[[row_id, {column: share}], ...]`` — the form uploads take in
        the WAL, in snapshots and from repair.

        Columns are named in the order they first appear; a row that
        does not name a column holds NULL there.
        """
        row_ids: List[int] = []
        rows: List[Dict[str, Optional[int]]] = []
        for row_id, values in pairs:
            row_ids.append(row_id)
            rows.append(values)
        columns = tuple(dict.fromkeys(chain.from_iterable(rows)))
        return cls(
            row_ids, columns, [[values.get(name) for values in rows] for name in columns]
        )

    def __len__(self) -> int:
        return len(self.row_ids)

    def __iter__(self) -> Iterator[Tuple[int, Dict[str, Optional[int]]]]:
        columns = self.columns
        if not columns:  # an empty projection still has its rows
            return zip(self.row_ids, [{} for _ in self.row_ids])
        return zip(
            self.row_ids, [dict(zip(columns, cells)) for cells in zip(*self.shares)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareRows):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShareRows({len(self)} rows, columns={self.columns})"

    def take(self, row_ids: List[int]) -> "ShareRows":
        """The rows ``row_ids`` (all held here), in that order — this very
        value when that is every row in the order it has them."""
        if row_ids == self.row_ids:
            return self
        where = dict(zip(self.row_ids, range(len(self.row_ids))))
        positions = [where[row_id] for row_id in row_ids]
        return ShareRows(
            row_ids,
            self.columns,
            [[cells[at] for at in positions] for cells in self.shares],
            self.sizes,  # a column of one cell size keeps it in any subset
        )

    def wire_size(self) -> int:
        """Bytes of this value on the wire, column-major (see the module
        docstring); 4 for no rows.

        The column names once, then a column whose cell size is known
        (``sizes``) as rows × that size, and one pass over the row ids and
        every other column's shares for their magnitude bytes plus a
        2-byte integer header per cell.  A cell without a ``bit_length`` —
        a NULL, or whatever else a store was handed — sends that pass
        through :func:`_cell_bytes` cell by cell instead.
        """
        row_ids = self.row_ids
        if not row_ids:
            return 4
        total, shares = _rows_header(self.columns), self.shares
        if self.sizes is not None:
            total += len(row_ids) * sum(filter(None, self.sizes))
            shares = [cells for cells, size in zip(shares, self.sizes) if size is None]
        try:
            magnitudes = sum(
                [(cell.bit_length() + 7) >> 3 or 1 for cell in chain(row_ids, *shares)]
            )
        except AttributeError:
            return total + sum(map(_cell_bytes, chain(row_ids, *shares)))
        return total + 2 * len(row_ids) * (1 + len(shares)) + magnitudes


def json_default(value: object) -> object:
    """``json.dumps``'s ``default`` hook at the WAL and snapshot
    boundaries: a :class:`ShareRows` is written as the row-major list it
    stands for, so a record holding one has the bytes of a record holding
    that list."""
    if isinstance(value, ShareRows):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class LatencyModel:
    """Constants converting volumes to modelled time.

    Defaults approximate a 2009-era WAN between a client and commodity
    providers: 40 ms RTT, 10 Mbit/s sustained throughput.
    """

    rtt_seconds: float = 0.040
    bandwidth_bits_per_second: float = 10_000_000.0

    def transfer_seconds(self, message_bytes: int) -> float:
        """One-way modelled time for a message of the given size."""
        return self.rtt_seconds / 2 + (message_bytes * 8) / self.bandwidth_bits_per_second


@dataclass
class EndpointStats:
    """Traffic counters for one endpoint pair and direction."""

    messages: int = 0
    payload_bytes: int = 0


class NetworkStats:
    """Aggregated traffic counters, with per-endpoint breakdown."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.by_link: Dict[Tuple[str, str], EndpointStats] = {}

    def record(self, src: str, dst: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        stats = self.by_link.setdefault((src, dst), EndpointStats())
        stats.messages += 1
        stats.payload_bytes += size

    def bytes_between(self, src: str, dst: str) -> int:
        stats = self.by_link.get((src, dst))
        return stats.payload_bytes if stats else 0

    def bytes_to(self, dst: str) -> int:
        return sum(
            s.payload_bytes for (src, d), s in self.by_link.items() if d == dst
        )

    def bytes_from(self, src: str) -> int:
        return sum(
            s.payload_bytes for (s_, d), s in self.by_link.items() if s_ == src
        )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict summary used by benchmark reports."""
        return {
            "messages": self.messages_sent,
            "bytes": self.bytes_sent,
        }


class SimulatedNetwork:
    """The channel through which every client↔provider message flows."""

    def __init__(self, latency: LatencyModel = None) -> None:
        self.latency = latency or LatencyModel()
        self.stats = NetworkStats()
        self.modelled_seconds = 0.0

    def send(self, src: str, dst: str, payload: object) -> int:
        """Account for one message; returns its wire size in bytes."""
        size = measure_bytes(payload)
        self.stats.record(src, dst, size)
        self.modelled_seconds += self.latency.transfer_seconds(size)
        return size

    def send_unclocked(self, src: str, dst: str, payload: object) -> Tuple[int, float]:
        """Account a message's bytes without advancing the modelled clock.

        Used by the cluster's fan-out wave: messages to the n providers
        overlap in time, so the caller collects per-provider transfer times
        and advances the clock via :meth:`advance_clock` by what the client
        waited (max for writes, k-th order statistic for ``first_k`` reads)
        instead of summing all round trips.  Byte/message counters are
        recorded exactly as :meth:`send` would.

        Returns ``(wire_bytes, one_way_seconds)``.
        """
        size = measure_bytes(payload)
        self.stats.record(src, dst, size)
        return size, self.latency.transfer_seconds(size)

    def advance_clock(self, seconds: float) -> None:
        """Advance the modelled clock by one leg of a fan-out's waiting time."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}s")
        self.modelled_seconds += seconds

    def reset(self) -> None:
        """Zero all counters (between benchmark iterations)."""
        self.stats = NetworkStats()
        self.modelled_seconds = 0.0

    # -- convenience accessors ------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.stats.bytes_sent

    @property
    def total_messages(self) -> int:
        return self.stats.messages_sent
