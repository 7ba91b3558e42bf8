"""Write-coherent cache of reconstructed plaintext rows.

Reconstruction is the client's dominant cost (k-term GF(p) dot products
per cell, preceded by a full share round-trip), yet hot rows are re-read
far more often than they change.  This cache remembers the *plaintext*
the client already paid to reconstruct, at two granularities:

* **row level** — ``(table, row_id) → full row``.  Shared across
  queries: any SELECT that re-aligns a cached row skips its
  interpolation entirely, whatever the predicate or projection.
* **query level** — ``(table, query-signature) → (row-id tuple, bound
  predicate)``.  A repeat of an identical SELECT replays the result
  from the row level with **zero provider RPCs** — the whole
  retrieve→reconstruct loop collapses to dictionary lookups.

Soundness rests on the choke point telling the cache what changed:
every write path ends in :meth:`DataSource.bump_table_epoch`, which
hands :meth:`RowCache.apply_write` the write's plaintext *effect*
``{row_id: new full row, or None for a deleted row}``.  The touched rows
are dropped, and so is exactly every query entry whose result holds a
touched id or whose predicate a new row satisfies; every other entry is
still the answer the providers would give.  What an effect cannot
describe drops the table: a bump without one (recovery, a failed round,
share increments, migration, resync) and, on any write, an entry whose
plan pushed a ``LIMIT`` (its row set is a prefix, not a predicate's).

The cache also remembers each table's current epoch.  Every access is
stamped with the epoch its read began in, and a stamp older than the
table's epoch misses (or is ignored): a read that raced a write can
neither be served nor leave behind what it saw.

The cache stores and returns **copies** of rows: callers freely mutate
result dictionaries, and a cache must never alias live results.  Only
the plain unverified read path consults it — checked and audited reads
exist precisely to re-examine the providers' answers, so they always go
to the wire.

Both levels are LRU-bounded.  A query-level hit whose row entries were
evicted falls through to a normal RPC (and re-warms both levels); the
cache can serve stale *performance*, never stale *data*.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from .. import telemetry
from ..sqlengine.expression import Predicate

Row = Dict[str, object]

#: (table, row_id)
RowKey = Tuple[str, int]
#: (table, signature)
QueryKey = Tuple[str, Tuple]
#: what one write did to a table: the new full row of every row it
#: inserted or changed, ``None`` for every row it deleted
WriteEffect = Dict[int, Optional[Row]]


class RowCacheStats:
    """Hit/miss/purge counters, mirrored into :mod:`repro.telemetry`."""

    __slots__ = (
        "row_hits",
        "row_misses",
        "query_hits",
        "query_misses",
        "invalidated",
        "evicted",
    )

    def __init__(self) -> None:
        self.row_hits = 0
        self.row_misses = 0
        self.query_hits = 0
        self.query_misses = 0
        self.invalidated = 0
        self.evicted = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RowCacheStats({self.snapshot()})"


class RowCache:
    """LRU row + query-result cache, kept coherent by write effects."""

    def __init__(self, row_capacity: int = 4096, query_capacity: int = 256) -> None:
        if row_capacity < 1 or query_capacity < 1:
            raise ValueError("cache capacities must be >= 1")
        self.row_capacity = row_capacity
        self.query_capacity = query_capacity
        self._rows: "OrderedDict[RowKey, Row]" = OrderedDict()
        #: result row ids beside the bound predicate that selected them
        #: (``None``: a pushed ``LIMIT`` cut the result short)
        self._queries: (
            "OrderedDict[QueryKey, Tuple[Tuple[int, ...], Optional[Predicate]]]"
        ) = OrderedDict()
        self._epochs: Dict[str, int] = {}
        self.stats = RowCacheStats()

    def _stale(self, table: str, epoch: int) -> bool:
        """The read stamped ``epoch`` began before the table's last write."""
        return epoch < self._epochs.get(table, 0)

    # ------------------------------------------------------------ row level --

    def get_row(self, table: str, row_id: int, epoch: int) -> Optional[Row]:
        """The cached plaintext row, as a fresh copy, or None."""
        key = (table, row_id)
        row = None if self._stale(table, epoch) else self._rows.get(key)
        if row is None:
            self.stats.row_misses += 1
            telemetry.count("rowcache.row_misses", table=table)
            return None
        self._rows.move_to_end(key)
        self.stats.row_hits += 1
        telemetry.count("rowcache.row_hits", table=table)
        return dict(row)

    def put_row(self, table: str, row_id: int, epoch: int, row: Row) -> None:
        """Remember a reconstructed row (stored as a defensive copy)."""
        if self._stale(table, epoch):
            return
        key = (table, row_id)
        self._rows[key] = dict(row)
        self._rows.move_to_end(key)
        while len(self._rows) > self.row_capacity:
            self._rows.popitem(last=False)
            self.stats.evicted += 1

    # ---------------------------------------------------------- query level --

    def lookup_query(
        self, table: str, signature: Tuple, epoch: int
    ) -> Optional[List[Tuple[int, Row]]]:
        """Replay a cached query: its ``(row_id, full row)`` pairs, in
        result order, or None.

        None means either no entry for this signature or at least one
        member row was evicted — both fall through to the RPC path,
        which re-warms everything.
        """
        key = (table, signature)
        entry = None if self._stale(table, epoch) else self._queries.get(key)
        if entry is None:
            self.stats.query_misses += 1
            telemetry.count("rowcache.query_misses", table=table)
            return None
        row_ids = entry[0]
        pairs: List[Tuple[int, Row]] = []
        for row_id in row_ids:
            row = self._rows.get((table, row_id))
            if row is None:
                # a member row fell out of the LRU: the entry can no longer
                # be served whole, so drop it and go back to the wire
                del self._queries[key]
                self.stats.query_misses += 1
                telemetry.count("rowcache.query_misses", table=table)
                return None
            pairs.append((row_id, dict(row)))
        self._queries.move_to_end(key)
        for row_id in row_ids:
            self._rows.move_to_end((table, row_id))
        self.stats.query_hits += 1
        telemetry.count("rowcache.query_hits", table=table)
        return pairs

    def store_query(
        self,
        table: str,
        signature: Tuple,
        epoch: int,
        pairs: Iterable[Tuple[int, Row]],
        predicate: Optional[Predicate] = None,
    ) -> None:
        """Remember a query's (row_id, full row) result set.

        ``predicate`` is the bound WHERE clause the rows are *all* the
        matches of; without one (a pushed ``LIMIT``) the entry does not
        survive a write.  A row the cache already holds — the read that
        produced ``pairs`` has just written its fresh rows back — is only
        marked recently used; a row evicted in between is stored again.
        """
        if self._stale(table, epoch):
            return
        ids: List[int] = []
        rows = self._rows
        for row_id, row in pairs:
            key = (table, row_id)
            if key in rows:
                rows.move_to_end(key)
            else:
                self.put_row(table, row_id, epoch, row)
            ids.append(row_id)
        key = (table, signature)
        self._queries[key] = (tuple(ids), predicate)
        self._queries.move_to_end(key)
        while len(self._queries) > self.query_capacity:
            self._queries.popitem(last=False)
            self.stats.evicted += 1

    # ---------------------------------------------------------- maintenance --

    def apply_write(
        self, table: str, epoch: int, effect: Optional[WriteEffect] = None
    ) -> int:
        """The table is at ``epoch`` after a write that did ``effect``:
        drop what it touched; returns the number of entries purged.

        A query entry survives when none of its rows was touched and no
        new row satisfies its predicate.  Without an effect nothing is
        known about the write and the whole table goes.
        """
        self._epochs[table] = epoch
        if effect is None:
            return self.invalidate(table)
        dead_rows = [(table, row_id) for row_id in effect if (table, row_id) in self._rows]
        new_rows = [row for row in effect.values() if row is not None]
        dead_queries = [
            key
            for key, (row_ids, predicate) in self._queries.items()
            if key[0] == table
            and (
                predicate is None
                or not effect.keys().isdisjoint(row_ids)
                or any(predicate.matches(row) for row in new_rows)
            )
        ]
        return self._purge(table, dead_rows, dead_queries)

    def invalidate(self, table: str) -> int:
        """Purge every entry of a table; returns count."""
        return self._purge(
            table,
            [k for k in self._rows if k[0] == table],
            [k for k in self._queries if k[0] == table],
        )

    def _purge(
        self, table: str, dead_rows: List[RowKey], dead_queries: List[QueryKey]
    ) -> int:
        for key in dead_rows:
            del self._rows[key]
        for key in dead_queries:
            del self._queries[key]
        purged = len(dead_rows) + len(dead_queries)
        if purged:
            self.stats.invalidated += purged
            telemetry.count("rowcache.invalidated", purged, table=table)
        return purged

    def clear(self) -> None:
        """Drop everything (secret rotation: all plaintext re-keyed)."""
        for table in {key[0] for key in (*self._rows, *self._queries)}:
            self.invalidate(table)

    def __len__(self) -> int:
        return len(self._rows)
