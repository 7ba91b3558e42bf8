"""Epoch-keyed cache of reconstructed plaintext rows.

Reconstruction is the client's dominant cost (k-term GF(p) dot products
per cell, preceded by a full share round-trip), yet hot rows are re-read
far more often than they change.  This cache remembers the *plaintext*
the client already paid to reconstruct, at two granularities:

* **row level** — ``(table, row_id, epoch) → full row``.  Shared across
  queries: any SELECT that re-aligns a cached row skips its
  interpolation entirely, whatever the predicate or projection.
* **query level** — ``(table, query-signature, epoch) → row-id tuple``.
  A repeat of an identical SELECT in the same epoch replays the result
  from the row level with **zero provider RPCs** — the whole
  retrieve→reconstruct loop collapses to dictionary lookups.

Soundness rests on the epoch key: every write path bumps its table's
epoch via :meth:`DataSource.bump_table_epoch` (the same mechanism that
invalidates the plan cache, including the lazy-update buffer flush and
secret rotation), so a stale entry is *unreachable* — its key names an
epoch no lookup will ever ask for again.  ``invalidate`` additionally
purges dead entries eagerly so capacity is not wasted on them.

The cache stores and returns **copies** of rows: callers freely mutate
result dictionaries, and a cache must never alias live results.  Only
the plain unverified read path consults it — verified and robust reads
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

Row = Dict[str, object]

#: (table, row_id, epoch)
RowKey = Tuple[str, int, int]
#: (table, signature, epoch)
QueryKey = Tuple[str, Tuple, int]


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
    """LRU row + query-result cache keyed on per-table mutation epochs."""

    def __init__(self, row_capacity: int = 4096, query_capacity: int = 256) -> None:
        if row_capacity < 1 or query_capacity < 1:
            raise ValueError("cache capacities must be >= 1")
        self.row_capacity = row_capacity
        self.query_capacity = query_capacity
        self._rows: "OrderedDict[RowKey, Row]" = OrderedDict()
        self._queries: "OrderedDict[QueryKey, Tuple[int, ...]]" = OrderedDict()
        self.stats = RowCacheStats()

    # ------------------------------------------------------------ row level --

    def get_row(self, table: str, row_id: int, epoch: int) -> Optional[Row]:
        """The cached plaintext row, as a fresh copy, or None."""
        key = (table, row_id, epoch)
        row = self._rows.get(key)
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
        key = (table, row_id, epoch)
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

        None means either no entry for this (signature, epoch) or at
        least one member row was evicted — both fall through to the RPC
        path, which re-warms everything.
        """
        key = (table, signature, epoch)
        row_ids = self._queries.get(key)
        if row_ids is None:
            self.stats.query_misses += 1
            telemetry.count("rowcache.query_misses", table=table)
            return None
        pairs: List[Tuple[int, Row]] = []
        for row_id in row_ids:
            row = self._rows.get((table, row_id, epoch))
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
            self._rows.move_to_end((table, row_id, epoch))
        self.stats.query_hits += 1
        telemetry.count("rowcache.query_hits", table=table)
        return pairs

    def store_query(
        self,
        table: str,
        signature: Tuple,
        epoch: int,
        pairs: Iterable[Tuple[int, Row]],
    ) -> None:
        """Remember a query's (row_id, full row) result set.

        A row the cache already holds under this epoch — the read that
        produced ``pairs`` has just written its fresh rows back — is only
        marked recently used; a row evicted in between is stored again.
        """
        ids: List[int] = []
        rows = self._rows
        for row_id, row in pairs:
            key = (table, row_id, epoch)
            if key in rows:
                rows.move_to_end(key)
            else:
                self.put_row(table, row_id, epoch, row)
            ids.append(row_id)
        key = (table, signature, epoch)
        self._queries[key] = tuple(ids)
        self._queries.move_to_end(key)
        while len(self._queries) > self.query_capacity:
            self._queries.popitem(last=False)
            self.stats.evicted += 1

    # ---------------------------------------------------------- maintenance --

    def invalidate(self, table: str) -> int:
        """Eagerly purge every entry of a table (any epoch); returns count.

        Correctness never depends on this — epoch keys already make old
        entries unreachable — but purging keeps dead rows from squatting
        on LRU capacity after a write burst.
        """
        dead_rows = [k for k in self._rows if k[0] == table]
        dead_queries = [k for k in self._queries if k[0] == table]
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
        self._rows.clear()
        self._queries.clear()

    def __len__(self) -> int:
        return len(self._rows)
