"""Write-coherent cache of reconstructed plaintext rows.

Reconstruction is the client's dominant cost (k-term GF(p) dot products
per cell, preceded by a full share round-trip), yet hot rows are re-read
far more often than they change.  This cache remembers the *plaintext*
the client already paid to reconstruct, at two granularities:

* **row level** — ``(table, row_id) → row``, holding the columns the
  reads of it fetched (a read fetches only those its statement uses).  A
  read that re-aligns a cached row holding every column it fetches skips
  its interpolation; a put into a held row adds the columns it lacked.
* **query level** — ``(table, query-signature) → (row-id tuple, bound
  predicate)``.  The signature fixes the row set, not the projection: a
  repeat of a SELECT with the same WHERE replays from the row level with
  **zero provider RPCs** when its rows hold the columns asked for.

Soundness rests on the choke point telling the cache what changed:
every write path ends in :meth:`DataSource.bump_table_epoch`, which
hands :meth:`RowCache.apply_write` the write's plaintext *effect*
``{row_id: new full row, or None for a deleted row}``, each value as a
read would reconstruct it.  The effect is written through: a cached row
the write changed is replaced by its new version (a row the cache does
not hold is not added), a deleted one is dropped.  A query entry
survives when the write leaves its row set unchanged — every touched id
it holds still matches its predicate, and no touched row outside it now
does — so it is still the answer the providers would give.  What an
effect cannot describe drops the table: a bump without one (recovery, a
failed round, share increments, migration, resync) and, on any write,
an entry whose plan pushed a ``LIMIT`` (its row set is a prefix, not a
predicate's).  Coherence is found by lookup: a ``column = value`` entry
is indexed by its value and by the ids it holds; only the other entries
evaluate their predicate per written row.

The cache also remembers each table's current epoch.  Every access is
stamped with the epoch its read began in, and a stamp older than the
table's epoch misses (or is ignored): a read that raced a write can
neither be served nor leave behind what it saw.

The cache stores and returns **copies** of rows: callers freely mutate
result dictionaries, and a cache must never alias live results.  Only
plain unverified reads consult it — a SELECT, and the match read of an
UPDATE / DELETE, which takes its rows from the entry that SELECT would
have stored; a checked read exists precisely to re-examine the
providers' answers, so it always goes to the wire.

Both levels are LRU-bounded.  A query-level hit whose row entries were
evicted falls through to a normal RPC (and re-warms both levels); the
cache can serve stale *performance*, never stale *data*.  Every access
takes the lock (a service runs readers concurrently), once per read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from .. import telemetry
from ..sqlengine.expression import Comparison, ComparisonOp, Predicate, normalize_string

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


def _equality_slot(table: str, predicate: Optional[Predicate]) -> Optional[Tuple]:
    """``(table, column, value)`` of a ``column = value`` entry, the value
    folded as :meth:`Comparison.matches` folds it; None for every other."""
    if (
        type(predicate) is Comparison
        and predicate.op is ComparisonOp.EQ
        and predicate.value is not None
    ):
        return table, predicate.column, normalize_string(predicate.value)
    return None


def _unindex(index: Dict, slot: Tuple, key: QueryKey) -> None:
    index[slot].discard(key)
    if not index[slot]:
        del index[slot]


class RowCache:
    """LRU row + query-result cache, kept coherent by write effects."""

    def __init__(self, row_capacity: int = 4096, query_capacity: int = 256) -> None:
        if row_capacity < 1 or query_capacity < 1:
            raise ValueError("cache capacities must be >= 1")
        self.row_capacity = row_capacity
        self.query_capacity = query_capacity
        self._rows: "OrderedDict[RowKey, Row]" = OrderedDict()
        #: result row ids (a dict: ordered, membership without a walk), the
        #: bound predicate that selected them (``None``: a pushed ``LIMIT``)
        #: and, for a ``column = value`` entry, its equality slot
        self._queries: (
            "OrderedDict[QueryKey, Tuple[Dict[int, None], Optional[Predicate], Optional[Tuple]]]"
        ) = OrderedDict()
        #: equality entries by ``(table, column, folded value)`` and by the
        #: rows they hold; every other entry by table
        self._by_value: Dict[Tuple[str, str, object], Set[QueryKey]] = {}
        self._by_row: Dict[RowKey, Set[QueryKey]] = {}
        self._scanned: Dict[str, Dict[QueryKey, None]] = {}
        self._epochs: Dict[str, int] = {}
        self.stats = RowCacheStats()
        #: an entry and its index slots change together, and a service runs
        #: readers concurrently
        self._lock = threading.RLock()

    def _stale(self, table: str, epoch: int) -> bool:
        """The read stamped ``epoch`` began before the table's last write."""
        return epoch < self._epochs.get(table, 0)

    # ------------------------------------------------------------ row level --

    def get_rows(
        self, table: str, row_ids: Collection[int], epoch: int, columns: Iterable[str]
    ) -> Dict[int, Row]:
        """The cached rows among ``row_ids`` holding every one of
        ``columns``, by row id, as fresh copies."""
        needed = frozenset(columns)
        hits: Dict[int, Row] = {}
        with self._lock:
            if not self._stale(table, epoch):
                rows = self._rows
                for row_id in row_ids:
                    key = (table, row_id)
                    row = rows.get(key)
                    if row is not None and row.keys() >= needed:
                        rows.move_to_end(key)
                        hits[row_id] = dict(row)
            self.stats.row_hits += len(hits)
            self.stats.row_misses += len(row_ids) - len(hits)
        telemetry.count("rowcache.row_hits", len(hits), table=table)
        telemetry.count("rowcache.row_misses", len(row_ids) - len(hits), table=table)
        return hits

    def put_rows(self, table: str, epoch: int, pairs: Iterable[Tuple[int, Row]]) -> None:
        """Remember reconstructed ``(row_id, row)`` pairs, each stored as a
        copy.  A held row gains the columns it lacked: both were read at
        the table's current epoch, so where they overlap they agree.  Each
        new row evicts at once, so a put larger than the cache never holds
        more than ``row_capacity`` rows.  A put that can evict copies (and
        merges into) only the last ``row_capacity`` distinct rows it names:
        every other row it names is evicted again before it is over, so it
        is held as passed until then and nothing merges into it."""
        with self._lock:
            if self._stale(table, epoch):
                return
            rows, capacity = self._rows, self.row_capacity
            pairs = list(pairs)
            kept: Optional[Set[int]] = None
            if len(rows) + len(pairs) > capacity:
                kept = set()
                for row_id, _ in reversed(pairs):
                    kept.add(row_id)
                    if len(kept) == capacity:
                        break
            for row_id, row in pairs:
                key = (table, row_id)
                copied = kept is None or row_id in kept
                held = rows.get(key)
                if held is not None:
                    if copied:
                        held.update(row)
                    rows.move_to_end(key)
                    continue
                rows[key] = dict(row) if copied else row
                if len(rows) > capacity:
                    rows.popitem(last=False)
                    self.stats.evicted += 1

    # ---------------------------------------------------------- query level --

    def lookup_query(
        self, table: str, signature: Tuple, epoch: int, columns: Iterable[str]
    ) -> Optional[List[Tuple[int, Row]]]:
        """Replay a cached query: its ``(row_id, row)`` pairs, in result
        order, each row holding at least ``columns``; or None.

        None means no entry for this signature or a member row evicted or
        lacking one of ``columns`` — the RPC path re-warms everything.
        """
        needed = frozenset(columns)
        with self._lock:
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
                if row is None or not row.keys() >= needed:
                    # the entry can no longer be served whole: drop it and
                    # go back to the wire
                    self._drop_query(key)
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
        pairs: List[Tuple[int, Row]],
        predicate: Optional[Predicate] = None,
    ) -> None:
        """Remember a query's result set: the row ids of its ``(row_id,
        row)`` pairs, in order.  The rows themselves are the caller's to
        :meth:`put_rows` — a read puts them as it reconstructs them — and
        the entry replays only while every one is held.

        ``predicate`` is the bound WHERE clause the rows are *all* the
        matches of; without one (a pushed ``LIMIT``) the entry does not
        survive a write.
        """
        with self._lock:
            if self._stale(table, epoch):
                return
            ids = dict.fromkeys(row_id for row_id, _ in pairs)
            key = (table, signature)
            if key in self._queries:
                self._drop_query(key)
            slot = _equality_slot(table, predicate)
            self._queries[key] = (ids, predicate, slot)
            if slot is None:
                self._scanned.setdefault(table, {})[key] = None
            else:
                self._by_value.setdefault(slot, set()).add(key)
                for row_id in ids:
                    self._by_row.setdefault((table, row_id), set()).add(key)
            while len(self._queries) > self.query_capacity:
                self._drop_query(next(iter(self._queries)))
                self.stats.evicted += 1

    def _drop_query(self, key: QueryKey) -> None:
        """Forget one query entry, and its place in the indexes."""
        row_ids, _, slot = self._queries.pop(key)
        if slot is None:
            del self._scanned[key[0]][key]
            return
        _unindex(self._by_value, slot, key)
        for row_id in row_ids:
            _unindex(self._by_row, (key[0], row_id), key)

    # ---------------------------------------------------------- maintenance --

    def apply_write(
        self, table: str, epoch: int, effect: Optional[WriteEffect] = None
    ) -> int:
        """The table is at ``epoch`` after a write that did ``effect``:
        write its rows through, drop what no longer holds; returns the
        number of entries purged.

        A cached row the write changed takes its new value, a deleted one
        goes; a query entry survives when its row set is unchanged.
        Without an effect nothing is known and the whole table goes.
        """
        with self._lock:
            self._epochs[table] = epoch
            if effect is None:
                return self.invalidate(table)
            rows, by_value = self._rows, self._by_value
            dead_rows: List[RowKey] = []
            dead_queries: Set[QueryKey] = set()
            for row_id, row in effect.items():
                key = (table, row_id)
                if key in rows:
                    if row is None:
                        dead_rows.append(key)
                    else:
                        rows[key] = dict(row)
                if not by_value:  # no equality entry anywhere
                    continue
                satisfied: Set[QueryKey] = set()
                for column, value in (row or {}).items():
                    satisfied.update(by_value.get((table, column, normalize_string(value)), ()))
                dead_queries |= satisfied ^ self._by_row.get(key, set())
            for key in self._scanned.get(table, ()):
                row_ids, predicate, _ = self._queries[key]
                if predicate is None or any(
                    (row is not None and predicate.matches(row)) != (row_id in row_ids)
                    for row_id, row in effect.items()
                ):
                    dead_queries.add(key)
            return self._purge(table, dead_rows, dead_queries)

    def invalidate(self, table: str) -> int:
        """Purge every entry of a table; returns count."""
        with self._lock:
            return self._purge(
                table,
                [k for k in self._rows if k[0] == table],
                [k for k in self._queries if k[0] == table],
            )

    def _purge(
        self, table: str, dead_rows: List[RowKey], dead_queries: Collection[QueryKey]
    ) -> int:
        for key in dead_rows:
            del self._rows[key]
        for key in dead_queries:
            self._drop_query(key)
        purged = len(dead_rows) + len(dead_queries)
        if purged:
            self.stats.invalidated += purged
            telemetry.count("rowcache.invalidated", purged, table=table)
        return purged

    def clear(self) -> None:
        """Drop everything (secret rotation: all plaintext re-keyed)."""
        with self._lock:
            for table in {key[0] for key in (*self._rows, *self._queries)}:
                self.invalidate(table)

    def __len__(self) -> int:
        return len(self._rows)
