"""Provider-side share storage — the columnar storage engine.

A provider stores, per table, rows of **share integers** keyed by a
client-assigned row id (the same logical row carries the same row id at
every provider, which is how the client re-aligns shares for
reconstruction).  Searchable columns — those shared with the
order-preserving scheme — additionally maintain a sorted index over share
values, which is what lets the provider answer exact-match and range
predicates without learning anything beyond share order (Sec. IV).

Layout.  Shares live in **per-column arrays** indexed by a dense slot
number, with a row-id↔slot map on the side::

    _column_data["salary"][slot]   # one share, no row materialization
    _row_ids[slot]   -> row_id     # slot → row id
    _slots[row_id]   -> slot       # row id → slot

Rows move in and out the way they are stored: an upload arrives as one
column-major :class:`~repro.sim.network.ShareRows` (the row-major list
the WAL, snapshots and repair carry is converted by
:meth:`~repro.sim.network.ShareRows.from_pairs` before it gets here),
and scans, aggregation and join probes read the column arrays directly,
and result rows leave as one ``ShareRows`` gathered per column
(:meth:`ShareTable.gather`).  A row dict is materialized only for the
``rows`` inspection view and a one-row ``get``.  Deletes swap the last
slot into the hole, so slots stay dense and column arrays never carry
tombstones.

Every searchable column's :class:`SortedShareIndex` holds one int per
entry, ``(share << w) | row_id``, so an entry is ordered by share, then
row id, without a tuple; a share or row id that cannot be keyed — a
non-integer share in a searchable column, a negative or non-integer row
id — is refused with :class:`~repro.errors.ProviderError` before any
state changes.  Index maintenance has two paths:

* **incremental** — single-row ``insert``/``update``/``delete`` keep each
  index current in place: one bisect, one memmove of the tail
  (``insort`` / ``del``);
* **bulk** — ``insert_many`` grows each column array with one ``extend``
  and hands each index the column for :meth:`SortedShareIndex.bulk_load`,
  which sorts the batch's keys and *splices* them in: each key is
  bisected into the existing ones from the previous key's cut onward and
  the new list is assembled from slice copies of the old one between the
  cuts — O(m log n) compares and one O(n) pointer copy for m keys into
  n entries, however many batches a load arrives in.  A batch of up to
  ``_INSORT_BATCH`` keys (a one-row ``INSERT``) takes the incremental path
  instead.  Both are eager — a load never reads, so deferring the work
  to first read would only hide it — and an index whose batch stages
  nothing is left untouched, mirrors included (DESIGN.md §9).

Derived read-path state — the ascending row-id order and each row's
position in it (the Merkle leaf order) — is cached and keyed on the
table's ``version`` counter, which every mutation bumps; readers get the
cached structures instead of re-sorting per call.

**Vector mirrors** (numpy backend).  A provider only ever *compares*
order-preserving shares and *adds* shares, so neither mirror needs a
share to fit a machine word — the 90–122-bit shares the order-preserving
scheme produces are served like any other:

* the **order mirror** of a searchable column is built from its index's
  already-sorted entries: the entry-ordered row ids and each entry's
  dense rank (equal shares ⇒ equal rank) per index
  (:meth:`SortedShareIndex.vector_entries`), and per table each slot's
  offset into those entries (:meth:`ShareTable.index_positions`, ``-1``
  for NULL) with its inverse, each entry's slot
  (:meth:`ShareTable.entry_slots`).  A predicate's bounds become entry
  offsets through the same two big-int bisects the scalar path runs
  (:meth:`SortedShareIndex.entry_range`), so matching is an ``int64``
  interval test on offsets; ORDER BY and GROUP BY *walk* the entries in
  order — a condition's own entry range, or the entry slots a mask
  keeps — so they never sort, a LIMIT stops the walk, and groups are
  runs of equal rank;
* the **value mirror** of a summed column is its shares split into
  32-bit limb planes (:meth:`ShareTable.column_vector`), summed per plane
  and recombined in Python ints.

Mirrors are built lazily, per column, by the first request that scans,
sorts, groups or sums it — never on the write path, and never by a
narrow index probe, which stays on the bisects.  They are keyed on the
same ``version``/mutation counters as the derived state, so any DML
invalidates them (an index another column's UPDATE did not touch keeps
its entry arrays).  What cannot be mirrored — row ids outside ``int64``,
a negative or non-integer share in a summed column — reads as None and
every consumer stays on the scalar oracle; dispatch is bit-identical on
every input.

**Equality map** (both backends).  A join's build side is the join
column's :meth:`SortedShareIndex.equality_map`, ``{share: [row ids]}``
derived from the entries by the first join after a mutation of that
index and probed by every join until the next one.

NULLs are stored as ``None`` and never indexed; comparisons against NULL
are false, matching SQL WHERE semantics on the plaintext side.
"""

from __future__ import annotations

import bisect
import math
from itertools import groupby, repeat
from operator import and_, itemgetter, ne
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import kernels
from ..errors import ProviderError
from ..sim.network import ShareRows

ShareRow = Dict[str, Optional[int]]

#: cache sentinel distinguishing "never built" from "built, unvectorizable"
_UNSET = object()

#: Largest batch :meth:`SortedShareIndex.bulk_load` inserts key by key:
#: m memmoves of half the index against one refcounted copy of all of it
#: cross near m = 64, at 2k, 20k and 100k entries alike.
_INSORT_BATCH = 32

#: Bits an index key gives the row id, and the step it widens by when a
#: row id needs more: row ids are client-assigned counters, so no load
#: the system makes ever widens.
_ROW_ID_BITS = 64

#: What a row id and a searchable column's cell may be: exactly these
#: types — a ``bool`` or a float would key (or fail to) as something it
#: is not.
_ROW_ID_TYPES = frozenset({int})
_SHARE_TYPES = frozenset({int, type(None)})


class SortedShareIndex:
    """A sorted (share, row_id) index supporting range scans.

    Duplicate share values are expected: the deterministic order-preserving
    scheme maps equal plaintext values to equal shares (that determinism is
    what enables provider-side equality and joins).

    Stored as one sorted list of ints, the key ``(share << w) | row_id``
    per entry: with every row id below ``2**w`` that is ``share * 2**w +
    row_id``, so key order is (share, row id) order — negative shares
    included — and a key compares as one int where a ``(share, row_id)``
    tuple compared element-wise and made the collector walk one more
    object per entry.  ``w`` starts at 64 and widens, by one re-key of
    every entry, the first time a row id of ``2**w`` or more arrives.  The
    read API speaks ``(share, row_id)`` pairs as ever.

    The mutators take what a key can be made of — an ``int`` share, a
    non-negative ``int`` row id — unchecked: :class:`ShareTable`, their
    one caller, refuses anything else before it changes any state.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._keys: List[int] = []  # (share << width) | row_id, sorted
        self._width = _ROW_ID_BITS
        self._mask = (1 << _ROW_ID_BITS) - 1  # a key's row-id bits
        #: bumped on every index mutation; keys the order mirror below
        self._mutations = 0
        self._vector_version = -1
        self._vector = None  # (row-id int64 array, dense-rank int64 array)
        #: number of order-mirror builds (regression hook: zero for point
        #: and narrow range probes, one per mutation batch otherwise)
        self.vector_rebuilds = 0
        self._equality_version = -1
        self._equality: Dict[int, List[int]] = {}
        #: number of equality-map builds (regression hook: one per
        #: mutation batch a join consults, none from any other read)
        self.equality_map_builds = 0

    def __len__(self) -> int:
        return len(self._keys)

    def _fit(self, row_id: int) -> None:
        """Widen the row-id field so ``row_id`` fits, re-keying every
        entry once (their order cannot change: each old row id fits the
        old width)."""
        if row_id >> self._width:
            old, mask = self._width, self._mask
            width = -(-row_id.bit_length() // _ROW_ID_BITS) * _ROW_ID_BITS
            self._keys = [((key >> old) << width) | (key & mask) for key in self._keys]
            self._width, self._mask = width, (1 << width) - 1

    def insert(self, share: int, row_id: int) -> None:
        self._fit(row_id)
        bisect.insort(self._keys, (share << self._width) | row_id)
        self._mutations += 1

    def bulk_load(self, shares: Sequence[Optional[int]], row_ids: Sequence[int]) -> None:
        """Fold a column into the sorted entries: ``shares[r]`` is row
        ``row_ids[r]``'s share; a NULL (``None``) is not indexed.

        A handful of keys is ``insort``-ed in place like :meth:`insert`.
        A larger batch is spliced: each sorted key
        is located with one ``bisect_right`` from the previous key's cut,
        and the new list is assembled from the slices of the old one
        between the cuts and published by a single assignment — a reader
        holds the old list or the new.  A two-run merge would step
        through all n entries in Python, whatever the batch size.
        """
        if not row_ids:
            return
        self._fit(max(row_ids))
        width = self._width
        staged = [
            (share << width) | row_id
            for share, row_id in zip(shares, row_ids)
            if share is not None
        ]
        staged.sort()
        if not staged:
            return
        keys = self._keys
        if not keys:
            self._keys = staged
        elif len(staged) <= _INSORT_BATCH:
            for key in staged:
                bisect.insort(keys, key)
        else:
            merged: List[int] = []
            cut = 0
            for key in staged:
                position = bisect.bisect_right(keys, key, cut)
                if position != cut:
                    merged += keys[cut:position]
                    cut = position
                merged.append(key)
            merged += keys[cut:]
            self._keys = merged
        self._mutations += 1

    def remove(self, share: int, row_id: int) -> None:
        keys = self._keys
        # anything that could not have been keyed is not an entry
        if type(share) is int and type(row_id) is int and 0 <= row_id <= self._mask:
            key = (share << self._width) | row_id
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index]
                self._mutations += 1
                return
        raise ProviderError(
            f"index {self.column}: entry (share, row {row_id}) missing"
        )

    def _cut(self, bound, equal_after: bool, nan_cut: int) -> int:
        """Offset of the first entry whose share lies past ``bound`` —
        or at it, when ``equal_after`` — in int-versus-real comparison
        semantics: a real bound cuts at the integers around it, ±inf
        before or after every entry, and NaN (which no share compares
        with) at ``nan_cut``."""
        if type(bound) is int:
            least = bound if equal_after else bound + 1
        else:
            try:
                least = math.ceil(bound) if equal_after else math.floor(bound) + 1
            except OverflowError:  # an infinity
                return 0 if bound < 0 else len(self._keys)
            except ValueError:  # NaN
                return nan_cut
        return bisect.bisect_left(self._keys, least << self._width)

    def entry_range(
        self,
        low,
        high,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Tuple[int, int]:
        """Entry offsets ``(start, stop)`` bracketing the shares in the
        given (possibly open) interval — two bisects; ``stop <= start``
        when nothing matches."""
        n = len(self._keys)
        start = 0 if low is None else self._cut(low, low_inclusive, n)
        stop = n if high is None else self._cut(high, not high_inclusive, 0)
        return start, stop

    def range_row_ids(
        self,
        low: Optional[int],
        high: Optional[int],
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[int]:
        """Row ids whose share lies in the given (possibly open) interval,
        in ascending share order."""
        start, stop = self.entry_range(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        return self._row_ids_of(self._keys[start:stop])

    def equal_row_ids(self, share: int) -> List[int]:
        return self.range_row_ids(share, share)

    def count_in_range(self, low, high) -> int:
        """Cardinality of a closed share interval — two bisects, no
        extraction.  Used for access-path selection before paying for
        row-id materialization."""
        start, stop = self.entry_range(low, high)
        return max(0, stop - start)

    def _row_ids_of(self, keys: Iterable[int]) -> List[int]:
        # one C-level pass; operator.and_ skips the method-wrapper call
        return list(map(and_, keys, repeat(self._mask)))

    def _entry(self, key: int) -> Tuple[int, int]:
        return key >> self._width, key & self._mask

    def min_entry(self) -> Optional[Tuple[int, int]]:
        return self._entry(self._keys[0]) if self._keys else None

    def max_entry(self) -> Optional[Tuple[int, int]]:
        return self._entry(self._keys[-1]) if self._keys else None

    def entries_in_order(self) -> List[Tuple[int, int]]:
        """All (share, row_id) pairs in ascending share order (copy)."""
        width, mask = self._width, self._mask
        return [(key >> width, key & mask) for key in self._keys]

    def comparisons_for_range(self) -> int:
        """Logical comparison count of one bisect-bounded range probe."""
        n = len(self._keys)
        return 2 * max(1, n.bit_length())

    # -- order mirror (numpy backend) ---------------------------------------

    def vector_entries(self):
        """``(row-id array, dense-rank array)`` in entry order, or None.

        Both ``int64``; equal shares carry equal ranks, so rank order is
        share order whatever the shares' width.  Lazily (re)built after
        any mutation, keyed on the mutation counter; None when the
        backend is scalar, numpy is absent, or a row id falls outside
        int64 — consumers then take the bisect path.
        """
        np = kernels.numpy_module()
        if np is None:
            return None
        mutations = self._mutations
        if self._vector_version != mutations:
            keys, width = self._keys, self._width
            shares = [key >> width for key in keys]
            try:
                row_ids = np.array(self._row_ids_of(keys), dtype=np.int64)
            except OverflowError:
                vector = None  # unvectorizable at this version
            else:
                # a rank steps up wherever a share differs from the one
                # before it (the first entry is compared with itself)
                steps = np.fromiter(
                    map(ne, shares, shares[:1] + shares),
                    dtype=np.int64,
                    count=len(shares),
                )
                vector = (row_ids, np.cumsum(steps))
            # publish the mirror before its version: a reader that sees
            # the new version must never see the old arrays
            self._vector = vector
            self._vector_version = mutations
            self.vector_rebuilds += 1
        return self._vector

    # -- equality map (joins) -------------------------------------------------

    def equality_map(self) -> Dict[int, List[int]]:
        """``{share: [row ids]}`` over the entries, row ids ascending.

        The build side of a provider-side join: equal plaintexts have
        equal shares, so a probe share's partners are one dict lookup.
        Derived lazily from the sorted entries and keyed on the mutation
        counter like :meth:`vector_entries`, so a mutation retires it and
        the next join rebuilds it; no other read builds it.  Backend-free
        (plain Python), and read-only to callers.
        """
        mutations = self._mutations
        if self._equality_version != mutations:
            # equal shares are one run of keys, their row ids ascending
            self._equality = {
                share: self._row_ids_of(run)
                for share, run in groupby(self._keys, self._width.__rrshift__)
            }
            self._equality_version = mutations
            self.equality_map_builds += 1
        return self._equality


class ShareTable:
    """One table's shares at one provider (columnar layout)."""

    def __init__(
        self,
        name: str,
        columns: List[str],
        searchable: Iterable[str],
        history_retention: int = 64,
    ) -> None:
        searchable = set(searchable)
        unknown = searchable - set(columns)
        if unknown:
            raise ProviderError(
                f"table {name}: searchable columns {sorted(unknown)} not in schema"
            )
        self.name = name
        self.columns = list(columns)
        self._column_set: Set[str] = set(self.columns)
        self.searchable: Set[str] = searchable
        #: column → share array, indexed by slot (dense, no tombstones)
        self._column_data: Dict[str, List[Optional[int]]] = {
            column: [] for column in self.columns
        }
        self._row_ids: List[int] = []  # slot → row id
        self._slots: Dict[int, int] = {}  # row id → slot
        self.indexes: Dict[str, SortedShareIndex] = {
            column: SortedShareIndex(column) for column in searchable
        }
        #: bumped on every mutation; keys the Merkle cache and the
        #: derived-state cache below
        self.version = 0
        # version-cached derived state: ascending row-id order (= Merkle
        # leaf order) and each row id's position in it
        self._derived_version = -1
        self._ordered_ids: List[int] = []
        self._leaf_positions: Dict[int, int] = {}
        #: number of derived-state rebuilds (regression hook: stays O(1)
        #: per mutation batch, never O(1) per read)
        self.derived_rebuilds = 0
        # vectorized mirrors (numpy backend), keyed on ``version`` like
        # the derived state: per-column limb planes (+ NULL masks), each
        # searchable column's slot→index-offset and index-offset→slot
        # arrays, and the sorted row-id / slot pair that turns batched
        # row-id→slot translation into one ``searchsorted``
        self._vec_version = -1
        self._vec_columns: Dict[str, object] = {}
        self._vec_order: Dict[str, object] = {}
        self._vec_sorted_rids = _UNSET  # ascending row ids, int64
        self._vec_sorted_slots = _UNSET  # their slots, aligned
        #: number of value-mirror builds (regression hook: stays O(1)
        #: per (column, mutation batch), never O(1) per read)
        self.vector_rebuilds = 0
        #: number of entry-slot (order mirror) builds, same discipline
        self.entry_slot_builds = 0
        # materialized aggregate payloads (SUM/COUNT partials), version-keyed
        # like the derived state above: entries are valid only while
        # ``version`` stands still, so the first lookup after any mutation
        # drops the lot.  Sound under Shamir linearity — a cached partial
        # sum of shares IS the share of the sum for the unchanged rows.
        self._agg_version = -1
        self._agg_cache: Dict[Tuple, object] = {}
        #: regression hooks mirroring ``derived_rebuilds``
        self.agg_cache_hits = 0
        self.agg_cache_misses = 0
        # -- time travel (ISSUE-8) -----------------------------------------
        #: latest client mutation epoch this table has seen; mutation RPCs
        #: carry the epoch the client's choke point stamped on them
        self.epoch = 0
        #: epoch-tagged undo log, ascending epoch: ``(epoch, op, row_id,
        #: data)`` where undoing an "insert" removes the row, a "delete"
        #: restores ``data`` (the full old share row), and an "update"
        #: restores ``data`` (the old shares of the assigned columns).
        #: Increments record plain "update" undos — in share space an
        #: in-place addition is just an update with a known old value.
        self.history: List[Tuple[int, str, int, Optional[ShareRow]]] = []
        #: oldest epoch :meth:`rows_asof` can still serve; advanced by
        #: pruning (bounded retention) and by wholesale rebuilds
        self.history_floor = 0
        #: epochs of undo history kept; ``None`` disables pruning
        self.history_retention: Optional[int] = history_retention

    def __len__(self) -> int:
        return len(self._row_ids)

    # -- mutation -----------------------------------------------------------

    def _append_row(self, row_id: int, values: ShareRow) -> int:
        """Validate + append one row to the column arrays; returns its slot."""
        if row_id in self._slots:
            raise ProviderError(f"table {self.name}: duplicate row id {row_id}")
        if not values.keys() <= self._column_set:
            unknown = set(values) - self._column_set
            raise ProviderError(
                f"table {self.name}: unknown columns {sorted(unknown)}"
            )
        slot = len(self._row_ids)
        self._row_ids.append(row_id)
        self._slots[row_id] = slot
        for column in self.columns:
            self._column_data[column].append(values.get(column))
        return slot

    def _note_epoch(self, epoch: Optional[int]) -> int:
        """Advance the table's epoch high-water mark and prune old undo
        history past the retention horizon.  Unstamped mutations (direct
        storage use, staging uploads) attach to the current epoch."""
        if epoch is not None and epoch > self.epoch:
            # a fresh table whose first stamped mutation arrives at an
            # epoch beyond 1 was rebuilt (resync/rotation drop+recreate)
            # or restored — the pre-rebuild past is gone, and the old
            # share generation would not reconstruct with the new one
            # anyway, so the readable horizon starts here
            if self.epoch == 0 and not self.history and epoch > 1:
                self.history_floor = max(self.history_floor, epoch)
            self.epoch = epoch
        if self.history_retention is not None:
            floor = self.epoch - self.history_retention
            if floor > self.history_floor:
                self.history_floor = floor
                cut = 0
                while cut < len(self.history) and self.history[cut][0] <= floor:
                    cut += 1
                if cut:
                    del self.history[:cut]
        return self.epoch

    def _refuse_unkeyable(self, row_ids: Sequence, cells: Dict[str, Sequence]) -> None:
        """Raise :class:`ProviderError` unless every row id is a
        non-negative ``int`` and every searchable column's cell among
        ``cells`` an ``int`` or NULL — what an index key is made of.  The
        one check in front of every index mutation.  C-level passes; the
        offender is looked up only to name it."""
        if not _ROW_ID_TYPES.issuperset(map(type, row_ids)) or (row_ids and min(row_ids) < 0):
            bad = next(r for r in row_ids if type(r) is not int or r < 0)
            raise ProviderError(
                f"table {self.name}: row id {bad!r} is not a non-negative integer"
            )
        for column in self.indexes:
            shares = cells.get(column, ())
            if not _SHARE_TYPES.issuperset(map(type, shares)):
                bad = next(s for s in shares if type(s) not in _SHARE_TYPES)
                raise ProviderError(
                    f"table {self.name}: column {column!r} cannot index the "
                    f"non-integer share {bad!r}"
                )

    def insert(
        self, row_id: int, values: ShareRow, epoch: Optional[int] = None
    ) -> None:
        self._refuse_unkeyable((row_id,), {c: (s,) for c, s in values.items()})
        slot = self._append_row(row_id, values)
        for column, index in self.indexes.items():
            share = self._column_data[column][slot]
            if share is not None:
                index.insert(share, row_id)
        self.version += 1
        self.history.append((self._note_epoch(epoch), "insert", row_id, None))

    def insert_many(self, rows: ShareRows, epoch: Optional[int] = None) -> int:
        """Bulk insert of one column-major batch.

        A batch holding a row id or a searchable column's share that no
        index can key is refused whole, before any state changes.
        Otherwise the happy path validates the rest with set operations,
        grows each column array with one ``extend`` and folds each
        column into its index with one :meth:`SortedShareIndex.bulk_load`.
        A batch with a duplicate row id or a column the table lacks is
        replayed through sequential :meth:`insert` calls instead, so the
        error surfaces at the same row, with the same message and the
        same partially-inserted state, as single-row DML would produce
        (a column the table lacks is met at the first row that holds a
        share in it).
        """
        ids = rows.row_ids
        given = dict(zip(rows.columns, rows.shares))
        self._refuse_unkeyable(ids, given)
        slots = self._slots
        clean = (
            given.keys() <= self._column_set
            and len(set(ids)) == len(ids)
            and slots.keys().isdisjoint(ids)
        )
        if not clean:
            for row_id, values in rows:
                present = {c: s for c, s in values.items() if s is not None}
                self.insert(row_id, present, epoch=epoch)
            return len(ids)
        count = len(ids)
        base = len(self._row_ids)
        self._row_ids.extend(ids)
        slots.update(zip(ids, range(base, base + count)))
        nulls = (None,) * count
        for column in self.columns:
            shares = given.get(column, nulls)
            self._column_data[column].extend(shares)
            index = self.indexes.get(column)
            if index is not None:
                index.bulk_load(shares, ids)
        self.version += count
        stamped = self._note_epoch(epoch)
        # one (epoch, "insert", row_id, None) undo record per row
        self.history.extend(zip(repeat(stamped), repeat("insert"), ids, repeat(None)))
        return count

    def update(
        self, row_id: int, assignments: ShareRow, epoch: Optional[int] = None
    ) -> None:
        slot = self._slot(row_id)
        unknown = set(assignments) - self._column_set
        if unknown:
            raise ProviderError(
                f"table {self.name}: unknown columns {sorted(unknown)}"
            )
        self._refuse_unkeyable((), {c: (s,) for c, s in assignments.items()})
        undo: ShareRow = {}
        for column, new_share in assignments.items():
            array = self._column_data[column]
            old_share = array[slot]
            undo[column] = old_share
            if column in self.indexes:
                if old_share is not None:
                    self.indexes[column].remove(old_share, row_id)
                if new_share is not None:
                    self.indexes[column].insert(new_share, row_id)
            array[slot] = new_share
        self.version += 1
        self.history.append((self._note_epoch(epoch), "update", row_id, undo))

    def delete(self, row_id: int, epoch: Optional[int] = None) -> None:
        slot = self._slot(row_id)
        undo = {
            column: self._column_data[column][slot] for column in self.columns
        }
        for column, index in self.indexes.items():
            share = self._column_data[column][slot]
            if share is not None:
                index.remove(share, row_id)
        last = len(self._row_ids) - 1
        if slot != last:
            # swap-remove: move the last slot into the hole so the column
            # arrays stay dense
            moved = self._row_ids[last]
            self._row_ids[slot] = moved
            self._slots[moved] = slot
            for array in self._column_data.values():
                array[slot] = array[last]
        self._row_ids.pop()
        for array in self._column_data.values():
            array.pop()
        del self._slots[row_id]
        self.version += 1
        self.history.append((self._note_epoch(epoch), "delete", row_id, undo))

    def apply_column_updates(
        self,
        updates: List[Tuple[int, ShareRow, ShareRow]],
        epoch: Optional[int] = None,
    ) -> int:
        """Apply precomputed non-indexed per-row updates in one batch.

        ``updates`` holds ``(row_id, assignments, undo)`` triples whose
        assignments touch only **non-searchable** columns of existing
        rows, with ``undo`` carrying the exact old shares — the batched
        tail of the vectorized ``increment_rows`` path, which computes
        new/old values as one array kernel and only needs the writeback.
        Produces state bit-identical to n :meth:`update` calls: one
        history entry and one version bump per row, stamped at the same
        epoch (``_note_epoch`` is idempotent within a request, so calling
        it once up front equals calling it per row).
        """
        stamped = self._note_epoch(epoch)
        history_append = self.history.append
        slots = self._slots
        column_data = self._column_data
        for row_id, assignments, undo in updates:
            slot = slots[row_id]
            for column, value in assignments.items():
                column_data[column][slot] = value
            history_append((stamped, "update", row_id, undo))
        self.version += len(updates)
        return len(updates)

    # -- time travel ---------------------------------------------------------

    def rows_asof(self, epoch: int) -> Dict[int, ShareRow]:
        """Share rows as of client mutation epoch ``epoch``.

        Walks the undo history newest-first, rolling back every entry
        stamped *after* the requested epoch.  Raises when the epoch
        predates the retention horizon (the undo entries needed to get
        there were pruned) — a loud bound, never a silently wrong past.
        """
        if epoch < self.history_floor:
            raise ProviderError(
                f"table {self.name}: epoch {epoch} predates the history "
                f"horizon (oldest readable epoch is {self.history_floor})"
            )
        rows = {rid: dict(row) for rid, row in self.rows.items()}
        for entry_epoch, op, row_id, data in reversed(self.history):
            if entry_epoch <= epoch:
                break
            if op == "insert":
                rows.pop(row_id, None)
            elif op == "delete":
                rows[row_id] = dict(data or {})
            else:  # update: restore the old shares of the assigned columns
                row = rows.get(row_id)
                if row is not None:
                    row.update(data or {})
        return rows

    # -- access --------------------------------------------------------------

    def _slot(self, row_id: int) -> int:
        try:
            return self._slots[row_id]
        except KeyError:
            raise ProviderError(
                f"table {self.name}: no row with id {row_id}"
            ) from None

    def get(self, row_id: int) -> ShareRow:
        """One row materialized as a dict (result assembly, not scans)."""
        slot = self._slot(row_id)
        return {
            column: self._column_data[column][slot] for column in self.columns
        }

    def value(self, row_id: int, column: str) -> Optional[int]:
        """One cell, no row materialization."""
        return self._column_data[column][self._slot(row_id)]

    def has_row(self, row_id: int) -> bool:
        return row_id in self._slots

    def has_column(self, column: str) -> bool:
        return column in self._column_set

    def column_array(self, column: str) -> Sequence[Optional[int]]:
        """The live share array for ``column``, indexed by slot.

        Zero-copy: callers must treat it as read-only and must not hold it
        across mutations (slots move on delete).
        """
        try:
            return self._column_data[column]
        except KeyError:
            raise ProviderError(
                f"table {self.name}: unknown column {column!r}"
            ) from None

    def slot_of(self, row_id: int) -> int:
        return self._slot(row_id)

    def slots_for(self, row_ids: Iterable[int]) -> List[int]:
        """Slots for many row ids (raises on any missing id)."""
        try:
            return list(map(self._slots.__getitem__, row_ids))
        except KeyError as exc:
            raise ProviderError(
                f"table {self.name}: no row with id {exc.args[0]}"
            ) from None

    def values_for_rows(
        self, column: str, row_ids: Iterable[int]
    ) -> List[Optional[int]]:
        """One column's shares for many rows: the fused scan kernel.

        Chains the row-id→slot map into the column array with C-level
        ``map`` — no per-row Python frame, no row dict — which is what
        keeps provider-side SUM/COUNT at array-read speed.
        """
        array = self.column_array(column)
        try:
            return list(
                map(array.__getitem__, map(self._slots.__getitem__, row_ids))
            )
        except KeyError as exc:
            raise ProviderError(
                f"table {self.name}: no row with id {exc.args[0]}"
            ) from None

    # -- version-cached derived state ----------------------------------------

    def _refresh_derived(self) -> None:
        if self._derived_version != self.version:
            self._ordered_ids = sorted(self._slots)
            self._leaf_positions = {
                row_id: position
                for position, row_id in enumerate(self._ordered_ids)
            }
            self._derived_version = self.version
            self.derived_rebuilds += 1

    def all_row_ids(self) -> List[int]:
        """All row ids ascending (version-cached; treat as read-only)."""
        self._refresh_derived()
        return self._ordered_ids

    # -- vector mirrors (numpy backend) --------------------------------------

    def _vector_state(self):
        """The numpy module when vector mirrors may be used, else None.

        Also invalidates every mirror the first time it is consulted
        after a mutation — the same version-keyed discipline as
        :meth:`_refresh_derived`, so no read can ever see a stale array.
        """
        np = kernels.numpy_module()
        if np is None:
            return None
        if self._vec_version != self.version:
            self._vec_columns = {}
            self._vec_order = {}
            self._vec_sorted_rids = _UNSET
            self._vec_sorted_slots = _UNSET
            self._vec_version = self.version
        return np

    def column_vector(self, column: str):
        """The value mirror: ``((L, n) limb planes by slot, NULL mask or
        None)``, or None.

        None means the column is absent, the backend is scalar, or the
        column holds a negative or non-integer share at this version
        (tampered storage) — the consumer must stay on the scalar path.
        NULL cells read 0 under the mask.
        """
        np = self._vector_state()
        if np is None or column not in self._column_set:
            return None
        cached = self._vec_columns.get(column, _UNSET)
        if cached is not _UNSET:
            return cached
        vector = kernels.share_limb_planes(self._column_data[column])
        self._vec_columns[column] = vector
        self.vector_rebuilds += 1
        return vector

    def _order_mirror(self, column: str):
        """``(index_positions, entry_slots)`` of a searchable column, or
        None — built together, once per version."""
        np = self._vector_state()
        index = self.indexes.get(column)
        if np is None or index is None:
            return None
        mirror = self._vec_order.get(column, _UNSET)
        if mirror is _UNSET:
            mirror = None
            entries = index.vector_entries()
            slots = None if entries is None else self.vector_slots_for(entries[0])
            if slots is not None:
                positions = np.full(len(self._row_ids), -1, dtype=np.int64)
                positions[slots] = np.arange(slots.shape[0], dtype=np.int64)
                mirror = (positions, slots)
            self._vec_order[column] = mirror
            self.entry_slot_builds += 1
        return mirror

    def index_positions(self, column: str):
        """The order mirror: each slot's offset into the column's sorted
        index entries (``int64``, ``-1`` for NULL), or None.

        Offsets order slots by ``(share, row id)``; the index's
        :meth:`SortedShareIndex.vector_entries` maps an offset to its
        row id and dense rank.  None means the column is not searchable,
        the backend is scalar, or a row id falls outside int64 or has no
        slot here.
        """
        mirror = self._order_mirror(column)
        return None if mirror is None else mirror[0]

    def entry_slots(self, column: str):
        """The inverse of :meth:`index_positions`: the slot of each index
        entry, in entry order (``int64``), or None when that is None.

        Reading a slot array through it walks the column's rows in
        ``(share, row id)`` order — ORDER BY and GROUP BY without a sort.
        """
        mirror = self._order_mirror(column)
        return None if mirror is None else mirror[1]

    def _vector_slot_map(self, np):
        """(sorted row ids, their slots) int64 arrays, or None."""
        if self._vec_sorted_rids is _UNSET:
            try:
                slot_rids = np.array(self._row_ids, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                self._vec_sorted_rids = self._vec_sorted_slots = None
            else:
                order = np.argsort(slot_rids)
                self._vec_sorted_rids = slot_rids[order]
                self._vec_sorted_slots = order
        if self._vec_sorted_rids is None:
            return None
        return self._vec_sorted_rids, self._vec_sorted_slots

    def ordered_rid_slots(self):
        """``(ascending row-id array, their slot array)`` or None.

        The vectorized analogue of :meth:`all_row_ids` plus
        :meth:`slots_for` — full scans gather columns through the slot
        array without touching the Python dict.
        """
        np = self._vector_state()
        if np is None:
            return None
        return self._vector_slot_map(np)

    def vector_slots_for(self, rid_array):
        """Slots (int64 array) aligned with ``rid_array``, or None.

        None when any requested row id is absent (or no slot map is
        available): callers fall back to the scalar path, which raises
        the canonical per-row error with identical partial-state
        semantics.
        """
        np = self._vector_state()
        if np is None:
            return None
        pair = self._vector_slot_map(np)
        if pair is None:
            return None
        sorted_rids, sorted_slots = pair
        if rid_array.shape[0] == 0:
            return rid_array[:0]
        positions = np.searchsorted(sorted_rids, rid_array)
        if int(positions.max()) >= sorted_rids.shape[0]:
            return None
        if not np.array_equal(sorted_rids[positions], rid_array):
            return None
        return sorted_slots[positions]

    def row_position(self, row_id: int) -> int:
        """Position of a row id in ascending row-id order (= Merkle leaf
        index), via the version-cached position map — O(1) per lookup
        instead of an O(n) ``list.index`` scan per call."""
        self._refresh_derived()
        try:
            return self._leaf_positions[row_id]
        except KeyError:
            raise ProviderError(
                f"table {self.name}: no row with id {row_id}"
            ) from None

    def cached_aggregate(self, key: Tuple) -> Optional[object]:
        """The materialized aggregate payload for ``key``, or None.

        The first lookup after any mutation finds the version moved and
        drops every entry — the same invalidation discipline as
        :meth:`_refresh_derived`, so no stale partial can ever be served.
        """
        if self._agg_version != self.version:
            self._agg_cache.clear()
            self._agg_version = self.version
        payload = self._agg_cache.get(key)
        if payload is None:
            self.agg_cache_misses += 1
            return None
        self.agg_cache_hits += 1
        return payload

    def store_aggregate(self, key: Tuple, payload: object) -> None:
        """Materialize an aggregate payload for the current version."""
        if self._agg_version != self.version:
            self._agg_cache.clear()
            self._agg_version = self.version
        if len(self._agg_cache) >= 64:
            self._agg_cache.clear()
        self._agg_cache[key] = payload

    def clear_aggregate_cache(self) -> None:
        """Drop all materialized aggregates (benchmarks measure cold paths)."""
        self._agg_cache.clear()

    def gather(
        self,
        row_ids: List[int],
        slots: List[int],
        columns: Optional[List[str]] = None,
    ) -> ShareRows:
        """The rows at ``slots`` (ids ``row_ids``, aligned) as a result.

        Column-major like the storage: one C-level gather per column, no
        row dict.  ``columns`` (default: the full schema) must name
        existing columns — callers validate projections.
        """
        names = tuple(self.columns if columns is None else columns)
        data = self._column_data
        if len(slots) > 1:
            pick = itemgetter(*slots)
            shares = [pick(data[name]) for name in names]
        elif slots:  # itemgetter(slot) would answer a bare share
            (slot,) = slots
            shares = [(data[name][slot],) for name in names]
        else:  # and itemgetter() raises
            shares = [()] * len(names)
        return ShareRows(row_ids, names, shares)

    @property
    def rows(self) -> Dict[int, ShareRow]:
        """Materialized {row_id: row dict} view, ascending row id.

        Compatibility/inspection surface (snapshots, tests, Merkle tree
        construction on version change) — never a per-RPC hot path.
        """
        ordered = self.all_row_ids()
        return dict(self.gather(ordered, self.slots_for(ordered)))

    def index_for(self, column: str) -> SortedShareIndex:
        try:
            return self.indexes[column]
        except KeyError:
            raise ProviderError(
                f"table {self.name}: column {column!r} is not searchable — "
                "randomly-shared columns cannot be filtered at the provider"
            ) from None


class ShareStore:
    """All tables held by one provider."""

    def __init__(self, history_retention: int = 64) -> None:
        self._tables: Dict[str, ShareTable] = {}
        #: undo-history retention (epochs) for newly created tables
        self.history_retention = history_retention
        #: txn ids already applied — the exactly-once guard that makes
        #: WAL replay idempotent even for non-idempotent ops (increments)
        self.applied_txns: Set[int] = set()

    def create_table(
        self, name: str, columns: List[str], searchable: Iterable[str]
    ) -> ShareTable:
        if name in self._tables:
            raise ProviderError(f"table {name!r} already exists")
        table = ShareTable(
            name, columns, searchable, history_retention=self.history_retention
        )
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise ProviderError(f"no such table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> ShareTable:
        try:
            return self._tables[name]
        except KeyError:
            raise ProviderError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)
