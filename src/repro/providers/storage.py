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
row id, without a tuple.  The keys are stored as sorted blocks of at
most ``_BLOCK`` keys plus each block's last key, so index maintenance is
block-local.

A table has one mutator per kind, named after the RPC it serves —
``insert_many``, ``update_rows``, ``delete_rows`` — and each checks
what depends on the table before it changes anything: a row id missing
(update, delete), taken (insert) or named twice, or a column the table
lacks, a searchable share no index can key (not an ``int``, not NULL),
or a ragged column raises :class:`~repro.errors.ProviderError` naming
the first offender and leaves the table as it was.  The request's shape
— entries, row ids and shares of the right types — is the provider
wire's to check (:data:`repro.providers.provider.WIRE`), once, before a
mutator is called; ``insert_many`` alone also refuses a row id that is
not a non-negative ``int``, because persistence restore inserts without
passing the wire.  Then:

* **update / delete** bisect the block maxima and rebuild the one block
  each key leaves or lands in, row by row in request order;
* **insert** grows each column array with one ``extend`` and hands each
  index the column for :meth:`SortedShareIndex.bulk_load`, which sorts
  the batch's keys and merges each run of them into a copy of the block
  it falls in, cutting any block grown past ``_BLOCK`` — O(m log n)
  compares, at most m · ``_BLOCK`` key copies and one copy of the
  n / ``_BLOCK`` block pointers for m keys into n entries, where one
  flat sorted list copied all n keys per batch.  The work is eager — a
  load never reads, so deferring it to first read would only hide it —
  and an index whose batch stages nothing is left untouched, mirrors
  included (DESIGN.md §9).  Every write publishes its blocks as a new
  snapshot (see :class:`SortedShareIndex`).

Derived read-path state — the ascending row-id order — is cached and
keyed on the table's ``version`` counter, which every mutation bumps;
readers get the cached order instead of re-sorting per call.

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
from itertools import accumulate, chain, groupby, repeat
from operator import and_, itemgetter, lshift, ne, or_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..core import kernels
from ..errors import ProviderError
from ..sim.network import ShareRows, measure_bytes

ShareRow = Dict[str, Optional[int]]

#: cache sentinel distinguishing "never built" from "built, unvectorizable"
_UNSET = object()

#: Most keys one :class:`SortedShareIndex` block holds: a write that
#: grows a block past it cuts the block into pieces of about half of it.
#: A one-key write copies one block and the list of all of them, so the
#: bound sits near the square root of a 20k-entry index.
_BLOCK = 128

#: Bits an index key gives the row id, and the step it widens by when a
#: row id needs more: row ids are client-assigned counters, so no load
#: the system makes ever widens.
_ROW_ID_BITS = 64

#: What a row id and a searchable column's cell may be: exactly these
#: types — a ``bool`` or a float would key (or fail to) as something it
#: is not.
_ROW_ID_TYPES = frozenset({int})
_SHARE_TYPES = frozenset({int, type(None)})

#: The cell-size bounds of a column that holds no cell yet, and of one
#: that holds a NULL beside an int or a cell that is neither: neither
#: column is one size.
_NO_SIZES = (math.inf, 0)
_ANY_SIZES = (0, math.inf)


def _size_range(shares: Sequence) -> Tuple[float, float]:
    """Bounds on the wire sizes of the cells ``shares``, from their types,
    ``min`` and ``max`` (three C-level passes): exact for ints of one
    sign, one byte for NULLs alone, and no bounds for any other mix."""
    kinds = set(map(type, shares))
    if not kinds:
        return _NO_SIZES
    if kinds == {type(None)}:
        return 1, 1
    if kinds != {int}:
        return _ANY_SIZES
    least, most = min(shares), max(shares)
    low, high = sorted((measure_bytes(least), measure_bytes(most)))
    return (measure_bytes(0) if least < 0 <= most else low), high


class SortedShareIndex:
    """A sorted (share, row_id) index supporting range scans.

    Duplicate share values are expected: the deterministic order-preserving
    scheme maps equal plaintext values to equal shares (that determinism is
    what enables provider-side equality and joins).

    Each entry is one int, the key ``(share << w) | row_id``: with every
    row id below ``2**w`` that is ``share * 2**w + row_id``, so key order
    is (share, row id) order — negative shares included — and a key
    compares as one int where a ``(share, row_id)`` tuple compared
    element-wise and made the collector walk one more object per entry.
    ``w`` starts at 64 and widens, by one re-key of every entry, the first
    time a row id of ``2**w`` or more arrives.  The read API speaks
    ``(share, row_id)`` pairs and global entry offsets as ever.

    The keys are stored as sorted **blocks** of at most ``_BLOCK`` keys
    plus each block's last key, so a write is block-local: it bisects the
    block maxima and rebuilds only the blocks it lands in, and no write
    copies the whole index.  The blocks, their maxima, the entry count and
    the key width are one published snapshot: a write never edits a
    published list, it builds the new ones and publishes them in one
    assignment, and every read takes one snapshot whole — so a read beside
    a write answers from the state before it or after it, never a mix.
    Each block's first entry offset is derived from the block list it
    belongs to, once per mutation batch, by the first read that needs it.

    The mutators take what a key can be made of — an ``int`` share, a
    non-negative ``int`` row id — unchecked: :class:`ShareTable`, their
    one caller, refuses anything else before it changes any state.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        #: (blocks, block maxima, entry count, width, row-id mask)
        self._state: Tuple[List[List[int]], List[int], int, int, int] = (
            [], [], 0, _ROW_ID_BITS, (1 << _ROW_ID_BITS) - 1
        )
        #: (block list, its blocks' first entry offsets + the count)
        self._starts: Tuple[List[List[int]], List[int]] = ([], [0])
        #: bumped on every index mutation, after the snapshot it names is
        #: published; keys the order mirror below
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
        return self._state[2]

    def _fit(self, row_id: int) -> None:
        """Widen the row-id field so ``row_id`` fits, re-keying every
        entry once (their order cannot change: each old row id fits the
        old width)."""
        blocks, maxes, size, old, mask = self._state
        if row_id >> old:
            width = -(-row_id.bit_length() // _ROW_ID_BITS) * _ROW_ID_BITS
            blocks = [
                [((key >> old) << width) | (key & mask) for key in block]
                for block in blocks
            ]
            self._state = (
                blocks, [block[-1] for block in blocks], size, width, (1 << width) - 1
            )

    def insert(self, share: int, row_id: int) -> None:
        self._fit(row_id)
        self._fold([(share << self._state[3]) | row_id])
        self._mutations += 1

    def bulk_load(self, shares: Sequence[Optional[int]], row_ids: Sequence[int]) -> None:
        """Fold a column into the sorted entries: ``shares[r]`` is row
        ``row_ids[r]``'s share; a NULL (``None``) is not indexed.  The
        batch's keys are sorted once and merged block by block
        (:meth:`_fold`)."""
        if not row_ids:
            return
        self._fit(max(row_ids))
        width = self._state[3]
        try:  # one C-level pass while no share is NULL
            staged = list(map(or_, map(lshift, shares, repeat(width)), row_ids))
        except TypeError:
            staged = [
                (share << width) | row_id
                for share, row_id in zip(shares, row_ids)
                if share is not None
            ]
        if staged:
            staged.sort()
            self._fold(staged)
            self._mutations += 1

    def _fold(self, staged: List[int]) -> None:
        """Merge sorted keys into the blocks they fall in and publish.

        Each key is ``insort``-ed into a copy of the block whose maximum
        is the first at or past it (keys past every maximum go to the
        last block); ascending keys land after one another, so a block
        taking r keys moves at most r times its own length.  The
        untouched blocks are shared with the previous snapshot, not
        copied; a block grown past ``_BLOCK`` is then cut into pieces.
        """
        blocks, maxes, size, width, mask = self._state
        if not blocks:  # an empty index takes the batch as it is
            blocks, maxes, grown = [staged], [staged[-1]], [0]
        else:
            blocks, grown = blocks[:], []
            last, bound, inf = len(blocks) - 1, _BLOCK, math.inf
            block, limit, current = -1, -inf, []
            insort, locate = bisect.insort, bisect.bisect_left
            for key in staged:
                if key > limit:  # the key leaves the block being filled
                    if len(current) > bound:
                        grown.append(block)
                    block = locate(maxes, key, block + 1, last)
                    blocks[block] = current = blocks[block][:]
                    limit = maxes[block] if block < last else inf
                insort(current, key)
            if len(current) > bound:
                grown.append(block)
            if grown or block == last:  # only the last block's maximum can move
                maxes = maxes[:]
                maxes[-1] = blocks[-1][-1]
        for block in reversed(grown):
            pieces = _pieces(blocks[block])
            blocks[block:block + 1] = pieces
            maxes[block:block + 1] = [piece[-1] for piece in pieces]
        self._state = (blocks, maxes, size + len(staged), width, mask)

    def remove(self, share: int, row_id: int) -> None:
        blocks, maxes, size, width, mask = self._state
        # anything that could not have been keyed is not an entry
        if type(share) is int and type(row_id) is int and 0 <= row_id <= mask:
            key = (share << width) | row_id
            at = bisect.bisect_left(maxes, key)
            if at < len(blocks):
                block = blocks[at]
                offset = bisect.bisect_left(block, key)
                if block[offset] == key:
                    blocks = blocks[:]
                    if len(block) == 1:  # the block empties: drop it
                        del blocks[at]
                        maxes = maxes[:at] + maxes[at + 1:]
                    else:
                        blocks[at] = block[:offset] + block[offset + 1:]
                        if offset == len(block) - 1:  # its maximum goes
                            maxes = maxes[:]
                            maxes[at] = block[-2]
                    self._state = (blocks, maxes, size - 1, width, mask)
                    self._mutations += 1
                    return
        raise ProviderError(
            f"index {self.column}: entry (share, row {row_id}) missing"
        )

    def _offsets(self, blocks: List[List[int]]) -> List[int]:
        """Each block's first entry offset, then the entry count —
        derived once per block list."""
        cached = self._starts
        if cached[0] is not blocks:
            cached = (blocks, list(accumulate(map(len, blocks), initial=0)))
            self._starts = cached
        return cached[1]

    def entry_range(self, low: int, high: int) -> Tuple[int, int]:
        """Entry offsets ``(start, stop)`` bracketing the shares in the
        closed interval ``[low, high]`` — two two-level bisects; ``stop <=
        start`` when nothing matches."""
        state = self._state
        (first, at), (last, to) = _cut(state, low), _cut(state, high + 1)
        starts = self._offsets(state[0])
        return starts[first] + at, starts[last] + to

    def range_row_ids(self, low: int, high: int) -> List[int]:
        """Row ids whose share lies in the closed interval ``[low, high]``,
        in ascending share order."""
        state = self._state
        (first, at), (last, to) = _cut(state, low), _cut(state, high + 1)
        blocks = state[0]
        if first == last:
            keys = blocks[first][at:to] if at < to else ()
        elif first > last:
            keys = ()
        else:
            keys = chain(
                blocks[first][at:],
                chain.from_iterable(blocks[first + 1:last]),
                blocks[last][:to] if to else (),
            )
        return _row_ids_of(keys, state[4])

    def equal_row_ids(self, share: int) -> List[int]:
        return self.range_row_ids(share, share)

    def min_entry(self) -> Optional[Tuple[int, int]]:
        blocks, _, _, width, mask = self._state
        return (blocks[0][0] >> width, blocks[0][0] & mask) if blocks else None

    def max_entry(self) -> Optional[Tuple[int, int]]:
        _, maxes, _, width, mask = self._state
        return (maxes[-1] >> width, maxes[-1] & mask) if maxes else None

    def entries_in_order(self) -> List[Tuple[int, int]]:
        """All (share, row_id) pairs in ascending share order (copy)."""
        blocks, _, _, width, mask = self._state
        return [(key >> width, key & mask) for key in chain.from_iterable(blocks)]

    def comparisons_for_range(self) -> int:
        """Logical comparison count of one bisect-bounded range probe."""
        return 2 * max(1, len(self).bit_length())

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
            blocks, _, _, width, mask = self._state
            keys = list(chain.from_iterable(blocks))
            shares = [key >> width for key in keys]
            try:
                row_ids = np.array(_row_ids_of(keys, mask), dtype=np.int64)
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
            blocks, _, _, width, mask = self._state
            # equal shares are one run of keys, their row ids ascending
            self._equality = {
                share: _row_ids_of(run, mask)
                for share, run in groupby(chain.from_iterable(blocks), width.__rrshift__)
            }
            self._equality_version = mutations
            self.equality_map_builds += 1
        return self._equality


def _cut(state, least: int) -> Tuple[int, int]:
    """``(block, offset in it)`` of a snapshot's first entry whose share is
    at least ``least``; past every entry is ``(len(blocks), 0)``."""
    blocks, maxes, _, width, _ = state
    key = least << width
    block = bisect.bisect_left(maxes, key)
    if block == len(blocks):
        return block, 0
    return block, bisect.bisect_left(blocks[block], key)


def _pieces(keys: List[int]) -> List[List[int]]:
    """``keys`` as one block, or — past ``_BLOCK`` — as ``2 * len //
    _BLOCK`` near-equal blocks, each of at most ``_BLOCK`` keys."""
    size = len(keys)
    if size <= _BLOCK:
        return [keys]
    count = 2 * size // _BLOCK
    return [keys[size * p // count:size * (p + 1) // count] for p in range(count)]


def _row_ids_of(keys: Iterable[int], mask: int) -> List[int]:
    # one C-level pass; operator.and_ skips the method-wrapper call
    return list(map(and_, keys, repeat(mask)))


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
        #: column → bounds on the wire size of every cell it holds in the
        #: first ``_sized`` slots.  Inserts append past them and the next
        #: :meth:`gather` widens the bounds by what they appended
        #: (:meth:`_size_new_rows`); updates widen them by the cells they
        #: write; nothing narrows them.  ``_one_size`` holds the size of
        #: each column whose bounds meet (else ``None``): its rows are
        #: sized as rows × that size.
        self._cell_sizes: Dict[str, Tuple[float, float]] = dict.fromkeys(
            self.columns, _NO_SIZES
        )
        self._one_size: Dict[str, Optional[float]] = dict.fromkeys(self.columns)
        self._sized = 0
        self.indexes: Dict[str, SortedShareIndex] = {
            column: SortedShareIndex(column) for column in searchable
        }
        #: bumped on every mutation; keys the derived-state cache below
        self.version = 0
        # version-cached derived state: ascending row-id order
        self._derived_version = -1
        self._ordered_ids: List[int] = []
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
        self._prune()
        return self.epoch

    def _prune(self) -> None:
        if self.history_retention is not None:
            floor = self.epoch - self.history_retention
            if floor > self.history_floor:
                self.history_floor = floor
                # records are appended in epoch order, and ``(floor + 1,)``
                # sorts before every record of that epoch
                del self.history[:bisect.bisect_left(self.history, (floor + 1,))]

    def mark(self) -> Tuple:
        """Where the undo log, epoch and horizon stand; pruning waits for :meth:`release`."""
        mark = (len(self.history), self.epoch, self.history_floor, self.history_retention)
        self.history_retention = None
        return mark

    def revert(self, mark: Tuple) -> None:
        """Undo every write since ``mark`` through the mutators, newest undo
        record first, one mutator call per run of records of one kind: an
        insert run is one ``delete_rows``, a delete run one
        ``insert_many``, an update run one ``update_rows`` in which a row
        the run names more than once takes each column's oldest old share.
        Only ``version`` and slots do not go back."""
        length, epoch, floor, retention = mark
        for op, run in groupby(reversed(self.history[length:]), key=itemgetter(1)):
            if op == "insert":
                self.delete_rows([row_id for _, _, row_id, _ in run])
            elif op == "delete":
                self.insert_many(ShareRows.from_pairs([row_id, data] for _, _, row_id, data in run))
            else:
                oldest: Dict[int, ShareRow] = {}
                for _, _, row_id, data in run:  # newest first: an older share overwrites
                    oldest.setdefault(row_id, {}).update(data)
                self.update_rows(list(map(list, oldest.items())))
        del self.history[length:]
        self.epoch, self.history_floor, self.history_retention = epoch, floor, retention

    def release(self, mark: Tuple) -> None:
        """Keep the writes since ``mark``, pruned as each would have been."""
        self.history_retention = mark[3]
        self._prune()

    def _refuse_row_ids(self, row_ids: Sequence, held: bool) -> None:
        """Raise :class:`ProviderError` unless every row id is named once
        and held here (``held``) or not yet (an insert) — and, for an
        insert, is a non-negative ``int``, what an index key is made of.
        C-level passes; the first offender in request order is looked up
        only to name it."""
        if not held and (
            not _ROW_ID_TYPES.issuperset(map(type, row_ids)) or (row_ids and min(row_ids) < 0)
        ):
            bad = next(r for r in row_ids if type(r) is not int or r < 0)
            raise ProviderError(
                f"table {self.name}: row id {bad!r} is not a non-negative integer"
            )
        distinct, slots = set(row_ids), self._slots.keys()
        if len(distinct) == len(row_ids) and (
            slots >= distinct if held else slots.isdisjoint(distinct)
        ):
            return
        seen: Set[int] = set()
        for row_id in row_ids:
            if row_id in seen or (row_id in slots) != held:
                break
            seen.add(row_id)
        if not held:  # taken here or earlier in the batch
            raise ProviderError(f"table {self.name}: duplicate row id {row_id}")
        if row_id in seen:
            raise ProviderError(f"table {self.name}: row id {row_id} is named twice")
        raise ProviderError(f"table {self.name}: no row with id {row_id}")

    def _refuse_columns(self, columns: Iterable[str]) -> None:
        if not self._column_set.issuperset(columns):
            unknown = set(columns) - self._column_set
            raise ProviderError(
                f"table {self.name}: unknown columns {sorted(unknown, key=str)}"
            )

    def _refuse_unkeyable(self, column: str, shares: Sequence) -> None:
        """Raise :class:`ProviderError` when ``column`` is searchable and
        holds a share no index can key (not an ``int``, not NULL)."""
        if column in self.indexes and not _SHARE_TYPES.issuperset(map(type, shares)):
            bad = next(s for s in shares if type(s) not in _SHARE_TYPES)
            raise ProviderError(
                f"table {self.name}: column {column!r} cannot index the "
                f"non-integer share {bad!r}"
            )

    def write_slots(self, row_ids: Sequence[int]) -> List[int]:
        """The slots of the rows an update names, refused as
        :meth:`update_rows` refuses them — for a caller that reads the
        rows before it writes them (``increment_rows``).  The lookup is
        the check: a missing id fails it, a repeated one repeats a slot."""
        try:
            slots = list(map(self._slots.__getitem__, row_ids))
        except KeyError:
            slots = None
        if slots is None or len(set(slots)) != len(slots):
            self._refuse_row_ids(row_ids, held=True)
        return slots

    @telemetry.spanned("storage.insert_many")
    def insert_many(self, rows: ShareRows, epoch: Optional[int] = None) -> int:
        """Insert one column-major batch — one ``extend`` per column array,
        one :meth:`SortedShareIndex.bulk_load` per index, one ``insert``
        undo record per row — or refuse it whole; returns its row count.

        The epoch is stamped before any row moves, as every mutator
        stamps it, so an epoch that does not compare refuses the batch
        whole too."""
        ids = rows.row_ids
        given = dict(zip(rows.columns, rows.shares))
        for column, shares in given.items():
            if len(shares) != len(ids):
                raise ProviderError(
                    f"table {self.name}: column {column!r} holds {len(shares)} "
                    f"shares for {len(ids)} rows"
                )
        self._refuse_row_ids(ids, held=False)
        self._refuse_columns(given)
        for column, shares in given.items():
            self._refuse_unkeyable(column, shares)
        stamped = self._note_epoch(epoch)
        count = len(ids)
        base = len(self._row_ids)
        self._row_ids.extend(ids)
        self._slots.update(zip(ids, range(base, base + count)))
        nulls = (None,) * count
        for column in self.columns:
            shares = given.get(column, nulls)
            self._column_data[column].extend(shares)
            index = self.indexes.get(column)
            if index is not None:
                index.bulk_load(shares, ids)
        self.version += count
        # one (epoch, "insert", row_id, None) undo record per row
        self.history.extend(zip(repeat(stamped), repeat("insert"), ids, repeat(None)))
        return count

    @telemetry.spanned("storage.update_rows")
    def update_rows(
        self,
        updates: Sequence,
        epoch: Optional[int] = None,
        slots: Optional[List[int]] = None,
    ) -> int:
        """Write ``[[row_id, {column: share}], ...]`` in request order,
        with one ``update`` undo record per row holding the old shares of
        its assigned columns — or refuse it whole; returns its length.

        ``slots`` are the rows' slots when the caller resolved them
        already through :meth:`write_slots` (``increment_rows``), so each
        row id is checked once."""
        if slots is None:
            slots = self.write_slots(list(map(itemgetter(0), updates)))
        named = set(chain.from_iterable(map(itemgetter(1), updates)))
        if not named <= self._column_set:
            self._refuse_columns(
                next(c for _, c in updates if not c.keys() <= self._column_set)
            )
        keyed = not named.isdisjoint(self.indexes)
        if keyed:
            for _, cells in updates:
                for column, share in cells.items():
                    self._refuse_unkeyable(column, (share,))
        if not updates:
            return 0
        stamped = self._note_epoch(epoch)
        data, records = self._column_data, []
        for (row_id, cells), slot in zip(updates, slots):
            undo: ShareRow = {}
            for column, share in cells.items():
                array = data[column]
                undo[column] = array[slot]
                array[slot] = share
            if keyed:
                self._reindex(row_id, undo, cells)
            records.append((stamped, "update", row_id, undo))
        for column in named:
            self._widen(column, _size_range([cells[column] for _, cells in updates if column in cells]))
        self.history.extend(records)
        self.version += len(records)
        return len(records)

    def _widen(self, column: str, sizes: Tuple[float, float]) -> None:
        """Widen ``column``'s cell-size bounds to hold ``sizes``."""
        low, high = sizes
        held_low, held_high = self._cell_sizes[column]
        low, high = min(low, held_low), max(high, held_high)
        self._cell_sizes[column] = low, high
        self._one_size[column] = low if low == high else None

    def _size_new_rows(self) -> None:
        """Widen every column's cell sizes by the rows appended since the
        last call, so that they bound all of its cells."""
        sized, count = self._sized, len(self._row_ids)
        if sized < count:
            for column, array in self._column_data.items():
                self._widen(column, _size_range(array[sized:]))
        self._sized = count

    def _reindex(self, row_id: int, old: ShareRow, new: ShareRow) -> None:
        """Move a row's entries in the indexes of the searchable columns
        it assigned from the ``old`` shares to the ``new`` ones."""
        for column, share in new.items():
            index = self.indexes.get(column)
            if index is not None:
                if old[column] is not None:
                    index.remove(old[column], row_id)
                if share is not None:
                    index.insert(share, row_id)

    @telemetry.spanned("storage.delete_rows")
    def delete_rows(self, row_ids: Sequence, epoch: Optional[int] = None) -> int:
        """Delete rows in request order, with one ``delete`` undo record
        per row holding the full old row — or refuse them all; returns
        how many."""
        self._refuse_row_ids(row_ids, held=True)
        if not row_ids:
            return 0
        stamped = self._note_epoch(epoch)
        self._size_new_rows()  # a swap-remove moves the last row below them
        ids, slots, columns = self._row_ids, self._slots, self.columns
        arrays = [self._column_data[column] for column in columns]
        for row_id in row_ids:
            slot = slots.pop(row_id)
            undo = {column: array[slot] for column, array in zip(columns, arrays)}
            for column, index in self.indexes.items():
                if undo[column] is not None:
                    index.remove(undo[column], row_id)
            last = len(ids) - 1
            for array in (ids, *arrays):  # swap-remove: the last slot fills the hole
                array[slot] = array[last]
                array.pop()
            if slot < last:
                slots[ids[slot]] = slot
            self.history.append((stamped, "delete", row_id, undo))
        self._sized = len(ids)
        self.version += len(row_ids)
        return len(row_ids)

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
        the canonical error.
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
        existing columns — callers validate projections.  Each column
        whose cells all take one wire size hands it to the result, which
        is then sized without visiting them.
        """
        names = tuple(self.columns if columns is None else columns)
        data = self._column_data
        if self._sized < len(self._row_ids):
            self._size_new_rows()
        sizes = tuple(map(self._one_size.__getitem__, names))
        if len(slots) > 1:
            pick = itemgetter(*slots)
            shares = [pick(data[name]) for name in names]
        elif slots:  # itemgetter(slot) would answer a bare share
            (slot,) = slots
            shares = [(data[name][slot],) for name in names]
        else:  # and itemgetter() raises
            shares = [()] * len(names)
        return ShareRows(row_ids, names, shares, sizes)

    @property
    def rows(self) -> Dict[int, ShareRow]:
        """Materialized {row_id: row dict} view, ascending row id.

        Compatibility/inspection surface (snapshots, tests) — never a
        per-RPC hot path.
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
