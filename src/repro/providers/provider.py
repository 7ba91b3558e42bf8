"""One database service provider (DAS_i).

A provider holds one share of every value and executes **share-space**
requests: filter by comparisons on order-preserving shares, partially
aggregate, hash-join on deterministic shares, and mutate rows.  It never
sees plaintext, evaluation points, or hash keys — everything it learns is
share order and equality, which is exactly the leakage the paper accepts
in exchange for provider-side filtering (Sec. IV).

The RPC surface is a single :meth:`handle` dispatching on a method name
with primitive-typed payloads, so the cluster can serialise every request
and response through the simulated network for byte accounting.

Read handlers run against the columnar storage engine
(:mod:`repro.providers.storage`): scans, aggregation, grouped
aggregation, and join probes read per-column share arrays by slot.  Rows
that leave the provider through ``select`` / ``scan`` / ``scan_asof``
leave as one column-major
:class:`~repro.sim.network.ShareRows` — one gather per column, no row
dict — and ``join`` answers with two of them, each side's distinct
matched rows in ascending row id, cut to its ``left_projection`` /
``right_projection`` when the request names one (the client pairs them
up); only the
one-row MIN/MAX/MEDIAN nomination is still a dict.
Cost accounting for aggregates records the **actual share reads** — one
``compare`` per column cell examined — so a request whose filter matched
nothing (or whose aggregate column the table does not store) charges
nothing beyond its index probes.

When the vectorized kernel backend is active, the hot read RPCs —
``select``/``scan`` matching, ordering, SUM/COUNT, MIN/MAX/MEDIAN
nomination, grouped partials — execute over the storage engine's numpy
mirrors.  A provider only *compares* order-preserving shares and *adds*
shares, so the mirrors hold no share in a machine word: a condition's
bounds become entry offsets into the column's sorted index through the
two big-int bisects the scalar engine runs, predicates are ``int64``
interval masks over each slot's index offset, ORDER BY and GROUP BY walk
the column's index entries in order (a LIMIT stops the walk; nothing is
sorted per request), and sums run per 32-bit limb plane — the
90–122-bit shares of searchable columns take the same path as 61-bit
residues.  A join probes the right join column's cached equality map.
The engine is chosen per request from what the request shows: a filtered
read whose conditions match fewer than 1/16 of the table's rows in the
index (point lookups, narrow ranges) stays on the bisect path and
builds or consults no mirror; anything wider, and every unfiltered scan,
sort, group or sum, runs on the mirrors.  Every vectorized path
**pre-validates** its whole request before recording any cost, then
records byte-identical ``compare`` counts (including multi-condition
early exit) and returns byte-identical payloads; the few things the
mirrors cannot take — a request the scalar engine would reject, a
negative or non-integer stored share in a summed column, row ids outside
``int64`` — fall back to the scalar engine, which stays the always-on
correctness oracle.  Writes make no engine choice: each write RPC —
``insert_many``, ``update_rows``, ``delete_rows``, ``increment_rows``
(which adds Δ to the touched cells first, for both request shapes) — is
one call of the :class:`~repro.providers.storage.ShareTable` mutator of
its kind, which checks what depends on the table (a row id missing,
taken or named twice, a column it lacks) before it changes anything, so
a refused write changes nothing.  Dispatch decisions are observable via
the ``provider.kernel.*`` telemetry counters, and each read's access
path as the ``access_path`` attribute of its ``rpc`` span.

The wire is declared once, in :data:`WIRE`: every RPC's fields, which
are optional, and the shape of each.  :meth:`ShareProvider.handle`
checks each request against it — a ``batch`` rider or a ``txn_apply`` op
too — before any handler runs, and refuses a mismatch with
:class:`~repro.errors.ProviderError` naming the RPC and the field; the
handlers take what the table declares unchecked.  A condition is one
closed share interval, the one shape the client's query rewriter
sends::

    {"column": str, "op": "range", "low": int, "high": int}

``low``/``high`` are *share-space* values computed by the rewriter.
"""

from __future__ import annotations

import heapq
import reprlib
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..core import kernels
from ..errors import (
    ProviderError,
    ProviderUnavailableError,
    QueryError,
    ReproError,
)
from ..sim.costmodel import CostRecorder
from ..sim.network import ShareRows
from .failures import Fault
from .storage import ShareRow, ShareStore, ShareTable

#: A filtered read takes the vector engine when the index entries its
#: conditions match number at least 1/16 of the table's rows (no
#: conditions = a full scan = always).  Below that the scalar engine's
#: bisect-and-slice touches only the matched entries, while the vector
#: engine pays O(rows) per mask and — after any write — an O(rows)
#: Python pass to rebuild each mirror it consults.  Measured crossover
#: in DESIGN.md §9.1.
_VECTOR_MATCH_RATIO = 16

#: The provider wire: each RPC's request forms, a form being ``{field:
#: shape}`` (shapes in :data:`_SHAPES`).  A shape ending in ``?`` marks an
#: optional field, which a request may leave out or send as None; a
#: request must match a form of its RPC exactly — no field missing,
#: undeclared or of another shape.  ``increment_rows`` has two forms: a
#: delta per row, or one delta for every listed row.
WIRE: Dict[str, Tuple[Dict[str, str], ...]] = {
    "create_table": ({"table": "name", "columns": "names", "searchable": "names"},),
    "drop_table": ({"table": "name"},),
    "insert_many": ({"table": "name", "rows": "rows", "epoch": "natural?"},),
    "update_rows": ({"table": "name", "updates": "share pairs", "epoch": "natural?"},),
    "delete_rows": ({"table": "name", "row_ids": "naturals", "epoch": "natural?"},),
    "merge_table": ({"table": "name", "into": "name", "epoch": "natural?"},),
    "increment_rows": tuple(
        {"table": "name", **form, "modulus": "positive?", "epoch": "natural?"}
        for form in ({"increments": "delta pairs"}, {"row_ids": "naturals", "deltas": "deltas"})
    ),
    "txn_apply": ({"txns": "txns"},),
    "batch": ({"requests": "calls"},),
    "select": ({"table": "name", "conditions": "conditions?", "order_by": "name?",
                "descending": "bool?", "limit": "natural?", "projection": "names?"},),
    "scan": ({"table": "name", "projection": "names?"},),
    "scan_asof": ({"table": "name", "epoch": "natural"},),
    "row_count": ({"table": "name"},),
    "aggregate": ({"table": "name", "func": "func", "column": "name?",
                   "conditions": "conditions?"},),
    "aggregate_group": ({"table": "name", "func": "func", "group_column": "name",
                         "column": "name?", "conditions": "conditions?"},),
    "join": ({"left": "name", "right": "name", "left_column": "name", "right_column": "name",
              "left_conditions": "conditions?", "right_conditions": "conditions?",
              "left_projection": "names?", "right_projection": "names?"},),
    "merkle_root": ({"table": "name"},),
    "merkle_proof": ({"table": "name", "row_id": "natural"},),
}

#: The RPCs a ``txn_apply`` op may name, and a ``batch`` rider.
TXN_OPS = frozenset({"insert_many", "update_rows", "delete_rows", "increment_rows"})
_RIDERS = frozenset(WIRE) - {"batch"}

#: Aggregates a provider can compute partially (Sec. V-A).
_AGGREGATE_FUNCS = frozenset({"sum", "count", "min", "max", "median"})

_SEQUENCES = frozenset({list, tuple})
_CONDITION_KEYS = frozenset({"column", "op", "low", "high"})


# The shape checks.  A list is checked with C-level passes (``map(type,
# …)``), never with a Python loop over its cells.

def _typed(*types):
    """A check that every item of a list is of one of ``types``."""
    allowed = frozenset(types)
    return lambda items: allowed.issuperset(map(type, items))


_strs, _ints, _dicts, _seqs = _typed(str), _typed(int), _typed(dict), _typed(list, tuple)
_share_cells = _typed(int, type(None))


def _naturals(value) -> bool:
    return type(value) in _SEQUENCES and _ints(value) and (not value or min(value) >= 0)


def _names(value) -> bool:
    return type(value) in _SEQUENCES and _strs(value) and len(set(value)) == len(value)


def _pairs(value, firsts, seconds) -> bool:
    """``[[a, b], ...]`` whose ``a``s pass ``firsts`` and ``b``s
    ``seconds``, each check taking the list of them."""
    return (
        type(value) in _SEQUENCES and _seqs(value) and {2}.issuperset(map(len, value))
        and firsts(list(map(itemgetter(0), value)))
        and seconds(list(map(itemgetter(1), value)))
    )


def _cells(cells):
    """A check that a list of dicts holds only what ``cells`` takes.  (A
    key that is not a column of the table is the table's to refuse.)"""
    return lambda dicts: _dicts(dicts) and cells(chain.from_iterable(map(dict.values, dicts)))


_shares, _deltas = _cells(_share_cells), _cells(_ints)


def _calls(value) -> bool:
    return _pairs(value, _strs, _dicts)


def _condition(value) -> bool:
    return (
        type(value) is dict and value.keys() == _CONDITION_KEYS and value["op"] == "range"
        and type(value["column"]) is str
        and type(value["low"]) is int and type(value["high"]) is int
    )


def _rows(value) -> bool:
    # a ragged column is left to ShareTable.insert_many, which refuses it
    # for every caller
    if type(value) is not ShareRows:
        return _pairs(value, _naturals, _shares)
    shares = value.shares
    return (
        _naturals(value.row_ids) and _names(value.columns)
        and type(shares) in _SEQUENCES and len(shares) == len(value.columns)
        and _seqs(shares) and _share_cells(chain.from_iterable(shares))
    )


#: shape -> (check, what a refusal says the field must be)
_SHAPES = {
    "name": (lambda v: type(v) is str, "a string"),
    "names": (_names, "a list of distinct strings"),
    "natural": (lambda v: type(v) is int and v >= 0, "an int >= 0"),
    "positive": (lambda v: type(v) is int and v > 0, "an int > 0"),
    "bool": (lambda v: type(v) is bool, "a bool"),
    "func": (
        lambda v: type(v) is str and v in _AGGREGATE_FUNCS,
        f"one of {', '.join(sorted(_AGGREGATE_FUNCS))}",
    ),
    "naturals": (_naturals, "a list of ints >= 0"),
    "deltas": (lambda v: type(v) is dict and _ints(v.values()), "a {column: int} dict"),
    "share pairs": (
        lambda v: _pairs(v, _naturals, _shares), "a list of [int >= 0, {column: int or None}]"
    ),
    "delta pairs": (lambda v: _pairs(v, _naturals, _deltas), "a list of [int >= 0, {column: int}]"),
    "rows": (_rows, "ShareRows or a list of [int >= 0, {column: int or None}]"),
    "conditions": (
        lambda v: type(v) in _SEQUENCES and all(map(_condition, v)),
        'a list of {"column": str, "op": "range", "low": int, "high": int}',
    ),
    "calls": (_calls, "a list of [method, {request}]"),
    "txns": (
        lambda v: _pairs(v, _naturals, lambda opss: all(map(_calls, opss)))
        and len(set(map(itemgetter(0), v))) == len(v),
        "a list of [int >= 0, [[method, {request}], ...]], no id twice",
    ),
}

#: :data:`WIRE` as the check runs it: per RPC, per form, the declared
#: field names and ``(field, check, optional, shape)`` per field.
_FORMS = {
    method: tuple(
        (frozenset(form), tuple(
            (field, _SHAPES[shape.rstrip("?")][0], shape.endswith("?"), shape.rstrip("?"))
            for field, shape in form.items()
        ))
        for form in forms
    )
    for method, forms in WIRE.items()
}


def wire_problem(method: str, request) -> Optional[str]:
    """What keeps ``request`` from matching a form of ``method`` in
    :data:`WIRE` (``method`` must be one of its RPCs), or None."""
    if type(request) is not dict:
        return f"{method} request is not a dict"
    forms = _FORMS[method]
    for names, fields in forms:  # the first form declaring every field sent
        if names.issuperset(request):
            break
    else:  # the stray field, by the form sharing the most fields with the request
        names = max(forms, key=lambda form: len(form[0].intersection(request)))[0]
        field = next(field for field in request if field not in names)
        return f"{method} request carries undeclared field {field!r}"
    for field, check, optional, shape in fields:
        value = request.get(field)
        if value is None:
            if optional:
                continue
            return f"{method} request lacks field {field!r}"
        if not check(value):
            # a list names its first item refused on its own, if any
            listed = type(value) in _SEQUENCES and check(value[:0])
            bad = [item for item in value if not check([item])][:1] if listed else []
            shown = f"holding {reprlib.repr(bad[0])}" if bad else f"not {reprlib.repr(value)}"
            return f"{method} field {field!r} must be {_SHAPES[shape][1]}, {shown}"
    return None


class _EntryWalk:
    """One index's matched entries in entry order, ``(share, row id)``
    ascending: the entry range ``[lo, hi)`` itself, or the ascending entry
    ``offsets`` a slot ``mask`` left of the index.

    ``matched`` counts the rows the conditions matched, including rows
    whose walked column is NULL and so has no entry.
    """

    __slots__ = ("matched", "lo", "hi", "offsets", "mask")

    def __init__(self, matched: int, lo: int = 0, hi: int = 0,
                 offsets=None, mask=None) -> None:
        self.matched = matched
        self.lo, self.hi = lo, hi
        self.offsets = offsets
        self.mask = mask

    def __len__(self) -> int:
        if self.offsets is None:
            return max(0, self.hi - self.lo)
        return int(self.offsets.shape[0])

    def take(self, array, start: int = 0, stop: Optional[int] = None):
        """``array`` (indexed by entry offset) at walk positions
        ``[start, stop)`` — a view when the walk is a range."""
        if stop is None:
            stop = len(self)
        if self.offsets is None:
            return array[self.lo + start:self.lo + stop]
        return array[self.offsets[start:stop]]

    def position(self, np, offset: int) -> int:
        """Walk position of the first matched entry at or after ``offset``."""
        if self.offsets is None:
            return max(0, offset - self.lo)
        return int(np.searchsorted(self.offsets, offset))


def _smallest(items: List, count: Optional[int], key=None) -> List:
    """``sorted(items, key=key)[:count]`` — all of it when ``count`` is
    None; the same list, ties included, from a heap of ``count``."""
    if count is None:
        return sorted(items, key=key)
    return heapq.nsmallest(count, items, key=key)


def _runs_last_first(np, keys):
    """Positions of the nondecreasing ``keys`` in descending key order,
    each run of equal keys kept in ascending position order — a
    permutation built in O(len) without a sort."""
    m = keys.shape[0]
    starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(keys[1:] != keys[:-1]) + 1)
    )
    lengths = np.diff(np.append(starts, m))
    starts, lengths = starts[::-1], lengths[::-1]
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(m)


class ShareProvider:
    """A single DAS provider over an in-memory share store."""

    def __init__(self, name: str, cost: Optional[CostRecorder] = None) -> None:
        self.name = name
        self.store = ShareStore()
        self.cost = cost or CostRecorder(name)
        self.fault: Optional[Fault] = None
        self.requests_served = 0
        self._merkle_cache: Dict[str, Tuple[int, object]] = {}

    # -- fault management ------------------------------------------------------

    def inject_fault(self, fault: Fault) -> None:
        # binding derives the fault's RNG stream from this provider's name,
        # so identically-configured faults misbehave independently
        self.fault = fault.bind(self.name)

    def clear_fault(self) -> None:
        self.fault = None

    def _check_available(self) -> None:
        fault = self.fault
        if fault is None:
            return
        if fault.on_request():
            if fault.is_crash:
                telemetry.count("faults.crash_refusals", provider=self.name)
            else:
                telemetry.count("faults.flaky_refusals", provider=self.name)
            raise ProviderUnavailableError(f"provider {self.name} is down")

    # -- RPC dispatch -------------------------------------------------------------

    @telemetry.spanned("provider.handle")
    def handle(self, method: str, request: Dict) -> Dict:
        """Execute one RPC; payloads in and out are wire-primitive dicts.

        The request is checked against :data:`WIRE` first, so a handler
        only ever sees the shapes the table declares.  Telemetry
        counters recorded here run on the cluster's fan-out pool
        threads; they are commutative increments, so totals stay
        deterministic per seed regardless of pool scheduling.
        """
        self._check_available()
        handler = self._handler(method, request)
        self.requests_served += 1
        telemetry.count("provider.requests", provider=self.name, method=method)
        return handler(request)

    def _handler(self, method: str, request: Dict, methods=WIRE):
        """The handler of a request naming one of ``methods`` in the form
        :data:`WIRE` declares for it, else :class:`ProviderError` — the one
        checked path to a handler: ``handle``'s, a ``batch`` rider's
        (:data:`_RIDERS`) and a ``txn_apply`` op's (:data:`TXN_OPS`)."""
        if type(method) is not str or method not in methods:
            raise ProviderError(f"provider {self.name}: unknown method {method!r}")
        problem = wire_problem(method, request)
        if problem is not None:
            raise ProviderError(f"provider {self.name}: {problem}")
        return getattr(self, f"_rpc_{method}")

    # -- batched execution --------------------------------------------------------

    def _rpc_batch(self, request: Dict) -> Dict:
        """Execute several sub-requests in one accounted round trip.

        A :class:`~repro.service.scheduler.FanoutBatcher` installed on
        the cluster coalesces concurrently admitted threshold reads and
        ships their per-provider requests as one ``batch`` RPC, so N
        concurrent point queries cost ~1 round trip per provider instead
        of N.  Sub-responses align positionally with sub-requests; a
        sub-request failure — a malformed or unknown rider included — is
        captured per entry (``["err", type, msg]``) rather than aborting
        the whole batch, and the batcher re-raises it for that
        sub-request's query alone once the round is drained — the
        cluster's drain-then-raise wave semantics, per rider.
        """
        responses: List[List] = []
        for method, sub_request in request["requests"]:
            try:
                handler = self._handler(method, sub_request, _RIDERS)
                telemetry.count(
                    "provider.batched_requests", provider=self.name, method=method
                )
                responses.append(["ok", handler(sub_request)])
            except ReproError as exc:
                responses.append(["err", type(exc).__name__, str(exc)])
        return {"responses": responses}

    # -- DDL / writes -----------------------------------------------------------

    def _rpc_create_table(self, request: Dict) -> Dict:
        self.store.create_table(
            request["table"], list(request["columns"]), request["searchable"]
        )
        return {"ok": True}

    def _rpc_drop_table(self, request: Dict) -> Dict:
        """Drop a table; a table this provider never held is not an error
        (the client cannot know which providers missed its creation)."""
        if not self.store.has_table(request["table"]):
            return {"dropped": False}
        self.store.drop_table(request["table"])
        return {"ok": True}

    def _rpc_insert_many(self, request: Dict) -> Dict:
        """``{"rows": ShareRows}`` as the client sends it, or the row-major
        list it stands for as WAL replay, snapshots and repair carry it."""
        table = self.store.table(request["table"])
        rows = request["rows"]
        if type(rows) is not ShareRows:
            rows = ShareRows.from_pairs(rows)
        return {"inserted": table.insert_many(rows, epoch=request.get("epoch"))}

    def _rpc_update_rows(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        return {"updated": table.update_rows(request["updates"], epoch=request.get("epoch"))}

    def _rpc_delete_rows(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        return {"deleted": table.delete_rows(request["row_ids"], epoch=request.get("epoch"))}

    def _rpc_merge_table(self, request: Dict) -> Dict:
        """Move every row of a staging table into a live table, then drop it.

        The cutover half of an online shard migration: rebuilt share rows
        are uploaded to a staging table while queries keep running, and
        this provider-local move makes them visible in one step — no row
        payload crosses the network during the blocking window.  A
        provider that never received the staging table (it was down
        during the upload) reports zero rows merged; it is stale, exactly
        as it would be after missing any other write.
        """
        if not self.store.has_table(request["table"]):
            return {"merged": 0}
        staging = self.store.table(request["table"])
        target = self.store.table(request["into"])
        row_ids = staging.all_row_ids()
        merged = target.insert_many(
            staging.gather(row_ids, staging.slots_for(row_ids)),
            epoch=request.get("epoch"),
        )
        self.store.drop_table(request["table"])
        return {"merged": merged}

    def _rpc_increment_rows(self, request: Dict) -> Dict:
        """Add delta shares in place (Sec. V-C incremental updates).

        Only valid for randomly-shared (non-searchable) columns: their
        shares are plain field points, and share addition is value
        addition by linearity.  Order-preserving shares are deterministic
        per value, so in-place addition would corrupt them — rejected.
        NULL values stay NULL (SQL: NULL + x = NULL), a column the table
        lacks is skipped, and a row left with nothing to assign is not
        counted.

        Two request forms, one pass:

        * ``{"increments": [[row_id, {col: share}], ...]}`` — a distinct
          delta share per row (share refresh, which *must* land every row
          on its own fresh polynomial);
        * ``{"row_ids": [...], "deltas": {col: share}}`` — one delta
          share applied to every listed row (arithmetic UPDATE: the
          statement's single plaintext delta is shared once, so the wire
          cost is O(rows) small ints instead of O(rows) field elements).

        The whole request is checked before anything changes: every row
        id must be present and named once (:class:`ProviderError`, from
        :meth:`ShareTable.write_slots`, once per request), and no entry
        may name an order-preserving column (:class:`QueryError`).  Each
        touched cell is then read by slot and Δ added — reduced mod
        ``modulus`` when the request names one — and the rows are written
        once through :meth:`ShareTable.update_rows`, handed the slots
        already resolved: one ``update`` undo record per touched row, in
        request order.
        """
        table = self.store.table(request["table"])
        if "increments" in request:
            entries = request["increments"]
            row_ids = list(map(itemgetter(0), entries))
        else:
            row_ids = request["row_ids"]
            entries = zip(row_ids, repeat(request["deltas"]))
        slots = table.write_slots(row_ids)
        # the share-field modulus is a public parameter; reducing keeps
        # share magnitudes bounded across repeated increments/refreshes
        modulus = request.get("modulus")
        searchable = table.searchable
        arrays = {c: table.column_array(c) for c in table.columns if c not in searchable}
        updates, written = [], []
        for (row_id, deltas), slot in zip(entries, slots):
            assignments: ShareRow = {}
            for column, delta_share in deltas.items():
                array = arrays.get(column)
                if array is None:
                    if column in searchable:
                        raise QueryError(
                            f"column {column!r} is order-preserving; incremental "
                            "share addition is only sound for randomly-shared "
                            "columns"
                        )
                    continue
                current = array[slot]
                if current is None:
                    continue
                updated = current + delta_share
                if modulus is not None:
                    updated %= modulus
                assignments[column] = updated
            if assignments:
                updates.append([row_id, assignments])
                written.append(slot)
        return {
            "incremented": table.update_rows(
                updates, epoch=request.get("epoch"), slots=written
            )
        }

    # -- transactional apply (ISSUE-8) -------------------------------------------

    def _rpc_txn_apply(self, request: Dict) -> Dict:
        """Apply logged transactions in WAL log order, all or nothing.

        ``{"txns": [[txn_id, ops], ...]}`` (distinct ids) where each op is
        ``[method, payload]`` naming one of :data:`TXN_OPS`.  Every op of
        every transaction not yet applied goes through the checked path to
        its handler, and must name a table held here, before anything
        mutates; if an op then raises, the ops before it are undone
        (:meth:`ShareTable.revert`), so a refused request changes nothing
        here but ``version``, which only rises.  A transaction this
        provider already applied is skipped — the client is replaying its
        WAL and the exactly-once guard must hold (increments are not
        idempotent); the ids enter ``applied_txns`` once all has applied.
        """
        applied = self.store.applied_txns
        skipped = [txn_id for txn_id, _ in request["txns"] if txn_id in applied]
        fresh = [
            (txn_id, [
                (self._handler(method, payload, TXN_OPS), payload)
                for method, payload in ops
            ])
            for txn_id, ops in request["txns"]
            if txn_id not in applied
        ]
        for txn_id, ops in fresh:
            for _, payload in ops:
                if not self.store.has_table(payload["table"]):
                    raise ProviderError(
                        f"provider {self.name}: transaction {txn_id} targets "
                        f"unknown table {payload['table']!r}"
                    )
        marks: Dict[ShareTable, Tuple] = {}  # per touched table, as it stood
        try:
            for _, ops in fresh:
                for handler, payload in ops:
                    table = self.store.table(payload["table"])
                    if table not in marks:
                        marks[table] = table.mark()
                    handler(payload)
        except BaseException:
            for table, mark in marks.items():
                table.revert(mark)
            raise
        for table, mark in marks.items():
            table.release(mark)
        committed = [txn_id for txn_id, _ in fresh]
        applied.update(committed)
        for _ in committed:
            telemetry.count("txn.provider_commits", provider=self.name)
        return {"committed": committed, "skipped": skipped}

    # -- reads ----------------------------------------------------------------------

    def _rpc_select(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        rows = self._select_vector(table, request)
        self._note_dispatch("select", rows is not None)
        self._note_access_path(
            request.get("conditions"), rows is not None,
            walked=request.get("order_by") is not None,
        )
        if rows is None:
            rows = self._select_scalar(table, request)
        return self._rows_response(rows=rows)

    def _select_scalar(self, table: ShareTable, request: Dict) -> ShareRows:
        """The scalar select engine — the always-on correctness oracle."""
        row_ids = self._matching_row_ids(table, request.get("conditions") or [])
        order_by = request.get("order_by")
        limit = request.get("limit")
        if order_by is not None:
            # order by share value (= plaintext order for OP columns).
            # Tie semantics must match a *stable* sort over row-id order —
            # what every engine (oracle, client re-sort) produces — so ties
            # keep ascending row ids in BOTH directions, and NULLs sit
            # first ascending / last descending.
            table.index_for(order_by)  # require searchable
            column = table.column_array(order_by)
            slots = table.slots_for(row_ids)
            null_ids = [
                rid for rid, slot in zip(row_ids, slots) if column[slot] is None
            ]
            keyed = [
                (column[slot], rid)
                for rid, slot in zip(row_ids, slots)
                if column[slot] is not None
            ]
            self.cost.record(
                "compare", len(keyed) * max(1, len(keyed).bit_length())
            )
            # a LIMIT needs only that many of the keyed rows in order: a
            # heap keeps them, where sorting every match would order all
            if request.get("descending"):
                keyed = _smallest(keyed, limit, key=lambda pair: (-pair[0], pair[1]))
                row_ids = [rid for _, rid in keyed] + null_ids
            else:
                wanted = None if limit is None else max(0, limit - len(null_ids))
                row_ids = null_ids + [rid for _, rid in _smallest(keyed, wanted)]
        if limit is not None:
            row_ids = row_ids[:limit]
        return self._project_many(table, row_ids, request.get("projection"))

    def _rpc_scan(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        rows = self._scan_vector(table, request)
        self._note_dispatch("scan", rows is not None)
        self._note_access_path(None, rows is not None)
        if rows is None:
            rows = self._project_many(
                table, table.all_row_ids(), request.get("projection")
            )
        return self._rows_response(rows=rows)

    def _rpc_scan_asof(self, request: Dict) -> Dict:
        """Full share-row scan as of a past client mutation epoch.

        Served from the epoch-tagged undo history — no index support, so
        the client reconstructs and filters the historical rows itself
        (time travel trades bandwidth for reading the past at all).
        """
        table = self.store.table(request["table"])
        self._note_access_path(None, False)
        historical = table.rows_asof(request["epoch"])
        self.cost.record("compare", len(table.history))
        row_ids = sorted(historical)
        return self._rows_response(
            rows=ShareRows(
                row_ids,
                tuple(table.columns),
                [
                    [historical[rid][column] for rid in row_ids]
                    for column in table.columns
                ],
            )
        )

    def _rpc_row_count(self, request: Dict) -> Dict:
        return {"count": len(self.store.table(request["table"]))}

    def _compute_scalar_aggregate(
        self, table, func: str, column, conditions
    ) -> Dict:
        """The clean (fault-free) COUNT/SUM partial for one predicate."""
        if func == "count":
            if column is None:
                return {
                    "count": len(
                        self._matching_row_ids_unordered(table, conditions)
                    )
                }
            values = self._filtered_column_values(table, conditions, column)
            self.cost.record("compare", len(values))
            return {"count": len(values) - values.count(None)}
        values = self._filtered_column_values(table, conditions, column)
        self.cost.record("compare", len(values))
        present = [share for share in values if share is not None]
        return {"partial_sum": sum(present), "count": len(present)}

    def _rpc_aggregate(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        func = request["func"]
        conditions = request.get("conditions") or []
        column = request.get("column")
        # SUM/COUNT partials are materialized per (func, column, predicate)
        # on the table, keyed by its mutation version: Shamir linearity
        # makes a cached partial sum of shares exactly the share of the
        # sum while the rows stand still, and the version key retires it
        # the moment they do not.  Faults are applied to a fresh copy per
        # request — the cache only ever holds *clean* payloads.
        if func in ("count", "sum") and (func != "sum" or column is not None):
            cache_key = ("aggregate", func, column, repr(conditions))
            payload = table.cached_aggregate(cache_key)
            if payload is None:
                telemetry.count(
                    "provider.aggcache.misses", provider=self.name, method=func
                )
                payload = self._aggregate_vector(table, func, column, conditions)
                self._note_dispatch("aggregate", payload is not None)
                self._note_access_path(conditions, payload is not None)
                if payload is None:
                    payload = self._compute_scalar_aggregate(
                        table, func, column, conditions
                    )
                table.store_aggregate(cache_key, dict(payload))
            else:
                telemetry.count(
                    "provider.aggcache.hits", provider=self.name, method=func
                )
            payload = dict(payload)
            if func == "sum" and self.fault is not None:
                corrupted = self.fault.maybe_corrupt_share(payload["partial_sum"])
                if corrupted is not None:
                    payload["partial_sum"] = corrupted
            return payload
        if column is None:
            raise QueryError(f"aggregate {func} requires a column")
        # min / max / median: pick the extreme/middle row by share order of
        # the aggregate column (valid because OP shares preserve value
        # order).  Uncached: the payload embeds a projected row, and
        # result-fault filtering applies to it — not worth the copy
        # discipline for a nomination that is already O(1) per request.
        payload = self._aggregate_order_vector(table, func, column, conditions)
        self._note_dispatch("aggregate", payload is not None)
        self._note_access_path(conditions, payload is not None)
        if payload is not None:
            return payload
        row_ids = self._matching_row_ids_unordered(table, conditions)
        ordered = self._order_by_share(table, row_ids, column)
        if not ordered:
            return {"row": None, "count": 0}
        if func == "min":
            chosen = ordered[0]
        elif func == "max":
            chosen = ordered[-1]
        else:  # median (lower-median convention, matches the executor)
            chosen = ordered[(len(ordered) - 1) // 2]
        row = (chosen, table.get(chosen))
        row = self._apply_result_faults([row])
        return {"row": row[0] if row else None, "count": len(ordered)}

    def _rpc_aggregate_group(self, request: Dict) -> Dict:
        """Grouped partial aggregation (extension of Sec. V-A).

        Groups matching rows by the deterministic share of the group
        column and returns one partial result per group, ordered by group
        share ascending — which is plaintext group order, so honest
        providers return positionally aligned group lists and the client
        can combine partials without knowing the group values up front.
        """
        table = self.store.table(request["table"])
        group_column = request["group_column"]
        if group_column not in table.searchable:
            raise QueryError(
                f"GROUP BY {group_column!r} requires an order-preserving "
                "(searchable) column at the provider"
            )
        func = request["func"]
        column = request.get("column")
        conditions = request.get("conditions") or []
        # hot SUM/COUNT groups are materialized whole (the per-group
        # partial list), version-keyed like the scalar path; order-based
        # funcs embed projected rows and stay uncached
        cacheable = func in ("count", "sum")
        cache_key = (
            "aggregate_group", func, column, group_column, repr(conditions),
        )
        if cacheable:
            cached = table.cached_aggregate(cache_key)
            if cached is not None:
                telemetry.count(
                    "provider.aggcache.hits", provider=self.name, method=func
                )
                return self._finish_group_payloads(
                    [[share, dict(payload)] for share, payload in cached]
                )
            telemetry.count(
                "provider.aggcache.misses", provider=self.name, method=func
            )
        out = self._aggregate_group_vector(
            table, func, column, group_column, conditions
        )
        self._note_dispatch("aggregate_group", out is not None)
        self._note_access_path(conditions, out is not None, walked=True)
        if out is not None:
            if cacheable:
                table.store_aggregate(
                    cache_key,
                    [[share, dict(payload)] for share, payload in out],
                )
            return self._finish_group_payloads(out)
        row_ids = self._matching_row_ids_unordered(table, conditions)
        group_array = table.column_array(group_column)
        groups: Dict[int, List[int]] = {}
        for rid, slot in zip(row_ids, table.slots_for(row_ids)):
            share = group_array[slot]
            if share is None:
                continue
            groups.setdefault(share, []).append(rid)
        self.cost.record("compare", len(row_ids))
        agg_array = (
            table.column_array(column)
            if column is not None and table.has_column(column)
            else None
        )
        agg_reads = 0
        out = []
        for group_share in sorted(groups):
            members = groups[group_share]
            if func == "count":
                if column is None:
                    payload = {"count": len(members)}
                elif agg_array is None:
                    payload = {"count": 0}
                else:
                    agg_reads += len(members)
                    payload = {
                        "count": sum(
                            1
                            for slot in table.slots_for(members)
                            if agg_array[slot] is not None
                        )
                    }
            elif func == "sum":
                total = 0
                count = 0
                if agg_array is not None:
                    agg_reads += len(members)
                    for slot in table.slots_for(members):
                        share = agg_array[slot]
                        if share is not None:
                            total += share
                            count += 1
                payload = {"partial_sum": total, "count": count}
            else:  # min / max / median by share order of the agg column
                ordered = self._order_by_share(table, members, column)
                if not ordered:
                    payload = {"row": None, "count": 0}
                else:
                    if func == "min":
                        chosen = ordered[0]
                    elif func == "max":
                        chosen = ordered[-1]
                    else:
                        chosen = ordered[(len(ordered) - 1) // 2]
                    payload = {
                        "row": [chosen, table.get(chosen)],
                        "count": len(ordered),
                    }
            out.append([group_share, payload])
        if agg_reads:
            # per-group aggregate-column reads (previously unaccounted)
            self.cost.record("compare", agg_reads)
        if cacheable:
            table.store_aggregate(
                cache_key, [[share, dict(payload)] for share, payload in out]
            )
        return self._finish_group_payloads(out)

    def _finish_group_payloads(self, out: List) -> Dict:
        """Apply result faults to (clean) group partials and wrap them."""
        if self.fault is not None:
            out = self.fault.filter_rows(out)
            corrupted = []
            for group_share, payload in out:
                share = self.fault.maybe_corrupt_share(group_share)
                if "partial_sum" in payload:
                    payload = dict(payload)
                    payload["partial_sum"] = self.fault.maybe_corrupt_share(
                        payload["partial_sum"]
                    )
                corrupted.append([share, payload])
            out = corrupted
        return {"groups": out}

    def _rpc_join(self, request: Dict) -> Dict:
        left = self.store.table(request["left"])
        right = self.store.table(request["right"])
        left_column = request["left_column"]
        right_column = request["right_column"]
        if left_column not in left.searchable or right_column not in right.searchable:
            raise QueryError(
                "provider-side join requires searchable (order-preserving) "
                "join columns; randomly-shared columns cannot be matched"
            )
        left_ids = self._matching_row_ids(left, request.get("left_conditions") or [])
        right_conditions = request.get("right_conditions") or []
        kept: Optional[Set[int]] = None
        if right_conditions:
            kept = set(self._matching_row_ids_unordered(right, right_conditions))
        # hash join on deterministic share equality (Sec. V-A): probe the
        # right join column's equality map, which its index keeps across
        # requests; the recorded cost stays the logical build + probe.
        # Each side answers with its distinct matched rows and the client
        # pairs them up
        self.cost.record(
            "compare", (len(right) if kept is None else len(kept)) + len(left_ids)
        )
        telemetry.annotate_enclosing("rpc", access_path="join-map")
        partners_of = right.indexes[right_column].equality_map()
        matched_left: List[int] = []
        matched_right: Set[int] = set()
        probes = left.values_for_rows(left_column, left_ids)
        # a NULL is never a key
        for lid, partners in zip(left_ids, map(partners_of.get, probes)):
            if partners and kept is not None:
                partners = [rid for rid in partners if rid in kept]
            if partners:
                matched_left.append(lid)
                matched_right.update(partners)
        return self._rows_response(
            left=self._project_many(left, matched_left, request.get("left_projection")),
            right=self._project_many(
                right, sorted(matched_right), request.get("right_projection")
            ),
        )

    # -- trust-layer RPCs ----------------------------------------------------------------

    def _merkle_tree(self, table: ShareTable):
        """The canonical Merkle tree over current storage (version-cached).

        An honest provider's tree matches the client auditor's; a provider
        that silently modified stored shares produces a different root.
        """
        from ..trust.merkle import tree_for_rows

        cached = self._merkle_cache.get(table.name)
        if cached is not None and cached[0] == table.version:
            return cached[1]
        tree = tree_for_rows(table.name, table.rows)
        self.cost.record("hash", max(1, 2 * len(table)))
        self._merkle_cache[table.name] = (table.version, tree)
        return tree

    def _rpc_merkle_root(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        root = self._merkle_tree(table).root
        if self.fault is not None and self.fault.mode.value == "tamper":
            # a tampering provider's storage diverges from the client's
            # record; model it by perturbing the root it reports
            root = bytes(b ^ 0x5A for b in root)
        return {"root": root}

    def _rpc_merkle_proof(self, request: Dict) -> Dict:
        table = self.store.table(request["table"])
        row_id = request["row_id"]
        # version-cached position map: O(1) per proof instead of an O(n)
        # list scan per call
        index = table.row_position(row_id)
        tree = self._merkle_tree(table)
        values = table.get(row_id)
        if self.fault is not None:
            values = self.fault.corrupt_row(values)
        return {
            "row": [row_id, values],
            "proof": [[side, sibling] for side, sibling in tree.proof(index)],
        }

    # -- vectorized execution (numpy backend) -------------------------------------------
    #
    # Every ``_*_vector`` method returns None to decline a request, and
    # declines *before* recording any cost or touching any state — the
    # scalar engine then replays the request from scratch, so results,
    # errors, and accounting are identical whichever engine answers.

    def _note_dispatch(self, method: str, vectorized: bool) -> None:
        """Count one vector-eligible RPC's engine choice (telemetry)."""
        backend = kernels.active_backend()
        telemetry.count(
            "provider.kernel.backend", provider=self.name, backend=backend
        )
        telemetry.count(
            "provider.kernel.dispatch",
            provider=self.name,
            method=method,
            backend="numpy" if vectorized else "scalar",
        )

    @staticmethod
    def _note_access_path(
        conditions: Optional[List[Dict]], vectorized: bool, walked: bool = False
    ) -> None:
        """Annotate the open ``rpc`` span with how this read found its
        rows (one ``is None`` check while telemetry is off).

        ``entry-walk``: the vector engine walked an index's entries in
        order (ORDER BY, GROUP BY); ``mask``: it filtered the slot arrays
        (a full scan is the all-rows pass); ``index-probe``: the scalar
        engine bisected the conditions' indexes; ``scalar``: the scalar
        engine with nothing to probe.  Joins note ``join-map``; an
        aggregate served from the materialized cache reads no storage and
        notes nothing.
        """
        if not telemetry.is_enabled():
            return
        if vectorized:
            path = "entry-walk" if walked else "mask"
        else:
            path = "index-probe" if conditions else "scalar"
        telemetry.annotate_enclosing("rpc", access_path=path)

    def _vector_condition_plan(self, table: ShareTable, conditions: List[Dict]):
        """Per-condition ``(index, slot positions, start, stop)``, or None.

        Each condition's bounds become entry offsets into its index with
        the two bisects the scalar path runs, so shares of any width
        compare exactly.  Declines on a non-searchable column, so the
        scalar engine raises the canonical error itself — and on a
        *narrow* probe (see :data:`_VECTOR_MATCH_RATIO`), before any
        mirror is consulted.
        """
        probes = []
        matched = 0
        for condition in conditions:
            column = condition["column"]
            index = table.indexes.get(column)
            if index is None:
                return None
            start, stop = index.entry_range(condition["low"], condition["high"])
            matched += max(0, stop - start)
            probes.append((index, column, start, stop))
        if conditions and _VECTOR_MATCH_RATIO * matched < len(table):
            return None
        plan = []
        for index, column, start, stop in probes:
            positions = table.index_positions(column)
            if positions is None:
                return None
            plan.append((index, positions, start, stop))
        return plan

    def _vector_match_mask(self, plan):
        """Combined boolean match mask over the table's slots.

        Cost recording mirrors the scalar path exactly: one range probe
        per condition, stopping at the first empty intersection.  A slot
        matches a condition when its index offset lies inside the
        condition's entry range — NULL cells sit at offset -1 and never
        match, exactly like the index the scalar engine probes.
        """
        mask = None
        for index, positions, start, stop in plan:
            self.cost.record("compare", index.comparisons_for_range())
            cond = (positions >= start) & (positions < stop)
            mask = cond if mask is None else mask & cond
            if not mask.any():
                return mask
        return mask

    def _masked_rid_slots(self, table: ShareTable, mask):
        """Matched ``(row_ids, slots)`` in ascending-row-id order."""
        sorted_rids, sorted_slots = table.ordered_rid_slots()
        keep = mask[sorted_slots]
        return sorted_rids[keep], sorted_slots[keep]

    def _select_vector(self, table: ShareTable, request: Dict):
        """Vectorized select: offset-interval masks; ORDER BY walks the
        order column's index entries and stops at LIMIT."""
        np = kernels.numpy_module()
        if np is None:
            return None
        conditions = request.get("conditions") or []
        order_by = request.get("order_by")
        if order_by is not None and order_by not in table.indexes:
            return None  # scalar raises via index_for
        limit = request.get("limit")
        projection = request.get("projection")
        if projection is not None and set(projection) - set(table.columns):
            return None  # scalar validates (or returns [] on empty match)
        plan = self._vector_condition_plan(table, conditions)
        if plan is None or table.ordered_rid_slots() is None:
            return None
        if order_by is not None:
            entry_slots = table.entry_slots(order_by)
            if entry_slots is None:
                return None
            rids, slots = self._ordered_rid_slots(
                np, table, request, plan, entry_slots
            )
        else:
            if not conditions:
                rids, slots = table.ordered_rid_slots()
            else:
                rids, slots = self._masked_rid_slots(
                    table, self._vector_match_mask(plan)
                )
            rids, slots = rids[:limit], slots[:limit]
        return table.gather(rids.tolist(), slots.tolist(), projection)

    def _ordered_rid_slots(self, np, table, request, plan, entry_slots):
        """The ORDER BY's ``(row ids, slots)``, cut at the LIMIT.

        The scalar engine sorts the matched rows by ``(share, row id)``
        ascending, or by ``(-share, row id)`` descending, with NULLs first
        ascending and last descending.  The walk over the order column's
        index entries is already the ascending order; descending, it is
        read backwards with each run of equal shares put back in row-id
        order — and under a LIMIT only the tail from the start of the
        run the cut falls in is read.  Costs (the probes, then the
        logical sort) are recorded as the scalar engine records them.
        """
        index = table.indexes[request["order_by"]]
        entry_rids, ranks = index.vector_entries()
        walk = self._entry_walk(np, table, index, entry_slots, plan)
        m = len(walk)
        self.cost.record("compare", m * max(1, m.bit_length()))
        limit = request.get("limit")
        nulls = walk.matched - m
        descending = request.get("descending")
        if limit is None:
            take = m
        elif descending:
            take = min(m, limit)
            nulls = min(nulls, limit - take)
        else:
            nulls = min(nulls, limit)
            take = min(m, limit - nulls)
        if not descending:
            rids = walk.take(entry_rids, 0, take)
            slots = walk.take(entry_slots, 0, take)
        elif take:
            cut = m - take
            run_start = np.searchsorted(ranks, walk.take(ranks, cut, cut + 1)[0])
            tail = walk.position(np, int(run_start))
            order = _runs_last_first(np, walk.take(ranks, tail))[:take]
            rids = walk.take(entry_rids, tail)[order]
            slots = walk.take(entry_slots, tail)[order]
        else:
            rids = slots = entry_slots[:0]
        if nulls > 0:
            null_rids, null_slots = self._null_order_rows(table, walk, index)
            null_rids, null_slots = null_rids[:nulls], null_slots[:nulls]
            if descending:
                rids = np.concatenate((rids, null_rids))
                slots = np.concatenate((slots, null_slots))
            else:
                rids = np.concatenate((null_rids, rids))
                slots = np.concatenate((null_slots, slots))
        return rids, slots

    def _null_order_rows(self, table: ShareTable, walk, index):
        """Matched rows whose walked column is NULL, ascending row id."""
        sorted_rids, sorted_slots = table.ordered_rid_slots()
        keep = table.index_positions(index.column)[sorted_slots] < 0
        if walk.mask is not None:
            keep &= walk.mask[sorted_slots]
        return sorted_rids[keep], sorted_slots[keep]

    def _entry_walk(self, np, table: ShareTable, index, entry_slots, plan):
        """``index``'s matched entries in entry order, as an
        :class:`_EntryWalk`; records the probes as
        :meth:`_vector_match_mask` does.

        With no condition, or one condition on the walked column itself,
        the walk is that condition's entry range and no mask is built;
        otherwise it is ``flatnonzero(mask[entry_slots])``.
        """
        if not plan:
            return _EntryWalk(len(table), 0, len(index))
        if len(plan) == 1 and plan[0][0] is index:
            _, _, start, stop = plan[0]
            self.cost.record("compare", index.comparisons_for_range())
            return _EntryWalk(max(0, stop - start), start, stop)
        mask = self._vector_match_mask(plan)
        return _EntryWalk(
            int(np.count_nonzero(mask)),
            offsets=np.flatnonzero(mask[entry_slots]),
            mask=mask,
        )

    def _scan_vector(self, table: ShareTable, request: Dict):
        """Vectorized full scan (the migration `scan_share_rows` path)."""
        np = kernels.numpy_module()
        if np is None:
            return None
        projection = request.get("projection")
        if projection is not None and set(projection) - set(table.columns):
            return None
        pair = table.ordered_rid_slots()
        if pair is None:
            return None
        rids, slots = pair
        return table.gather(rids.tolist(), slots.tolist(), projection)

    def _aggregate_vector(
        self, table: ShareTable, func: str, column, conditions: List[Dict]
    ) -> Optional[Dict]:
        """Vectorized COUNT/SUM partial (the cacheable aggregate shapes).

        Replays the scalar access-path accounting number for number: one
        range probe per condition (early exit included) plus one
        ``compare`` per share read — the wide-scan and index-probe scalar
        paths read the same multiset, so one mask-based evaluation covers
        both.
        """
        np = kernels.numpy_module()
        if np is None:
            return None
        plan = self._vector_condition_plan(table, conditions)
        if plan is None:
            return None
        counting_rows = func == "count" and column is None
        vector = None
        if not counting_rows and table.has_column(column):
            vector = table.column_vector(column)
            if vector is None:
                return None
        # -- the filtered share multiset (costs recorded from here on)
        mask = self._vector_match_mask(plan) if conditions else None
        matched = len(table) if mask is None else int(np.count_nonzero(mask))
        if counting_rows:
            return {"count": matched}
        if vector is None:
            # the aggregate column is absent here: zero reads, zero partials
            self.cost.record("compare", 0)
            if func == "count":
                return {"count": 0}
            return {"partial_sum": 0, "count": 0}
        self.cost.record("compare", matched)
        limbs, nulls = vector
        if nulls is not None:
            matched -= int(np.count_nonzero(nulls if mask is None else nulls & mask))
        if func == "count":
            return {"count": matched}
        # NULL cells read 0 under the mask, so the limb-plane sum equals
        # the scalar sum over the non-null shares bit-for-bit
        return {
            "partial_sum": kernels.exact_sum_limbs(limbs, mask),
            "count": matched,
        }

    def _aggregate_order_vector(
        self, table: ShareTable, func: str, column: str, conditions: List[Dict]
    ) -> Optional[Dict]:
        """Vectorized MIN/MAX/MEDIAN nomination by index offset.

        The scalar engine sorts the matched ``(share, row id)`` pairs and
        picks the first / last / lower-median one; index offsets are that
        order, so the pick is a min / max / partition over offsets.
        """
        np = kernels.numpy_module()
        if np is None:
            return None
        if column not in table.indexes:
            return None  # scalar raises via index_for
        plan = self._vector_condition_plan(table, conditions)
        if plan is None:
            return None
        located = table.index_positions(column)
        if located is None:
            return None
        if conditions:
            located = located[self._vector_match_mask(plan)]
        located = located[located >= 0]
        m = int(located.shape[0])
        self.cost.record("compare", m * max(1, m.bit_length()))
        if m == 0:
            return {"row": None, "count": 0}
        if func == "min":
            offset = located.min()
        elif func == "max":
            offset = located.max()
        else:  # median (lower-median convention, matches the executor)
            offset = np.partition(located, (m - 1) // 2)[(m - 1) // 2]
        chosen = int(table.indexes[column].vector_entries()[0][offset])
        row = (chosen, table.get(chosen))
        row = self._apply_result_faults([row])
        return {"row": row[0] if row else None, "count": m}

    def _aggregate_group_vector(
        self,
        table: ShareTable,
        func: str,
        column,
        group_column: str,
        conditions: List[Dict],
    ) -> Optional[List]:
        """Vectorized grouped COUNT/SUM: an entry walk + reduceat.

        The walk over the group column's index entries meets the matched
        rows with equal shares side by side, in ascending share order;
        groups are cut where the rank changes, each group's share is
        read at its first row, and per-group raw partial sums come from
        one ``reduceat`` pass over the limb planes.  Order-based funcs
        (min/max/median) decline — they embed projected rows per group
        and stay scalar.
        """
        np = kernels.numpy_module()
        if np is None or func not in ("count", "sum"):
            return None
        plan = self._vector_condition_plan(table, conditions)
        if plan is None:
            return None
        entry_slots = table.entry_slots(group_column)
        if entry_slots is None:
            return None
        agg_vector = None
        agg_present = column is not None and table.has_column(column)
        if agg_present:
            agg_vector = table.column_vector(column)
            if agg_vector is None:
                return None
        index = table.indexes[group_column]
        walk = self._entry_walk(np, table, index, entry_slots, plan)
        # the scalar engine reads every matched row's group share
        self.cost.record("compare", walk.matched)
        if not len(walk):
            return []
        keys = walk.take(index.vector_entries()[1])
        slots = walk.take(entry_slots)
        starts = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.flatnonzero(keys[1:] != keys[:-1]) + 1,
            )
        )
        group_array = table.column_array(group_column)
        group_shares = [group_array[slot] for slot in slots[starts].tolist()]
        member_counts = np.diff(np.append(starts, keys.shape[0]))
        agg_reads = 0
        if func == "count" and column is None:
            payloads = [{"count": c} for c in member_counts.tolist()]
        elif not agg_present:
            # the aggregate column is absent here: zero reads, zero partials
            if func == "count":
                payloads = [{"count": 0} for _ in group_shares]
            else:
                payloads = [
                    {"partial_sum": 0, "count": 0} for _ in group_shares
                ]
        else:
            agg_reads = int(keys.shape[0])
            limbs, nulls = agg_vector
            if nulls is None:
                non_null_counts = member_counts.tolist()
            else:
                non_null_counts = np.add.reduceat(
                    (~nulls[slots]).astype(np.int64), starts
                ).tolist()
            if func == "count":
                payloads = [{"count": c} for c in non_null_counts]
            else:
                # take() gathers columns several times faster than [:, slots]
                sums = kernels.exact_segment_sums_limbs(
                    limbs.take(slots, axis=1), starts
                )
                payloads = [
                    {"partial_sum": total, "count": c}
                    for total, c in zip(sums, non_null_counts)
                ]
        if agg_reads:
            self.cost.record("compare", agg_reads)
        return [
            [share, payload] for share, payload in zip(group_shares, payloads)
        ]

    # -- filtering internals ------------------------------------------------------------

    def _matching_row_ids(
        self, table: ShareTable, conditions: List[Dict]
    ) -> List[int]:
        """Row ids matching every share-space condition, ascending row id.

        Each condition probes the column's sorted index; multiple
        conditions intersect.  With no conditions, all rows match (the
        idealized full-retrieval mode of Sec. III).
        """
        if not conditions:
            return table.all_row_ids()
        return sorted(self._matching_row_ids_unordered(table, conditions))

    def _matching_row_ids_unordered(
        self, table: ShareTable, conditions: List[Dict]
    ) -> List[int]:
        """Same match set as :meth:`_matching_row_ids`, in no fixed order.

        Aggregation handlers use this directly: integer share sums are
        exact in any order and min/max/median re-sort by share anyway, so
        they skip the O(m log m) ascending-row-id sort that select/scan
        result rows need.  Cost recording is identical to the ordered
        path (one range probe per condition, stopping at an empty
        intersection).
        """
        if not conditions:
            return table.all_row_ids()
        if len(conditions) == 1:
            return self._condition_row_ids(table, conditions[0])
        result: Optional[set] = None
        for condition in conditions:
            matched = set(self._condition_row_ids(table, condition))
            result = matched if result is None else (result & matched)
            if not result:
                return []
        return list(result)

    def _condition_row_ids(self, table: ShareTable, condition: Dict) -> List[int]:
        index = table.index_for(condition["column"])
        self.cost.record("compare", index.comparisons_for_range())
        return index.range_row_ids(condition["low"], condition["high"])

    def _order_by_share(
        self, table: ShareTable, row_ids: List[int], column: str
    ) -> List[int]:
        """Row ids sorted by the column's share value (NULLs excluded)."""
        table.index_for(column)  # require searchable
        array = table.column_array(column)
        keyed = []
        for rid, slot in zip(row_ids, table.slots_for(row_ids)):
            share = array[slot]
            if share is not None:
                keyed.append((share, rid))
        self.cost.record(
            "compare", len(keyed) * max(1, len(keyed).bit_length())
        )
        keyed.sort()
        return [rid for _, rid in keyed]

    def _column_values(
        self, table: ShareTable, column: str, row_ids: List[int]
    ) -> List[Optional[int]]:
        """One column's shares for the given rows, straight off the array.

        A column the table does not store reads as no shares at all —
        aggregates over it see only NULLs and its read count is zero
        (that absence is what the fixed cost accounting records).
        """
        if not table.has_column(column):
            return []
        return table.values_for_rows(column, row_ids)

    def _filtered_column_values(
        self, table: ShareTable, conditions: List[Dict], column: str
    ) -> List[Optional[int]]:
        """Shares of ``column`` for every row matching ``conditions``.

        Access-path selection for order-insensitive aggregates.  A lone
        condition is first sized with two index bisects; when it matches
        a wide slice of the table the predicate is evaluated straight
        over the condition and aggregate column vectors (sequential
        scan, no row-id materialization), otherwise the index probe is
        translated through the slot map.  Both paths read the same share
        multiset and record the same costs: one range probe per
        condition plus one ``compare`` per share read (recorded by the
        caller as ``len(values)``).
        """
        if not conditions:
            if not table.has_column(column):
                return []
            return list(table.column_array(column))
        if len(conditions) == 1:
            condition = conditions[0]
            cond_column, low, high = condition["column"], condition["low"], condition["high"]
            index = table.index_for(cond_column)
            self.cost.record("compare", index.comparisons_for_range())
            if 4 * index.count_in_range(low, high) >= len(table):
                if not table.has_column(column):
                    return []
                cond_array = table.column_array(cond_column)
                agg_array = table.column_array(column)
                return [
                    share
                    for key, share in zip(cond_array, agg_array)
                    if key is not None and low <= key <= high
                ]
            row_ids = index.range_row_ids(low, high)
        else:
            row_ids = self._matching_row_ids_unordered(table, conditions)
        return self._column_values(table, column, row_ids)

    def _project_many(
        self,
        table: ShareTable,
        row_ids: List[int],
        projection: Optional[List[str]],
    ) -> ShareRows:
        """Result rows gathered from the column arrays, column by column.

        An empty match answers before the projection is looked at (and so
        never rejects one).
        """
        if not row_ids:
            return ShareRows([], (), [])
        if projection is not None:
            unknown = set(projection) - set(table.columns)
            if unknown:
                raise QueryError(f"unknown projection columns {sorted(unknown)}")
        return table.gather(row_ids, table.slots_for(row_ids), projection)

    def _rows_response(self, **rows: ShareRows) -> Dict:
        """A row-returning RPC's response, result faults applied to each
        of its share-row values in turn."""
        if self.fault is not None:
            rows = {
                key: self.fault.corrupt_share_rows(value)
                for key, value in rows.items()
            }
        return rows

    def _apply_result_faults(self, rows: List[Tuple[int, ShareRow]]):
        """Result faults on a MIN/MAX/MEDIAN nomination's one dict row."""
        if self.fault is None:
            return rows
        rows = self.fault.filter_rows(rows)
        return [(rid, self.fault.corrupt_row(values)) for rid, values in rows]

    # -- introspection ---------------------------------------------------------------------

    def table_names(self) -> List[str]:
        return self.store.table_names()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShareProvider({self.name}, tables={self.store.table_names()})"
