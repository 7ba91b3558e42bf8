"""Per-layer attribution for a traced run, from the benchmark's side only.

A *layer* is one of this repo's modules.  ``Tracer.install`` wraps each
layer's entry points (``TARGETS``) with timing wrappers for the duration
of a traced run and ``Tracer.uninstall`` puts the originals back; nothing
under ``src/`` changes and nothing is wrapped during timed passes.

* A ``SPAN`` target records one span per call: ``[id, layer, thread,
  start, end, parent, statement]``.  The parent is the innermost open
  span on the calling thread; a span opened on a provider-pool thread
  (empty stack) is parented to the ``providers.cluster`` span that handed
  the work off.
* An ``ACCUM`` target is called once per cell (``reconstruct_integer``,
  codec ``decode``), so it adds to a ``(statement, parent, layer)``
  sum + call count instead of one span per call.
* *Self time* of a span is its duration minus the union of its
  children's intervals (children on pool threads included) minus the
  accumulated per-cell time under it.  ``analyse`` sums it per layer.

Module-level functions are patched *where the name is looked up*: several
are bound by name at import (``from .reconstruct import reconstruct_rows``
in ``client/datasource.py``), so every ``repro.*`` module attribute that
is the original function object is rebound.  A listed entry point that no
longer exists raises ``TraceTargetError`` — a refactor cannot silently
zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SPAN, ACCUM = "span", "accum"

#: (layer, kind, owner, attribute).  ``owner`` is ``"module"`` for a
#: module-level function or ``"module:Class"`` for a method.  A layer name
#: with a ``#detail`` suffix also gets its own busy time and call count.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sqlengine.sqlparser", SPAN, "repro.sqlengine.sqlparser", "parse_sql"),
    ("client.rewriter", SPAN, "repro.client.rewriter", "rewrite_predicate"),
    ("client.rewriter", SPAN, "repro.client.rewriter", "split_join_predicate"),
    ("client.rewriter", ACCUM, "repro.client.rewriter:RewrittenPredicate", "conditions_for"),
    # ``sql`` is the root span of an unsharded statement; ``execute`` only
    # dispatches to the methods below, so it gets no span of its own
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "sql"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "select"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "join"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "create_table"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "insert_many"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "update"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "delete"),
    # the resolve/apply halves the transaction layer calls directly
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "prepare_insert_shares"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "prepare_update_shares"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "_fetch_matching_rows"),
    ("client.datasource", SPAN, "repro.client.datasource:DataSource", "bump_table_epoch"),
    ("providers.cluster", SPAN, "repro.providers.cluster:ProviderCluster", "broadcast"),
    ("providers.cluster", SPAN, "repro.providers.cluster:ProviderCluster", "call_all"),
    ("providers.cluster", SPAN, "repro.providers.cluster:ProviderCluster", "call_one"),
    ("sim.network", SPAN, "repro.sim.network:SimulatedNetwork", "send"),
    ("sim.network", SPAN, "repro.sim.network:SimulatedNetwork", "send_unclocked"),
    ("providers.provider", SPAN, "repro.providers.provider:ShareProvider", "handle"),
    ("providers.storage", SPAN, "repro.providers.storage:ShareTable", "insert_many"),
    ("providers.storage", SPAN, "repro.providers.storage:ShareTable", "column_vector"),
    ("providers.storage", SPAN, "repro.providers.storage:SortedShareIndex", "bulk_load"),
    ("providers.storage", SPAN, "repro.providers.storage:SortedShareIndex", "vector_entries"),
    ("client.reconstruct", SPAN, "repro.client.reconstruct", "reconstruct_rows"),
    ("client.reconstruct", SPAN, "repro.client.reconstruct", "reconstruct_rows_checked"),
    ("client.reconstruct", SPAN, "repro.client.reconstruct", "reconstruct_single_rows"),
    ("client.reconstruct", SPAN, "repro.client.reconstruct", "consistent_scalar"),
    ("core.scheme", SPAN, "repro.core.scheme:TableSharing", "reconstruct_rows"),
    ("core.scheme", SPAN, "repro.core.scheme:TableSharing", "reconstruct_row"),
    ("core.scheme", SPAN, "repro.core.scheme:TableSharing", "reconstruct_value"),
    ("core.scheme", SPAN, "repro.core.scheme:TableSharing", "combine_sum"),
    ("core.scheme#share_row", SPAN, "repro.core.scheme:TableSharing", "share_row"),
    ("core.kernels", SPAN, "repro.core.kernels", "batch_reconstruct"),
    ("core.kernels", ACCUM, "repro.core.kernels", "reconstruct_integer"),
    ("core.kernels", ACCUM, "repro.core.kernels:SplitKernel", "evaluate"),
    ("core.encoding", ACCUM, "repro.core.encoding:IntegerCodec", "decode"),
    ("core.encoding", ACCUM, "repro.core.encoding:StringCodec", "decode"),
    ("core.encoding", ACCUM, "repro.core.encoding:IntegerCodec", "encode"),
    ("core.encoding", ACCUM, "repro.core.encoding:StringCodec", "encode"),
    ("txn.manager", SPAN, "repro.txn.manager:TransactionManager", "execute"),
    ("txn.manager", SPAN, "repro.txn.manager:TransactionManager", "_apply_pending"),
    ("txn.wal", SPAN, "repro.txn.wal:WriteAheadLog", "append"),
    ("txn.wal", SPAN, "repro.txn.wal:WriteAheadLog", "sync"),
    ("txn.wal", SPAN, "repro.txn.wal:WriteAheadLog", "checkpoint"),
    ("txn.groupcommit", SPAN, "repro.txn.groupcommit:GroupCommitEngine", "submit"),
    ("service.sharding", SPAN, "repro.service.sharding:ShardRouter", "execute"),
    ("service.sharding", SPAN, "repro.service.sharding:ShardRouter", "create_table"),
    ("service.sharding", SPAN, "repro.service.sharding:ShardRouter", "insert_many"),
)

#: Where the engine choice of a vector-eligible provider RPC is noted; the
#: hook counts it without turning ``repro.telemetry`` on.
DISPATCH_HOOK = ("repro.providers.provider:ShareProvider", "_note_dispatch")

#: Layers whose spans hand work to the provider pool.
HANDOFF_LAYER = "providers.cluster"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0].partition("#")[0] for t in TARGETS))


class TraceTargetError(RuntimeError):
    """A listed entry point is gone; the layer would silently read zero."""


def _resolve(owner: str, attribute: str):
    """``(holder object, original callable)`` for one target."""
    module_name, _, class_name = owner.partition(":")
    try:
        holder = importlib.import_module(module_name)
        if class_name:
            holder = getattr(holder, class_name)
        original = vars(holder)[attribute]
    except (ImportError, AttributeError, KeyError) as exc:
        raise TraceTargetError(
            f"trace target {owner}.{attribute} no longer exists ({exc!r}); "
            "update benchmarks/e2e/layers.py TARGETS"
        ) from None
    if not callable(original):
        raise TraceTargetError(f"trace target {owner}.{attribute} is not a plain function")
    return holder, original


def _lookup_sites(original) -> List[Tuple[object, str]]:
    """Every ``repro.*`` module attribute bound to ``original`` by name."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attribute))
    return sites


def wrappers_installed() -> bool:
    """True while any entry point is wrapped (untraced timed passes assert it is not)."""
    entry_points = [target[2:] for target in TARGETS] + [DISPATCH_HOOK]
    return any(
        hasattr(_resolve(owner, attribute)[1], "traced_layer")
        for owner, attribute in entry_points
    )


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        #: flat: id, layer, thread, start, end, parent, statement, id, layer, ...
        self.spans: list = []
        self.accum: Dict[Tuple[int, int, str], List[float]] = {}
        #: one bool per vector-eligible provider RPC (True = numpy engine)
        self.dispatch: List[bool] = []
        self.statement = -1
        self._handoff = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # resolve everything first: a missing target fails before anything is
        # patched, and every module is imported before lookup sites are scanned
        resolved = [
            (layer, kind, owner, attribute, *_resolve(owner, attribute))
            for layer, kind, owner, attribute in TARGETS
        ]
        hook_holder, hook = _resolve(*DISPATCH_HOOK)
        for layer, kind, owner, attribute, holder, original in resolved:
            make = self._span_wrapper if kind == SPAN else self._accum_wrapper
            wrapper = make(layer, original)
            if ":" in owner:
                self._patch(holder, attribute, original, wrapper)
            else:
                for module, name in _lookup_sites(original):
                    self._patch(module, name, original, wrapper)
        self._patch(hook_holder, DISPATCH_HOOK[1], hook, self._dispatch_wrapper(hook))

    def _patch(self, holder, attribute: str, original, wrapper) -> None:
        wrapper.traced_layer = True
        self._patched.append((holder, attribute, original))
        setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, attribute, original = self._patched.pop()
            setattr(holder, attribute, original)

    def patched_sites(self) -> List[Tuple[object, str, object]]:
        """(holder, attribute, original) for everything currently patched."""
        return list(self._patched)

    # -- wrappers -----------------------------------------------------------

    def _thread_state(self) -> list:
        """``[open span ids, thread id]`` of the calling thread."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = [[], threading.get_ident()]
            return state

    def _span_wrapper(self, layer: str, fn: Callable) -> Callable:
        # spans are stored flat (seven scalars each): hundreds of thousands
        # of small containers would make the collector part of the overhead
        extend, ids, clock = self.spans.extend, self._ids, time.perf_counter
        state_of = self._thread_state
        hands_off = layer == HANDOFF_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, thread = state_of()
            span_id = next(ids)
            parent = stack[-1] if stack else self._handoff
            stack.append(span_id)
            if hands_off:
                previous, self._handoff = self._handoff, span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if hands_off:
                    self._handoff = previous
                stack.pop()
                extend((span_id, layer, thread, start, end, parent, self.statement))

        return traced

    def _accum_wrapper(self, layer: str, fn: Callable) -> Callable:
        accum, clock, state_of = self.accum, time.perf_counter, self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack = state_of()[0]
                key = (self.statement, stack[-1] if stack else self._handoff, layer)
                cell = accum.get(key)
                if cell is None:
                    accum[key] = [elapsed, 1]
                else:
                    cell[0] += elapsed
                    cell[1] += 1

        return traced

    def _dispatch_wrapper(self, fn: Callable) -> Callable:
        dispatch = self.dispatch

        @functools.wraps(fn)
        def traced(provider, method, vectorized):
            dispatch.append(bool(vectorized))  # list.append is atomic across pool threads
            return fn(provider, method, vectorized)

        return traced

    # -- output -------------------------------------------------------------

    def span_records(self) -> List[tuple]:
        """``(id, layer, thread, start, end, parent, statement)`` per span, in closing order."""
        return list(zip(*[iter(self.spans)] * 7))

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span / per-cell accumulator, statement order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, thread, start, end, parent, statement in sorted(
                self.span_records(), key=lambda s: (s[6], s[3])
            ):
                handle.write(json.dumps({
                    "stmt": statement, "id": span_id, "parent": parent, "layer": layer,
                    "thread": thread, "start": start, "end": end,
                }) + "\n")
            for (statement, parent, layer), (seconds, calls) in sorted(self.accum.items()):
                handle.write(json.dumps({
                    "stmt": statement, "parent": parent, "layer": layer,
                    "accum_s": seconds, "calls": calls,
                }) + "\n")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` intervals."""
    total = 0.0
    cursor: Optional[float] = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def analyse(
    spans: List[tuple], accum: Dict[Tuple[int, int, str], List[float]]
) -> Dict[str, object]:
    """Per-layer totals (seconds) over everything the tracer recorded.

    ``self_s``  thread-time self per layer (pool threads summed).
    ``busy_s``  inclusive span time per layer (pool threads summed).
    ``wall_s``  the root spans' wall time split over layers: calling-thread
                self time as is; the stretch of a hand-off span covered
                only by pool-thread children is split over the pool layers
                in proportion to their thread-time self.  Sums to ``root_s``.
    ``calls``   spans (or accumulated calls) per layer.
    ``detail``  ``{"layer#detail": [busy seconds, calls]}`` for the targets
                that asked for their own line.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        children.setdefault(span[5], []).append(span)
    root_thread = next((s[2] for s in spans if s[5] == 0), None)
    pool_ids = {s[0] for s in spans if s[2] != root_thread}
    totals = {name: {} for name in ("self_s", "busy_s", "calls", "pool_self")}

    def add(name: str, layer: str, value: float) -> None:
        totals[name][layer] = totals[name].get(layer, 0) + value

    accum_under: Dict[int, float] = {}
    for (_, parent, layer), (seconds, count) in accum.items():
        accum_under[parent] = accum_under.get(parent, 0.0) + seconds
        add("self_s", layer, seconds)
        add("busy_s", layer, seconds)
        add("calls", layer, count)
        if parent in pool_ids:
            add("pool_self", layer, seconds)
    pool_wall = 0.0
    root_s = 0.0
    detail: Dict[str, List[float]] = {}
    for span_id, name, thread, start, end, parent, _ in spans:
        layer, _, detailed = name.partition("#")
        if detailed:
            cell = detail.setdefault(name, [0.0, 0])
            cell[0] += end - start
            cell[1] += 1
        kids = children.get(span_id, ())
        clipped = [(max(k[3], start), min(k[4], end)) for k in kids]
        covered = union_length(c for c in clipped if c[1] > c[0])
        own = max(0.0, (end - start) - covered - accum_under.get(span_id, 0.0))
        add("self_s", layer, own)
        add("busy_s", layer, end - start)
        add("calls", layer, 1)
        if parent == 0:
            root_s += end - start
        if thread != root_thread:
            add("pool_self", layer, own)
        elif any(k[2] != thread for k in kids):
            same_thread = union_length(
                c for c, k in zip(clipped, kids) if k[2] == thread and c[1] > c[0]
            )
            pool_wall += covered - same_thread
    pool_self = totals.pop("pool_self")
    pool_total = sum(pool_self.values())
    wall_s = {
        layer: seconds - pool_self.get(layer, 0.0)
        for layer, seconds in totals["self_s"].items()
    }
    if pool_total > 0:
        for layer, seconds in pool_self.items():
            wall_s[layer] += pool_wall * seconds / pool_total
    return {**totals, "wall_s": wall_s, "root_s": root_s, "detail": detail}
