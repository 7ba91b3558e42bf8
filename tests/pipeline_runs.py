"""The one recorder a test watches providers with, and one run per
pipeline scenario, shared by every test that watches it.

:func:`recording` wraps ``handle`` on the providers of a deployment, a
``ShardRouter`` or a list for a block and collects each call they answer
or raise on; it is the only place under ``tests/`` that replaces a
provider's ``handle`` to watch it (``tests/ci/test_one_run_per_scenario.py``).

:func:`run` runs a read, write or router pipeline scenario once per
session with every observer attached, the recorder among them.  A test
that switches a feature off runs the scenario again itself and lists that
feature in its module's ``RERUNS``.  To watch something new, add a field
to :class:`Run` and fill it in :func:`run`.
"""

from __future__ import annotations

import functools
import pickle
import sys
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.errors import WireError
from repro.providers.provider import ShareProvider
from repro.sim import network, wire
from repro.sim.network import ShareRows, SimulatedNetwork, measure_bytes
from repro.sqlengine.sqlparser import parse_sql
from tests.column_major import row_major_surplus, share_rows


@contextmanager
def recording(target, observe: Callable = lambda *call: None) -> Iterator[List[tuple]]:
    """Every call the providers of ``target`` — a deployment (its
    ``sources``), a ``ShardRouter`` (its ``groups``) or a list — answer or
    raise on inside the block, as ``(index, method, request, response)``
    in the order sent: ``index`` is the provider's place among them, the
    response None where it raised.  ``observe(provider, method, request,
    response)`` is told of each call as it ends."""
    groups = getattr(target, "sources", None) or getattr(target, "groups", None)
    providers = [p for group in groups for p in group.cluster.providers] if groups else [*target]
    calls: List[tuple] = []

    def watched(provider, index, handle):
        def call(method, request):
            response = None
            try:
                response = handle(method, request)
                return response
            finally:
                calls.append((index, method, request, response))
                observe(provider, method, request, response)

        return call

    for index, provider in enumerate(providers):
        provider.handle = watched(provider, index, provider.handle)
    try:
        yield calls
    finally:
        for provider in providers:
            del provider.handle


@dataclass
class Run:
    """A scenario's ``record``; every ``(method, field)`` its requests carry
    at ``ShareProvider._handler``, the one checked path to a handler
    (``batch`` riders and ``txn_apply`` ops included); how many
    ``messages`` the network sized, and ``(src, dst, size, encoded length
    or error, message)`` of each the codec does not carry at that size;
    per group, the :func:`recording` of its providers (``calls``: pickled,
    as objects every scenario's share rows took some 30 MB), and a
    :class:`ProjectionWire` told of every call; under a hash map, per
    group, each table's sorted owners of the rows it holds after the run.

    And what sizing share rows could reach: ``readers``, every
    ``module:function`` that read a byte counter or a network's modelled
    clock (a function of ``repro.sim.network``, a lambda or a
    comprehension hands the value on: its caller reads it);
    ``peak_clock``, the highest any modelled clock stood;
    ``surplus_seconds``, the time the row-major surplus of every sized
    message's share rows takes at its network's bandwidth."""

    record: Dict[str, object] = field(default_factory=dict)
    fields: Set[Tuple[str, str]] = field(default_factory=set)
    messages: int = 0
    off_codec: List[tuple] = field(default_factory=list)
    pickled_calls: bytes = b""
    wires: List[ProjectionWire] = field(default_factory=list)
    owners: Optional[List[Dict[str, List[int]]]] = None
    readers: Set[str] = field(default_factory=set)
    peak_clock: float = 0.0
    surplus_seconds: float = 0.0

    @property
    def calls(self) -> List[List[tuple]]:
        return pickle.loads(self.pickled_calls)


#: the counters a message's size moves, by the class that holds them
COUNTERS = (
    (SimulatedNetwork, "modelled_seconds"),
    (network.NetworkStats, "bytes_sent"),
    (network.EndpointStats, "payload_bytes"),
)


@functools.lru_cache(maxsize=None)
def run(module: str, scenario_id: str) -> Run:
    """Test module ``module``'s scenario, run once per session with every
    observer attached; what they saw is kept as plain data, no deployment."""
    seen, deployments, sent = Run(), [], []
    checked = ShareProvider._handler

    def handler(provider, method, request, *methods):
        if isinstance(request, dict):
            seen.fields.update((method, name) for name in request)
        return checked(provider, method, request, *methods)

    def encoded(sizing):
        def send(net, src, dst, payload):
            out = sizing(net, src, dst, payload)
            size = out if type(out) is int else out[0]
            seen.messages += 1
            surplus = sum(map(row_major_surplus, share_rows([payload])))
            seen.surplus_seconds += 8 * surplus / net.latency.bandwidth_bits_per_second
            try:
                data = wire.encode(payload)
                if len(data) != size or wire.decode(data) != payload:
                    seen.off_codec.append((src, dst, size, len(data), payload))
            except WireError as exc:
                seen.off_codec.append((src, dst, size, repr(exc), payload))
            return out

        return send

    def counter(name):
        def read(obj):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] in (network.__name__, __name__) or (
                    frame.f_code.co_name[0] == "<"):
                frame = frame.f_back
            seen.readers.add(f"{frame.f_globals['__name__']}:{frame.f_code.co_name}")
            return vars(obj)[name]

        def write(obj, value):
            vars(obj)[name] = value
            if name == "modelled_seconds":
                seen.peak_clock = max(seen.peak_clock, value)

        return property(read, write)

    with ExitStack() as stack:
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        patch.setattr(ShareProvider, "_handler", handler)
        for name in ("send", "send_unclocked"):
            patch.setattr(SimulatedNetwork, name, encoded(getattr(SimulatedNetwork, name)))
        for cls, name in COUNTERS:
            patch.setattr(cls, name, counter(name), raising=False)

        def attach(dep) -> None:
            deployments.append(dep)
            for source in dep.sources:
                seen.wires.append(ProjectionWire())
                sent.append(stack.enter_context(
                    recording(source.cluster.providers, seen.wires[-1].observe)
                ))

        seen.record = sys.modules[module].run_scenario(scenario_id, attach)
    # recorders and patches are off: the owner reads below are not the scenario's
    seen.pickled_calls = pickle.dumps(sent)
    (dep,) = deployments
    if dep.router is not None and dep.router.default_mode == "hash":
        seen.owners = [
            {
                table: sorted({
                    dep.router.owner_for_row(table, row)
                    for row in source.select(parse_sql(f"SELECT * FROM {table}"))
                })
                for table in source.table_names()
            }
            for source in dep.sources
        ]
    return seen


class ProjectionWire:
    """Told of each call a provider answers or raises on, counts, for every
    ``select`` request that carries a projection and every side of a
    ``join`` request that carries one (``left_projection`` /
    ``right_projection``) — what the read and router pipelines' projection
    tests take off the same reads with whole rows fetched:

    * ``gained`` — the request bytes the projection adds: a ``select``
      sends its tuple where the full-row read sends ``None`` (one byte),
      a join side sends its field, which the full-row join leaves out;
    * ``lost`` — the response bytes it leaves out, as the wire carries
      share rows: ``len(wire.encode(...))`` of the response's rows read
      with every column, less that of the rows it got — per response
      with rows, per dropped column, its name once (``2 + len(name)``)
      and its cells (``2 +`` share magnitude bytes, one byte a NULL);
    * ``rows`` / ``dropped`` — per table, the row ids returned and the
      columns left out, over all such requests; ``cells`` — the dropped
      cells of those rows, which the client no longer interpolates.
    """

    def __init__(self) -> None:
        self.gained = 0
        self.lost = 0
        self.rows: Dict[str, Set[int]] = defaultdict(set)
        self.dropped: Dict[str, Set[str]] = defaultdict(set)

    @property
    def cells(self) -> int:
        return sum(len(self.rows[table]) * len(self.dropped[table]) for table in self.rows)

    def observe(self, provider, method: str, request, response) -> None:
        """``response`` is None where the provider raised: the request went
        on the wire all the same."""
        if method == "select":
            # the tuple replaces the full-row read's ``None``
            sides = [(request["table"], "projection", "rows", 1)]
        elif method == "join":
            # a full-row join leaves the field out
            sides = [
                (request[side], f"{side}_projection", side, -measure_bytes(f"{side}_projection"))
                for side in ("left", "right")
            ]
        else:
            return
        for name, key, rows, replaced in sides:
            if request.get(key) is not None:
                self.gained += measure_bytes(request[key]) - replaced
                if response is not None:
                    table = provider.store.table(name)
                    self._count_lost(table, name, request[key], response[rows])

    def _count_lost(self, table, name: str, projection, rows) -> None:
        dropped = [column for column in table.columns if column not in projection]
        self.rows[name].update(rows.row_ids)
        self.dropped[name].update(dropped)
        if not dropped:
            return
        # the rows again with every column, in the table's column order
        held = dict(zip(rows.columns, rows.shares))
        dropped_shares = dict(zip(dropped, zip(*(
            [shares[column] for column in dropped]
            for _, shares in table.gather(rows.row_ids, table.slots_for(rows.row_ids), dropped)
        )))) if len(rows) else {column: () for column in dropped}
        full = ShareRows(
            rows.row_ids, tuple(table.columns),
            [held.get(column, dropped_shares.get(column)) for column in table.columns],
        )
        self.lost += len(wire.encode(full)) - len(wire.encode(rows))
