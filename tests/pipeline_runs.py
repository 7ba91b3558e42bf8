"""One run per pipeline scenario, shared by every test that watches it.

A test that switches a feature off runs the scenario again itself and
lists that feature in its module's ``RERUNS``
(``tests/ci/test_one_run_per_scenario.py``).  To watch something new, add
a field to :class:`Run` and fill it in :func:`run`.
"""

from __future__ import annotations

import functools
import pickle
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.errors import WireError
from repro.providers.provider import ShareProvider
from repro.sim import wire
from repro.sim.network import ShareRows, SimulatedNetwork, measure_bytes
from repro.sqlengine.sqlparser import parse_sql


@dataclass
class Run:
    """A scenario's ``record``; every ``(method, field)`` its requests carry
    at ``ShareProvider._handler``, the one checked path to a handler
    (``batch`` riders and ``txn_apply`` ops included); how many
    ``messages`` the network sized, and ``(src, dst, size, encoded length
    or error, message)`` of each the codec does not carry at that size;
    per group, each provider's ``(index, method, request, response)`` in
    the order sent, None where it raised (``calls``: pickled, as objects
    every scenario's share rows took some 30 MB), and a
    :class:`ProjectionWire` told of every call; under a hash map, per
    group, each table's sorted owners of the rows it holds after the run."""

    record: Dict[str, object] = field(default_factory=dict)
    fields: Set[Tuple[str, str]] = field(default_factory=set)
    messages: int = 0
    off_codec: List[tuple] = field(default_factory=list)
    pickled_calls: bytes = b""
    wires: List[ProjectionWire] = field(default_factory=list)
    owners: Optional[List[Dict[str, List[int]]]] = None

    @property
    def calls(self) -> List[List[tuple]]:
        return pickle.loads(self.pickled_calls)


@functools.lru_cache(maxsize=None)
def run(module: str, scenario_id: str) -> Run:
    """Test module ``module``'s scenario, run once per session with every
    observer attached; what they saw is kept as plain data, no deployment."""
    seen, deployments, sent, providers = Run(), [], [], []
    checked = ShareProvider._handler

    def handler(provider, method, request, *methods):
        if isinstance(request, dict):
            seen.fields.update((method, name) for name in request)
        return checked(provider, method, request, *methods)

    def encoded(sizing):
        def send(network, src, dst, payload):
            out = sizing(network, src, dst, payload)
            size = out if type(out) is int else out[0]
            seen.messages += 1
            try:
                data = wire.encode(payload)
                if len(data) != size or wire.decode(data) != payload:
                    seen.off_codec.append((src, dst, size, len(data), payload))
            except WireError as exc:
                seen.off_codec.append((src, dst, size, repr(exc), payload))
            return out

        return send

    def watched(provider, index, calls, projection, handle):
        def call(method, request):
            response = None
            try:
                response = handle(method, request)
                return response
            finally:
                calls.append((index, method, request, response))
                projection.observe(provider, method, request, response)

        return call

    def attach(dep) -> None:
        deployments.append(dep)
        for source in dep.sources:
            sent.append([])
            seen.wires.append(ProjectionWire())
            for index, provider in enumerate(source.cluster.providers):
                provider.handle = watched(provider, index, sent[-1], seen.wires[-1], provider.handle)
                providers.append(provider)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShareProvider, "_handler", handler)
        for name in ("send", "send_unclocked"):
            patch.setattr(SimulatedNetwork, name, encoded(getattr(SimulatedNetwork, name)))
        seen.record = sys.modules[module].run_scenario(scenario_id, attach)
    seen.pickled_calls = pickle.dumps(sent)
    for provider in providers:
        del provider.handle  # the owner reads below are not the scenario's
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
