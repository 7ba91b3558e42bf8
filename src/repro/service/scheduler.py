"""Cross-query share-RPC batching: N concurrent fan-outs, one round each.

The dominant cost of a point query in this system is not computation but
round trips: every query pays at least one fan-out of ``k`` (reads) or
``n`` (writes) provider messages, each carrying the modelled WAN latency
of :class:`~repro.sim.network.LatencyModel`.  When a service runs many
clients concurrently, their fan-outs address the *same* providers at the
*same* moment — so the scheduler coalesces them: concurrently admitted
queries that are each about to issue a provider round are parked at a
combining barrier, and one **combined** round per provider carries all
their sub-requests (the provider-side ``batch`` RPC demultiplexes).  N
concurrent point queries then cost ~1 round trip per provider instead of
N.

Mechanics
---------

Every admitted query **registers** with the :class:`FanoutBatcher`
before executing and **finishes** after.  A query that reaches a
provider round parks a ticket instead of dispatching.  The barrier
flushes the moment *every* registered query is parked (nothing left that
could contribute more work to this round) or when a query finishes with
tickets still pending.  Tickets are grouped by ``(addressed providers,
minimum, quorum)`` — the parameters that must agree for rounds to share
a wire message; methods may differ within a group because each
sub-request carries its own method.

Correctness invariants:

* **No deadlock by construction**: a registered query must never block
  on a resource held by a parked query.  :class:`~repro.service.service.
  QueryService` therefore acquires its table lock *before* registering.
* **Deterministic accounting**: dispatch is serialised by a single
  dispatch lock and delegates to :meth:`ProviderCluster.call_all`, which
  records all bytes on the dispatching thread in provider-index order —
  so batched runs keep the seed-reproducible byte accounting of
  unbatched ones, and telemetry byte counters still equal network
  counters exactly.
* **Error isolation**: a provider-side failure of one sub-request is
  mapped back onto *that* ticket only; unrelated queries in the same
  combined round still get their responses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from .. import errors as _errors
from .. import telemetry
from ..errors import ProviderError
from ..providers.cluster import ProviderCluster

_GroupKey = Tuple[Tuple[int, ...], Optional[int], str]


class _Ticket:
    """One parked fan-out: its request map, and a slot for the outcome."""

    __slots__ = ("method", "requests", "event", "result", "error")

    def __init__(self, method: str, requests: Dict[int, Dict]) -> None:
        self.method = method
        self.requests = requests
        self.event = threading.Event()
        self.result: Optional[Dict[int, Dict]] = None
        self.error: Optional[BaseException] = None


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a provider-serialised ``["err", name, message]`` back to a class."""
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, _errors.ReproError)):
        cls = ProviderError
    return cls(message)


class FanoutBatcher:
    """Combining barrier that coalesces concurrent provider rounds."""

    def __init__(self, cluster: ProviderCluster) -> None:
        self.cluster = cluster
        self._lock = threading.Lock()
        #: Serialises every network round (combined or not) so byte
        #: accounting stays deterministic; also taken by pass-through
        #: ``call_one`` traffic.
        self.dispatch_lock = threading.Lock()
        self._active = 0
        self._parked = 0
        self._pending: "OrderedDict[_GroupKey, List[_Ticket]]" = OrderedDict()
        self.rounds_total = 0
        self.combined_rounds_total = 0
        self.tickets_total = 0
        self.max_batch = 0

    # ----------------------------------------------------------- membership --

    def register(self, n: int = 1) -> None:
        """Declare ``n`` queries active.  MUST precede any blocking on
        resources shared with other registered queries (see module docs)."""
        with self._lock:
            self._active += n

    def finish(self) -> None:
        """Declare one registered query done; flush if it was the holdout."""
        drained = None
        with self._lock:
            if self._active < 1:
                raise ProviderError("finish() without a matching register()")
            self._active -= 1
            if self._pending and self._parked >= self._active:
                drained = self._drain_locked()
        if drained:
            self._dispatch(drained)

    # ------------------------------------------------------------- batching --

    def broadcast(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int] = None,
        quorum: str = "all",
    ) -> Dict[int, Dict]:
        """Park this query's fan-out; returns once a flush has carried it.

        Drop-in for :meth:`ProviderCluster.call_all` — same request map,
        same response map, same exceptions.
        """
        key: _GroupKey = (tuple(sorted(requests)), minimum, quorum)
        ticket = _Ticket(method, requests)
        drained = None
        with self._lock:
            self._pending.setdefault(key, []).append(ticket)
            self._parked += 1
            if self._parked >= self._active:
                # every registered query is now waiting on a round: nothing
                # can add more tickets, so this thread performs the flush
                drained = self._drain_locked()
        if drained:
            self._dispatch(drained)
        ticket.event.wait()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    def _drain_locked(
        self,
    ) -> "OrderedDict[_GroupKey, List[_Ticket]]":
        drained = self._pending
        self._pending = OrderedDict()
        self._parked -= sum(len(tickets) for tickets in drained.values())
        return drained

    # ------------------------------------------------------------- dispatch --

    def _dispatch(
        self, drained: "OrderedDict[_GroupKey, List[_Ticket]]"
    ) -> None:
        with self.dispatch_lock:
            for (targets, minimum, quorum), tickets in drained.items():
                self._dispatch_group(list(targets), minimum, quorum, tickets)

    def _dispatch_group(
        self,
        targets: List[int],
        minimum: Optional[int],
        quorum: str,
        tickets: List[_Ticket],
    ) -> None:
        self.rounds_total += 1
        self.tickets_total += len(tickets)
        self.max_batch = max(self.max_batch, len(tickets))
        telemetry.observe("service.batch_size", len(tickets), quorum=quorum)
        if len(tickets) == 1:
            # nothing to combine: dispatch with the real method, skipping
            # the batch envelope's overhead
            ticket = tickets[0]
            try:
                ticket.result = self.cluster.call_all(
                    ticket.method, ticket.requests, minimum, quorum=quorum
                )
            except BaseException as exc:
                ticket.error = exc
            finally:
                ticket.event.set()
            return
        self.combined_rounds_total += 1
        telemetry.count("service.combined_rounds", batch=len(tickets))
        combined = {
            index: {
                "requests": [
                    [ticket.method, ticket.requests[index]]
                    for ticket in tickets
                ]
            }
            for index in targets
        }
        try:
            responses = self.cluster.call_all(
                "batch", combined, minimum, quorum=quorum
            )
        except _errors.QuorumError as exc:
            # quorum loss in the combined round: demultiplex the partial
            # responses per ticket so each rider's QuorumError carries its
            # own resumable partial round (the shared exception would carry
            # batch envelopes, which are useless to a failover continuation)
            for position, ticket in enumerate(tickets):
                ok = {}
                for index, envelope in exc.partial_responses.items():
                    entry = envelope["responses"][position]
                    if entry[0] == "ok":
                        ok[index] = entry[1]
                ticket.error = _errors.QuorumError(
                    str(exc), partial_responses=ok, failures=dict(exc.failures)
                )
                ticket.event.set()
            return
        except BaseException as exc:
            # whole-round failure: every rider fails the same way
            for ticket in tickets:
                ticket.error = exc
                ticket.event.set()
            return
        for position, ticket in enumerate(tickets):
            self._demux(ticket, position, responses, minimum)
            ticket.event.set()

    @staticmethod
    def _demux(
        ticket: _Ticket,
        position: int,
        responses: Dict[int, Dict],
        minimum: Optional[int],
    ) -> None:
        """Extract one ticket's per-provider sub-responses from the round."""
        ok: Dict[int, Dict] = {}
        failed: List[Tuple[int, str, str]] = []
        for index in sorted(responses):
            entry = responses[index]["responses"][position]
            if entry[0] == "ok":
                ok[index] = entry[1]
            else:
                failed.append((index, entry[1], entry[2]))
        required = len(ticket.requests) if minimum is None else minimum
        if failed and (minimum is None or len(ok) < required):
            _, name, message = failed[0]
            ticket.error = _rebuild_error(name, message)
        elif len(ok) < required:
            # let a failover-capable caller resume from the partial round
            ticket.error = _errors.QuorumError(
                f"{ticket.method}: only {len(ok)}/{len(ticket.requests)} "
                f"providers answered in combined round (need {required})",
                partial_responses=ok,
                failures={index: message for index, _, message in failed},
            )
        else:
            ticket.result = ok

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "rounds_total": self.rounds_total,
                "combined_rounds_total": self.combined_rounds_total,
                "tickets_total": self.tickets_total,
                "max_batch": self.max_batch,
                "active": self._active,
                "parked": self._parked,
            }


class BatchingCluster:
    """Duck-typed :class:`ProviderCluster` that routes rounds via a batcher.

    :class:`~repro.client.datasource.DataSource` funnels all provider
    traffic through ``cluster.broadcast`` and ``cluster.call_one``, so
    intercepting those (plus ``call_all`` for direct callers) is enough
    to make every query batchable without touching the client code.
    Everything else — ``network``, ``providers``, quorum helpers,
    accounting — delegates to the wrapped cluster.
    """

    def __init__(self, cluster: ProviderCluster, batcher: FanoutBatcher) -> None:
        # object.__setattr__-free: plain attributes, __getattr__ only fires
        # for names not found on the instance
        self._cluster = cluster
        self.batcher = batcher

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)

    def call_all(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int] = None,
        quorum: str = "all",
    ) -> Dict[int, Dict]:
        return self.batcher.broadcast(method, requests, minimum, quorum)

    def broadcast(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        minimum: Optional[int] = None,
        provider_indexes: Optional[List[int]] = None,
        quorum: str = "all",
        failover: bool = False,
    ) -> Dict[int, Dict]:
        indexes = (
            provider_indexes
            if provider_indexes is not None
            else list(range(self._cluster.n_providers))
        )
        requests = {i: request_builder(i) for i in indexes}
        try:
            return self.batcher.broadcast(method, requests, minimum, quorum)
        except _errors.QuorumError as exc:
            if not failover or minimum is None:
                raise
            # resume from the partial responses the batched round carried;
            # the continuation is an ordinary (serialised) spare round on
            # the wrapped cluster, outside the combining barrier
            partial = exc.partial_responses
            with self.batcher.dispatch_lock:
                return self._cluster.failover_spares(
                    method,
                    request_builder,
                    partial,
                    set(requests) | set(partial),
                    minimum,
                    quorum,
                    exc.failures,
                )

    def broadcast_unbatched(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        provider_indexes: List[int],
    ) -> Dict[int, Dict]:
        # an ordinary round on the wrapped cluster, outside the combining
        # barrier but serialised against combined rounds
        with self.batcher.dispatch_lock:
            return self._cluster.broadcast(
                method, request_builder, provider_indexes=provider_indexes
            )

    def call_one(self, provider_index: int, method: str, request: Dict) -> Dict:
        # single-provider traffic is not batched, but still serialised
        # against combined rounds so accounting stays deterministic
        with self.batcher.dispatch_lock:
            return self._cluster.call_one(provider_index, method, request)
