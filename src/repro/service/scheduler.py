"""Cross-query share-RPC batching: N concurrent threshold reads, one round.

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

Batching is a mode of the cluster's one wave.  A
:class:`~repro.service.service.QueryService` installs its batcher as
``cluster.batcher``; from then on
:class:`~repro.providers.cluster.ProviderCluster` hands every threshold
read — a round with a ``minimum``, failover waves included — to
:meth:`FanoutBatcher.submit`, and sends every other round straight to
:meth:`~repro.providers.cluster.ProviderCluster.wave` under
:attr:`FanoutBatcher.dispatch_lock`.

Every admitted query **registers** with the batcher before executing
and **finishes** after.  A submitted round parks a ticket.  The barrier
flushes the moment *every* registered query is parked (nothing left that
could contribute more work to this round) or when a query finishes with
tickets still pending.  Tickets are grouped by ``(addressed providers,
minimum, quorum)`` — the parameters that must agree for rounds to share
a wire message; methods may differ within a group because each
sub-request carries its own method.

Only threshold reads are combined.  Writes and DDL run under the
exclusive table lock, so no other registered query could share their
round; ``call_one`` addresses a single provider; and a transaction-control
round (``txn_apply``) is flushed by a group-commit leader on behalf of
followers — parked at a barrier that may be waiting on one of those
followers, it would deadlock.

Correctness invariants:

* **No deadlock by construction**: a registered query must never block
  on a resource held by a parked query.  :class:`~repro.service.service.
  QueryService` therefore acquires its table lock *before* registering.
* **Batched ≡ unbatched**: a flush sends each group through
  :meth:`~repro.providers.cluster.ProviderCluster.wave` — a lone ticket
  with its own method, several inside one ``batch`` envelope — and hands
  every ticket the ``(responses, failures)`` pair the wave would have
  returned for it alone.  Quorum checks, retries and failover stay the
  cluster's, so they cannot differ between the two modes.
* **Deterministic accounting**: every dispatch runs under the one
  dispatch lock, and the wave records all bytes on the dispatching
  thread in provider-index order — so batched runs keep the
  seed-reproducible byte accounting of unbatched ones, and telemetry
  byte counters still equal network counters exactly.
* **Error isolation**: a provider-side failure of one sub-request fails
  *that* ticket only, re-raised after the drain exactly as the wave
  raises it; unrelated queries in the same combined round still get
  their responses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import errors as _errors
from .. import telemetry
from ..errors import ProviderError, ProviderUnavailableError
from ..providers.cluster import ProviderCluster

_GroupKey = Tuple[Tuple[int, ...], int, str]
#: what a wave returns: responses and unavailability failures by provider
_Round = Tuple[Dict[int, Dict], Dict[int, ProviderUnavailableError]]


class _Ticket:
    """One parked round: its request map, and a slot for the outcome."""

    __slots__ = ("method", "requests", "event", "result", "error")

    def __init__(self, method: str, requests: Dict[int, Dict]) -> None:
        self.method = method
        self.requests = requests
        self.event = threading.Event()
        self.result: Optional[_Round] = None
        self.error: Optional[BaseException] = None


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a provider-serialised ``["err", name, message]`` back to a class."""
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, _errors.ReproError)):
        cls = ProviderError
    return cls(message)


class FanoutBatcher:
    """Combining barrier that coalesces concurrent threshold reads."""

    def __init__(self, cluster: ProviderCluster) -> None:
        self.cluster = cluster
        self._lock = threading.Lock()
        #: Serialises every network round (combined or not) so byte
        #: accounting stays deterministic; the cluster takes it for the
        #: rounds it sends past the barrier.
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

    def submit(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: int,
        quorum: str,
    ) -> _Round:
        """Park one threshold read until a flush has carried it.

        Returns what :meth:`ProviderCluster.wave` returns for the same
        arguments, and raises what it raises.
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
        minimum: int,
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
                ticket.result = self.cluster.wave(
                    ticket.method, ticket.requests, minimum, quorum
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
            responses, failures = self.cluster.wave(
                "batch", combined, minimum, quorum
            )
        except BaseException as exc:
            # whole-round failure: every rider fails the same way
            for ticket in tickets:
                ticket.error = exc
                ticket.event.set()
            return
        for position, ticket in enumerate(tickets):
            # the wave's response order is its execution order, so the
            # first sub-request error is the one an unbatched wave raises
            ok: Dict[int, Dict] = {}
            for index, envelope in responses.items():
                entry = envelope["responses"][position]
                if entry[0] == "ok":
                    ok[index] = entry[1]
                elif ticket.error is None:
                    ticket.error = _rebuild_error(entry[1], entry[2])
            ticket.result = (ok, dict(failures))
            ticket.event.set()

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
