"""The simulation runner: one discrete-event loop on the modelled clock.

Every simulated run — the open-loop overload flood behind
``BENCH_overload.json``, the closed-loop clients of ``repro.cli
serve-sim`` — is this loop driving the service's *own* policy objects in
virtual time.  :class:`~repro.service.admission.AdmissionController`
decides through ``offer`` / ``release`` which arrival takes a slot,
which waits (priority, then FIFO), which is **shed** under its class's
shrinking allowance, and which waiter a freed slot goes to;
:class:`~repro.service.service.DegradationLadder` drops
``verified_reads`` to plain quorum reads while the queue is under
pressure.  The runner keeps only the clock, the arrivals and the heap of
in-flight completions: no queue, no allowance arithmetic, no thresholds,
no thread.  A job's service time is the real modelled-network cost of
its statement against the live
:class:`~repro.client.datasource.DataSource`, so one seed gives the same
queue trajectories, shed counts and latency quantiles on any machine —
what makes the overload gates CI-stable (and threads would buy no wall
clock: providers answer in-line; DESIGN.md §13).

Open and closed loop are two **arrival disciplines** of the one loop.
:func:`run_open_loop`: every event arrives at its generated timestamp
whether or not earlier ones finished.  :func:`run_closed_loop`: the
events are dealt round-robin to a fixed population of clients, and a
client's next statement arrives at its previous one's modelled finish
(known as soon as the job starts) — or, if that one was shed, when the
next slot frees.

Every executed query is checked against a plaintext mirror that applies
writes in execution order, so "zero incorrect results under 4× load" is
a real end-to-end correctness claim, not a status-code count.  Outcomes
land in the SLO metrics (:mod:`repro.service.slo`) and the returned
report embeds the rollup.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..client.datasource import DataSource
from ..errors import ConfigurationError, ReproError, ServiceOverloadedError
from ..sqlengine.catalog import Catalog
from ..sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from ..sqlengine.query import Insert
from ..sqlengine.schema import TableSchema
from ..sqlengine.sqlparser import parse_sql
from ..sqlengine.table import Table
from ..workloads.traffic import TrafficEvent, TrafficProfile, generate_traffic
from .admission import AdmissionController, priority_name
from .service import DegradationLadder
from .slo import (
    COMPLETED_METRIC,
    FAILED_METRIC,
    INCORRECT_METRIC,
    observe_latency,
    slo_report,
)

#: One client: when its first statement arrives, and the statements it
#: will send, each after the previous one's finish.
Stream = Tuple[float, Deque[TrafficEvent]]

#: Floor on a query's modelled service time: a fully cache-hit query can
#: cost zero modelled network seconds, and zero-width service would make
#: a virtual server infinitely fast.
MIN_SERVICE_SECONDS = 1e-9


def estimate_capacity(
    source: DataSource,
    eids: Sequence[int],
    max_in_flight: int = 8,
    probes: int = 50,
    seed: int = 11,
) -> Dict[str, float]:
    """Measure the deployment's modelled capacity with a light probe.

    Runs a sparse, **read-only** probe stream (writes would perturb the
    table the real run is about to flood) and derives capacity as
    ``max_in_flight / mean_service_seconds`` — the rate at which the
    virtual servers can drain work.  Callers use the returned
    ``capacity_qps`` to express offered load as a multiple of capacity
    ("4×"), which is what makes the overload gates meaningful across
    deployment sizes.  Deterministic per seed, like everything else.
    """
    probe_profile = TrafficProfile(
        mean_interarrival=10.0,  # sparse: every probe sees an idle service
        mix=(0.55, 0.25, 0.20, 0.0, 0.0),
    )
    events = generate_traffic(eids, probes, seed=seed, profile=probe_profile)
    report = run_open_loop(
        source,
        events,
        max_in_flight=max_in_flight,
        queue_limit=0,
        check_results=False,
    )
    mean_service = report["modelled_network_seconds"] / max(
        report["completed"], 1
    )
    mean_service = max(mean_service, MIN_SERVICE_SECONDS)
    return {
        "mean_service_seconds": round(mean_service, 6),
        "capacity_qps": round(max_in_flight / mean_service, 2),
    }


class PlaintextMirror:
    """Execution-order oracle for traffic events.

    A :class:`~repro.sqlengine.executor.PlaintextExecutor` over the full
    plaintext table.  Each event's SQL runs against it *when the service
    executes it* (not when it arrives), so the expected answer for every
    query reflects exactly the mutations the real source has applied so
    far — arrival order and execution order diverge under queueing.
    """

    def __init__(self, schema: TableSchema, rows: Sequence[Dict]) -> None:
        catalog = Catalog()
        catalog.add_table(Table(schema, rows))
        self.oracle = PlaintextExecutor(catalog)

    def check_and_apply(self, event: TrafficEvent, actual: object) -> bool:
        """Whether ``actual`` matches the plaintext truth; applies writes."""
        expected = self.oracle.execute(parse_sql(event.sql))
        if isinstance(expected, list):
            return isinstance(actual, list) and rows_equal_unordered(
                actual, expected
            )
        return actual == expected


def run_open_loop(
    source: DataSource,
    events: Sequence[TrafficEvent],
    max_in_flight: int = 8,
    queue_limit: int = 32,
    check_results: bool = True,
) -> Dict[str, object]:
    """Run an open-loop event stream to completion; the overload report.

    Each event arrives at its own ``arrival`` timestamp.  With
    ``check_results`` every answer is compared against the plaintext
    mirror — the report's ``incorrect`` must be zero for the overload
    gate to pass.
    """
    streams = [(event.arrival, deque((event,))) for event in events]
    return _simulate(
        source, streams, source.sql, max_in_flight, queue_limit, check_results
    )


def run_closed_loop(
    source: DataSource,
    events: Sequence[TrafficEvent],
    clients: int,
    max_in_flight: int = 8,
    queue_limit: int = 32,
    transactional: bool = False,
) -> Dict[str, object]:
    """Run ``events`` through ``clients`` closed-loop clients; same report.

    The statements are dealt round-robin to the clients (their generated
    timestamps are ignored): every client sends its first at time zero
    and each later one when the previous finishes.  ``transactional``
    routes every statement through one shared
    :class:`~repro.txn.TransactionManager` (client WAL + one ``txn_apply``
    round per commit) and adds its counters to the report as ``txn``.
    """
    if clients < 1:
        raise ConfigurationError(f"clients must be >= 1, got {clients}")
    streams = [(0.0, deque(events[c::clients])) for c in range(clients)]
    if not transactional:
        return _simulate(source, streams, source.sql, max_in_flight, queue_limit)
    from ..txn import TransactionManager

    manager = TransactionManager(source)

    def execute(text: str) -> object:
        statement = parse_sql(text)
        result = manager.execute(statement)
        # INSERT answers with its row id: an allocation detail, not a count
        return 1 if isinstance(statement, Insert) else result

    try:
        report = _simulate(source, streams, execute, max_in_flight, queue_limit)
        report["txn"] = manager.stats()
    finally:
        manager.close()
    return report


def _simulate(
    source: DataSource,
    streams: Sequence[Stream],
    execute: Callable[[str], object],
    max_in_flight: int,
    queue_limit: int,
    check_results: bool = True,
) -> Dict[str, object]:
    """The event loop: arrivals and completions in modelled-time order.

    An arrival is offered to admission (slot, queue place or shed); a
    completion releases its slot, which admission hands to the best
    waiter.  The degradation ladder is consulted at every event: at an
    arrival, after an enqueue, and at a completion before its slot moves
    on.  Ties go to the completion, then to the earlier stream.
    """
    network = source.cluster.network
    admission = AdmissionController(max_in_flight, queue_limit)
    ladder = DegradationLadder(source, admission)
    mirror: Optional[PlaintextMirror] = None
    if check_results:
        mirror = PlaintextMirror(
            source.sharing("Employees").schema,
            source.sql("SELECT * FROM Employees"),
        )
    start_modelled = network.modelled_seconds
    start_bytes = network.total_bytes
    start_messages = network.total_messages

    completed = failed = offered = degraded_served = 0
    busy_seconds = last_finish = last_arrival = 0.0
    incorrect: List[str] = []
    # (time, tie-break, ...) heaps; `waiting` maps a queued admission
    # ticket to the arrival it stands for
    arrivals = [
        (first, index, stream)
        for index, (first, stream) in enumerate(streams)
        if stream
    ]
    heapq.heapify(arrivals)
    completions: List[Tuple[float, int]] = []
    waiting: Dict[object, Tuple[float, TrafficEvent, int, Deque]] = {}
    started = 0

    def start_job(
        arrival: float, event: TrafficEvent, index: int, stream: Deque,
        now: float,
    ) -> None:
        nonlocal completed, failed, degraded_served, started
        nonlocal busy_seconds, last_finish
        pname = priority_name(event.priority)
        began = network.modelled_seconds
        error: Optional[str] = None
        actual: object = None
        try:
            actual = execute(event.sql)
        except ReproError as exc:
            error = str(exc)
        service_seconds = max(
            network.modelled_seconds - began, MIN_SERVICE_SECONDS
        )
        finish = now + service_seconds
        started += 1
        heapq.heappush(completions, (finish, started))
        if stream:
            heapq.heappush(arrivals, (finish, index, stream))
        busy_seconds += service_seconds
        last_finish = max(last_finish, finish)
        if error is not None:
            failed += 1
            telemetry.count(FAILED_METRIC, priority=pname)
            return
        completed += 1
        telemetry.count(COMPLETED_METRIC, priority=pname)
        observe_latency(finish - arrival, pname)
        if not event.is_write and ladder.note_read(event.priority):
            degraded_served += 1
        if mirror is not None and not mirror.check_and_apply(event, actual):
            incorrect.append(event.sql)
            telemetry.count(INCORRECT_METRIC, priority=pname)

    try:
        while arrivals or completions:
            if completions and (
                not arrivals or completions[0][0] <= arrivals[0][0]
            ):
                now, _ = heapq.heappop(completions)
                ladder.update()
                ticket = admission.release()
                if ticket is not None:
                    start_job(*waiting.pop(ticket), now)
                continue
            now, index, stream = heapq.heappop(arrivals)
            event = stream.popleft()
            offered += 1
            last_arrival = now
            ladder.update()
            try:
                ticket = admission.offer(event.priority)
            except ServiceOverloadedError:  # admission counted the shed
                if stream:  # the client backs off until a slot frees
                    heapq.heappush(
                        arrivals, (completions[0][0], index, stream)
                    )
                continue
            if ticket.granted:
                start_job(now, event, index, stream, now)
            else:
                waiting[ticket] = (now, event, index, stream)
                ladder.update()
    finally:
        ladder.restore()
    assert not waiting, "the admission queue must drain once servers finish"

    makespan = max(last_finish, last_arrival)
    report: Dict[str, object] = {
        "offered": offered,
        "completed": completed,
        "failed": failed,
        "shed": admission.rejected_total,
        "incorrect": len(incorrect),
        "incorrect_examples": incorrect[:5],
        "degraded_served": degraded_served,
        "degrade_spans": ladder.spans,
        "arrival_seconds": round(last_arrival, 6),
        "makespan_seconds": round(makespan, 6),
        "offered_qps": (
            round(offered / last_arrival, 2) if last_arrival else 0.0
        ),
        "goodput_qps": round(completed / makespan, 2) if makespan else 0.0,
        "utilization": (
            round(busy_seconds / (makespan * max_in_flight), 4)
            if makespan
            else 0.0
        ),
        "modelled_network_seconds": round(
            network.modelled_seconds - start_modelled, 6
        ),
        "network_bytes": network.total_bytes - start_bytes,
        "network_messages": network.total_messages - start_messages,
        "admission": admission.snapshot(),
        "health": source.cluster.health.snapshot(),
    }
    if telemetry.is_enabled():
        report["slo"] = slo_report()
    return report
