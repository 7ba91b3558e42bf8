"""Deterministic open-loop overload execution (discrete-event, modelled).

:func:`run_open_loop` drives an open-loop arrival stream (from
:mod:`repro.workloads.traffic`) through a modelled service with
``max_in_flight`` virtual servers and a bounded priority queue — as a
**discrete-event simulation on the modelled clock**, not wall-clock
threads.  That choice is what makes the overload gates CI-stable: the
same seed yields the same arrivals, the same per-query service times
(measured as the real modelled-network cost of executing each query
against the live :class:`~repro.client.datasource.DataSource`), and
therefore the same queue trajectories, shed counts, and latency
quantiles, on any machine at any load multiple.

Mechanics per arriving event:

1. virtual servers that finished before the arrival complete, each
   freed slot going to the best queued query (priority, then FIFO);
2. the degradation ladder updates from queue occupancy — at
   ``degrade_at`` the source's ``verified_reads`` drops to plain quorum
   reads (cheaper, still correct), restored at ``restore_at``
   (hysteresis so the mode doesn't flap);
3. the arrival takes a free slot if one exists, else queues under its
   priority class's shrinking allowance
   (:meth:`~repro.service.admission.AdmissionController.queue_limit_for`),
   else is **shed** — background first, interactive last.

Every executed query is checked against a plaintext mirror that applies
writes in execution order, so the overload gate's "zero incorrect
results under 4× load" is a real end-to-end correctness claim, not a
status-code count.  Outcomes land in the SLO metrics
(:mod:`repro.service.slo`) and the returned report embeds the rollup.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..client.datasource import DataSource
from ..errors import ConfigurationError, ReproError
from ..sqlengine.catalog import Catalog
from ..sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from ..sqlengine.schema import TableSchema
from ..sqlengine.sqlparser import parse_sql
from ..sqlengine.table import Table
from ..workloads.traffic import TrafficEvent, TrafficProfile, generate_traffic
from .admission import AdmissionController, priority_name
from .slo import (
    COMPLETED_METRIC,
    DEGRADED_METRIC,
    FAILED_METRIC,
    INCORRECT_METRIC,
    SHED_METRIC,
    observe_latency,
    slo_report,
)

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
    degrade_at: float = 0.5,
    restore_at: float = 0.2,
    availability_target: float = 0.999,
    check_results: bool = True,
) -> Dict[str, object]:
    """Run an event stream to completion; return the overload report.

    ``degrade_at``/``restore_at`` are queue-occupancy fractions for the
    verified-read degradation ladder (ignored when the source does not
    use verified reads).  With ``check_results`` every answer is
    compared against the plaintext mirror — the report's ``incorrect``
    must be zero for the overload gate to pass.
    """
    if not 0.0 <= restore_at <= degrade_at <= 1.0:
        raise ConfigurationError(
            f"need 0 <= restore_at <= degrade_at <= 1, got "
            f"restore_at={restore_at}, degrade_at={degrade_at}"
        )
    events = sorted(events, key=lambda e: e.arrival)
    network = source.cluster.network
    admission = AdmissionController(max_in_flight, queue_limit)
    mirror: Optional[PlaintextMirror] = None
    if check_results:
        mirror = PlaintextMirror(
            source.sharing("Employees").schema,
            source.sql("SELECT * FROM Employees"),
        )
    premium = bool(source.verified_reads)
    start_modelled = network.modelled_seconds
    start_bytes = network.total_bytes
    start_messages = network.total_messages

    state = {
        "degraded": False,
        "degrade_spans": 0,
        "completed": 0,
        "failed": 0,
        "shed": 0,
        "degraded_served": 0,
        "busy_seconds": 0.0,
        "last_finish": 0.0,
        "seq": 0,
    }
    incorrect: List[str] = []
    completions: List[Tuple[float, int, TrafficEvent]] = []  # server heap
    queue: List[Tuple[int, int, TrafficEvent]] = []  # (priority, seq)

    def set_degraded(on: bool) -> None:
        if not premium or state["degraded"] == on:
            return
        state["degraded"] = on
        # transparently downgrade reads: plain quorum reads are cheaper
        # but still reconstruct the same values — correctness is never
        # traded, only tamper-evidence, and only until pressure drops
        source.verified_reads = not on
        if on:
            state["degrade_spans"] += 1
            telemetry.count("service.degrade_enter")
        else:
            telemetry.count("service.degrade_exit")

    def update_ladder() -> None:
        if queue_limit <= 0:
            return
        occupancy = len(queue) / queue_limit
        if not state["degraded"] and occupancy >= degrade_at:
            set_degraded(True)
        elif state["degraded"] and occupancy <= restore_at:
            set_degraded(False)

    def start_job(event: TrafficEvent, now: float) -> None:
        pname = priority_name(event.priority)
        served_degraded = (
            premium and state["degraded"] and not event.is_write
        )
        began = network.modelled_seconds
        error: Optional[str] = None
        actual: object = None
        try:
            actual = source.sql(event.sql)
        except ReproError as exc:
            error = str(exc)
        service_seconds = max(
            network.modelled_seconds - began, MIN_SERVICE_SECONDS
        )
        finish = now + service_seconds
        state["seq"] += 1
        heapq.heappush(completions, (finish, state["seq"], event))
        state["busy_seconds"] += service_seconds
        state["last_finish"] = max(state["last_finish"], finish)
        if error is not None:
            state["failed"] += 1
            telemetry.count(FAILED_METRIC, priority=pname)
            return
        state["completed"] += 1
        telemetry.count(COMPLETED_METRIC, priority=pname)
        observe_latency(finish - event.arrival, pname)
        if served_degraded:
            state["degraded_served"] += 1
            telemetry.count(DEGRADED_METRIC, priority=pname)
        if mirror is not None and not mirror.check_and_apply(event, actual):
            incorrect.append(event.sql)
            telemetry.count(INCORRECT_METRIC, priority=pname)

    def drain_until(virtual_time: float) -> None:
        """Complete every server finishing by ``virtual_time``; refill."""
        while completions and completions[0][0] <= virtual_time:
            finish, _, _ = heapq.heappop(completions)
            admission.release()
            update_ladder()
            if queue:
                _, _, queued_event = heapq.heappop(queue)
                admission.note_queue_depth(len(queue))
                if admission.try_acquire(queued_event.priority):
                    start_job(queued_event, finish)

    try:
        for event in events:
            drain_until(event.arrival)
            update_ladder()
            if admission.try_acquire(event.priority):
                start_job(event, event.arrival)
                continue
            allowance = admission.queue_limit_for(event.priority)
            if len(queue) < allowance:
                state["seq"] += 1
                heapq.heappush(
                    queue, (event.priority, state["seq"], event)
                )
                admission.note_queue_depth(len(queue))
                update_ladder()
            else:
                state["shed"] += 1
                admission.record_shed(event.priority)
                telemetry.count(
                    SHED_METRIC,
                    priority=priority_name(event.priority),
                    reason="queue_full",
                )
        drain_until(float("inf"))
    finally:
        source.verified_reads = premium  # restore the configured mode
    assert not queue, "virtual queue must drain once all servers finish"

    offered = len(events)
    arrival_span = events[-1].arrival if events else 0.0
    makespan = max(state["last_finish"], arrival_span)
    report: Dict[str, object] = {
        "offered": offered,
        "completed": state["completed"],
        "failed": state["failed"],
        "shed": state["shed"],
        "incorrect": len(incorrect),
        "incorrect_examples": incorrect[:5],
        "degraded_served": state["degraded_served"],
        "degrade_spans": state["degrade_spans"],
        "arrival_seconds": round(arrival_span, 6),
        "makespan_seconds": round(makespan, 6),
        "offered_qps": (
            round(offered / arrival_span, 2) if arrival_span else 0.0
        ),
        "goodput_qps": (
            round(state["completed"] / makespan, 2) if makespan else 0.0
        ),
        "utilization": (
            round(
                state["busy_seconds"] / (makespan * max_in_flight), 4
            )
            if makespan
            else 0.0
        ),
        "modelled_network_seconds": round(
            network.modelled_seconds - start_modelled, 6
        ),
        "network_bytes": network.total_bytes - start_bytes,
        "network_messages": network.total_messages - start_messages,
        "admission": admission.snapshot(),
    }
    breakers = getattr(source.cluster, "breakers", None)
    if breakers is not None:
        report["breakers"] = breakers.snapshot()
    if telemetry.is_enabled():
        report["slo"] = slo_report(availability_target=availability_target)
    return report
