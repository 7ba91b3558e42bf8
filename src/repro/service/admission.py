"""Admission control: bounded concurrency, priority queueing, shedding.

A DBSP serves many tenants from shared providers (paper Sec. I); without
admission control a traffic spike turns into unbounded thread growth and
collapsing provider queues.  :class:`AdmissionController` enforces two
bounds:

* ``max_in_flight`` — queries executing concurrently;
* ``queue_limit`` — queries allowed to *wait* for an execution slot.

The queue is the load-leveling buffer between an open-loop arrival
stream and a fixed-capacity service: bursts are absorbed up to the
bound, and beyond it work is **shed loudly** with
:class:`~repro.errors.ServiceOverloadedError` — tell the client to back
off instead of degrading everyone.

Priority classes (``interactive`` > ``batch`` > ``background``) shape
*which* work is shed first.  Each class may only occupy a shrinking
share of the queue (:meth:`queue_limit_for`), so as the queue fills the
lowest class is rejected first while interactive traffic still finds
room, and a freed slot is always handed to the highest-priority,
longest-waiting query.

The policy has a **non-blocking core**: :meth:`AdmissionController.offer`
answers an arrival with an admitted ticket, a queued ticket, or a
rejection, and :meth:`AdmissionController.release` returns the queued
ticket the freed slot went to.  The virtual-time simulation runner
(:mod:`repro.service.overload`) drives exactly that pair; blocking
:meth:`AdmissionController.acquire` is ``offer`` plus the wait.

Slot handoff is **direct**: ``release`` pops the best waiting ticket,
admits it on the waiter's behalf — it stops counting as queued at that
moment, not when its waiter wakes — and notifies only that ticket's
condition.  Three timing bugs are structurally impossible this way:
*deadline drift* (waits compute one absolute deadline and pass each
wakeup only the remaining time), the *lost wakeup* (a grant transfers
the slot with the notification; a granted waiter that is already
unwinding releases it again, which re-grants to the next ticket), and
the *phantom queue* (an arrival between a grant and its waiter's wakeup
never finds a free slot behind a non-empty queue count).

Queue depth is exported as a telemetry gauge and every
admit/reject/shed as a labelled counter, so the simulation reports can
show saturation per priority class.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from .. import telemetry
from ..errors import ConfigurationError, ServiceOverloadedError

#: Priority levels, highest first.  Lower number = more important =
#: served first and shed last.
PRIORITY_INTERACTIVE = 0
PRIORITY_BATCH = 1
PRIORITY_BACKGROUND = 2

PRIORITY_NAMES: Tuple[str, ...] = ("interactive", "batch", "background")

#: The one shed counter, ``slo.shed{priority, reason}``: every rejection
#: lands here, so the SLO report (:mod:`repro.service.slo`) sees a live
#: service's sheds as well as the simulation runner's.
SHED_METRIC = "slo.shed"

_LEVEL_BY_NAME = {name: level for level, name in enumerate(PRIORITY_NAMES)}


def priority_level(priority: Union[int, str, None]) -> int:
    """Normalise a priority given as level int, class name, or None."""
    if priority is None:
        return PRIORITY_INTERACTIVE
    if isinstance(priority, str):
        try:
            return _LEVEL_BY_NAME[priority]
        except KeyError:
            raise ConfigurationError(
                f"unknown priority {priority!r}; expected one of "
                f"{PRIORITY_NAMES}"
            ) from None
    if not 0 <= priority < len(PRIORITY_NAMES):
        raise ConfigurationError(
            f"priority level must be in [0, {len(PRIORITY_NAMES)}), "
            f"got {priority}"
        )
    return priority


def priority_name(level: int) -> str:
    """The class name of a priority level (for telemetry labels)."""
    return PRIORITY_NAMES[priority_level(level)]


class _Ticket:
    """One offer's outcome: a slot, or a place in the queue.

    ``granted`` means a slot has been transferred to this ticket
    (``_in_flight`` incremented on its behalf, and it no longer counts
    as queued); ``abandoned`` marks a ticket whose waiter gave up,
    skipped lazily when popped.  A *blocking* waiter sleeps on ``cond``,
    a private condition on the shared lock, so a grant can wake exactly
    the chosen waiter — no thundering herd, no notify stealing; a
    non-blocking caller leaves it ``None`` and learns of the grant from
    :meth:`AdmissionController.release`'s return value.
    """

    __slots__ = ("priority", "seq", "granted", "abandoned", "cond")

    def __init__(self, priority: int, seq: int) -> None:
        self.priority = priority
        self.seq = seq
        self.granted = False
        self.abandoned = False
        self.cond: Optional[threading.Condition] = None


class AdmissionController:
    """Counting-semaphore with a bounded priority queue, instrumented."""

    def __init__(
        self,
        max_in_flight: int,
        queue_limit: int,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        self.max_in_flight = max_in_flight
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._heap: List[Tuple[int, int, _Ticket]] = []
        self._seq = 0
        self._in_flight = 0
        self._queued = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.timed_out_total = 0
        self.queued_peak = 0
        self.admitted_by_priority = [0] * len(PRIORITY_NAMES)
        self.rejected_by_priority = [0] * len(PRIORITY_NAMES)

    # ------------------------------------------------------------- policy --

    def queue_limit_for(self, priority: int) -> int:
        """Queue occupancy allowed for a class: shrinks with priority.

        With P levels and queue limit Q, class p may only enter the
        queue while fewer than ``Q * (P - p) / P`` queries wait — the
        head of the queue is reserved for more important work, so under
        pressure background queries are shed first, then batch, and
        interactive last (the full Q).
        """
        levels = len(PRIORITY_NAMES)
        return self.queue_limit * (levels - priority_level(priority)) // levels

    def pressure(self) -> float:
        """Queue occupancy in [0, 1] — the degradation-ladder signal.

        With no queue configured, in-flight occupancy stands in (the
        only pressure signal a queueless controller has).
        """
        with self._lock:
            if self.queue_limit > 0:
                return self._queued / self.queue_limit
            return self._in_flight / self.max_in_flight

    # ------------------------------------------------------------- lifecycle --

    def offer(self, priority: Union[int, str, None] = None) -> _Ticket:
        """The non-blocking core: a slot, a queue place, or a rejection.

        Returns a ticket that is already ``granted`` when a slot is
        free, else a queued one — its slot arrives as the return value
        of a later :meth:`release`.  Raises
        :class:`ServiceOverloadedError` when the priority class's queue
        allowance is exhausted.  The virtual-time simulation runner
        drives admission through this and :meth:`release` alone;
        :meth:`acquire` is this plus the wait.
        """
        with self._lock:
            return self._offer_locked(priority_level(priority))

    def _offer_locked(
        self, level: int, timeout: Optional[float] = None
    ) -> _Ticket:
        ticket = _Ticket(level, self._seq)
        # a free slot implies nobody waits: every release grants until
        # the slots or the waiters run out, and a grant leaves the queue
        if self._in_flight < self.max_in_flight:
            ticket.granted = True
            self._admit_locked(level)
            return ticket
        allowance = self.queue_limit_for(level)
        if self._queued >= allowance:
            self._reject_locked(
                level,
                f"service overloaded: {self._in_flight} queries in flight "
                f"(max {self.max_in_flight}) and {self._queued} queued "
                f"(limit {self.queue_limit}, "
                f"{PRIORITY_NAMES[level]} allowance {allowance}); "
                f"retry later",
            )
        if timeout is not None and timeout <= 0:
            self._reject_locked(
                level,
                f"service overloaded: no free slot and timeout={timeout} "
                f"forbids queueing (max_in_flight={self.max_in_flight})",
            )
        self._seq += 1
        heapq.heappush(self._heap, (level, ticket.seq, ticket))
        self._set_queued_locked(self._queued + 1)
        self.queued_peak = max(self.queued_peak, self._queued)
        return ticket

    def acquire(
        self,
        timeout: Optional[float] = None,
        priority: Union[int, str, None] = None,
    ) -> None:
        """Take an execution slot, queueing if necessary.

        Raises :class:`ServiceOverloadedError` immediately when the
        priority class's queue allowance is exhausted (rejection is the
        backpressure signal), with ``timeout=0`` when no slot is free
        (non-blocking probe semantics), or on queue-wait timeout when a
        positive ``timeout`` is given.  The timeout is an **absolute
        deadline** computed once — wakeups wait only the remaining time.
        """
        level = priority_level(priority)
        with self._lock:
            ticket = self._offer_locked(level, timeout)
            if ticket.granted:
                return
            ticket.cond = threading.Condition(self._lock)
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                while not ticket.granted:
                    if deadline is None:
                        ticket.cond.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not ticket.cond.wait(remaining):
                        if ticket.granted:
                            break  # grant raced the timeout: slot is ours
                        self.timed_out_total += 1
                        self._reject_locked(
                            level,
                            f"service overloaded: no slot freed within "
                            f"{timeout}s "
                            f"(max_in_flight={self.max_in_flight})",
                            shed_reason="timeout",
                        )
            except BaseException:
                if ticket.granted:
                    # interrupted after the grant: hand the slot straight
                    # on so it is never stranded (the lost-wakeup fix)
                    self._release_locked()
                else:
                    ticket.abandoned = True
                    self._set_queued_locked(self._queued - 1)
                raise

    def _set_queued_locked(self, queued: int) -> None:
        self._queued = queued
        telemetry.set_gauge("service.queue_depth", queued)

    def _admit_locked(self, level: int) -> None:
        self._in_flight += 1
        self.admitted_total += 1
        self.admitted_by_priority[level] += 1
        telemetry.count("service.admitted", priority=PRIORITY_NAMES[level])
        telemetry.set_gauge("service.in_flight", self._in_flight)

    def _reject_locked(
        self, level: int, message: str, shed_reason: str = "queue_full"
    ) -> None:
        self.rejected_total += 1
        self.rejected_by_priority[level] += 1
        telemetry.count(
            SHED_METRIC, priority=PRIORITY_NAMES[level], reason=shed_reason
        )
        raise ServiceOverloadedError(message)

    def _grant_next_locked(self) -> Optional[_Ticket]:
        """Hand a free slot to the best waiting ticket (direct handoff).

        The ticket stops counting as queued *here*, not when its waiter
        wakes: between the two an arrival would otherwise see a free
        slot behind a phantom queue and be shed against it.
        """
        granted = None
        while self._in_flight < self.max_in_flight and self._heap:
            _, _, ticket = heapq.heappop(self._heap)
            if ticket.abandoned:
                continue
            granted = ticket
            ticket.granted = True
            self._set_queued_locked(self._queued - 1)
            self._admit_locked(ticket.priority)
            if ticket.cond is not None:
                ticket.cond.notify()
        return granted

    def _release_locked(self) -> Optional[_Ticket]:
        self._in_flight -= 1
        telemetry.set_gauge("service.in_flight", self._in_flight)
        return self._grant_next_locked()

    def release(self) -> Optional[_Ticket]:
        """Return an execution slot; the queued ticket it went to, if any."""
        with self._lock:
            if self._in_flight < 1:
                raise ConfigurationError(
                    "release() without a matching acquire()"
                )
            return self._release_locked()

    # ------------------------------------------------------------ inspection --

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "queued": self._queued,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "timed_out_total": self.timed_out_total,
                "queued_peak": self.queued_peak,
                "max_in_flight": self.max_in_flight,
                "queue_limit": self.queue_limit,
                "admitted_by_priority": {
                    PRIORITY_NAMES[level]: count
                    for level, count in enumerate(self.admitted_by_priority)
                },
                "rejected_by_priority": {
                    PRIORITY_NAMES[level]: count
                    for level, count in enumerate(self.rejected_by_priority)
                },
            }
