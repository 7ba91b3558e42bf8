"""Admission control: bounds, backpressure, and the reject counter."""

import threading
import time

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ServiceOverloadedError
from repro.service import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    priority_level,
    priority_name,
)
from repro.service.slo import slo_report


def fill_queue(controller, count):
    """Spawn ``count`` threads that block in acquire(); wait until queued."""
    started = []
    threads = []
    for _ in range(count):
        thread = threading.Thread(target=lambda: (controller.acquire(), started.append(1)))
        thread.start()
        threads.append(thread)
    deadline = threading.Event()
    for _ in range(500):
        if controller.queued == count:
            break
        deadline.wait(0.005)
    assert controller.queued == count
    return threads


class TestBounds:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(0, 1)
        with pytest.raises(ConfigurationError):
            AdmissionController(1, -1)

    def test_admits_up_to_max_in_flight(self):
        controller = AdmissionController(max_in_flight=3, queue_limit=0)
        for _ in range(3):
            controller.acquire()
        assert controller.in_flight == 3
        assert controller.admitted_total == 3

    def test_release_requires_acquire(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(1, 0).release()


class TestRejection:
    def test_m_plus_q_plus_first_query_rejected(self):
        """The acceptance-criteria shape: M in flight, Q queued, the
        (M+Q+1)-th concurrent query is rejected and the counter moves."""
        M, Q = 3, 2
        controller = AdmissionController(max_in_flight=M, queue_limit=Q)
        with telemetry.session() as hub:
            for _ in range(M):
                controller.acquire()
            queued_threads = fill_queue(controller, Q)
            assert controller.in_flight == M
            assert controller.queued == Q
            with pytest.raises(ServiceOverloadedError) as excinfo:
                controller.acquire()
            assert controller.rejected_total == 1
            assert hub.registry.counter_total("slo.shed") == 1
            # the error names both limits so callers can size retry policy
            assert str(M) in str(excinfo.value)
            assert str(Q) in str(excinfo.value)
            # drain: each release wakes one queued thread, which admits
            for _ in range(M):
                controller.release()
            for thread in queued_threads:
                thread.join(timeout=2.0)
            assert controller.in_flight == Q  # the woken queued queries
            for _ in range(Q):
                controller.release()
        assert controller.in_flight == 0
        assert controller.queued == 0
        assert controller.admitted_total == M + Q

    def test_every_rejection_reaches_the_slo_report(self):
        """The controller itself counts ``slo.shed{priority, reason}``, so
        a live service's sheds — a full queue and a queue-wait timeout —
        show up in ``slo_report`` without the simulation runner."""
        with telemetry.session():
            full = AdmissionController(1, 0)
            full.acquire(priority="interactive")
            with pytest.raises(ServiceOverloadedError):
                full.acquire(priority="interactive")
            waited = AdmissionController(1, 1)
            waited.acquire(priority="batch")
            with pytest.raises(ServiceOverloadedError):
                waited.acquire(timeout=0.01, priority="interactive")
            report = slo_report()
        assert full.rejected_total == waited.rejected_total == 1
        interactive = report["by_priority"]["interactive"]
        assert interactive["shed_queue_full"] == 1
        assert interactive["shed_timeout"] == 1
        assert interactive["shed"] == 2
        assert report["by_priority"]["batch"]["shed"] == 0

    def test_zero_queue_rejects_immediately(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=0)
        controller.acquire()
        with pytest.raises(ServiceOverloadedError):
            controller.acquire()
        controller.release()
        controller.acquire()  # slot free again

    def test_queue_wait_timeout_rejects(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=1)
        controller.acquire()
        with pytest.raises(ServiceOverloadedError):
            controller.acquire(timeout=0.01)
        assert controller.rejected_total == 1
        assert controller.queued == 0  # the waiter cleaned up after itself

    def test_queued_query_runs_after_release(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=1)
        controller.acquire()
        (thread,) = fill_queue(controller, 1)
        controller.release()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert controller.in_flight == 1
        assert controller.rejected_total == 0

    def test_snapshot_shape(self):
        controller = AdmissionController(2, 4)
        controller.acquire()
        snap = controller.snapshot()
        assert snap["in_flight"] == 1
        assert snap["max_in_flight"] == 2
        assert snap["queue_limit"] == 4
        assert snap["admitted_total"] == 1
        assert snap["rejected_total"] == 0


class TestPriorityHelpers:
    def test_levels_and_names_round_trip(self):
        assert priority_level(None) == PRIORITY_INTERACTIVE
        assert priority_level("interactive") == PRIORITY_INTERACTIVE
        assert priority_level("batch") == PRIORITY_BATCH
        assert priority_level("background") == PRIORITY_BACKGROUND
        assert priority_level(1) == 1
        assert priority_name(PRIORITY_BATCH) == "batch"

    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            priority_level("urgent")
        with pytest.raises(ConfigurationError):
            priority_level(3)
        with pytest.raises(ConfigurationError):
            priority_level(-1)

    def test_queue_allowance_shrinks_with_priority(self):
        controller = AdmissionController(1, queue_limit=12)
        assert controller.queue_limit_for(PRIORITY_INTERACTIVE) == 12
        assert controller.queue_limit_for(PRIORITY_BATCH) == 8
        assert controller.queue_limit_for(PRIORITY_BACKGROUND) == 4

    def test_background_shed_first(self):
        """Once the queue passes the background allowance, background
        arrivals are rejected while interactive ones still queue."""
        controller = AdmissionController(max_in_flight=1, queue_limit=6)
        controller.acquire()
        threads = fill_queue(controller, 2)  # interactive waiters
        with pytest.raises(ServiceOverloadedError):
            controller.acquire(priority="background")  # allowance 2 full
        # interactive still has room: a short-timeout wait times out
        # rather than being rejected outright at enqueue time
        with pytest.raises(ServiceOverloadedError) as excinfo:
            controller.acquire(priority="interactive", timeout=0.02)
        assert "no slot freed" in str(excinfo.value)
        for _ in range(3):
            controller.release()
        for thread in threads:
            thread.join(timeout=2.0)

    def test_release_grants_highest_priority_first(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=6)
        controller.acquire()
        admitted = []
        order = ["background", "batch", "interactive"]
        threads = []
        for name in order:  # worst priority enqueues first
            thread = threading.Thread(
                target=lambda n=name: (
                    controller.acquire(priority=n),
                    admitted.append(n),
                )
            )
            thread.start()
            threads.append(thread)
            for _ in range(500):
                if controller.queued == len(threads):
                    break
                time.sleep(0.002)
        for _ in range(3):
            controller.release()
            time.sleep(0.02)
        for thread in threads:
            thread.join(timeout=2.0)
        assert admitted == ["interactive", "batch", "background"]
        # each release handed its slot straight on; one remains held
        assert controller.in_flight == 1
        controller.release()


class TestTimeoutSemantics:
    def test_timeout_zero_admits_when_free(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=4)
        controller.acquire(timeout=0)  # free slot: no queueing needed
        assert controller.in_flight == 1
        controller.release()

    def test_timeout_zero_rejects_without_queueing(self):
        """timeout=0 is a non-blocking probe: saturated means an
        immediate rejection, never a queue entry."""
        controller = AdmissionController(max_in_flight=1, queue_limit=4)
        controller.acquire()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            controller.acquire(timeout=0)
        assert "timeout=0" in str(excinfo.value)
        assert controller.queued == 0
        assert controller.rejected_total == 1
        controller.release()

    def test_spurious_wakeups_do_not_extend_deadline(self):
        """Regression for the deadline-drift bug: the old loop passed
        the *full* timeout to every ``Condition.wait``, so a waiter
        woken repeatedly (without being granted) restarted its clock
        each time and could over-wait without bound.  Here a pounder
        thread notifies the waiter's condition every 20ms — far more
        often than the 250ms timeout — and the waiter must still time
        out on schedule.  On the pre-fix code path this provably hangs:
        every wakeup re-arms a fresh 250ms wait, so the waiter never
        reaches its deadline while the pounder runs (>= 2s here).
        """
        controller = AdmissionController(max_in_flight=1, queue_limit=1)
        controller.acquire()
        stop = threading.Event()

        def pound():
            # wake the queued ticket's condition without granting it
            while not stop.is_set():
                with controller._lock:
                    for _, _, ticket in controller._heap:
                        if not ticket.granted and not ticket.abandoned:
                            ticket.cond.notify()
                time.sleep(0.02)

        pounder = threading.Thread(target=pound)
        pounder.start()
        try:
            start = time.monotonic()
            with pytest.raises(ServiceOverloadedError):
                controller.acquire(timeout=0.25)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            pounder.join(timeout=2.0)
        assert elapsed < 2.0, (
            f"waiter over-waited its 0.25s deadline by {elapsed - 0.25:.2f}s "
            f"— full-timeout restart per wakeup (deadline drift)"
        )
        assert controller.timed_out_total == 1
        assert controller.queued == 0
        controller.release()

    def test_grant_racing_timeout_keeps_the_slot(self):
        """Regression for the lost-wakeup hazard: a grant that lands
        while the waiter is timing out must not be dropped.  The waiter
        is forced past its deadline while the lock is held, then the
        slot is granted to it before it can re-check; pre-fix the waiter
        raised overload anyway and the granted slot was stranded."""
        controller = AdmissionController(max_in_flight=1, queue_limit=1)
        controller.acquire()
        outcome = {}

        def wait_briefly():
            try:
                controller.acquire(timeout=0.05)
                outcome["admitted"] = True
            except ServiceOverloadedError:
                outcome["admitted"] = False

        waiter = threading.Thread(target=wait_briefly)
        waiter.start()
        for _ in range(500):
            if controller.queued == 1:
                break
            time.sleep(0.002)
        assert controller.queued == 1
        with controller._lock:
            # hold the lock past the waiter's deadline so its timed-out
            # wait() blocks re-acquiring, then grant it the freed slot
            time.sleep(0.1)
            controller._release_locked()
        waiter.join(timeout=2.0)
        assert outcome == {"admitted": True}, (
            "grant racing the timeout was discarded (lost wakeup)"
        )
        assert controller.in_flight == 1  # the waiter holds the slot
        controller.release()
        assert controller.in_flight == 0
        # nothing stranded: the slot is immediately acquirable
        controller.acquire(timeout=0)
        controller.release()


class TestConcurrentAccounting:
    def test_counters_balance_under_barrier_storm(self):
        """queued_peak / admitted / rejected stay consistent when many
        threads hit acquire() simultaneously from a barrier."""
        M, Q, N = 2, 4, 12
        controller = AdmissionController(max_in_flight=M, queue_limit=Q)
        barrier = threading.Barrier(N)
        results = []
        results_lock = threading.Lock()

        def storm():
            barrier.wait()
            try:
                controller.acquire(timeout=2.0)
            except ServiceOverloadedError:
                with results_lock:
                    results.append("rejected")
                return
            time.sleep(0.01)
            controller.release()
            with results_lock:
                results.append("admitted")

        threads = [threading.Thread(target=storm) for _ in range(N)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(results) == N
        snap = controller.snapshot()
        admitted = results.count("admitted")
        rejected = results.count("rejected")
        assert snap["admitted_total"] == admitted
        assert snap["rejected_total"] == rejected
        assert admitted + rejected == N
        # more arrivals than M+Q guarantees queueing and some shedding
        assert admitted >= M + Q
        assert 0 < snap["queued_peak"] <= Q
        assert snap["in_flight"] == 0
        assert snap["queued"] == 0

    def test_release_vs_timeout_races_never_strand_slots(self):
        """Repeatedly race release() against a short queue-wait timeout;
        whatever the interleaving, the slot must end up either with the
        waiter or back in the free pool — never stranded."""
        controller = AdmissionController(max_in_flight=1, queue_limit=1)
        for round_no in range(50):
            controller.acquire()
            outcome = {}

            def wait_briefly():
                try:
                    controller.acquire(timeout=0.005)
                    outcome["admitted"] = True
                except ServiceOverloadedError:
                    outcome["admitted"] = False

            waiter = threading.Thread(target=wait_briefly)
            waiter.start()
            for _ in range(500):
                if controller.queued == 1 or not waiter.is_alive():
                    break
                time.sleep(0.0005)
            # jitter the release around the waiter's deadline
            time.sleep(0.005 * (round_no % 3) / 2)
            controller.release()
            waiter.join(timeout=2.0)
            assert not waiter.is_alive()
            if outcome["admitted"]:
                controller.release()
            # the invariant: a fresh non-blocking acquire always works
            controller.acquire(timeout=0)
            controller.release()
        snap = controller.snapshot()
        assert snap["in_flight"] == 0
        assert snap["queued"] == 0
        assert snap["timed_out_total"] == snap["rejected_total"]


class TestNonBlockingCore:
    """offer() / release(): the admission policy without the wait — what
    the virtual-time simulation runner drives."""

    def test_offer_grants_queues_then_rejects(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=3)
        first = controller.offer()
        assert first.granted
        queued = controller.offer("batch")
        assert not queued.granted
        assert (controller.in_flight, controller.queued) == (1, 1)
        # background's allowance (3 * 1/3 = 1) is already taken
        with pytest.raises(ServiceOverloadedError) as excinfo:
            controller.offer("background")
        assert "background allowance 1" in str(excinfo.value)
        assert controller.snapshot()["rejected_by_priority"] == {
            "interactive": 0, "batch": 0, "background": 1,
        }

    def test_release_returns_the_ticket_it_granted(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=6)
        controller.offer()
        background = controller.offer("background")
        batch = controller.offer("batch")
        interactive = controller.offer("interactive")
        later = controller.offer("interactive")
        assert controller.queued_peak == 4
        order = [controller.release() for _ in range(4)]
        # priority first, then arrival order within a class
        assert order == [interactive, later, batch, background]
        assert all(ticket.granted for ticket in order)
        assert controller.release() is None  # nobody left to hand it to
        assert (controller.in_flight, controller.queued) == (0, 0)
        assert controller.admitted_total == 5

    def test_queue_count_drops_at_the_grant(self):
        """Regression: the slot handoff used to leave the granted ticket
        counted as queued until its *waiter* woke and decremented, so an
        arrival in that window saw a free slot behind a phantom queue —
        it failed the fast path, then the allowance check, and was shed
        from an idle service.  ``AdmissionController(2, 1)``: A and B in
        flight, C queued; release, release — then a new arrival must be
        admitted, and pressure must read empty."""
        controller = AdmissionController(max_in_flight=2, queue_limit=1)
        controller.offer()
        controller.offer()
        waiter = controller.offer()
        assert controller.pressure() == 1.0
        assert controller.release() is waiter
        assert controller.queued == 0  # granted: no longer queued
        assert controller.pressure() == 0.0
        assert controller.release() is None
        assert controller.in_flight == 1  # the waiter's slot
        assert controller.offer().granted  # free slot, empty queue
        assert controller.rejected_total == 0

    def test_threaded_waiter_does_not_shed_the_next_arrival(self):
        """The same window through blocking acquire(): the main thread
        arrives right after the grant, usually before the waiter thread
        has been scheduled (300 of 300 trials shed before the fix)."""
        for _ in range(50):
            controller = AdmissionController(max_in_flight=2, queue_limit=1)
            controller.acquire()
            controller.acquire()
            (waiter,) = fill_queue(controller, 1)
            controller.release()
            controller.release()
            controller.acquire(timeout=0.5)
            waiter.join(timeout=2.0)
            assert not waiter.is_alive()
            assert controller.snapshot()["rejected_total"] == 0
            assert (controller.in_flight, controller.queued) == (2, 0)

    def test_blocking_and_non_blocking_waiters_share_one_queue(self):
        controller = AdmissionController(max_in_flight=1, queue_limit=4)
        controller.acquire()
        (thread,) = fill_queue(controller, 1)  # interactive, blocking
        ticket = controller.offer("batch")
        assert controller.queued == 2
        assert controller.release() is not ticket  # the thread's ticket
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert controller.release() is ticket
        controller.release()
        assert (controller.in_flight, controller.queued) == (0, 0)
