"""Unit tests for the provider health tracker (quarantine state machine)."""

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.providers.health import (
    COOLDOWN_SECONDS,
    QUARANTINE_AFTER,
    UNAVAILABLE,
    HealthTracker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracker(clock):
    return HealthTracker(
        5, clock=clock, names=[f"DAS{i + 1}" for i in range(5)]
    )


class TestConstruction:
    def test_bad_parameters(self, clock):
        with pytest.raises(ConfigurationError):
            HealthTracker(0)


class TestQuarantineLifecycle:
    def test_single_failure_not_quarantined(self, tracker):
        tracker.record_failure(0)
        assert not tracker.is_quarantined(0)

    def test_consecutive_failures_quarantine(self, tracker):
        tracker.record_failure(0)
        tracker.record_failure(0)
        assert tracker.is_quarantined(0)

    def test_quarantine_after_exactly_the_constant(self, tracker):
        for _ in range(QUARANTINE_AFTER - 1):
            tracker.record_failure(0)
        assert not tracker.is_quarantined(0)
        tracker.record_failure(0)
        assert tracker.is_quarantined(0)
        assert tracker.snapshot()["DAS1"]["quarantine_reason"] == UNAVAILABLE

    def test_success_resets_failure_streak(self, tracker):
        tracker.record_failure(0)
        tracker.record_success(0)
        tracker.record_failure(0)
        assert not tracker.is_quarantined(0)

    def test_success_does_not_lift_quarantine(self, tracker):
        # a tampering provider answers promptly; transport success must
        # not readmit it — only cooldown expiry or an explicit release
        tracker.quarantine(1, reason="blamed")
        tracker.record_success(1)
        assert tracker.is_quarantined(1)

    def test_cooldown_expiry_readmits(self, tracker, clock):
        tracker.quarantine(2)
        clock.now = COOLDOWN_SECONDS - 0.1
        assert tracker.is_quarantined(2)
        clock.now = COOLDOWN_SECONDS
        assert not tracker.is_quarantined(2)
        # readmission is a clean slate
        assert tracker.snapshot()["DAS3"]["consecutive_failures"] == 0

    def test_release_lifts_explicitly(self, tracker):
        tracker.quarantine(3, reason="blamed")
        tracker.release(3)
        assert not tracker.is_quarantined(3)


class TestPreferredOrder:
    def test_healthy_in_index_order(self, tracker):
        assert tracker.preferred_order([0, 1, 2, 3, 4]) == [0, 1, 2, 3, 4]

    def test_quarantined_sort_last(self, tracker):
        tracker.quarantine(0)
        tracker.quarantine(2)
        assert tracker.preferred_order([0, 1, 2, 3, 4]) == [1, 3, 4, 0, 2]

    def test_subset_preserved(self, tracker):
        tracker.quarantine(1)
        assert tracker.preferred_order([1, 3]) == [3, 1]

    def test_order_at_exact_cooldown_expiry(self, tracker, clock):
        """At exactly ``quarantined_until`` the provider is readmitted:
        it sorts with the healthy group, in index order, clean slate."""
        tracker.quarantine(1)
        clock.now = COOLDOWN_SECONDS  # the boundary tick, not one past it
        assert tracker.preferred_order([0, 1, 2]) == [0, 1, 2]
        assert tracker.snapshot()["DAS2"]["quarantined"] is False
        assert tracker.snapshot()["DAS2"]["consecutive_failures"] == 0

    def test_expiry_mid_scan_keeps_partition_exact(self, clock):
        """Regression for the double-evaluation bug: ``is_quarantined``
        mutates state on lazy expiry, so the old two-scan partition
        could drop (or duplicate) a provider whose cooldown expired
        between the scans.  A clock that advances on every read makes
        the expiry land mid-scan; the result must still be a
        permutation of the candidates, every time."""

        class TickingClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 1.0  # each read crosses another second
                return self.now

        ticking = TickingClock()
        tracker = HealthTracker(5, clock=ticking)
        for index in range(5):
            tracker.quarantine(index)
        # expiries now sit a few ticks apart; repeated calls sweep the
        # boundary through every position of the scan
        for _ in range(int(COOLDOWN_SECONDS)):
            order = tracker.preferred_order([0, 1, 2, 3, 4])
            assert sorted(order) == [0, 1, 2, 3, 4], (
                f"partition lost or duplicated providers: {order}"
            )


class TestDown:
    """``down`` is what read selection leaves out: quarantined as
    unavailable, not quarantined for blame."""

    def test_nothing_quarantined_nothing_down(self, tracker):
        assert tracker.down([0, 1, 2, 3, 4]) == set()

    def test_only_unavailability_counts(self, tracker):
        for _ in range(QUARANTINE_AFTER):
            tracker.record_failure(0)
        tracker.quarantine(1, reason="blamed")
        assert tracker.down([0, 1, 2, 3, 4]) == {0}
        assert tracker.down([1, 2]) == set()  # only the candidates asked

    def test_cooldown_expiry_leaves_down(self, tracker, clock):
        for _ in range(QUARANTINE_AFTER):
            tracker.record_failure(3)
        clock.now = COOLDOWN_SECONDS
        assert tracker.down([0, 1, 2, 3, 4]) == set()
        assert tracker.preferred_order([3, 4]) == [3, 4]

    def test_release_leaves_down(self, tracker):
        for _ in range(QUARANTINE_AFTER):
            tracker.record_failure(2)
        tracker.release(2)
        assert tracker.down([2]) == set()


class TestIntrospection:
    def test_snapshot_fields(self, tracker, clock):
        tracker.record_failure(0)
        tracker.record_failure(0, reason="unavailable")
        clock.now = 10.0
        entry = tracker.snapshot()["DAS1"]
        assert entry["quarantined"] is True
        assert entry["quarantine_reason"] == "unavailable"
        assert entry["times_quarantined"] == 1
        assert entry["cooldown_remaining"] == pytest.approx(
            COOLDOWN_SECONDS - 10.0
        )

    def test_quarantine_counter_emitted(self, tracker):
        with telemetry.session() as hub:
            tracker.quarantine(4, reason="blamed")
            assert (
                hub.registry.counter_value(
                    "health.quarantined", provider="DAS5", reason="blamed"
                )
                == 1
            )
