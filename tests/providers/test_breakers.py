"""Circuit breakers: state machine, boundaries, wiring."""

import pytest

from repro import telemetry
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ProviderUnavailableError,
)
from repro.providers.breakers import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(
        window=4,
        failure_threshold=0.5,
        min_calls=4,
        open_seconds=10.0,
        half_open_probes=2,
        clock=clock,
        name="DAS1",
    )


class TestConstruction:
    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(window=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=1.5)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(min_calls=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(open_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(half_open_probes=0)


class TestStateMachine:
    def test_stays_closed_below_min_calls(self, breaker):
        # 100% failure rate, but too few samples to be meaningful
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_when_rate_crosses_at_window_boundary(self, breaker):
        """Old successes must slide out of the window: four successes
        followed by failures opens the breaker exactly when the rate
        over the *last four* outcomes reaches the threshold."""
        for _ in range(4):
            breaker.record_success()
        breaker.record_failure()  # window S,S,S,F -> rate 0.25
        assert breaker.state == CLOSED
        breaker.record_failure()  # window S,S,F,F -> rate 0.50, boundary
        assert breaker.state == OPEN
        assert breaker.times_opened == 1

    def test_open_fast_fails_without_consuming(self, breaker, clock):
        with telemetry.session() as hub:
            for _ in range(4):
                breaker.record_failure()
            assert breaker.state == OPEN
            assert not breaker.allow()
            assert not breaker.allow()
            assert breaker.fast_fails == 2
            assert hub.registry.counter_value(
                "breaker.opened", provider="DAS1"
            ) == 1

    def test_cooldown_boundary_exact(self, breaker, clock):
        """The OPEN -> HALF_OPEN transition fires at *exactly*
        opened_at + open_seconds, not one tick later."""
        clock.now = 3.0
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 3.0 + 10.0 - 1e-9
        assert breaker.state == OPEN
        clock.now = 3.0 + 10.0  # boundary inclusive
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_only_probe_budget(self, breaker, clock):
        for _ in range(4):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # probe 1
        assert breaker.allow()  # probe 2
        assert not breaker.allow()  # budget spent
        assert breaker.fast_fails == 1

    def test_admits_is_non_consuming(self, breaker, clock):
        for _ in range(4):
            breaker.record_failure()
        clock.now = 10.0
        for _ in range(5):
            assert breaker.admits()  # never burns probe budget
        assert breaker.allow()  # both probes still available
        assert breaker.allow()

    def test_all_probes_succeeding_closes(self, breaker, clock):
        for _ in range(4):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow() and breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one probe is not enough
        breaker.record_success()
        assert breaker.state == CLOSED
        # clean slate: the old failure window is gone
        assert breaker.snapshot()["window_calls"] == 0
        assert breaker.snapshot()["failure_rate"] == 0.0

    def test_failed_probe_reopens_with_fresh_cooldown(self, breaker, clock):
        for _ in range(4):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()  # provider still sick
        assert breaker.state == OPEN
        assert breaker.times_opened == 2
        clock.now = 19.0  # 9s after the re-trip: still cooling down
        assert breaker.state == OPEN
        clock.now = 20.0
        assert breaker.state == HALF_OPEN

    def test_snapshot_shape(self, breaker):
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["failure_rate"] == 1.0
        assert snap["window_calls"] == 1
        assert snap["times_opened"] == 0
        assert snap["fast_fails"] == 0


class TestBreakerBoard:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerBoard(0)

    def test_snapshot_keyed_by_name(self, clock):
        board = BreakerBoard(2, clock=clock, names=["DAS1", "DAS2"])
        snap = board.snapshot()
        assert set(snap) == {"DAS1", "DAS2"}
        assert snap["DAS1"]["state"] == CLOSED


class TestClusterIntegration:
    def test_opt_in_default_off(self):
        assert ProviderCluster(3, 2).breakers is None

    def test_breaker_opens_on_crashed_provider_then_fast_fails(self):
        """Real failures trip the breaker; once open, calls fail fast
        client-side — zero bytes, zero modelled time, no retries."""
        cluster = ProviderCluster(3, 2)
        cluster.broadcast(
            "create_table",
            lambda i: {"table": "T", "columns": ["k"], "searchable": ["k"]},
        )
        cluster.install_breakers(min_calls=2, window=4)
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        for _ in range(2):
            with pytest.raises(ProviderUnavailableError):
                cluster.call_one(0, "row_count", {"table": "T"})
        assert cluster.breakers.breakers[0].state == OPEN
        bytes_before = cluster.network.total_bytes
        time_before = cluster.network.modelled_seconds
        with pytest.raises(CircuitOpenError):
            cluster.call_one(0, "row_count", {"table": "T"})
        assert cluster.network.total_bytes == bytes_before
        assert cluster.network.modelled_seconds == time_before
        assert cluster.breakers.breakers[0].fast_fails >= 1

    def test_probe_after_cooldown_recovers(self):
        cluster = ProviderCluster(3, 2)
        cluster.broadcast(
            "create_table",
            lambda i: {"table": "T", "columns": ["k"], "searchable": ["k"]},
        )
        cluster.install_breakers(
            min_calls=2, window=4, open_seconds=5.0, half_open_probes=1
        )
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        for _ in range(2):
            with pytest.raises(ProviderUnavailableError):
                cluster.call_one(0, "row_count", {"table": "T"})
        assert cluster.breakers.breakers[0].state == OPEN
        cluster.clear_faults()
        cluster.network.advance_clock(5.0)  # modelled cooldown elapses
        response = cluster.call_one(0, "row_count", {"table": "T"})
        assert "rows" in response or response  # probe went through
        assert cluster.breakers.breakers[0].state == CLOSED

    def test_read_quorum_avoids_open_breakers(self):
        cluster = ProviderCluster(5, 3)
        cluster.install_breakers(min_calls=2, window=4)
        for _ in range(2):
            cluster.breakers.record_failure(1)
        assert cluster.breakers.breakers[1].state == OPEN
        quorum = cluster.read_quorum()
        assert 1 not in quorum
        assert len(quorum) == 3
