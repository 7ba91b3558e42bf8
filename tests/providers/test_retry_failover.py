"""Retry/backoff, timeout accounting, and quorum-failover tests."""

import pytest

from repro import telemetry
from repro.errors import (
    ConfigurationError,
    ProviderUnavailableError,
    QuorumError,
)
from repro.providers.cluster import ProviderCluster, RetryPolicy
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG


def make_cluster(retry=None, n=5, k=3):
    cluster = ProviderCluster(n, k, retry=retry)
    cluster.broadcast(
        "create_table",
        lambda i: {"table": "T", "columns": ["k"], "searchable": ["k"]},
    )
    cluster.broadcast(
        "insert_many",
        lambda i: {"table": "T", "rows": [[1, {"k": 10 + i}]]},
    )
    cluster.network.reset()
    return cluster


def flaky_fail_then_succeed(rate=0.5):
    """A FLAKY fault whose RNG stream starts failure, then success."""
    for seed in range(100):
        rng = DeterministicRNG(seed, "probe")
        if rng.random() < rate and rng.random() >= rate:
            return Fault(
                FailureMode.FLAKY, rate=rate, rng=DeterministicRNG(seed, "probe")
            )
    raise AssertionError("no seed with a fail-then-succeed pattern in range")


class TestRetryPolicy:
    def test_defaults_are_fail_fast(self):
        assert RetryPolicy().max_attempts == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_backoff_progression(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_seconds=0.1, backoff_multiplier=2.0
        )
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)


class TestPerRpcRetry:
    def test_transient_failure_retried_to_success(self):
        cluster = make_cluster(retry=RetryPolicy(max_attempts=2))
        cluster.inject_fault(0, flaky_fail_then_succeed())
        with telemetry.session() as hub:
            response = cluster.call_one(0, "row_count", {"table": "T"})
            assert response["count"] == 1
            assert (
                hub.registry.counter_value("fanout.retries", provider="DAS1")
                == 1
            )

    def test_exhausted_retries_raise(self):
        cluster = make_cluster(retry=RetryPolicy(max_attempts=3))
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            with pytest.raises(ProviderUnavailableError):
                cluster.call_one(0, "row_count", {"table": "T"})
            # 3 attempts = 2 retries, each attempt charged as unavailable
            assert (
                hub.registry.counter_value("fanout.retries", provider="DAS1")
                == 2
            )
            assert (
                hub.registry.counter_value("fanout.unavailable", provider="DAS1")
                == 3
            )

    def test_timeout_and_backoff_charged_on_clock(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_seconds=0.1, timeout_seconds=0.25
        )
        cluster = make_cluster(retry=policy)
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        before = cluster.network.modelled_seconds
        with pytest.raises(ProviderUnavailableError):
            cluster.call_one(0, "row_count", {"table": "T"})
        elapsed = cluster.network.modelled_seconds - before
        # two timeouts + one backoff, plus the modelled request transfers
        assert elapsed >= 2 * 0.25 + 0.1

    def test_default_policy_counts_one_unavailable_per_round(self):
        cluster = make_cluster()
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            cluster.call_all(
                "row_count",
                {i: {"table": "T"} for i in range(5)},
                minimum=3,
                quorum="first_k",
            )
            assert (
                hub.registry.counter_value("fanout.unavailable", provider="DAS1")
                == 1
            )


class TestQuorumFailover:
    def test_short_round_fails_over_to_spares(self):
        cluster = make_cluster()
        cluster.inject_fault(1, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            responses = cluster.broadcast(
                "row_count",
                lambda i: {"table": "T"},
                minimum=3,
                provider_indexes=[0, 1, 2],
                quorum="first_k",
                failover=True,
            )
            assert sorted(responses) == [0, 2, 3]
            assert (
                hub.registry.counter_value("fanout.failovers", provider="DAS4")
                == 1
            )

    def test_dead_spare_skipped_to_next(self):
        cluster = make_cluster()
        cluster.inject_fault(1, Fault(FailureMode.CRASH))
        cluster.inject_fault(3, Fault(FailureMode.CRASH))
        responses = cluster.broadcast(
            "row_count",
            lambda i: {"table": "T"},
            minimum=3,
            provider_indexes=[0, 1, 2],
            quorum="first_k",
            failover=True,
        )
        assert sorted(responses) == [0, 2, 4]

    def test_no_failover_without_flag(self):
        cluster = make_cluster()
        cluster.inject_fault(1, Fault(FailureMode.CRASH))
        with pytest.raises(QuorumError):
            cluster.broadcast(
                "row_count",
                lambda i: {"table": "T"},
                minimum=3,
                provider_indexes=[0, 1, 2],
                quorum="first_k",
            )

    def test_exhausted_spares_surface_quorum_error(self):
        cluster = make_cluster()
        for index in (0, 1, 2):
            cluster.inject_fault(index, Fault(FailureMode.CRASH))
        with pytest.raises(QuorumError) as excinfo:
            cluster.broadcast(
                "row_count",
                lambda i: {"table": "T"},
                minimum=3,
                provider_indexes=[0, 1, 2],
                quorum="first_k",
                failover=True,
            )
        # both spares answered, all three crashed providers are named
        message = str(excinfo.value)
        assert "only 2/5 providers responded (need 3)" in message
        assert "no spare providers remain" in message
        for index in (0, 1, 2):
            assert f"{index}: 'provider DAS{index + 1} is down'" in message

    def test_failover_accounting_equal_across_dispatch_modes(self):
        """(Name kept for test-id stability; there is one dispatch path
        now.)  A failover read accounts every message it spent: three
        requests, two responses, then the spare's request and response."""
        cluster = make_cluster()
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            cluster.broadcast(
                "row_count",
                lambda i: {"table": "T"},
                minimum=3,
                provider_indexes=[0, 1, 2],
                quorum="first_k",
                failover=True,
            )
            network = cluster.network
            assert network.total_messages == 7
            assert ("DAS1", "client") not in network.stats.by_link
            assert hub.registry.counter_total("net.bytes") == network.total_bytes

    def test_repeated_failures_quarantine_and_rotate_out(self):
        cluster = make_cluster()
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        for _ in range(2):
            cluster.broadcast(
                "row_count",
                lambda i: {"table": "T"},
                minimum=3,
                provider_indexes=cluster.read_quorum(),
                quorum="first_k",
                failover=True,
            )
        assert cluster.health.is_quarantined(0)
        # knowledge-based selection now avoids the quarantined provider
        assert 0 not in cluster.read_quorum()
