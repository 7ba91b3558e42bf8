"""Retry/backoff, timeout accounting, and quorum-failover tests."""

import pytest

from repro import telemetry
from repro.client.datasource import DataSource
from repro.client.repair import repair_provider
from repro.errors import (
    ConfigurationError,
    ProviderUnavailableError,
    QuorumError,
)
from repro.providers.cluster import ProviderCluster, RetryPolicy
from repro.providers.failures import Fault, FailureMode
from repro.providers.health import COOLDOWN_SECONDS, QUARANTINE_AFTER
from repro.sim.rng import DeterministicRNG
from repro.workloads.employees import employees_table


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


def quorum_read(cluster):
    """One ``first_k`` read over the default quorum, with failover."""
    return cluster.broadcast(
        "row_count",
        lambda i: {"table": "T"},
        minimum=cluster.threshold,
        provider_indexes=cluster.read_quorum(),
        quorum="first_k",
        failover=True,
    )


def quarantine_as_down(cluster, *indexes):
    """Crash ``indexes`` and read until the health tracker knows."""
    for index in indexes:
        cluster.inject_fault(index, Fault(FailureMode.CRASH))
    while not all(cluster.health.is_quarantined(i) for i in indexes):
        quorum_read(cluster)


def checked_source():
    """A verified-reads n = 5, k = 3 deployment of a small Employees table."""
    source = DataSource(ProviderCluster(5, 3), seed=7, verified_reads=True)
    source.outsource_table(employees_table(20, seed=7))
    return source


CHECKED_SQL = "SELECT * FROM Employees WHERE salary > 1000"


def checked_read(source):
    """One checked read past the row cache; its (bytes, modelled s)."""
    network = source.cluster.network
    bytes_before, clock_before = network.total_bytes, network.modelled_seconds
    source.row_cache.clear()
    rows = source.sql(CHECKED_SQL)
    assert rows
    return (
        network.total_bytes - bytes_before,
        network.modelled_seconds - clock_before,
    )


class TestOneFailureMemory:
    """A provider quarantined as down gets no read while k others can
    answer; the health tracker is the only failure memory."""

    def test_down_provider_costs_nothing(self):
        cluster = make_cluster()
        quarantine_as_down(cluster, 0)
        healthy = make_cluster()
        for _ in range(2):
            inbound = cluster.network.stats.bytes_to("DAS1")
            before = cluster.network.modelled_seconds
            assert sorted(quorum_read(cluster)) == [1, 2, 3]
            elapsed = cluster.network.modelled_seconds - before
            assert cluster.network.stats.bytes_to("DAS1") == inbound
            healthy_before = healthy.network.modelled_seconds
            quorum_read(healthy)
            assert elapsed == pytest.approx(
                healthy.network.modelled_seconds - healthy_before
            )
            assert elapsed < cluster.retry.timeout_seconds

    def test_checked_reads_skip_down_providers(self):
        source = checked_source()
        network = source.cluster.network
        for index in (0, 1):
            source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
        timed_out = [checked_read(source) for _ in range(QUARANTINE_AFTER)]
        assert all(
            seconds >= source.cluster.retry.timeout_seconds
            for _, seconds in timed_out
        )
        assert source.cluster.health.down(range(5)) == {0, 1}
        inbound = [network.stats.bytes_to(f"DAS{i}") for i in (1, 2)]
        for _ in range(3):
            spent, seconds = checked_read(source)
            assert spent < timed_out[0][0]
            assert seconds < source.cluster.retry.timeout_seconds
        assert [network.stats.bytes_to(f"DAS{i}") for i in (1, 2)] == inbound

    def test_blamed_is_still_a_last_resort(self):
        cluster = ProviderCluster(5, 3)
        cluster.health.quarantine(1, reason="blamed")
        assert cluster.read_quorum() == [0, 2, 3]
        # asked for every share, the blamed provider is addressed last
        assert cluster.read_quorum(extra=5) == [0, 1, 2, 3, 4]
        # a provider known to be down is not, while k others remain
        for _ in range(QUARANTINE_AFTER):
            cluster.health.record_failure(4)
        assert cluster.read_quorum(extra=5) == [0, 1, 2, 3]

    def test_fewer_than_k_up_addresses_down(self):
        cluster = make_cluster()
        quarantine_as_down(cluster, 0, 1)
        for _ in range(QUARANTINE_AFTER):
            cluster.health.record_failure(2)  # known down, never crashed
        assert cluster.health.down(range(5)) == {0, 1, 2}
        # only two others remain: the down ones come back, healthy first
        assert cluster.read_quorum() == [0, 3, 4]
        cluster.providers[0].clear_fault()  # revived mid-quarantine
        assert sorted(quorum_read(cluster)) == [0, 3, 4]

    def test_cooldown_readmits_down_provider(self):
        cluster = make_cluster()
        quarantine_as_down(cluster, 0)
        assert 0 not in cluster.read_quorum()
        cluster.providers[0].clear_fault()
        cluster.network.advance_clock(COOLDOWN_SECONDS)
        assert cluster.read_quorum() == [0, 1, 2]
        inbound = cluster.network.stats.bytes_to("DAS1")
        assert sorted(quorum_read(cluster)) == [0, 1, 2]
        assert cluster.network.stats.bytes_to("DAS1") > inbound

    def test_revived_is_repaired_then_read(self):
        """``call_one`` never refuses, so repair reaches a provider the
        tracker still holds as down; the release puts it back in reads."""
        source = checked_source()
        network = source.cluster.network
        source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        for _ in range(QUARANTINE_AFTER):
            checked_read(source)
        assert source.cluster.health.down(range(5)) == {0}
        source.cluster.providers[0].clear_fault()
        assert repair_provider(source, 0)["Employees"] == 20
        assert not source.cluster.health.is_quarantined(0)
        inbound = network.stats.bytes_to("DAS1")
        checked_read(source)
        assert network.stats.bytes_to("DAS1") > inbound
