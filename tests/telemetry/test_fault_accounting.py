"""Fault/byte accounting consistency of rounds that fail part-way.

A round drains completely — every addressed provider's request bytes,
and every successful response — before the first provider-side error is
re-raised, and the modelled clock advances before raising.  Telemetry
mirrors those bytes exactly, faulted providers included.  (Some test
names still say "across dispatch modes": they predate the removal of the
second dispatch mode and are kept for test-id stability.)
"""

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.errors import IntegrityError
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG
from repro.workloads.employees import employees_table

QUERY = "SELECT name, salary FROM Employees WHERE salary >= 20000"


def build_source(rows=40, seed=7):
    cluster = ProviderCluster(n_providers=5, threshold=3)
    source = DataSource(cluster, seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    cluster.network.reset()
    return source


class TestCrashRoutedAround:
    def test_bytes_identical_across_dispatch_modes(self):
        """CRASH + first_k routing: telemetry bytes == network bytes."""
        source = build_source()
        source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            rows = source.sql(QUERY)
            telemetry_bytes = hub.registry.counter_total("net.bytes")
        assert rows
        assert telemetry_bytes == source.cluster.network.total_bytes

    def test_crashed_provider_request_bytes_still_counted(self):
        """Addressing a crashed provider spends request bytes."""
        source = build_source()
        cluster = source.cluster
        cluster.inject_fault(1, Fault(FailureMode.CRASH))
        with telemetry.session() as hub:
            responses = cluster.call_all(
                "row_count",
                {i: {"table": "Employees"} for i in range(5)},
                minimum=3,
                quorum="first_k",
            )
            assert sorted(responses) == [0, 2, 3, 4]
            crashed = cluster.providers[1].name
            sent = hub.registry.counter_value(
                "net.bytes", src="client", dst=crashed
            )
            back = hub.registry.counter_value(
                "net.bytes", src=crashed, dst="client"
            )
            assert sent > 0 and back == 0
            assert hub.registry.counter_value(
                "fanout.unavailable", provider=crashed
            ) == 1
            assert (
                hub.registry.counter_total("net.bytes")
                == cluster.network.total_bytes
            )


class TestProviderErrorDrain:
    def test_error_rounds_account_identically_across_modes(self):
        """A provider-side error must not leave the round half-accounted."""
        source = build_source()
        cluster = source.cluster
        # provider 2 blows up server-side (not an unavailability)
        cluster.providers[2].handle = _exploding_handler(
            cluster.providers[2].handle
        )
        with telemetry.session() as hub:
            with pytest.raises(RuntimeError, match="disk on fire"):
                cluster.call_all(
                    "row_count",
                    {i: {"table": "Employees"} for i in range(5)},
                    minimum=3,
                )
            assert (
                hub.registry.counter_total("net.bytes")
                == cluster.network.total_bytes
            )
        network = cluster.network
        # all 5 requests and the 4 successful responses were drained
        assert network.stats.by_link[("client", "DAS3")].messages == 1
        assert ("DAS3", "client") not in network.stats.by_link
        for name in ("DAS1", "DAS2", "DAS4", "DAS5"):
            assert network.stats.by_link[(name, "client")].messages == 1

    def test_parallel_error_round_still_advances_clock(self):
        source = build_source()
        cluster = source.cluster
        cluster.providers[0].handle = _exploding_handler(
            cluster.providers[0].handle
        )
        before = cluster.network.modelled_seconds
        with pytest.raises(RuntimeError):
            cluster.call_all(
                "row_count", {i: {"table": "Employees"} for i in range(5)}
            )
        assert cluster.network.modelled_seconds > before


def _exploding_handler(original):
    def handler(method, request):
        raise RuntimeError("disk on fire")

    return handler


class TestFaultCounters:
    def test_injection_and_refusals_counted(self):
        source = build_source()
        with telemetry.session() as hub:
            source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
            source.sql(QUERY)
            assert hub.registry.counter_value(
                "faults.injected", mode="crash", provider="DAS1"
            ) == 1
            # quorum selection is knowledge-based: the undiscovered crash
            # is only found by addressing the provider, which refuses once
            # before failover routes the round to a spare
            assert hub.registry.counter_total("faults.crash_refusals") == 1

    def test_tamper_and_omit_increment_counters(self):
        with telemetry.session() as hub:
            tamper = Fault(
                FailureMode.TAMPER, rate=1.0, rng=DeterministicRNG(1, "t")
            )
            assert tamper.maybe_corrupt_share(100) != 100
            omit = Fault(
                FailureMode.OMIT, rate=1.0, rng=DeterministicRNG(1, "o")
            )
            assert omit.filter_rows([1, 2, 3]) == []
            assert hub.registry.counter_value("faults.tampered_shares") == 1
            assert hub.registry.counter_value("faults.omitted_rows") == 3

    def test_detected_omission_counted(self):
        """An OMIT fault that empties one provider's aggregate nomination
        is detected client-side and lands in ``faults.detected``."""
        source = build_source()
        source.cluster.inject_fault(
            0, Fault(FailureMode.OMIT, rate=1.0, rng=DeterministicRNG(3, "o"))
        )
        with telemetry.session() as hub:
            with pytest.raises(IntegrityError):
                source.sql("SELECT MIN(salary) FROM Employees")
            assert hub.registry.counter_value(
                "faults.detected", kind="empty_disagreement"
            ) == 1
