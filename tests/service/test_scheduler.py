"""Fan-out batching: correctness, round reduction, accounting, errors."""

import threading

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.errors import ProviderError
from repro.service import QueryService
from repro.service.scheduler import FanoutBatcher
from repro.workloads.employees import employees_table


def build_source(rows=60, seed=11, providers=4, threshold=2):
    source = DataSource(ProviderCluster(providers, threshold), seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    source.cluster.network.reset()
    return source


def point_queries(source, count):
    eids = sorted(r["eid"] for r in source.sql("SELECT eid FROM Employees"))
    source.cluster.network.reset()
    return [
        f"SELECT name, salary FROM Employees WHERE eid = {eids[i % len(eids)]}"
        for i in range(count)
    ]


class TestBatchingCorrectness:
    def test_wave_equals_sequential_results(self):
        seq = build_source()
        bat = build_source()
        statements = point_queries(seq, 12)
        point_queries(bat, 0)  # reset accounting identically
        expected = [seq.sql(s) for s in statements]
        service = QueryService(bat, max_in_flight=12, queue_limit=0)
        assert service.run_wave(statements) == expected
        service.close()

    def test_n_queries_one_combined_round(self):
        """The headline: N concurrent point queries ≈ 1 round per provider."""
        seq = build_source()
        bat = build_source()
        statements = point_queries(seq, 8)
        point_queries(bat, 0)
        for s in statements:
            seq.sql(s)
        seq_messages = seq.cluster.network.total_messages
        service = QueryService(bat, max_in_flight=8, queue_limit=0)
        service.run_wave(statements)
        bat_messages = bat.cluster.network.total_messages
        service.close()
        # sequential: 8 queries × k providers × 2 messages; batched: one
        # combined request+response per addressed provider
        assert bat_messages == seq_messages // 8
        assert service.batcher.max_batch == 8
        assert service.batcher.combined_rounds_total == 1

    def test_modelled_latency_reduced(self):
        seq = build_source()
        bat = build_source()
        statements = point_queries(seq, 16)
        point_queries(bat, 0)
        for s in statements:
            seq.sql(s)
        service = QueryService(bat, max_in_flight=16, queue_limit=0)
        service.run_wave(statements)
        service.close()
        assert (
            seq.cluster.network.modelled_seconds
            >= 2.0 * bat.cluster.network.modelled_seconds
        )

    def test_byte_accounting_matches_network_exactly(self):
        """Telemetry's counters must equal the network's own accounting
        even when rounds are combined (bytes recorded once, on dispatch)."""
        source = build_source()
        statements = point_queries(source, 10)
        service = QueryService(source, max_in_flight=10, queue_limit=0)
        network = source.cluster.network
        with telemetry.session(clock=lambda: network.modelled_seconds) as hub:
            service.run_wave(statements)
            assert (
                hub.registry.counter_total("net.bytes") == network.total_bytes
            )
            assert (
                hub.registry.counter_total("net.messages")
                == network.total_messages
            )
            # the batch-size histogram saw the combined round
            assert hub.registry.counter_total("service.combined_rounds") >= 1
        service.close()

    def test_mixed_statements_group_by_quorum_shape(self):
        """Reads (first_k over the quorum) and a full-table scan (all
        providers) must not share a combined round — different targets."""
        source = build_source()
        service = QueryService(source, max_in_flight=4, queue_limit=4)
        eids = sorted(r["eid"] for r in source.sql("SELECT eid FROM Employees"))
        results = {}

        def run(name, text):
            results[name] = service.execute(text)

        threads = [
            threading.Thread(
                target=run,
                args=(i, f"SELECT salary FROM Employees WHERE eid = {eids[i]}"),
            )
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(len(results[i]) == 1 for i in range(3))
        service.close()


class TestBatchedEqualsUnbatched:
    def test_sub_request_error_raises_even_when_the_quorum_is_met(self):
        """A combined round must not swallow a provider-side error its
        riders would each have raised alone: with provider 0 missing the
        table, a verified read raises through ``sql``, a one-statement
        wave and a two-statement (combined) wave alike."""
        source = DataSource(ProviderCluster(5, 3), verified_reads=True)
        source.outsource_table(employees_table(30, seed=11))
        source.cluster.call_one(
            0, "drop_table", {"table": source.physical_name("Employees")}
        )
        query = "SELECT * FROM Employees"
        with pytest.raises(ProviderError) as alone:
            source.sql(query)
        with QueryService(source, max_in_flight=2, queue_limit=0) as service:
            for wave in ([query], [query, query]):
                with pytest.raises(ProviderError) as batched:
                    service.run_wave(wave)
                assert type(batched.value) is type(alone.value)
                assert str(batched.value) == str(alone.value)
            assert service.batcher.combined_rounds_total == 1


class TestErrorIsolation:
    def test_provider_error_hits_only_its_ticket(self):
        """One bad sub-request in a combined round fails one ticket; the
        co-batched query still gets its answer."""
        source = build_source()
        cluster = source.cluster
        batcher = FanoutBatcher(cluster)
        physical = source.physical_name("Employees")
        good_request = {i: {"table": physical} for i in range(cluster.n_providers)}
        bad_request = {i: {"table": "Nope"} for i in range(cluster.n_providers)}
        outcomes = {}
        barrier = threading.Barrier(2)

        def run(name, requests):
            barrier.wait()
            try:
                outcomes[name] = (
                    "ok", batcher.submit("row_count", requests, 2, "first_k")
                )
            except Exception as exc:
                outcomes[name] = ("err", exc)

        batcher.register(2)
        threads = [
            threading.Thread(target=run, args=("good", good_request)),
            threading.Thread(target=run, args=("bad", bad_request)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.finish()
        batcher.finish()
        assert batcher.combined_rounds_total == 1
        kind, (responses, failures) = outcomes["good"]
        assert kind == "ok"
        assert sorted(responses) == list(range(cluster.n_providers))
        assert all(r["count"] == 60 for r in responses.values())
        assert failures == {}
        kind, error = outcomes["bad"]
        assert kind == "err"
        # the provider-side error class survives the batch round trip
        assert isinstance(error, ProviderError)
        assert "Nope" in str(error)

    def test_singleton_dispatches_with_real_method(self):
        """A lone ticket skips the batch envelope entirely."""
        source = build_source()
        batcher = FanoutBatcher(source.cluster)
        physical = source.physical_name("Employees")
        batcher.register()
        responses, failures = batcher.submit(
            "row_count",
            {i: {"table": physical} for i in range(source.cluster.n_providers)},
            2,
            "first_k",
        )
        batcher.finish()
        assert all(r["count"] == 60 for r in responses.values())
        assert failures == {}
        assert batcher.combined_rounds_total == 0
        assert batcher.rounds_total == 1

    def test_finish_flushes_stragglers(self):
        """A query finishing while another is parked must trigger the
        flush — otherwise the parked query waits forever."""
        source = build_source()
        batcher = FanoutBatcher(source.cluster)
        physical = source.physical_name("Employees")
        batcher.register(2)
        result = {}

        def parked():
            result["r"], _ = batcher.submit(
                "row_count", {0: {"table": physical}}, 1, "all"
            )
            batcher.finish()

        thread = threading.Thread(target=parked)
        thread.start()
        for _ in range(500):
            if batcher.snapshot()["parked"] == 1:
                break
            threading.Event().wait(0.002)
        # the other registered query never issues a fan-out; its finish
        # must release the parked one
        batcher.finish()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert result["r"][0]["count"] == 60
