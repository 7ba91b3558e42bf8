"""End-to-end instrumentation tests: spans, counter exactness, no-op-ness.

The three properties ISSUE.md pins:

* the span tree mirrors the pipeline (query → select → rewrite →
  fan_out → rpc per provider → reconstruct);
* telemetry's per-link byte/message counters are *exactly* the
  cluster's own network accounting (``NetworkStats.by_link``);
* running with telemetry disabled changes no query results, and the
  enabled run returns the same rows as the disabled one.
"""

import json

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.providers.failures import Fault, FailureMode
from repro.workloads.employees import employees_table

QUERY = (
    "SELECT name, salary FROM Employees "
    "WHERE salary BETWEEN 10000 AND 60000 ORDER BY salary LIMIT 7"
)


def build_source(rows=60, seed=11):
    cluster = ProviderCluster(n_providers=5, threshold=3)
    source = DataSource(cluster, seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    cluster.reset_accounting()
    return source


def run_traced(source, sql=QUERY):
    network = source.cluster.network
    with telemetry.session(clock=lambda: network.modelled_seconds) as hub:
        rows = source.sql(sql)
        return rows, hub.export(), hub


class TestSpanTree:
    def test_pipeline_span_nesting(self):
        source = build_source()
        _, _, hub = run_traced(source)
        # hub outlives the session; inspect the collected trace
        root = hub.tracer.last_trace()
        assert root.name == "query"
        assert root.attributes["sql"] == QUERY
        (select,) = root.children
        assert select.name == "select"
        child_names = [c.name for c in select.children]
        assert child_names == ["rewrite", "fan_out", "reconstruct"]
        fan_out = select.children[1]
        rpcs = fan_out.find("rpc")
        assert len(rpcs) == fan_out.attributes["addressed"] == 3
        for rpc in rpcs:
            assert rpc.attributes["outcome"] == "ok"
            assert rpc.attributes["request_bytes"] > 0
            assert rpc.attributes["response_bytes"] > 0
        assert root.start <= select.start <= fan_out.start
        assert fan_out.end <= select.end <= root.end

    def test_write_and_join_spans_exist(self):
        source = build_source()
        with telemetry.session() as hub:
            source.sql("UPDATE Employees SET salary = 12345 WHERE eid = 1")
            assert hub.tracer.last_trace().find("update")
            source.sql("DELETE FROM Employees WHERE eid = 2")
            assert hub.tracer.last_trace().find("delete")


class TestEveryRoundIsObserved:
    """One-request rounds (a one-spare failover wave, ``call_one``) used to
    take a separate branch that skipped the round histogram and left
    ``rpc`` spans without an outcome when the provider raised."""

    def test_one_spare_failover_wave_is_observed(self):
        source = build_source()
        source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        _, export, hub = run_traced(source)
        fan_outs = hub.tracer.last_trace().find("fan_out")
        assert [f.attributes["addressed"] for f in fan_outs] == [3, 1]
        observed = sum(
            histogram["count"]
            for name, histogram in export["metrics"]["histograms"].items()
            if name.startswith("fanout.round_seconds")
        )
        assert observed == len(fan_outs)
        for fan_out in fan_outs:
            assert {"round_seconds", "stragglers", "responded", "unavailable"} <= set(
                fan_out.attributes
            )
            for rpc in fan_out.find("rpc"):
                assert "outcome" in rpc.attributes

    def test_errored_one_request_round_records_its_outcome(self):
        source = build_source()
        provider = source.cluster.providers[0]

        def explode(method, request):
            raise RuntimeError("disk on fire")

        provider.handle = explode
        with telemetry.session() as hub:
            with pytest.raises(RuntimeError):
                source.cluster.call_one(0, "row_count", {"table": "Employees"})
            (fan_out,) = hub.tracer.traces
            (rpc,) = fan_out.find("rpc")
        assert rpc.attributes["outcome"] == "error"
        assert fan_out.attributes["responded"] == 0


class TestCounterExactness:
    def test_per_link_counters_match_network_accounting(self):
        source = build_source()
        network = source.cluster.network
        _, _, hub = run_traced(source)
        assert network.stats.by_link, "query produced no traffic?"
        for (src, dst), endpoint in network.stats.by_link.items():
            assert hub.registry.counter_value(
                "net.bytes", src=src, dst=dst
            ) == endpoint.payload_bytes
            assert hub.registry.counter_value(
                "net.messages", src=src, dst=dst
            ) == endpoint.messages
        assert hub.registry.counter_total("net.bytes") == network.total_bytes
        assert (
            hub.registry.counter_total("net.messages")
            == network.total_messages
        )

    def test_provider_request_counters_match_served(self):
        source = build_source()
        _, _, hub = run_traced(source)
        assert hub.registry.counter_total("provider.requests") == sum(
            p.requests_served for p in source.cluster.providers
        )
        for provider in source.cluster.providers:
            assert hub.registry.counter_value(
                "provider.requests", provider=provider.name, method="select"
            ) == provider.requests_served

    def test_kernel_batches_observed(self):
        from repro.sim.rng import DeterministicRNG
        from repro.workloads.employees import managers_table

        cluster = ProviderCluster(n_providers=5, threshold=3)
        source = DataSource(cluster, seed=11)
        employees = employees_table(40, seed=11)
        source.outsource_table(employees)
        source.outsource_table(managers_table(employees, 0.3, seed=11))
        cluster.reset_accounting()
        with telemetry.session() as hub:
            # password is randomly shared → modular batch reconstruction
            rows = source.sql("SELECT password FROM Managers")
            assert rows
            # the batched split kernel (as the hot-path benchmark drives it)
            scheme = source.sharing("Managers").random_scheme
            scheme.split_columns([1, 2, 3], DeterministicRNG(0, "t"))
            histograms = hub.export()["metrics"]["histograms"]
        assert histograms["kernels.batch_reconstruct_cells"]["count"] >= 1
        split = histograms["kernels.split_values"]
        assert split["count"] == 1 and split["sum"] == 3


class TestDisabledIsInert:
    def test_results_identical_enabled_vs_disabled(self, no_telemetry):
        baseline = build_source().sql(QUERY)
        traced_rows, _, _ = run_traced(build_source())
        assert traced_rows == baseline

    def test_disabled_run_leaves_no_hub(self, no_telemetry):
        source = build_source()
        source.sql(QUERY)
        assert telemetry.hub() is None

    def test_network_accounting_unchanged_by_telemetry(self, no_telemetry):
        disabled = build_source()
        disabled.sql(QUERY)
        enabled = build_source()
        run_traced(enabled)
        assert (
            disabled.cluster.network.stats.snapshot()
            == enabled.cluster.network.stats.snapshot()
        )


class TestDeterminism:
    def test_identical_runs_export_identically(self):
        exports = []
        for _ in range(2):
            _, export, _ = run_traced(build_source())
            exports.append(json.dumps(export, sort_keys=True))
        assert exports[0] == exports[1]

    def test_modelled_clock_times_the_trace(self):
        source = build_source()
        network = source.cluster.network
        _, _, hub = run_traced(source)
        root = hub.tracer.last_trace()
        assert root.start == 0.0
        assert root.end == network.modelled_seconds > 0.0
