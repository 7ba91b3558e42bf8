"""The one fan-out wave: clock model, execution order, no threads, no knobs.

Overlap is modelled, not executed: every round runs its handlers in-line
in provider-index order and advances the clock by what a client with
concurrent providers would have waited.  These tests pin that formula in
closed form against :class:`LatencyModel`, and pin the absence of the
thread pool and of the ``dispatch``/``executor`` constructor knobs.
"""

import threading

import pytest

from repro import DataSource, ProviderCluster
from repro.errors import (
    ConfigurationError,
    ProviderUnavailableError,
    QuorumError,
)
from repro.providers import cluster as cluster_module
from repro.providers.failures import Fault, FailureMode
from repro.service import QueryService
from repro.service.sharding import ShardRouter
from repro.sim.network import measure_bytes
from repro.txn import TransactionManager
from repro.workloads.employees import employees_table
from tests import pipeline_runs

N, K = 5, 3
METHOD = "row_count"


def padded_table(i):
    return "T" + "x" * (4_000 * (N - i))


def make_cluster():
    cluster = ProviderCluster(N, K)
    for name in ["T"] + [padded_table(i) for i in range(N)]:
        cluster.broadcast(
            "create_table",
            lambda i, name=name: {"table": name, "columns": ["k"], "searchable": ["k"]},
        )
    cluster.network.reset()
    return cluster


def padded_requests(indexes=range(N)):
    """Requests whose size shrinks with the provider index (each names a
    table with a longer name), so every round trip is distinct and index
    order is slowest-first."""
    return {i: {"table": padded_table(i)} for i in indexes}


def transfer(cluster, payload):
    return cluster.network.latency.transfer_seconds(measure_bytes(payload))


def round_trips(cluster, requests, responses):
    return {
        i: transfer(cluster, {"method": METHOD, **requests[i]})
        + transfer(cluster, responses[i])
        for i in responses
    }


class TestClockModel:
    def test_all_waits_for_the_slowest_round_trip(self):
        cluster = make_cluster()
        requests = padded_requests()
        responses = cluster.call_all(METHOD, requests)
        expected = max(round_trips(cluster, requests, responses).values())
        assert cluster.network.modelled_seconds == expected

    def test_first_k_waits_for_the_kth_fastest(self):
        cluster = make_cluster()
        requests = padded_requests()
        responses = cluster.call_all(
            METHOD, requests, minimum=K, quorum="first_k"
        )
        assert sorted(responses) == list(range(N))  # stragglers still arrive
        trips = sorted(round_trips(cluster, requests, responses).values())
        assert trips[K - 1] < trips[-1]
        assert cluster.network.modelled_seconds == trips[K - 1]

    def test_met_quorum_never_waits_out_a_timeout(self):
        cluster = make_cluster()
        cluster.inject_fault(N - 1, Fault(FailureMode.CRASH))  # the fastest
        requests = padded_requests()
        responses = cluster.call_all(
            METHOD, requests, minimum=K, quorum="first_k"
        )
        trips = sorted(round_trips(cluster, requests, responses).values())
        assert len(trips) == N - 1
        assert cluster.network.modelled_seconds == trips[K - 1]
        assert trips[K - 1] < cluster.retry.timeout_seconds

    @pytest.mark.parametrize("quorum", ["all", "first_k"])
    def test_short_round_charges_the_timeout(self, quorum):
        cluster = make_cluster()
        cluster.inject_fault(0, Fault(FailureMode.CRASH))
        with pytest.raises(QuorumError):
            cluster.call_all(
                METHOD, padded_requests(range(K)), minimum=K, quorum=quorum
            )
        # the timeout runs from the start of the wave and outlasts every
        # round trip here
        assert cluster.network.modelled_seconds == cluster.retry.timeout_seconds

    def test_one_request_costs_request_plus_response(self):
        cluster = make_cluster()
        request = {"table": "T"}
        response = cluster.call_one(2, METHOD, request)
        out = transfer(cluster, {"method": METHOD, **request})
        assert cluster.network.modelled_seconds == out + transfer(cluster, response)
        assert cluster.network.total_messages == 2

    def test_one_unavailable_request_costs_request_plus_timeout(self):
        cluster = make_cluster()
        cluster.inject_fault(2, Fault(FailureMode.CRASH))
        request = {"table": "T"}
        with pytest.raises(ProviderUnavailableError):
            cluster.call_one(2, METHOD, request)
        out = transfer(cluster, {"method": METHOD, **request})
        assert (
            cluster.network.modelled_seconds
            == out + cluster.retry.timeout_seconds
        )
        assert cluster.network.total_messages == 1


class TestExecution:
    def test_handlers_run_in_provider_index_order(self):
        cluster = make_cluster()
        with pipeline_runs.recording(cluster.providers) as calls:
            cluster.call_all(METHOD, {i: {"table": "T"} for i in reversed(range(N))})
        assert [index for index, _, _, _ in calls] == list(range(N))

    def test_statements_start_no_threads(self, tmp_path):
        before = set(threading.enumerate())
        source = DataSource(ProviderCluster(4, 2), seed=29)
        source.outsource_table(employees_table(25, seed=29))
        assert source.sql("SELECT COUNT(*) FROM Employees") == 25
        service = QueryService(source, max_in_flight=4, queue_limit=0)
        statements = ["SELECT COUNT(*) FROM Employees"] * 3
        assert service.run_wave(statements) == [25, 25, 25]
        service.close()
        manager = TransactionManager(source, str(tmp_path / "client.wal"))
        manager.execute("UPDATE Employees SET salary = 12345 WHERE eid = 1")
        manager.close()
        router = ShardRouter.build(
            n_groups=2, providers_per_group=3, threshold=2, seed=29
        )
        router.outsource_table(employees_table(25, seed=29))
        assert router.sql("SELECT COUNT(*) FROM Employees") == 25
        router.close()
        assert set(threading.enumerate()) == before

    def test_cluster_module_imports_no_pool(self):
        for name, value in vars(cluster_module).items():
            origin = getattr(value, "__module__", None) or getattr(
                value, "__name__", ""
            )
            assert not origin.startswith(("concurrent", "threading")), name


class TestRemovedKnobs:
    def test_dispatch_and_executor_are_plain_type_errors(self):
        with pytest.raises(TypeError):
            ProviderCluster(3, 2, dispatch="parallel")
        with pytest.raises(TypeError):
            ProviderCluster(3, 2, executor=None)
        with pytest.raises(TypeError):
            ShardRouter.build(dispatch="parallel")

    def test_unknown_quorum_mode_rejected(self):
        cluster = ProviderCluster(3, 2)
        with pytest.raises(ConfigurationError, match="unknown quorum mode"):
            cluster.call_all("ping", {0: {}, 1: {}}, quorum="psychic")
