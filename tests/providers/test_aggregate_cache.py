"""Provider-side materialized SUM/COUNT partials (version-keyed).

Shamir linearity makes a cached partial sum of shares *the* share of the
sum while the underlying rows stand still; the table's mutation-version
counter — the same machinery that keys the derived-state caches — is
what defines "stand still".  These tests pin the cache's three duties:
serve identical payloads on repeat, die on any mutation, and never let
fault injection leak into the stored clean copy.
"""

from repro import telemetry
from repro.client.datasource import DataSource
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import FailureMode, Fault
from repro.providers.provider import ShareProvider
from repro.workloads.employees import employees_table


def _source(n=5, k=3, rows=40, seed=7):
    cluster = ProviderCluster(n_providers=n, threshold=k)
    source = DataSource(cluster, seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    return cluster, source


def _table(cluster, source, index=0):
    return cluster.providers[index].store.table(
        source.physical_name("Employees")
    )


class TestScalarAggregateCache:
    def test_repeat_sum_hits_and_payloads_identical(self):
        cluster, source = _source()
        first = source.sql("SELECT SUM(salary) FROM Employees")
        table = _table(cluster, source)
        misses = table.agg_cache_misses
        assert misses >= 1 and table.agg_cache_hits == 0
        second = source.sql("SELECT SUM(salary) FROM Employees")
        assert second == first
        assert table.agg_cache_hits >= 1
        assert table.agg_cache_misses == misses

    def test_count_cached_too(self):
        cluster, source = _source()
        assert source.sql("SELECT COUNT(*) FROM Employees") == 40
        table = _table(cluster, source)
        assert source.sql("SELECT COUNT(*) FROM Employees") == 40
        assert table.agg_cache_hits >= 1

    def test_mutation_invalidates(self):
        cluster, source = _source()
        total = source.sql("SELECT SUM(salary) FROM Employees")
        eid = source.sql("SELECT eid FROM Employees")[0]["eid"]
        old = source.sql(f"SELECT salary FROM Employees WHERE eid = {eid}")
        assert source.sql(
            f"UPDATE Employees SET salary = 50000 WHERE eid = {eid}"
        ) == 1
        fresh = source.sql("SELECT SUM(salary) FROM Employees")
        assert fresh == total - old[0]["salary"] + 50000

    def test_predicate_is_part_of_the_key(self):
        cluster, source = _source()
        all_rows = source.sql("SELECT SUM(salary) FROM Employees")
        subset = source.sql(
            "SELECT SUM(salary) FROM Employees WHERE salary >= 3000"
        )
        assert subset <= all_rows
        table = _table(cluster, source)
        # two distinct predicates → two distinct entries, both servable
        before_hits = table.agg_cache_hits
        assert source.sql("SELECT SUM(salary) FROM Employees") == all_rows
        assert source.sql(
            "SELECT SUM(salary) FROM Employees WHERE salary >= 3000"
        ) == subset
        assert table.agg_cache_hits >= before_hits + 2

    def test_telemetry_counters_exposed(self):
        _, source = _source()
        with telemetry.session() as hub:
            source.sql("SELECT SUM(salary) FROM Employees")
            source.sql("SELECT SUM(salary) FROM Employees")
            assert hub.registry.counter_total("provider.aggcache.misses") > 0
            assert hub.registry.counter_total("provider.aggcache.hits") > 0


class TestGroupedAggregateCache:
    QUERY = "SELECT department, SUM(salary) FROM Employees GROUP BY department"

    def test_repeat_grouped_sum_hits(self):
        cluster, source = _source()
        first = source.sql(self.QUERY)
        table = _table(cluster, source)
        second = source.sql(self.QUERY)
        assert second == first
        assert table.agg_cache_hits >= 1

    def test_grouped_invalidation_on_write(self):
        cluster, source = _source()
        first = source.sql(self.QUERY)
        row = source.sql("SELECT eid, department, salary FROM Employees")[0]
        assert source.sql(
            f"UPDATE Employees SET salary = 1 WHERE eid = {row['eid']}"
        ) == 1
        second = source.sql(self.QUERY)
        changed = {g["department"]: g["sum"] for g in second}
        original = {g["department"]: g["sum"] for g in first}
        assert changed[row["department"]] == (
            original[row["department"]] - row["salary"] + 1
        )


class TestFaultsStayOutOfTheCache:
    def test_tamper_applies_per_request_on_a_copy(self):
        """A TAMPER fault must corrupt each response independently; the
        cached payload stays clean, so a later fault-free request serves
        the true partial."""
        provider = ShareProvider("p0")
        provider.handle(
            "create_table",
            {"table": "T", "columns": ["v"], "searchable": []},
        )
        provider.handle(
            "insert_many",
            {"table": "T", "rows": [[i, {"v": 100 + i}] for i in range(8)]},
        )
        clean = provider.handle("aggregate", {
            "table": "T", "func": "sum", "column": "v",
        })
        # arm an always-tamper fault: the cached entry must NOT be mutated
        provider.inject_fault(Fault(FailureMode.TAMPER, rate=1.0, seed=13))
        tampered = provider.handle("aggregate", {
            "table": "T", "func": "sum", "column": "v",
        })
        assert tampered["partial_sum"] != clean["partial_sum"]
        assert tampered["count"] == clean["count"]
        # disarm: the clean payload is served again, bit-identical
        provider.clear_fault()
        again = provider.handle("aggregate", {
            "table": "T", "func": "sum", "column": "v",
        })
        assert again == clean

    def test_tamper_on_a_grouped_hit_leaves_the_cache_clean(self):
        """The grouped path too: a tampered GROUP BY SUM served from the
        cache bends only what is sent, and the next fault-free hit
        returns the clean partials."""
        provider = ShareProvider("p0")
        provider.handle(
            "create_table",
            {"table": "T", "columns": ["g", "v"], "searchable": ["g"]},
        )
        provider.handle(
            "insert_many",
            {"table": "T",
             "rows": [[i, {"g": i % 3, "v": 100 + i}] for i in range(9)]},
        )
        request = {"table": "T", "func": "sum", "column": "v",
                   "group_column": "g"}
        clean = provider.handle("aggregate_group", request)
        table = provider.store.table("T")
        hits = table.agg_cache_hits
        provider.inject_fault(Fault(FailureMode.TAMPER, rate=1.0, seed=13))
        tampered = provider.handle("aggregate_group", request)
        assert table.agg_cache_hits == hits + 1
        assert [p["partial_sum"] for _, p in tampered["groups"]] != [
            p["partial_sum"] for _, p in clean["groups"]
        ]
        provider.clear_fault()
        assert provider.handle("aggregate_group", request) == clean
        assert table.agg_cache_hits == hits + 2

    def test_results_identical_with_and_without_cache_hits(self):
        """End-to-end: an aggregate answered from cache is byte-identical
        to the first (computed) answer across the whole quorum."""
        cluster, source = _source()
        q = "SELECT AVG(salary) FROM Employees WHERE salary >= 2000"
        assert source.sql(q) == source.sql(q)
