"""The epoch-keyed reconstructed-row cache: hits, invalidation, safety.

The cache's contract is asymmetric: it may serve *stale performance*
(fall through to the wire when entries are gone) but never *stale data*
(serve plaintext from before a write or a re-keying).  These tests pin
both halves — the zero-RPC replay on a repeated read, and the
stale-then-invalid lifecycle of a cached row across an epoch bump.
"""

import pytest

from repro import telemetry
from repro.client.datasource import DataSource
from repro.client.rowcache import RowCache
from repro.providers.cluster import ProviderCluster
from repro.workloads.employees import employees_table


def _source(n=5, k=3, rows=30, seed=3):
    cluster = ProviderCluster(n_providers=n, threshold=k)
    source = DataSource(cluster, seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    return cluster, source


QUERY = "SELECT eid, name, salary FROM Employees WHERE salary >= 3000"


def _served(cluster):
    return sum(p.requests_served for p in cluster.providers)


class TestUnitRowCache:
    def test_row_roundtrip_returns_copies(self):
        cache = RowCache()
        row = {"a": 1}
        cache.put_row("t", 1, 0, row)
        row["a"] = 999  # caller mutates after store
        got = cache.get_row("t", 1, 0)
        assert got == {"a": 1}
        got["a"] = 5  # caller mutates the served copy
        assert cache.get_row("t", 1, 0) == {"a": 1}

    def test_epoch_is_part_of_the_key(self):
        cache = RowCache()
        cache.put_row("t", 1, 0, {"a": 1})
        assert cache.get_row("t", 1, 1) is None
        assert cache.get_row("t", 1, 0) == {"a": 1}

    def test_query_replay_and_member_eviction(self):
        cache = RowCache(row_capacity=2, query_capacity=4)
        cache.store_query("t", ("sig",), 0, [(1, {"a": 1}), (2, {"a": 2})])
        assert cache.lookup_query("t", ("sig",), 0) == [
            (1, {"a": 1}), (2, {"a": 2}),
        ]
        # a third row evicts the LRU member; the query can no longer be
        # served whole and must fall through
        cache.put_row("t", 3, 0, {"a": 3})
        assert cache.lookup_query("t", ("sig",), 0) is None

    @pytest.mark.parametrize("row_capacity", [3, 4, 6, 64])
    def test_store_query_after_the_read_wrote_its_rows_back(self, row_capacity):
        """A cache-miss read puts each fresh row back, then ``store_query``
        records the result over the same rows.  The second step copies no
        row that is still there, yet leaves rows, LRU order and counters
        exactly as putting every row a second time did — including, when
        the result outgrows ``row_capacity``, re-inserting the rows the
        first step's own tail evicted."""

        def put_every_row_again(cache, table, signature, epoch, pairs):
            # store_query as it was before it skipped rows already held
            for row_id, row in pairs:
                cache.put_row(table, row_id, epoch, row)
            key = (table, signature, epoch)
            cache._queries[key] = tuple(row_id for row_id, _ in pairs)
            cache._queries.move_to_end(key)

        fresh = [(row_id, {"a": row_id}) for row_id in (2, 3, 5, 8, 9, 11)]
        kept = [pair for pair in fresh if pair[0] != 5]  # a residual dropped 5
        caches = []
        for store in (RowCache.store_query, put_every_row_again):
            cache = RowCache(row_capacity=row_capacity, query_capacity=4)
            cache.put_row("t", 1, 0, {"a": 1})
            cache.put_row("t", 3, 0, {"a": 3})  # one row the read will hit
            for row_id, row in fresh:
                if cache.get_row("t", row_id, 0) is None:
                    cache.put_row("t", row_id, 0, row)
            store(cache, "t", ("sig",), 0, kept)
            caches.append(cache)
        new, old = caches
        assert list(new._rows.items()) == list(old._rows.items())
        assert list(new._queries.items()) == list(old._queries.items())
        assert new.stats.snapshot() == old.stats.snapshot()
        if row_capacity >= len(kept):
            assert new.lookup_query("t", ("sig",), 0) == kept

    def test_store_query_does_not_copy_a_row_it_already_holds(self):
        cache = RowCache()
        cache.put_row("t", 1, 0, {"a": 1})
        held = cache._rows[("t", 1, 0)]
        cache.store_query("t", ("sig",), 0, [(1, {"a": 1}), (2, {"a": 2})])
        assert cache._rows[("t", 1, 0)] is held
        assert list(cache._rows) == [("t", 1, 0), ("t", 2, 0)]
        assert cache.lookup_query("t", ("sig",), 0) == [(1, {"a": 1}), (2, {"a": 2})]

    def test_invalidate_purges_only_that_table(self):
        cache = RowCache()
        cache.put_row("t", 1, 0, {"a": 1})
        cache.put_row("u", 1, 0, {"b": 2})
        cache.store_query("t", ("s",), 0, [(1, {"a": 1})])
        purged = cache.invalidate("t")
        assert purged == 2
        assert cache.get_row("t", 1, 0) is None
        assert cache.get_row("u", 1, 0) == {"b": 2}

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            RowCache(row_capacity=0)


class TestCachedReread:
    def test_identical_select_skips_all_provider_rpcs(self):
        cluster, source = _source()
        first = source.sql(QUERY)
        before = _served(cluster)
        bytes_before = cluster.network.total_bytes
        second = source.sql(QUERY)
        assert second == first
        assert _served(cluster) == before, "cached re-read hit providers"
        assert cluster.network.total_bytes == bytes_before
        assert source.row_cache.stats.query_hits >= 1

    def test_different_projection_same_predicate_shares_row_entries(self):
        cluster, source = _source()
        source.sql(QUERY)
        before = _served(cluster)
        rows = source.sql("SELECT name FROM Employees WHERE salary >= 3000")
        assert _served(cluster) == before
        assert rows and set(rows[0]) == {"name"}

    def test_result_mutation_does_not_poison_the_cache(self):
        _, source = _source()
        first = source.sql(QUERY)
        first[0]["salary"] = -1
        second = source.sql(QUERY)
        assert second[0]["salary"] != -1

    def test_hit_miss_counters_exposed_via_telemetry(self):
        _, source = _source()
        with telemetry.session() as hub:
            source.sql(QUERY)
            source.sql(QUERY)
            assert hub.registry.counter_total("rowcache.query_misses") == 1
            assert hub.registry.counter_total("rowcache.query_hits") == 1
            assert hub.registry.counter_total("rowcache.row_misses") > 0


class TestStaleThenInvalid:
    def test_cached_row_goes_stale_then_invalid_on_epoch_bump(self):
        """Regression (ISSUE 6 satellite): a cached row survives exactly
        until its table's epoch moves, then is both unreachable (new
        epoch key) and physically purged."""
        _, source = _source()
        rows = source.sql(QUERY)
        eid = rows[0]["eid"]
        epoch = source.table_epoch("Employees")
        cached_ids = [
            rid for (tbl, rid, ep) in source.row_cache._rows
            if tbl == "Employees" and ep == epoch
        ]
        assert cached_ids, "first read cached nothing"
        probe = (
            "Employees", cached_ids[0], epoch,
        )
        assert source.row_cache._rows.get(probe) is not None
        # the write makes every cached entry stale...
        n = source.sql(
            f"UPDATE Employees SET salary = 123456 WHERE eid = {eid}"
        )
        assert n == 1
        new_epoch = source.table_epoch("Employees")
        assert new_epoch == epoch + 1
        # ...and invalid: purged from the store, not just unreachable
        assert source.row_cache._rows.get(probe) is None
        assert len(source.row_cache) == 0
        assert source.row_cache.stats.invalidated > 0
        # the next read goes back to the wire and sees the new value
        fresh = source.sql(QUERY)
        assert any(r["salary"] == 123456 for r in fresh)

    def test_lazy_update_flush_invalidates(self):
        from repro.client.updates import LazyUpdateBuffer

        _, source = _source()
        source.sql(QUERY)
        assert len(source.row_cache) > 0
        buffer = LazyUpdateBuffer(source)
        rows = source.sql(QUERY)  # replay, still cached
        eid = rows[0]["eid"]
        from repro.sqlengine.sqlparser import parse_sql

        buffer.enqueue(
            parse_sql(f"UPDATE Employees SET salary = 7777 WHERE eid = {eid}")
        )
        buffer.flush()
        assert len(source.row_cache) == 0
        fresh = source.sql(QUERY)
        assert any(r["salary"] == 7777 for r in fresh)

    def test_rotation_clears_everything(self):
        from repro.core import kernels

        _, source = _source()
        source.sql(QUERY)
        assert len(source.row_cache) > 0
        source.rotate_secrets(new_seed=99)
        # rotation re-keys all plaintext: the cache must be empty, and the
        # kernel caches (keyed on the old evaluation points) must be too
        stats = kernels.kernel_stats()
        assert stats.weight_hits + stats.weight_misses >= 0
        rows = source.sql(QUERY)
        assert rows  # readable under the new secrets

    def test_verified_reads_bypass_the_cache(self):
        from repro.trust.auditing import AuditRegistry

        cluster = ProviderCluster(n_providers=5, threshold=3)
        source = DataSource(
            cluster, seed=3, audit=AuditRegistry(5), read_redundancy=1
        )
        source.outsource_table(employees_table(20, seed=3))
        from repro.sqlengine.sqlparser import parse_sql

        query = parse_sql("SELECT * FROM Employees WHERE salary >= 0")
        source.select(query)
        before = _served(cluster)
        source.select_verified(query)
        assert _served(cluster) > before, "verified read was served from cache"
