"""The write-coherent reconstructed-row cache: hits, invalidation, safety.

The cache's contract is asymmetric: it may serve *stale performance*
(fall through to the wire when entries are gone) but never *stale data*
(serve plaintext from before a write or a re-keying).  These tests pin
both halves — the zero-RPC replay on a repeated read, across writes that
did not touch it, and the stale-then-invalid lifecycle of what a write
did touch, for every write shape.  ``test_rowcache_coherence.py`` is the
randomised twin.
"""

import json
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.client.datasource import DataSource
from repro.client.rowcache import RowCache
from repro.client.updates import LazyUpdateBuffer
from repro.errors import QuorumError, SimulatedCrash
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.sim.network import json_default
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.expression import Between, Comparison, ComparisonOp
from repro.sqlengine.schema import TableSchema, integer_column, string_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.txn import TransactionManager
from repro.workloads.employees import employees_table


def _source(n=5, k=3, rows=30, seed=3):
    cluster = ProviderCluster(n_providers=n, threshold=k)
    source = DataSource(cluster, seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    return cluster, source


QUERY = "SELECT eid, name, salary FROM Employees WHERE salary >= 3000"


def _served(cluster):
    return sum(p.requests_served for p in cluster.providers)


def _row(cache, table, row_id, epoch):
    """The cached row ``row_id``, whatever columns it holds, or None."""
    return cache.get_rows(table, [row_id], epoch, ()).get(row_id)


def _store(cache, table, signature, epoch, pairs, predicate=None):
    """What a read leaves behind: its rows put, then its entry stored."""
    cache.put_rows(table, epoch, pairs)
    cache.store_query(table, signature, epoch, pairs, predicate)


class TestUnitRowCache:
    def test_row_roundtrip_returns_copies(self):
        cache = RowCache()
        row = {"a": 1}
        cache.put_rows("t", 0, [(1, row)])
        row["a"] = 999  # caller mutates after store
        got = _row(cache, "t", 1, 0)
        assert got == {"a": 1}
        got["a"] = 5  # caller mutates the served copy
        assert _row(cache, "t", 1, 0) == {"a": 1}

    def test_a_stale_stamp_misses_and_stores_nothing(self):
        """A read stamps its cache accesses with the epoch it began in; once
        a write has moved the table on, that read can neither be served
        nor leave behind the rows and the result it saw."""
        cache = RowCache()
        _store(cache, "t", ("sig",), 0, [(1, {"a": 1})], Between("a", 1, 1))
        cache.apply_write("t", 1, {2: {"a": 2}})  # a write that touched neither
        assert _row(cache, "t", 1, 1) == {"a": 1}
        assert cache.lookup_query("t", ("sig",), 1, ()) == [(1, {"a": 1})]
        # the reader that began at epoch 0 raced that write
        assert _row(cache, "t", 1, 0) is None
        assert cache.lookup_query("t", ("sig",), 0, ()) is None
        cache.put_rows("t", 0, [(3, {"a": "old"})])
        _store(cache, "t", ("raced",), 0, [(4, {"a": "old"})])
        assert _row(cache, "t", 3, 1) is None
        assert _row(cache, "t", 4, 1) is None
        assert cache.lookup_query("t", ("raced",), 1, ()) is None
        # another table's stamps are its own
        cache.put_rows("u", 0, [(3, {"b": 1})])
        assert _row(cache, "u", 3, 0) == {"b": 1}

    def test_query_replay_and_member_eviction(self):
        cache = RowCache(row_capacity=2, query_capacity=4)
        _store(cache, "t", ("sig",), 0, [(1, {"a": 1}), (2, {"a": 2})])
        assert cache.lookup_query("t", ("sig",), 0, ()) == [
            (1, {"a": 1}), (2, {"a": 2}),
        ]
        # a third row evicts the LRU member; the query can no longer be
        # served whole and must fall through
        cache.put_rows("t", 0, [(3, {"a": 3})])
        assert cache.lookup_query("t", ("sig",), 0, ()) is None

    @pytest.mark.parametrize("row_capacity", [3, 4, 6, 64])
    def test_store_query_after_the_read_wrote_its_rows_back(self, row_capacity):
        """A cache-miss read puts its fresh rows back in one ``put_rows``,
        then ``store_query`` records the entry alone.  That leaves rows,
        LRU order and counters exactly as one put per fresh row does, and
        the entry replays only while the cache still holds its rows."""

        def one_put_per_row(cache, misses, kept):
            for pair in misses:
                cache.put_rows("t", 0, [pair])
            key = ("t", ("sig",))
            cache._queries[key] = (dict.fromkeys(row_id for row_id, _ in kept), None, None)
            cache._scanned.setdefault("t", {})[key] = None

        def batched(cache, misses, kept):
            cache.put_rows("t", 0, misses)
            cache.store_query("t", ("sig",), 0, kept)

        fresh = [(row_id, {"a": row_id}) for row_id in (2, 3, 5, 8, 9, 11)]
        kept = [pair for pair in fresh if pair[0] != 5]  # a residual dropped 5
        caches = []
        for store in (batched, one_put_per_row):
            cache = RowCache(row_capacity=row_capacity, query_capacity=4)
            cache.put_rows("t", 0, [(1, {"a": 1}), (3, {"a": 3})])
            hits = cache.get_rows("t", [row_id for row_id, _ in fresh], 0, ("a",))
            assert list(hits) == [3]  # one row the read hits
            store(cache, [pair for pair in fresh if pair[0] not in hits], kept)
            caches.append(cache)
        new, old = caches
        assert list(new._rows.items()) == list(old._rows.items())
        assert list(new._queries.items()) == list(old._queries.items())
        assert new.stats.snapshot() == old.stats.snapshot()
        assert len(new) == min(row_capacity, 7)
        # seven rows passed through the cache: from 6 up only row 1, which
        # the result does not hold, was evicted
        replay = new.lookup_query("t", ("sig",), 0, ("a",))
        assert replay == (kept if row_capacity >= 6 else None)

    def test_store_query_does_not_copy_a_row_it_already_holds(self):
        """``store_query`` records the entry and leaves the rows alone."""
        cache = RowCache()
        cache.put_rows("t", 0, [(1, {"a": 1}), (2, {"a": 2})])
        held = cache._rows[("t", 1)]
        cache.store_query("t", ("sig",), 0, [(2, {"a": 2}), (1, {"a": 1})])
        assert cache._rows[("t", 1)] is held
        assert list(cache._rows) == [("t", 1), ("t", 2)]
        assert cache.lookup_query("t", ("sig",), 0, ("a",)) == [(2, {"a": 2}), (1, {"a": 1})]
        # an entry whose rows were never put does not replay
        cache.store_query("t", ("unput",), 0, [(3, {"a": 3})])
        assert len(cache) == 2 and cache.lookup_query("t", ("unput",), 0, ()) is None

    def test_a_put_into_a_held_row_adds_the_columns_it_lacked(self):
        """A read hits a row only when it holds every column the read
        fetches; a put merges into the held row (not a copy of it), and a
        replay misses while one member row lacks a column asked for."""
        cache = RowCache()
        cache.put_rows("t", 0, [(1, {"a": 1})])
        held = cache._rows[("t", 1)]
        assert cache.get_rows("t", [1], 0, ("a", "b")) == {}
        _store(cache, "t", ("sig",), 0, [(1, {"a": 1, "b": 2}), (2, {"a": 2})])
        assert cache._rows[("t", 1)] is held and held == {"a": 1, "b": 2}
        assert list(cache._rows) == [("t", 1), ("t", 2)]
        assert cache.get_rows("t", [1, 2], 0, ("a", "b")) == {1: {"a": 1, "b": 2}}
        assert cache.lookup_query("t", ("sig",), 0, ("a",)) == [
            (1, {"a": 1, "b": 2}), (2, {"a": 2}),
        ]
        assert cache.lookup_query("t", ("sig",), 0, ("b",)) is None

    @staticmethod
    def _put_rows_copying_each_row(cache, table, pairs):
        """``put_rows`` as it was before it copied only the rows that
        survive the put: each new row copied as it enters, evicting at
        once."""
        rows = cache._rows
        for row_id, row in pairs:
            key = (table, row_id)
            held = rows.get(key)
            if held is not None:
                held.update(row)
                rows.move_to_end(key)
                continue
            rows[key] = dict(row)
            if len(rows) > cache.row_capacity:
                rows.popitem(last=False)
                cache.stats.evicted += 1

    @settings(max_examples=200, deadline=None)
    @given(
        row_capacity=st.integers(1, 6),
        puts=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 9),
                    st.dictionaries(st.sampled_from("abc"), st.integers(0, 99), min_size=1),
                ),
                max_size=12,
            ),
            max_size=5,
        ),
    )
    @example(row_capacity=2, puts=[[(1, {"a": 1})], [(1, {"b": 2}), (2, {"a": 2}), (3, {"a": 3}), (1, {"c": 4})]])
    @example(row_capacity=3, puts=[[(1, {"a": 1}), (2, {"a": 2}), (1, {"b": 3})]])
    # a put into a cache that is exactly full
    @example(row_capacity=3, puts=[[(1, {"a": 1}), (2, {"a": 2}), (3, {"a": 3})], [(4, {"a": 4}), (5, {"a": 5})]])
    # a put of exactly row_capacity new rows
    @example(row_capacity=3, puts=[[(1, {"a": 1}), (2, {"a": 2})], [(3, {"a": 3}), (4, {"a": 4}), (5, {"a": 5})]])
    # a put naming one of the oldest rows it would otherwise evict
    @example(row_capacity=3, puts=[[(1, {"a": 1}), (2, {"a": 2}), (3, {"a": 3})], [(4, {"b": 4}), (1, {"b": 5})]])
    # a put naming the same new row twice
    @example(row_capacity=3, puts=[[(1, {"a": 1}), (2, {"a": 2}), (3, {"a": 3})], [(4, {"a": 4}), (4, {"b": 5})]])
    def test_a_put_holds_what_copying_each_row_held(self, row_capacity, puts):
        """After every put — below or above capacity, into held rows, naming
        a row twice, a held row evicted mid-put and arriving again — the
        cache holds the same keys in the same LRU order with the same rows
        as when each new row was copied as it entered, and has counted the
        same evictions; no row it holds is one the caller passed."""
        cache, reference = RowCache(row_capacity=row_capacity), RowCache(row_capacity=row_capacity)
        for pairs in puts:
            cache.put_rows("t", 0, iter(pairs))
            self._put_rows_copying_each_row(reference, "t", pairs)
            assert list(cache._rows.items()) == list(reference._rows.items())
            assert cache.stats.evicted == reference.stats.evicted
            passed = {id(row) for _, row in pairs}
            assert not any(id(row) in passed for row in cache._rows.values())

    def test_a_write_effect_drops_the_rows_and_queries_it_touched(self):
        """A deleted row goes; a changed row the cache holds takes its new
        value (written through, not dropped); a query entry goes when the
        write changed its row set — a held row left its predicate, a new
        or changed row entered it, a held row was deleted."""
        cache = RowCache()
        rows = {i: {"a": i} for i in range(1, 7)}
        _store(cache, "t", ("low",), 0, [(1, rows[1]), (2, rows[2])], Between("a", 1, 2))
        _store(cache, "t", ("mid",), 0, [(3, rows[3])], Between("a", 3, 4))
        _store(cache, "t", ("high",), 0, [(5, rows[5]), (6, rows[6])], Between("a", 5, 9))
        _store(cache, "u", ("low",), 0, [(1, rows[1])], Between("a", 1, 2))
        # row 2 changed to a = 4, row 6 deleted, row 7 inserted outside every range
        purged = cache.apply_write("t", 1, {2: {"a": 4}, 6: None, 7: {"a": 50}})
        # low held row 2; mid is satisfied by the new row 2; high held row 6
        assert purged == 1 + 3 and cache.stats.invalidated == 4
        assert [_row(cache, "t", i, 1) for i in (2, 6, 7)] == [{"a": 4}, None, None]
        assert [_row(cache, "t", i, 1) for i in (1, 3, 5)] == [rows[1], rows[3], rows[5]]
        for signature in ("low", "mid", "high"):
            assert cache.lookup_query("t", (signature,), 1, ()) is None
        assert cache.lookup_query("u", ("low",), 0, ()) == [(1, rows[1])]
        # a write that touches no entry's rows and satisfies no predicate
        _store(cache, "t", ("mid",), 1, [(3, rows[3])], Between("a", 3, 4))
        assert cache.apply_write("t", 2, {8: {"a": 60}, 9: None}) == 0
        assert cache.lookup_query("t", ("mid",), 2, ()) == [(3, rows[3])]
        # a write that changes a held row but keeps it inside the range
        assert cache.apply_write("t", 3, {3: {"a": 4}}) == 0
        assert cache.lookup_query("t", ("mid",), 3, ()) == [(3, {"a": 4})]

    def test_an_equality_entry_survives_a_write_that_keeps_its_value(self):
        """Point entries are found by value and by the rows they hold: a
        write that keeps the key keeps the entry and replays the new row;
        one that moves a row onto or off the key drops the entry."""
        cache = RowCache()
        for key in (1, 2, 3):
            _store(cache, 
                "t", (key,), 0, [(key, {"k": key, "v": 0})],
                Comparison("k", ComparisonOp.EQ, key),
            )
        _store(cache, 
            "t", ("name",), 0, [(1, {"k": 1, "v": 0})],
            Comparison("name", ComparisonOp.EQ, "bo"),
        )
        assert cache.apply_write("t", 1, {1: {"k": 1, "v": 9, "name": "BO"}}) == 0
        assert cache.lookup_query("t", (1,), 1, ()) == [(1, {"k": 1, "v": 9, "name": "BO"})]
        # row 2 moves onto key 3: both entries change their row sets
        assert cache.apply_write("t", 2, {2: {"k": 3, "v": 0, "name": None}}) == 2
        assert cache.lookup_query("t", (2,), 2, ()) is None
        assert cache.lookup_query("t", (3,), 2, ()) is None
        assert cache.lookup_query("t", (1,), 2, ()) is not None
        # a NULL never equals anything
        assert cache.apply_write("t", 3, {5: {"k": None, "v": 0, "name": None}}) == 0

    def test_an_entry_without_a_predicate_drops_on_any_write(self):
        """A plan that pushed ``LIMIT`` stores a prefix of the matches: no
        write can be shown to leave it alone."""
        cache = RowCache()
        _store(cache, "t", ("limit",), 0, [(1, {"a": 1})])
        _store(cache, "t", ("all",), 0, [(1, {"a": 1})], Between("a", 0, 5))
        assert cache.apply_write("t", 1, {9: {"a": 77}}) == 1
        assert cache.lookup_query("t", ("limit",), 1, ()) is None
        assert cache.lookup_query("t", ("all",), 1, ()) == [(1, {"a": 1})]
        assert _row(cache, "t", 1, 1) == {"a": 1}

    def test_a_write_without_an_effect_drops_the_table(self):
        cache = RowCache()
        _store(cache, "t", ("all",), 0, [(1, {"a": 1})], Between("a", 0, 5))
        cache.put_rows("u", 0, [(1, {"b": 2})])
        assert cache.apply_write("t", 1) == 2
        assert _row(cache, "t", 1, 1) is None
        assert _row(cache, "u", 1, 0) == {"b": 2}

    def test_invalidate_purges_only_that_table(self):
        cache = RowCache()
        cache.put_rows("t", 0, [(1, {"a": 1})])
        cache.put_rows("u", 0, [(1, {"b": 2})])
        _store(cache, "t", ("s",), 0, [(1, {"a": 1})])
        purged = cache.invalidate("t")
        assert purged == 2
        assert _row(cache, "t", 1, 0) is None
        assert _row(cache, "u", 1, 0) == {"b": 2}

    def test_clear_counts_what_it_purges(self):
        cache = RowCache()
        _store(cache, "t", ("s",), 0, [(1, {"a": 1}), (2, {"a": 2})])
        cache.put_rows("u", 0, [(1, {"b": 2})])
        with telemetry.session() as hub:
            cache.clear()
            assert hub.registry.counter_total("rowcache.invalidated") == 4
        assert cache.stats.invalidated == 4
        assert len(cache) == 0 and cache.lookup_query("t", ("s",), 0, ()) is None

    def test_concurrent_readers_keep_every_entry_indexed(self):
        """A service runs readers concurrently: threads replaying, storing
        and evicting point and range entries and a 40-row entry, beside
        one putting fresh rows for as long as they read (so evicting the
        entries' rows) and purging another table, raise nothing and leave
        every entry in its index slots and no slot naming an entry that is
        gone.  Three rounds: one unlocked put fails a round most of the time."""
        for _ in range(3):
            self._race_readers_and_a_putter(RowCache(row_capacity=64, query_capacity=8))

    @staticmethod
    def _race_readers_and_a_putter(cache):
        wide = [(row_id, {"k": row_id}) for row_id in range(100, 140)]
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(5000):
                    k = 8 if seed % 2 else rng.randrange(8)
                    if k == 8:
                        if cache.lookup_query("t", ("wide",), 0, ("k",)) is None:
                            _store(cache, "t", ("wide",), 0, wide, Between("k", 100, 139))
                        continue
                    predicate = (
                        Comparison("k", ComparisonOp.EQ, k) if k % 2 else Between("k", k, k + 1)
                    )
                    if cache.lookup_query("t", (k,), 0, ("k",)) is None:
                        _store(cache, "t", (k,), 0, [(k, {"k": k})], predicate)
            except Exception as error:  # a thread's failure would be lost
                errors.append(error)

        readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]

        def putter():
            row_id = 1000
            try:
                while any(thread.is_alive() for thread in readers):
                    row_id += 1
                    cache.put_rows("t", 0, [(row_id, {"k": row_id})])
                    if row_id % 100 == 0:
                        cache.invalidate("u")
            except Exception as error:
                errors.append(error)

        threads = [*readers, threading.Thread(target=putter)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors, errors
        named = set().union(*cache._by_value.values(), *cache._by_row.values(), cache._scanned["t"])
        assert named == set(cache._queries)
        for key, (row_ids, predicate, _) in cache._queries.items():
            if isinstance(predicate, Comparison):
                assert key in cache._by_value["t", "k", predicate.value]
                assert all(key in cache._by_row["t", row_id] for row_id in row_ids)
            else:
                assert key in cache._scanned["t"]

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            RowCache(row_capacity=0)


# ------------------------------------------- apply_write against brute force --

#: a row of the property's small table: strings canonical (upper case), as
#: a read reconstructs them and as a write's effect carries them
_ROWS = st.fixed_dictionaries({
    "k": st.integers(0, 3),
    "v": st.none() | st.integers(0, 9),
    "s": st.sampled_from(["A", "B"]),
})
_PREDICATES = st.one_of(
    # point entries, literal case as a statement spells it
    st.builds(Comparison, st.sampled_from(["k", "v"]), st.just(ComparisonOp.EQ), st.integers(0, 9)),
    st.builds(Comparison, st.just("s"), st.just(ComparisonOp.EQ), st.sampled_from(["a", "B"])),
    # ranges and the other comparisons
    st.builds(Between, st.just("v"), st.integers(0, 5), st.integers(3, 9)),
    st.builds(
        Comparison, st.sampled_from(["k", "v"]),
        st.sampled_from([ComparisonOp.GE, ComparisonOp.NE]), st.integers(0, 9),
    ),
)


def _matching(predicate, table):
    return [row_id for row_id in sorted(table) if predicate.matches(table[row_id])]


def _counted(monkeypatch, *classes):
    """Every ``matches`` call of ``classes``' predicates, recorded."""
    calls = []
    for cls in classes:
        def counted(self, row, original=cls.matches):
            calls.append(self)
            return original(self, row)

        monkeypatch.setattr(cls, "matches", counted)
    return calls


class TestApplyWrite:
    @settings(max_examples=150, deadline=None)
    @given(
        table=st.dictionaries(st.integers(0, 7), _ROWS, min_size=1),
        entries=st.lists(st.tuples(_PREDICATES, st.none() | st.integers(0, 3)), max_size=8),
        effect=st.dictionaries(st.integers(0, 11), st.none() | _ROWS, max_size=4),
    )
    def test_an_entry_survives_exactly_when_its_row_set_is_unchanged(
        self, table, entries, effect
    ):
        """Point, range and ``LIMIT`` entries (the last stored without a
        predicate) meet an UPDATE / INSERT / DELETE effect: an entry
        survives exactly when it has a predicate and recomputing its row
        set over the written table gives its stored ids, and a surviving
        entry replays that recomputation, new row values included."""
        effect = {rid: row for rid, row in effect.items() if row is not None or rid in table}
        cache = RowCache()
        stored = []
        for position, (predicate, limit) in enumerate(entries):
            ids = _matching(predicate, table)[:limit]
            stored.append(ids)
            _store(cache, 
                "t", (position,), 0, [(rid, table[rid]) for rid in ids],
                predicate if limit is None else None,
            )
        after = {**table, **effect}
        after = {rid: row for rid, row in after.items() if row is not None}
        cache.apply_write("t", 1, effect)
        for position, (predicate, limit) in enumerate(entries):
            expected = _matching(predicate, after)
            replay = cache.lookup_query("t", (position,), 1, ())
            survives = limit is None and expected == stored[position]
            assert (replay is not None) == survives, (predicate, limit)
            if survives:
                assert replay == [(rid, after[rid]) for rid in expected]

    def test_a_point_write_evaluates_at_most_two_predicates(self, monkeypatch):
        """Equality entries are found by lookup: beside 200 cached ``aid = k``
        entries and one range, a one-row UPDATE evaluates the range's
        predicate and no point entry's."""
        cache = RowCache()
        rows = {k: {"aid": k, "v": k % 10} for k in range(200)}
        for k, row in rows.items():
            _store(cache, 
                "t", ("point", k), 0, [(k, row)], Comparison("aid", ComparisonOp.EQ, k)
            )
        _store(cache, 
            "t", ("range",), 0, [(k, row) for k, row in rows.items() if row["v"] <= 2],
            Between("v", 0, 2),
        )
        calls = _counted(monkeypatch, Comparison, Between)
        # row 7 moves into the range: the range goes, its point entry stays
        assert cache.apply_write("t", 1, {7: {"aid": 7, "v": 1}}) == 1
        assert len(calls) <= 2
        assert cache.lookup_query("t", ("point", 7), 1, ()) == [(7, {"aid": 7, "v": 1})]
        assert cache.lookup_query("t", ("range",), 1, ()) is None


# -------------------------------------------- partial rows against brute force --

_COLUMNS = ("k", "v", "s")
#: a point entry (found by value), a range and a residual-style comparison
_SHARED_PREDICATES = (
    Comparison("k", ComparisonOp.EQ, 1),
    Between("v", 2, 6),
    Comparison("s", ComparisonOp.NE, "A"),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.integers(0, len(_SHARED_PREDICATES) - 1),
            st.sets(st.sampled_from(_COLUMNS), min_size=1),
        ),
        st.tuples(
            st.just("write"), st.dictionaries(st.integers(0, 9), st.none() | _ROWS, max_size=3)
        ),
    ),
    max_size=25,
)


class TestPartialRows:
    @settings(max_examples=150, deadline=None)
    @given(
        table=st.dictionaries(st.integers(0, 9), _ROWS, min_size=1),
        steps=_STEPS,
        row_capacity=st.integers(2, 8),
    )
    def test_reads_of_column_subsets_equal_brute_force(self, table, steps, row_capacity):
        """Reads of random column subsets over a few predicates go through
        the cache as a quorum read does — replay, else a row-level lookup,
        a decode of only the fetched columns for the misses, a put and a
        store — between write effects and evictions.  Every replay and
        every row-level hit equals the table restricted to what it holds,
        and holds every column asked for."""
        cache = RowCache(row_capacity=row_capacity, query_capacity=4)
        epoch = 0

        def exact(pairs, columns):
            for row_id, row in pairs:
                assert row.keys() >= columns
                assert row == {name: table[row_id][name] for name in row}

        for step in steps:
            if step[0] == "write":
                effect = {
                    rid: row for rid, row in step[1].items() if row is not None or rid in table
                }
                table = {rid: row for rid, row in {**table, **effect}.items() if row is not None}
                epoch += 1
                cache.apply_write("t", epoch, effect)
                continue
            _, position, columns = step
            predicate = _SHARED_PREDICATES[position]
            expected = _matching(predicate, table)
            pairs = cache.lookup_query("t", (position,), epoch, columns)
            if pairs is None:
                hits = cache.get_rows("t", expected, epoch, columns)
                exact(hits.items(), columns)
                fetched = columns | predicate.referenced_columns()
                fresh = {
                    rid: {name: table[rid][name] for name in fetched}
                    for rid in expected if rid not in hits
                }
                cache.put_rows("t", epoch, fresh.items())
                pairs = [(rid, hits.get(rid) or fresh[rid]) for rid in expected]
                _store(cache, "t", (position,), epoch, pairs, predicate)
            assert [rid for rid, _ in pairs] == expected
            exact(pairs, columns)


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


# ------------------------------------------------- writes against the cache --

ROWS = 12


def _accounts_schema() -> TableSchema:
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 10_000),
            integer_column("branch", 1, 100),
            string_column("owner", 6),
            integer_column("balance", 0, 1_000_000, searchable=False),
        ),
        primary_key="aid",
    )


def _account_rows():
    # aid i is row id i; branches 1, 8, 15, ... 78
    return [
        {"aid": i, "branch": 7 * i + 1, "owner": ("ANNA", "BOB")[i % 2], "balance": 1000 + i}
        for i in range(ROWS)
    ]


class Accounts:
    """A 12-row deployment beside its oracle, four SELECTs cached."""

    #: the row every write below touches (branch 22)
    TOUCHED = "SELECT * FROM Accounts WHERE aid = 3"
    #: a row and a result no write below touches (branches 71 and 78)
    UNTOUCHED = "SELECT * FROM Accounts WHERE aid = 8"
    UNAFFECTED = "SELECT aid, owner FROM Accounts WHERE branch BETWEEN 70 AND 90"
    #: holds rows 6 and 7; a row written with branch 50 now satisfies it
    WINDOW = "SELECT aid, branch FROM Accounts WHERE branch BETWEEN 40 AND 60"
    CACHED = (TOUCHED, UNTOUCHED, UNAFFECTED, WINDOW)

    def __init__(self, tmp_path) -> None:
        self.cluster = ProviderCluster(n_providers=5, threshold=3)
        self.source = DataSource(self.cluster, seed=3)
        self.source.create_table(_accounts_schema())
        self.source.insert_many("Accounts", _account_rows())
        catalog = Catalog()
        catalog.add_table(Table(_accounts_schema(), _account_rows()))
        self.oracle = PlaintextExecutor(catalog)
        self.wal_path = str(tmp_path / "accounts.wal")
        self.manager = TransactionManager(self.source, self.wal_path)
        for sql in self.CACHED:
            self.source.sql(sql)
        assert all(self.replays(sql) for sql in self.CACHED)

    def replays(self, sql: str) -> bool:
        """``sql`` equals the oracle; True when no provider was asked."""
        before = _served(self.cluster)
        assert self.source.sql(sql) == self.oracle.execute(parse_sql(sql)), sql
        return _served(self.cluster) == before

    def holds_row(self, row_id: int) -> bool:
        epoch = self.source.table_epoch("Accounts")
        return _row(self.source.row_cache, "Accounts", row_id, epoch) is not None


#: ``WriteOp.method`` -> (statement, cached SELECTs it must drop).  Shares
#: increments carry no effect and are with the effect-less paths below.
WRITES = {
    "insert_many": (
        "INSERT INTO Accounts (aid, branch, owner, balance) VALUES (50, 50, 'NEW', 5)",
        {Accounts.WINDOW},
    ),
    # row 3 keeps aid 3, so TOUCHED survives and replays the new row
    "update_rows": (
        "UPDATE Accounts SET branch = 50 WHERE aid = 3",
        {Accounts.WINDOW},
    ),
    "delete_rows": ("DELETE FROM Accounts WHERE aid = 3", {Accounts.TOUCHED}),
}


def _failed_round(dep: Accounts) -> None:
    dep.cluster.inject_fault(4, Fault(FailureMode.FLAKY))
    with pytest.raises(QuorumError):
        dep.source.sql(DELTA)
    dep.cluster.inject_fault(4, Fault(FailureMode.CRASH))


def _crash_and_recover(dep: Accounts) -> None:
    dep.manager.kill_at = "post-log"
    with pytest.raises(SimulatedCrash):
        dep.manager.execute(DELTA)
    dep.manager.close()
    dep.manager = TransactionManager(dep.source, dep.wal_path)
    assert dep.manager.recover()["replayed"] == 1


def _empty_merge(dep: Accounts) -> None:
    dep.source.create_staging_table("Accounts", "Accounts__staging")
    dep.source.merge_staging_table("Accounts", "Accounts__staging")


DELTA = "UPDATE Accounts SET balance = balance + 5 WHERE aid = 3"
#: every bump that cannot say what changed -> (the path, the statement it
#: amounts to for the oracle); the lazy flush and secret rotation have
#: their own tests below
EFFECTLESS = {
    "increment_rows": (
        lambda dep: dep.source.increment(
            "Accounts", "balance", 5, Comparison("aid", ComparisonOp.EQ, 3)
        ),
        DELTA,
    ),
    "txn_increment_rows": (lambda dep: dep.manager.execute(DELTA), DELTA),
    "failed_round": (_failed_round, DELTA),
    "recover": (_crash_and_recover, DELTA),
    "merge_table": (_empty_merge, None),
    "resync": (lambda dep: dep.source.resync_table("Accounts"), None),
    "refresh": (lambda dep: dep.source.refresh_table_shares("Accounts"), None),
    "bare_bump": (lambda dep: dep.source.bump_table_epoch("Accounts"), None),
}


class TestStaleThenInvalid:
    @pytest.mark.parametrize("entry", ["direct", "txn"])
    @pytest.mark.parametrize("method", sorted(WRITES))
    def test_write_drops_what_it_touched(self, tmp_path, method, entry):
        """Regression (ISSUE 6 satellite, per write shape since ISSUE 21):
        a write takes its matches from the cached ``aid = 3`` entry (the
        only round is the write's own), writes a changed row through and
        drops what no longer holds — a deleted row, every result that
        held it, every result whose row set the write changed — and the
        next read returns the new value; everything else is still there
        and replays with zero RPCs."""
        dep = Accounts(tmp_path)
        statement, dropped = WRITES[method]
        planned = dep.source.plan_write(parse_sql(statement))
        assert planned.method == method and planned.effect
        invalidated = dep.source.row_cache.stats.invalidated
        served = _served(dep.cluster)
        run = dep.source.sql if entry == "direct" else dep.manager.execute
        run(statement)
        dep.oracle.execute(parse_sql(statement))
        assert _served(dep.cluster) - served == dep.cluster.n_providers
        assert dep.holds_row(3) == (method != "delete_rows")  # written through
        assert dep.holds_row(8) and dep.holds_row(6)
        # the deleted row (cached as one) + the dropped results
        assert dep.source.row_cache.stats.invalidated - invalidated == len(dropped) + (
            method == "delete_rows"
        )
        for sql in Accounts.CACHED:
            assert dep.replays(sql) == (sql not in dropped), sql
        assert all(dep.replays(sql) for sql in Accounts.CACHED)

    @pytest.mark.parametrize("path", sorted(EFFECTLESS))
    def test_effectless_bump_drops_the_table(self, tmp_path, path):
        """A bump that cannot describe the write keeps the old behaviour:
        every row and result of the table goes, the next read is fresh."""
        dep = Accounts(tmp_path)
        # another table's entries are not this bump's
        dep.source.row_cache.put_rows("Other", 0, [(1, {"x": 1})])
        run, amounts_to = EFFECTLESS[path]
        run(dep)
        if amounts_to is not None:
            dep.oracle.execute(parse_sql(amounts_to))
        cache = dep.source.row_cache
        assert len(cache) == 1
        assert cache.stats.invalidated >= 4 + 6
        for sql in Accounts.CACHED:
            assert not dep.replays(sql), sql
        assert all(dep.replays(sql) for sql in Accounts.CACHED)

    def test_lazy_update_flush_invalidates(self):
        _, source = _source()
        source.sql(QUERY)
        assert len(source.row_cache) > 0
        buffer = LazyUpdateBuffer(source)
        rows = source.sql(QUERY)  # replay, still cached
        eid = rows[0]["eid"]
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

    def test_the_effect_stays_out_of_requests_and_the_wal(self, tmp_path):
        dep = Accounts(tmp_path)
        insert = "INSERT INTO Accounts (aid, branch, owner, balance) VALUES (51, 9, 'QZQZ', 5)"
        op = dep.source.plan_write(parse_sql(insert))
        (row,) = op.effect.values()
        assert row["owner"] == "QZQZ"
        assert "QZQZ" not in json.dumps(op.requests, default=json_default)
        dep.manager.execute(insert, autocommit=False)
        with open(dep.wal_path, "rb") as handle:
            logged = handle.read()
        assert b"Accounts" in logged and b"QZQZ" not in logged
        assert b"effect" not in logged
        dep.manager.flush()
        assert dep.source.sql("SELECT owner FROM Accounts WHERE aid = 51") == [
            {"owner": "QZQZ"}
        ]

    def test_verified_reads_bypass_the_cache(self):
        cluster = ProviderCluster(n_providers=5, threshold=3)
        source = DataSource(cluster, seed=3, read_redundancy=1)
        source.outsource_table(employees_table(20, seed=3))
        query = parse_sql("SELECT * FROM Employees WHERE salary >= 0")
        source.select(query)
        before = _served(cluster)
        source.verified_reads = True
        source.select(query)
        assert _served(cluster) > before, "verified read was served from cache"
