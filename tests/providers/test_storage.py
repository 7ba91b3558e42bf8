"""Unit tests for provider-side share storage."""

import random
import re

import pytest

from repro.errors import ProviderError
from repro.providers.storage import ShareStore, ShareTable, SortedShareIndex
from repro.sim.network import ShareRows


def reference_entries(table, column):
    """Index entries recomputed from the materialized rows — the ground
    truth any index state must match."""
    return sorted(
        (row[column], rid)
        for rid, row in table.rows.items()
        if row[column] is not None
    )


class TestSortedShareIndex:
    def test_insert_and_range(self):
        index = SortedShareIndex("c")
        for share, rid in [(50, 1), (10, 2), (30, 3), (30, 4)]:
            index.insert(share, rid)
        assert index.range_row_ids(10, 30) == [2, 3, 4]
        assert index.range_row_ids(31, 100) == [1]

    def test_equal_row_ids_duplicates(self):
        index = SortedShareIndex("c")
        index.insert(5, 1)
        index.insert(5, 2)
        assert index.equal_row_ids(5) == [1, 2]
        assert index.equal_row_ids(6) == []

    def test_open_ended_ranges(self):
        index = SortedShareIndex("c")
        for share, rid in [(10, 1), (20, 2), (30, 3)]:
            index.insert(share, rid)
        # an open end is a bound past every share
        far = 1 << 200
        assert index.range_row_ids(-far, 20) == [1, 2]
        assert index.range_row_ids(20, far) == [2, 3]
        assert index.range_row_ids(-far, far) == [1, 2, 3]

    def test_exclusive_bounds(self):
        index = SortedShareIndex("c")
        for share, rid in [(10, 1), (20, 2), (30, 3)]:
            index.insert(share, rid)
        # shares are integers: an exclusive bound is its closed neighbour
        assert index.range_row_ids(0, 19) == [1]
        assert index.range_row_ids(21, 99) == [3]

    def test_remove(self):
        index = SortedShareIndex("c")
        index.insert(5, 1)
        index.remove(5, 1)
        assert len(index) == 0
        with pytest.raises(ProviderError):
            index.remove(5, 1)

    def test_min_max_entries(self):
        index = SortedShareIndex("c")
        assert index.min_entry() is None
        index.insert(10, 1)
        index.insert(5, 2)
        assert index.min_entry() == (5, 2)
        assert index.max_entry() == (10, 1)

    def test_comparisons_positive(self):
        index = SortedShareIndex("c")
        assert index.comparisons_for_range() >= 1


class TestShareTable:
    def make(self):
        return ShareTable("T", ["a", "b"], searchable=["a"])

    def test_insert_and_get(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 100, "b": 200})]))
        assert table.get(1) == {"a": 100, "b": 200}
        assert len(table) == 1
        assert table.has_row(1)

    def test_missing_column_stored_as_null(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 100})]))
        assert table.get(1)["b"] is None

    def test_duplicate_rid_rejected(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 1})]))
        with pytest.raises(ProviderError):
            table.insert_many(ShareRows.from_pairs([(1, {"a": 2})]))

    def test_unknown_column_rejected(self):
        table = self.make()
        with pytest.raises(ProviderError):
            table.insert_many(ShareRows.from_pairs([(1, {"zzz": 5})]))

    def test_index_updated_on_mutation(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 10, "b": 1})]))
        table.update_rows([[1, {"a": 99}]])
        assert table.index_for("a").equal_row_ids(10) == []
        assert table.index_for("a").equal_row_ids(99) == [1]

    def test_update_to_null_removes_from_index(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 10})]))
        table.update_rows([[1, {"a": None}]])
        assert table.index_for("a").equal_row_ids(10) == []
        assert table.get(1)["a"] is None

    def test_delete_cleans_index(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(1, {"a": 10})]))
        table.delete_rows([1])
        assert not table.has_row(1)
        assert table.index_for("a").equal_row_ids(10) == []

    def test_non_searchable_index_access_rejected(self):
        table = self.make()
        with pytest.raises(ProviderError):
            table.index_for("b")

    def test_searchable_must_be_subset(self):
        with pytest.raises(ProviderError):
            ShareTable("T", ["a"], searchable=["zzz"])

    def test_version_bumps(self):
        table = self.make()
        v0 = table.version
        table.insert_many(ShareRows.from_pairs([(1, {"a": 1})]))
        table.update_rows([[1, {"a": 2}]])
        table.delete_rows([1])
        assert table.version == v0 + 3

    def test_all_row_ids_sorted(self):
        table = self.make()
        for rid in (5, 1, 3):
            table.insert_many(ShareRows.from_pairs([(rid, {"a": rid})]))
        assert table.all_row_ids() == [1, 3, 5]


class TestMixedDML:
    """Index maintenance under interleaved insert/update/delete.

    The indexes must never leak a stale ``(share, row_id)`` entry, and
    value↔NULL transitions must index/deindex exactly."""

    def make(self):
        table = ShareTable("T", ["a", "b", "v"], searchable=["a", "b"])
        table.insert_many(
            ShareRows.from_pairs(
                [
                    (1, {"a": 10, "b": 5, "v": 100}),
                    (2, {"a": 20, "b": None, "v": 200}),
                    (3, {"a": None, "b": 7, "v": 300}),
                    (4, {"a": 20, "b": 9, "v": 400}),
                ]
            )
        )
        return table

    def assert_indexes_consistent(self, table):
        for column in sorted(table.searchable):
            assert (
                table.index_for(column).entries_in_order()
                == reference_entries(table, column)
            ), f"index {column} diverged from stored rows"

    def test_update_searchable_reindexes(self):
        table = self.make()
        table.update_rows([[1, {"a": 99}]])
        assert table.index_for("a").equal_row_ids(10) == []
        assert table.index_for("a").equal_row_ids(99) == [1]
        self.assert_indexes_consistent(table)

    def test_null_transitions(self):
        table = self.make()
        table.update_rows([[1, {"a": None}]])  # value -> NULL: deindexed
        assert table.index_for("a").equal_row_ids(10) == []
        table.update_rows([[3, {"a": 55}]])  # NULL -> value: indexed
        assert table.index_for("a").equal_row_ids(55) == [3]
        table.update_rows([[2, {"b": 5}]])  # NULL -> value on second index
        assert sorted(table.index_for("b").equal_row_ids(5)) == [1, 2]
        self.assert_indexes_consistent(table)

    def test_insert_update_delete_sequence(self):
        table = self.make()
        table.insert_many(ShareRows.from_pairs([(5, {"a": 20, "b": None, "v": 500})]))
        table.update_rows([[5, {"a": 21, "b": 3}]])
        table.update_rows([[4, {"a": None}]])
        table.delete_rows([2])
        table.delete_rows([5])
        self.assert_indexes_consistent(table)
        # no stale entries: every indexed row id still exists
        for column in sorted(table.searchable):
            for _, rid in table.index_for(column).entries_in_order():
                assert table.has_row(rid)

    def test_delete_after_bulk_load_swaps_slots_correctly(self):
        table = self.make()
        table.delete_rows([1])  # swap-remove moves the last slot into the hole
        assert table.get(4) == {"a": 20, "b": 9, "v": 400}
        assert table.value(2, "v") == 200
        self.assert_indexes_consistent(table)

    def test_randomized_dml_never_leaks_entries(self):
        rng = random.Random(42)
        table = ShareTable("T", ["a", "b", "v"], searchable=["a", "b"])
        alive = []
        next_rid = 0
        for step in range(300):
            action = rng.random()
            if action < 0.45 or not alive:
                values = {
                    "a": rng.randrange(50) if rng.random() > 0.2 else None,
                    "b": rng.randrange(50) if rng.random() > 0.2 else None,
                    "v": rng.randrange(1000),
                }
                table.insert_many(ShareRows.from_pairs([(next_rid, values)]))
                alive.append(next_rid)
                next_rid += 1
            elif action < 0.8:
                rid = rng.choice(alive)
                column = rng.choice(["a", "b"])
                new = rng.randrange(50) if rng.random() > 0.3 else None
                table.update_rows([[rid, {column: new}]])
            else:
                rid = rng.choice(alive)
                alive.remove(rid)
                table.delete_rows([rid])
        for column in ("a", "b"):
            assert (
                table.index_for(column).entries_in_order()
                == reference_entries(table, column)
            )


class TestBulkLoad:
    """``insert_many`` of a batch vs one ``insert_many`` per row."""

    COLUMNS = ["a", "b", "v"]

    def rows(self, n=200, seed=9):
        rng = random.Random(seed)
        return [
            (
                rid,
                {
                    "a": rng.randrange(40) if rng.random() > 0.1 else None,
                    "b": rng.randrange(40) if rng.random() > 0.1 else None,
                    "v": rng.randrange(10_000),
                },
            )
            for rid in range(n)
        ]

    def test_bulk_equals_incremental(self):
        rows = self.rows()
        bulk = ShareTable("T", self.COLUMNS, searchable=["a", "b"])
        assert bulk.insert_many(ShareRows.from_pairs(rows)) == len(rows)
        incremental = ShareTable("T", self.COLUMNS, searchable=["a", "b"])
        for rid, values in rows:
            incremental.insert_many(ShareRows.from_pairs([(rid, values)]))
        assert bulk.rows == incremental.rows
        assert bulk.all_row_ids() == incremental.all_row_ids()
        for column in ("a", "b"):
            assert (
                bulk.index_for(column).entries_in_order()
                == incremental.index_for(column).entries_in_order()
            )

    def test_bulk_load_into_nonempty_table_merges(self):
        rows = self.rows()
        table = ShareTable("T", self.COLUMNS, searchable=["a", "b"])
        table.insert_many(ShareRows.from_pairs(rows[:50]))
        table.insert_many(ShareRows.from_pairs(rows[50:]))
        assert table.rows == dict(
            (rid, {c: values.get(c) for c in self.COLUMNS})
            for rid, values in rows
        )
        for column in ("a", "b"):
            assert (
                table.index_for(column).entries_in_order()
                == reference_entries(table, column)
            )

    def test_invalid_batch_fails_like_single_inserts(self):
        """An invalid row surfaces the error one-row inserts raise at that
        row, but the batch is refused whole: where the one-row inserts
        leave the rows before it behind, the batch leaves nothing."""
        batch = [
            (1, {"a": 1, "v": 10}),
            (2, {"zzz": 5}),
            (3, {"a": 3, "v": 30}),
        ]
        bulk = ShareTable("T", self.COLUMNS, searchable=["a"])
        with pytest.raises(ProviderError) as bulk_error:
            bulk.insert_many(ShareRows.from_pairs(batch))
        incremental = ShareTable("T", self.COLUMNS, searchable=["a"])
        with pytest.raises(ProviderError) as incremental_error:
            for rid, values in batch:
                incremental.insert_many(ShareRows.from_pairs([(rid, values)]))
        assert str(bulk_error.value) == str(incremental_error.value)
        assert list(incremental.rows) == [1]
        assert bulk.rows == {} and bulk.history == [] and bulk.version == 0
        assert bulk.index_for("a").entries_in_order() == []

    def test_duplicate_rid_within_batch_rejected(self):
        table = ShareTable("T", self.COLUMNS, searchable=["a"])
        with pytest.raises(ProviderError, match="duplicate row id 1"):
            table.insert_many(ShareRows.from_pairs([(1, {"a": 1}), (1, {"a": 2})]))
        assert table.rows == {} and table.history == [] and table.version == 0

    def test_empty_batch(self):
        table = ShareTable("T", self.COLUMNS, searchable=["a"])
        assert table.insert_many(ShareRows.from_pairs([])) == 0
        assert len(table) == 0


class TestUnkeyableInputIsRefusedWhole:
    """A share no index can key, or a row id that is negative or not an
    int, raises ``ProviderError`` before anything changes — batches and
    batches of one, either backend.  (It used to append the rows and
    then fail inside index ``b``: rows visible to scans, missing from
    ``b`` predicates.)"""

    @staticmethod
    def rows(start, count=40):
        return [(rid, {"a": 3 * rid, "b": 5 * rid, "v": rid}) for rid in range(start, start + count)]

    @staticmethod
    def state(provider):
        table = provider.store.table("T")
        return (
            table.rows,
            {column: index.entries_in_order() for column, index in table.indexes.items()},
            table.version,
            list(table.history),
        )

    @pytest.fixture(params=["numpy", "scalar"])
    def provider(self, request):
        from repro.core import kernels
        from repro.providers.provider import ShareProvider

        if request.param not in kernels.available_backends():
            pytest.skip(f"{request.param} backend not installed")
        previous = kernels.set_kernel_backend(request.param)
        provider = ShareProvider("P")
        provider.handle(
            "create_table", {"table": "T", "columns": ["a", "b", "v"], "searchable": ["a", "b"]}
        )
        provider.handle("insert_many", {"table": "T", "rows": self.rows(0)})
        yield provider
        kernels.set_kernel_backend(previous)

    def b_matches(self, provider):
        wide = {
            "table": "T", "conditions": [{"column": "b", "op": "range", "low": 0, "high": 1 << 256}],
        }
        return len(provider.handle("select", wide)["rows"])

    @pytest.mark.parametrize(
        "position, column, bad",
        [
            (7, "b", "x"),
            (0, "a", 2.5),
            (39, "b", True),
            (12, "a", [1]),
            (5, "row id", -1),
            (20, "row id", 2.0),
            (39, "row id", "7"),
        ],
    )
    def test_a_batch_with_one_bad_cell_changes_nothing(self, provider, position, column, bad):
        batch = self.rows(40)
        row_id, values = batch[position]
        batch[position] = (bad, values) if column == "row id" else (row_id, {**values, column: bad})
        before = self.state(provider)
        with pytest.raises(ProviderError, match=re.escape(repr(bad))):
            provider.handle("insert_many", {"table": "T", "rows": batch})
        assert self.state(provider) == before
        assert self.b_matches(provider) == len(provider.store.table("T")) == 40

    def test_a_single_row_changes_nothing(self, provider):
        table = provider.store.table("T")
        before = self.state(provider)
        for row_id, values in [(80, {"a": 1, "b": "x"}), (-3, {"a": 1}), (2.0, {"b": 4})]:
            with pytest.raises(ProviderError):
                provider.handle("insert_many", {"table": "T", "rows": [(row_id, values)]})
            with pytest.raises(ProviderError):
                table.insert_many(ShareRows.from_pairs([(row_id, values)]))
        with pytest.raises(ProviderError):
            table.update_rows([[3, {"a": 7, "b": "x"}]])
        assert self.state(provider) == before
        assert self.b_matches(provider) == 40
        provider.handle("insert_many", {"table": "T", "rows": [(80, {"a": 1, "b": 2})]})
        assert self.b_matches(provider) == len(table) == 41

    @pytest.mark.parametrize("column", ["a", "v"])
    @pytest.mark.parametrize("shares, row_ids", [([5], [80, 81]), ([5, 6], [80])])
    @pytest.mark.parametrize("route", ["direct", "handle"])
    def test_a_ragged_batch_changes_nothing(self, provider, column, shares, row_ids, route):
        # a column holding fewer (or more) shares than the batch has rows
        table = provider.store.table("T")
        names = ("a", "b", "v")
        cells = [shares if name == column else [7] * len(row_ids) for name in names]
        batch = ShareRows(row_ids, names, cells)
        before = self.state(provider)
        message = f"column '{column}' holds {len(shares)} shares for {len(row_ids)} rows"
        with pytest.raises(ProviderError, match=re.escape(message)):
            if route == "direct":
                table.insert_many(batch)
            else:
                provider.handle("insert_many", {"table": "T", "rows": batch})
        assert self.state(provider) == before
        # the next row inherits nothing and a full-table select still reads
        provider.handle("insert_many", {"table": "T", "rows": [(80, {"a": 1, "b": 2})]})
        assert table.get(80) == {"a": 1, "b": 2, "v": None}
        assert len(provider.handle("select", {"table": "T", "conditions": []})["rows"]) == 41


class TestDerivedStateCache:
    def make(self):
        table = ShareTable("T", ["a"], searchable=["a"])
        table.insert_many(ShareRows.from_pairs([(5, {"a": 1}), (1, {"a": 2}), (3, {"a": 3})]))
        return table

    def test_row_order_cached_across_reads(self):
        table = self.make()
        for _ in range(3):
            assert table.all_row_ids() == [1, 3, 5]
        assert table.derived_rebuilds == 1  # one rebuild for all reads

    def test_mutation_invalidates_cache(self):
        table = self.make()
        table.all_row_ids()
        table.delete_rows([3])
        assert table.all_row_ids() == [1, 5]
        assert table.derived_rebuilds == 2


class TestColumnarKernels:
    def make(self):
        table = ShareTable("T", ["a", "v"], searchable=["a"])
        table.insert_many(
            ShareRows.from_pairs([(1, {"a": 10, "v": 100}), (2, {"a": 20}), (3, {"v": 300})])
        )
        return table

    def test_values_for_rows(self):
        table = self.make()
        assert table.values_for_rows("v", [3, 1, 2]) == [300, 100, None]
        with pytest.raises(ProviderError):
            table.values_for_rows("v", [1, 99])

    def test_column_array_and_slots(self):
        table = self.make()
        array = table.column_array("a")
        assert [array[table.slot_of(rid)] for rid in (1, 2, 3)] == [
            10,
            20,
            None,
        ]
        with pytest.raises(ProviderError):
            table.column_array("zzz")

    def test_gather_is_column_major_whatever_the_row_count(self):
        """One share sequence per column, aligned with the row ids: two
        slots and more go through ``itemgetter``, which would answer a
        bare share for one slot and raises for none."""
        table = self.make()
        for row_ids in ([2, 3, 1], [3, 2], [3], []):
            rows = table.gather(row_ids, table.slots_for(row_ids))
            assert rows.row_ids == row_ids
            assert rows.columns == ("a", "v")
            assert [list(cells) for cells in rows.shares] == [
                table.values_for_rows("a", row_ids),
                table.values_for_rows("v", row_ids),
            ]
            assert list(rows) == [(rid, table.get(rid)) for rid in row_ids]
        projected = table.gather([2, 3], table.slots_for([2, 3]), ["v"])
        assert list(projected) == [(2, {"v": None}), (3, {"v": 300})]
        nothing = table.gather([1, 2], table.slots_for([1, 2]), [])
        assert list(nothing) == [(1, {}), (2, {})]


class TestUndoHistoryRetention:
    def test_pruning_keeps_exactly_the_records_above_the_floor(self):
        """Five undo records per epoch (three inserts, an update, a
        delete); after each stamped write the history is exactly the
        records above ``epoch - retention``, in order, the past at the
        floor still reads back, and a read below the floor is refused."""
        retention = 3
        table = ShareTable("T", ["a", "v"], ["a"], history_retention=retention)
        written = []

        def check(epoch):
            floor = max(0, epoch - retention)
            assert table.history_floor == floor
            assert [record[:3] for record in table.history] == [
                record for record in written if record[0] > floor
            ]

        for epoch in range(1, 10):
            base = 3 * epoch
            for row_id in range(base, base + 3):
                table.insert_many(ShareRows.from_pairs([(row_id, {"a": row_id, "v": epoch})]), epoch=epoch)
                written.append((epoch, "insert", row_id))
                check(epoch)
            table.update_rows([[base, {"v": -epoch}]], epoch=epoch)
            written.append((epoch, "update", base))
            check(epoch)
            table.delete_rows([base + 1], epoch=epoch)
            written.append((epoch, "delete", base + 1))
            check(epoch)
        floor = table.history_floor
        assert floor == 9 - retention
        assert table.rows_asof(floor) == {
            row_id: {"a": row_id, "v": v}
            for epoch in range(1, floor + 1)
            for row_id, v in ((3 * epoch, -epoch), (3 * epoch + 2, epoch))
        }
        with pytest.raises(ProviderError, match="predates the history horizon"):
            table.rows_asof(floor - 1)


class TestShareStore:
    def test_create_and_lookup(self):
        store = ShareStore()
        store.create_table("T", ["a"], ["a"])
        assert store.has_table("T")
        assert store.table_names() == ["T"]
        with pytest.raises(ProviderError):
            store.create_table("T", ["a"], [])

    def test_drop(self):
        store = ShareStore()
        store.create_table("T", ["a"], [])
        store.drop_table("T")
        with pytest.raises(ProviderError):
            store.drop_table("T")

    def test_missing_table(self):
        with pytest.raises(ProviderError):
            ShareStore().table("nope")
