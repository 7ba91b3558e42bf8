"""The provider-side join probes a cached equality map.

``_rpc_join`` no longer builds a ``{share: [row ids]}`` dict over the
right table per request: the right join column's index derives one
lazily (:meth:`SortedShareIndex.equality_map`), keyed on its mutation
counter, and the right conditions' matched ids filter the partners.
These tests hold every join, after every kind of write to the build
side, to a brute-force pairing over ``table.rows``, and count the map's
builds: one per index mutation a join consults, none from any other read.
Backend-free — both CI legs run them.
"""

import pytest

from repro.core.field import MERSENNE_61
from repro.providers.provider import ShareProvider

LEFT = [  # k: join key (duplicates, a NULL), a: a second searchable column
    (0, {"k": 10, "a": 1}),
    (1, {"k": 20, "a": 2}),
    (2, {"k": 20, "a": 3}),
    (3, {"k": None, "a": 4}),
    (4, {"k": 30, "a": 5}),
    (5, {"k": 40, "a": 6}),
    (6, {"k": 50, "a": 7}),
]
RIGHT = [  # k: join key (duplicates, a NULL), b: searchable, v: random shares
    (10, {"k": 20, "b": 100, "v": 7}),
    (11, {"k": 20, "b": 200, "v": 8}),
    (12, {"k": 20, "b": 300, "v": None}),
    (13, {"k": 30, "b": 100, "v": 9}),
    (14, {"k": None, "b": 200, "v": 10}),
    (15, {"k": 40, "b": 300, "v": 11}),
    (16, {"k": 60, "b": 100, "v": 12}),
]



def build_provider():
    provider = ShareProvider("J")
    provider.handle("create_table", {
        "table": "L", "columns": ["k", "a"], "searchable": ["k", "a"],
    })
    provider.handle("create_table", {
        "table": "R", "columns": ["k", "b", "v"], "searchable": ["k", "b"],
    })
    provider.handle("insert_many", {"table": "L", "rows": LEFT})
    provider.handle("insert_many", {"table": "R", "rows": RIGHT})
    return provider


def join(provider, left_conditions=(), right_conditions=()):
    out = provider.handle("join", {
        "left": "L", "right": "R", "left_column": "k", "right_column": "k",
        "left_conditions": list(left_conditions),
        "right_conditions": list(right_conditions),
    })
    return list(out["left"]), list(out["right"])


def brute_force(provider, left_conditions=(), right_conditions=()):
    """Each side's distinct matched rows, ascending row id."""

    def matching(table, conditions):
        return {
            rid: row for rid, row in provider.store.table(table).rows.items()
            if all(
                row[c["column"]] is not None and c["low"] <= row[c["column"]] <= c["high"]
                for c in conditions
            )
        }

    left = matching("L", left_conditions)
    right = matching("R", right_conditions)
    right_keys = {row["k"] for row in right.values()} - {None}
    left_hits = {rid: row for rid, row in left.items() if row["k"] in right_keys}
    left_keys = {row["k"] for row in left_hits.values()}
    right_hits = {rid: row for rid, row in right.items() if row["k"] in left_keys}
    return sorted(left_hits.items()), sorted(right_hits.items())


def map_builds(provider):
    return provider.store.table("R").indexes["k"].equality_map_builds


def assert_join_is_brute_force(provider, left=(), right=()):
    answer = join(provider, left, right)
    assert answer == brute_force(provider, left, right)
    return answer


class TestJoinEqualsBruteForce:
    def test_duplicate_keys_on_both_sides(self):
        provider = build_provider()
        left, right = assert_join_is_brute_force(provider)
        assert [rid for rid, _ in left] == [1, 2, 4, 5]
        assert [rid for rid, _ in right] == [10, 11, 12, 13, 15]

    @pytest.mark.parametrize("right_conditions, partners", [
        # keeps some of key 20's three partners
        ([{"column": "b", "op": "range", "low": 200, "high": 1 << 256}], [11, 12, 15]),
        # keeps one of key 20's and none of key 30's: left row 4 drops out
        ([{"column": "b", "op": "range", "low": 300, "high": 300}], [12, 15]),
        # keeps nothing at all
        ([{"column": "b", "op": "range", "low": 1_000, "high": 1 << 256}], []),
        # two conditions, one on the join column itself
        ([{"column": "k", "op": "range", "low": -(1 << 256), "high": 30},
          {"column": "b", "op": "range", "low": 150, "high": 250}], [11]),
    ])
    def test_right_conditions_filter_the_partners(self, right_conditions, partners):
        provider = build_provider()
        left, right = assert_join_is_brute_force(provider, (), right_conditions)
        assert [rid for rid, _ in right] == partners
        if not partners:
            assert left == []

    def test_left_conditions(self):
        provider = build_provider()
        assert_join_is_brute_force(
            provider, [{"column": "a", "op": "range", "low": 2, "high": 5}],
            [{"column": "b", "op": "range", "low": -(1 << 256), "high": 200}],
        )

    def test_the_recorded_cost_is_the_logical_build_and_probe(self):
        # the map is free after its first build, but the recorded cost is
        # still one compare per right row matched plus one per left row
        provider = build_provider()
        for _ in range(2):
            before = provider.cost.count("compare")
            join(provider)
            assert provider.cost.count("compare") - before == len(RIGHT) + len(LEFT)


class TestEveryWriteToTheBuildSide:
    """A join after each DML kind equals the brute force over the new rows,
    and rebuilds the map exactly when the join column's index changed."""

    def test_writes(self):
        provider = build_provider()
        right_filter = [{"column": "b", "op": "range", "low": -(1 << 256), "high": 200}]

        def check(expected_builds):
            assert_join_is_brute_force(provider)
            assert_join_is_brute_force(provider, (), right_filter)
            assert map_builds(provider) == expected_builds

        check(1)
        # insert: a new partner for key 10, and a NULL key (no index entry)
        provider.handle("insert_many", {"table": "R", "rows": [
            (17, {"k": 10, "b": 100, "v": 1}),
        ]})
        check(2)
        provider.handle("insert_many", {"table": "R", "rows": [
            (18, {"k": None, "b": 100, "v": 1}),
        ]})
        check(2)  # the k index did not change
        # UPDATE of the join column: 11 leaves key 20 for key 50
        provider.handle("update_rows", {"table": "R", "updates": [
            [11, {"k": 50}],
        ]})
        check(3)
        # swap-remove delete: row 10 sits mid-table, the last slot moves in
        provider.handle("delete_rows", {"table": "R", "row_ids": [10]})
        check(4)
        # increments touch a randomly-shared column only: the index stands
        provider.handle("increment_rows", {
            "table": "R", "row_ids": [12, 13, 15], "deltas": {"v": 5},
            "modulus": MERSENNE_61,
        })
        check(4)
        provider.handle("increment_rows", {
            "table": "R", "increments": [[13, {"v": 3}]], "modulus": MERSENNE_61,
        })
        check(4)
        _, right = join(provider)
        assert dict(right)[13]["v"] == 9 + 5 + 3

    def test_an_update_of_another_column_keeps_the_map(self):
        provider = build_provider()
        join(provider)
        provider.handle("update_rows", {"table": "R", "updates": [[13, {"b": 250}]]})
        assert_join_is_brute_force(
            provider, (), [{"column": "b", "op": "range", "low": 250, "high": 1 << 256}]
        )
        assert map_builds(provider) == 1


class TestMapBuilds:
    def test_other_reads_build_no_map(self):
        provider = build_provider()
        reads = [
            ("select", {"table": "R", "conditions": [
                {"column": "k", "op": "range", "low": 20, "high": 20}]}),
            ("select", {"table": "R", "conditions": [], "order_by": "k",
                        "descending": True, "limit": 2}),
            ("aggregate_group", {"table": "R", "group_column": "k",
                                 "func": "count", "column": None,
                                 "conditions": []}),
        ]
        for method, request in reads:
            provider.handle(method, request)
        assert map_builds(provider) == 0
        join(provider)
        join(provider)
        assert map_builds(provider) == 1

    def test_the_map_is_keyed_on_the_index(self):
        provider = build_provider()
        index = provider.store.table("R").indexes["k"]
        first = index.equality_map()
        assert first == {20: [10, 11, 12], 30: [13], 40: [15], 60: [16]}
        assert index.equality_map() is first
        index.insert(30, 19)
        assert index.equality_map()[30] == [13, 19]
        index.remove(30, 19)
        assert index.equality_map() == first
        assert index.equality_map_builds == 3
