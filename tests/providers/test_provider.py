"""Unit tests for the share provider RPC surface."""

import pytest

from repro.core import kernels
from repro.errors import ProviderError, ProviderUnavailableError, QueryError
from repro.providers.failures import Fault, FailureMode
from repro.providers.provider import ShareProvider
from repro.sim.network import measure_bytes
from repro.sim.rng import DeterministicRNG


#: what a refused select answers in a parametrized table of row ids
REFUSED = ["refused"]


@pytest.fixture
def provider():
    p = ShareProvider("DAS1")
    p.handle(
        "create_table",
        {"table": "T", "columns": ["k", "v"], "searchable": ["k"]},
    )
    p.handle(
        "insert_many",
        {
            "table": "T",
            "rows": [
                [0, {"k": 100, "v": 11}],
                [1, {"k": 200, "v": 22}],
                [2, {"k": 300, "v": 33}],
                [3, {"k": 200, "v": 44}],
            ],
        },
    )
    return p


class TestDispatch:
    def test_unknown_method(self, provider):
        with pytest.raises(ProviderError):
            provider.handle("nope", {})

    def test_requests_counted(self, provider):
        before = provider.requests_served
        provider.handle("row_count", {"table": "T"})
        assert provider.requests_served == before + 1


class TestSelect:
    def test_eq_condition(self, provider):
        response = provider.handle(
            "select",
            {
                "table": "T",
                "conditions": [{"column": "k", "op": "range", "low": 200, "high": 200}],
            },
        )
        assert [rid for rid, _ in response["rows"]] == [1, 3]

    def test_range_condition(self, provider):
        response = provider.handle(
            "select",
            {
                "table": "T",
                "conditions": [
                    {"column": "k", "op": "range", "low": 150, "high": 250}
                ],
            },
        )
        assert [rid for rid, _ in response["rows"]] == [1, 3]

    def test_inequality_conditions(self, provider):
        # one-sided comparisons arrive as ranges closed at a far bound
        far = 1 << 256
        for low, high, expected in [
            (-far, 199, [0]),
            (-far, 200, [0, 1, 3]),
            (201, far, [2]),
            (200, far, [1, 2, 3]),
        ]:
            response = provider.handle(
                "select",
                {
                    "table": "T",
                    "conditions": [{"column": "k", "op": "range", "low": low, "high": high}],
                },
            )
            assert [rid for rid, _ in response["rows"]] == expected, (low, high)

    def test_condition_intersection(self, provider):
        response = provider.handle(
            "select",
            {
                "table": "T",
                "conditions": [
                    {"column": "k", "op": "range", "low": 150, "high": 1 << 256},
                    {"column": "k", "op": "range", "low": -(1 << 256), "high": 250},
                ],
            },
        )
        assert [rid for rid, _ in response["rows"]] == [1, 3]

    def test_no_conditions_scans_all(self, provider):
        response = provider.handle("select", {"table": "T", "conditions": []})
        assert len(response["rows"]) == 4

    def test_projection(self, provider):
        response = provider.handle(
            "select", {"table": "T", "conditions": [], "projection": ["v"]}
        )
        assert list(response["rows"])[0][1] == {"v": 11}

    def test_bad_projection(self, provider):
        with pytest.raises(QueryError):
            provider.handle(
                "select", {"table": "T", "conditions": [], "projection": ["zz"]}
            )

    def test_unknown_op(self, provider):
        with pytest.raises(ProviderError, match="field 'conditions'"):
            provider.handle(
                "select",
                {"table": "T", "conditions": [{"column": "k", "op": "xx"}]},
            )

    def test_condition_on_unsearchable_rejected(self, provider):
        with pytest.raises(ProviderError):
            provider.handle(
                "select",
                {
                    "table": "T",
                    "conditions": [{"column": "v", "op": "range", "low": 11, "high": 11}],
                },
            )

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize(
        "limit, ascending, descending",
        [
            # the whole ordering is [3, 5, 4, 0, 2, 1] ascending (NULLs
            # first) and [1, 0, 2, 4, 3, 5] descending (NULLs last); the
            # wire refuses a negative LIMIT
            (None, [3, 5, 4, 0, 2, 1], [1, 0, 2, 4, 3, 5]),
            (-1, REFUSED, REFUSED),
            (-5, REFUSED, REFUSED),
            (-9, REFUSED, REFUSED),
            (0, [], []),
            (1, [3], [1]),
            (3, [3, 5, 4], [1, 0, 2]),
            (5, [3, 5, 4, 0, 2], [1, 0, 2, 4, 3]),
            (9, [3, 5, 4, 0, 2, 1], [1, 0, 2, 4, 3, 5]),
        ],
    )
    def test_ordered_limit_slices_the_whole_ordering(
        self, backend, limit, ascending, descending
    ):
        p = ShareProvider("DAS1")
        p.handle("create_table", {"table": "T", "columns": ["k"], "searchable": ["k"]})
        keys = [5, 9, 5, None, 1, None]
        p.handle(
            "insert_many",
            {"table": "T", "rows": [[rid, {"k": k}] for rid, k in enumerate(keys)]},
        )
        previous = kernels.set_kernel_backend(backend)
        try:
            for flag, expected in ((False, ascending), (True, descending)):
                request = {"table": "T", "conditions": [], "order_by": "k",
                           "descending": flag, "limit": limit}
                if expected is REFUSED:
                    with pytest.raises(ProviderError, match="field 'limit'"):
                        p.handle("select", request)
                    continue
                rows = p.handle("select", request)["rows"]
                assert [rid for rid, _ in rows] == expected, flag
        finally:
            kernels.set_kernel_backend(previous)


class TestAggregate:
    def test_sum(self, provider):
        response = provider.handle(
            "aggregate",
            {"table": "T", "conditions": [], "func": "sum", "column": "v"},
        )
        assert response == {"partial_sum": 110, "count": 4}

    def test_count(self, provider):
        response = provider.handle(
            "aggregate",
            {"table": "T", "conditions": [], "func": "count", "column": None},
        )
        assert response["count"] == 4

    def test_min_max_median_by_share_order(self, provider):
        for func, expected_rid in [("min", 0), ("max", 2), ("median", 1)]:
            response = provider.handle(
                "aggregate",
                {"table": "T", "conditions": [], "func": func, "column": "k"},
            )
            assert response["row"][0] == expected_rid, func
            assert response["count"] == 4

    def test_order_aggregate_needs_searchable(self, provider):
        with pytest.raises(ProviderError):
            provider.handle(
                "aggregate",
                {"table": "T", "conditions": [], "func": "min", "column": "v"},
            )

    def test_empty_aggregate(self, provider):
        response = provider.handle(
            "aggregate",
            {
                "table": "T",
                "conditions": [{"column": "k", "op": "range", "low": 1, "high": 1}],
                "func": "min",
                "column": "k",
            },
        )
        assert response == {"row": None, "count": 0}

    def test_unknown_func(self, provider):
        with pytest.raises(ProviderError, match="field 'func'"):
            provider.handle(
                "aggregate",
                {"table": "T", "conditions": [], "func": "stdev", "column": "v"},
            )


class TestJoin:
    def make_pair(self):
        p = ShareProvider("DAS1")
        p.handle("create_table", {"table": "L", "columns": ["k", "x"], "searchable": ["k"]})
        p.handle("create_table", {"table": "R", "columns": ["k", "y"], "searchable": ["k"]})
        p.handle("insert_many", {"table": "L", "rows": [
            [0, {"k": 1, "x": 10}], [1, {"k": 2, "x": 20}], [2, {"k": 3, "x": 30}]]})
        p.handle("insert_many", {"table": "R", "rows": [
            [0, {"k": 2, "y": 200}], [1, {"k": 3, "y": 300}], [2, {"k": 2, "y": 201}]]})
        return p

    def test_hash_join_on_shares(self):
        p = self.make_pair()
        response = p.handle(
            "join",
            {
                "left": "L", "right": "R",
                "left_column": "k", "right_column": "k",
            },
        )
        # each side's distinct matched rows, ascending row id: left row 1
        # has two partners and is shipped once
        assert list(response["left"]) == [
            (1, {"k": 2, "x": 20}), (2, {"k": 3, "x": 30}),
        ]
        assert list(response["right"]) == [
            (0, {"k": 2, "y": 200}), (1, {"k": 3, "y": 300}), (2, {"k": 2, "y": 201}),
        ]

    def test_join_with_conditions(self):
        p = self.make_pair()
        response = p.handle(
            "join",
            {
                "left": "L", "right": "R",
                "left_column": "k", "right_column": "k",
                "left_conditions": [{"column": "k", "op": "range", "low": 3, "high": 3}],
            },
        )
        assert response["left"].row_ids == [2]
        assert response["right"].row_ids == [1]

    def test_null_keys_never_match(self):
        p = self.make_pair()
        p.handle("insert_many", {"table": "L", "rows": [[3, {"k": None, "x": 40}]]})
        p.handle("insert_many", {"table": "R", "rows": [[3, {"k": None, "y": 400}]]})
        response = p.handle(
            "join",
            {"left": "L", "right": "R", "left_column": "k", "right_column": "k"},
        )
        assert response["left"].row_ids == [1, 2]
        assert response["right"].row_ids == [0, 1, 2]

    def test_empty_match_is_two_empty_row_lists(self):
        p = self.make_pair()
        response = p.handle(
            "join",
            {
                "left": "L", "right": "R",
                "left_column": "k", "right_column": "k",
                "left_conditions": [{"column": "k", "op": "range", "low": 1, "high": 1}],
            },
        )
        assert list(response) == ["left", "right"]
        assert not list(response["left"]) and not list(response["right"])
        # dict count + "left" + "right" + two empty lists
        assert measure_bytes(response) == 4 + 6 + 7 + 4 + 4

    def test_join_requires_searchable_keys(self):
        p = self.make_pair()
        with pytest.raises(QueryError):
            p.handle(
                "join",
                {
                    "left": "L", "right": "R",
                    "left_column": "x", "right_column": "y",
                },
            )


class TestWritesAndFaults:
    def test_update_rows(self, provider):
        provider.handle(
            "update_rows", {"table": "T", "updates": [[0, {"k": 999}]]}
        )
        response = provider.handle(
            "select",
            {"table": "T", "conditions": [{"column": "k", "op": "range", "low": 999, "high": 999}]},
        )
        assert [rid for rid, _ in response["rows"]] == [0]

    def test_delete_rows(self, provider):
        provider.handle("delete_rows", {"table": "T", "row_ids": [0, 2]})
        assert provider.handle("row_count", {"table": "T"})["count"] == 2

    def test_crash_fault(self, provider):
        provider.inject_fault(Fault(FailureMode.CRASH))
        with pytest.raises(ProviderUnavailableError):
            provider.handle("row_count", {"table": "T"})
        provider.clear_fault()
        assert provider.handle("row_count", {"table": "T"})["count"] == 4

    def test_tamper_fault_changes_shares(self, provider):
        clean = provider.handle("select", {"table": "T", "conditions": []})
        provider.inject_fault(
            Fault(FailureMode.TAMPER, rate=1.0, rng=DeterministicRNG(1, "t"))
        )
        dirty = provider.handle("select", {"table": "T", "conditions": []})
        clean_vals = [v for _, row in clean["rows"] for v in row.values()]
        dirty_vals = [v for _, row in dirty["rows"] for v in row.values()]
        assert clean_vals != dirty_vals

    def test_omit_fault_drops_rows(self, provider):
        provider.inject_fault(
            Fault(FailureMode.OMIT, rate=1.0, rng=DeterministicRNG(1, "o"))
        )
        response = provider.handle("select", {"table": "T", "conditions": []})
        assert list(response["rows"]) == []
