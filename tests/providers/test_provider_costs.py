"""Cost-accounting contracts of the provider read path.

PR 4's satellite fixes: aggregate COUNT(column)/SUM must record the
**actual** number of share reads (zero when the prefilter already emptied
the candidate set, zero for a column the table does not store), and
grouped aggregation must account for its per-group aggregate-column
reads.  These tests pin the exact counter arithmetic so a regression
shows up as an off-by-n, not as a silent drift.
"""

import pytest

from repro.providers.provider import ShareProvider


@pytest.fixture
def provider():
    p = ShareProvider("DAS1")
    p.handle(
        "create_table",
        {"table": "T", "columns": ["k", "g", "v"], "searchable": ["k", "g"]},
    )
    p.handle(
        "insert_many",
        {
            "table": "T",
            "rows": [
                [0, {"k": 100, "g": 1, "v": 11}],
                [1, {"k": 200, "g": 2, "v": None}],
                [2, {"k": 300, "g": None, "v": 33}],
                [3, {"k": 200, "g": 2, "v": 44}],
            ],
        },
    )
    return p


def compare_delta(provider, request):
    before = provider.cost.count("compare")
    response = provider.handle("aggregate", request)
    return provider.cost.count("compare") - before, response


def probe_cost(provider, column="k"):
    return provider.store.table("T").index_for(column).comparisons_for_range()


class TestAggregateReadAccounting:
    def test_sum_records_actual_share_reads(self, provider):
        delta, response = compare_delta(
            provider,
            {
                "table": "T",
                "func": "sum",
                "column": "v",
                "conditions": [{"column": "k", "op": "range", "low": 200, "high": 200}],
            },
        )
        # one index probe + one read per matching row (rows 1 and 3)
        assert delta == probe_cost(provider) + 2
        assert response == {"partial_sum": 44, "count": 1}

    def test_empty_prefilter_records_no_reads(self, provider):
        """The pre-fix path charged len(row_ids) even when the filter had
        already emptied the set; now an empty match reads nothing."""
        for func in ("count", "sum"):
            delta, response = compare_delta(
                provider,
                {
                    "table": "T",
                    "func": func,
                    "column": "v",
                    "conditions": [{"column": "k", "op": "range", "low": 555, "high": 555}],
                },
            )
            assert delta == probe_cost(provider), func
            assert response["count"] == 0

    def test_unknown_column_reads_nothing(self, provider):
        delta, response = compare_delta(
            provider,
            {"table": "T", "func": "sum", "column": "zz", "conditions": []},
        )
        assert delta == 0
        assert response == {"partial_sum": 0, "count": 0}

    def test_count_column_reads_every_candidate(self, provider):
        delta, response = compare_delta(
            provider,
            {"table": "T", "func": "count", "column": "v", "conditions": []},
        )
        assert delta == 4  # no conditions: no probe, four shares read
        assert response["count"] == 3  # row 1 holds NULL

    def test_wide_and_narrow_access_paths_account_identically(self, provider):
        """Access-path selection (vector scan vs index probe) is a purely
        physical choice: same result, same recorded costs."""
        wide = {
            "table": "T",
            "func": "sum",
            "column": "v",
            "conditions": [
                {"column": "k", "op": "range", "low": 0, "high": 10_000}
            ],
        }
        narrow = {
            "table": "T",
            "func": "sum",
            "column": "v",
            "conditions": [
                {"column": "k", "op": "range", "low": 100, "high": 100}
            ],
        }
        wide_delta, wide_response = compare_delta(provider, wide)
        narrow_delta, narrow_response = compare_delta(provider, narrow)
        assert wide_response == {"partial_sum": 88, "count": 3}
        assert narrow_response == {"partial_sum": 11, "count": 1}
        assert wide_delta == probe_cost(provider) + 4
        assert narrow_delta == probe_cost(provider) + 1


class TestGroupAggregateAccounting:
    def test_sum_records_group_and_aggregate_reads(self, provider):
        before = provider.cost.count("compare")
        response = provider.handle(
            "aggregate_group",
            {
                "table": "T",
                "group_column": "g",
                "func": "sum",
                "column": "v",
                "conditions": [],
            },
        )
        delta = provider.cost.count("compare") - before
        # four group-column reads + three aggregate reads (row 2 has a
        # NULL group share, so its v is never read)
        assert delta == 4 + 3
        assert response["groups"] == [
            [1, {"partial_sum": 11, "count": 1}],
            [2, {"partial_sum": 44, "count": 1}],
        ]

    def test_count_star_reads_no_aggregate_column(self, provider):
        before = provider.cost.count("compare")
        provider.handle(
            "aggregate_group",
            {
                "table": "T",
                "group_column": "g",
                "func": "count",
                "column": None,
                "conditions": [],
            },
        )
        assert provider.cost.count("compare") - before == 4
