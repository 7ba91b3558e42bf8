"""Unit tests for the vectorized provider engine's machinery (ISSUE-9).

Targeted coverage the property suite doesn't pin down explicitly: the
limb-plane value mirror and the order mirror on shares wider than any
machine word, mirror fallback sentinels, dispatch telemetry counters,
the narrow-probe rule, and the one increment pass's edges.
numpy-only tests skip without
``repro[fast]``.
"""

import pytest

from repro import telemetry
from repro.core import kernels
from repro.core.field import MERSENNE_61
from repro.errors import ProviderError, QueryError
from repro.providers.provider import ShareProvider
from repro.providers.storage import ShareTable, SortedShareIndex
from repro.sim.network import ShareRows

needs_numpy = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="numpy backend not installed (repro[fast])",
)


@pytest.fixture(autouse=True)
def force_numpy_backend():
    """Pin the numpy backend when installed, whatever the env default.

    These tests exercise the vectorized machinery itself, so a forced
    ``REPRO_KERNEL_BACKEND=scalar`` run must not hollow them out — the
    no-numpy CI leg skips them via :data:`needs_numpy` instead.
    """
    if "numpy" in kernels.available_backends():
        previous = kernels.set_kernel_backend("numpy")
        try:
            yield
        finally:
            kernels.set_kernel_backend(previous)
    else:
        yield


def small_table(values_by_row):
    table = ShareTable("T", ["a", "b"], ["a"])
    table.insert_many(
        ShareRows.from_pairs((rid, dict(values)) for rid, values in values_by_row.items())
    )
    return table


def build_provider(rows, searchable=("k",)):
    provider = ShareProvider("U")
    provider.handle(
        "create_table",
        {"table": "T", "columns": ["k", "v"], "searchable": list(searchable)},
    )
    provider.handle("insert_many", {"table": "T", "rows": rows})
    return provider


def recombined(limbs):
    """The shares behind an (L, n) limb-plane mirror, as Python ints."""
    return [
        sum(int(limb) << (32 * i) for i, limb in enumerate(column))
        for column in limbs.T.tolist()
    ]


@needs_numpy
class TestColumnMirrors:
    def test_wide_share_column_mirrors(self):
        wide = [(1 << 121) + 5, 7, (1 << 93) - 1]
        table = small_table(
            {rid: {"a": share, "b": 2} for rid, share in enumerate(wide)}
        )
        limbs, nulls = table.column_vector("a")
        assert nulls is None
        assert limbs.shape == (4, 3)  # ⌈122 / 32⌉ planes, one column per slot
        assert recombined(limbs) == wide
        assert kernels.exact_sum_limbs(limbs) == sum(wide)
        narrow, _ = table.column_vector("b")
        assert narrow.shape == (1, 3)

    def test_negative_share_column_declines(self):
        table = small_table({1: {"a": -3, "b": 2}})
        assert table.column_vector("a") is None

    def test_non_integer_share_column_declines(self):
        table = small_table({1: {"a": 4, "b": 2.5}})
        assert table.column_vector("b") is None

    def test_null_cells_masked(self):
        table = small_table({1: {"a": 4, "b": None}, 2: {"a": 5, "b": 9}})
        limbs, mask = table.column_vector("b")
        assert mask.tolist() == [True, False]
        assert recombined(limbs) == [0, 9]

    def test_mirror_invalidated_by_version(self):
        table = small_table({1: {"a": 4, "b": 7}})
        first, _ = table.column_vector("b")
        table.update_rows([[1, {"b": 8}]])
        second, _ = table.column_vector("b")
        assert recombined(first) == [7] and recombined(second) == [8]
        assert table.vector_rebuilds == 2

    def test_segment_sums_match_python_sums(self):
        shares = [(1 << 100) + i * ((1 << 64) - 1) for i in range(9)]
        limbs, _ = kernels.share_limb_planes(shares)
        starts = kernels.numpy_module().array([0, 2, 3, 8])
        assert kernels.exact_segment_sums_limbs(limbs, starts) == [
            sum(shares[0:2]), sum(shares[2:3]), sum(shares[3:8]), shares[8],
        ]

    def test_masked_sum_skips_unselected_slots(self):
        shares = [(1 << 95) - 1, 1 << 70, 12, (1 << 120) + 3]
        limbs, _ = kernels.share_limb_planes(shares)
        selected = kernels.numpy_module().array([True, False, True, True])
        assert kernels.exact_sum_limbs(limbs, selected) == (
            shares[0] + shares[2] + shares[3]
        )


@needs_numpy
class TestIndexMirrorProbes:
    #: order-preserving-sized shares: nothing here fits a machine word
    A, B, C = (1 << 92) + 10, (1 << 111) + 20, (1 << 120) + 30

    def probes(self):
        index = SortedShareIndex("a")
        index.bulk_load([self.A, self.B, self.B, self.C], [1, 2, 3, 4])
        return index

    def test_equal_shares_carry_equal_ranks(self):
        row_ids, ranks = self.probes().vector_entries()
        assert row_ids.tolist() == [1, 2, 3, 4]
        assert ranks.tolist() == [0, 1, 1, 2]

    def test_vector_range_matches_bisect(self):
        index = self.probes()
        row_ids, _ = index.vector_entries()
        for low, high in [
            (self.A, self.C),
            (0, self.B - 1),
            (self.B + 1, 1 << 200),
            (self.A + 1, self.B - 1),
            (self.B, self.B),
            (self.C, self.A),
        ]:
            start, stop = index.entry_range(low, high)
            assert row_ids[start:stop].tolist() == index.range_row_ids(low, high)
            assert max(0, stop - start) == len(index.range_row_ids(low, high))

    def test_bounds_past_uint64_clamp(self):
        # bounds beyond every stored share land on the ends of the index
        # by comparison alone — no width limit, so nothing to special-case
        index = self.probes()
        assert index.entry_range(-(1 << 200), 1 << 200) == (0, 4)
        assert index.entry_range(1 << 200, 1 << 201) == (4, 4)
        assert index.entry_range(-(1 << 200), -5) == (0, 0)
        start, stop = index.entry_range(self.C + 1, 1 << 200)
        assert max(0, stop - start) == 0

    def test_wide_entry_is_mirrored(self):
        index = self.probes()
        assert index.vector_entries() is not None
        index.insert(1 << 177, 9)
        row_ids, ranks = index.vector_entries()
        assert row_ids.tolist() == [1, 2, 3, 4, 9]
        assert ranks.tolist() == [0, 1, 1, 2, 3]
        assert index.vector_rebuilds == 2  # one per mutation batch consulted
        index.vector_entries()
        assert index.vector_rebuilds == 2

    def test_row_ids_outside_int64_decline(self):
        index = SortedShareIndex("a")
        index.bulk_load([self.A], [1 << 70])
        assert index.vector_entries() is None

    def test_slot_positions_follow_swap_remove(self):
        table = small_table(
            {rid: {"a": share, "b": rid}
             for rid, share in [(1, self.C), (2, None), (3, self.A), (4, self.B)]}
        )
        assert table.index_positions("a").tolist() == [2, -1, 0, 1]
        table.delete_rows([1])  # row 4 moves into slot 0
        assert table.index_positions("a").tolist() == [1, -1, 0]
        assert table.index_positions("b") is None  # not searchable


@needs_numpy
class TestDispatchTelemetry:
    def dispatch_counts(self, rows, request):
        with telemetry.session():
            provider = build_provider(rows)
            provider.handle("select", request)
            export = telemetry.hub().export()
        return export["metrics"]["counters"]

    def test_vector_and_scalar_dispatch_counted(self):
        rows = [(i, {"k": i * 3, "v": i}) for i in range(8)]
        counters = self.dispatch_counts(
            rows,
            {"table": "T",
             "conditions": [
                 {"column": "k", "op": "range", "low": 0, "high": 12}
             ]},
        )
        assert counters["provider.kernel.backend{backend=numpy,provider=U}"] >= 1
        assert (
            counters["provider.kernel.dispatch"
                     "{backend=numpy,method=select,provider=U}"] == 1
        )

    def test_wide_shares_dispatch_vectorized(self):
        rows = [(i, {"k": (i * 3) + (1 << 110), "v": i}) for i in range(4)]
        counters = self.dispatch_counts(
            rows,
            {"table": "T",
             "conditions": [{"column": "k", "op": "range", "low": 1 << 110, "high": 1 << 256}],
             "order_by": "k", "descending": True},
        )
        assert (
            counters["provider.kernel.dispatch"
                     "{backend=numpy,method=select,provider=U}"] == 1
        )

    def test_fallback_counts_as_scalar_dispatch(self):
        # a projection naming a column the table lacks is the scalar
        # engine's to refuse (or, on an empty match, to answer)
        rows = [(i, {"k": i * 3, "v": i}) for i in range(4)]
        counters = self.dispatch_counts(
            rows,
            {"table": "T",
             "conditions": [{"column": "k", "op": "range", "low": 100, "high": 1 << 256}],
             "projection": ["zz"]},
        )
        assert (
            counters["provider.kernel.dispatch"
                     "{backend=scalar,method=select,provider=U}"] == 1
        )

    def test_narrow_probe_stays_on_the_bisect_path(self):
        # one matched entry of 64 rows: below the 1/16 rule, so the scalar
        # engine answers and no mirror is built or consulted
        rows = [(i, {"k": i * 3 + (1 << 100), "v": i}) for i in range(64)]
        with telemetry.session():
            provider = build_provider(rows)
            out = provider.handle(
                "select",
                {"table": "T",
                 "conditions": [
                     {"column": "k", "op": "range", "low": 30 + (1 << 100), "high": 30 + (1 << 100)}
                 ]},
            )
            counters = telemetry.hub().export()["metrics"]["counters"]
        assert [rid for rid, _ in out["rows"]] == [10]
        assert (
            counters["provider.kernel.dispatch"
                     "{backend=scalar,method=select,provider=U}"] == 1
        )
        table = provider.store.table("T")
        assert table.vector_rebuilds == 0
        assert table.indexes["k"].vector_rebuilds == 0
        # four entries of 64 is 1/16: wide enough for the mirrors
        provider.handle(
            "select",
            {"table": "T",
             "conditions": [
                 {"column": "k", "op": "range", "low": (1 << 100),
                  "high": (1 << 100) + 9}
             ]},
        )
        assert table.indexes["k"].vector_rebuilds == 1

    def test_a_batch_that_adds_no_entries_keeps_the_order_mirror(self):
        # rows whose searchable column is NULL everywhere stage nothing for
        # its index: the index did not change, so the next wide read must
        # find its order mirror standing (ISSUE-18)
        rows = [(i, {"k": i * 3 + (1 << 100), "v": i}) for i in range(64)]
        provider = build_provider(rows)
        wide_sum = {
            "table": "T", "func": "sum", "column": "v",
            "conditions": [{"column": "k", "op": "range", "low": 1 << 100, "high": 1 << 256}],
        }
        first = provider.handle("aggregate", wide_sum)
        index = provider.store.table("T").indexes["k"]
        assert index.vector_rebuilds == 1
        provider.handle(
            "insert_many",
            {"table": "T", "rows": [(100 + i, {"k": None, "v": 5}) for i in range(8)]},
        )
        assert provider.handle("aggregate", wide_sum) == first
        assert index.vector_rebuilds == 1  # one build, not two
        index.bulk_load([], [])
        assert index.vector_entries() is not None and index.vector_rebuilds == 1
        provider.handle("insert_many", {"table": "T", "rows": [(200, {"k": 1 << 100, "v": 7})]})
        assert provider.handle("aggregate", wide_sum)["count"] == first["count"] + 1
        assert index.vector_rebuilds == 2


class TestIncrementFastPath:
    """The one increment pass (no engine choice: runs without numpy)."""

    def rows(self):
        return [
            (0, {"k": 3, "v": 10}),
            (1, {"k": 6, "v": None}),
            (2, {"k": 9, "v": MERSENNE_61 - 1}),
        ]

    def test_batch_apply_wraps_and_skips_nulls(self):
        provider = build_provider(self.rows())
        out = provider.handle(
            "increment_rows",
            {"table": "T", "row_ids": [0, 1, 2], "deltas": {"v": 5},
             "modulus": MERSENNE_61},
        )
        # the NULL cell takes no assignment, so only two rows count —
        # the same convention the scalar loop reports
        assert out == {"incremented": 2}
        table = provider.store.table("T")
        assert table.value(0, "v") == 15
        assert table.value(1, "v") is None  # NULL stays NULL
        assert table.value(2, "v") == 4  # wrapped mod p

    def test_missing_row_declines_to_scalar_semantics(self):
        # the request is validated before anything changes: the missing
        # id refuses it whole, so row 0 keeps its share
        provider = build_provider(self.rows())
        with pytest.raises(ProviderError):
            provider.handle(
                "increment_rows",
                {"table": "T", "row_ids": [0, 99], "deltas": {"v": 5},
                 "modulus": MERSENNE_61},
            )
        assert provider.store.table("T").value(0, "v") == 10

    def test_searchable_column_refused(self):
        provider = build_provider(self.rows())
        with pytest.raises(QueryError):
            provider.handle(
                "increment_rows",
                {"table": "T", "row_ids": [0], "deltas": {"k": 5},
                 "modulus": MERSENNE_61},
            )

    def test_modulus_wider_than_a_machine_word_adds_exactly(self):
        provider = build_provider(self.rows())
        out = provider.handle(
            "increment_rows",
            {"table": "T", "row_ids": [0], "deltas": {"v": 5},
             "modulus": 1 << 89},
        )
        assert out == {"incremented": 1}
        assert provider.store.table("T").value(0, "v") == 15


@needs_numpy
class TestOrderedSelect:
    def test_descending_ties_break_by_ascending_row_id(self):
        rows = [
            (0, {"k": 5, "v": 1}),
            (1, {"k": 9, "v": 2}),
            (2, {"k": 5, "v": 3}),
            (3, {"k": None, "v": 4}),
        ]
        provider = build_provider(rows)
        out = provider.handle(
            "select",
            {"table": "T", "conditions": [], "order_by": "k",
             "descending": True},
        )
        assert [rid for rid, _ in out["rows"]] == [1, 0, 2, 3]
        out = provider.handle(
            "select",
            {"table": "T", "conditions": [], "order_by": "k"},
        )
        assert [rid for rid, _ in out["rows"]] == [3, 0, 2, 1]

    def test_unmirrorable_order_column_declines_before_any_cost(self):
        # an ORDER BY index holding a row id the table has no slot for has
        # no order mirror; the select must decline before the condition
        # probes are recorded, so the scalar replay's costs are the only ones
        rows = [(i, {"k": i * 3, "v": i * 5 % 7}) for i in range(16)]
        request = {
            "table": "T",
            "conditions": [{"column": "k", "op": "range", "low": 6, "high": 1 << 256}],
            "order_by": "v",
        }

        def answer(backend):
            provider = build_provider(rows, searchable=("k", "v"))
            provider.store.table("T").indexes["v"].insert(4, 999)
            kernels.set_kernel_backend(backend)
            return provider.handle("select", request), provider.cost.snapshot()

        assert answer("numpy") == answer("scalar")
