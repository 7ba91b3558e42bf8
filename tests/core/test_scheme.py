"""Unit tests for per-table sharing configuration."""

import pytest
from decimal import Decimal

from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.errors import (
    QueryError,
    ReconstructionError,
    UnsupportedQueryError,
)
from repro.sim.network import ShareRows
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)


@pytest.fixture
def schema():
    return TableSchema(
        "T",
        (
            integer_column("id", 1, 10_000),
            string_column("name", 6),
            integer_column("secret_num", -500, 500, searchable=False),
            decimal_column("price", 0, 1000, scale=2),
        ),
        primary_key="id",
    )


@pytest.fixture
def sharing(schema):
    return TableSharing(
        schema, generate_client_secrets(5, seed=2), 3, DeterministicRNG(2)
    )


class TestConfiguration:
    def test_threshold_one_rejected(self, schema):
        with pytest.raises(QueryError):
            TableSharing(
                schema, generate_client_secrets(5, seed=2), 1, DeterministicRNG(2)
            )

    def test_searchability(self, sharing):
        assert sharing.is_searchable("id")
        assert sharing.is_searchable("name")
        assert not sharing.is_searchable("secret_num")

    def test_op_scheme_for_random_column_raises(self, sharing):
        with pytest.raises(UnsupportedQueryError):
            sharing.op_scheme("secret_num")

    def test_unknown_column_raises(self, sharing):
        with pytest.raises(QueryError):
            sharing.codec("nope")

    def test_domain_label_sharing(self):
        schema_a = TableSchema(
            "A", (integer_column("k", 1, 100, domain_label="dom/k"),)
        )
        schema_b = TableSchema(
            "B", (integer_column("k", 1, 100, domain_label="dom/k"),)
        )
        secrets = generate_client_secrets(4, seed=1)
        registry = {}
        a = TableSharing(schema_a, secrets, 2, DeterministicRNG(1), registry)
        b = TableSharing(schema_b, secrets, 2, DeterministicRNG(1), registry)
        # join compatibility: equal values → equal shares across tables
        assert a.query_share("k", 42, 0) == b.query_share("k", 42, 0)

    def test_incompatible_domain_same_label_rejected(self):
        schema_a = TableSchema(
            "A", (integer_column("k", 1, 100, domain_label="dom/x"),)
        )
        schema_b = TableSchema(
            "B", (integer_column("k", 1, 999, domain_label="dom/x"),)
        )
        secrets = generate_client_secrets(4, seed=1)
        registry = {}
        TableSharing(schema_a, secrets, 2, DeterministicRNG(1), registry)
        with pytest.raises(QueryError):
            TableSharing(schema_b, secrets, 2, DeterministicRNG(1), registry)


class TestRowSharing:
    def test_share_and_reconstruct_row(self, sharing):
        row = {
            "id": 7,
            "name": "ALICE",
            "secret_num": -123,
            "price": Decimal("19.99"),
        }
        share_rows = sharing.share_row(row)
        assert len(share_rows) == 5
        reconstructed = sharing.reconstruct_row(dict(enumerate(share_rows)))
        assert reconstructed == row

    def test_null_handling(self, schema):
        schema_nullable = TableSchema(
            "T2",
            (
                integer_column("id", 1, 100),
                integer_column("x", 0, 10, nullable=True),
            ),
        )
        sharing = TableSharing(
            schema_nullable, generate_client_secrets(3, seed=4), 2,
            DeterministicRNG(4),
        )
        share_rows = sharing.share_row({"id": 1, "x": None})
        assert all(r["x"] is None for r in share_rows)
        row = sharing.reconstruct_row(dict(enumerate(share_rows)))
        assert row["x"] is None

    def test_null_disagreement_detected(self, sharing):
        share_rows = sharing.share_row(
            {"id": 1, "name": "B", "secret_num": 0, "price": Decimal(1)}
        )
        share_rows[0]["name"] = None
        with pytest.raises(ReconstructionError):
            sharing.reconstruct_row(dict(enumerate(share_rows)))

    def test_too_few_providers(self, sharing):
        share_rows = sharing.share_row(
            {"id": 1, "name": "B", "secret_num": 0, "price": Decimal(1)}
        )
        with pytest.raises(ReconstructionError):
            sharing.reconstruct_row({0: share_rows[0], 1: share_rows[1]})

    def test_partial_column_reconstruction(self, sharing):
        row = {"id": 3, "name": "CAROL", "secret_num": 5, "price": Decimal(2)}
        share_rows = sharing.share_row(row)
        partial = sharing.reconstruct_row(
            dict(enumerate(share_rows)), columns=["id", "name"]
        )
        assert partial == {"id": 3, "name": "CAROL"}

    def test_query_share_matches_stored_share(self, sharing):
        row = {"id": 9, "name": "DAVE", "secret_num": 1, "price": Decimal(5)}
        share_rows = sharing.share_row(row)
        for i in range(5):
            assert sharing.query_share("id", 9, i) == share_rows[i]["id"]
            assert sharing.query_share("name", "DAVE", i) == share_rows[i]["name"]

    def test_random_columns_not_deterministic(self, sharing):
        a = sharing.share_value("secret_num", 42)
        b = sharing.share_value("secret_num", 42)
        assert a != b

    def test_query_share_of_null_rejected(self, sharing):
        with pytest.raises(QueryError):
            sharing.query_share("id", None, 0)


class TestSumCombination:
    def test_op_column_sum(self, sharing):
        values = [100, 250, 333]
        partials = {i: 0 for i in range(5)}
        for v in values:
            shares = sharing.share_value("id", v)
            for i in range(5):
                partials[i] += shares[i]
        assert sharing.combine_sum("id", partials, len(values)) == sum(values)

    def test_random_column_sum_with_negatives(self, sharing):
        values = [-100, 250, -33]
        partials = {i: 0 for i in range(5)}
        for v in values:
            shares = sharing.share_value("secret_num", v)
            for i in range(5):
                partials[i] += shares[i]
        assert sharing.combine_sum("secret_num", partials, len(values)) == 117

    def test_decimal_sum_decoding(self, sharing):
        values = [Decimal("1.25"), Decimal("2.50")]
        partials = {i: 0 for i in range(5)}
        for v in values:
            shares = sharing.share_value("price", v)
            for i in range(5):
                partials[i] += shares[i]
        assert sharing.combine_sum("price", partials, 2) == Decimal("3.75")

    def test_empty_sum_is_none(self, sharing):
        assert sharing.combine_sum("id", {}, 0) is None

    def test_non_numeric_sum_rejected(self, sharing):
        partials = {i: s for i, s in enumerate(sharing.share_value("name", "A"))}
        with pytest.raises(QueryError):
            sharing.combine_sum("name", partials, 1)


ROW = {
    "id": 7,
    "name": "ALICE",
    "secret_num": -123,
    "price": Decimal("19.99"),
}


class TestRobustNullTie:
    def test_null_tie_raises_cleanly(self, sharing):
        """An exact NULL/non-NULL split has no majority to trust.

        Regression: the tie used to fall through to robust decoding of
        the non-NULL half, which can be fewer than k shares and died
        with a misleading low-level interpolation error.
        """
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        del share_rows[4]  # 4 providers left
        share_rows[0]["secret_num"] = None
        share_rows[1]["secret_num"] = None
        with pytest.raises(ReconstructionError, match="tie"):
            sharing.reconstruct_value_checked(
                "secret_num",
                {i: r["secret_num"] for i, r in share_rows.items()},
            )

    def test_null_majority_wins(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        for index in (0, 1, 2):
            share_rows[index]["secret_num"] = None
        # NULL wins and the non-NULL minority is blamed
        assert sharing.reconstruct_value_checked(
            "secret_num",
            {i: r["secret_num"] for i, r in share_rows.items()},
        ) == (None, [3, 4])


class TestCheckedReconstruction:
    def test_clean_row_no_blame(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        row, blamed = sharing.reconstruct_row_checked(share_rows)
        assert row == ROW and blamed == []

    def test_tampered_provider_blamed_all_columns(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        for column in share_rows[2]:
            share_rows[2][column] += 17
        row, blamed = sharing.reconstruct_row_checked(share_rows)
        assert row == ROW
        assert blamed == [2]

    def test_random_column_tie_broken_by_op_evidence(self, sharing):
        """At k+1 shares, deterministic OP blame resolves the random-column
        vote tie — the scenario one crash plus one tamperer creates."""
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        del share_rows[4]  # one provider down: m = k + 1
        for column in share_rows[2]:
            share_rows[2][column] += 17  # one tamperer
        row, blamed = sharing.reconstruct_row_checked(share_rows)
        assert row == ROW
        assert blamed == [2]

    def test_random_only_corruption_at_k_plus_one_is_ambiguous(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        del share_rows[4]
        share_rows[2]["secret_num"] += 17  # no OP evidence anywhere
        with pytest.raises(ReconstructionError, match="ambiguous"):
            sharing.reconstruct_row_checked(share_rows)

    def test_caller_suspects_break_random_tie(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        del share_rows[4]
        share_rows[2]["secret_num"] += 17
        row, blamed = sharing.reconstruct_row_checked(share_rows, suspects=[2])
        assert row == ROW
        assert blamed == [2]

    def test_null_flip_blamed(self, sharing):
        share_rows = dict(enumerate(sharing.share_row(ROW)))
        share_rows[3]["name"] = None
        row, blamed = sharing.reconstruct_row_checked(share_rows)
        assert row == ROW
        assert blamed == [3]


class TestColumnMajorEqualsRowByRow:
    """``reconstruct_rows`` is ``reconstruct_row`` per row, column by column."""

    @pytest.fixture
    def mixed(self):
        schema = TableSchema(
            "M",
            (
                integer_column("id", 1, 10_000),
                string_column("name", 6, nullable=True),
                integer_column("secret_num", -500, 500, searchable=False),
                integer_column(
                    "bonus", -50, 50, searchable=False, nullable=True
                ),
                decimal_column("price", 0, 1000, scale=2, nullable=True),
            ),
            primary_key="id",
        )
        return TableSharing(
            schema, generate_client_secrets(5, seed=6), 3, DeterministicRNG(6)
        )

    #: which providers answered row i: 3 of 5, another 3 of 5, 4 of 5, all
    SUBSETS = ((0, 1, 2), (1, 3, 4), (4, 2, 1, 0), (0, 1, 2, 3, 4))

    @staticmethod
    def _plain_rows():
        names = ["ALICE", None, "BOB", "CAROL", None, "ALICE"]
        return [
            {
                "id": 10 + 7 * i,
                "name": names[i % len(names)],
                "secret_num": (-1) ** i * 29 * i,
                "bonus": None if i % 4 == 1 else i - 8,
                "price": None if i % 5 == 2 else Decimal(i) / 4,
            }
            for i in range(17)
        ]

    def _share_rows_list(self, mixed, rows):
        out = []
        for i, row in enumerate(rows):
            shares = mixed.share_row(row)
            subset = self.SUBSETS[i % len(self.SUBSETS)]
            out.append({index: shares[index] for index in subset})
        return out

    @staticmethod
    def _batched(mixed, share_rows_list, columns=None):
        """``reconstruct_rows`` once per responder set — each provider's
        shares of those rows as one column-major ``ShareRows`` — with the
        rows put back in input order."""
        names = tuple(mixed.schema.column_names)
        groups = {}
        for position, share_rows in enumerate(share_rows_list):
            groups.setdefault(tuple(share_rows), []).append(position)
        out = [None] * len(share_rows_list)
        for answered, positions in groups.items():
            result = {
                index: ShareRows(
                    positions,
                    names,
                    [
                        [share_rows_list[p][index].get(name) for p in positions]
                        for name in names
                    ],
                )
                for index in answered
            }
            for position, row in zip(
                positions, mixed.reconstruct_rows(result, columns)
            ):
                out[position] = row
        return out

    def test_mixed_table_mixed_quorums(self, mixed):
        rows = self._plain_rows()
        share_rows_list = self._share_rows_list(mixed, rows)
        batched = self._batched(mixed, share_rows_list)
        assert batched == [mixed.reconstruct_row(r) for r in share_rows_list]
        assert batched == rows
        assert [list(row) for row in batched] == [
            mixed.schema.column_names
        ] * len(rows)

    def test_projection_and_empty_input(self, mixed):
        share_rows_list = self._share_rows_list(mixed, self._plain_rows())
        columns = ["price", "id"]
        batched = self._batched(mixed, share_rows_list, columns)
        assert batched == [
            mixed.reconstruct_row(r, columns) for r in share_rows_list
        ]
        assert all(list(row) == columns for row in batched)
        nothing = ShareRows([], tuple(mixed.schema.column_names), [()] * 5)
        assert mixed.reconstruct_rows({0: nothing, 1: nothing, 2: nothing}) == []
        assert self._batched(mixed, share_rows_list, []) == [
            {} for _ in share_rows_list
        ]

    def test_all_null_column(self, mixed):
        rows = [dict(r, name=None, bonus=None) for r in self._plain_rows()]
        share_rows_list = self._share_rows_list(mixed, rows)
        assert self._batched(mixed, share_rows_list) == rows

    def _same_error(self, mixed, share_rows_list, match):
        with pytest.raises(ReconstructionError, match=match) as by_row:
            [mixed.reconstruct_row(r) for r in share_rows_list]
        with pytest.raises(ReconstructionError) as batched:
            self._batched(mixed, share_rows_list)
        assert str(batched.value) == str(by_row.value)

    @pytest.mark.parametrize("column", ["name", "bonus"])
    def test_null_at_one_provider_only(self, mixed, column):
        share_rows_list = self._share_rows_list(mixed, self._plain_rows())
        # row 2 was answered by providers (4, 2, 1, 0): one more than k,
        # and the lone NULL sits at the one whose share is not interpolated
        share_rows_list[2][4][column] = None
        self._same_error(
            mixed,
            share_rows_list,
            rf"column {column}: NULL-presence disagreement across "
            r"providers \[4\]",
        )
        share_rows_list[2][0][column] = None
        self._same_error(mixed, share_rows_list, r"providers \[0, 4\]")

    def test_out_of_domain_reconstruction(self, mixed):
        share_rows_list = self._share_rows_list(mixed, self._plain_rows())
        # shares of 6,000 + shares of 7,000 lie on an integer polynomial
        # whose constant term, 13,000, is past the domain's 10,000
        summed = [
            a + b
            for a, b in zip(
                mixed.share_value("id", 6_000), mixed.share_value("id", 7_000)
            )
        ]
        for index, share_row in share_rows_list[5].items():
            share_row["id"] = summed[index]
        self._same_error(
            mixed,
            share_rows_list,
            r"reconstructed value 13000 outside domain \[1, 10000\]",
        )

    def test_tampered_share_is_not_an_integer(self, mixed):
        share_rows_list = self._share_rows_list(mixed, self._plain_rows())
        share_rows_list[4][1]["id"] += 1
        self._same_error(mixed, share_rows_list, "is not an integer")

    def test_too_few_providers(self, mixed):
        share_rows_list = self._share_rows_list(mixed, self._plain_rows())
        del share_rows_list[3][0], share_rows_list[3][1], share_rows_list[3][2]
        self._same_error(mixed, share_rows_list, "at least k=3 providers, got 2")
