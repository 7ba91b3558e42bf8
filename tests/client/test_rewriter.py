"""Unit tests for query rewriting into share-space conditions."""

import pytest
from decimal import Decimal

from repro.client.rewriter import rewrite_predicate, split_join_predicate
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.expression import (
    And,
    Between,
    Comparison,
    ComparisonOp,
    IsNull,
    Or,
    StartsWith,
    TruePredicate,
)
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)


@pytest.fixture
def sharing():
    schema = TableSchema(
        "T",
        (
            integer_column("a", 0, 1000),
            string_column("s", 5),
            decimal_column("p", 0, 100, scale=2),
            integer_column("hidden", 0, 10, searchable=False),
        ),
    )
    return TableSharing(
        schema, generate_client_secrets(4, seed=6), 3, DeterministicRNG(6)
    )


def interval_for(sharing, pred):
    rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
    assert len(rewritten.intervals) == 1
    return rewritten.intervals[0]


class TestIntervalLowering:
    def test_equality(self, sharing):
        interval = interval_for(sharing, Comparison("a", ComparisonOp.EQ, 42))
        assert (interval.low, interval.high) == (42, 42)

    def test_between(self, sharing):
        interval = interval_for(sharing, Between("a", 10, 20))
        assert (interval.low, interval.high) == (10, 20)

    def test_lt_le(self, sharing):
        assert interval_for(sharing, Comparison("a", ComparisonOp.LT, 10)).high == 9
        assert interval_for(sharing, Comparison("a", ComparisonOp.LE, 10)).high == 10

    def test_gt_ge(self, sharing):
        assert interval_for(sharing, Comparison("a", ComparisonOp.GT, 10)).low == 11
        assert interval_for(sharing, Comparison("a", ComparisonOp.GE, 10)).low == 10

    def test_prefix(self, sharing):
        interval = interval_for(sharing, StartsWith("s", "AB"))
        codec = sharing.codec("s")
        assert interval.low == codec.encode("AB")
        assert interval.high == codec.encode("AB") + 27**3 - 1

    def test_multiple_conditions_intersected(self, sharing):
        pred = And(
            (
                Comparison("a", ComparisonOp.GE, 10),
                Comparison("a", ComparisonOp.LE, 20),
                Between("a", 15, 30),
            )
        )
        interval = interval_for(sharing, pred)
        assert (interval.low, interval.high) == (15, 20)


class TestOutOfDomainLiterals:
    def test_equality_out_of_domain_provably_empty(self, sharing):
        rewritten = rewrite_predicate(
            Comparison("a", ComparisonOp.EQ, 5000).bind(sharing.schema), sharing
        )
        assert rewritten.provably_empty

    def test_range_clamps(self, sharing):
        interval = interval_for(sharing, Between("a", -50, 99999))
        assert (interval.low, interval.high) == (0, 1000)

    def test_lt_beyond_domain_full_scan(self, sharing):
        interval = interval_for(sharing, Comparison("a", ComparisonOp.LT, 99999))
        assert (interval.low, interval.high) == (0, 1000)

    def test_gt_beyond_domain_empty(self, sharing):
        rewritten = rewrite_predicate(
            Comparison("a", ComparisonOp.GT, 99999).bind(sharing.schema), sharing
        )
        assert rewritten.provably_empty

    def test_lt_below_domain_empty(self, sharing):
        rewritten = rewrite_predicate(
            Comparison("a", ComparisonOp.LT, -5).bind(sharing.schema), sharing
        )
        assert rewritten.provably_empty

    def test_unrepresentable_decimal_goes_residual(self, sharing):
        pred = Comparison("p", ComparisonOp.LE, Decimal("5.005"))
        rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
        # no exact interval is possible; must be evaluated client-side
        assert not rewritten.intervals
        assert rewritten.has_residual

    def test_unrepresentable_decimal_equality_empty(self, sharing):
        pred = Comparison("p", ComparisonOp.EQ, Decimal("5.005"))
        rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
        assert rewritten.provably_empty


class TestResidual:
    def test_or_goes_residual(self, sharing):
        pred = Or(
            (
                Comparison("a", ComparisonOp.EQ, 1),
                Comparison("a", ComparisonOp.EQ, 2),
            )
        )
        rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
        assert not rewritten.intervals and rewritten.has_residual

    def test_hidden_column_goes_residual(self, sharing):
        pred = Comparison("hidden", ComparisonOp.EQ, 5)
        rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
        assert not rewritten.intervals and rewritten.has_residual

    def test_mixed_predicate_splits(self, sharing):
        pred = And(
            (
                Between("a", 1, 10),
                IsNull("hidden"),
            )
        )
        rewritten = rewrite_predicate(pred.bind(sharing.schema), sharing)
        assert len(rewritten.intervals) == 1
        assert rewritten.has_residual

    def test_true_predicate_no_conditions(self, sharing):
        rewritten = rewrite_predicate(TruePredicate(), sharing)
        assert not rewritten.intervals and not rewritten.has_residual
        assert not rewritten.provably_empty


class TestShareConditions:
    def test_conditions_use_op_shares(self, sharing):
        rewritten = rewrite_predicate(
            Between("a", 10, 20).bind(sharing.schema), sharing
        )
        conditions = rewritten.conditions_for(sharing, 0)
        assert conditions == [
            {
                "column": "a",
                "op": "range",
                "low": sharing.query_share("a", 10, 0),
                "high": sharing.query_share("a", 20, 0),
            }
        ]

    def test_conditions_differ_per_provider(self, sharing):
        rewritten = rewrite_predicate(
            Comparison("a", ComparisonOp.EQ, 5).bind(sharing.schema), sharing
        )
        c0 = rewritten.conditions_for(sharing, 0)
        c1 = rewritten.conditions_for(sharing, 1)
        assert c0 != c1  # per-provider rewriting (Sec. V-A)

    @pytest.mark.parametrize(
        "predicate, bounds",
        [
            (Comparison("a", ComparisonOp.EQ, 5), [5]),
            (Between("a", 10, 20), [10, 20]),
        ],
    )
    def test_a_bound_is_hashed_once_per_statement(
        self, sharing, monkeypatch, predicate, bounds
    ):
        """One sharing polynomial (k−1 keyed hashes) per distinct bound,
        whatever the number of providers and endpoints; same shares."""
        providers = range(sharing.n_providers)
        expected = [
            [sharing.query_share("a", bound, i) for bound in (bounds[0], bounds[-1])]
            for i in providers
        ]
        scheme = sharing.op_scheme("a")
        built = []
        build = scheme.polynomial_for
        monkeypatch.setattr(
            scheme, "polynomial_for", lambda value: built.append(value) or build(value)
        )
        rewritten = rewrite_predicate(predicate.bind(sharing.schema), sharing)
        got = [
            [condition[end] for end in ("low", "high")]
            for i in providers
            for condition in rewritten.conditions_for(sharing, i)
        ]
        assert got == expected
        assert built == bounds


class TestJoinPredicateSplit:
    def test_partition(self):
        pred = And(
            (
                Comparison("L.a", ComparisonOp.EQ, 1),
                Comparison("R.b", ComparisonOp.EQ, 2),
                Comparison("c", ComparisonOp.EQ, 3),  # unqualified → residual
            )
        )
        left, right, residual = split_join_predicate(pred, "L", "R")
        assert left == Comparison("a", ComparisonOp.EQ, 1)
        assert right == Comparison("b", ComparisonOp.EQ, 2)
        assert residual == Comparison("c", ComparisonOp.EQ, 3)

    def test_cross_table_or_residual(self):
        pred = Or(
            (
                Comparison("L.a", ComparisonOp.EQ, 1),
                Comparison("R.b", ComparisonOp.EQ, 2),
            )
        )
        left, right, residual = split_join_predicate(pred, "L", "R")
        assert isinstance(left, TruePredicate)
        assert isinstance(right, TruePredicate)
        assert residual == pred

    def test_true_predicate(self):
        left, right, residual = split_join_predicate(TruePredicate(), "L", "R")
        assert all(
            isinstance(p, TruePredicate) for p in (left, right, residual)
        )

    def test_strip_nested(self):
        pred = And(
            (
                Between("L.a", 1, 5),
                StartsWith("L.s", "X"),
            )
        )
        left, _, _ = split_join_predicate(pred, "L", "R")
        assert left == And((Between("a", 1, 5), StartsWith("s", "X")))
