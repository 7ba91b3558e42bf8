"""Regression tests for the three bugs the ISSUE-12 read pipeline fixed.

Each class fails at the parent commit (fbfbd40):

* ORDER BY / LIMIT were silently dropped by the audited read and the
  lazy buffer's id-keeping read (both since removed; 30 rows in row-id
  order instead of the top 3) — ``select_pairs`` is the id-keeping read
  now;
* ``rotate_secrets`` read its snapshot without failover, so one crashed
  quorum member turned a re-key into ``QuorumError``;
* ``explain`` re-derived the push-down decisions by hand and disagreed
  with the requests execution actually sends.

``TestJoinSelectListCheckedUpFront`` pins another: a join's select list
was checked only against the joined rows, so an unknown name raised when
rows matched and returned ``[]`` when none did.

``TestWarmEqualsCold`` pins a later one: a write's effect held the
statement's raw literals, so a cached ``price >= 1`` met ``'2.50'`` as a
string — a bare ``TypeError`` after the providers had applied the INSERT,
and a warm SELECT that missed the row a cold one returns.

``TestNullLiteralComparesToNothing`` pins another: ``eid = NULL`` on a
searchable column raised ``TypeError`` in the rewriter, and ``BETWEEN
NULL AND 5`` raised it in ``Between.matches`` on the client and in the
plaintext executor alike.  Per SQL neither is ever true.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.client.datasource import DataSource
from repro.errors import QueryError
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.sqlparser import parse_sql

from tests.sharding.shardutil import (
    build_oracle,
    build_router,
    build_unsharded,
    oracle_answer,
)

from .test_read_pipeline import (
    AGG_SHAPES,
    CLIENT_JOIN,
    JOIN_SHAPES,
    ROW_SHAPES,
    Deployment,
)


class TestOrderLimitOnEveryEntryPoint:
    @pytest.mark.parametrize(
        "entry, kwargs",
        [
            ("select", {}),
            ("select", {"verified_reads": True}),
            ("select_pairs", {}),
        ],
    )
    @pytest.mark.parametrize(
        "shape", ["pushed_order_limit", "client_order", "residual_order_limit"]
    )
    def test_matches_plaintext_executor(self, entry, kwargs, shape):
        dep = Deployment(**kwargs)
        query = parse_sql(ROW_SHAPES[shape])
        rows = getattr(dep.source, entry)(query)
        if entry == "select_pairs":
            assert all(isinstance(row_id, int) for row_id, _ in rows)
            rows = [row for _, row in rows]
        assert rows == dep.oracle.execute(query)
        assert len(rows) == query.limit


class TestRotateSecretsFailover:
    def test_rotation_survives_a_crashed_quorum_member(self):
        dep = Deployment()
        dep.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        # the sibling whole-table read always had failover
        assert dep.source.resync_table("Employees") == 30
        assert dep.source.rotate_secrets(99) == {
            "Employees": 30, "Events": 24, "Managers": 9,
        }
        for table in ("Employees", "Managers", "Events"):
            query = parse_sql(f"SELECT * FROM {table}")
            assert rows_equal_unordered(
                dep.source.select(query), dep.oracle.execute(query)
            )

    def test_rotation_records_the_snapshot_decode(self):
        dep = Deployment()
        dep.source.rotate_secrets(99)
        # 30*5 + 9*4 + 24*6 cells interpolated while reading under the old
        # secrets — resync_table always recorded them, rotation did not
        assert dep.source.cost.count("interpolate") == 330


class BroadcastSpy:
    """Records ``(method, targets, first target's request, wait)`` per round."""

    def __init__(self, cluster) -> None:
        self.rounds = []
        self._broadcast = cluster.broadcast
        cluster.broadcast = self

    def __call__(self, method, request_builder, **kwargs):
        targets = list(kwargs["provider_indexes"])
        self.rounds.append(
            (method, targets, request_builder(targets[0]), kwargs.get("quorum"))
        )
        return self._broadcast(method, request_builder, **kwargs)


EXPLAIN_GRID = {
    **ROW_SHAPES,
    **AGG_SHAPES,
    # the issue's example: a LIMIT behind a client sort stays at the client
    "issue_example": "SELECT * FROM Events ORDER BY amount_cents LIMIT 3",
    "limit_only": "SELECT name FROM Employees WHERE salary >= 40000 LIMIT 5",
    "order_only": "SELECT name FROM Employees ORDER BY salary",
}


class TestExplainMatchesExecution:
    @pytest.mark.parametrize("verified_reads", [False, True])
    @pytest.mark.parametrize("shape", sorted(EXPLAIN_GRID))
    def test_select_claims_match_the_request_sent(self, shape, verified_reads):
        dep = Deployment(verified_reads=verified_reads)
        query = dep.parse(EXPLAIN_GRID[shape])
        plan = dep.source.explain(query)
        spy = BroadcastSpy(dep.cluster)
        dep.source.select(query)
        strategy = plan["strategy"]
        assert plan["mode"] == ("checked" if verified_reads else "quorum")
        if plan["provably_empty"]:
            assert spy.rounds == []
            assert "provably empty" in strategy
            return
        method, targets, request, wait = spy.rounds[0]
        assert plan["read_quorum"] == targets
        assert wait == ("all" if verified_reads else "first_k")
        assert ("share-order sort" in strategy) == ("order_by" in request)
        assert ("client sort" in strategy) == (
            query.order_by is not None and "order_by" not in request
        )
        assert ("at providers" in strategy) == ("limit" in request)
        assert ("at client" in strategy) == (
            query.limit is not None and "limit" not in request
        )
        assert ("client residual filter" in strategy) == (
            not query.is_aggregate and plan["residual"] is not None
        )
        assert (strategy == "provider-side partial aggregation") == (
            method == "aggregate"
        )
        assert (strategy == "provider-grouped partial aggregation") == (
            method == "aggregate_group"
        )
        assert strategy.startswith("fetch matching rows") == (
            query.is_aggregate and method == "select"
        )
        assert len(plan["pushdown"]) == len(request["conditions"])

    def test_issue_examples(self):
        dep = Deployment()
        plan = dep.source.explain(EXPLAIN_GRID["issue_example"])
        assert plan["strategy"] == "provider full scan + client sort + limit 3 at client"
        checked = Deployment(verified_reads=True)
        plan = checked.source.explain("SELECT SUM(salary) FROM Employees")
        assert plan["strategy"] == "fetch matching rows, aggregate at the client"
        assert plan["read_quorum"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("verified_reads", [False, True])
    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_provider_join_claims(self, shape, verified_reads):
        dep = Deployment(verified_reads=verified_reads)
        query = dep.parse(JOIN_SHAPES[shape])
        plan = dep.source.explain(query)
        spy = BroadcastSpy(dep.cluster)
        dep.source.join(query)
        assert plan["strategy"].startswith("provider-side hash join")
        for method, targets, _, wait in spy.rounds[:1]:
            assert method == "join"
            assert plan["read_quorum"] == targets
            assert wait == ("all" if verified_reads else "first_k")

    @pytest.mark.parametrize("verified_reads", [False, True])
    def test_client_join_claims(self, verified_reads):
        dep = Deployment(client_join_fallback=True, verified_reads=verified_reads)
        query = parse_sql(CLIENT_JOIN)
        plan = dep.source.explain(query)
        spy = BroadcastSpy(dep.cluster)
        dep.source.join(query)
        assert plan["strategy"] == "fetch both sides, hash join at the client"
        # both sides are read in the statement's mode: verified_reads
        # cross-checks the fallback join like every other read
        assert plan["mode"] == ("checked" if verified_reads else "quorum")
        assert len(plan["read_quorum"]) == (5 if verified_reads else 3)
        assert [r[0] for r in spy.rounds] == ["select", "select"]
        for _, targets, _, wait in spy.rounds:
            assert targets == plan["read_quorum"]
            assert wait == ("all" if verified_reads else "first_k")


class TestJoinSelectListCheckedUpFront:
    JOIN = (
        "SELECT {columns} FROM Employees JOIN Managers ON Employees.eid = "
        "Managers.{key} WHERE Employees.salary >= {floor}"
    )

    @staticmethod
    def front_end(name):
        """``(execute, messages sent so far)`` of one front end; the
        fallback's join key is of another domain than ``Employees.eid``."""
        if name == "router":
            router = build_router("hash")
            return router.sql, lambda: sum(
                group.network.total_messages for group in router.groups
            )
        source = build_unsharded()
        source.client_join_fallback = name == "fallback"
        return source.sql, lambda: source.cluster.network.total_messages

    @pytest.mark.parametrize("floor", [0, 999999], ids=["rows_match", "no_row_matches"])
    @pytest.mark.parametrize(
        "columns",
        ["Employees.nope", "Employees.name, nope", "Events.product", "Managers.salary"],
    )
    @pytest.mark.parametrize("front", ["source", "fallback", "router"])
    def test_an_unknown_name_raises_before_any_round(self, front, columns, floor):
        execute, messages = self.front_end(front)
        key = "manager_id" if front == "fallback" else "eid"
        before = messages()
        with pytest.raises(QueryError, match="unknown projection columns"):
            execute(self.JOIN.format(columns=columns, key=key, floor=floor))
        assert messages() == before


class TestWarmEqualsCold:
    def test_a_write_leaves_the_cache_what_a_read_reconstructs(self):
        source = DataSource(ProviderCluster(5, 3), seed=3)
        source.create_table(TableSchema("T", (
            integer_column("id", 0, 100),
            decimal_column("price", 0, 9),
            string_column("name", 5),
        )))
        source.insert_many("T", [{"id": 1, "price": 1, "name": "ANN"}])
        queries = ("SELECT * FROM T WHERE price >= 1", "SELECT * FROM T WHERE id = 1")
        for query in queries:
            source.sql(query)
        source.sql("INSERT INTO T (id, price, name) VALUES (2, '2.50', 'bob')")
        # the point entry holds row 1: the UPDATE reads it from the cache
        # and puts the new row through
        source.sql("UPDATE T SET name = 'zed' WHERE id = 1")
        warm = [source.sql(query) for query in queries]
        source.row_cache.clear()
        assert warm == [source.sql(query) for query in queries]
        assert warm[0] == [
            {"id": 1, "price": Decimal("1"), "name": "ZED"},
            {"id": 2, "price": Decimal("2.5"), "name": "BOB"},
        ]


class TestNullLiteralComparesToNothing:
    STATEMENTS = (
        "SELECT * FROM Employees WHERE eid = NULL",
        "SELECT * FROM Employees WHERE name = NULL",
        "SELECT eid FROM Employees WHERE eid = NULL AND salary > 5",
        "SELECT COUNT(*) FROM Employees WHERE eid = NULL",
        "SELECT * FROM Employees WHERE salary BETWEEN NULL AND 5",
        "SELECT COUNT(*) FROM Employees WHERE salary BETWEEN 5 AND NULL",
        "SELECT * FROM Managers WHERE password BETWEEN NULL AND 'ZZ'",
        "UPDATE Employees SET salary = 5 WHERE eid = NULL",
        "UPDATE Employees SET salary = 5 WHERE salary BETWEEN NULL AND 5",
        "DELETE FROM Employees WHERE name = NULL",
        "DELETE FROM Employees WHERE salary BETWEEN NULL AND 5",
    )

    @pytest.fixture(scope="class")
    def deployments(self):
        return {
            "datasource": build_unsharded(),
            "hash": build_router("hash"),
            "range": build_router("range"),
        }

    @pytest.mark.parametrize("deployment", ["datasource", "hash", "range"])
    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_matches_plaintext_executor(self, deployments, deployment, statement):
        target = deployments[deployment]
        oracle = build_oracle()
        assert target.sql(statement) == oracle_answer(oracle, statement)
        # nothing matched, so nothing was written
        for table in ("Employees", "Managers"):
            everything = f"SELECT * FROM {table}"
            assert rows_equal_unordered(
                target.sql(everything), oracle_answer(oracle, everything)
            )
