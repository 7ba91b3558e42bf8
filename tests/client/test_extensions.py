"""Tests for extension features: GROUP BY, ORDER BY/LIMIT, increment,
resync, and explain."""

import pytest

from repro import (
    DataSource,
    JoinSelect,
    ProviderCluster,
    Select,
    Table,
    TableSchema,
    integer_column,
    parse_sql,
    string_column,
)
from repro.errors import (
    IntegrityError,
    QueryError,
    UnsupportedQueryError,
)
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.expression import Between, Comparison, ComparisonOp, Or
from repro.sqlengine.query import Aggregate, AggregateFunc
from repro.workloads.employees import employees_table


@pytest.fixture
def system():
    employees = employees_table(120, seed=19)
    catalog = Catalog()
    catalog.add_table(Table(employees.schema, employees.rows()))
    oracle = PlaintextExecutor(catalog)
    source = DataSource(ProviderCluster(5, 3), seed=19)
    source.outsource_table(employees)
    return source, oracle


GROUPED = [
    "SELECT department, SUM(salary) FROM Employees GROUP BY department",
    "SELECT department, AVG(salary) FROM Employees GROUP BY department",
    "SELECT department, COUNT(*) FROM Employees WHERE salary > 40000 GROUP BY department",
    "SELECT department, MIN(salary) FROM Employees GROUP BY department",
    "SELECT department, MAX(salary) FROM Employees WHERE salary BETWEEN 20000 AND 90000 GROUP BY department",
    "SELECT department, MEDIAN(salary) FROM Employees GROUP BY department",
    "SELECT name, COUNT(salary) FROM Employees GROUP BY name",
    # residual → client-side grouping fallback
    "SELECT department, SUM(salary) FROM Employees WHERE salary < 20000 OR salary > 90000 GROUP BY department",
]


class TestGroupBy:
    @pytest.mark.parametrize("sql", GROUPED)
    def test_matches_oracle(self, system, sql):
        source, oracle = system
        query = parse_sql(sql)
        assert source.select(query) == oracle.execute(query)

    def test_grouped_pushdown_is_cheap(self, system):
        """Provider-side grouping ships partials, not rows."""
        source, _ = system
        query = parse_sql(
            "SELECT department, SUM(salary) FROM Employees GROUP BY department"
        )
        source.reset_accounting()
        source.select(query)
        grouped_bytes = source.cluster.network.total_bytes
        source.reset_accounting()
        source.select(Select("Employees"))
        fetch_bytes = source.cluster.network.total_bytes
        assert grouped_bytes < fetch_bytes / 5

    def test_group_count_mismatch_detected(self, system):
        source, _ = system
        from repro.sim.rng import DeterministicRNG

        source.cluster.inject_fault(
            0, Fault(FailureMode.OMIT, rate=0.9, rng=DeterministicRNG(1, "o"))
        )
        query = parse_sql(
            "SELECT department, SUM(salary) FROM Employees GROUP BY department"
        )
        with pytest.raises(IntegrityError):
            source.select(query)

    def test_group_by_requires_aggregate(self):
        with pytest.raises(QueryError):
            Select("Employees", group_by="department")

    def test_group_by_string_aggregate_rejected(self, system):
        source, _ = system
        with pytest.raises(QueryError):
            source.select(
                Select(
                    "Employees",
                    aggregate=Aggregate(AggregateFunc.SUM, "name"),
                    group_by="department",
                )
            )


ORDERED = [
    "SELECT name, salary FROM Employees ORDER BY salary DESC LIMIT 5",
    "SELECT name, salary FROM Employees ORDER BY salary ASC LIMIT 10",
    "SELECT * FROM Employees WHERE salary > 50000 ORDER BY salary LIMIT 7",
    "SELECT * FROM Employees ORDER BY name LIMIT 3",
    "SELECT * FROM Employees WHERE department = 'ENG' ORDER BY salary DESC",
    # residual predicate → limit applied client-side
    "SELECT * FROM Employees WHERE salary < 20000 OR salary > 90000 ORDER BY salary LIMIT 4",
]


class TestOrderLimit:
    @pytest.mark.parametrize("sql", ORDERED)
    def test_matches_oracle_exactly_ordered(self, system, sql):
        source, oracle = system
        query = parse_sql(sql)
        assert source.select(query) == oracle.execute(query)

    def test_bare_limit_counts(self, system):
        source, oracle = system
        query = parse_sql("SELECT * FROM Employees LIMIT 7")
        assert len(source.select(query)) == 7

    def test_limit_pushdown_reduces_bytes(self, system):
        source, _ = system
        source.reset_accounting()
        source.sql("SELECT * FROM Employees ORDER BY salary DESC LIMIT 3")
        limited = source.cluster.network.total_bytes
        source.reset_accounting()
        source.sql("SELECT * FROM Employees ORDER BY salary DESC")
        full = source.cluster.network.total_bytes
        assert limited < full / 5

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError):
            Select("Employees", limit=-1)

    DUPLICATE_HEAVY = [
        # names/departments repeat heavily: ties must break identically to
        # the oracle's stable sort in BOTH directions (regression for the
        # provider-side reversed-list bug)
        "SELECT eid, name FROM Employees ORDER BY name DESC LIMIT 7",
        "SELECT eid, name FROM Employees ORDER BY name ASC LIMIT 7",
        "SELECT eid, department FROM Employees ORDER BY department DESC LIMIT 10",
        "SELECT eid FROM Employees WHERE salary > 40000 "
        "ORDER BY department DESC LIMIT 5",
    ]

    @pytest.mark.parametrize("sql", DUPLICATE_HEAVY)
    def test_tie_breaking_matches_oracle(self, system, sql):
        source, oracle = system
        query = parse_sql(sql)
        assert source.select(query) == oracle.execute(query)


class TestIncrement:
    @pytest.fixture
    def accounts(self):
        schema = TableSchema(
            "Accounts",
            (
                integer_column("aid", 1, 10_000),
                integer_column("balance", -(10**9), 10**9, searchable=False),
                integer_column("branch", 1, 100),
            ),
            primary_key="aid",
        )
        rows = [
            {"aid": i, "branch": i % 5 + 1, "balance": 1000 * i}
            for i in range(1, 41)
        ]
        source = DataSource(ProviderCluster(5, 3), seed=23)
        source.outsource_table(Table(schema, rows))
        return source

    def test_increment_applies(self, accounts):
        n = accounts.increment(
            "Accounts", "balance", 500, Comparison("branch", ComparisonOp.EQ, 3)
        )
        assert n == 8
        rows = accounts.sql("SELECT * FROM Accounts WHERE branch = 3")
        assert all(r["balance"] % 1000 == 500 for r in rows)

    def test_negative_delta(self, accounts):
        accounts.increment("Accounts", "balance", -250, Between("branch", 1, 5))
        row = accounts.sql("SELECT * FROM Accounts WHERE aid = 3")[0]
        assert row["balance"] == 2750

    def test_untouched_rows_unchanged(self, accounts):
        accounts.increment(
            "Accounts", "balance", 500, Comparison("branch", ComparisonOp.EQ, 3)
        )
        rows = accounts.sql("SELECT * FROM Accounts WHERE branch = 1")
        assert all(r["balance"] % 1000 == 0 for r in rows)

    def test_cheaper_than_eager_update(self, accounts):
        accounts.reset_accounting()
        accounts.increment(
            "Accounts", "balance", 1, Comparison("branch", ComparisonOp.EQ, 2)
        )
        increment_bytes = accounts.cluster.network.total_bytes
        accounts.reset_accounting()
        accounts.sql("UPDATE Accounts SET branch = 2 WHERE branch = 2")
        update_bytes = accounts.cluster.network.total_bytes
        assert increment_bytes < update_bytes

    def test_searchable_column_rejected(self, accounts):
        with pytest.raises(UnsupportedQueryError):
            accounts.increment("Accounts", "branch", 1, Between("branch", 1, 5))

    def test_residual_predicate_rejected(self, accounts):
        predicate = Or(
            (
                Comparison("branch", ComparisonOp.EQ, 1),
                Comparison("branch", ComparisonOp.EQ, 2),
            )
        )
        with pytest.raises(UnsupportedQueryError):
            accounts.increment("Accounts", "balance", 1, predicate)

    def test_empty_predicate_noop(self, accounts):
        assert accounts.increment(
            "Accounts", "balance", 1, Comparison("branch", ComparisonOp.EQ, 999)
        ) == 0


class TestResync:
    def test_heals_stale_provider(self):
        source = DataSource(ProviderCluster(4, 2), seed=29)
        source.outsource_table(employees_table(30, seed=29))
        source.cluster.inject_fault(3, Fault(FailureMode.CRASH))
        source.sql("UPDATE Employees SET salary = 777 WHERE salary >= 0")
        source.cluster.clear_faults()
        assert source.resync_table("Employees") == 30
        # query through the previously stale provider only
        source.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        source.cluster.inject_fault(1, Fault(FailureMode.CRASH))
        assert source.sql(
            "SELECT COUNT(*) FROM Employees WHERE salary = 777"
        ) == 30

    def test_resync_preserves_content(self, system):
        source, oracle = system
        before = source.sql("SELECT * FROM Employees")
        source.resync_table("Employees")
        after = source.sql("SELECT * FROM Employees")
        from repro.sqlengine.executor import rows_equal_unordered

        assert rows_equal_unordered(before, after)


class TestExplain:
    def test_pushdown_plan(self, system):
        source, _ = system
        plan = source.explain(
            "SELECT * FROM Employees WHERE salary BETWEEN 10000 AND 40000"
        )
        assert plan["pushdown"] == [
            {"column": "salary", "low": 10000, "high": 40000}
        ]
        assert plan["residual"] is None
        assert "share-index filter" in plan["strategy"]

    def test_residual_plan(self, system):
        source, _ = system
        plan = source.explain(
            "SELECT * FROM Employees WHERE salary < 10 OR salary > 90"
        )
        assert plan["pushdown"] == []
        assert plan["residual"] is not None
        assert "full scan" in plan["strategy"]

    def test_aggregate_plans(self, system):
        source, _ = system
        pushed = source.explain("SELECT SUM(salary) FROM Employees")
        assert pushed["strategy"] == "provider-side partial aggregation"
        grouped = source.explain(
            "SELECT department, SUM(salary) FROM Employees GROUP BY department"
        )
        assert grouped["strategy"] == "provider-grouped partial aggregation"

    def test_topk_plan(self, system):
        source, _ = system
        plan = source.explain(
            "SELECT * FROM Employees ORDER BY salary DESC LIMIT 5"
        )
        assert "share-order sort" in plan["strategy"]
        assert "limit 5 at providers" in plan["strategy"]

    def test_join_plans(self, system):
        source, _ = system
        source.outsource_table(
            Table(
                TableSchema(
                    "Other",
                    (integer_column("x", 0, 9), string_column("s", 4)),
                )
            )
        )
        plan = source.explain(
            JoinSelect("Employees", "Other", "name", "s")
        )
        assert not plan["domain_compatible"]
        assert "UNSUPPORTED" in plan["strategy"]

    def test_write_plans(self, system):
        source, _ = system
        plan = source.explain("UPDATE Employees SET salary = 1 WHERE salary = 2")
        assert "re-share" in plan["strategy"]
        plan = source.explain("DELETE FROM Employees WHERE salary = 2")
        assert "delete" in plan["strategy"]

    def test_unknown_query_rejected(self, system):
        source, _ = system
        with pytest.raises(QueryError):
            source.explain(3)

    def test_selectivity_estimate(self, system):
        source, _ = system
        full = source.explain("SELECT * FROM Employees")
        assert full["estimated_selectivity"] == 1.0
        ranged = source.explain(
            "SELECT * FROM Employees WHERE salary BETWEEN 0 AND 99999"
        )
        assert 0.05 < ranged["estimated_selectivity"] < 0.15
        empty = source.explain("SELECT * FROM Employees WHERE salary = -5")
        assert empty["estimated_selectivity"] == 0.0
        point = source.explain("SELECT * FROM Employees WHERE salary = 5")
        assert point["estimated_selectivity"] < 1e-5
