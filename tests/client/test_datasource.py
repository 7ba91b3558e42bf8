"""Integration-grade unit tests for the DataSource client."""

import pytest

from repro import (
    DataSource,
    Select,
    JoinSelect,
    Insert,
    Update,
    Delete,
    Aggregate,
    AggregateFunc,
)
from repro.errors import (
    QueryError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.expression import Between, Comparison, ComparisonOp


class TestOutsourcing:
    def test_outsource_counts(self, outsourced, employees, managers):
        assert outsourced.sql("SELECT COUNT(*) FROM Employees") == len(employees)
        assert outsourced.sql("SELECT COUNT(*) FROM Managers") == len(managers)

    def test_duplicate_table_rejected(self, outsourced, employees):
        with pytest.raises(SchemaError):
            outsourced.outsource_table(employees)

    def test_unknown_table_rejected(self, outsourced):
        with pytest.raises(SchemaError):
            outsourced.select(Select("Nope"))

    def test_secrets_provider_mismatch(self, cluster):
        from repro.core.secrets import generate_client_secrets

        with pytest.raises(SchemaError):
            DataSource(cluster, secrets=generate_client_secrets(3, 0))

    def test_providers_store_only_shares(self, outsourced, employees):
        """No provider's storage contains any plaintext salary value."""
        salaries = {row["salary"] for row in employees}
        for provider in outsourced.cluster.providers:
            table = provider.store.table("Employees")
            stored = {row["salary"] for row in table.rows.values()}
            assert not (stored & salaries) or all(
                s > 10**6 for s in stored & salaries
            )


class TestSelectVsOracle:
    QUERIES = [
        "SELECT * FROM Employees WHERE salary = 60000",
        "SELECT name FROM Employees WHERE salary BETWEEN 30000 AND 70000",
        "SELECT name, salary FROM Employees WHERE department = 'ENG'",
        "SELECT * FROM Employees WHERE name LIKE 'J%'",
        "SELECT * FROM Employees WHERE salary > 50000 AND department = 'HR'",
        "SELECT * FROM Employees WHERE salary < 20000 OR salary > 90000",
        "SELECT * FROM Employees WHERE name != 'JOHN' AND salary >= 95000",
        "SELECT * FROM Employees WHERE salary >= 0",
        "SELECT * FROM Employees WHERE salary BETWEEN 70000 AND 60000",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_oracle(self, outsourced, oracle, sql):
        from repro import parse_sql

        mine = outsourced.sql(sql)
        truth = oracle.execute(parse_sql(sql))
        assert rows_equal_unordered(mine, truth)


class TestAggregatesVsOracle:
    QUERIES = [
        "SELECT COUNT(*) FROM Employees WHERE salary > 50000",
        "SELECT COUNT(salary) FROM Employees",
        "SELECT SUM(salary) FROM Employees WHERE salary BETWEEN 20000 AND 80000",
        "SELECT AVG(salary) FROM Employees WHERE department = 'SALES'",
        "SELECT MIN(salary) FROM Employees",
        "SELECT MAX(salary) FROM Employees WHERE name LIKE 'M%'",
        "SELECT MEDIAN(salary) FROM Employees WHERE salary > 30000",
        # with residual → client-side fallback
        "SELECT SUM(salary) FROM Employees WHERE salary < 20000 OR salary > 90000",
        "SELECT MIN(salary) FROM Employees WHERE name != 'JOHN'",
        # empty input
        "SELECT SUM(salary) FROM Employees WHERE salary = 123",
        "SELECT COUNT(*) FROM Employees WHERE salary = 123",
        "SELECT MEDIAN(salary) FROM Employees WHERE salary = 123",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_oracle(self, outsourced, oracle, sql):
        from repro import parse_sql

        assert outsourced.sql(sql) == oracle.execute(parse_sql(sql))

    def test_sum_on_string_rejected(self, outsourced):
        with pytest.raises(QueryError):
            outsourced.sql("SELECT SUM(name) FROM Employees")


class TestJoins:
    def test_provider_side_join_matches_oracle(self, outsourced, oracle):
        query = JoinSelect(
            "Employees", "Managers", "eid", "eid",
            columns=("Employees.name", "Employees.salary", "Managers.manager_username"),
        )
        assert rows_equal_unordered(
            outsourced.join(query), oracle.execute(query)
        )

    def test_join_with_side_predicates(self, outsourced, oracle):
        query = JoinSelect(
            "Employees", "Managers", "eid", "eid",
            where=Comparison("Employees.salary", ComparisonOp.GE, 50000),
        )
        assert rows_equal_unordered(
            outsourced.join(query), oracle.execute(query)
        )

    def test_incompatible_join_raises(self, outsourced):
        query = JoinSelect(
            "Employees", "Managers", "name", "manager_username"
        )
        with pytest.raises(UnsupportedQueryError):
            outsourced.join(query)

    def test_client_fallback_join(self, cluster, employees, managers, oracle):
        source = DataSource(cluster, seed=42, client_join_fallback=True)
        source.outsource_table(employees)
        source.outsource_table(managers)
        # name vs manager_username: different domains → client-side join
        query = JoinSelect("Employees", "Managers", "eid", "manager_id")
        result = source.join(query)
        assert rows_equal_unordered(result, oracle.execute(query))

    def test_join_on_password_rejected_even_with_fallback(self, outsourced):
        """Randomly-shared columns can still be joined at the client after
        reconstruction when fallback is on — but never provider-side."""
        query = JoinSelect("Employees", "Managers", "name", "password")
        with pytest.raises(UnsupportedQueryError):
            outsourced.join(query)


class TestWrites:
    def test_insert_visible(self, outsourced):
        outsourced.sql(
            "INSERT INTO Employees (eid, name, lastname, department, salary) "
            "VALUES (999999, 'NEW', 'HIRE', 'ENG', 12345)"
        )
        rows = outsourced.sql("SELECT name FROM Employees WHERE salary = 12345")
        assert rows == [{"name": "NEW"}]

    def test_insert_validates(self, outsourced):
        with pytest.raises(SchemaError):
            outsourced.insert("Employees", {"eid": 1})

    def test_update_and_read_back(self, outsourced, oracle):
        sql = "UPDATE Employees SET department = 'OPS' WHERE salary > 80000"
        from repro import parse_sql

        assert outsourced.sql(sql) == oracle.execute(parse_sql(sql))
        check = "SELECT COUNT(*) FROM Employees WHERE department = 'OPS'"
        assert outsourced.sql(check) == oracle.execute(parse_sql(check))

    def test_update_no_match(self, outsourced):
        assert outsourced.sql("UPDATE Employees SET salary = 1 WHERE salary = 123") == 0

    def test_update_pk_rejected(self, outsourced):
        with pytest.raises(SchemaError):
            outsourced.sql("UPDATE Employees SET eid = 5 WHERE salary > 0")

    def test_delete(self, outsourced, oracle):
        from repro import parse_sql

        sql = "DELETE FROM Employees WHERE department = 'HR'"
        assert outsourced.sql(sql) == oracle.execute(parse_sql(sql))
        count = "SELECT COUNT(*) FROM Employees"
        assert outsourced.sql(count) == oracle.execute(parse_sql(count))

    def test_delete_with_residual_predicate(self, outsourced, oracle):
        from repro import parse_sql

        sql = "DELETE FROM Employees WHERE salary < 15000 OR salary > 95000"
        assert outsourced.sql(sql) == oracle.execute(parse_sql(sql))


class TestFaultTolerance:
    def test_reads_survive_n_minus_k_crashes(self, outsourced, oracle):
        from repro import parse_sql

        outsourced.cluster.inject_fault(0, Fault(FailureMode.CRASH))
        outsourced.cluster.inject_fault(3, Fault(FailureMode.CRASH))
        sql = "SELECT name FROM Employees WHERE salary BETWEEN 30000 AND 70000"
        assert rows_equal_unordered(
            outsourced.sql(sql), oracle.execute(parse_sql(sql))
        )

    def test_reads_fail_below_threshold(self, outsourced):
        for i in range(3):
            outsourced.cluster.inject_fault(i, Fault(FailureMode.CRASH))
        from repro.errors import QuorumError

        with pytest.raises(QuorumError):
            outsourced.sql("SELECT * FROM Employees WHERE salary = 1")

    def test_aggregates_survive_crashes(self, outsourced, oracle):
        from repro import parse_sql

        outsourced.cluster.inject_fault(1, Fault(FailureMode.CRASH))
        sql = "SELECT SUM(salary) FROM Employees"
        assert outsourced.sql(sql) == oracle.execute(parse_sql(sql))


class TestDispatch:
    def test_execute_ast_nodes(self, outsourced):
        assert outsourced.execute(
            Select("Employees", aggregate=Aggregate(AggregateFunc.COUNT, None))
        ) > 0
        assert outsourced.execute(
            Insert("Employees", {
                "eid": 999998, "name": "X", "lastname": "Y",
                "department": "IT", "salary": 1,
            })
        ) == 1
        assert isinstance(
            outsourced.execute(Update("Employees", {"salary": 2}, Comparison("eid", ComparisonOp.EQ, 999998))),
            int,
        )
        assert outsourced.execute(Delete("Employees", Comparison("eid", ComparisonOp.EQ, 999998))) == 1

    def test_unknown_query_object(self, outsourced):
        with pytest.raises(QueryError):
            outsourced.execute(3.14)

    def test_select_pairs(self, outsourced):
        pairs = outsourced.select_pairs(
            Select("Employees", where=Between("salary", 40000, 60000))
        )
        assert all(isinstance(rid, int) for rid, _ in pairs)
        ids = [rid for rid, _ in pairs]
        assert len(set(ids)) == len(ids)

    def test_select_pairs_rejects_aggregates(self, outsourced):
        with pytest.raises(QueryError):
            outsourced.select_pairs(
                Select("Employees", aggregate=Aggregate(AggregateFunc.COUNT, None))
            )
