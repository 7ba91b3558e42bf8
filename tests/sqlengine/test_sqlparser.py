"""Unit tests for the SQL front end."""

import pytest
from decimal import Decimal

from repro.errors import ParseError
from repro.sqlengine.expression import (
    And,
    Between,
    Comparison,
    ComparisonOp,
    IsNull,
    Not,
    Or,
    StartsWith,
    TruePredicate,
)
from repro.sqlengine.query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Insert,
    JoinSelect,
    Select,
    Update,
)
from repro.sqlengine.sqlparser import parse_sql, tokenize


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM WhErE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'O''BRIEN'")
        assert tokens[0].value == "'O''BRIEN'"

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            tokenize("SELECT #")

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == "42"
        assert tokens[1].value == "3.14"


class TestSelect:
    def test_star(self):
        q = parse_sql("SELECT * FROM Employees")
        assert q == Select("Employees")

    def test_projection(self):
        q = parse_sql("SELECT name, salary FROM Employees")
        assert q.columns == ("name", "salary")

    def test_where_equality(self):
        q = parse_sql("SELECT * FROM T WHERE name = 'John'")
        assert q.where == Comparison("name", ComparisonOp.EQ, "John")

    def test_where_between(self):
        q = parse_sql("SELECT * FROM T WHERE salary BETWEEN 10 AND 40")
        assert q.where == Between("salary", 10, 40)

    def test_where_and_or_precedence(self):
        q = parse_sql("SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(q.where, Or)
        assert isinstance(q.where.parts[1], And)

    def test_parentheses(self):
        q = parse_sql("SELECT * FROM T WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.parts[0], Or)

    def test_not(self):
        q = parse_sql("SELECT * FROM T WHERE NOT a = 1")
        assert isinstance(q.where, Not)

    def test_comparison_operators(self):
        for text, op in [
            ("<", ComparisonOp.LT),
            ("<=", ComparisonOp.LE),
            (">", ComparisonOp.GT),
            (">=", ComparisonOp.GE),
            ("!=", ComparisonOp.NE),
            ("<>", ComparisonOp.NE),
        ]:
            q = parse_sql(f"SELECT * FROM T WHERE a {text} 5")
            assert q.where == Comparison("a", op, 5)

    def test_like_prefix(self):
        q = parse_sql("SELECT * FROM T WHERE name LIKE 'AB%'")
        assert q.where == StartsWith("name", "AB")

    def test_like_exact(self):
        q = parse_sql("SELECT * FROM T WHERE name LIKE 'ABC'")
        assert q.where == Comparison("name", ComparisonOp.EQ, "ABC")

    def test_like_infix_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM T WHERE name LIKE '%AB%'")

    def test_is_null(self):
        q = parse_sql("SELECT * FROM T WHERE x IS NULL")
        assert q.where == IsNull("x")
        q = parse_sql("SELECT * FROM T WHERE x IS NOT NULL")
        assert q.where == IsNull("x", negated=True)

    def test_decimal_literal(self):
        q = parse_sql("SELECT * FROM T WHERE p = 3.5")
        assert q.where.value == Decimal("3.5")

    def test_boolean_literals(self):
        q = parse_sql("SELECT * FROM T WHERE b = TRUE")
        assert q.where.value is True

    def test_trailing_semicolon(self):
        assert parse_sql("SELECT * FROM T;") == Select("T")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM T garbage")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("   ")


class TestAggregates:
    def test_count_star(self):
        q = parse_sql("SELECT COUNT(*) FROM T")
        assert q.aggregate == Aggregate(AggregateFunc.COUNT, None)

    def test_all_functions(self):
        for name, func in [
            ("SUM", AggregateFunc.SUM),
            ("AVG", AggregateFunc.AVG),
            ("MIN", AggregateFunc.MIN),
            ("MAX", AggregateFunc.MAX),
            ("MEDIAN", AggregateFunc.MEDIAN),
            ("COUNT", AggregateFunc.COUNT),
        ]:
            q = parse_sql(f"SELECT {name}(salary) FROM T")
            assert q.aggregate == Aggregate(func, "salary")

    def test_sum_star_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT SUM(*) FROM T")

    def test_aggregate_with_where(self):
        q = parse_sql("SELECT SUM(salary) FROM T WHERE name = 'John'")
        assert q.is_aggregate
        assert isinstance(q.where, Comparison)


class TestJoin:
    def test_basic_join(self):
        q = parse_sql(
            "SELECT Employees.name FROM Employees JOIN Managers "
            "ON Employees.eid = Managers.eid"
        )
        assert q == JoinSelect(
            "Employees", "Managers", "eid", "eid",
            columns=("Employees.name",),
        )

    def test_join_reversed_on_order(self):
        q = parse_sql(
            "SELECT * FROM A JOIN B ON B.y = A.x"
        )
        assert (q.left_column, q.right_column) == ("x", "y")

    def test_join_with_where(self):
        q = parse_sql(
            "SELECT * FROM A JOIN B ON A.x = B.y WHERE A.z = 5"
        )
        assert q.where == Comparison("A.z", ComparisonOp.EQ, 5)

    def test_join_aggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT SUM(A.x) FROM A JOIN B ON A.x = B.y")

    def test_bad_on_clause(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM A JOIN B ON C.x = D.y")


class TestWrites:
    def test_insert(self):
        q = parse_sql("INSERT INTO T (a, b) VALUES (1, 'X')")
        assert q == Insert("T", {"a": 1, "b": "X"})

    def test_insert_null(self):
        q = parse_sql("INSERT INTO T (a) VALUES (NULL)")
        assert q.row == {"a": None}

    def test_insert_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_sql("INSERT INTO T (a, b) VALUES (1)")

    def test_update(self):
        q = parse_sql("UPDATE T SET a = 1, b = 'X' WHERE c = 2")
        assert q == Update(
            "T", {"a": 1, "b": "X"}, Comparison("c", ComparisonOp.EQ, 2)
        )

    def test_update_no_where(self):
        q = parse_sql("UPDATE T SET a = 1")
        assert isinstance(q.where, TruePredicate)

    def test_delete(self):
        q = parse_sql("DELETE FROM T WHERE a = 1")
        assert q == Delete("T", Comparison("a", ComparisonOp.EQ, 1))

    def test_delete_all(self):
        q = parse_sql("DELETE FROM T")
        assert isinstance(q.where, TruePredicate)

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse_sql("DROP TABLE T")

    def test_insert_column_named_twice_rejected(self):
        # twice, so the second parse meets the shape's cached entry
        for _ in range(2):
            with pytest.raises(ParseError, match="'a' named twice"):
                parse_sql("INSERT INTO T (a, a) VALUES (1, 2)")

    def test_update_column_assigned_twice_rejected(self):
        for _ in range(2):
            with pytest.raises(ParseError, match="'a' assigned twice"):
                parse_sql("UPDATE T SET a = a + 1, a = 5")


class TestHostileInput:
    """Whatever the caller hands over, the answer is an AST or a ParseError."""

    @pytest.mark.parametrize(
        "where", ["(" * 2000 + "a = 1" + ")" * 2000, "NOT " * 3000 + "a = 1"]
    )
    def test_deep_nesting(self, where):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_sql("SELECT * FROM T WHERE " + where)

    @pytest.mark.parametrize("text", [None, b"SELECT * FROM T", 42])
    def test_non_text_rejected(self, text):
        with pytest.raises(ParseError, match="must be a str"):
            parse_sql(text)

    def test_integer_past_the_digit_limit(self):
        try:
            parse_sql("SELECT * FROM T WHERE a = " + "9" * 5000)
        except ParseError as exc:  # interpreters with a digit limit
            assert "position 26" in str(exc)


class TestErrorPositions:
    """Positions count in the caller's text, leading blanks included."""

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="position 29"):
            parse_sql("   SELECT * FROM T WHERE a = $")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="position 20"):
            parse_sql("\n\n  SELECT * FROM T garbage;")
