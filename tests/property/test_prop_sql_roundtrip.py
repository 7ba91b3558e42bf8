"""Property test: parse_sql(render_sql(query)) == query for random ASTs.

Each rendered statement also goes through the shape-template path three
ways — first parse of its shape, a cache hit, and the same shape with other
literals — and every result must equal the plain parser's.
"""

from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.sqlengine import sqlparser
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
from repro.sqlengine.render import render_predicate, render_sql
from repro.sqlengine.sqlparser import parse_sql


def plain_parse(text):
    """parse_sql with the template path switched off: the plain parser."""
    with mock.patch.object(sqlparser, "_template", lambda parts, kinds: None):
        return parse_sql(text)


def outcome(parse, text):
    try:
        return parse(text)
    except ReproError as exc:
        return type(exc), str(exc)


def other_literals(text):
    """*text* with every slot literal replaced by another of its kind."""
    parts, kinds, literals = sqlparser._split(text)
    swap = {
        "i": lambda lit: str(int(lit) + 7),
        "d": lambda lit: str(Decimal(lit) + 1),
        "s": lambda lit: "'Z" + lit[1:],
    }
    out = parts[0]
    for kind, literal, part in zip(kinds, literals, parts[1:]):
        out += swap[kind](literal) + part
    assert sqlparser._split(out)[:2] == (parts, kinds)  # the same shape
    return out


def parsed_both_ways(text):
    """parse_sql(text), checked against the plain parser on the template
    path's first parse, its cache hit, and other literals of the shape."""
    expected = plain_parse(text)
    first, again = parse_sql(text), parse_sql(text)
    assert first == expected and again == expected
    other = other_literals(text)
    assert parse_sql(other) == plain_parse(other)
    return first


identifiers = st.from_regex(r"[a-zA-Z][a-zA-Z_0-9]{0,8}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "LIKE",
        "IS", "NULL", "TRUE", "FALSE", "JOIN", "ON", "INSERT", "INTO",
        "VALUES", "UPDATE", "SET", "DELETE", "COUNT", "SUM", "AVG", "MIN",
        "MAX", "MEDIAN", "AS", "GROUP", "ORDER", "BY", "ASC", "DESC",
        "LIMIT",
    }
)

safe_strings = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '", min_size=0, max_size=12
)

literals = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    safe_strings,
    st.booleans(),
    st.decimals(
        min_value=Decimal(0), max_value=Decimal("9999.99"), places=2,
        allow_nan=False, allow_infinity=False,
    ),
    st.none(),
)

comparisons = st.builds(
    Comparison,
    column=identifiers,
    op=st.sampled_from(list(ComparisonOp)),
    value=st.one_of(
        st.integers(min_value=-(10**6), max_value=10**6), safe_strings
    ),
)

leaf_predicates = st.one_of(
    comparisons,
    st.builds(
        Between,
        column=identifiers,
        low=st.integers(min_value=-(10**6), max_value=10**6),
        high=st.integers(min_value=-(10**6), max_value=10**6),
    ),
    st.builds(
        StartsWith,
        column=identifiers,
        prefix=st.text(alphabet="ABCXYZ", min_size=1, max_size=4),
    ),
    st.builds(IsNull, column=identifiers, negated=st.booleans()),
)

predicates = st.recursive(
    leaf_predicates,
    lambda children: st.one_of(
        st.builds(Not, part=children),
        st.builds(
            And, parts=st.lists(children, min_size=2, max_size=3).map(tuple)
        ),
        st.builds(
            Or, parts=st.lists(children, min_size=2, max_size=3).map(tuple)
        ),
    ),
    max_leaves=6,
)


@given(predicate=predicates, table=identifiers)
@settings(max_examples=200, deadline=None)
def test_predicate_roundtrip(predicate, table):
    text = f"SELECT * FROM {table} WHERE {render_predicate(predicate)}"
    parsed = parsed_both_ways(text)
    assert parsed.where == predicate


selects = st.builds(
    Select,
    table=identifiers,
    columns=st.one_of(
        st.just(()), st.lists(identifiers, min_size=1, max_size=3).map(tuple)
    ),
    where=st.one_of(st.just(TruePredicate()), leaf_predicates),
    order_by=st.one_of(st.none(), identifiers),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
)

aggregate_selects = st.builds(
    Select,
    table=identifiers,
    where=st.one_of(st.just(TruePredicate()), leaf_predicates),
    aggregate=st.builds(
        Aggregate,
        func=st.sampled_from(
            [f for f in AggregateFunc if f is not AggregateFunc.COUNT]
        ),
        column=identifiers,
    ),
    group_by=st.one_of(st.none(), identifiers),
)


@given(query=selects)
@settings(max_examples=150, deadline=None)
def test_select_roundtrip(query):
    assert parsed_both_ways(render_sql(query)) == query


@given(query=aggregate_selects)
@settings(max_examples=150, deadline=None)
def test_aggregate_select_roundtrip(query):
    assert parsed_both_ways(render_sql(query)) == query


inserts = st.builds(
    Insert,
    table=identifiers,
    row=st.dictionaries(identifiers, literals, min_size=1, max_size=4),
)

updates = st.builds(
    Update,
    table=identifiers,
    assignments=st.dictionaries(identifiers, literals, min_size=1, max_size=3),
    where=st.one_of(st.just(TruePredicate()), leaf_predicates),
)

deletes = st.builds(
    Delete,
    table=identifiers,
    where=st.one_of(st.just(TruePredicate()), leaf_predicates),
)

distinct_tables = st.tuples(identifiers, identifiers).filter(
    lambda pair: pair[0] != pair[1]
)

joins = st.tuples(distinct_tables, identifiers, identifiers).map(
    lambda parts: JoinSelect(
        left_table=parts[0][0],
        right_table=parts[0][1],
        left_column=parts[1],
        right_column=parts[2],
    )
)


@given(query=st.one_of(inserts, updates, deletes))
@settings(max_examples=200, deadline=None)
def test_write_roundtrip(query):
    assert parsed_both_ways(render_sql(query)) == query


@given(query=joins)
@settings(max_examples=100, deadline=None)
def test_join_roundtrip(query):
    assert parsed_both_ways(render_sql(query)) == query


token_soup = st.lists(
    st.sampled_from([
        "SELECT", "*", "FROM", "T", "WHERE", "a", "b.c", "=", "<", ">=", "1",
        "2.5", "'x'", "'it''s'", "(", ")", ",", "NOT", "AND", "OR", "-", "+",
        "LIKE", "'A%'", "LIMIT", "BETWEEN", "IS", "NULL", "TRUE", "INSERT",
        "INTO", "VALUES", "UPDATE", "SET", "DELETE", "JOIN", "ON", "GROUP",
        "ORDER", "BY", "DESC", "COUNT", "SUM", ";", "$", "'",
    ]),
    max_size=20,
).map(" ".join)


@given(text=st.one_of(st.text(max_size=60), token_soup))
@settings(max_examples=400, deadline=None)
def test_any_text_ends_as_the_plain_parser_ends_it(text):
    """Any str parses to an AST or raises a ReproError (``outcome`` lets
    nothing else through), and the template path ends exactly as the
    plain parser does, message included, before and after caching."""
    for _ in range(2):
        assert outcome(parse_sql, text) == outcome(plain_parse, text)


@pytest.mark.parametrize(
    "text, column",
    [("INSERT INTO T (a, b) VALUES (1, 'x')", "row"),
     ("UPDATE T SET a = 1, b = b + 2 WHERE c = 2", "assignments"),
     ("INSERT INTO T (a) VALUES (NULL)", "row")],
)
def test_returned_dicts_are_never_the_template(text, column):
    getattr(parse_sql(text), column)["a"] = "mutated"
    assert parse_sql(text) == plain_parse(text)


@pytest.mark.parametrize(
    "cached, malformed",
    [("SELECT * FROM T WHERE a = 1", "SELECT * FROM T WHERE a = " + "9" * 5000),
     ("INSERT INTO T (a, a) VALUES (1, 2)", "INSERT INTO T (a, a) VALUES (3, 4)")],
)
def test_malformed_statement_of_a_cached_shape(cached, malformed):
    """Same shape as a statement already seen, same error as the plain parser."""
    outcome(parse_sql, cached)
    assert sqlparser._split(cached)[:2] == sqlparser._split(malformed)[:2]
    assert outcome(parse_sql, malformed) == outcome(plain_parse, malformed)
