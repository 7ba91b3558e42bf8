"""A small SQL front end for the query AST.

Grammar (case-insensitive keywords)::

    select   := SELECT proj FROM ident [join] [WHERE pred]
    proj     := '*' | agg '(' ( '*' | colref ) ')' | colref (',' colref)*
    agg      := COUNT | SUM | AVG | MIN | MAX | MEDIAN
    join     := JOIN ident ON colref '=' colref
    insert   := INSERT INTO ident '(' ident (',' ident)* ')'
                VALUES '(' literal (',' literal)* ')'
    update   := UPDATE ident SET assign (',' assign)* [WHERE pred]
    assign   := ident '=' literal
              | ident '=' ident ('+'|'-') integer   -- relative (delta)
    delete   := DELETE FROM ident [WHERE pred]
    pred     := or_term
    or_term  := and_term (OR and_term)*
    and_term := factor (AND factor)*
    factor   := NOT factor | '(' pred ')' | condition
    condition:= colref op literal
              | colref BETWEEN literal AND literal
              | colref LIKE string          -- prefix patterns only ('AB%')
              | colref IS [NOT] NULL
    colref   := ident ['.' ident]
    literal  := integer | decimal | string | NULL | TRUE | FALSE

This is intentionally the paper's query surface (Sec. III/V-A) and no
more: exact match, ranges, aggregates over both, referential equi-joins,
and the write statements of Sec. V-C.  The parser exists so the examples
read like an actual database client; programmatic AST construction remains
the primary API.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError, ReproError
from .expression import (
    And,
    Between,
    Comparison,
    ComparisonOp,
    IsNull,
    Not,
    Or,
    Predicate,
    StartsWith,
    TruePredicate,
)
from .query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Delta,
    Insert,
    JoinSelect,
    Select,
    Update,
)


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    END = "end"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "LIKE",
    "IS", "NULL", "TRUE", "FALSE", "JOIN", "ON", "INSERT", "INTO",
    "VALUES", "UPDATE", "SET", "DELETE", "COUNT", "SUM", "AVG", "MIN",
    "MAX", "MEDIAN", "AS", "GROUP", "ORDER", "BY", "ASC", "DESC", "LIMIT",
}

_AGGREGATES = {
    "COUNT": AggregateFunc.COUNT,
    "SUM": AggregateFunc.SUM,
    "AVG": AggregateFunc.AVG,
    "MIN": AggregateFunc.MIN,
    "MAX": AggregateFunc.MAX,
    "MEDIAN": AggregateFunc.MEDIAN,
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol><=|>=|!=|<>|[=<>*(),.+\-])
    """,
    re.VERBOSE,
)

_COMPARISON_SYMBOLS = {
    "=": ComparisonOp.EQ,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}


@dataclass(frozen=True)
class Token:
    ttype: TokenType
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Lex SQL text into tokens; raises :class:`ParseError` on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        if match.lastgroup == "ident":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, match.start()))
            else:
                tokens.append(Token(TokenType.IDENT, value, match.start()))
        elif match.lastgroup == "number":
            tokens.append(Token(TokenType.NUMBER, value, match.start()))
        elif match.lastgroup == "string":
            tokens.append(Token(TokenType.STRING, value, match.start()))
        else:
            tokens.append(Token(TokenType.SYMBOL, value, match.start()))
    tokens.append(Token(TokenType.END, "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str, slots: Optional[Dict[int, object]] = None) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        # literal position -> slot, when compiling a shape's template
        self.slots = {} if slots is None else slots

    # -- token plumbing ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.ttype is not TokenType.END:
            self.index += 1
        return token

    def expect_keyword(self, *keywords: str) -> Token:
        token = self.advance()
        if token.ttype is not TokenType.KEYWORD or token.value not in keywords:
            raise ParseError(
                f"expected {' or '.join(keywords)} at position {token.position}, "
                f"got {token.value!r}"
            )
        return token

    def expect_symbol(self, symbol: str) -> Token:
        token = self.advance()
        if token.ttype is not TokenType.SYMBOL or token.value != symbol:
            raise ParseError(
                f"expected {symbol!r} at position {token.position}, got "
                f"{token.value!r}"
            )
        return token

    def accept_keyword(self, *keywords: str) -> Optional[Token]:
        token = self.peek()
        if token.ttype is TokenType.KEYWORD and token.value in keywords:
            return self.advance()
        return None

    def accept_symbol(self, symbol: str) -> Optional[Token]:
        token = self.peek()
        if token.ttype is TokenType.SYMBOL and token.value == symbol:
            return self.advance()
        return None

    def expect_ident(self) -> str:
        token = self.advance()
        if token.ttype is not TokenType.IDENT:
            raise ParseError(
                f"expected identifier at position {token.position}, got "
                f"{token.value!r}"
            )
        return token.value

    # -- literals / references -----------------------------------------------------

    def parse_literal(self):
        token = self.advance()
        if token.ttype is TokenType.SYMBOL and token.value == "-":
            value = self.parse_literal()
            if not isinstance(value, (int, Decimal)):
                raise ParseError("unary minus requires a numeric literal")
            return -value
        if token.ttype is TokenType.NUMBER or token.ttype is TokenType.STRING:
            if token.position in self.slots:
                return self.slots.pop(token.position)
            try:
                return _literal(token.value)
            except ValueError:  # an integer past the interpreter's digit limit
                raise ParseError(
                    f"literal too long at position {token.position}"
                ) from None
        if token.ttype is TokenType.KEYWORD:
            if token.value == "NULL":
                return None
            if token.value == "TRUE":
                return True
            if token.value == "FALSE":
                return False
        raise ParseError(
            f"expected literal at position {token.position}, got {token.value!r}"
        )

    def parse_colref(self) -> str:
        name = self.expect_ident()
        if self.accept_symbol("."):
            name = f"{name}.{self.expect_ident()}"
        return name

    # -- predicates -------------------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self._parse_or()

    def _parse_or(self) -> Predicate:
        parts = [self._parse_and()]
        while self.accept_keyword("OR"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _parse_and(self) -> Predicate:
        parts = [self._parse_factor()]
        while self.accept_keyword("AND"):
            parts.append(self._parse_factor())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _parse_factor(self) -> Predicate:
        if self.accept_keyword("NOT"):
            return Not(self._parse_factor())
        if self.accept_symbol("("):
            inner = self.parse_predicate()
            self.expect_symbol(")")
            return inner
        return self._parse_condition()

    def _parse_condition(self) -> Predicate:
        column = self.parse_colref()
        token = self.peek()
        if token.ttype is TokenType.SYMBOL and token.value in _COMPARISON_SYMBOLS:
            self.advance()
            return Comparison(
                column, _COMPARISON_SYMBOLS[token.value], self.parse_literal()
            )
        if self.accept_keyword("BETWEEN"):
            low = self.parse_literal()
            self.expect_keyword("AND")
            high = self.parse_literal()
            return Between(column, low, high)
        if self.accept_keyword("LIKE"):
            pattern = self.parse_literal()
            if not isinstance(pattern, str):
                raise ParseError("LIKE requires a string pattern")
            return _like_to_predicate(column, pattern)
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT") is not None
            self.expect_keyword("NULL")
            return IsNull(column, negated=negated)
        raise ParseError(
            f"expected comparison after {column!r} at position {token.position}"
        )

    # -- statements -----------------------------------------------------------------------

    def parse_statement(self):
        token = self.peek()
        if token.ttype is not TokenType.KEYWORD:
            raise ParseError(f"expected a statement, got {token.value!r}")
        if token.value == "SELECT":
            return self._parse_select()
        if token.value == "INSERT":
            return self._parse_insert()
        if token.value == "UPDATE":
            return self._parse_update()
        if token.value == "DELETE":
            return self._parse_delete()
        raise ParseError(f"unsupported statement {token.value}")

    def _parse_select(self):
        self.expect_keyword("SELECT")
        aggregate: Optional[Aggregate] = None
        columns: Tuple[str, ...] = ()
        token = self.peek()
        if token.ttype is TokenType.SYMBOL and token.value == "*":
            self.advance()
        else:
            names = []
            while True:
                item = self.peek()
                if item.ttype is TokenType.KEYWORD and item.value in _AGGREGATES:
                    if aggregate is not None:
                        raise ParseError(
                            "at most one aggregate per SELECT is supported"
                        )
                    self.advance()
                    self.expect_symbol("(")
                    if self.accept_symbol("*"):
                        if item.value != "COUNT":
                            raise ParseError(f"{item.value}(*) is not valid")
                        aggregate = Aggregate(AggregateFunc.COUNT, None)
                    else:
                        aggregate = Aggregate(
                            _AGGREGATES[item.value], self.parse_colref()
                        )
                    self.expect_symbol(")")
                else:
                    names.append(self.parse_colref())
                if not self.accept_symbol(","):
                    break
            columns = tuple(names)
        self.expect_keyword("FROM")
        table = self.expect_ident()
        join: Optional[Tuple[str, str, str]] = None
        if self.accept_keyword("JOIN"):
            right_table = self.expect_ident()
            self.expect_keyword("ON")
            left_ref = self.parse_colref()
            self.expect_symbol("=")
            right_ref = self.parse_colref()
            join = (right_table, left_ref, right_ref)
        where: Predicate = TruePredicate()
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        group_by = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = self.parse_colref()
        order_by = None
        descending = False
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.parse_colref()
            if self.accept_keyword("DESC"):
                descending = True
            else:
                self.accept_keyword("ASC")
        limit = None
        if self.accept_keyword("LIMIT"):
            value = self.parse_literal()
            if not isinstance(value, int):
                raise ParseError("LIMIT requires an integer literal")
            limit = value
        self._expect_end()
        if join is None:
            if aggregate is not None and columns:
                # 'SELECT g, AGG(x) ... GROUP BY g' — the group column is
                # implied by the GROUP BY clause, not a projection
                if group_by is None or columns != (group_by,):
                    raise ParseError(
                        "mixing columns with an aggregate requires "
                        "'SELECT <group_col>, AGG(col) ... GROUP BY <group_col>'"
                    )
                columns = ()
            return Select(
                table,
                columns=columns,
                where=where,
                aggregate=aggregate,
                group_by=group_by,
                order_by=order_by,
                descending=descending,
                limit=limit,
            )
        if group_by is not None or order_by is not None or limit is not None:
            raise ParseError(
                "GROUP BY / ORDER BY / LIMIT are not supported on joins"
            )
        if aggregate is not None:
            raise ParseError("aggregates over joins are not supported")
        right_table, left_ref, right_ref = join
        left_col = _strip_qualifier(left_ref, table)
        right_col = _strip_qualifier(right_ref, right_table)
        if left_col is None or right_col is None:
            # references may have been given in the opposite order
            swapped_left = _strip_qualifier(right_ref, table)
            swapped_right = _strip_qualifier(left_ref, right_table)
            if swapped_left is not None and swapped_right is not None:
                left_col, right_col = swapped_left, swapped_right
        if left_col is None or right_col is None:
            raise ParseError(
                "JOIN ON must reference one column from each joined table"
            )
        return JoinSelect(
            left_table=table,
            right_table=right_table,
            left_column=left_col,
            right_column=right_col,
            columns=columns,
            where=where,
        )

    def _parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        self.expect_symbol("(")
        names = [self.expect_ident()]
        while self.accept_symbol(","):
            name = self.expect_ident()
            if name in names:
                raise ParseError(f"column {name!r} named twice in INSERT")
            names.append(name)
        self.expect_symbol(")")
        self.expect_keyword("VALUES")
        self.expect_symbol("(")
        values = [self.parse_literal()]
        while self.accept_symbol(","):
            values.append(self.parse_literal())
        self.expect_symbol(")")
        self._expect_end()
        if len(names) != len(values):
            raise ParseError(
                f"INSERT column/value count mismatch: {len(names)} vs {len(values)}"
            )
        return Insert(table, dict(zip(names, values)))

    def _parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = {}
        while True:
            name = self.expect_ident()
            if name in assignments:
                raise ParseError(f"column {name!r} assigned twice in UPDATE")
            self.expect_symbol("=")
            assignments[name] = self._parse_assignment_value(name)
            if not self.accept_symbol(","):
                break
        where: Predicate = TruePredicate()
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        self._expect_end()
        return Update(table, assignments, where)

    def _parse_assignment_value(self, column: str):
        """Right-hand side of ``SET column = ...``.

        ``SET c = c + 3`` / ``SET c = c - 3`` become :class:`Delta`; the
        self-reference must name the assigned column (``SET a = b + 1`` is
        rejected — general expressions are outside the paper's surface).
        Anything else is an absolute literal.
        """
        token = self.peek()
        if token.ttype is TokenType.IDENT:
            ref = self.expect_ident()
            if ref != column:
                raise ParseError(
                    f"relative assignment must reference the assigned "
                    f"column: SET {column} = {ref} ... at position "
                    f"{token.position}"
                )
            sign_token = self.advance()
            if sign_token.ttype is not TokenType.SYMBOL or sign_token.value not in (
                "+",
                "-",
            ):
                raise ParseError(
                    f"expected '+' or '-' after {column!r} at position "
                    f"{sign_token.position}, got {sign_token.value!r}"
                )
            amount = self.parse_literal()
            if not isinstance(amount, int) or isinstance(amount, bool):
                raise ParseError(
                    f"delta amount must be an integer literal at position "
                    f"{sign_token.position}"
                )
            return Delta(amount if sign_token.value == "+" else -amount)
        return self.parse_literal()

    def _parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where: Predicate = TruePredicate()
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        self._expect_end()
        return Delete(table, where)

    def _expect_end(self) -> None:
        token = self.peek()
        if token.ttype is not TokenType.END:
            raise ParseError(
                f"unexpected trailing input at position {token.position}: "
                f"{token.value!r}"
            )


def _like_to_predicate(column: str, pattern: str) -> Predicate:
    """Lower a LIKE pattern; only prefix patterns ('AB%') are supported —
    exactly the string query class Sec. V-B's enumeration handles."""
    if pattern.endswith("%") and "%" not in pattern[:-1] and "_" not in pattern:
        prefix = pattern[:-1]
        if not prefix:
            return TruePredicate()
        return StartsWith(column, prefix)
    if "%" not in pattern and "_" not in pattern:
        return Comparison(column, ComparisonOp.EQ, pattern)
    raise ParseError(
        f"only prefix LIKE patterns are supported, got {pattern!r}"
    )


def _strip_qualifier(ref: str, table: str) -> Optional[str]:
    """'T.c' → 'c' when T==table; bare 'c' passes through; else None."""
    if "." not in ref:
        return ref
    qualifier, _, column = ref.partition(".")
    return column if qualifier == table else None


def _literal(text: str):
    """The value of a number or string literal token."""
    if text[0] == "'":
        return text[1:-1].replace("''", "'")
    return Decimal(text) if "." in text else int(text)


_PLACEHOLDER = {"i": "0", "d": "0.0", "s": "''"}  # one literal per slot kind
_TEMPLATE_CACHE_SIZE = 256

# Splits a statement into its shape (the text between literal slots) and
# the literals that fill it.  A digit inside an identifier (``col1``) is not
# a literal; a literal whose parse inspects its value (after LIKE, LIMIT or
# a sign) is captured with its prefix as shape text, so the parser checks
# it as it always does.
_SHAPE_RE = re.compile(
    r"""
    (?=[-+'\dLl])  # only where a literal or its prefix can start: a fast scan
    (?:((?:(?i:LIKE|LIMIT)|[-+])\s*(?:\d+(?:\.\d+)?|'(?:[^']|'')*'))
     | ((?<![A-Za-z_0-9])\d+(?:\.\d+)?|'(?:[^']|'')*'))
    """,
    re.VERBOSE,
)


def _split(text: str):
    """(shape parts, slot kinds, literal texts) of one statement."""
    pieces = iter(_SHAPE_RE.split(text))
    parts, kinds, literals = [next(pieces)], "", []
    for kept, literal, part in zip(pieces, pieces, pieces):
        if kept is None:
            kinds += "s" if literal[0] == "'" else "d" if "." in literal else "i"
            literals.append(literal)
            parts.append(part)
        else:
            parts[-1] += kept + part
    return tuple(parts), kinds, literals


def _builder(node, fresh: bool = False):
    """A function of the literal values that rebuilds *node* through its
    constructor, or None when *node* holds no slot and can be shared.
    Dicts (``Insert.row``, ``Update.assignments``) and the ``fresh``
    root are rebuilt on every call, so no template is ever aliased."""
    if isinstance(node, operator.itemgetter):  # a slot
        return node
    if isinstance(node, dict):
        keys, children = tuple(node), list(node.values())
        make = lambda *values: dict(zip(keys, values))  # noqa: E731
    elif isinstance(node, tuple):
        children, make = list(node), lambda *items: items  # noqa: E731
    elif is_dataclass(node):
        children = [getattr(node, f.name) for f in fields(node)]
        make = type(node)
    else:
        return None
    live = [(i, b) for i, b in enumerate(map(_builder, children)) if b]
    if not (live or fresh or isinstance(node, dict)):
        return None

    def build(values):
        args = children.copy()
        for i, child in live:
            args[i] = child(values)
        return make(*args)

    return build


@functools.lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _template(parts: Tuple[str, ...], kinds: str):
    """Builder for one statement shape, or None when the shape does not
    parse with every literal in a slot (the caller then parses the text)."""
    text, slots = parts[0], {}
    for index, (kind, part) in enumerate(zip(kinds, parts[1:])):
        slots[len(text)] = operator.itemgetter(index)  # reads literal #index
        text += _PLACEHOLDER[kind] + part
    try:
        tree = _Parser(text, slots).parse_statement()
    except ReproError:
        return None
    # a slot left over is a literal the tokenizer saw differently: no template
    return None if slots else _builder(tree, fresh=True)


def parse_sql(text: str):
    """Parse one SQL statement into a query-AST node.

    The syntax of each literal-free statement shape is parsed once and
    kept as a template; a statement of a known shape only converts its
    literals and runs the AST constructors.  Anything the template path
    cannot do is parsed from the text, so errors read the same either way.

    >>> parse_sql("SELECT name FROM Employees WHERE salary BETWEEN 10 AND 40")
    ... # doctest: +ELLIPSIS
    Select(table='Employees', ...)
    """
    if not isinstance(text, str):
        raise ParseError(f"SQL text must be a str, got {type(text).__name__}")
    body = text.rstrip().rstrip(";")  # leading blanks kept: positions stay the caller's
    if not body or body.isspace():
        raise ParseError("empty statement")
    try:
        parts, kinds, literals = _split(body)
        build = _template(parts, kinds)
        if build is not None:
            return build([_literal(literal) for literal in literals])
    except Exception:  # whatever failed here, the plain parse below answers
        pass
    try:
        return _Parser(body).parse_statement()
    except RecursionError:
        raise ParseError("statement nests too deeply") from None
