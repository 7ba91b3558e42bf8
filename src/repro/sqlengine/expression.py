"""Predicate expression trees.

Predicates are evaluated in two places with the same semantics:

* the plaintext reference executor (ground truth for tests), and
* the query rewriter, which compiles the *provider-executable* subset
  (conjunctions of =, <, <=, >, >=, BETWEEN, LIKE-prefix on searchable
  columns — exactly the query classes of Sec. V-A) into share-space
  predicates, and evaluates any residual client-side after reconstruction.

SQL three-valued logic is simplified to two-valued with NULL-rejecting
comparisons: any comparison against NULL is false, matching what the WHERE
clause keeps.  ``IS NULL`` exists for explicit null tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .schema import TableSchema, coerce_literal


class ComparisonOp(enum.Enum):
    """Binary comparison operators."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_OP_FLIP = {
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
}


class Predicate:
    """Base class for predicate nodes."""

    def matches(self, row: Dict[str, object]) -> bool:
        raise NotImplementedError

    def referenced_columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def bind(self, schema: TableSchema) -> "Predicate":
        """Validate column references and coerce literals to column types."""
        raise NotImplementedError


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (absent WHERE clause)."""

    def matches(self, row: Dict[str, object]) -> bool:
        return True

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset()

    def bind(self, schema: TableSchema) -> "Predicate":
        return self


def _compare(left, op: ComparisonOp, right) -> bool:
    if left is None or right is None:
        return False
    if op is ComparisonOp.EQ:
        return left == right
    if op is ComparisonOp.NE:
        return left != right
    if op is ComparisonOp.LT:
        return left < right
    if op is ComparisonOp.LE:
        return left <= right
    if op is ComparisonOp.GT:
        return left > right
    return left >= right


def normalize_string(value):
    """Uppercase string operands so comparisons match the codec's folding."""
    return value.upper() if isinstance(value, str) else value


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal``."""

    column: str
    op: ComparisonOp
    value: object

    def matches(self, row: Dict[str, object]) -> bool:
        return _compare(
            normalize_string(row.get(self.column)),
            self.op,
            normalize_string(self.value),
        )

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def bind(self, schema: TableSchema) -> "Comparison":
        column = schema.column(self.column)
        return Comparison(self.column, self.op, coerce_literal(column, self.value))


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive, per SQL)."""

    column: str
    low: object
    high: object

    def matches(self, row: Dict[str, object]) -> bool:
        value = normalize_string(row.get(self.column))
        if value is None or self.low is None or self.high is None:
            return False
        return (
            normalize_string(self.low) <= value <= normalize_string(self.high)
        )

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def bind(self, schema: TableSchema) -> "Between":
        column = schema.column(self.column)
        return Between(
            self.column,
            coerce_literal(column, self.low),
            coerce_literal(column, self.high),
        )


@dataclass(frozen=True)
class StartsWith(Predicate):
    """``column LIKE 'prefix%'`` — the prefix query of Sec. V-B.

    Only usable on STRING columns; the rewriter lowers it to a share-space
    range via :meth:`StringCodec.prefix_range`.
    """

    column: str
    prefix: str

    def matches(self, row: Dict[str, object]) -> bool:
        value = row.get(self.column)
        if value is None:
            return False
        return str(value).upper().startswith(self.prefix.upper())

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def bind(self, schema: TableSchema) -> "StartsWith":
        schema.column(self.column)  # existence check
        return self


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS [NOT] NULL``."""

    column: str
    negated: bool = False

    def matches(self, row: Dict[str, object]) -> bool:
        is_null = row.get(self.column) is None
        return not is_null if self.negated else is_null

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def bind(self, schema: TableSchema) -> "IsNull":
        schema.column(self.column)
        return self


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of sub-predicates."""

    parts: Tuple[Predicate, ...]

    def matches(self, row: Dict[str, object]) -> bool:
        return all(p.matches(row) for p in self.parts)

    def referenced_columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for p in self.parts:
            out |= p.referenced_columns()
        return out

    def bind(self, schema: TableSchema) -> "And":
        return And(tuple(p.bind(schema) for p in self.parts))


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of sub-predicates."""

    parts: Tuple[Predicate, ...]

    def matches(self, row: Dict[str, object]) -> bool:
        return any(p.matches(row) for p in self.parts)

    def referenced_columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for p in self.parts:
            out |= p.referenced_columns()
        return out

    def bind(self, schema: TableSchema) -> "Or":
        return Or(tuple(p.bind(schema) for p in self.parts))


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a sub-predicate."""

    part: Predicate

    def matches(self, row: Dict[str, object]) -> bool:
        return not self.part.matches(row)

    def referenced_columns(self) -> FrozenSet[str]:
        return self.part.referenced_columns()

    def bind(self, schema: TableSchema) -> "Not":
        return Not(self.part.bind(schema))


def conjunction(parts: Sequence[Predicate]) -> Predicate:
    """Flatten a sequence of predicates into a single conjunction."""
    flat: List[Predicate] = []
    for p in parts:
        if isinstance(p, TruePredicate):
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def split_conjunction(pred: Predicate) -> List[Predicate]:
    """Decompose into top-level conjuncts (TruePredicate → empty list)."""
    if isinstance(pred, TruePredicate):
        return []
    if isinstance(pred, And):
        out: List[Predicate] = []
        for part in pred.parts:
            out.extend(split_conjunction(part))
        return out
    return [pred]


_NEGATED_OP = {
    ComparisonOp.EQ: ComparisonOp.NE,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
}


def normalize_predicate(pred: Predicate, schema: TableSchema) -> Predicate:
    """Rewrite a bound predicate into a pushdown-friendlier equivalent.

    Transformations (all semantics-preserving under the engine's
    NULL-rejecting comparison rules):

    * ``NOT`` is pushed through comparisons, BETWEEN, IS NULL, and
      De-Morganed through AND/OR — **only over NOT NULL columns**: for a
      nullable column, ``NOT (c < 5)`` matches NULL rows while ``c >= 5``
      does not, so the ``NOT`` is kept as-is there;
    * nested AND/OR are flattened.

    The payoff is provider pushdown: ``NOT (a < 5 OR a > 10)`` becomes
    ``a >= 5 AND a <= 10`` — a share-index range probe instead of a full
    scan with client-side filtering.
    """
    if isinstance(pred, Not):
        return _negate(normalize_predicate(pred.part, schema), schema)
    if isinstance(pred, And):
        return conjunction(
            [normalize_predicate(p, schema) for p in pred.parts]
        )
    if isinstance(pred, Or):
        flat: List[Predicate] = []
        for part in pred.parts:
            normalized = normalize_predicate(part, schema)
            if isinstance(normalized, Or):
                flat.extend(normalized.parts)
            else:
                flat.append(normalized)
        return Or(tuple(flat))
    return pred


def _negate(pred: Predicate, schema: TableSchema) -> Predicate:
    """NULL-faithful negation; falls back to a Not wrapper when unsure."""

    def non_nullable(column: str) -> bool:
        return schema.has_column(column) and not schema.column(column).nullable

    if isinstance(pred, Not):
        return pred.part
    if isinstance(pred, Comparison) and non_nullable(pred.column):
        return Comparison(pred.column, _NEGATED_OP[pred.op], pred.value)
    if isinstance(pred, Between) and non_nullable(pred.column):
        return Or(
            (
                Comparison(pred.column, ComparisonOp.LT, pred.low),
                Comparison(pred.column, ComparisonOp.GT, pred.high),
            )
        )
    if isinstance(pred, IsNull):
        return IsNull(pred.column, negated=not pred.negated)
    if isinstance(pred, And):
        return Or(tuple(_negate(p, schema) for p in pred.parts))
    if isinstance(pred, Or):
        return conjunction([_negate(p, schema) for p in pred.parts])
    return Not(pred)


#: Predicate node types the providers can evaluate directly on
#: order-preserving shares (Sec. V-A query classes).
PUSHDOWN_TYPES = (Comparison, Between, StartsWith)


def classify_pushdown(
    pred: Predicate, schema: TableSchema
) -> Tuple[List[Predicate], List[Predicate]]:
    """Split a predicate into (provider-executable, client-residual) parts.

    Provider-executable conjuncts are single-column comparisons / ranges /
    prefix tests over *searchable* columns.  Everything else — OR, NOT,
    IS NULL, predicates on non-searchable (randomly shared) columns — is
    evaluated at the client after reconstruction, which is correct but
    costs bandwidth; the ABL-1 ablation quantifies exactly this.
    """
    pushdown: List[Predicate] = []
    residual: List[Predicate] = []
    for part in split_conjunction(pred):
        if isinstance(part, PUSHDOWN_TYPES):
            columns = part.referenced_columns()
            assert len(columns) == 1
            column = schema.column(next(iter(columns)))
            ok = column.searchable
            if isinstance(part, Comparison) and part.op is ComparisonOp.NE:
                ok = False  # != is not an interval in share space
            if ok:
                pushdown.append(part)
                continue
        residual.append(part)
    return pushdown, residual


def flip_comparison(op: ComparisonOp) -> ComparisonOp:
    """Operator seen from the right operand (``a < b`` ⇔ ``b > a``)."""
    return _OP_FLIP[op]
