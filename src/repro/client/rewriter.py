"""Query rewriting: plaintext predicates → per-provider share conditions.

This implements the rewriting step of Sec. V-A: "data source D rewrites k
queries one for each service provider", replacing every literal with its
share at that provider.

The rewriter normalises each pushable conjunct into an **inclusive encoded
interval** over the column's finite domain, then maps the interval's
endpoints through the order-preserving scheme per provider:

* ``col = v``           → [enc(v), enc(v)]
* ``col < v``           → [dom.lo, enc(v) − 1]
* ``col BETWEEN a AND b``→ [enc(a), enc(b)] (clamped to the domain)
* ``col LIKE 'AB%'``    → the codec's prefix range (Sec. V-B)

Out-of-domain literals saturate (``salary < 10**12`` scans the whole
domain; ``salary = -5`` with a non-negative domain is provably empty).
A NULL literal compares to nothing (``eid = NULL``, ``salary BETWEEN
NULL AND 5``): provably empty.
Non-pushable conjuncts (OR/NOT/IS NULL/!=, predicates on randomly-shared
columns) become the **residual** that the client evaluates after
reconstruction — correct but paid for in bandwidth, which ABL-1 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..core.scheme import TableSharing
from ..errors import EncodingError, QueryError
from ..sqlengine.expression import (
    Between,
    Comparison,
    ComparisonOp,
    Predicate,
    StartsWith,
    TruePredicate,
    classify_pushdown,
    conjunction,
    split_conjunction,
)


@dataclass(frozen=True)
class EncodedInterval:
    """An inclusive interval in a column's encoded domain."""

    column: str
    low: int
    high: int

    @property
    def is_empty(self) -> bool:
        return self.low > self.high


@dataclass
class RewrittenPredicate:
    """The outcome of rewriting one table predicate.

    ``intervals`` are provider-pushable; ``residual`` is the client-side
    remainder; ``provably_empty`` short-circuits the whole query (a
    conjunct can never match, e.g. an out-of-domain equality).
    """

    intervals: List[EncodedInterval]
    residual: Predicate
    provably_empty: bool = False
    #: sharing polynomial per (scheme, encoded bound): the keyed hashes
    #: behind one are paid once per statement — not once per provider and
    #: endpoint, and an equality's two endpoints are one bound
    _polynomials: Dict = field(default_factory=dict, repr=False, compare=False)

    def conditions_for(
        self, sharing: TableSharing, provider_index: int
    ) -> List[Dict]:
        """Share-space condition dicts for one provider."""

        def share(column: str, bound: int) -> int:
            scheme = sharing.op_scheme(column)
            polynomial = self._polynomials.get((scheme, bound))
            if polynomial is None:
                polynomial = scheme.polynomial_for(bound)
                self._polynomials[scheme, bound] = polynomial
            return polynomial.evaluate(scheme.secrets.point_for(provider_index))

        return [
            {
                "column": interval.column,
                "op": "range",
                "low": share(interval.column, interval.low),
                "high": share(interval.column, interval.high),
            }
            for interval in self.intervals
        ]

    @property
    def has_residual(self) -> bool:
        return not isinstance(self.residual, TruePredicate)


def rewrite_predicate(
    predicate: Predicate, sharing: TableSharing
) -> RewrittenPredicate:
    """Split and encode a (bound) predicate for provider execution."""
    from ..sqlengine.expression import normalize_predicate

    with telemetry.span("rewrite", table=sharing.schema.name) as sp:
        predicate = normalize_predicate(predicate, sharing.schema)
        pushdown, residual_parts = classify_pushdown(predicate, sharing.schema)
        intervals: List[EncodedInterval] = []
        empty = False
        for part in pushdown:
            interval = _to_interval(part, sharing)
            if interval is None:
                # the literal could not be encoded (e.g. malformed string);
                # fall back to client-side evaluation of this conjunct
                residual_parts.append(part)
                continue
            if interval.is_empty:
                empty = True
            intervals.append(interval)
        merged = _merge_intervals(intervals)
        if any(i.is_empty for i in merged):
            empty = True
        rewritten = RewrittenPredicate(
            intervals=[] if empty else merged,
            residual=conjunction(residual_parts),
            provably_empty=empty,
        )
        if telemetry.is_enabled():
            sp.set(
                intervals=len(rewritten.intervals),
                residual_conjuncts=len(residual_parts),
                provably_empty=empty,
            )
            telemetry.count("rewrite.calls")
            telemetry.count("rewrite.pushdown_intervals", len(rewritten.intervals))
            telemetry.count("rewrite.residual_conjuncts", len(residual_parts))
        return rewritten


def _to_interval(
    part: Predicate, sharing: TableSharing
) -> Optional[EncodedInterval]:
    """Lower one pushable conjunct to an encoded interval (or None)."""
    if isinstance(part, StartsWith):
        codec = sharing.codec(part.column)
        try:
            low, high = codec.prefix_range(part.prefix)
        except (EncodingError, AttributeError):
            return None
        return EncodedInterval(part.column, low, high)
    domain = sharing.op_scheme(part.column).domain
    literals = (part.low, part.high) if isinstance(part, Between) else (part.value,)
    if None in literals:  # per SQL a comparison with NULL is never true
        return EncodedInterval(part.column, 1, 0)
    if isinstance(part, Between):
        low = _saturating_encode(sharing, part.column, part.low, round_up=True)
        high = _saturating_encode(sharing, part.column, part.high, round_up=False)
        if low is None or high is None:
            return None
        return EncodedInterval(part.column, low, high)
    assert isinstance(part, Comparison)
    op, value = part.op, part.value
    if op is ComparisonOp.EQ:
        encoded = _exact_encode(sharing, part.column, value)
        if encoded is _UNENCODABLE:
            return None
        if encoded is _OUT_OF_DOMAIN:
            return EncodedInterval(part.column, 1, 0)  # provably empty
        return EncodedInterval(part.column, encoded, encoded)
    if op in (ComparisonOp.LT, ComparisonOp.LE):
        bound = _saturating_encode(sharing, part.column, value, round_up=False)
        if bound is None:
            return None
        if op is ComparisonOp.LT:
            exact = _exact_encode(sharing, part.column, value)
            if exact not in (_UNENCODABLE, _OUT_OF_DOMAIN) and exact == bound:
                bound -= 1
        return EncodedInterval(part.column, domain.lo, bound)
    if op in (ComparisonOp.GT, ComparisonOp.GE):
        bound = _saturating_encode(sharing, part.column, value, round_up=True)
        if bound is None:
            return None
        if op is ComparisonOp.GT:
            exact = _exact_encode(sharing, part.column, value)
            if exact not in (_UNENCODABLE, _OUT_OF_DOMAIN) and exact == bound:
                bound += 1
        return EncodedInterval(part.column, bound, domain.hi)
    raise QueryError(f"operator {op} is not pushable")  # pragma: no cover


_UNENCODABLE = object()
_OUT_OF_DOMAIN = object()


def _exact_encode(sharing: TableSharing, column: str, value):
    """Encode a literal exactly; classify failures."""
    try:
        return sharing.encode(column, value)
    except EncodingError:
        pass
    # distinguish "outside the finite domain" (provably empty for =) from
    # "not encodable at all" (bad type — leave to residual evaluation)
    codec = sharing.codec(column)
    try:
        domain = codec.domain()
    except Exception:  # pragma: no cover - defensive
        return _UNENCODABLE
    comparable = _comparable_magnitude(codec, value)
    if comparable is None:
        return _UNENCODABLE
    return _OUT_OF_DOMAIN


def _saturating_encode(
    sharing: TableSharing, column: str, value, *, round_up: bool
) -> Optional[int]:
    """Encode a range bound; clamp literals that fall *outside* the domain.

    ``round_up=True`` means the bound is a lower bound (GE/GT/BETWEEN low),
    ``False`` an upper bound.  Clamping is only exact when the literal lies
    strictly beyond the domain (no stored value can be out there); a
    literal *inside* the domain that merely isn't representable (extra
    decimal digits, overlong string) returns None so the caller keeps the
    conjunct in the client-side residual — never an approximate pushdown.
    """
    try:
        return sharing.encode(column, value)
    except EncodingError:
        codec = sharing.codec(column)
        domain = codec.domain()
        comparable = _comparable_magnitude(codec, value)
        if comparable is None:
            return None
        if round_up:  # lower bound
            if comparable < domain.lo:
                return domain.lo
            if comparable > domain.hi:
                return domain.hi + 1  # provably-empty interval
            return None
        # upper bound
        if comparable > domain.hi:
            return domain.hi
        if comparable < domain.lo:
            return domain.lo - 1  # provably-empty interval
        return None


def _comparable_magnitude(codec, value) -> Optional[int]:
    """Best-effort mapping of an out-of-domain literal onto the codec's
    integer axis, for saturation decisions.  None when impossible."""
    from ..core.encoding import (
        DateCodec,
        DecimalCodec,
        IntegerCodec,
        StringCodec,
    )
    from decimal import Decimal
    import datetime

    if isinstance(codec, IntegerCodec) and isinstance(value, int):
        return value
    if isinstance(codec, DecimalCodec):
        try:
            return int(Decimal(value) * 10**codec.scale)
        except Exception:
            return None
    if isinstance(codec, DateCodec) and isinstance(value, datetime.date):
        return value.toordinal()
    if isinstance(codec, StringCodec) and isinstance(value, str):
        # overlong strings: compare by their width-length prefix, biased
        # past the prefix block so saturation lands on the right side
        try:
            prefix = codec.normalize(value[: codec.width])
        except EncodingError:
            return None
        base = StringCodec(codec.width).encode(prefix)
        return base + (1 if len(value) > codec.width else 0)
    return None


def _merge_intervals(
    intervals: List[EncodedInterval],
) -> List[EncodedInterval]:
    """Intersect same-column intervals into at most one per column."""
    by_column: Dict[str, EncodedInterval] = {}
    for interval in intervals:
        existing = by_column.get(interval.column)
        if existing is None:
            by_column[interval.column] = interval
        else:
            by_column[interval.column] = EncodedInterval(
                interval.column,
                max(existing.low, interval.low),
                min(existing.high, interval.high),
            )
    return [by_column[c] for c in sorted(by_column)]


def split_join_predicate(
    predicate: Predicate, left_table: str, right_table: str
) -> Tuple[Predicate, Predicate, Predicate]:
    """Partition a join WHERE into (left-only, right-only, residual).

    Qualified column names are stripped for the single-table parts so they
    can be rewritten against each side's schema; anything referencing both
    tables (or unqualified) stays residual.
    """
    left_parts: List[Predicate] = []
    right_parts: List[Predicate] = []
    residual: List[Predicate] = []
    for part in split_conjunction(predicate):
        tables = {
            name.partition(".")[0]
            for name in part.referenced_columns()
            if "." in name
        }
        unqualified = any("." not in n for n in part.referenced_columns())
        if unqualified or len(tables) != 1:
            residual.append(part)
        elif tables == {left_table}:
            left_parts.append(_strip_qualifiers(part))
        elif tables == {right_table}:
            right_parts.append(_strip_qualifiers(part))
        else:
            residual.append(part)
    return (
        conjunction(left_parts),
        conjunction(right_parts),
        conjunction(residual),
    )


def _strip_qualifiers(part: Predicate) -> Predicate:
    """Rewrite 'T.col' references to bare 'col' in a single-table conjunct."""
    from ..sqlengine.expression import And, IsNull, Not, Or

    def strip(name: str) -> str:
        return name.partition(".")[2] if "." in name else name

    if isinstance(part, Comparison):
        return Comparison(strip(part.column), part.op, part.value)
    if isinstance(part, Between):
        return Between(strip(part.column), part.low, part.high)
    if isinstance(part, StartsWith):
        return StartsWith(strip(part.column), part.prefix)
    if isinstance(part, IsNull):
        return IsNull(strip(part.column), part.negated)
    if isinstance(part, Not):
        return Not(_strip_qualifiers(part.part))
    if isinstance(part, And):
        return And(tuple(_strip_qualifiers(p) for p in part.parts))
    if isinstance(part, Or):
        return Or(tuple(_strip_qualifiers(p) for p in part.parts))
    return part
