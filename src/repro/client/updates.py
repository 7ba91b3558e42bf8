"""Update protocols (Sec. V-C).

The paper describes the **eager** protocol — retrieve the affected tuples,
reconstruct at the client, re-share, redistribute — which
:meth:`DataSource.update` implements, and sketches **lazy / batched**
updates as future work: "lazy update approaches could be incorporated ...
that might reduce the communication overhead".

:class:`LazyUpdateBuffer` implements that sketch: updates are queued at
the client and flushed in one batched round trip per provider.  The
trade-offs are exactly the classical ones, measured by EXP-T8:

* fewer, larger messages (amortised per-message overhead),
* reads served between enqueue and flush see stale data unless routed
  through :meth:`read_through`, which overlays pending assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import QueryError
from ..sqlengine.expression import Predicate
from ..sqlengine.query import Select, Update, resolve_assignments
from .datasource import DataSource

Row = Dict[str, object]


@dataclass
class PendingUpdate:
    """One queued UPDATE statement."""

    table: str
    assignments: Dict[str, object]
    where: Predicate


class LazyUpdateBuffer:
    """Client-side write-behind buffer over a :class:`DataSource`.

    ``auto_flush_threshold`` bounds staleness: once that many statements
    are queued, the next enqueue triggers a flush.
    """

    def __init__(
        self, source: DataSource, auto_flush_threshold: int = 64
    ) -> None:
        if auto_flush_threshold < 1:
            raise QueryError("auto_flush_threshold must be >= 1")
        self.source = source
        self.auto_flush_threshold = auto_flush_threshold
        self._pending: List[PendingUpdate] = []
        self.flush_count = 0
        self.statements_flushed = 0

    # -- write path -----------------------------------------------------------

    def enqueue(self, update: Update) -> None:
        """Queue an UPDATE without touching the providers."""
        sharing = self.source.sharing(update.table)  # validates table
        for column in update.assignments:
            sharing.schema.column(column)
        self._pending.append(
            PendingUpdate(
                update.table,
                dict(update.assignments),
                update.where.bind(sharing.schema),
            )
        )
        if len(self._pending) >= self.auto_flush_threshold:
            self.flush()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def flush(self) -> int:
        """Apply all queued updates; returns total rows changed.

        Statements against the same table are coalesced into a single
        fetch + single write-back per table: each matching row has *all*
        applicable pending assignments applied in queue order before being
        re-shared once.  This is the communication saving the paper
        anticipates — n messages per batch instead of n per statement.
        """
        if not self._pending:
            return 0
        by_table: Dict[str, List[PendingUpdate]] = {}
        for pending in self._pending:
            by_table.setdefault(pending.table, []).append(pending)
        total_changed = 0
        for table_name, updates in by_table.items():
            total_changed += self._flush_table(table_name, updates)
        self.flush_count += 1
        self.statements_flushed += len(self._pending)
        self._pending = []
        return total_changed

    def _flush_table(self, table_name: str, updates: List[PendingUpdate]) -> int:
        source = self.source
        sharing = source.sharing(table_name)
        # one fetch of the union of affected rows: select all rows matching
        # ANY pending predicate (a full scan is correct but wasteful; we
        # fetch per-statement candidates and de-duplicate by row id)
        affected: Dict[int, Row] = {}
        for pending in updates:
            matches = source.select_pairs(Select(table_name, where=pending.where))
            for row_id, row in matches:
                affected.setdefault(row_id, row)
        changes: List[Tuple[int, Row]] = []
        for row_id, row in affected.items():
            current = dict(row)
            assigned: Dict[str, object] = {}
            for pending in updates:
                if pending.where.matches(current):
                    resolved = resolve_assignments(current, pending.assignments)
                    current.update(resolved)
                    assigned.update(resolved)
            if assigned:
                sharing.schema.validate_row(current)
                changes.append(
                    (row_id, {column: current[column] for column in assigned})
                )
        # the coalesced absolute values enter the one write pipeline at its
        # re-share primitive; apply_write broadcasts and bumps the table
        # epoch — the flush cannot forget cache invalidation
        return source.apply_write(
            source.prepare_update_shares(table_name, changes)
        )

    # -- read path ----------------------------------------------------------------

    def read_through(self, query: Select):
        """Read with pending updates overlaid (no staleness).

        Projection-only SELECTs are supported; aggregates should flush
        first (the overlay cannot adjust provider-side partial sums).
        """
        if query.is_aggregate:
            raise QueryError(
                "aggregate reads through a lazy buffer require flush() first"
            )
        pending = [p for p in self._pending if p.table == query.table]
        if not pending:
            return self.source.select(query)
        # fetch unprojected so pending predicates can be evaluated, then
        # overlay assignments and re-apply the query predicate client-side
        sharing = self.source.sharing(query.table)
        base_rows = self.source.select(Select(query.table))
        # rows matching pending predicates need their assignments applied;
        # rows that only match the query *after* an update must be caught,
        # so the query predicate is evaluated after the overlay
        bound = query.where.bind(sharing.schema)
        out: List[Row] = []
        for row in base_rows:
            current = dict(row)
            for p in pending:
                if p.where.matches(current):
                    current.update(resolve_assignments(current, p.assignments))
            if bound.matches(current):
                out.append(
                    {c: current[c] for c in query.columns}
                    if query.columns
                    else current
                )
        return out
