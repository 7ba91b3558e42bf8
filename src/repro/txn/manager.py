"""Transactional write path (ISSUE-8 tentpole).

The paper's update protocols (Sec. V-C) are fire-and-forget: the
client re-shares and broadcasts, and a crash between "acknowledged to
the application" and "received by the providers" silently loses the
write.  :class:`TransactionManager` closes that window:

1. every mutating statement is **resolved** — planned by the owning
   :meth:`DataSource.plan_write <repro.client.datasource.DataSource.
   plan_write>` into a :class:`~repro.client.datasource.WriteOp`
   (predicate evaluated, share material computed), then stamped with
   its epoch and group — into self-contained per-provider ops;
2. the ops are **logged** to a client-side :class:`~repro.txn.wal.
   WriteAheadLog` (the durability point: a statement is committed iff
   its record reached the log — the record's fsync is the commit's one
   fsync);
3. the ops are **applied** by one ``txn_apply`` round per provider, all
   or nothing at each (a refused op undoes the ops before it), batched
   across concurrent writers by :class:`~repro.txn.groupcommit.GroupCommitEngine`;
4. the WAL entry is **acked** — appended unsynced, so it reaches disk
   with the next fsync — and checkpointed away once the log outgrows
   :data:`CHECKPOINT_BYTES`.

Replay after a crash (:meth:`TransactionManager.recover`) re-sends
every unacked transaction; providers keep an ``applied_txns`` set, so
replay is exactly-once even though share increments are not
idempotent — which is also why a lost ack costs nothing but a re-send.
A kill at *any* phase leaves the system recoverable to exactly the
oracle state: statements whose log record survived are applied, all
others are not.

Pure-delta updates (``SET c = c + n`` on randomly-shared INTEGER
columns with a fully-pushable predicate) take the **incremental
share-delta path**: by sharing linearity the client ships one fresh
delta share per provider instead of re-sharing whole rows — no
reconstruct, half the round trips.  Which path a statement takes is
``plan_write``'s decision alone; the eager path (``DataSource.update``)
stays available as the correctness oracle the property tests compare
against.

Every op carries the client mutation epoch it was assigned at resolve
time; providers tag their undo history with it, which is what makes
``as_of_epoch`` time-travel reads (:meth:`DataSource.select_asof`)
line up exactly with transaction boundaries.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import telemetry
from ..errors import SimulatedCrash, TxnError
from ..sqlengine.query import Delete, Insert, Select, Update
from ..sqlengine.sqlparser import parse_sql
from .groupcommit import GroupCommitEngine
from .wal import WriteAheadLog

Row = Dict[str, object]
Statement = Union[Insert, Update, Delete]
#: ``(group, table)`` → what a transaction's statements do to that table
#: in plaintext, merged in statement order (``None``: not known) — the
#: :attr:`WriteOp.effect <repro.client.datasource.WriteOp.effect>`\ s the
#: row cache is told at apply time.  Lives in memory only: the WAL and the
#: providers see shares, never this.
Effects = Dict[Tuple[int, str], Optional[Dict[int, Optional[Row]]]]

#: WAL phases a fault-injection harness can kill at (see ``kill_at``);
#: ``lost-ack`` is ``post-ack`` followed by a power cut: the log loses
#: everything appended since its last fsync, the unsynced ack included
KILL_PHASES = ("pre-log", "post-log", "mid-round", "pre-ack", "post-ack", "lost-ack")

#: a commit compacts the log once it has grown past this many bytes;
#: :meth:`TransactionManager.recover` always compacts
CHECKPOINT_BYTES = 4 << 20


@dataclass
class PendingTxn:
    """A logged transaction awaiting (or undergoing) provider apply."""

    txn_id: int
    ops: List[Dict]
    tables: Set[str]
    applied: bool = False
    #: empty for a transaction replayed from the log (effects unknown)
    effects: Effects = field(default_factory=dict)


class TransactionManager:
    """WAL-backed, group-committed writes over one :class:`DataSource`.

    ``wal_path=None`` creates a throwaway log file under the system
    temp directory — convenient for benchmarks; crash tests pass an
    explicit path so a second manager can recover from it.

    ``autocommit`` (per-call) controls the outbox: ``False`` queues the
    logged transaction for a later :meth:`flush`, coalescing many
    statements into one provider round — the "incremental-delta
    outbox" of ISSUE-8.  Reads and read-dependent writes on a table
    with queued transactions flush first (the read barrier), so no
    statement ever resolves against state it cannot see.
    """

    def __init__(self, source, wal_path: Optional[str] = None) -> None:
        self.source = source
        # a log this manager made up is this manager's to remove
        self._owns_wal = wal_path is None
        if wal_path is None:
            handle, wal_path = tempfile.mkstemp(
                prefix="repro-wal-", suffix=".log"
            )
            os.close(handle)
        self.wal = WriteAheadLog(wal_path)
        self.group_commit = GroupCommitEngine(self._flush_batch)
        #: one-shot kill switch: set to a phase from :data:`KILL_PHASES`
        #: and the next transaction to reach that phase raises
        #: :class:`~repro.errors.SimulatedCrash` (and clears the switch)
        self.kill_at: Optional[str] = None
        self._resolve_lock = threading.RLock()
        self._apply_lock = threading.Lock()
        self._pending: List[PendingTxn] = []
        self._next_txn_id = 1
        self._epoch_high: Dict[Tuple[int, str], int] = {}
        self.txns_logged = 0
        self.txns_committed = 0
        self.txns_replayed = 0

    # -- backend hooks (overridden by the sharded manager) -----------------------

    def _group_source(self, group: int):
        if group != 0:
            raise TxnError(f"unsharded manager has no group {group}")
        return self.source

    # -- kill points --------------------------------------------------------------

    def _kill(self, phase: str) -> None:
        if self.kill_at == phase:
            self.kill_at = None
            if phase == "lost-ack":
                self.wal.drop_unsynced()
            telemetry.count("txn.simulated_crashes", phase=phase)
            raise SimulatedCrash(f"simulated crash at WAL phase {phase!r}")

    # -- epoch assignment ----------------------------------------------------------

    def _next_epoch(self, group: int, table: str) -> int:
        source = self._group_source(group)
        current = max(
            source.table_epoch(table), self._epoch_high.get((group, table), 0)
        )
        epoch = current + 1
        self._epoch_high[(group, table)] = epoch
        return epoch

    # -- statement resolution ------------------------------------------------------

    def _plan(
        self,
        stmt: Statement,
        group: int = 0,
        matches: Optional[List[Tuple[int, Row]]] = None,
        epoch: Optional[int] = None,
        *,
        effects: Effects,
    ) -> Tuple[List[Dict], object]:
        """One statement on one group, as ``(WAL ops, result)``.

        The group's source plans the write; this stamps the planned
        payloads with the next epoch (or the batch's shared ``epoch``)
        and the group tag — the WAL record's op shape — and merges the
        op's plaintext effect into ``effects``.  A statement that matches
        nothing logs nothing.
        """
        op = self._group_source(group).plan_write(stmt, matches)
        result = op.result[0] if isinstance(stmt, Insert) else op.result
        if not op.requests:
            return [], result
        merged = effects.setdefault((group, op.table), {})
        if merged is None or op.effect is None:
            effects[group, op.table] = None
        else:
            merged.update(op.effect)
        if op.method == "increment_rows":
            telemetry.count("txn.delta_statements", table=op.table)
        if epoch is None:
            epoch = self._next_epoch(group, op.table)
        logged = {
            "method": op.method,
            "table": op.table,
            "epoch": epoch,
            "group": group,
            "requests": [dict(request, epoch=epoch) for request in op.requests],
        }
        return [logged], result

    def _resolve_statement(
        self, stmt: Statement, effects: Effects
    ) -> Tuple[List[Dict], object]:
        return self._plan(stmt, effects=effects)

    # -- atomic batches ----------------------------------------------------------

    def _resolve_batch(
        self, statements: Sequence[Statement], effects: Effects
    ) -> Tuple[List[Dict], List[object]]:
        """Resolve a multi-statement batch against a plaintext overlay.

        Later statements see earlier ones' effects *before* anything is
        sent: the committed rows of each touched table are snapshotted
        once, then mutated client-side in statement order, and every
        UPDATE / DELETE is planned with the overlay's ``matches`` — so
        nothing is re-read and deltas resolve eagerly against the overlay
        (inside a batch the rows are in hand anyway).

        All of a table's ops share one epoch, so time travel can never
        observe a half-applied batch.
        """
        source = self.source
        overlays: Dict[str, Dict[int, Row]] = {}
        epochs: Dict[str, int] = {}
        ops: List[Dict] = []
        results: List[object] = []
        for stmt in statements:
            if not isinstance(stmt, (Insert, Update, Delete)):
                raise TxnError(
                    f"{type(stmt).__name__} cannot appear in an atomic batch"
                )
            table = stmt.table
            if table not in overlays:
                overlays[table] = {
                    rid: dict(row)
                    for rid, row in source.select_pairs(Select(table))
                }
                epochs[table] = self._next_epoch(0, table)
            rows = overlays[table]
            schema = source.sharing(table).schema
            matches = None
            if not isinstance(stmt, Insert):
                bound = stmt.where.bind(schema)
                matches = [
                    (rid, row)
                    for rid, row in sorted(rows.items())
                    if bound.matches(row)
                ]
            planned, result = self._plan(
                stmt, matches=matches, epoch=epochs[table], effects=effects
            )
            ops += planned
            results.append(result)
            # the overlay moves by the statement's effect: rows as a read sees them
            for rid in [result] if isinstance(stmt, Insert) else [rid for rid, _ in matches]:
                rows[rid] = effects[0, table][rid]
                if rows[rid] is None:
                    del rows[rid]
        return ops, results

    # -- the write path ------------------------------------------------------------

    def _pending_tables(self) -> Set[str]:
        with self._resolve_lock:
            tables: Set[str] = set()
            for txn in self._pending:
                if not txn.applied:
                    tables |= txn.tables
            return tables

    def _barrier(self, table: str) -> None:
        """Flush queued transactions touching ``table`` before reading it.

        Inserts never pass through here — they depend on no current
        state — so an insert-heavy outbox keeps coalescing while
        read-dependent statements stay correct.
        """
        if table in self._pending_tables():
            telemetry.count("txn.read_barriers", table=table)
            self.flush()

    def _log(self, ops: List[Dict], effects: Effects) -> Optional[PendingTxn]:
        """Assign an id and make the transaction durable (the commit point);
        only ``ops`` are logged."""
        if not ops:
            return None
        self._kill("pre-log")
        with self._resolve_lock:
            # ids are unique per deployment, not per log: providers keep
            # every id they applied, so a second manager (a fresh WAL)
            # recycling one would be silently skipped — silently lost
            txn_id = max(self._next_txn_id, self.source.txn_id_high + 1)
            self._next_txn_id = txn_id + 1
            self.source.txn_id_high = txn_id
            self.wal.log_txn(txn_id, ops)
            txn = PendingTxn(
                txn_id, ops, {op["table"] for op in ops}, effects=effects
            )
            self._pending.append(txn)
            self.txns_logged += 1
        telemetry.count("txn.logged")
        self._kill("post-log")
        return txn

    def execute(self, statement, autocommit: bool = True):
        """Run one statement through the transactional path.

        Returns the row id for INSERT, the affected-row count for
        UPDATE/DELETE, and rows for SELECT (reads barrier-flush the
        outbox for their table, then delegate to the source).  Accepts
        an AST node or a SQL string.
        """
        if isinstance(statement, str):
            statement = parse_sql(statement)
        if isinstance(statement, Select):
            self._barrier(statement.table)
            return self.source.select(statement)
        if not isinstance(statement, (Insert, Update, Delete)):
            raise TxnError(
                f"{type(statement).__name__} is not a transactional statement"
            )
        with telemetry.span("txn.execute", kind=type(statement).__name__):
            if isinstance(statement, (Update, Delete)):
                self._barrier(statement.table)
            with self._resolve_lock:
                effects: Effects = {}
                ops, result = self._resolve_statement(statement, effects)
                txn = self._log(ops, effects)
            if txn is not None and autocommit:
                self.group_commit.submit(txn.txn_id)
            return result

    def atomic(self, statements: Sequence[Statement]) -> List[object]:
        """Log and apply a multi-statement batch as one transaction.

        All statements become durable together (one WAL record) and
        visible together (one provider txn applied in one request, one
        epoch per table).
        """
        parsed = [
            parse_sql(s) if isinstance(s, str) else s for s in statements
        ]
        for stmt in parsed:
            if isinstance(stmt, (Update, Delete, Select)):
                self._barrier(stmt.table)
        with self._resolve_lock:
            effects: Effects = {}
            ops, results = self._resolve_batch(parsed, effects)
            txn = self._log(ops, effects)
        if txn is not None:
            self.group_commit.submit(txn.txn_id)
        return results

    def apply_batch(
        self, statements: Sequence[Statement]
    ) -> List[object]:
        """Queue every statement, then flush once — deterministic group
        formation for benchmarks and tests that want group commit's
        batching without racing real threads."""
        results = [self.execute(s, autocommit=False) for s in statements]
        self.flush()
        return results

    def flush(self) -> int:
        """Apply every queued transaction; returns how many were applied."""
        with self._apply_lock:
            return self._apply_pending()

    # -- provider rounds -----------------------------------------------------------

    def _flush_batch(self, txn_ids: List[int]) -> None:
        # the group-commit leader applies *all* queued transactions in
        # log order — a superset of its batch — so provider apply order
        # always equals WAL order regardless of submission races
        with self._apply_lock:
            self._apply_pending()

    def _apply_pending(self) -> int:
        with self._resolve_lock:
            batch = [txn for txn in self._pending if not txn.applied]
        if not batch:
            return 0
        telemetry.observe("txn.group_size", len(batch))
        # one round per group; a mid-round kill leaves a strict subset of
        # providers applied, which replay repairs
        for g in sorted({op.get("group", 0) for txn in batch for op in txn.ops}):
            source = self._group_source(g)
            txns = [t for t in batch if any(op.get("group", 0) == g for op in t.ops)]

            def apply_request(i: int, g=g, txns=txns) -> Dict:
                return {"txns": [
                    [txn.txn_id, [[op["method"], dict(op["requests"][i])]
                                  for op in txn.ops if op.get("group", 0) == g]]
                    for txn in txns
                ]}

            targets = source.cluster.write_targets()
            if self.kill_at == "mid-round":  # the round reaches one provider
                source.call_one(targets[0], "txn_apply", apply_request(targets[0]))
                self._kill("mid-round")
            source.control_round("txn_apply", apply_request, targets)
        # client-side epoch bumps (cache invalidation + as-of watermark)
        for txn in batch:
            for op in txn.ops:
                group, table = op.get("group", 0), op["table"]
                self._group_source(group).bump_table_epoch(
                    table, to=op["epoch"], effect=txn.effects.get((group, table))
                )
        self._kill("pre-ack")
        # the acks ride the next fsync: the txn records' were the commit
        # points, and a lost ack only makes recovery re-send what providers skip
        with self._resolve_lock:
            for txn in batch:
                self.wal.log_ack(txn.txn_id)
                txn.applied = True
                self.txns_committed += 1
            telemetry.count("txn.committed", len(batch))
            self._kill("post-ack")
            self._kill("lost-ack")
            self._pending = [t for t in self._pending if not t.applied]
            if self.wal.end() > CHECKPOINT_BYTES:
                self._checkpoint()
        return len(batch)

    def _checkpoint(self) -> None:
        # the checkpoint must remember the id high-water: provider
        # applied_txns sets survive the log truncation, so a recycled id
        # would be silently skipped — i.e. silently lost
        self.wal.checkpoint(
            [{"kind": "ckpt", "next_id": self._next_txn_id}]
            + [{"kind": "txn", "id": t.txn_id, "ops": t.ops} for t in self._pending if not t.applied]
        )

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Replay the WAL: re-apply every logged-but-unacked transaction.

        Idempotent at both ends — providers skip transactions in their
        ``applied_txns`` set, and replayed ids are acked and
        checkpointed so a second recovery is a no-op.  Returns counts
        for the caller (and the ``txn-replay`` CLI) to report.
        """
        records = WriteAheadLog.read_records(self.wal.path)
        logged: Dict[int, List[Dict]] = {}
        closed: Set[int] = set()
        next_id = self._next_txn_id
        for record in records:
            kind = record.get("kind")
            if kind == "txn":
                logged[record["id"]] = record["ops"]
                next_id = max(next_id, record["id"] + 1)
            elif kind in ("ack", "abort"):
                closed.add(record["id"])
            elif kind == "ckpt":
                next_id = max(next_id, record["next_id"])
        with self._resolve_lock:
            self._next_txn_id = max(self._next_txn_id, next_id)
            self.source.txn_id_high = max(
                self.source.txn_id_high, self._next_txn_id - 1
            )
            replay_ids = [
                tid
                for tid in logged
                if tid not in closed
                and all(t.txn_id != tid for t in self._pending)
            ]
            for tid in sorted(replay_ids):
                ops = logged[tid]
                txn = PendingTxn(tid, ops, {op["table"] for op in ops})
                self._pending.append(txn)
                for op in ops:
                    key = (op.get("group", 0), op["table"])
                    self._epoch_high[key] = max(
                        self._epoch_high.get(key, 0), op["epoch"]
                    )
            self._pending.sort(key=lambda t: t.txn_id)
        replayed = 0
        if replay_ids:
            replayed = self.flush()
            self.txns_replayed += replayed
            telemetry.count("txn.replayed", replayed)
        with self._resolve_lock:
            self._checkpoint()
        return {
            "records": len(records),
            "logged": len(logged),
            "acked": len(closed),
            "replayed": replayed,
        }

    # -- maintenance ----------------------------------------------------------------

    def discard_pending(self) -> int:
        """Abandon queued (never-applied) transactions.

        An ``abort`` record per transaction keeps recovery from
        resurrecting them.
        """
        with self._resolve_lock:
            doomed = [t for t in self._pending if not t.applied]
            for txn in doomed:
                self.wal.append(
                    {"kind": "abort", "id": txn.txn_id}, sync=False
                )
            if doomed:
                self.wal.sync()
                telemetry.count("txn.aborted", len(doomed))
            self._pending = [t for t in self._pending if t.applied]
            return len(doomed)

    def stats(self) -> Dict[str, object]:
        with self._resolve_lock:
            pending = sum(1 for t in self._pending if not t.applied)
        return {
            "logged": self.txns_logged,
            "committed": self.txns_committed,
            "replayed": self.txns_replayed,
            "pending": pending,
            "wal_appends": self.wal.appends,
            "wal_fsyncs": self.wal.fsyncs,
            "wal_bytes": self.wal.bytes_written,
            "group_commit": self.group_commit.stats(),
        }

    def close(self) -> None:
        """Close the log — and remove it when it was a throwaway
        (``wal_path=None``); an explicit path is the caller's to keep,
        crash tests recover from it."""
        self.wal.close()
        if self._owns_wal:
            try:
                os.remove(self.wal.path)
            except FileNotFoundError:
                pass


class ShardedTransactionManager(TransactionManager):
    """One coordinator WAL over a :class:`~repro.service.sharding.
    ShardRouter`'s groups.

    Resolution asks the router which group(s) own a statement, has each
    owner's source plan its part, and tags every op with the group
    index; apply runs one ``txn_apply`` round per touched group, and
    replay re-routes from the tags — the coordinator log is the single
    source of recovery truth for the whole sharded deployment.
    """

    def __init__(self, router, wal_path: Optional[str] = None) -> None:
        super().__init__(router.groups[0].source, wal_path=wal_path)
        self.router = router

    def _group_source(self, group: int):
        return self.router.groups[group].source

    def _resolve_statement(
        self, stmt: Statement, effects: Effects
    ) -> Tuple[List[Dict], object]:
        router = self.router
        if isinstance(stmt, Insert):
            row_id = router.reserve_row_ids(stmt.table, 1)
            owner = router.owner_for_row(stmt.table, stmt.row)
            return self._plan(
                stmt, owner, matches=[(row_id, stmt.row)], effects=effects
            )
        ops: List[Dict] = []
        total = 0
        for owner in router.write_owners(stmt):
            planned, count = self._plan(stmt, owner, effects=effects)
            ops += planned
            total += count
        return ops, total

    def _resolve_batch(self, statements, effects):
        raise TxnError(
            "atomic batches are not supported on the sharded manager; "
            "issue per-statement transactions (each still crash-safe via "
            "the coordinator WAL)"
        )
