"""The query service: admission → session → batched execution.

:class:`QueryService` turns a single-client :class:`DataSource` into a
multi-client front end, composing the pieces of this package:

* :class:`~repro.service.admission.AdmissionController` bounds
  concurrency and sheds load loudly;
* :class:`~repro.service.session.SessionManager` hands out per-client
  sessions with isolated row-id allocation;
* :class:`~repro.service.scheduler.FanoutBatcher` coalesces the
  concurrent queries' threshold reads into combined fan-outs (installed
  as the source cluster's ``batcher``; ``close()`` restores the previous
  one).

Consistency model: statement-level.  Reads share a table lock; writes
take it exclusively, so a read never observes a half-applied write
(reconstruction from mixed old/new shares would yield garbage values,
not just stale ones).  The lock is acquired **before** registering with
the batcher — a registered query must never block on another query's
resources, or the combining barrier could wait forever (see the
scheduler's invariants).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .. import telemetry
from ..client.datasource import DataSource
from ..errors import ServiceError, ServiceOverloadedError
from ..sqlengine.query import Delete, Insert, JoinSelect, Select, Update
from ..sqlengine.sqlparser import parse_sql
from .admission import AdmissionController, priority_name
from .scheduler import FanoutBatcher
from .session import Session, SessionManager
from .slo import DEGRADED_METRIC

_READS = (Select, JoinSelect)

#: Degradation-ladder thresholds on
#: :meth:`~repro.service.admission.AdmissionController.pressure`: step
#: down when the queue is half full, back up only once it has nearly
#: drained — hysteresis, so the mode does not flap at one threshold.
DEGRADE_AT = 0.5
RESTORE_AT = 0.2


class DegradationLadder:
    """Under queue pressure, verified reads become plain quorum reads.

    The step before shedding: a plain quorum read reconstructs the same
    values in cheaper rounds — correctness is never traded, only
    tamper-evidence, and only until the pressure falls.  The one ladder
    in the repo: :meth:`QueryService.execute` moves it per statement and
    the virtual-time simulation runner at every event, both from the
    admission controller's own pressure signal.  Inert over a source
    that does not use verified reads.
    """

    def __init__(self, source: DataSource, admission: AdmissionController):
        self.source = source
        self.admission = admission
        self.premium = bool(getattr(source, "verified_reads", False))
        self.degraded = False
        self.spans = 0
        self._lock = threading.Lock()

    def update(self) -> None:
        """Move the ladder from the current admission pressure."""
        if not self.premium:
            return
        pressure = self.admission.pressure()
        with self._lock:
            if not self.degraded and pressure >= DEGRADE_AT:
                self.degraded = True
                self.spans += 1
                self.source.verified_reads = False
                telemetry.count("service.degrade_enter")
            elif self.degraded and pressure <= RESTORE_AT:
                self.degraded = False
                self.source.verified_reads = True
                telemetry.count("service.degrade_exit")

    def note_read(self, priority) -> bool:
        """Whether a read runs degraded right now; counts it if so."""
        if not self.degraded:
            return False
        telemetry.count(DEGRADED_METRIC, priority=priority_name(priority))
        return True

    def restore(self) -> None:
        """The source leaves with the read mode it came with."""
        self.source.verified_reads = self.premium


class TableLock:
    """Readers-writer lock with writer preference.

    Writer preference keeps a steady read stream from starving writes;
    reads queued behind a waiting writer see its result — the freshest
    outcome, and the only ordering under which the concurrent-vs-oracle
    tests can be deterministic.  Shared with the shard router, whose
    migrations take the write side for their cutover window.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def reading(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def writing(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ServiceStats:
    """Service-wide outcome counters (admission keeps its own)."""

    __slots__ = (
        "completed",
        "failed",
        "rows_returned",
        "rows_written",
        "degraded_served",
    )

    def __init__(self) -> None:
        self.completed = 0
        self.failed = 0
        self.rows_returned = 0
        self.rows_written = 0
        self.degraded_served = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class StatementLadder:
    """admit → lock → register → span → run → account → release, once.

    The base of every statement front end (:class:`QueryService`, the
    shard router): single statements and waves, reads and writes, all
    climb :meth:`_run_statements`.  A front end sets ``admission`` and
    ``batcher`` (``None``: not admission-controlled / no fan-out batcher
    to register with), implements ``close``, and gets ``stats``, the
    table lock and the session surface from here.
    """

    admission: Optional[AdmissionController] = None
    batcher: Optional[FanoutBatcher] = None

    def __init__(self) -> None:
        self.stats = ServiceStats()
        self.sessions = SessionManager(self)
        self._table_lock = TableLock()
        self._stats_lock = threading.Lock()

    def open_session(
        self, client_id: Optional[str] = None, **kwargs
    ) -> Session:
        return self.sessions.open(client_id, **kwargs)

    def close_session(self, session: Session) -> None:
        self.sessions.close(session)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_statements(
        self,
        statements: Sequence[object],
        units: Sequence[Callable[[], List[object]]],
        *,
        span: Optional[str] = None,
        session: Optional[Session] = None,
        priority=None,
        timeout: Optional[float] = None,
    ) -> List[object]:
        """Run parsed ``statements`` as ``units``; results in statement order.

        Each unit is one admitted, registered piece of work returning the
        results of the statements it covers (the units' results,
        concatenated, line up with ``statements``): one unit for a single
        statement or a whole batch, one per statement for a coalescing
        wave — several units run on parallel threads so the batcher can
        combine their provider rounds.  Reads share the table lock, any
        write takes it exclusively.  Raises
        :class:`ServiceOverloadedError` when admission rejects.
        """
        is_read = all(isinstance(s, _READS) for s in statements)
        admission, batcher = self.admission, self.batcher
        lock = self._table_lock
        outcomes: List[List[object]] = [[] for _ in units]

        def run_unit(position: int) -> None:
            try:
                outcomes[position] = units[position]()
            finally:
                if batcher is not None:
                    batcher.finish()

        admitted = 0
        try:
            if admission is not None:
                try:
                    for _ in units:
                        admission.acquire(timeout=timeout, priority=priority)
                        admitted += 1
                except ServiceOverloadedError:
                    if session is not None:
                        session.record(error=True, rejected=True)
                    raise
            # lock BEFORE register: a registered query must never block on
            # another query's resources (scheduler invariant)
            with lock.reading() if is_read else lock.writing():
                try:
                    if batcher is not None:
                        batcher.register(len(units))
                    with telemetry.span(
                        span,
                        write=not is_read,
                        statements=len(statements),
                        client=None if session is None else session.client_id,
                    ) if span else nullcontext():
                        run_parallel(
                            [partial(run_unit, i) for i in range(len(units))],
                            "repro-wave",
                        )
                except BaseException:
                    if session is not None:
                        session.record(error=True)
                    with self._stats_lock:
                        self.stats.failed += 1
                    raise
        finally:
            for _ in range(admitted):
                admission.release()
        results = [result for outcome in outcomes for result in outcome]
        returned = written = 0
        for statement, result in zip(statements, results):
            if isinstance(statement, _READS):
                returned += len(result) if isinstance(result, list) else 0
            elif isinstance(result, int):
                # INSERT's result may be a row id: an allocation detail,
                # not a written-rows count
                written += 1 if isinstance(statement, Insert) else result
        if session is not None:
            session.record(rows_returned=returned, rows_written=written)
        with self._stats_lock:
            self.stats.completed += len(statements)
            self.stats.rows_returned += returned
            self.stats.rows_written += written
        return results


def parse_wave(
    statements: Sequence[str], name: str, reads: bool
) -> List[object]:
    """Parse a wave's statements; all must be reads (or all writes)."""
    parsed = [parse_sql(text) for text in statements]
    for text, statement in zip(statements, parsed):
        if isinstance(statement, _READS) != reads:
            raise ServiceError(
                f"{name}() is {'read' if reads else 'write'}-only; got a "
                f"{type(statement).__name__}: {text!r}"
            )
    return parsed


def run_parallel(units: Sequence[Callable[[], None]], name: str) -> None:
    """Run the units concurrently: one on the calling thread, several on
    a thread each; once all have finished, re-raise the lowest-positioned
    failure."""
    if len(units) == 1:
        return units[0]()
    errors: List[Optional[BaseException]] = [None] * len(units)

    def guarded(position: int) -> None:
        try:
            units[position]()
        except BaseException as exc:
            errors[position] = exc

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"{name}-{i}")
        for i in range(len(units))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error


class QueryService(StatementLadder):
    """Multi-client concurrent query front end over one data source."""

    def __init__(
        self,
        source: DataSource,
        max_in_flight: int = 16,
        queue_limit: int = 32,
        transactional: bool = False,
    ) -> None:
        super().__init__()
        self.source = source
        #: route session writes through the shared transaction manager
        #: (client WAL + one ``txn_apply`` round per commit) instead of the
        #: direct eager path; reads are unaffected
        self.transactional = transactional
        cluster = source.cluster
        self.batcher = FanoutBatcher(cluster)
        self._outer_batcher, cluster.batcher = cluster.batcher, self.batcher
        self.admission = AdmissionController(max_in_flight, queue_limit)
        self.ladder = DegradationLadder(source, self.admission)
        self._txn_manager = None
        self._closed = False

    # ------------------------------------------------------------- sessions --

    def open_session(
        self, client_id: Optional[str] = None, **kwargs
    ) -> Session:
        self._check_open()
        return super().open_session(client_id, **kwargs)

    # ------------------------------------------------------------ execution --

    def execute(
        self,
        text: str,
        session: Optional[Session] = None,
        priority=None,
        timeout: Optional[float] = None,
    ):
        """Run one SQL statement up the ladder (admit, lock, register, run).

        ``priority`` (a level or class name; defaults to interactive)
        shapes queue admission — under pressure low-priority work is
        shed first.  ``timeout`` bounds the queue wait with an absolute
        deadline.  Raises :class:`ServiceOverloadedError` when admission
        rejects — callers are expected to back off and retry.
        """
        self._check_open()
        statement = parse_sql(text)
        self.ladder.update()

        def run() -> List[object]:
            if isinstance(statement, _READS) and self.ladder.note_read(
                priority
            ):
                with self._stats_lock:
                    self.stats.degraded_served += 1
            return [self._run(statement, session)]

        (result,) = self._run_statements(
            [statement], [run], span="service.query",
            session=session, priority=priority, timeout=timeout,
        )
        return result

    @property
    def degraded(self) -> bool:
        """Whether reads currently run in degraded (plain-quorum) mode."""
        return self.ladder.degraded

    def _run(self, statement, session: Optional[Session]):
        if self.transactional and isinstance(
            statement, (Insert, Update, Delete)
        ):
            # WAL-logged write under the exclusive table lock; INSERT's
            # row id is an allocation detail, not a written-rows count
            result = self.transaction_manager().execute(statement)
            return 1 if isinstance(statement, Insert) else result
        if isinstance(statement, Insert) and session is not None:
            # route the insert through the session's private id block so
            # concurrent sessions can never collide on a row id
            row_ids = session.allocate_row_ids(statement.table, 1)
            self.source.insert_many(statement.table, [statement.row], row_ids)
            return 1
        return self.source.execute(statement)

    def run_wave(self, statements: List[str]) -> List[object]:
        """Execute a read-only wave with maximal coalescing.

        All statements are admitted and registered *before* any executes,
        so the batcher combines the whole wave into one round per
        provider per query phase — the deterministic configuration the
        service benchmark measures.  Results are in statement order.
        """
        self._check_open()
        if not statements:
            return []
        parsed = parse_wave(statements, "run_wave", True)
        if len(statements) > self.admission.max_in_flight:
            raise ServiceError(
                f"wave of {len(statements)} exceeds max_in_flight="
                f"{self.admission.max_in_flight}; size the service to the wave"
            )
        return self._run_statements(
            parsed,
            [
                lambda statement=statement: [self.source.execute(statement)]
                for statement in parsed
            ],
        )

    # ---------------------------------------------------------------- writes --

    def transaction_manager(self):
        """The service's shared transactional write path, created lazily.

        One manager (one WAL, one group-commit engine) serves every
        session: group commit only batches writers that share an engine.
        """
        self._check_open()
        if self._txn_manager is None:
            from ..txn import TransactionManager

            self._txn_manager = TransactionManager(self.source)
        return self._txn_manager

    def run_write_wave(self, statements: List[str]) -> List[object]:
        """Write counterpart of :meth:`run_wave` (ISSUE-8 satellite).

        Every statement in the wave is resolved and logged to the client
        WAL, then the whole wave is applied as **one** ``txn_apply`` round
        per provider — deterministic group formation, so the benchmark's
        group sizes don't depend on thread timing.  Results are in statement order (row id for
        INSERT, affected count for UPDATE/DELETE).
        """
        self._check_open()
        if not statements:
            return []
        parsed = parse_wave(statements, "run_write_wave", False)
        manager = self.transaction_manager()
        return self._run_statements(
            parsed, [lambda: manager.apply_batch(parsed)],
            span="service.write_wave",
        )

    # ------------------------------------------------------------ reporting --

    def report(self) -> Dict[str, object]:
        """One dict with every layer's counters."""
        out = {
            "service": self.stats.snapshot(),
            "degraded": self.ladder.degraded,
            "admission": self.admission.snapshot(),
            "batcher": self.batcher.snapshot(),
            "sessions": self.sessions.snapshot(),
        }
        if self._txn_manager is not None:
            out["txn"] = self._txn_manager.stats()
        return out

    # ------------------------------------------------------------- lifecycle --

    def close(self) -> None:
        """Detach from the source, restoring its cluster's batcher and its
        read mode."""
        if self._closed:
            return
        self._closed = True
        if self._txn_manager is not None:
            self._txn_manager.close()
        self.batcher.cluster.batcher = self._outer_batcher
        self.ladder.restore()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the query service has been closed")
