"""Row-cache coherence under every write path (ISSUE 21).

The row cache survives writes: the epoch choke point tells it what each
write did and it drops only that.  This state machine drives every way a
table can change — direct INSERT / eager UPDATE / share increment /
DELETE, a lazy-buffer flush, single statements and atomic batches through
``TransactionManager``, secret rotation, a write round that fails at one
provider, a crash + ``recover()`` — between reads drawn from a small pool
of SELECTs, so that cached entries meet writes that do and do not touch
them; three of them share one WHERE under different projections, so
their entry's rows hold only the columns the last read fetched, and one
UPDATE matches that WHERE.  After every step each pooled SELECT must
equal the plaintext oracle *as an ordered list*, warm, and again after
``row_cache.clear()``
(which also re-warms the cache for the next step).  One rule reads the
pool through a ``QueryService`` opened over the same source, statement by
statement and as one wave, and checks that ``close()`` hands the source
back as it was (ISSUE 22); another sends a session's INSERT (on the
session's private id block), UPDATE and DELETE through one, direct and
``transactional=True`` (ISSUE 23).  A victim that missed an INSERT while
down refuses a later atomic batch naming the missed row alone and whole,
before and on replay, until it is repaired.  One more turns on ``verified_reads``
with one provider tampering or omitting rows: the pool must still equal
the oracle and the faulty provider must end up quarantined.  Once the
victim is down, a second crash leaves n − k providers down: checked reads
stay exact, and the new crash gets no more bytes once it is quarantined;
and the victim can be revived and repaired, after which checked reads
address it again.  A bulk
insert of 33–40 rows (each index folds the whole batch in at once),
NULLs in the searchable ``tier`` included, goes
direct or through ``atomic()``; and the whole deployment is saved and
loaded back — every provider rebuilt through ``insert_many`` — and the
run continues on the loaded source.  Table epochs never move backwards.

The transaction rules look into the WAL before applying: no inserted
literal may reach it — the write effect lives in memory only.  Half the
transactional UPDATEs and DELETEs address a pooled point key (aid 3 or
8), which the invariant left cached: resolving one must send nothing,
its matches coming from the row cache.  One UPDATE assigns a lowercase
owner, which the row the write puts through the cache must hold as a
read reconstructs it (upper case).

Short budget in tier-1; ``REPRO_CHAOS_LONG=1`` (CI ``chaos-long``) runs
the long one.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.client.datasource import DataSource
from repro.client.repair import repair_provider
from repro.client.updates import LazyUpdateBuffer
from repro.errors import ProviderError, QuorumError, ReconstructionError, SimulatedCrash
from repro.persistence import load_deployment, provider_to_dict, save_deployment
from repro.providers.cluster import ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.service import QueryService
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.sqlengine.query import Insert
from repro.sqlengine.schema import TableSchema, integer_column, string_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.txn import KILL_PHASES, TransactionManager

LONG = os.environ.get("REPRO_CHAOS_LONG") == "1"
ROWS = 12
#: every inserted row carries it; the WAL must never
MARKER = "QZ"
#: the one provider the failing-round rule ever breaks
VICTIM = 4


def schema() -> TableSchema:
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 10_000),
            integer_column("branch", 1, 100),
            string_column("owner", 6),
            integer_column("balance", 0, 1_000_000, searchable=False, nullable=True),
            string_column("note", 6, searchable=False, nullable=True),
            integer_column("tier", 0, 9, nullable=True),
        ),
        primary_key="aid",
    )


def initial_rows():
    return [
        {
            "aid": i,
            "branch": (i * 17) % 100 + 1,
            "owner": ("ANNA", "BOB", "CAROL")[i % 3],
            "balance": None if i == 5 else 1000 + 10 * i,
            "note": None if i % 4 == 0 else "N" + "ABCD"[i % 4],
            "tier": None if i % 3 == 1 else i % 10,
        }
        for i in range(ROWS)
    ]


#: drawn from by the invariant, so every one of them repeats across writes
POOL = (
    "SELECT * FROM Accounts WHERE aid = 3",
    "SELECT * FROM Accounts WHERE aid = 8",
    # one WHERE under three projections: the reads share one entry, whose
    # rows hold the columns the last of them fetched
    "SELECT aid FROM Accounts WHERE branch BETWEEN 20 AND 60",
    "SELECT aid, branch FROM Accounts WHERE branch BETWEEN 20 AND 60",
    "SELECT * FROM Accounts WHERE branch BETWEEN 20 AND 60",
    "SELECT aid, owner FROM Accounts WHERE branch BETWEEN 61 AND 100",
    # OR is evaluated at the client: a residual over a full fetch
    "SELECT * FROM Accounts WHERE branch < 15 OR owner = 'BOB'",
    # a residual on the column share increments change
    "SELECT aid, balance FROM Accounts WHERE branch >= 30 AND balance > 1080",
    # pushed ORDER BY + LIMIT: the entry is a prefix, dropped by any write
    "SELECT aid, branch FROM Accounts WHERE branch >= 10 ORDER BY branch LIMIT 3",
    "SELECT * FROM Accounts LIMIT 4",
    # the residual keeps ORDER BY / LIMIT at the client: the entry holds
    # every match and survives writes that leave them alone
    "SELECT aid FROM Accounts WHERE owner <> 'ANNA' ORDER BY aid DESC LIMIT 3",
    # the provider's entry walks: groups cut along the owner index under a
    # branch mask; a top-k read backwards off the condition's own entry
    # range; a top-k whose walk a second column's mask filters
    "SELECT owner, SUM(balance) FROM Accounts WHERE branch >= 20 GROUP BY owner",
    "SELECT aid, branch FROM Accounts WHERE branch <= 70 ORDER BY branch DESC LIMIT 4",
    "SELECT aid, owner FROM Accounts WHERE aid >= 3 ORDER BY owner DESC LIMIT 5",
    # a searchable column that holds NULLs: they are never indexed
    "SELECT aid, tier FROM Accounts WHERE tier BETWEEN 2 AND 6",
)

aids = st.integers(0, ROWS + 8)
branches = st.integers(1, 100)


class RowCacheCoherence(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.source = DataSource(ProviderCluster(5, 3), seed=21)
        self.source.create_table(schema())
        self.source.insert_many("Accounts", initial_rows())
        catalog = Catalog()
        catalog.add_table(Table(schema(), initial_rows()))
        self.oracle = PlaintextExecutor(catalog)
        self.wal_dir = tempfile.mkdtemp(prefix="repro-coherence-")
        self.wal_path = os.path.join(self.wal_dir, "coherence.wal")
        self.manager = TransactionManager(self.source, self.wal_path)
        self.next_aid = 100
        self.broken = False
        self.epoch_high = 0
        self.bulk_inserted = False

    def teardown(self) -> None:
        self.manager.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    # -- statement text ---------------------------------------------------------

    def _insert_sql(self, branch: int) -> str:
        self.next_aid += 1
        owner = MARKER + "ABCDEFG"[self.next_aid % 7]
        return (
            "INSERT INTO Accounts (aid, branch, owner, balance, note) VALUES "
            f"({self.next_aid}, {branch}, '{owner}', 1500, '{MARKER}')"
        )

    def _both(self, sql: str, run) -> None:
        """``run(sql)`` against the deployment, ``sql`` against the oracle."""
        run(sql)
        self.oracle.execute(parse_sql(sql))

    def _logged_then_applied(self, log) -> None:
        """Queue through the manager, read the log, then apply."""
        log()
        with open(self.wal_path, "rb") as handle:
            logged = handle.read()
        assert MARKER.encode() not in logged, "plaintext reached the WAL"
        self.manager.flush()

    # -- direct writes -----------------------------------------------------------

    @rule(branch=branches)
    def insert(self, branch):
        self._both(self._insert_sql(branch), self.source.sql)

    @rule(aid=aids, branch=branches)
    def update_predicate_column(self, aid, branch):
        self._both(
            f"UPDATE Accounts SET branch = {branch} WHERE aid = {aid}", self.source.sql
        )

    @rule(low=branches, width=st.integers(0, 30))
    def update_other_column(self, low, width):
        self._both(
            f"UPDATE Accounts SET note = 'UPD' WHERE branch BETWEEN {low} AND {low + width}",
            self.source.sql,
        )

    @rule(low=branches, delta=st.integers(-5, 50))
    def increment(self, low, delta):
        self.source.increment(
            "Accounts", "balance", delta, Comparison("branch", ComparisonOp.GE, low)
        )
        self.oracle.execute(
            parse_sql(
                f"UPDATE Accounts SET balance = balance + {delta} WHERE branch >= {low}"
            )
        )

    @rule(owner=st.sampled_from(["DORA", "EVE"]))
    def update_the_pooled_range(self, owner):
        """The WHERE the three pooled projections share: the write takes
        its matches from their entry only when its rows hold every column."""
        self._both(
            f"UPDATE Accounts SET owner = '{owner}' WHERE branch BETWEEN 20 AND 60",
            self.source.sql,
        )

    @rule(aid=aids)
    def delete(self, aid):
        self._both(f"DELETE FROM Accounts WHERE aid = {aid}", self.source.sql)

    @rule(aid=aids, low=branches)
    def lazy_flush(self, aid, low):
        buffer = LazyUpdateBuffer(self.source)
        for sql in (
            f"UPDATE Accounts SET owner = 'LAZY' WHERE aid = {aid}",
            f"UPDATE Accounts SET branch = {low} WHERE branch > {low} AND branch < {low + 9}",
        ):
            buffer.enqueue(parse_sql(sql))
            self.oracle.execute(parse_sql(sql))
        buffer.flush()

    # -- through the transaction manager -----------------------------------------

    @rule(
        aid=aids,
        branch=branches,
        shape=st.sampled_from(["insert", "update", "owner", "delta", "delete"]),
        warm=st.none() | st.sampled_from([3, 8]),
    )
    def txn_statement(self, aid, branch, shape, warm):
        """One statement through the manager.  With ``warm`` an UPDATE or
        DELETE addresses the key of a pooled point read, which the
        invariant left cached: its matches come from the row cache, so
        resolving it sends nothing.  The ``owner`` UPDATE assigns a
        lowercase literal; a read reconstructs it in upper case, and so
        must the row the write puts through the cache."""
        where = f"aid = {aid if warm is None else warm}"
        owner = "z" + "abcdefg"[branch % 7]
        sql = {
            "insert": self._insert_sql(branch),
            "update": f"UPDATE Accounts SET branch = {branch} WHERE {where}",
            "owner": f"UPDATE Accounts SET owner = '{owner}' WHERE {where}",
            "delta": f"UPDATE Accounts SET balance = balance + 7 WHERE branch <= {branch}",
            "delete": f"DELETE FROM Accounts WHERE "
            + (f"branch = {branch}" if warm is None else where),
        }[shape]
        network = self.source.cluster.network
        messages = network.total_messages

        def log():
            self.manager.execute(sql, autocommit=False)
            if warm is not None and shape in ("update", "owner", "delete"):
                assert network.total_messages == messages, "a warm write read its matches"

        self._logged_then_applied(log)
        self.oracle.execute(parse_sql(sql.replace(f"'{owner}'", f"'{owner.upper()}'")))

    @rule(aid=aids, branch=branches)
    def txn_atomic_batch(self, aid, branch):
        gone = self._insert_sql(branch)
        batch = [
            gone,
            self._insert_sql(100 - branch + 1),
            f"UPDATE Accounts SET branch = {branch} WHERE aid = {aid}",
            # insert-then-delete of one row inside the batch
            f"DELETE FROM Accounts WHERE aid = {self.next_aid - 1}",
        ]
        self.manager.atomic(batch)
        for sql in batch:
            self.oracle.execute(parse_sql(sql))

    @rule(
        branch=branches,
        phase=st.sampled_from(KILL_PHASES),
    )
    def crash_and_recover(self, branch, phase):
        where = f"WHERE branch >= {branch}"
        sql = f"UPDATE Accounts SET owner = 'CRASH' {where}"
        if not self.oracle.execute(parse_sql(f"SELECT aid FROM Accounts {where}")):
            return  # matches nothing: nothing is logged, no phase is reached
        self.manager.kill_at = phase
        with pytest.raises(SimulatedCrash):
            self.manager.execute(sql)
        if phase != "pre-log":  # committed iff logged
            self.oracle.execute(parse_sql(sql))
        self.manager.close()
        self.manager = TransactionManager(self.source, self.wal_path)
        self.manager.recover()

    # once a run: every later step reads the rows it adds, and checked
    # reads decode them one at a time
    @precondition(lambda self: not self.bulk_inserted)
    @rule(
        cells=st.lists(st.tuples(branches, st.none() | st.integers(0, 9)), min_size=33, max_size=40),
        through=st.sampled_from(["direct", "atomic"]),
    )
    def bulk_insert(self, cells, through):
        """33–40 rows at once (direct: one ``insert_many`` that every
        index folds in as one batch; ``atomic``: one transaction of
        single-row ops), the first with a NULL ``tier``."""
        self.bulk_inserted = True
        rows = []
        for position, (branch, tier) in enumerate(cells):
            self.next_aid += 1
            rows.append({
                "aid": self.next_aid,
                "branch": branch,
                "owner": MARKER + "ABCDEFG"[self.next_aid % 7],
                "balance": None if branch % 5 == 0 else 2000 + branch,
                "note": None if branch % 2 else MARKER,
                "tier": None if position == 0 else tier,
            })
        if through == "direct":
            self.source.insert_many("Accounts", rows)
        else:
            self.manager.atomic([Insert("Accounts", row) for row in rows])
        for row in rows:
            self.oracle.execute(Insert("Accounts", row))

    # -- whole-deployment events --------------------------------------------------

    @rule()
    def save_and_load(self):
        """Save the deployment, load it back, and carry on from the loaded
        source: providers rebuilt from their snapshots, the client from its
        metadata, a fresh manager over the same log."""
        directory = os.path.join(self.wal_dir, "snapshot")
        save_deployment(self.source, directory)
        self.manager.close()
        self.source = load_deployment(directory)
        if self.broken:  # the victim's missed write is in its snapshot too
            self.source.cluster.inject_fault(VICTIM, Fault(FailureMode.CRASH))
        self.manager = TransactionManager(self.source, self.wal_path)

    @rule(seed=st.integers(1, 1_000))
    def rotate_secrets(self, seed):
        self.source.rotate_secrets(seed)

    @precondition(lambda self: not self.broken)
    @rule(aid=aids, branch=branches)
    def write_round_fails_at_one_provider(self, aid, branch):
        """The others applied the write; the victim never serves again."""
        self.broken = True
        cluster = self.source.cluster
        cluster.inject_fault(VICTIM, Fault(FailureMode.FLAKY))
        sql = f"UPDATE Accounts SET branch = {branch} WHERE aid = {aid}"
        if self.oracle.execute(parse_sql(sql)):
            with pytest.raises(QuorumError):
                self.source.sql(sql)
        cluster.inject_fault(VICTIM, Fault(FailureMode.CRASH))

    @precondition(lambda self: not self.broken)
    @rule(branch=branches, aid=aids)
    def drifted_victim_refuses_an_atomic_batch_whole(self, branch, aid):
        """The victim misses an INSERT while crashed.  Back up, it meets an
        atomic batch whose later statement deletes the missed row: it
        refuses the batch alone and keeps nothing of it (the batch's INSERT
        ran there first), and a WAL replay meets the same error.  Then it
        goes down again, drifted, until ``repair_the_victim``."""
        self.broken = True
        cluster = self.source.cluster
        victim = cluster.providers[VICTIM]
        cluster.inject_fault(VICTIM, Fault(FailureMode.CRASH))
        self._both(self._insert_sql(branch), self.manager.execute)
        missed = self.next_aid
        victim.clear_fault()
        batch = [
            self._insert_sql(100 - branch + 1),
            f"UPDATE Accounts SET note = 'DRF' WHERE aid = {aid}",
            f"DELETE FROM Accounts WHERE aid = {missed}",
        ]

        def victim_state():
            table = victim.store.table(self.source.physical_name("Accounts"))
            entries = {c: i.entries_in_order() for c, i in table.indexes.items()}
            return provider_to_dict(victim), entries

        before = victim_state()
        errors = []
        with pytest.raises(ProviderError) as caught:
            self.manager.atomic(batch)
        errors.append(str(caught.value))
        for sql in batch:  # logged, and applied by every other provider
            self.oracle.execute(parse_sql(sql))
        txn_id = self.source.txn_id_high
        applied = [txn_id in p.store.applied_txns for p in cluster.providers]
        assert applied == [index != VICTIM for index in range(5)]
        assert victim_state() == before
        self.manager.close()
        self.manager = TransactionManager(self.source, self.wal_path)
        with pytest.raises(ProviderError) as caught:
            self.manager.recover()
        errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert victim_state() == before
        # down again, the replay acks at the others
        cluster.inject_fault(VICTIM, Fault(FailureMode.CRASH))
        self.manager.close()
        self.manager = TransactionManager(self.source, self.wal_path)
        self.manager.recover()

    @rule(
        index=st.integers(0, 4),
        fault=st.sampled_from(
            [
                (FailureMode.TAMPER, 0.3),
                (FailureMode.TAMPER, 1.0),
                (FailureMode.OMIT, 0.5),
            ]
        ),
    )
    def checked_reads_mask_one_faulty_provider(self, index, fault):
        assume(not (self.broken and index == VICTIM))
        self.checked_pool_reads(index, fault)

    def checked_pool_reads(self, index, fault) -> int:
        """Checked reads answer exactly — never fewer rows than the oracle —
        with one provider tampering or dropping rows, and quarantine it.

        Once the victim is down only k + 1 providers answer.  A tamperer
        that perturbs one random-column share of a row and leaves its
        order-preserving shares alone then leaves no evidence: each k-subset
        explains k of the k + 1 shares.  Such a read must refuse with the
        ambiguous-vote ``ReconstructionError`` rather than guess; it is the
        only refusal allowed.  Returns how many reads refused."""
        cluster = self.source.cluster
        mode, rate = fault
        cluster.inject_fault(index, Fault(mode, rate=rate))
        verified = self.source.verified_reads
        self.source.verified_reads = True
        refused = 0
        try:
            for sql in POOL:
                expected = self.oracle.execute(parse_sql(sql))
                try:
                    answer = self.source.sql(sql)
                except ReconstructionError as error:
                    assert self.broken and mode is FailureMode.TAMPER, error
                    assert "ambiguous robust decode" in str(error), error
                    refused += 1
                    continue
                assert answer == expected, sql
            assert refused or cluster.health.is_quarantined(index)
        finally:
            cluster.providers[index].clear_fault()
            cluster.health.release(index)
            self.source.verified_reads = verified
        return refused

    @precondition(lambda self: self.broken)
    @rule(index=st.sampled_from([i for i in range(5) if i != VICTIM]))
    def second_crash_under_checked_reads(self, index):
        """With the victim down, one more crash leaves n − k providers
        down: checked reads still answer exactly, and once the health
        tracker holds the new crash as down it is sent nothing more."""
        cluster = self.source.cluster
        name = cluster.providers[index].name
        cluster.inject_fault(index, Fault(FailureMode.CRASH))
        verified = self.source.verified_reads
        self.source.verified_reads = True
        settled = None
        try:
            for _ in range(3):
                for sql in POOL:
                    assert self.source.sql(sql) == self.oracle.execute(parse_sql(sql)), sql
                    inbound = cluster.network.stats.bytes_to(name)
                    if settled is None and cluster.health.down([index]):
                        settled = inbound
                    assert settled in (None, inbound), (
                        f"{sql}: a quarantined crashed provider was still addressed"
                    )
            assert settled is not None, "the second crash was never quarantined"
        finally:
            cluster.providers[index].clear_fault()
            cluster.health.release(index)
            self.source.verified_reads = verified

    @precondition(lambda self: self.broken)
    @rule()
    def repair_the_victim(self):
        """Revive the victim and rebuild it from its peers: the checked
        pool reads address it again and still answer exactly."""
        cluster = self.source.cluster
        cluster.providers[VICTIM].clear_fault()
        repair_provider(self.source, VICTIM)
        self.broken = False
        name = cluster.providers[VICTIM].name
        verified = self.source.verified_reads
        self.source.verified_reads = True
        try:
            for sql in POOL:
                inbound = cluster.network.stats.bytes_to(name)
                assert self.source.sql(sql) == self.oracle.execute(parse_sql(sql)), sql
                assert cluster.network.stats.bytes_to(name) > inbound, sql
        finally:
            self.source.verified_reads = verified

    # -- through the query service -------------------------------------------------

    @rule()
    def reads_through_a_query_service(self):
        """Admission and batching change no answer, and ``close()`` leaves
        the source with the cluster and read mode it came with."""
        expected = [self.oracle.execute(parse_sql(sql)) for sql in POOL]
        cluster, verified = self.source.cluster, self.source.verified_reads
        with QueryService(self.source) as service:
            assert [service.execute(sql) for sql in POOL] == expected
            assert service.run_wave(list(POOL)) == expected
        assert self.source.cluster is cluster
        assert self.source.verified_reads == verified

    @rule(aid=aids, branch=branches, transactional=st.booleans())
    def session_writes_through_a_query_service(self, aid, branch, transactional):
        """A session's writes — INSERT on its private id block or, when
        ``transactional``, everything through the service's own WAL — leave
        the table the oracle's, read back through the same session warm;
        the invariant then reads it direct, warm and cache-cleared."""
        writes = [
            self._insert_sql(branch),
            self._insert_sql(100 - branch + 1),
            f"UPDATE Accounts SET branch = {branch} WHERE aid = {aid}",
            f"UPDATE Accounts SET note = 'SVC' WHERE branch >= {branch}",
            f"DELETE FROM Accounts WHERE aid = {aid + 1}",
        ]
        with QueryService(self.source, transactional=transactional) as service:
            session = service.open_session("writer")
            for sql in writes:
                # INSERT answers 1 on both sides, UPDATE / DELETE the count
                assert session.execute(sql) == self.oracle.execute(parse_sql(sql))
            expected = [self.oracle.execute(parse_sql(sql)) for sql in POOL]
            assert [session.execute(sql) for sql in POOL] == expected
            assert session.stats.errors == 0
            assert (service.report().get("txn") is not None) == transactional

    # -- the contract ---------------------------------------------------------------

    @invariant()
    def table_epochs_never_move_backwards(self):
        epoch = self.source.table_epoch("Accounts")
        assert epoch >= self.epoch_high
        self.epoch_high = epoch

    @invariant()
    def pooled_selects_equal_the_oracle_warm_and_cold(self):
        expected = [self.oracle.execute(parse_sql(sql)) for sql in POOL]
        warm = [self.source.sql(sql) for sql in POOL]
        assert warm == expected
        self.source.row_cache.clear()
        assert [self.source.sql(sql) for sql in POOL] == expected


RowCacheCoherence.TestCase.settings = settings(
    max_examples=200 if LONG else 12,
    stateful_step_count=60 if LONG else 20,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestRowCacheCoherence = RowCacheCoherence.TestCase


@pytest.mark.parametrize(
    "fault, refused",
    [
        # the fault stream of provider 3 perturbs only the balance share of
        # the second pooled row (aid = 8): that read alone must refuse
        ((FailureMode.TAMPER, 0.3), 1),
        ((FailureMode.TAMPER, 1.0), 0),
        ((FailureMode.OMIT, 0.5), 0),
    ],
)
def test_checked_reads_with_k_plus_one_responders(fault, refused):
    """The victim goes down (a write that matches no row still breaks it),
    so four = k + 1 providers answer the checked reads of one faulty
    provider; then the deployment reads back as the oracle's."""
    state = RowCacheCoherence()
    try:
        state.write_round_fails_at_one_provider(aid=ROWS + 8, branch=91)
        assert state.checked_pool_reads(3, fault) == refused
        state.pooled_selects_equal_the_oracle_warm_and_cold()
    finally:
        state.teardown()
