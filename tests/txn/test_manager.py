"""Transaction manager: outbox, deltas, atomic batches, group commit."""

import threading
from decimal import Decimal

import pytest

from repro.client.datasource import DataSource
from repro.errors import ServiceError, TxnError
from repro.providers.cluster import ProviderCluster
from repro.service import QueryService
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import GroupCommitEngine, TransactionManager


def accounts_schema():
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            string_column("owner", 8),
            integer_column("score", 0, 1000),
            integer_column("balance", 0, 1_000_000_000, searchable=False),
        ),
        primary_key="aid",
    )


@pytest.fixture
def source():
    src = DataSource(ProviderCluster(4, 2), seed=7)
    src.create_table(accounts_schema())
    src.insert_many(
        "Accounts",
        [
            {"aid": i, "owner": "A", "score": i, "balance": 1000 + i}
            for i in range(20)
        ],
    )
    return src


@pytest.fixture
def manager(source, tmp_path):
    mgr = TransactionManager(source, str(tmp_path / "client.wal"))
    yield mgr
    mgr.close()


def rows_of(source):
    return sorted(
        (r["aid"], r["owner"], r["balance"])
        for r in source.select(parse_sql("SELECT * FROM Accounts"))
    )


class TestStatements:
    def test_insert_update_delete(self, source, manager):
        manager.execute(
            "INSERT INTO Accounts (aid, owner, score, balance) VALUES (100, 'Z', 1, 5)"
        )
        assert manager.execute(
            "UPDATE Accounts SET balance = 50 WHERE aid = 100"
        ) == 1
        assert manager.execute("DELETE FROM Accounts WHERE aid = 0") == 1
        rows = dict(
            (aid, (owner, balance)) for aid, owner, balance in rows_of(source)
        )
        assert rows[100] == ("Z", 50)
        assert 0 not in rows
        assert manager.stats()["committed"] == 3

    def test_delta_update_takes_increment_path(self, source, manager):
        count = manager.execute(
            "UPDATE Accounts SET balance = balance + 111 WHERE aid >= 0 AND aid <= 9"
        )
        assert count == 10
        rows = dict((a, b) for a, _o, b in rows_of(source))
        assert all(rows[a] == 1000 + a + 111 for a in range(10))
        assert all(rows[a] == 1000 + a for a in range(10, 20))

    def test_delta_on_searchable_column_falls_back_to_eager(
        self, source, manager
    ):
        # score is order-preserving: the delta fast path must refuse it
        # and the eager fallback must still produce the right plaintext
        count = manager.execute(
            "UPDATE Accounts SET score = score + 500 WHERE aid = 3"
        )
        assert count == 1
        rows = source.select(parse_sql("SELECT * FROM Accounts WHERE aid = 3"))
        assert rows[0]["score"] == 503

    def test_select_through_manager_barriers_pending(self, source, manager):
        manager.execute(
            "UPDATE Accounts SET balance = 9 WHERE aid = 1", autocommit=False
        )
        # the write is logged but unapplied; a read must flush it first
        rows = manager.execute("SELECT * FROM Accounts WHERE aid = 1")
        assert rows[0]["balance"] == 9
        assert manager.stats()["pending"] == 0

    def test_update_barrier_sees_pending_insert(self, source, manager):
        manager.execute(
            "INSERT INTO Accounts (aid, owner, score, balance) VALUES (77, 'Q', 1, 1)",
            autocommit=False,
        )
        assert manager.execute(
            "UPDATE Accounts SET balance = 2 WHERE aid = 77"
        ) == 1

    def test_empty_update_logs_nothing(self, source, manager):
        assert manager.execute(
            "UPDATE Accounts SET balance = 1 WHERE aid = 12345"
        ) == 0
        assert manager.stats()["logged"] == 0


class TestEpochs:
    def test_each_statement_bumps_once(self, source, manager):
        before = source.table_epoch("Accounts")
        manager.execute("UPDATE Accounts SET balance = 1 WHERE aid = 1")
        manager.execute("DELETE FROM Accounts WHERE aid = 2")
        assert source.table_epoch("Accounts") == before + 2

    def test_atomic_batch_shares_one_epoch(self, source, manager):
        before = source.table_epoch("Accounts")
        manager.atomic(
            [
                "UPDATE Accounts SET balance = 1 WHERE aid = 1",
                "UPDATE Accounts SET balance = 2 WHERE aid = 2",
                "DELETE FROM Accounts WHERE aid = 3",
            ]
        )
        assert source.table_epoch("Accounts") == before + 1


class TestAtomicBatches:
    def test_results_in_statement_order(self, source, manager):
        results = manager.atomic(
            [
                "INSERT INTO Accounts (aid, owner, score, balance) VALUES (50, 'N', 1, 7)",
                "UPDATE Accounts SET balance = 8 WHERE aid = 50",
                "DELETE FROM Accounts WHERE aid = 50",
            ]
        )
        assert results[1] == 1 and results[2] == 1
        assert 50 not in {a for a, _o, _b in rows_of(source)}

    def test_later_statements_see_earlier_writes(self, source, manager):
        manager.atomic(
            [
                "UPDATE Accounts SET balance = 40000 WHERE aid = 5",
                # matches only if the first statement's write is visible
                # inside the batch overlay
                "UPDATE Accounts SET owner = 'R' WHERE balance = 40000",
            ]
        )
        rows = dict((a, (o, b)) for a, o, b in rows_of(source))
        assert rows[5] == ("R", 40000)

    def test_the_overlay_holds_values_as_a_read_reconstructs_them(self, tmp_path):
        """Regression: the overlay held an INSERT's raw literals, and the
        next statement's ``price >= 2`` met ``'2.50'`` as a string."""
        source = DataSource(ProviderCluster(4, 2), seed=7)
        source.create_table(
            TableSchema("T", (integer_column("id", 0, 100), decimal_column("price", 0, 9)))
        )
        source.insert_many("T", [{"id": 1, "price": 1}])
        manager = TransactionManager(source, str(tmp_path / "t.wal"))
        try:
            assert manager.atomic([
                "INSERT INTO T (id, price) VALUES (2, '2.50')",
                "UPDATE T SET price = '3.25' WHERE price >= 2",
                "DELETE FROM T WHERE price > 3",
            ]) == [1, 1, 1]
        finally:
            manager.close()
        assert source.sql("SELECT * FROM T") == [{"id": 1, "price": Decimal("1")}]

    def test_time_travel_never_sees_half_a_batch(self, source, manager):
        before = source.table_epoch("Accounts")
        manager.atomic(
            [
                "UPDATE Accounts SET balance = 1 WHERE aid = 1",
                "UPDATE Accounts SET balance = 2 WHERE aid = 2",
            ]
        )
        select_all = parse_sql("SELECT * FROM Accounts")
        old = {r["aid"]: r["balance"] for r in source.select_asof(select_all, before)}
        new = {r["aid"]: r["balance"] for r in source.select_asof(select_all, before + 1)}
        assert (old[1], old[2]) == (1001, 1002)
        assert (new[1], new[2]) == (1, 2)


class TestGroupCommit:
    def test_concurrent_writers_share_groups(self, source, manager):
        workers, per_worker = 6, 5
        errors = []

        def writer(w):
            try:
                for i in range(per_worker):
                    aid = 1000 + w * per_worker + i
                    manager.execute(
                        f"INSERT INTO Accounts (aid, owner, score, balance) "
                        f"VALUES ({aid}, 'W', 1, {aid})"
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = manager.stats()
        assert stats["committed"] == workers * per_worker
        assert stats["group_commit"]["txns_flushed"] == workers * per_worker
        assert len(rows_of(source)) == 20 + workers * per_worker

    def test_engine_relays_flush_failure_to_followers(self):
        calls = []

        def flush(batch):
            calls.append(list(batch))
            raise RuntimeError("boom")

        engine = GroupCommitEngine(flush)
        with pytest.raises(RuntimeError):
            engine.submit(1)
        assert calls == [[1]]

    def test_apply_batch_coalesces_rounds(self, source, manager):
        network = source.cluster.network
        statements = [
            parse_sql(
                f"INSERT INTO Accounts (aid, owner, score, balance) "
                f"VALUES ({500 + i}, 'B', 1, {i})"
            )
            for i in range(8)
        ]
        network.reset()
        manager.apply_batch(statements)
        batched = network.total_messages
        # one txn_apply round for the whole wave, per provider, far below
        # 8 separate rounds
        assert batched <= 4 * source.cluster.n_providers


class TestGuards:
    def test_join_select_is_not_transactional(self, source, manager):
        from repro.sqlengine.query import JoinSelect

        source.create_table(
            TableSchema(
                "Branches",
                (integer_column("bid", 0, 1_000_000),),
                primary_key="bid",
            )
        )
        with pytest.raises(TxnError):
            manager.execute(
                JoinSelect(
                    left_table="Accounts",
                    right_table="Branches",
                    left_column="aid",
                    right_column="bid",
                )
            )

    def test_discard_pending_aborts(self, source, manager):
        manager.execute(
            "UPDATE Accounts SET balance = 1 WHERE aid = 1", autocommit=False
        )
        assert manager.discard_pending() == 1
        assert manager.stats()["pending"] == 0
        # the write never reached the providers
        rows = dict((a, b) for a, _o, b in rows_of(source))
        assert rows[1] == 1001


class TestService:
    def test_run_write_wave_is_write_only(self, source):
        with QueryService(source, max_in_flight=4) as service:
            with pytest.raises(ServiceError):
                service.run_write_wave(["SELECT * FROM Accounts"])

    def test_run_write_wave_applies_and_reports(self, source):
        with QueryService(source, max_in_flight=4) as service:
            results = service.run_write_wave(
                [
                    "INSERT INTO Accounts (aid, owner, score, balance) "
                    "VALUES (900, 'S', 1, 3)",
                    "UPDATE Accounts SET balance = 4 WHERE aid = 900",
                ]
            )
            assert results[1] == 1
            # the wave is two transactions committed as one group
            assert service.report()["txn"]["committed"] == 2
        rows = dict((a, b) for a, _o, b in rows_of(source))
        assert rows[900] == 4

    def test_transactional_service_routes_session_writes(self, source):
        with QueryService(source, max_in_flight=4, transactional=True) as service:
            session = service.open_session("t")
            session.execute(
                "INSERT INTO Accounts (aid, owner, score, balance) VALUES (901, 'T', 1, 5)"
            )
            assert session.execute(
                "UPDATE Accounts SET balance = balance + 5 WHERE aid = 901"
            ) == 1
            rows = session.execute("SELECT * FROM Accounts WHERE aid = 901")
            assert rows[0]["balance"] == 10
            report = service.report()
            assert report["txn"]["logged"] == 2
            service.close_session(session)


class TestIdsAreUniquePerDeployment:
    """Regression (found by the row-cache coherence state machine, PR 23):
    transaction ids were per *log*, but providers remember every id they
    applied — so a second manager over the same deployment (a fresh WAL
    starts again at 1) had its writes skipped as replays, silently."""

    INSERT = "INSERT INTO Accounts (aid, owner, score, balance) VALUES ({}, 'T', 1, 5)"

    def test_second_manager_does_not_recycle_ids(self, source, tmp_path):
        first = TransactionManager(source, str(tmp_path / "first.wal"))
        first.execute(self.INSERT.format(901))
        first.close()
        second = TransactionManager(source, str(tmp_path / "second.wal"))
        second.execute(self.INSERT.format(902))
        second.close()
        assert source.sql("SELECT COUNT(*) FROM Accounts WHERE aid >= 901") == 2
        assert source.txn_id_high == 2

    def test_interleaved_managers_share_one_id_space(self, source, tmp_path):
        a = TransactionManager(source, str(tmp_path / "a.wal"))
        b = TransactionManager(source, str(tmp_path / "b.wal"))
        for aid, manager in enumerate((a, b, b, a), start=901):
            manager.execute(self.INSERT.format(aid))
        a.close()
        b.close()
        assert source.sql("SELECT COUNT(*) FROM Accounts WHERE aid >= 901") == 4

    def test_two_transactional_services_in_a_row(self, source):
        for aid in (901, 902):
            with QueryService(source, transactional=True) as service:
                assert service.execute(self.INSERT.format(aid)) == 1
        assert source.sql("SELECT COUNT(*) FROM Accounts WHERE aid >= 901") == 2

    def test_high_water_survives_save_and_load(self, source, tmp_path):
        from repro.persistence import load_deployment, save_deployment

        manager = TransactionManager(source, str(tmp_path / "first.wal"))
        manager.execute(self.INSERT.format(901))
        manager.close()
        save_deployment(source, str(tmp_path / "deployment"))
        restored = load_deployment(str(tmp_path / "deployment"))
        assert restored.txn_id_high == 1
        again = TransactionManager(restored, str(tmp_path / "second.wal"))
        again.execute(self.INSERT.format(902))
        again.close()
        assert restored.sql("SELECT COUNT(*) FROM Accounts WHERE aid >= 901") == 2

    def test_sharded_high_water_survives_save_and_load(self, tmp_path):
        """A sharded manager allocates above group 0's high-water, which
        group 0's client snapshot carries through a sharded save."""
        from repro.persistence import (
            load_sharded_deployment,
            save_sharded_deployment,
        )
        from repro.service import ShardRouter
        from repro.txn import ShardedTransactionManager

        router = ShardRouter.build(
            n_groups=2, providers_per_group=4, threshold=2, seed=7
        )
        router.create_table(accounts_schema())
        router.insert_many(
            "Accounts",
            [
                {"aid": i, "owner": "A", "score": i, "balance": 1000 + i}
                for i in range(20)
            ],
        )
        update = "UPDATE Accounts SET balance = {} WHERE aid = {}"
        first = ShardedTransactionManager(router, str(tmp_path / "first.wal"))
        for aid in range(6):
            first.execute(update.format(1, aid))
        first.close()
        save_sharded_deployment(router, str(tmp_path / "deployment"))
        restored = load_sharded_deployment(str(tmp_path / "deployment"))
        assert restored.groups[0].source.txn_id_high == 6
        again = ShardedTransactionManager(restored, str(tmp_path / "second.wal"))
        for aid in range(8):
            again.execute(update.format(100 + aid, aid))
        again.close()
        balances = {
            row["aid"]: row["balance"]
            for row in restored.sql(
                "SELECT aid, balance FROM Accounts WHERE aid < 8"
            )
        }
        assert balances == {aid: 100 + aid for aid in range(8)}
