"""QueryService end-to-end: overload, oracle equivalence, lifecycle."""

import threading

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.errors import ServiceError, ServiceOverloadedError
from repro.service import QueryService
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.workloads.employees import EID_HI, employees_table


def build_service(rows=40, seed=13, **kwargs):
    source = DataSource(ProviderCluster(4, 2), seed=seed)
    source.outsource_table(employees_table(rows, seed=seed))
    kwargs.setdefault("max_in_flight", 8)
    kwargs.setdefault("queue_limit", 8)
    return QueryService(source, **kwargs)


class TestOverload:
    def test_m_in_flight_q_queued_next_rejected(self):
        """The acceptance-criteria shape at the *service* level: M slow
        queries in flight, Q queued, the (M+Q+1)-th raises."""
        M, Q = 2, 1
        service = build_service(max_in_flight=M, queue_limit=Q)
        release = threading.Event()
        running = threading.Semaphore(0)
        inner_execute = service.source.execute

        def slow_execute(statement):
            running.release()
            assert release.wait(timeout=5.0)
            return inner_execute(statement)

        service.source.execute = slow_execute
        text = "SELECT eid FROM Employees"
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda: outcomes.append(service.execute(text))
            )
            for _ in range(M + Q)
        ]
        for t in threads:
            t.start()
        for _ in range(M):
            assert running.acquire(timeout=5.0)  # M genuinely executing
        for _ in range(200):
            if service.admission.queued == Q:
                break
            threading.Event().wait(0.005)
        assert service.admission.queued == Q
        rejected_before = service.admission.rejected_total
        with pytest.raises(ServiceOverloadedError):
            service.execute(text)
        assert service.admission.rejected_total == rejected_before + 1
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert len(outcomes) == M + Q
        service.source.execute = inner_execute
        service.close()

    def test_session_records_rejection(self):
        service = build_service(max_in_flight=1, queue_limit=0)
        blocker = threading.Event()
        started = threading.Event()
        inner_execute = service.source.execute

        def slow_execute(statement):
            started.set()
            assert blocker.wait(timeout=5.0)
            return inner_execute(statement)

        service.source.execute = slow_execute
        session = service.open_session("impatient")
        thread = threading.Thread(
            target=service.execute, args=("SELECT eid FROM Employees",)
        )
        thread.start()
        assert started.wait(timeout=5.0)
        with pytest.raises(ServiceOverloadedError):
            session.execute("SELECT eid FROM Employees")
        assert session.stats.rejected == 1
        assert session.stats.errors == 1
        blocker.set()
        thread.join(timeout=5.0)
        service.source.execute = inner_execute
        service.close()


class TestOracleEquivalence:
    def test_concurrent_mixed_sessions_equal_sequential_plaintext(self):
        """Concurrent sessions doing reads+writes over *disjoint* eid
        ranges must leave the database in exactly the state a sequential
        plaintext run produces."""
        rows = 36
        table = employees_table(rows, seed=21)
        service = build_service(rows=rows, seed=21)
        catalog = Catalog()
        catalog.add_table(Table(table.schema, table.rows()))
        oracle = PlaintextExecutor(catalog)

        eids = sorted(r["eid"] for r in table.rows())
        n_sessions = 4
        chunks = [eids[i::n_sessions] for i in range(n_sessions)]

        def statements_for(index):
            out = []
            for position, eid in enumerate(chunks[index][:5]):
                out.append(
                    f"UPDATE Employees SET salary = "
                    f"{1000 * (index + 1) + position} WHERE eid = {eid}"
                )
                out.append(f"SELECT salary FROM Employees WHERE eid = {eid}")
            out.append(
                "INSERT INTO Employees "
                "(eid, name, lastname, department, salary) "
                f"VALUES ({EID_HI - index}, 'S{chr(65 + index)}', 'NEW', 'ENG', "
                f"{90_000 + index})"
            )
            return out

        workloads = [statements_for(i) for i in range(n_sessions)]
        for statements in workloads:  # the sequential plaintext oracle
            for text in statements:
                oracle.execute(parse_sql(text))

        errors = []

        def run_session(index):
            session = service.open_session(f"client-{index}")
            try:
                for text in workloads[index]:
                    session.execute(text)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=run_session, args=(i,))
            for i in range(n_sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        probe = "SELECT eid, name, salary FROM Employees ORDER BY eid"
        assert service.source.sql(probe) == oracle.execute(parse_sql(probe))
        service.close()


class TestWave:
    def test_wave_rejects_writes(self):
        service = build_service()
        with pytest.raises(ServiceError, match="read-only"):
            service.run_wave(
                ["DELETE FROM Employees WHERE eid = 1"]
            )
        service.close()

    def test_wave_larger_than_capacity_rejected(self):
        service = build_service(max_in_flight=2)
        with pytest.raises(ServiceError, match="max_in_flight"):
            service.run_wave(["SELECT eid FROM Employees"] * 3)
        service.close()

    def test_empty_wave(self):
        service = build_service()
        assert service.run_wave([]) == []
        service.close()


class TestLifecycle:
    def test_close_restores_source(self):
        source = DataSource(ProviderCluster(4, 2), seed=13)
        source.outsource_table(employees_table(20, seed=13))
        cluster = source.cluster
        with QueryService(source) as service:
            assert source.cluster is cluster
            assert cluster.batcher is service.batcher  # batching installed
        assert cluster.batcher is None
        # the detached source still works
        assert source.sql("SELECT COUNT(*) FROM Employees") == 20

    def test_closed_service_rejects_everything(self):
        service = build_service()
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.execute("SELECT eid FROM Employees")
        with pytest.raises(ServiceError, match="closed"):
            service.open_session()

    def test_report_shape(self):
        service = build_service()
        session = service.open_session("r")
        session.execute("SELECT eid FROM Employees")
        report = service.report()
        assert report["service"]["completed"] == 1
        assert report["admission"]["admitted_total"] == 1
        assert "rounds_total" in report["batcher"]
        assert report["sessions"][0]["client_id"] == "r"
        service.close()

    def test_removed_options_are_type_errors(self):
        source = DataSource(ProviderCluster(4, 2), seed=13)
        for removed in ({"batching": False}, {"degrade_at": 0.4},
                        {"restore_at": 0.1}):
            with pytest.raises(TypeError):
                QueryService(source, **removed)


class TestDegradationLadder:
    """The live ladder: QueryService.execute steps verified reads down to
    plain quorum reads from its own admission queue's pressure."""

    M, Q = 2, 10
    READ = "SELECT eid, salary FROM Employees WHERE salary >= 60000"

    def build(self):
        table = employees_table(40, seed=13)
        source = DataSource(ProviderCluster(4, 2), seed=13, verified_reads=True)
        source.outsource_table(table)
        service = QueryService(source, max_in_flight=self.M, queue_limit=self.Q)
        catalog = Catalog()
        catalog.add_table(table)
        expected = PlaintextExecutor(catalog).execute(parse_sql(self.READ))
        return service, source, expected

    def saturate(self, service, queued):
        """Hold every slot and park ``queued`` batch-class waiters."""
        for _ in range(self.M):
            assert service.admission.offer().granted
        for _ in range(queued):
            assert not service.admission.offer("batch").granted
        assert service.admission.pressure() == queued / self.Q

    def probe(self, service):
        """One arrival that moves the ladder and is turned away."""
        with pytest.raises(ServiceOverloadedError):
            service.execute(self.READ, timeout=0)

    def test_pressure_degrades_serves_counts_and_restores(self):
        service, source, expected = self.build()
        modes = []
        inner_execute = source.execute

        def recording_execute(statement):
            modes.append(source.verified_reads)
            return inner_execute(statement)

        source.execute = recording_execute
        self.saturate(service, queued=5)  # occupancy 0.5
        assert not service.degraded and source.verified_reads

        def free_one_slot_once_the_read_waits():
            for _ in range(1000):
                if service.admission.queued == 6:
                    break
                threading.Event().wait(0.002)
            service.admission.release()

        helper = threading.Thread(target=free_one_slot_once_the_read_waits)
        with telemetry.session() as hub:
            helper.start()
            # interactive: queued behind nobody, so the freed slot is its
            rows = service.execute(self.READ, timeout=5.0)
            helper.join(timeout=5.0)
            assert not helper.is_alive()
            counters = hub.registry
            assert counters.counter_total("service.degrade_enter") == 1
            assert counters.counter_value(
                "slo.degraded", priority="interactive"
            ) == 1
        assert service.degraded
        assert modes == [False]  # served as a plain quorum read
        assert sorted(rows, key=lambda r: r["eid"]) == sorted(
            expected, key=lambda r: r["eid"]
        )
        assert service.stats.degraded_served == 1
        assert service.report()["degraded"] is True

        # hysteresis: draining to 0.3 occupancy does not restore ...
        assert service.admission.queued == 4  # the read's slot moved on
        service.admission.release()
        assert service.admission.pressure() == 0.3
        self.probe(service)
        assert service.degraded and not source.verified_reads
        # ... 0.2 does
        service.admission.release()
        assert service.admission.pressure() == 0.2
        self.probe(service)
        assert not service.degraded and source.verified_reads
        service.close()

    def test_close_restores_the_read_mode_mid_degradation(self):
        service, source, _ = self.build()
        self.saturate(service, queued=6)
        self.probe(service)
        assert service.degraded and not source.verified_reads
        service.close()
        assert source.verified_reads

    def test_plain_source_never_degrades(self):
        service = build_service(max_in_flight=self.M, queue_limit=self.Q)
        self.saturate(service, queued=6)
        self.probe(service)
        assert not service.degraded
        assert not service.source.verified_reads
        service.close()
