"""The simulation runner: oracle, shedding order, degradation, both loops."""

import threading

import pytest

from repro import telemetry
from repro.client.datasource import DataSource
from repro.errors import ConfigurationError, ReproError
from repro.providers.cluster import ProviderCluster
from repro.service import (
    PlaintextMirror,
    estimate_capacity,
    overload,
    run_closed_loop,
    run_open_loop,
)
from repro.workloads.employees import employees_schema, employees_table
from repro.workloads.traffic import (
    TrafficEvent,
    TrafficProfile,
    generate_traffic,
)

SEED = 2009


def build_source(rows=40, providers=4, threshold=2):
    table = employees_table(rows, seed=SEED)
    source = DataSource(
        ProviderCluster(providers, threshold), seed=SEED, verified_reads=True
    )
    source.outsource_table(table)
    eids = sorted(row["eid"] for row in table.rows())
    return source, eids


def flood_events(source, eids, load, queries=200, max_in_flight=4):
    """Traffic calibrated to ``load`` x the deployment's capacity."""
    capacity = estimate_capacity(
        source, eids, max_in_flight=max_in_flight, seed=SEED + 1
    )
    source.cluster.network.reset()
    profile = TrafficProfile(
        mean_interarrival=1.0 / (capacity["capacity_qps"] * load)
    )
    return generate_traffic(eids, queries, seed=SEED, profile=profile)


class TestMirror:
    """The mirror is a PlaintextExecutor over the full table, driven by
    each event's own SQL in execution order."""

    def mirror(self):
        return PlaintextMirror(
            employees_schema(),
            [
                {"eid": 1, "name": "A", "lastname": "X", "department": "HR",
                 "salary": 50_000},
                {"eid": 2, "name": "B", "lastname": "Y", "department": "OPS",
                 "salary": 60_000},
            ],
        )

    def event(self, sql, kind="point"):
        return TrafficEvent(
            arrival=0.0, session_id="s", sql=sql, kind=kind, priority=0,
        )

    def point(self, eid):
        return self.event(f"SELECT name, salary FROM Employees WHERE eid = {eid}")

    def test_point_hit_and_miss(self):
        mirror = self.mirror()
        assert mirror.check_and_apply(
            self.point(1), [{"name": "A", "salary": 50_000}]
        )
        assert mirror.check_and_apply(self.point(99), [])
        assert not mirror.check_and_apply(
            self.point(1), [{"name": "A", "salary": 1}]
        )

    def test_range_compares_eids(self):
        mirror = self.mirror()
        event = self.event(
            "SELECT eid FROM Employees WHERE salary BETWEEN 45000 AND 65000",
            kind="range",
        )
        assert mirror.check_and_apply(event, [{"eid": 2}, {"eid": 1}])
        assert not mirror.check_and_apply(event, [{"eid": 1}])
        assert not mirror.check_and_apply(event, "not a list")

    def test_aggregate_counts(self):
        mirror = self.mirror()
        event = self.event(
            "SELECT COUNT(*) FROM Employees WHERE salary BETWEEN 40000 AND 70000",
            kind="aggregate",
        )
        assert mirror.check_and_apply(event, 2)
        assert not mirror.check_and_apply(event, 3)

    def test_update_applies_at_check_time(self):
        mirror = self.mirror()
        update = "UPDATE Employees SET salary = {} WHERE eid = {}"
        assert mirror.check_and_apply(
            self.event(update.format(99_000, 1), kind="update"), 1
        )
        # the write landed: later reads expect the new salary
        assert mirror.check_and_apply(
            self.point(1), [{"name": "A", "salary": 99_000}]
        )
        assert mirror.check_and_apply(
            self.event(update.format(1, 99), kind="update"), 0
        )

    def test_insert_applies(self):
        mirror = self.mirror()
        event = self.event(
            "INSERT INTO Employees (eid, name, lastname, department, salary) "
            "VALUES (3, 'C', 'FLOOD', 'OPS', 70000)",
            kind="insert",
        )
        assert mirror.check_and_apply(event, 1)
        assert mirror.check_and_apply(
            self.point(3), [{"name": "C", "salary": 70_000}]
        )

    def test_unknown_kind_rejected(self):
        # the kind tag is not consulted; SQL the oracle cannot run is a
        # typed error, never a silent "correct"
        with pytest.raises(ReproError):
            self.mirror().check_and_apply(
                self.event("VACUUM Employees", kind="mystery"), None
            )

    def test_generated_traffic_checks_against_its_own_sql(self):
        source, eids = build_source(rows=12, providers=3, threshold=2)
        mirror = PlaintextMirror(
            source.sharing("Employees").schema,
            source.sql("SELECT * FROM Employees"),
        )
        for event in generate_traffic(eids, 60, seed=SEED):
            assert mirror.check_and_apply(event, source.sql(event.sql)), event


class TestCapacity:
    def test_capacity_positive_and_deterministic(self):
        source, eids = build_source()
        first = estimate_capacity(source, eids, max_in_flight=4)
        assert first["capacity_qps"] > 0
        assert first["mean_service_seconds"] > 0
        source2, eids2 = build_source()
        assert estimate_capacity(source2, eids2, max_in_flight=4) == first


class TestRunOpenLoop:
    def test_validation(self):
        source, _ = build_source(rows=10, providers=3, threshold=2)
        with pytest.raises(ConfigurationError):
            run_open_loop(source, [], max_in_flight=0)
        with pytest.raises(ConfigurationError):
            run_closed_loop(source, [], clients=0)
        # the ladder's thresholds are the service's constants, not knobs
        with pytest.raises(TypeError):
            run_open_loop(source, [], degrade_at=0.3, restore_at=0.5)

    def test_light_load_all_complete_zero_incorrect(self):
        source, eids = build_source()
        events = flood_events(source, eids, load=0.2, queries=120)
        report = run_open_loop(source, events, max_in_flight=4,
                               queue_limit=16)
        assert report["completed"] == 120
        assert report["shed"] == 0
        assert report["failed"] == 0
        assert report["incorrect"] == 0

    def test_overload_sheds_by_priority_and_degrades(self):
        source, eids = build_source()
        events = flood_events(source, eids, load=4.0, queries=240)
        with telemetry.session(
            clock=lambda: source.cluster.network.modelled_seconds
        ):
            report = run_open_loop(
                source, events, max_in_flight=4, queue_limit=16
            )
        assert report["incorrect"] == 0
        assert report["shed"] > 0
        assert report["degraded_served"] > 0
        assert report["degrade_spans"] >= 1
        rates = {
            name: stats["completion_rate"]
            for name, stats in report["slo"]["by_priority"].items()
            if stats["offered"]
        }
        assert rates["interactive"] >= rates["background"]
        # SLO rollup agrees with the runner's own counts
        assert report["slo"]["offered"] == report["offered"]

    def test_verified_reads_restored_after_run(self):
        source, eids = build_source()
        events = flood_events(source, eids, load=4.0, queries=150)
        assert source.verified_reads
        run_open_loop(source, events, max_in_flight=2, queue_limit=8)
        assert source.verified_reads  # ladder toggles are transient

    def test_deterministic_reports(self):
        reports, closed = [], []
        for _ in range(2):
            source, eids = build_source()
            events = flood_events(source, eids, load=4.0, queries=150)
            reports.append(
                run_open_loop(source, events, max_in_flight=4,
                              queue_limit=16)
            )
            source, eids = build_source()
            closed.append(
                run_closed_loop(
                    source, generate_traffic(eids, 150, seed=SEED),
                    clients=12, max_in_flight=4, queue_limit=8,
                )
            )
        assert reports[0] == reports[1]
        assert closed[0] == closed[1]
        assert closed[0]["shed"] > 0  # a run that exercised the queue


class TestRunClosedLoop:
    """Closed loop is an arrival discipline of the same event loop."""

    def test_every_statement_completes_when_clients_fit(self):
        source, eids = build_source()
        events = generate_traffic(eids, 6 * 10, seed=SEED)
        with telemetry.session(
            clock=lambda: source.cluster.network.modelled_seconds
        ):
            report = run_closed_loop(
                source, events, clients=6, max_in_flight=4, queue_limit=16
            )
        assert report["offered"] == report["completed"] == 60
        assert report["shed"] == report["failed"] == report["incorrect"] == 0
        # two clients always wait: the queue is used, never overrun
        assert report["admission"]["queued_peak"] == 2
        assert report["slo"]["offered"] == 60
        # a client's next statement arrives at its previous one's finish,
        # so the servers idle only in the tail, once clients run out
        assert report["utilization"] > 0.8

    def test_one_client_is_sequential(self):
        source, eids = build_source()
        events = generate_traffic(eids, 20, seed=SEED)
        report = run_closed_loop(source, events, clients=1, max_in_flight=4)
        assert report["completed"] == 20
        assert report["admission"]["queued_peak"] == 0
        # one statement at a time: the makespan is the summed service time
        assert report["makespan_seconds"] == pytest.approx(
            report["modelled_network_seconds"], rel=1e-3
        )

    def test_oversubscribed_clients_shed_and_degrade(self):
        source, eids = build_source()
        events = generate_traffic(eids, 40 * 5, seed=SEED)
        report = run_closed_loop(
            source, events, clients=40, max_in_flight=2, queue_limit=8
        )
        assert report["offered"] == 200  # a shed statement is dropped
        assert report["shed"] > 0
        assert report["completed"] + report["shed"] == 200
        assert report["degraded_served"] > 0
        assert report["incorrect"] == 0
        assert source.verified_reads

    def test_transactional_matches_the_mirror(self):
        source, eids = build_source()
        events = generate_traffic(eids, 4 * 12, seed=SEED)
        report = run_closed_loop(
            source, events, clients=4, max_in_flight=4, transactional=True
        )
        writes = sum(event.is_write for event in events)
        assert report["completed"] == 48
        assert report["incorrect"] == 0
        assert report["txn"]["logged"] == report["txn"]["committed"] == writes
        assert report["txn"]["pending"] == 0


class TestRunnerOwnsNoPolicy:
    """The runner drives the service's admission queue and ladder; it
    holds no queue, allowance, threshold or thread of its own."""

    def test_module_holds_no_policy_or_threads(self):
        names = set(vars(overload))
        assert not {"threading", "DEGRADE_AT", "RESTORE_AT"} & names
        source = open(overload.__file__).read()
        # allowance arithmetic and the pressure signal stay behind
        # offer() / release() and the ladder's update()
        for needle in ("queue_limit_for", "pressure()", "import threading"):
            assert needle not in source, needle

    def test_runs_start_no_threads(self):
        before = set(threading.enumerate())
        source, eids = build_source()
        events = generate_traffic(eids, 40, seed=SEED)
        run_closed_loop(source, events, clients=8, max_in_flight=2,
                        queue_limit=4)
        source, _ = build_source()
        run_open_loop(source, events, max_in_flight=2, queue_limit=4)
        assert set(threading.enumerate()) == before

    def test_shed_count_is_admissions(self):
        source, eids = build_source()
        events = flood_events(source, eids, load=4.0, queries=150)
        report = run_open_loop(source, events, max_in_flight=4,
                               queue_limit=16)
        assert report["shed"] == report["admission"]["rejected_total"] > 0
        assert report["completed"] == report["admission"]["admitted_total"]
