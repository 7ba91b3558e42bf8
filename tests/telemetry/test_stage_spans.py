"""The stage spans still wrap the stages that run.

One statement of each class runs under a telemetry session.  Every stage
it is listed with below must show up in its trace with non-zero wall
time — a refactor that stops calling a spanned function, or moves the
work out from under its span, fails here — and no span's children may
take more time than the span itself, on either clock.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import DataSource, ProviderCluster, telemetry
from repro.txn import TransactionManager
from repro.workloads.employees import employees_table, managers_table

SHARE = {"scheme.share_encoded", "kernels.evaluate_columns", "codec.encode_rows"}
READ = {"provider.handle", "kernels.batch_reconstruct_integer", "codec.decode_many"}

#: class -> (statement, the listed stages it runs)
STATEMENTS = {
    "point": ("SELECT * FROM Managers WHERE eid = {manager}", READ | {"kernels.batch_reconstruct"}),
    "range": ("SELECT name, salary FROM Employees WHERE salary BETWEEN 20000 AND 70000", READ),
    "aggregate": ("SELECT SUM(salary) FROM Employees WHERE salary >= 30000", {"provider.handle"}),
    "group": (
        "SELECT department, COUNT(*) FROM Employees GROUP BY department", {"provider.handle"}
    ),
    "topk": ("SELECT name, salary FROM Employees ORDER BY salary DESC LIMIT 3", READ),
    "join": (
        "SELECT Employees.name, Managers.password FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid",
        READ | {"kernels.batch_reconstruct"},
    ),
    "insert": (
        "INSERT INTO Employees (eid, name, lastname, salary, department) "
        "VALUES (99999, 'ZED', 'ZOO', 50000, 'SALES')",
        SHARE | {"provider.handle", "storage.insert_many"},
    ),
    "update": (
        "UPDATE Employees SET salary = 51000 WHERE eid = {employee}",
        READ | SHARE | {"storage.update_rows"},
    ),
    "delete": ("DELETE FROM Employees WHERE eid = {employee}", {"provider.handle", "storage.delete_rows"}),
    "txn": (
        "UPDATE Employees SET salary = 12345 WHERE eid = {other}",
        READ | SHARE | {"storage.update_rows"},
    ),
}

#: every stage the list above names: each has a span in ``src/repro``
LISTED = set().union(*(stages for _, stages in STATEMENTS.values()))


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    cluster = ProviderCluster(5, 3)
    source = DataSource(cluster, seed=7)
    employees = employees_table(40, seed=7)
    source.outsource_table(employees)
    source.outsource_table(managers_table(employees, 0.3, seed=7))
    ids = {
        "employee": employees.rows()[5]["eid"],
        "other": employees.rows()[6]["eid"],
        "manager": source.sql("SELECT eid FROM Managers LIMIT 1")[0]["eid"],
    }
    manager = TransactionManager(source, str(tmp_path_factory.mktemp("wal") / "client.wal"))
    network = cluster.network
    out = {}
    try:
        for kind, (sql, _) in STATEMENTS.items():
            run = manager.execute if kind == "txn" else source.sql
            with telemetry.session(clock=lambda: network.modelled_seconds) as hub:
                run(sql.format(**ids))
            (out[kind],) = hub.tracer.traces
    finally:
        manager.close()
    return out


def test_the_listed_stages_are_the_spanned_ones():
    """Every ``telemetry.spanned`` stage under ``src/repro`` is listed
    with a statement that runs it, and nothing else is."""
    root = Path(repro.__file__).parent
    spanned = {
        name
        for path in root.rglob("*.py")
        for name in re.findall(r'telemetry\.spanned\("([^"]+)"\)', path.read_text("utf-8"))
    }
    assert spanned == LISTED


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_every_listed_stage_a_statement_runs_shows_wall_time(traces, kind):
    stages = telemetry.stage_times(traces[kind])
    expected = STATEMENTS[kind][1]
    missing = expected - set(stages)
    assert not missing, f"{kind} ran no span of {sorted(missing)}"
    for name in expected:
        spans = traces[kind].find(name)
        assert all(span.wall_duration > 0 for span in spans), name


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_children_never_take_longer_than_their_parent(traces, kind):
    for span in traces[kind].walk():
        assert span.wall_end is not None and span.wall_start <= span.wall_end
        children = span.children
        assert sum(child.wall_duration for child in children) <= span.wall_duration + 1e-9
        assert sum(child.duration for child in children) <= span.duration + 1e-12
        for child in children:
            assert span.wall_start <= child.wall_start <= child.wall_end <= span.wall_end


def test_wall_readings_stay_out_of_the_export(traces):
    exported = traces["range"].to_dict()
    assert "wall_start" not in exported and "wall_duration" not in exported
