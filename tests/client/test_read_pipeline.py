"""Characterisation of every read/match entry point of ``DataSource``.

For every public entry point that fetches rows (or row ids, or whole
tables) x query shape x fault, the result equals the plaintext oracle and
the scenario's record — byte count, message count, modelled clock,
client/provider ``CostRecorder`` snapshots and, for ``select`` and joins,
``explain``'s strategy and quorum — equals its record in
``read_pipeline_golden.json``, one current record per scenario.

Each scenario runs once per session (``tests.pipeline_runs``), and the
tests that watch it read that run: the main test, the transactional
writes' one ``txn_apply`` round, a provider-side join's two row lists and
what a projection takes off the wire, and the column-major formula
(``tests.column_major``).  The projection test in ``RERUNS``
re-runs a scenario with whole rows fetched and finds its record plus
exactly the bytes the formula names.

A change that moves these numbers on purpose re-bases the file in place
and puts the printed list of moved fields in ``CHANGES.md``
(``tests/golden.py``)::

    PYTHONPATH=src python -m tests.client.test_read_pipeline
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Dict, Optional

import pytest

from repro import DataSource, ProviderCluster
from repro.client import datasource
from repro.client.repair import repair_provider
from repro.client.updates import LazyUpdateBuffer
from repro.providers.failures import Fault, FailureMode
from repro.sim.network import ShareRows, measure_bytes
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.trust.auditing import AuditRegistry
from repro.txn import TransactionManager
from repro.workloads.ecommerce import clicklog_table
from repro.workloads.employees import employees_table, managers_table
from tests import golden, pipeline_runs
from tests.column_major import assert_saves_the_formula

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "read_pipeline_golden.json")
SEED = 11

ROW_SHAPES = {
    "projection": "SELECT name, salary FROM Employees WHERE salary BETWEEN 40000 AND 70000",
    "star_point": "SELECT * FROM Employees WHERE eid = {eid}",
    "pushed_order_limit": "SELECT name, salary FROM Employees ORDER BY salary DESC LIMIT 3",
    "client_order": "SELECT eid, password FROM Managers ORDER BY password LIMIT 4",
    "residual": "SELECT name FROM Employees WHERE name <> 'JOHN' AND salary > 40000",
    "residual_order_limit": (
        "SELECT name, salary FROM Employees WHERE name <> 'JOHN' AND salary > 40000 "
        "ORDER BY salary LIMIT 4"
    ),
    "provably_empty": "SELECT * FROM Employees WHERE salary > 10 AND salary < 5",
}

AGG_SHAPES = {
    "count": "SELECT COUNT(*) FROM Employees WHERE salary >= 40000",
    "sum": "SELECT SUM(salary) FROM Employees WHERE salary <= 70000",
    "avg": "SELECT AVG(salary) FROM Employees",
    "min": "SELECT MIN(salary) FROM Employees WHERE salary >= 40000",
    "max": "SELECT MAX(salary) FROM Employees",
    "median": "SELECT MEDIAN(salary) FROM Employees",
    "sum_residual": "SELECT SUM(amount_cents) FROM Events WHERE amount_cents > 5",
    "min_unsearchable": "SELECT MIN(amount_cents) FROM Events",
    "count_empty": "SELECT COUNT(*) FROM Employees WHERE salary > 10 AND salary < 5",
    "sum_empty": "SELECT SUM(salary) FROM Employees WHERE salary > 10 AND salary < 5",
    "group_pushed": "SELECT department, COUNT(*) FROM Employees GROUP BY department",
    "group_pushed_avg": "SELECT department, AVG(salary) FROM Employees WHERE salary >= 20000 GROUP BY department",
    "group_pushed_max": "SELECT department, MAX(salary) FROM Employees GROUP BY department",
    "group_unpushed": "SELECT department, SUM(salary) FROM Employees WHERE name <> 'JOHN' GROUP BY department",
    "group_unsearchable": "SELECT action, MIN(amount_cents) FROM Events GROUP BY action",
    "group_empty": "SELECT department, COUNT(*) FROM Employees WHERE salary > 10 AND salary < 5 GROUP BY department",
}

JOIN_SHAPES = {
    "plain": "SELECT * FROM Employees JOIN Managers ON Employees.eid = Managers.eid",
    "filtered": (
        "SELECT Employees.name, Managers.manager_username FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid WHERE Employees.salary >= 40000 "
        "AND Managers.manager_id >= 1"
    ),
    "empty": (
        "SELECT * FROM Employees JOIN Managers ON Employees.eid = Managers.eid "
        "WHERE Employees.salary > 10 AND Employees.salary < 5"
    ),
}
CLIENT_JOIN = "SELECT * FROM Employees JOIN Managers ON Employees.eid = Managers.manager_id"

FAULTS = {
    "none": None,
    "crash": (0, lambda: Fault(FailureMode.CRASH)),
    "tamper": (1, lambda: Fault(FailureMode.TAMPER, seed=5)),
}


class Deployment:
    """A seeded n=5/k=3 deployment beside its plaintext oracle."""

    def __init__(self, fault: str = "none", **source_kwargs) -> None:
        self.cluster = ProviderCluster(5, 3)
        if source_kwargs.pop("audited", False):
            source_kwargs["audit"] = AuditRegistry(5)
        self.source = DataSource(self.cluster, seed=SEED, **source_kwargs)
        self.sources, self.router = [self.source], None
        employees = employees_table(30, seed=SEED)
        tables = [
            employees,
            managers_table(employees, 0.3, seed=SEED),
            clicklog_table(24, seed=SEED),
        ]
        catalog = Catalog()
        for table in tables:
            self.source.outsource_table(table)
            catalog.add_table(Table(table.schema, table.rows()))
        self.oracle = PlaintextExecutor(catalog)
        self.some_eid = employees.rows()[7]["eid"]
        self.inject(fault)
        self.source.reset_accounting()

    def inject(self, fault: str) -> None:
        if FAULTS[fault] is not None:
            index, make = FAULTS[fault]
            self.cluster.inject_fault(index, make())

    def parse(self, sql: str):
        return parse_sql(sql.format(eid=self.some_eid))

    def accounting(self) -> Dict[str, object]:
        network = self.cluster.network
        return {
            "bytes": network.total_bytes,
            "messages": network.total_messages,
            "modelled_seconds": network.modelled_seconds,
            "client": self.source.cost.snapshot(),
            "providers": self.cluster.total_provider_cost().snapshot(),
        }

    def table_matches_oracle(self, table: str) -> bool:
        query = parse_sql(f"SELECT * FROM {table}")
        return rows_equal_unordered(
            self.source.select(query), self.oracle.execute(query)
        )


def _same(query, actual, expected) -> bool:
    if not isinstance(expected, list):
        return actual == expected
    if getattr(query, "order_by", None) is not None:
        return actual == expected
    return rows_equal_unordered(actual, expected)


# --------------------------------------------------------------- scenarios --

#: id -> (Deployment kwargs, runner).  A runner returns ``(ok, extras)``:
#: whether the result matched the oracle, plus anything else worth pinning.
SCENARIOS: Dict[str, tuple] = {}


def scenario(name: str, fault: str = "none", **kwargs):
    def register(run: Callable[[Deployment], tuple]):
        SCENARIOS[f"{name}/{fault}"] = (dict(kwargs, fault=fault), run)
        return run

    return register


def _add_select(entry: str, shape: str, sql: str, fault: str, **kwargs) -> None:
    method = {
        "select": "select",
        "select_checked": "select",
        "select_with_ids": "select_with_ids",
        "select_verified": "select_verified",
    }[entry]

    @scenario(f"{entry}/{shape}", fault, **kwargs)
    def run(dep: Deployment, sql=sql, method=method):
        query = dep.parse(sql)
        extras = {}
        if method == "select":
            plan = dep.source.explain(query)
            extras = {"explain": [plan["strategy"], plan["read_quorum"]]}
        actual = getattr(dep.source, method)(query)
        if method == "select_with_ids":
            actual = [row for _, row in actual]
        return _same(query, actual, dep.oracle.execute(query)), extras


for _shape, _sql in ROW_SHAPES.items():
    for _fault in ("none", "crash"):
        _add_select("select", _shape, _sql, _fault)
        _add_select("select_with_ids", _shape, _sql, _fault)
        _add_select("select_verified", _shape, _sql, _fault, audited=True)
    for _fault in ("none", "crash", "tamper"):
        _add_select("select_checked", _shape, _sql, _fault, verified_reads=True)
for _shape, _sql in AGG_SHAPES.items():
    for _fault in ("none", "crash"):
        _add_select("select", _shape, _sql, _fault)
    for _fault in ("none", "crash", "tamper"):
        _add_select("select_checked", _shape, _sql, _fault, verified_reads=True)
_add_select(
    "select_checked", "projection_r1", ROW_SHAPES["projection"], "tamper",
    verified_reads=True, read_redundancy=1,
)


def _add_asof(shape: str, sql: str, fault: str) -> None:
    @scenario(f"select_asof/{shape}", fault)
    def run(dep: Deployment, sql=sql, fault=fault):
        # history: the oracle keeps the pre-update state, the deployment moves on
        query = dep.parse(sql)
        epoch = dep.source.table_epoch(query.table)
        key = {"Employees": "salary", "Managers": "manager_id", "Events": "product"}[query.table]
        dep.source.delete(parse_sql(f"DELETE FROM {query.table} WHERE {key} >= 5000"))
        dep.source.reset_accounting()
        actual = dep.source.select_asof(query, epoch)
        return _same(query, actual, dep.oracle.execute(query)), {}


for _shape in ("projection", "pushed_order_limit", "client_order", "residual", "provably_empty"):
    for _fault in ("none", "crash"):
        _add_asof(_shape, ROW_SHAPES[_shape], _fault)
for _shape in ("sum", "median", "group_pushed", "group_unpushed"):
    _add_asof(_shape, AGG_SHAPES[_shape], "none")


def _add_join(entry: str, shape: str, sql: str, fault: str, **kwargs) -> None:
    @scenario(f"{entry}/{shape}", fault, **kwargs)
    def run(dep: Deployment, sql=sql):
        query = dep.parse(sql)
        plan = dep.source.explain(query)
        actual = dep.source.join(query)
        ok = rows_equal_unordered(actual, dep.oracle.execute(query))
        return ok, {"explain": [plan["strategy"], plan["read_quorum"]]}


for _shape, _sql in JOIN_SHAPES.items():
    for _fault in ("none", "crash"):
        _add_join("join", _shape, _sql, _fault)
    for _fault in ("none", "crash", "tamper"):
        _add_join("join_checked", _shape, _sql, _fault, verified_reads=True)
for _fault in ("none", "crash"):
    _add_join("join_client", "fallback", CLIENT_JOIN, _fault, client_join_fallback=True)
_add_join(
    "join_client_checked", "fallback", CLIENT_JOIN, "none",
    client_join_fallback=True, verified_reads=True,
)

WRITES = {
    "update": "UPDATE Employees SET salary = 1234 WHERE salary BETWEEN 40000 AND 60000",
    "update_residual": "UPDATE Employees SET department = 'OPS' WHERE name <> 'JOHN' AND salary > 50000",
    "update_empty": "UPDATE Employees SET salary = 1 WHERE salary > 10 AND salary < 5",
    "update_delta": "UPDATE Events SET amount_cents = amount_cents + 7 WHERE product >= 3",
    "delete": "DELETE FROM Employees WHERE salary < 45000",
    "delete_residual": "DELETE FROM Events WHERE amount_cents > 0 AND product >= 2",
}


def _add_write(entry: str, shape: str, sql: str, fault: str) -> None:
    @scenario(f"{entry}/{shape}", fault)
    def run(dep: Deployment, sql=sql, entry=entry):
        statement = parse_sql(sql)
        expected = dep.oracle.execute(statement)
        if entry == "direct":
            changed = dep.source.execute(statement)
        elif entry == "txn":
            manager = TransactionManager(dep.source, dep.wal_path)
            try:
                changed = manager.execute(statement)
            finally:
                manager.close()
        else:
            # two statements coalesced into one fetch + one write-back
            second = parse_sql("UPDATE Employees SET salary = 99 WHERE eid <= 500000")
            dep.oracle.execute(second)
            buffer = LazyUpdateBuffer(dep.source)
            buffer.enqueue(statement)
            buffer.enqueue(second)
            buffer.flush()
            changed = expected
        accounting = dep.accounting()
        ok = changed == expected and dep.table_matches_oracle(statement.table)
        return ok, {"accounting": accounting}


for _shape, _sql in WRITES.items():
    for _fault in ("none", "crash"):
        _add_write("direct", _shape, _sql, _fault)
        _add_write("txn", _shape, _sql, _fault)
for _fault in ("none", "crash"):
    _add_write("lazy", "update", WRITES["update"], _fault)
    _add_write("lazy", "update_residual", WRITES["update_residual"], _fault)


def _add_increment(shape: str, where, fault: str) -> None:
    @scenario(f"increment/{shape}", fault)
    def run(dep: Deployment, where=where):
        changed = dep.source.increment("Events", "amount_cents", 5, where)
        accounting = dep.accounting()
        table = dep.oracle.catalog.table("Events")
        expected = table.update_where(
            where.bind(table.schema),
            parse_sql("UPDATE Events SET amount_cents = amount_cents + 5").assignments,
        )
        ok = changed == expected and dep.table_matches_oracle("Events")
        return ok, {"accounting": accounting}


for _fault in ("none", "crash"):
    _add_increment("range", Comparison("product", ComparisonOp.GE, 3), _fault)
    _add_increment(
        "empty",
        parse_sql("SELECT * FROM Events WHERE product > 10 AND product < 5").where,
        _fault,
    )


def _add_maintenance(name: str, fault: str, run_body: Callable, **kwargs) -> None:
    @scenario(name, fault, **kwargs)
    def run(dep: Deployment):
        outcome = run_body(dep)
        accounting = dep.accounting()
        ok = all(
            dep.table_matches_oracle(table) for table in ("Employees", "Managers", "Events")
        )
        return ok, {"accounting": accounting, "outcome": outcome}


def _scan_share_rows(extra: int):
    def body(dep: Deployment):
        aligned = dep.source.scan_share_rows("Employees", extra=extra)
        return [len(aligned), sorted({len(v) for v in aligned.values()})]

    return body


def _scan_asof(dep: Deployment):
    epoch = dep.source.table_epoch("Employees")
    expected = dep.oracle.execute(parse_sql("SELECT * FROM Employees"))
    dep.source.delete(parse_sql("DELETE FROM Employees WHERE salary >= 50000"))
    dep.oracle.execute(parse_sql("DELETE FROM Employees WHERE salary >= 50000"))
    dep.source.reset_accounting()
    pairs = dep.source.scan_asof("Employees", epoch)
    assert [rid for rid, _ in pairs] == sorted(rid for rid, _ in pairs)
    return rows_equal_unordered([row for _, row in pairs], expected)


def _repair(dep: Deployment):
    # the crashed provider recovers stale, then is rebuilt from the others
    dep.source.delete(parse_sql("DELETE FROM Employees WHERE salary >= 50000"))
    dep.oracle.execute(parse_sql("DELETE FROM Employees WHERE salary >= 50000"))
    dep.cluster.clear_faults()
    dep.source.reset_accounting()
    return repair_provider(dep.source, 0)


for _fault in ("none", "crash"):
    _add_maintenance("resync_table", _fault, lambda dep: dep.source.resync_table("Employees"))
    _add_maintenance(
        "resync_table_audited", _fault,
        lambda dep: dep.source.resync_table("Employees"), audited=True,
    )
    _add_maintenance("scan_share_rows/k", _fault, _scan_share_rows(0))
    _add_maintenance("scan_share_rows/k+1", _fault, _scan_share_rows(1))
    _add_maintenance(
        "refresh_table_shares", _fault,
        lambda dep: dep.source.refresh_table_shares("Events"),
    )
    _add_maintenance("scan_asof", _fault, _scan_asof)
    _add_maintenance("rotate_secrets", _fault, lambda dep: dep.source.rotate_secrets(99))
_add_maintenance("repair_provider", "crash", _repair)


# ----------------------------------------------------------------- running --


def run_scenario(scenario_id: str, on_deployment: Optional[Callable] = None) -> Dict[str, object]:
    """The scenario's record; ``on_deployment`` is called with the
    deployment once it is set up, before the scenario runs."""
    kwargs, run = SCENARIOS[scenario_id]
    dep = Deployment(**kwargs)
    if on_deployment is not None:
        on_deployment(dep)
    with tempfile.TemporaryDirectory() as wal_dir:
        dep.wal_path = os.path.join(wal_dir, "client.wal")
        ok, extras = run(dep)
    record = dict(extras)
    if "accounting" not in record:
        record["accounting"] = dep.accounting()
    record["matches_oracle"] = ok
    return json.loads(json.dumps(record))


#: the tests that run a scenario again, and the feature each switches off
RERUNS = {
    "test_projection_moves_by_the_declared_formula": "projected reads",
}


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_entry_point_matches_oracle_and_parent_accounting(scenario_id):
    record = pipeline_runs.run(__name__, scenario_id).record
    assert record.get("matches_oracle") is True, record
    golden.assert_record(golden.load(GOLDEN_PATH), scenario_id, record)


def test_golden_covers_exactly_the_scenarios():
    golden.assert_flat(golden.load(GOLDEN_PATH), SCENARIOS)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_column_major_moves_by_the_declared_formula(scenario_id):
    """Share rows name their columns once: sized as the row-major list it
    stands for, a scenario would give its golden record with exactly the
    surplus (n − 1)(8 + 2C + L) + 4 of each ``ShareRows`` it sent added to
    its bytes and slower modelled clocks, and nothing else moved —
    read off its one run, not re-run (``tests.column_major``)."""
    assert_saves_the_formula(__name__, pipeline_runs.run(__name__, scenario_id))


@pytest.mark.parametrize("entry", ["join", "join_checked"])
@pytest.mark.parametrize("shape", ["plain", "filtered"])
def test_fault_free_join_moves_by_the_declared_wire_delta(entry, shape):
    """A provider-matched join is one ``join`` request per responder,
    answered by two row lists — ``{"left": ShareRows, "right": ShareRows}``,
    one row per pair (every row of these joins has exactly one partner) —
    and the record's bytes and messages are those requests and answers."""
    scenario_id = f"{entry}/{shape}/none"
    run = pipeline_runs.run(__name__, scenario_id)
    calls = [call for call in run.calls[0] if call[3] is not None]
    pairs = len(Deployment().oracle.execute(parse_sql(JOIN_SHAPES[shape])))
    assert [method for _, method, _, _ in calls] == ["join"] * len(run.record["explain"][1])
    for _, _, request, response in calls:
        assert sorted(response) == ["left", "right"]
        assert all(isinstance(response[side], ShareRows) for side in response)
        assert len(response["left"]) == len(response["right"]) == pairs
    accounting = golden.load(GOLDEN_PATH)[scenario_id]["accounting"]
    assert accounting["messages"] == 2 * len(calls)
    assert accounting["bytes"] == sum(
        measure_bytes({"method": "join", **request}) + measure_bytes(response)
        for _, _, request, response in calls
    )


@pytest.mark.parametrize(
    "scenario_id", [sid for sid in sorted(SCENARIOS) if sid.startswith("txn/")]
)
def test_one_round_commit_moves_by_the_declared_formula(scenario_id):
    """One UPDATE / DELETE through the manager commits in one round: past
    its match read, every live provider is sent one ``txn_apply`` carrying
    one transaction (none when nothing matches) and nothing else."""
    run = pipeline_runs.run(__name__, scenario_id)
    assert run.record["matches_oracle"] is True
    live = 4 if scenario_id.endswith("/crash") else 5
    commits = [] if "/update_empty/" in scenario_id else ["txn_apply"]
    written: Dict[int, list] = {}
    for index, method, request, response in run.calls[0]:
        if method != "select" and response is not None:
            written.setdefault(index, []).append(method)
            assert len(request["txns"]) == 1
    assert list(written.values()) == ([commits] * live if commits else [])


@pytest.mark.parametrize(
    "scenario_id",
    [sid for sid in sorted(SCENARIOS) if sid.split("/")[0] in ("select", "select_with_ids", "join")],
)
def test_projection_moves_by_the_declared_formula(scenario_id, monkeypatch):
    """A quorum row read, unpushed aggregate or join that fetches only
    ``explain``'s ``fetched_columns`` (a join: ``left_fetched_columns`` /
    ``right_fetched_columns``) sends its projection where the whole-row
    read sends ``None`` or nothing and gets back no cell of a dropped
    column (:class:`ProjectionWire` counts both); the client interpolates
    exactly those cells fewer.  Against the scenario run with whole rows
    fetched, that is all that moves: messages, provider cost and the
    result do not."""
    entry, shape, fault = scenario_id.split("/")
    dep = Deployment(fault)
    query = dep.parse({**ROW_SHAPES, **AGG_SHAPES, **JOIN_SHAPES}[shape])
    plan = dep.source.explain(query)
    if entry == "join":
        fetched = {
            query.left_table: plan["left_fetched_columns"],
            query.right_table: plan["right_fetched_columns"],
        }
    else:
        fetched = {query.table: plan["fetched_columns"]}
    (wire,) = pipeline_runs.run(__name__, scenario_id).wires
    after = golden.load(GOLDEN_PATH)[scenario_id]
    dropped = {
        table: set(dep.source.sharing(table).schema.column_names) - set(columns)
        for table, columns in fetched.items()
    }
    if not after["accounting"]["messages"]:
        dropped = {}  # provably empty: no provider is asked
    assert wire.dropped == {table: names for table, names in dropped.items() if names}
    monkeypatch.setattr(datasource, "fetched_columns", lambda schema, used: None)
    before = run_scenario(scenario_id)
    was, now = before["accounting"], after["accounting"]
    assert was["bytes"] - now["bytes"] == wire.lost - wire.gained
    assert (was["bytes"] > now["bytes"]) is bool(wire.dropped)
    assert (now["modelled_seconds"] < was["modelled_seconds"]) is bool(wire.dropped)
    assert now["messages"] == was["messages"] and now["providers"] == was["providers"]
    assert was["client"].get("interpolate", 0) - now["client"].get("interpolate", 0) == wire.cells
    assert {**now["client"], "interpolate": 0} == {**was["client"], "interpolate": 0}
    assert {**after, "accounting": was} == before


@pytest.mark.parametrize(
    "sql, fetched",
    [
        # the select list alone
        ("SELECT name, salary FROM Employees WHERE salary > 40000", ["name", "salary"]),
        # a residual on a column the statement does not return
        ("SELECT salary FROM Employees WHERE name <> 'JOHN'", ["name", "salary"]),
        # a client sort on a column the statement does not return
        ("SELECT eid FROM Managers ORDER BY password", ["eid", "password"]),
        ("SELECT * FROM Employees WHERE salary > 40000", None),
    ],
)
def test_explain_reports_the_columns_a_read_fetches(sql, fetched):
    """``fetched_columns`` is the projection the plan pushes — in schema
    order, the residual's and the sort's columns included — or every
    column for ``SELECT *``, and the read asks the providers for exactly
    that."""
    dep = Deployment()
    query = parse_sql(sql)
    schema = dep.source.sharing(query.table).schema
    plan = dep.source.explain(query)
    assert plan["fetched_columns"] == (fetched or schema.column_names)
    with pipeline_runs.recording(dep.cluster.providers[:1]) as calls:
        assert _same(query, dep.source.sql(sql), dep.oracle.execute(query))
    sent = [request.get("projection") for _, _, request, _ in calls]
    assert sent == [None if fetched is None else tuple(fetched)]


_JOIN_ON = "FROM Employees JOIN Managers ON Employees.eid = Managers."


@pytest.mark.parametrize(
    "sql, left, right, kwargs",
    [
        # the select list and the join keys
        (JOIN_SHAPES["filtered"], ["eid", "name"], ["eid", "manager_username"], {}),
        # a cross-table residual on columns the statement does not return
        (
            f"SELECT Employees.name {_JOIN_ON}eid "
            "WHERE (Employees.salary > 50000 OR Managers.manager_id > 3)",
            ["eid", "name", "salary"], ["eid", "manager_id"], {},
        ),
        # one side's own residual, on a column the statement does not return
        (
            f"SELECT Managers.password {_JOIN_ON}eid WHERE Employees.name <> 'JOHN'",
            ["eid", "name"], ["eid", "password"], {},
        ),
        # a side that uses every column sends no projection field
        (
            f"SELECT Employees.eid, Managers.eid, Managers.manager_id, "
            f"Managers.manager_username, Managers.password {_JOIN_ON}eid",
            ["eid"], None, {},
        ),
        (JOIN_SHAPES["plain"], None, None, {}),
        (JOIN_SHAPES["filtered"], None, None, {"verified_reads": True}),
        # the fallback reads each side with a projection
        (
            f"SELECT Employees.name {_JOIN_ON}manager_id",
            ["eid", "name"], ["manager_id"], {"client_join_fallback": True},
        ),
    ],
)
def test_explain_reports_the_columns_a_join_fetches(sql, left, right, kwargs):
    """``left_fetched_columns`` / ``right_fetched_columns`` are each
    side's projection — in schema order, join key and residuals included
    — or every column, and the join asks every provider for exactly that:
    the provider-side join in its ``left_projection`` /
    ``right_projection`` fields, left out for a whole-row side, the
    fallback in its two ``select`` requests."""
    dep = Deployment(**kwargs)
    query = parse_sql(sql)
    plan = dep.source.explain(query)
    schemas = [dep.source.sharing(t).schema for t in (query.left_table, query.right_table)]
    assert plan["left_fetched_columns"] == (left or schemas[0].column_names)
    assert plan["right_fetched_columns"] == (right or schemas[1].column_names)
    expected = [None if side is None else tuple(side) for side in (left, right)]
    with pipeline_runs.recording(dep) as calls:
        assert rows_equal_unordered(dep.source.join(query), dep.oracle.execute(query))
    methods = ["select", "select"] if "client_join_fallback" in kwargs else ["join"]
    assert [method for _, method, _, _ in calls] == sorted(methods * len(plan["read_quorum"]))
    for _, method, request, _ in calls:
        if method == "join":
            fields = [request.get(f"{side}_projection", "left out") for side in ("left", "right")]
            assert fields == [side or "left out" for side in expected]
        else:
            side = [query.left_table, query.right_table].index(request["table"])
            assert request["projection"] == expected[side]


if __name__ == "__main__":
    golden.rebase(GOLDEN_PATH, {sid: run_scenario(sid) for sid in sorted(SCENARIOS)})
