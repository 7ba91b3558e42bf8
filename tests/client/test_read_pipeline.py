"""Characterisation of every read/match entry point of ``DataSource``.

Written before the ISSUE-12 read-pipeline refactor and green on both sides
of it: for every public entry point that fetches rows (or row ids, or whole
tables) x query shape x fault, the result equals the plaintext oracle and
the byte count, message count, modelled clock and client/provider
``CostRecorder`` snapshots equal the numbers captured at the parent commit
(``read_pipeline_golden.json``, section ``"parent"``).

The only permitted differences from the parent are the three bugs the
refactor fixed and the ISSUE-20 join changes (one declared wire delta,
one bugfix), enumerated in ``BUGFIX_DELTAS`` below; their post-change
numbers live in the golden file's ``"fixed"`` section.  The transactional
writes were re-based once more when a commit became one ``txn_apply``
round (section ``"one_round_commit"``, held to its formula by
``test_one_round_commit_moves_by_the_declared_formula``), and the quorum
row reads once more when they began fetching only the columns their
statement uses (section ``"projection"``, held to its formula by
``test_projection_moves_by_the_declared_formula``); the provider-side
joins and the aggregates that fetch rows joined that section when they
began doing the same.

Regenerate (only on purpose)::

    PYTHONPATH=src:. python tests/client/test_read_pipeline.py parent   # at the parent commit
    PYTHONPATH=src:. python tests/client/test_read_pipeline.py fixed    # after the fixes
    PYTHONPATH=src:. python tests/client/test_read_pipeline.py one_round_commit
    PYTHONPATH=src:. python tests/client/test_read_pipeline.py projection
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional

import pytest

from repro import DataSource, ProviderCluster
from repro.client.repair import repair_provider
from repro.client.updates import LazyUpdateBuffer
from repro.errors import ReproError
from repro.providers.failures import Fault, FailureMode
from repro.sim.network import LatencyModel
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.trust.auditing import AuditRegistry
from repro.txn import TransactionManager
from repro.workloads.ecommerce import clicklog_table
from repro.workloads.employees import employees_table, managers_table
from tests.projection_wire import ProjectionWire

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "read_pipeline_golden.json")
SEED = 11

#: Scenario-id prefixes whose numbers differ from the parent commit on
#: purpose — the three ISSUE-12 bugfixes and the two ISSUE-20 join
#: changes — and why.
BUGFIX_DELTAS = {
    # 1. ORDER BY / LIMIT silently dropped: the parent returned every
    #    matching row in row-id order from these two entry points
    "select_with_ids/pushed_order_limit": "ORDER BY/LIMIT now honoured (and pushed down)",
    "select_with_ids/client_order": "ORDER BY/LIMIT now honoured (client sort)",
    "select_with_ids/residual_order_limit": "ORDER BY/LIMIT now honoured (client sort)",
    "select_verified/pushed_order_limit": "ORDER BY/LIMIT now honoured (and pushed down)",
    "select_verified/client_order": "ORDER BY/LIMIT now honoured (client sort)",
    "select_verified/residual_order_limit": "ORDER BY/LIMIT now honoured (client sort)",
    # 2. rotate_secrets had no read failover (QuorumError with one crashed
    #    quorum member) and skipped the client's interpolate cost record
    "rotate_secrets": "snapshot read gained failover + the interpolate cost record",
    # 3. explain disagreed with execution: LIMIT claimed "at providers"
    #    behind a client sort, and verified reads claimed the k-quorum and
    #    provider-side aggregation they never use (only the recorded
    #    ``explain`` strings move; accounting is unchanged)
    "select/client_order": "explain: limit behind a client sort runs at the client",
    "select_checked/": "explain: reports the checked mode's quorum and client-side strategy",
    "join_checked/": (
        "explain: reports the checked mode's quorum; ISSUE-20 join wire delta"
    ),
    "select/provably_empty": "explain: no provider round is claimed for a provably empty query",
    "select/count_empty": "explain: no provider round is claimed for a provably empty query",
    "select/sum_empty": "explain: no provider round is claimed for a provably empty query",
    "select/group_empty": "explain: no provider round is claimed for a provably empty query",
    # 4. ISSUE-20, declared wire delta: a provider-matched join answers
    #    {"left": ShareRows, "right": ShareRows} instead of one pair list
    #    (+11 + 4P bytes per response for P one-partner pairs) and its
    #    request drops the two constant-None projection fields (-37 bytes);
    #    messages, cost snapshots and results do not move (pinned by
    #    test_fault_free_join_moves_by_the_declared_wire_delta)
    "join/plain": "ISSUE-20 join wire delta: two row lists, no projection fields",
    "join/filtered": "ISSUE-20 join wire delta: two row lists, no projection fields",
    # 5. ISSUE-20 bugfix: the client-side fallback join hard-coded the
    #    quorum mode, so verified_reads skipped its cross-check
    "join_client_checked/": "fallback join reads both sides in checked mode under verified_reads",
}

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


def run_scenario(scenario_id: str, wal_dir: str) -> Dict[str, object]:
    kwargs, run = SCENARIOS[scenario_id]
    dep = Deployment(**kwargs)
    dep.wal_path = os.path.join(wal_dir, "client.wal")
    try:
        ok, extras = run(dep)
    except ReproError as exc:  # the parent's rotate_secrets bug surfaces here
        return {"raised": type(exc).__name__}
    record = dict(extras)
    record.setdefault("accounting", dep.accounting())
    record["matches_oracle"] = ok
    return json.loads(json.dumps(record))


def _bugfix_reason(scenario_id: str) -> Optional[str]:
    for prefix, reason in BUGFIX_DELTAS.items():
        if scenario_id.startswith(prefix):
            return reason
    return None


def _load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_entry_point_matches_oracle_and_parent_accounting(scenario_id, tmp_path):
    golden = _load_golden()
    record = run_scenario(scenario_id, str(tmp_path))
    assert record.get("matches_oracle") is True, record
    for section in ("one_round_commit", "projection"):
        if scenario_id in golden[section]:
            assert record == golden[section][scenario_id]
            return
    parent = golden["parent"][scenario_id]
    if record == parent:
        assert scenario_id not in golden["fixed"], "stale entry in the fixed section"
        return
    reason = _bugfix_reason(scenario_id)
    assert reason is not None, (
        f"{scenario_id} moved off the parent commit's numbers and is not an "
        f"enumerated bugfix delta:\n parent {parent}\n now    {record}"
    )
    assert record == golden["fixed"][scenario_id], reason


def test_bugfix_deltas_are_the_only_differences():
    golden = _load_golden()
    assert set(golden["parent"]) == set(SCENARIOS)
    for scenario_id in golden["fixed"]:
        assert _bugfix_reason(scenario_id) is not None, scenario_id
        assert golden["fixed"][scenario_id] != golden["parent"][scenario_id]


@pytest.mark.parametrize("entry", ["join", "join_checked"])
@pytest.mark.parametrize("shape", ["plain", "filtered"])
def test_fault_free_join_moves_by_the_declared_wire_delta(entry, shape):
    """Per responder: +11 + 4P response bytes, -37 request bytes — and
    nothing else (every row of these joins has exactly one partner)."""
    golden = _load_golden()
    scenario_id = f"{entry}/{shape}/none"
    parent, fixed = golden["parent"][scenario_id], golden["fixed"][scenario_id]
    dep = Deployment()
    pairs = len(dep.oracle.execute(dep.parse(JOIN_SHAPES[shape])))
    responders = len(fixed["explain"][1])
    per_responder = 11 + 4 * pairs - 37
    before, after = parent["accounting"], fixed["accounting"]
    assert after["bytes"] - before["bytes"] == responders * per_responder
    # one request leg and one response leg, each waited on once
    assert after["modelled_seconds"] - before["modelled_seconds"] == pytest.approx(
        per_responder * 8 / dep.cluster.network.latency.bandwidth_bits_per_second,
        abs=1e-12,
    )
    for untouched in ("messages", "client", "providers"):
        assert after[untouched] == before[untouched]
    assert fixed["matches_oracle"] is True


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["one_round_commit"]))
def test_one_round_commit_moves_by_the_declared_formula(scenario_id):
    """One UPDATE / DELETE through the manager is one round carrying one
    transaction id: the commit round's request and response go (2 messages
    per live provider) with 70 bytes per live provider and one wave of the
    modelled clock — see ``test_write_pipeline.ONE_ROUND_COMMIT``."""
    golden = _load_golden()
    after = golden["one_round_commit"][scenario_id]
    before = golden["fixed"].get(scenario_id, golden["parent"][scenario_id])
    assert scenario_id.startswith("txn/")
    live = 4 if scenario_id.endswith("/crash") else 5
    latency = LatencyModel()
    was, now = before["accounting"], after["accounting"]
    assert was["messages"] - now["messages"] == 2 * live
    assert was["bytes"] - now["bytes"] == 70 * live
    assert was["modelled_seconds"] - now["modelled_seconds"] == pytest.approx(
        latency.rtt_seconds + 8 * 70 / latency.bandwidth_bits_per_second, abs=1e-12
    )
    for untouched in ("client", "providers"):
        assert now[untouched] == was[untouched]
    assert after["matches_oracle"] is before["matches_oracle"] is True


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["projection"]))
def test_projection_moves_by_the_declared_formula(scenario_id):
    """A quorum row read, unpushed aggregate or join that fetches only
    ``explain``'s ``fetched_columns`` (a join: ``left_fetched_columns`` /
    ``right_fetched_columns``) sends its projection where the full-row
    read sent ``None`` or nothing and gets back no cell of a dropped
    column (:class:`ProjectionWire` counts both); the client interpolates
    exactly those cells fewer.  Messages, provider cost and the result do
    not move."""
    golden = _load_golden()
    after = golden["projection"][scenario_id]
    before = golden["fixed"].get(scenario_id, golden["parent"][scenario_id])
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
    wire = ProjectionWire(dep.cluster.providers)
    getattr(dep.source, entry)(query)
    dropped = {
        table: set(dep.source.sharing(table).schema.column_names) - set(columns)
        for table, columns in fetched.items()
    }
    assert wire.dropped == {table: names for table, names in dropped.items() if names}
    was, now = before["accounting"], after["accounting"]
    assert was["bytes"] - now["bytes"] == wire.lost - wire.gained > 0
    assert now["modelled_seconds"] < was["modelled_seconds"]
    assert now["messages"] == was["messages"] and now["providers"] == was["providers"]
    assert was["client"]["interpolate"] - now["client"]["interpolate"] == wire.cells
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
    sent = []
    handle = dep.cluster.providers[0].handle
    dep.cluster.providers[0].handle = lambda method, request: (
        sent.append(request.get("projection")) or handle(method, request)
    )
    assert _same(query, dep.source.sql(sql), dep.oracle.execute(query))
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
    sent = []
    for provider in dep.cluster.providers:
        provider.handle = lambda method, request, handle=provider.handle: (
            sent.append((method, request)) or handle(method, request)
        )
    assert rows_equal_unordered(dep.source.join(query), dep.oracle.execute(query))
    methods = ["select", "select"] if "client_join_fallback" in kwargs else ["join"]
    assert [method for method, _ in sent] == sorted(methods * len(plan["read_quorum"]))
    for method, request in sent:
        if method == "join":
            fields = [request.get(f"{side}_projection", "left out") for side in ("left", "right")]
            assert fields == [side or "left out" for side in expected]
        else:
            side = [query.left_table, query.right_table].index(request["table"])
            assert request["projection"] == expected[side]


def _regenerate(section: str) -> None:
    import tempfile

    golden = (
        _load_golden() if os.path.exists(GOLDEN_PATH)
        else {"parent": {}, "fixed": {}, "one_round_commit": {}, "projection": {}}
    )
    records: Dict[str, object] = {}
    for scenario_id in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as wal_dir:
            records[scenario_id] = run_scenario(scenario_id, wal_dir)
    if section == "parent":
        golden["parent"] = records
    elif section == "fixed":
        golden["fixed"] = {
            sid: record
            for sid, record in records.items()
            if record != golden["parent"][sid]
        }
    elif section == "one_round_commit":
        golden["one_round_commit"] = {
            sid: record
            for sid, record in records.items()
            if record != golden["fixed"].get(sid, golden["parent"][sid])
        }
    else:
        golden["projection"] = {
            sid: record
            for sid, record in records.items()
            if sid not in golden["one_round_commit"]
            and record != golden["fixed"].get(sid, golden["parent"][sid])
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    bad: List[str] = [
        sid for sid, record in records.items() if record.get("matches_oracle") is not True
    ]
    print(f"{len(records)} scenarios -> {section}; not matching the oracle: {bad}")


if __name__ == "__main__":
    _regenerate(sys.argv[1])
