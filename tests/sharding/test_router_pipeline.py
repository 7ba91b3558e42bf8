"""Characterisation of ``ShardRouter``.

For {hash, range} x {single-owner, multi-owner} x every statement shape the
router handles (row reads with order / limit / projection, the six
aggregates plain and grouped, co-located and cross-shard joins, INSERT /
UPDATE / DELETE, a session script, a failing statement) the result equals
the plaintext oracle as an ordered list, and the scenario's record — the
result, the per-group byte count, message count, modelled clock and
client/provider ``CostRecorder`` snapshots, ``router.stats`` and a
session's counters — equals its record in ``router_pipeline_golden.json``,
one current record per scenario.

Each scenario runs once per session (``tests.pipeline_runs``), and the
tests that watch it read that run: the main test, a hash map placing rows
by their key, what a projection takes off the wire and the column-major
formula (``tests.column_major``).  The projection test in
``RERUNS`` re-runs a scenario with whole rows fetched and finds its record
plus exactly the bytes the formula names.

A change that moves these numbers on purpose re-bases the file in place
and puts the printed list of moved fields in ``CHANGES.md``
(``tests/golden.py``)::

    PYTHONPATH=src python -m tests.sharding.test_router_pipeline
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional

import pytest

from repro.client import datasource
from repro.errors import ReproError
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.sqlparser import parse_sql

from tests import golden, pipeline_runs
from tests.column_major import assert_saves_the_formula
from tests.sharding.shardutil import build_oracle, build_router, sorted_eids

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "router_pipeline_golden.json"
)

EIDS = sorted_eids()
#: an eid well inside group 0's slice of the default two-way range cut
LOW = EIDS[len(EIDS) // 4]

#: variant -> (sharding mode, whether every statement has one owner).
#: ``hash/single`` drains group 1 so one group owns the whole ring;
#: ``range/single`` restricts every statement to ``eid <= LOW``.
VARIANTS = {
    "hash/multi": ("hash", False),
    "hash/single": ("hash", True),
    "range/multi": ("range", False),
    "range/single": ("range", True),
}

#: ``{where}`` opens a predicate, ``{and_}`` extends one
READS = {
    "rows_plain": "SELECT * FROM Employees{where}",
    "rows_projection": "SELECT name, salary FROM Employees{where}",
    "rows_residual": (
        "SELECT name FROM Employees WHERE name <> 'JOHN' AND salary > 40000{and_}"
    ),
    "rows_limit": "SELECT eid FROM Employees{where} LIMIT 5",
    "rows_order_unique": (
        "SELECT eid, salary FROM Employees{where} ORDER BY eid LIMIT 10"
    ),
    "rows_order_dup": "SELECT eid, department FROM Employees{where} ORDER BY department",
    "rows_order_dup_desc": (
        "SELECT eid, department FROM Employees{where} ORDER BY department DESC"
    ),
    "rows_order_dup_limit": (
        "SELECT eid, department FROM Employees{where} ORDER BY department LIMIT 6"
    ),
    "rows_order_dup_desc_limit": (
        "SELECT eid, department FROM Employees{where} "
        "ORDER BY department DESC LIMIT 6"
    ),
    "rows_empty": "SELECT * FROM Employees WHERE salary > 10 AND salary < 5{and_}",
    "count_star": "SELECT COUNT(*) FROM Employees{where}",
    "count_where": "SELECT COUNT(*) FROM Employees WHERE salary >= 50000{and_}",
    "sum": "SELECT SUM(salary) FROM Employees{where}",
    "avg": "SELECT AVG(salary) FROM Employees{where}",
    "min": "SELECT MIN(salary) FROM Employees{where}",
    "max": "SELECT MAX(salary) FROM Employees WHERE salary <= 90000{and_}",
    "median": "SELECT MEDIAN(salary) FROM Employees{where}",
    "sum_empty": "SELECT SUM(salary) FROM Employees WHERE salary > 10 AND salary < 5{and_}",
    "grouped_count": "SELECT COUNT(*) FROM Employees{where} GROUP BY department",
    "grouped_sum": "SELECT SUM(salary) FROM Employees{where} GROUP BY department",
    "grouped_avg": "SELECT AVG(salary) FROM Employees{where} GROUP BY department",
    "grouped_min": "SELECT MIN(salary) FROM Employees{where} GROUP BY department",
    "grouped_max": "SELECT MAX(salary) FROM Employees{where} GROUP BY department",
    "grouped_median": "SELECT MEDIAN(salary) FROM Employees{where} GROUP BY department",
    "grouped_residual": (
        "SELECT SUM(salary) FROM Employees WHERE name <> 'JOHN'{and_} "
        "GROUP BY department"
    ),
}

#: co-located under the single-owner variants, cross-shard otherwise
JOINS = {
    "join_plain": (
        "SELECT * FROM Employees JOIN Managers ON Employees.eid = Managers.eid"
        "{join_where}"
    ),
    "join_projection": (
        "SELECT Employees.name, Managers.manager_username FROM Employees "
        "JOIN Managers ON Employees.eid = Managers.eid "
        "WHERE Employees.salary >= 20000{join_and}"
    ),
}

WRITES = {
    "insert": [
        "INSERT INTO Employees (eid, name, lastname, department, salary) "
        "VALUES ({low_free}, 'ZED', 'NEW', 'OPS', 4321)"
    ],
    "update": ["UPDATE Employees SET salary = 1234 WHERE salary BETWEEN 20000 AND 70000{and_}"],
    "update_residual": [
        "UPDATE Employees SET department = 'OPS' WHERE name <> 'JOHN' AND salary > 50000{and_}"
    ],
    "update_partition": ["UPDATE Employees SET eid = 77 WHERE salary < 30000{and_}"],
    "delete": ["DELETE FROM Employees WHERE salary < 30000{and_}"],
    "script": [
        "INSERT INTO Employees (eid, name, lastname, department, salary) "
        "VALUES ({low_free}, 'ZED', 'NEW', 'OPS', 4321)",
        "UPDATE Employees SET salary = 99 WHERE department = 'OPS'{and_}",
        "DELETE FROM Employees WHERE salary = 99{and_}",
    ],
}


def _fill(template: str, single: bool) -> str:
    low_free = next(e for e in range(LOW - 1, 0, -1) if e not in EIDS)
    restrict = f"eid <= {LOW}"
    both = f"Employees.eid <= {LOW} AND Managers.eid <= {LOW}"
    return template.format(
        where=f" WHERE {restrict}" if single else "",
        and_=f" AND {restrict}" if single else "",
        join_where=f" WHERE {both}" if single else "",
        join_and=f" AND {both}" if single else "",
        low_free=low_free,
    )


class Deployment:
    """The 48-row two-group sharding deployment beside its oracle."""

    def __init__(self, variant: str) -> None:
        mode, self.single = VARIANTS[variant]
        self.router = build_router(mode)
        self.sources = [group.source for group in self.router.groups]
        self.oracle = build_oracle()
        if mode == "hash" and self.single:
            self.router.drain_group(1)
        self.router.reset_accounting()

    def sql(self, template: str) -> str:
        # range pruning is what makes a statement single-owner; the drained
        # hash ring needs no predicate
        return _fill(template, self.single and self.router.default_mode == "range")

    def accounting(self) -> Dict[str, object]:
        return {
            "groups": [
                {
                    "bytes": group.network.total_bytes,
                    "messages": group.network.total_messages,
                    "modelled_seconds": group.network.modelled_seconds,
                    "client": group.source.cost.snapshot(),
                    "providers": group.cluster.total_provider_cost().snapshot(),
                }
                for group in self.router.groups
            ],
            "stats": self.router.stats.snapshot(),
        }

    def tables_match_oracle(self) -> bool:
        return all(
            rows_equal_unordered(
                self.router.sql(f"SELECT * FROM {table}"),
                self.oracle.execute(parse_sql(f"SELECT * FROM {table}")),
            )
            for table in ("Employees", "Managers")
        )


def _compare(actual, expected) -> Dict[str, bool]:
    if not isinstance(expected, list):
        return {"matches_oracle": actual == expected, "ordered": actual == expected}
    return {
        "matches_oracle": rows_equal_unordered(actual, expected),
        "ordered": actual == expected,
    }


# --------------------------------------------------------------- scenarios --

#: id -> (variant, runner); a runner returns the scenario's record
SCENARIOS: Dict[str, tuple] = {}


def scenario(variant: str, shape: str):
    def register(run: Callable[[Deployment], Dict[str, object]]):
        SCENARIOS[f"{variant}/{shape}"] = (variant, run)
        return run

    return register


def _add_read(variant: str, shape: str, template: str) -> None:
    @scenario(variant, shape)
    def run(dep: Deployment):
        sql = dep.sql(template)
        actual = dep.router.sql(sql)
        record = {"result": actual, **dep.accounting()}
        record.update(_compare(actual, dep.oracle.execute(parse_sql(sql))))
        return record


def _add_write(variant: str, shape: str, templates: List[str]) -> None:
    @scenario(variant, shape)
    def run(dep: Deployment):
        results: List[object] = []
        ok = True
        for template in templates:
            sql = dep.sql(template)
            try:
                actual = dep.router.sql(sql)
            except ReproError as exc:
                results.append({"raised": type(exc).__name__})
                continue
            results.append(actual)
            ok = ok and actual == dep.oracle.execute(parse_sql(sql))
        record = {"result": results, **dep.accounting()}
        ok = ok and dep.tables_match_oracle()
        record.update(matches_oracle=ok, ordered=ok)
        return record


def _add_session(variant: str) -> None:
    @scenario(variant, "session_script")
    def run(dep: Deployment):
        session = dep.router.open_session("golden")
        statements = [dep.sql(t) for t in WRITES["script"]]
        statements.insert(1, dep.sql(READS["rows_order_unique"]))
        statements.append("SELECT nope FROM Employees")
        results: List[object] = []
        ok = True
        for sql in statements:
            try:
                actual = dep.router.execute(sql, session)
            except ReproError as exc:
                results.append({"raised": type(exc).__name__})
                continue
            results.append(actual)
            ok = ok and actual == dep.oracle.execute(parse_sql(sql))
        record = {
            "result": results,
            "session": session.stats.snapshot(),
            **dep.accounting(),
        }
        ok = ok and dep.tables_match_oracle()
        record.update(matches_oracle=ok, ordered=ok)
        return record


for _variant in VARIANTS:
    for _shape, _template in {**READS, **JOINS}.items():
        _add_read(_variant, _shape, _template)
    for _shape, _templates in WRITES.items():
        _add_write(_variant, _shape, _templates)
    _add_session(_variant)


# ----------------------------------------------------------------- running --


def run_scenario(
    scenario_id: str, on_deployment: Optional[Callable] = None
) -> Dict[str, object]:
    """The scenario's record; ``on_deployment`` is called with the
    deployment once it is set up, before the scenario runs."""
    variant, run = SCENARIOS[scenario_id]
    dep = Deployment(variant)
    if on_deployment is not None:
        on_deployment(dep)
    with dep.router:
        return json.loads(json.dumps(run(dep)))


#: the tests that run a scenario again, and the feature each switches off
RERUNS = {
    "test_projection_moves_only_the_dropped_columns": "projected reads",
}


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_router_matches_oracle_and_parent_accounting(scenario_id):
    record = pipeline_runs.run(__name__, scenario_id).record
    assert record["matches_oracle"] is True, record
    # the result-order contract: the same ordered list as the oracle, on
    # every deployment shape
    assert record["ordered"] is True, record
    golden.assert_record(golden.load(GOLDEN_PATH), scenario_id, record)


def test_golden_covers_exactly_the_scenarios():
    golden.assert_flat(golden.load(GOLDEN_PATH), SCENARIOS)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_column_major_moves_by_the_declared_formula(scenario_id):
    """Share rows name their columns once: sized as the row-major list it
    stands for, a scenario would give its golden record with exactly the
    surplus (n − 1)(8 + 2C + L) + 4 of each ``ShareRows`` it sent added to
    its bytes, summed over the groups and slower modelled clocks, and nothing else moved —
    read off its one run, not re-run (``tests.column_major``)."""
    assert_saves_the_formula(__name__, pipeline_runs.run(__name__, scenario_id))


@pytest.mark.parametrize(
    "scenario_id", [sid for sid in sorted(SCENARIOS) if VARIANTS[sid.rsplit("/", 1)[0]][0] == "hash"]
)
def test_key_placement_moves_only_placement(scenario_id):
    """A hash map places a row by its partition key: after the scenario
    every group holds exactly the rows of each table whose key it owns."""
    run = pipeline_runs.run(__name__, scenario_id)
    for table in ("Employees", "Managers"):
        for index, group in enumerate(run.owners):
            owners = set(group[table])
            assert owners <= {index}, (table, index, owners)


#: Shapes with a read that fetches fewer than every column somewhere: the
#: select list, sort and residual leave columns out, or a group's finish
#: needs rows (a median, an unpushed residual).  Whole-row reads, pushed
#: aggregates and the writes' match reads fetch every column.
PROJECTED = {
    "rows_projection", "rows_residual", "rows_limit", "rows_order_unique",
    "rows_order_dup", "rows_order_dup_desc", "rows_order_dup_limit",
    "rows_order_dup_desc_limit", "median", "grouped_median", "grouped_residual",
    "join_projection", "session_script",
}


@pytest.mark.parametrize(
    "scenario_id", [sid for sid in sorted(SCENARIOS) if sid.rsplit("/", 1)[1] in PROJECTED]
)
def test_projection_moves_only_the_dropped_columns(scenario_id, monkeypatch):
    """Per group, a record is the scenario run with whole rows fetched less
    what its reads' projections take off the wire: each projected request
    gains its tuple where ``None`` was, each response loses every dropped
    column's cells, and the client interpolates exactly those cells fewer.
    Results, messages, provider cost and the router's and the session's
    counters do not move."""
    run = pipeline_runs.run(__name__, scenario_id)
    now, wires = run.record, run.wires
    golden.assert_record(golden.load(GOLDEN_PATH), scenario_id, now)
    monkeypatch.setattr(datasource, "fetched_columns", lambda schema, used: None)
    before = run_scenario(scenario_id)
    assert {k: v for k, v in now.items() if k != "groups"} == {
        k: v for k, v in before.items() if k != "groups"
    }
    for group, was, wire in zip(now["groups"], before["groups"], wires):
        assert was["bytes"] - group["bytes"] == wire.lost - wire.gained
        assert (group["modelled_seconds"] < was["modelled_seconds"]) is (wire.lost > wire.gained)
        assert group["messages"] == was["messages"]
        assert group["providers"] == was["providers"]
        client, was_client = dict(group["client"]), dict(was["client"])
        cells = was_client.pop("interpolate", 0) - client.pop("interpolate", 0)
        if not scenario_id.endswith("/session_script"):
            # in the script, which rows the whole-row match reads of the
            # UPDATE and DELETE left in the row cache for its read is the
            # projection's business
            assert cells == wire.cells
        assert client == was_client


if __name__ == "__main__":
    golden.rebase(GOLDEN_PATH, {sid: run_scenario(sid) for sid in sorted(SCENARIOS)})
