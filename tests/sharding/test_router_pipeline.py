"""Characterisation of ``ShardRouter``, before and after ISSUE-16.

Written before the router refactor and green on both sides of it: for
{hash, range} x {single-owner, multi-owner} x every statement shape the
router handles (row reads with order / limit / projection, the six
aggregates plain and grouped, co-located and cross-shard joins, INSERT /
UPDATE / DELETE, a session script, a failing statement)
the result equals the plaintext oracle, and the result, the per-group
byte count, message count, modelled clock and client/provider
``CostRecorder`` snapshots and ``router.stats`` equal the numbers
captured at the parent commit ``0111ac2`` (``router_pipeline_golden.json``).

The only permitted differences from the parent are the result-*order*
fixes enumerated in ``ORDER_DELTAS``: the parent concatenated multi-owner
row reads in group order, so those scenarios returned the right rows in
the wrong order (or, under ``LIMIT``, the wrong rows).  Their accounting
must still equal the parent's, and their result must now equal the
oracle's as an ordered list.

One declared *wire* delta rides on top (ISSUE-20, ``JOIN_WIRE_DELTAS``):
a co-located join runs the owning group's provider-matched join, whose
response became two row lists and whose request lost two constant
fields.  Those scenarios must equal the parent once exactly that many
bytes (and their transfer time) are taken off the owning group.

One declared *client-cost* delta (ISSUE-21, ``ROW_CACHE_DELTAS``): the
row cache keeps the rows a write did not touch, so a script that reads
after a write re-interpolates fewer cells.  Only ``client.interpolate``
of those scenarios may move, only down, and to the numbers pinned there
— the read still makes its round, so bytes, messages and clock stay.

The parent's records live in the golden's ``parent`` section.  When hash
maps stopped placing rows by row id and started placing them by their
partition key, every hash record whose numbers moved was re-based into a
``key_placement`` section; ``test_key_placement_moves_only_placement``
ties each to its parent record (see ``WIDTH_SLACK``).

When quorum row reads began fetching only the columns their statement
uses, every record with such a read was re-based into a ``projection``
section; ``test_projection_moves_only_the_dropped_columns`` ties each to
the record before it by what :class:`~tests.projection_wire.ProjectionWire`
counts.  The joins and the aggregates that fetch rows joined that section
when they began doing the same.

Regenerate (only on purpose: ``parent`` at the parent commit,
``key_placement`` / ``projection`` at the commit that moves them)::

    PYTHONPATH=src python -m tests.sharding.test_router_pipeline parent
    PYTHONPATH=src python -m tests.sharding.test_router_pipeline key_placement
    PYTHONPATH=src python -m tests.sharding.test_router_pipeline projection
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional

import pytest

from repro.errors import ReproError
from repro.sim.network import LatencyModel
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.sqlparser import parse_sql

from tests.projection_wire import ProjectionWire
from tests.sharding.shardutil import (
    THRESHOLD,
    build_oracle,
    build_router,
    sorted_eids,
)

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

#: Multi-owner row reads whose parent result was in group order, not
#: row-id order (ties included), and why each moves.
ORDER_DELTAS = {
    "rows_plain": "no ORDER BY: rows come back in row-id order",
    "rows_projection": "no ORDER BY: rows come back in row-id order",
    "rows_residual": "no ORDER BY: rows come back in row-id order",
    "rows_limit": "LIMIT without ORDER BY keeps the lowest row ids",
    "rows_order_dup": "ORDER BY a non-unique column breaks ties by row id",
    "rows_order_dup_desc": "ORDER BY a non-unique column breaks ties by row id",
    "rows_order_dup_limit": "ORDER BY + LIMIT keeps the tie-broken prefix",
    "rows_order_dup_desc_limit": "ORDER BY + LIMIT keeps the tie-broken prefix",
    "join_plain": "cross-shard join pairs come back in (left id, right id) order",
    "join_projection": "cross-shard join pairs come back in (left id, right id) order",
}

#: Single-owner scenarios that run one provider-matched join of P
#: one-partner pairs: per responder its response grew by 11 + 4P bytes
#: (two row lists instead of one pair list) and its request shrank by 37
#: (the two constant-None projection fields) — nothing else moves.
JOIN_WIRE_DELTAS = ("join_plain", "join_projection")

#: scenario -> each group's ``client.interpolate`` now.  The script's
#: SELECT follows its INSERT; the parent dropped the whole table from the
#: row cache on that INSERT and re-interpolated every row the SELECT
#: matched, the write-effect cache keeps the rows the deployment had
#: already read (``hash/single`` had none cached and does not move).
ROW_CACHE_DELTAS = {
    "range/multi/session_script": [150, 140],  # parent 195, 190
    "range/single/session_script": [140, 120],  # parent 185, 120
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
    scenario_id: str, wires: Optional[List[ProjectionWire]] = None
) -> Dict[str, object]:
    """The scenario's record; with ``wires``, one :class:`ProjectionWire`
    per group is appended to it first."""
    variant, run = SCENARIOS[scenario_id]
    dep = Deployment(variant)
    if wires is not None:
        wires.extend(ProjectionWire(group.cluster.providers) for group in dep.router.groups)
    with dep.router:
        return json.loads(json.dumps(run(dep)))


def _load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _accounting_only(record: Dict[str, object]) -> Dict[str, object]:
    return {
        k: v
        for k, v in record.items()
        if k not in ("result", "ordered", "matches_oracle")
    }


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_router_matches_oracle_and_parent_accounting(scenario_id):
    golden = _load_golden()
    parent = golden["parent"][scenario_id]
    record = run_scenario(scenario_id)
    variant, shape = scenario_id.rsplit("/", 1)
    assert record["matches_oracle"] is True, record
    # the result-order contract: the same ordered list as the oracle, on
    # every deployment shape
    assert record["ordered"] is True, record
    for section in ("projection", "key_placement"):
        if scenario_id in golden[section]:
            assert record == golden[section][scenario_id]
            return
    if record == parent:
        return
    if shape in JOIN_WIRE_DELTAS and VARIANTS[variant][1]:
        _assert_join_wire_delta(record, parent, pairs=len(record["result"]))
        return
    if scenario_id in ROW_CACHE_DELTAS:
        _assert_row_cache_delta(record, parent, ROW_CACHE_DELTAS[scenario_id])
        return
    assert shape in ORDER_DELTAS and not VARIANTS[variant][1], (
        f"{scenario_id} moved off the parent commit's numbers and is not an "
        f"enumerated ordering delta:\n parent {parent}\n now    {record}"
    )
    # an ordering delta moves the order of the result and nothing else
    assert parent["ordered"] is False, ORDER_DELTAS[shape]
    assert _accounting_only(record) == _accounting_only(parent), ORDER_DELTAS[shape]


def _assert_join_wire_delta(record, parent, pairs: int) -> None:
    """``record`` is ``parent`` plus the declared join delta on one group."""
    per_responder = 11 + 4 * pairs - 37
    (moved,) = [
        (now, before)
        for now, before in zip(record["groups"], parent["groups"])
        if now != before
    ]
    now, before = moved
    assert now["bytes"] - before["bytes"] == THRESHOLD * per_responder
    # one request leg and one response leg, each waited on once
    assert now["modelled_seconds"] - before["modelled_seconds"] == pytest.approx(
        per_responder * 8 / LatencyModel().bandwidth_bits_per_second, abs=1e-12
    )
    untouched = {**now, "bytes": before["bytes"]}
    untouched["modelled_seconds"] = before["modelled_seconds"]
    assert untouched == before
    assert {**record, "groups": parent["groups"]} == parent


def _assert_row_cache_delta(record, parent, interpolate: List[int]) -> None:
    """``record`` is ``parent`` with fewer cells interpolated, as pinned."""
    for now, before, cells in zip(record["groups"], parent["groups"], interpolate):
        assert now["client"]["interpolate"] == cells <= before["client"]["interpolate"]
        now["client"]["interpolate"] = before["client"]["interpolate"]
    assert record == parent


def test_golden_covers_exactly_the_scenarios():
    golden = _load_golden()
    assert set(golden["parent"]) == set(SCENARIOS)
    assert set(golden["projection"]) <= set(SCENARIOS)
    for scenario_id, record in golden["key_placement"].items():
        assert VARIANTS[scenario_id.rsplit("/", 1)[0]][0] == "hash", scenario_id
        assert record != golden["parent"][scenario_id], "stale key_placement entry"


#: How far a ``key_placement`` record's bytes, summed over the groups, may
#: sit from its parent record's.  A wire value is sized by its magnitude,
#: and under key placement a row lives on — and carries the random shares
#: drawn by — another group, while each group's partial aggregates and
#: LIMIT superset are other numbers; the largest move seen was 4 bytes.
WIDTH_SLACK = 8


def _summed(record, key: str):
    if key in ("bytes", "messages"):
        return sum(group[key] for group in record["groups"])
    return dict(sum((Counter(group[key]) for group in record["groups"]), Counter()))


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["key_placement"]))
def test_key_placement_moves_only_placement(scenario_id):
    """Summed over the groups, a re-based hash record is its parent record:
    the per-group split is placement's, and so are the providers' index
    ``compare`` counts and the modelled clock (the busiest group's)."""
    golden = _load_golden()
    now, parent = golden["key_placement"][scenario_id], golden["parent"][scenario_id]
    variant, shape = scenario_id.rsplit("/", 1)
    assert now["stats"] == parent["stats"]
    if shape == "update_partition":
        # the parent fetched the matching rows and then failed on the new
        # key; an UPDATE of the partition column is now refused before any
        # round, as range mode always did
        assert parent["result"] == [{"raised": "SchemaError"}]
        assert now["result"] == [{"raised": "UnsupportedQueryError"}]
        assert _summed(now, "messages") == _summed(now, "bytes") == 0
        return
    if shape in ORDER_DELTAS and not parent["ordered"]:
        # the parent's result was in group order (under LIMIT, the wrong
        # rows); the oracle's ordered list is the reference, as above
        assert now["matches_oracle"] is now["ordered"] is True
    else:
        assert now["result"] == parent["result"]
    assert _summed(now, "messages") == _summed(parent, "messages")
    wire = 0
    if shape in JOIN_WIRE_DELTAS and VARIANTS[variant][1]:
        wire = THRESHOLD * (11 + 4 * len(now["result"]) - 37)
    moved = _summed(now, "bytes") - _summed(parent, "bytes") - wire
    assert abs(moved) <= WIDTH_SLACK, moved
    client, parent_client = _summed(now, "client"), _summed(parent, "client")
    if shape == "session_script":
        # the row cache keeps the rows each group had already read, and
        # which rows those are is placement's
        client.pop("interpolate")
        parent_client.pop("interpolate")
    assert client == parent_client


def _refused_scan(variant: str) -> List[Dict[str, float]]:
    """Per group, the round the session script's unknown-column SELECT
    cost before reads projected: every owner answered ``SELECT * FROM
    Employees`` and the client finish then refused the column.  The read
    now asks for the column, and the plan refuses it before any round, as
    a single owner's plan always did."""
    dep = Deployment(variant)
    refused = parse_sql("SELECT nope FROM Employees")
    if len(dep.router._owners_for(refused.table, refused.where)) < 2:
        return [dict.fromkeys(("bytes", "messages"), 0)] * len(dep.router.groups)
    session = dep.router.open_session("golden")
    statements = [dep.sql(t) for t in WRITES["script"]]
    statements.insert(1, dep.sql(READS["rows_order_unique"]))
    with dep.router:
        for sql in statements:
            dep.router.execute(sql, session)
        before = dep.accounting()["groups"]
        dep.router.execute("SELECT * FROM Employees", session)
        after = dep.accounting()["groups"]
    return [
        {key: now[key] - was[key] for key in ("bytes", "messages", "modelled_seconds")}
        for now, was in zip(after, before)
    ]


def _record_before_projection(golden, scenario_id: str) -> Dict[str, object]:
    """The record a ``projection`` record is tied to: its ``key_placement``
    record, else its parent record — plus, for a co-located join, the
    declared join wire delta on the owning group, which the parent
    predates (see :func:`_assert_join_wire_delta`)."""
    if scenario_id in golden["key_placement"]:
        return golden["key_placement"][scenario_id]
    before = json.loads(json.dumps(golden["parent"][scenario_id]))
    variant, shape = scenario_id.rsplit("/", 1)
    if shape in JOIN_WIRE_DELTAS and VARIANTS[variant][1]:
        per_responder = 11 + 4 * len(before["result"]) - 37
        (owner,) = [group for group in before["groups"] if group["messages"]]
        owner["bytes"] += THRESHOLD * per_responder
        owner["modelled_seconds"] += (
            per_responder * 8 / LatencyModel().bandwidth_bits_per_second
        )
    return before


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["projection"]))
def test_projection_moves_only_the_dropped_columns(scenario_id):
    """Per group, a re-based record is the record before it less what its
    reads' projections take off the wire: each projected request gains
    its tuple where ``None`` was, each response loses every dropped
    column's cells, and the client interpolates exactly those cells
    fewer.  A session script also loses its unknown-column SELECT's round
    (:func:`_refused_scan`).  Results, provider cost and the router's and
    the session's counters do not move."""
    golden = _load_golden()
    now = golden["projection"][scenario_id]
    before = _record_before_projection(golden, scenario_id)
    wires: List[ProjectionWire] = []
    assert run_scenario(scenario_id, wires) == now
    assert now["matches_oracle"] is now["ordered"] is True
    if before["ordered"]:
        assert now["result"] == before["result"]
    assert now.get("session") == before.get("session") and now["stats"] == before["stats"]
    assert any(wire.gained for wire in wires)
    variant, shape = scenario_id.rsplit("/", 1)
    script = shape == "session_script"
    refused = _refused_scan(variant) if script else [dict.fromkeys(("bytes", "messages"), 0)] * 2
    for group, was, wire, scan in zip(now["groups"], before["groups"], wires, refused):
        assert was["bytes"] - group["bytes"] == wire.lost - wire.gained + scan["bytes"]
        assert was["messages"] - group["messages"] == scan["messages"]
        if wire.lost > wire.gained or scan["messages"]:
            assert group["modelled_seconds"] < was["modelled_seconds"]
        assert group["providers"] == was["providers"]
        client, was_client = dict(group["client"]), dict(was["client"])
        if script:
            # which rows the refused scan and the whole-row match reads of
            # the UPDATE and DELETE interpolated is the row cache's business;
            # a group that only took the refused scan recorded a zero count
            client.pop("interpolate", None)
            was_client.pop("interpolate", None)
            was_client = {name: count for name, count in was_client.items() if count}
        elif wire.gained:
            assert was_client["interpolate"] - client["interpolate"] == wire.cells
            client["interpolate"] = was_client["interpolate"]
        assert client == was_client


def _regenerate(section: str) -> None:
    golden = _load_golden()
    wires = {sid: [] for sid in SCENARIOS}
    records = {sid: run_scenario(sid, wires[sid]) for sid in sorted(SCENARIOS)}
    if section == "parent":
        golden["parent"] = records
    elif section == "projection":
        golden["projection"] = {
            sid: record
            for sid, record in records.items()
            if any(wire.gained for wire in wires[sid])
        }
    else:
        golden["key_placement"] = {
            sid: record
            for sid, record in records.items()
            if sid.startswith("hash/") and record != golden["parent"][sid]
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    wrong = [s for s, r in records.items() if r["matches_oracle"] is not True]
    unordered = [s for s, r in records.items() if r["ordered"] is not True]
    print(f"{len(records)} scenarios; not matching the oracle: {wrong}")
    print(f"right rows, wrong order: {unordered}")


if __name__ == "__main__":
    _regenerate(sys.argv[1])
