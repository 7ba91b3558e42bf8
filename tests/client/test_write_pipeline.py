"""Characterisation of every write entry point, before and after ISSUE-15.

Written before the write-pipeline refactor and green on both sides of it:
for every write shape x entry point (``DataSource`` direct,
``LazyUpdateBuffer.flush``, ``TransactionManager.execute`` /
``apply_batch`` / ``atomic``, ``ShardRouter`` hash + range,
``ShardedTransactionManager``) x deployment variant (plain, namespaced,
audited where the path allows an audit registry, one crashed provider per
group) the statement's result and the final table equal the plaintext
oracle, and the byte count, message count, modelled clock, client/provider
``CostRecorder`` snapshots, table epochs and WAL counters equal the numbers
captured at the parent commit ``64d633f`` (``write_pipeline_golden.json``,
section ``"parent"``).

The only permitted differences from the parent are enumerated in
``BUGFIX_DELTAS`` below; their post-change numbers live in the golden
file's ``"fixed"`` section.  Every transactional record was then re-based
once more, when a commit became one fsync and one ``txn_apply`` round
(section ``"one_round_commit"``); ``ONE_ROUND_COMMIT`` states that delta
as a formula and ``test_one_round_commit_moves_by_the_declared_formula``
holds each re-based record to it.  The hash-sharded records were re-based
a third time, when hash maps started placing rows by their partition key
instead of their row id (section ``"key_placement"``; the formula is
``test_key_placement_moves_only_placement``'s).  Records in which a
write took its matches from the row cache, skipping a read round, were
re-based next (section ``"cached_matches"``; the formula is
``test_cached_matches_skip_exactly_their_read_rounds``').  Records that
send share rows were re-based last, when share rows went column-major on
the wire (section ``"column_major"``; the formula is
``test_column_major_moves_by_the_declared_formula``').

Regenerate (only on purpose)::

    PYTHONPATH=src python tests/client/test_write_pipeline.py parent   # at the parent commit
    PYTHONPATH=src python tests/client/test_write_pipeline.py fixed    # after the change
    PYTHONPATH=src python tests/client/test_write_pipeline.py one_round_commit
    PYTHONPATH=src python tests/client/test_write_pipeline.py key_placement
    PYTHONPATH=src python tests/client/test_write_pipeline.py cached_matches
    PYTHONPATH=src python tests/client/test_write_pipeline.py column_major
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional

import pytest

from repro import DataSource, ProviderCluster
from repro.client.updates import LazyUpdateBuffer
from repro.core.secrets import generate_client_secrets
from repro.errors import ReproError
from repro.providers.failures import Fault, FailureMode
from repro.service.sharding import ShardRouter
from repro.sim.network import LatencyModel
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.query import Insert
from repro.sqlengine.schema import TableSchema, integer_column, string_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.trust.auditing import AuditRegistry
from repro.txn import ShardedTransactionManager, TransactionManager
from tests.column_major import assert_only_bytes_and_clock_fell, sized_row_major

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "write_pipeline_golden.json")
SEED = 15
N_PROVIDERS, THRESHOLD = 5, 3
ROWS = 30

#: Scenario-id prefixes whose records differ from the parent commit on
#: purpose, and why.
BUGFIX_DELTAS = {
    # 1. a transactional UPDATE of the range-partition column re-homed
    #    nothing: the row kept its group and became invisible to pruned
    #    reads.  ``ShardRouter`` always refused the statement; the sharded
    #    manager now refuses it through the same ``write_owners`` guard.
    "sharded_txn_range/update_partition": (
        "UPDATE of the range-partition column is refused, not silently stranded"
    ),
    # 2. deliberate: the sharded manager no longer forces pure-delta
    #    UPDATEs down the eager path — ``plan_write`` decides, as for the
    #    unsharded manager (fewer bytes, identical results)
    "sharded_txn_hash/update_delta/": "sharded pure-delta UPDATE ships share increments",
    "sharded_txn_range/update_delta/": "sharded pure-delta UPDATE ships share increments",
    "sharded_txn_hash/script": "sharded pure-delta UPDATE ships share increments",
    "sharded_txn_range/script": "sharded pure-delta UPDATE ships share increments",
}

#: Entry points whose records moved when ``txn_prepare`` + ``txn_commit``
#: became one ``txn_apply`` round and the ack and per-commit checkpoint
#: stopped being fsynced.  Per group round with T write targets carrying m
#: transaction ids (each id < 256, so 3 bytes on the wire):
#:
#: * messages -2T: the commit round's request and response are gone;
#: * bytes -(64 + 6m)T: the commit request ``{"method": "txn_commit",
#:   "ids": [...]}`` (33 + 3m), the prepare response ``{"staged": [...],
#:   "skipped": []}`` (29 + 3m; the apply response has the commit
#:   response's shape) and the two bytes "txn_prepare" is longer than
#:   "txn_apply";
#: * modelled clock -(rtt + 8(64 + 6m)/bandwidth): one wave less, and the
#:   remaining wave's legs carry those bytes less;
#: * ``wal_fsyncs`` -2 per flush;
#:
#: and nothing else moves — results, epochs, cost counters, WAL appends and
#: bytes, oracle matches.
ONE_ROUND_COMMIT = (
    "txn_execute/", "txn_apply_batch/", "txn_atomic/",
    "sharded_txn_hash/", "sharded_txn_range/",
)


def accounts_schema() -> TableSchema:
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            integer_column("branch", 1, 100),
            string_column("owner", 6),
            integer_column("balance", 0, 1_000_000_000, searchable=False, nullable=True),
            string_column("note", 6, searchable=False, nullable=True),
        ),
        primary_key="aid",
    )


OWNERS = ("ANNA", "BOB", "CAROL", "DAVE", "ERIN")


def account_rows() -> List[Dict[str, object]]:
    return [
        {
            "aid": 3 * i + 1,
            "branch": (i * 7) % 100 + 1,
            "owner": OWNERS[i % len(OWNERS)],
            "balance": None if i == 11 else 1000 + 10 * i,
            "note": None if i % 4 == 0 else "N" + "ABCDEFGH"[i % 8],
        }
        for i in range(ROWS)
    ]


INSERT = (
    "INSERT INTO Accounts (aid, branch, owner, balance, note) "
    "VALUES ({aid}, {branch}, 'FRED', {balance}, 'NEW')"
)

#: shape -> the statements of one scenario, in order
SHAPES: Dict[str, List[str]] = {
    "insert_one": [INSERT.format(aid=500, branch=9, balance=77)],
    "insert_three": [
        INSERT.format(aid=500, branch=9, balance=77),
        INSERT.format(aid=501, branch=90, balance=78),
        INSERT.format(aid=502, branch=45, balance=79),
    ],
    # eager UPDATE of a searchable column
    "update_eager": ["UPDATE Accounts SET owner = 'ZED' WHERE aid BETWEEN 10 AND 40"],
    # ... of the column range-sharded deployments partition on
    "update_partition": ["UPDATE Accounts SET branch = 77 WHERE aid = 13"],
    "update_residual": ["UPDATE Accounts SET note = 'OPS' WHERE owner <> 'ANNA' AND branch > 20"],
    "update_delta": ["UPDATE Accounts SET balance = balance + 7 WHERE branch >= 30"],
    # pure delta, but the predicate leaves a client residual: eager fallback
    "update_delta_residual": ["UPDATE Accounts SET balance = balance - 3 WHERE balance > 1100"],
    "update_mixed": ["UPDATE Accounts SET balance = balance + 1, owner = 'MIX' WHERE branch <= 40"],
    "delete": ["DELETE FROM Accounts WHERE branch < 25"],
    "delete_residual": ["DELETE FROM Accounts WHERE balance >= 1200 AND branch >= 10"],
    "update_nomatch": ["UPDATE Accounts SET owner = 'NONE' WHERE aid = 999"],
    "delete_nomatch": ["DELETE FROM Accounts WHERE aid = 999"],
    "update_empty": ["UPDATE Accounts SET owner = 'NONE' WHERE branch > 10 AND branch < 5"],
    "delete_empty": ["DELETE FROM Accounts WHERE branch > 10 AND branch < 5"],
    # later statements depend on earlier ones' effects
    "script": [
        INSERT.format(aid=500, branch=9, balance=77),
        "UPDATE Accounts SET balance = balance + 250 WHERE aid >= 400",
        "UPDATE Accounts SET owner = 'ZED' WHERE aid = 500",
        "UPDATE Accounts SET balance = balance + 5 WHERE branch <= 50",
        "DELETE FROM Accounts WHERE aid = 4",
        "UPDATE Accounts SET note = 'GONE' WHERE aid = 4",
    ],
}
UPDATE_SHAPES = [name for name in SHAPES if name.startswith("update_")]

VARIANTS = {
    "plain": {},
    "namespaced": {"namespace": "tenant_a"},
    "audited": {"audited": True},
    "crash": {"crash": True},
}


class Deployment:
    """One unsharded or sharded n=5/k=3 deployment beside its oracle."""

    def __init__(
        self,
        shard_mode: Optional[str] = None,
        namespace: str = "",
        audited: bool = False,
        crash: bool = False,
    ) -> None:
        n_groups = 1 if shard_mode is None else 2
        secrets = generate_client_secrets(N_PROVIDERS, SEED)
        self.sources = [
            DataSource(
                ProviderCluster(N_PROVIDERS, THRESHOLD, name_prefix=f"g{index}/"),
                seed=SEED + index,
                secrets=secrets,
                namespace=namespace,
                audit=AuditRegistry(N_PROVIDERS) if audited else None,
            )
            for index in range(n_groups)
        ]
        schema = accounts_schema()
        if shard_mode is None:
            self.front = self.sources[0]
            self.front.create_table(schema)
        else:
            self.front = ShardRouter(self.sources, mode=shard_mode, seed=SEED)
            if shard_mode == "range":
                self.front.create_table(schema, partition_column="branch", boundaries=[50])
            else:
                self.front.create_table(schema)
        self.front.insert_many("Accounts", account_rows())
        catalog = Catalog()
        catalog.add_table(Table(schema, account_rows()))
        self.oracle = PlaintextExecutor(catalog)
        if crash:
            # a different provider per group, so the groups' quorums differ
            for index, source in enumerate(self.sources):
                source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
        for source in self.sources:
            source.reset_accounting()
        self.wal_path = ""

    def accounting(self) -> Dict[str, object]:
        return {
            "bytes": [s.cluster.network.total_bytes for s in self.sources],
            "messages": [s.cluster.network.total_messages for s in self.sources],
            "modelled_seconds": [s.cluster.network.modelled_seconds for s in self.sources],
            "client": [s.cost.snapshot() for s in self.sources],
            "providers": [s.cluster.total_provider_cost().snapshot() for s in self.sources],
            "epochs": [s.table_epoch("Accounts") for s in self.sources],
        }

    def table_matches_oracle(self) -> bool:
        query = parse_sql("SELECT * FROM Accounts")
        expected = self.oracle.execute(query)
        ok = rows_equal_unordered(self.front.execute(query), expected)
        if ok and self.sources[0].audit is not None:
            # the audit mirror must describe what the providers now hold
            verified = [
                row for source in self.sources for row in source.select_verified(query)
            ]
            ok = rows_equal_unordered(verified, expected)
        return ok


# --------------------------------------------------------------- scenarios --

#: id -> (Deployment kwargs, runner).  A runner executes the shape's
#: statements through one entry point and returns ``(results, extras)``.
SCENARIOS: Dict[str, tuple] = {}


def scenario(entry: str, shape: str, variant: str, shard_mode: Optional[str] = None):
    def register(run: Callable[[Deployment, List[object]], tuple]):
        kwargs = dict(VARIANTS[variant], shard_mode=shard_mode)
        SCENARIOS[f"{entry}/{shape}/{variant}"] = (kwargs, shape, run)
        return run

    return register


def _front_execute(dep: Deployment, statements):
    # INSERT through insert() so the assigned row id is pinned too
    results = []
    for statement in statements:
        if isinstance(statement, Insert) and dep.front is dep.sources[0]:
            results.append(dep.front.insert(statement.table, statement.row))
        else:
            results.append(dep.front.execute(statement))
    return results, {}


def _insert_many(dep: Deployment, statements):
    row_ids = dep.front.insert_many("Accounts", [s.row for s in statements])
    for statement in statements:
        dep.oracle.execute(statement)
    return [row_ids], {"skip_result_check": True}


def _lazy(dep: Deployment, statements):
    # the shape's UPDATE and an overlapping second one, coalesced into one
    # fetch per statement and one write-back per table
    second = parse_sql("UPDATE Accounts SET note = 'LAZY' WHERE aid <= 46")
    buffer = LazyUpdateBuffer(dep.sources[0])
    for statement in statements + [second]:
        dep.oracle.execute(statement)
        buffer.enqueue(statement)
    return [buffer.flush()], {"skip_result_check": True}


def _with_manager(call: Callable):
    def run(dep: Deployment, statements):
        if isinstance(dep.front, ShardRouter):
            manager = ShardedTransactionManager(dep.front, dep.wal_path)
        else:
            manager = TransactionManager(dep.front, dep.wal_path)
        try:
            results = call(manager, statements)
            stats = manager.stats()
        finally:
            manager.close()
        wal = {key: stats[key] for key in ("wal_appends", "wal_bytes", "wal_fsyncs")}
        return results, {"wal": wal, "committed": stats["committed"]}

    return run


_txn_execute = _with_manager(lambda m, statements: [m.execute(s) for s in statements])
_txn_apply_batch = _with_manager(lambda m, statements: m.apply_batch(statements))
_txn_atomic = _with_manager(lambda m, statements: m.atomic(statements))


def _increment(where_sql: str):
    def run(dep: Deployment, statements):
        where = parse_sql(f"SELECT * FROM Accounts WHERE {where_sql}").where
        dep.oracle.execute(
            parse_sql(f"UPDATE Accounts SET balance = balance + 5 WHERE {where_sql}")
        )
        return [dep.sources[0].increment("Accounts", "balance", 5, where)], {
            "skip_result_check": True
        }

    return run


for _variant in VARIANTS:
    _audited = _variant == "audited"
    for _shape in SHAPES:
        scenario("direct", _shape, _variant)(_front_execute)
        for _mode in ("hash", "range"):
            scenario(f"router_{_mode}", _shape, _variant, _mode)(_front_execute)
        if _audited:
            continue  # the transactional path refuses an audit registry
        scenario("txn_execute", _shape, _variant)(_txn_execute)
        scenario("txn_apply_batch", _shape, _variant)(_txn_apply_batch)
        scenario("txn_atomic", _shape, _variant)(_txn_atomic)
        for _mode in ("hash", "range"):
            scenario(f"sharded_txn_{_mode}", _shape, _variant, _mode)(_txn_execute)
    scenario("direct_insert_many", "insert_three", _variant)(_insert_many)
    for _mode in ("hash", "range"):
        scenario(f"router_{_mode}_insert_many", "insert_three", _variant, _mode)(_insert_many)
    for _shape in UPDATE_SHAPES:
        scenario("lazy", _shape, _variant)(_lazy)
    if not _audited:  # increment() cannot maintain share hashes
        scenario("increment", "range", _variant)(_increment("branch >= 30"))
        scenario("increment", "nomatch", _variant)(_increment("aid = 999"))
        scenario("increment", "empty", _variant)(_increment("branch > 10 AND branch < 5"))


# ----------------------------------------------------------------- running --


def run_scenario(scenario_id: str, wal_dir: str) -> Dict[str, object]:
    kwargs, shape, run = SCENARIOS[scenario_id]
    dep = Deployment(**kwargs)
    dep.wal_path = os.path.join(wal_dir, "client.wal")
    statements = [parse_sql(s) for s in SHAPES.get(shape, ())]
    try:
        results, extras = run(dep, statements)
    except ReproError as exc:
        return {"raised": type(exc).__name__}
    record = dict(extras)
    record["results"] = results
    record["accounting"] = dep.accounting()
    counts_ok = True
    if not record.pop("skip_result_check", False):
        expected = [dep.oracle.execute(s) for s in statements]
        # an INSERT's result is its row id, pinned by the golden record;
        # UPDATE/DELETE counts must equal the oracle's
        counts_ok = len(results) == len(statements) and all(
            isinstance(s, Insert) or got == want
            for s, got, want in zip(statements, results, expected)
        )
    record["matches_oracle"] = bool(counts_ok and dep.table_matches_oracle())
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
def test_write_matches_oracle_and_parent_accounting(scenario_id, tmp_path):
    golden = _load_golden()
    record = run_scenario(scenario_id, str(tmp_path))
    assert record.get("matches_oracle") is True or "raised" in record, record
    if scenario_id in golden["column_major"]:
        assert record == golden["column_major"][scenario_id]
        return
    if scenario_id in golden["cached_matches"]:
        assert record == golden["cached_matches"][scenario_id]
        return
    if scenario_id in golden["key_placement"]:
        assert record == golden["key_placement"][scenario_id]
        return
    if scenario_id in golden["one_round_commit"]:
        assert record == golden["one_round_commit"][scenario_id]
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


def _rebased_base(golden, scenario_id: str) -> Dict[str, object]:
    """What a re-based record was before the one-round commit."""
    return golden["fixed"].get(scenario_id, golden["parent"][scenario_id])


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["one_round_commit"]))
def test_one_round_commit_moves_by_the_declared_formula(scenario_id):
    golden = _load_golden()
    before, after = _rebased_base(golden, scenario_id), golden["one_round_commit"][scenario_id]
    assert scenario_id.startswith(ONE_ROUND_COMMIT)
    flushes, odd = divmod(before["wal"]["wal_fsyncs"] - after["wal"]["wal_fsyncs"], 2)
    assert flushes >= 1 and not odd
    was, now = before["accounting"], after["accounting"]
    targets = N_PROVIDERS - (1 if scenario_id.endswith("/crash") else 0)
    latency = LatencyModel()
    sharded = len(now["bytes"]) > 1
    for group in range(len(now["bytes"])):
        rounds, odd = divmod(was["messages"][group] - now["messages"][group], 2 * targets)
        assert not odd and rounds <= flushes
        # every flush of the unsharded scenarios applies one round carrying
        # its transactions; a sharded flush carries one transaction
        ids = rounds if sharded else after["committed"]
        assert sharded or rounds == flushes
        saved = 64 * rounds + 6 * ids
        assert was["bytes"][group] - now["bytes"][group] == targets * saved
        assert was["modelled_seconds"][group] - now["modelled_seconds"][group] == pytest.approx(
            rounds * latency.rtt_seconds + 8 * saved / latency.bandwidth_bits_per_second,
            abs=1e-12,
        )
    for key in ("client", "providers", "epochs"):
        assert now[key] == was[key]
    for key in ("wal_appends", "wal_bytes"):
        assert after["wal"][key] == before["wal"][key]
    assert {k: v for k, v in after.items() if k not in ("accounting", "wal")} == {
        k: v for k, v in before.items() if k not in ("accounting", "wal")
    }


#: Statements of a shape that name one ``aid``: under key placement each
#: visits only that key's owner, so the other group's fetch round — which
#: matched nothing in the parent — is gone.
KEY_POINTS = {"update_partition": 1, "update_nomatch": 1, "delete_nomatch": 1, "script": 3}

#: How far summed bytes (and WAL bytes) may sit from the formula.  A wire
#: value is sized by its magnitude, and a row that now lives on the other
#: group carries the random shares that group drew; the largest move seen
#: was 4 bytes.
WIDTH_SLACK = 8


def _committed_base(golden, scenario_id: str) -> Dict[str, object]:
    """What a record was just before key placement."""
    return golden["one_round_commit"].get(scenario_id) or _rebased_base(golden, scenario_id)


def _client_total(accounting) -> Counter:
    return sum((Counter(c) for c in accounting["client"]), Counter())


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["key_placement"]))
def test_key_placement_moves_only_placement(scenario_id):
    """Summed over the two groups, a re-based hash record is its base record
    less one empty fetch round per ``KEY_POINTS`` statement — that round's
    size is the base ``update_nomatch`` record's per-group round.  The
    per-group split, the providers' index ``compare`` counts and the
    modelled clocks are placement's; results, epochs, WAL appends and
    fsyncs may not move."""
    golden = _load_golden()
    now, base = golden["key_placement"][scenario_id], _committed_base(golden, scenario_id)
    entry, shape, variant = scenario_id.split("/")
    assert "hash" in entry
    assert now["results"] == base["results"]
    assert now["matches_oracle"] is base["matches_oracle"] is True
    if "wal" in now:
        assert {**now["wal"], "wal_bytes": 0} == {**base["wal"], "wal_bytes": 0}
        assert abs(now["wal"]["wal_bytes"] - base["wal"]["wal_bytes"]) <= WIDTH_SLACK
    acc, was = now["accounting"], base["accounting"]
    assert sorted(acc["epochs"]) == sorted(was["epochs"])
    points = KEY_POINTS.get(shape, 0)
    empty = _committed_base(golden, f"{entry}/update_nomatch/{variant}")["accounting"]
    fell = {key: sum(was[key]) - sum(acc[key]) for key in ("bytes", "messages")}
    if variant == "crash" and points:
        # whether a round still addresses the crashed provider depends on
        # how often the health tracker has seen it fail: a pruned round
        # costs between a plain round and a first-contact one
        plain = _committed_base(golden, f"{entry}/update_nomatch/plain")["accounting"]
        for key in ("bytes", "messages"):
            slack = WIDTH_SLACK if key == "bytes" else 0
            low, high = points * plain[key][0], points * empty[key][0]
            assert low - slack <= fell[key] <= high + slack, (key, fell[key])
    else:
        assert fell["messages"] == points * empty["messages"][0]
        assert abs(fell["bytes"] - points * empty["bytes"][0]) <= WIDTH_SLACK, fell
    pruned = Counter({k: points * v for k, v in empty["client"][0].items()})
    assert _client_total(was) - _client_total(acc) == pruned


#: Statements of a shape that take their matches from the row cache at
#: some group: the client holds the entry ``SELECT * … WHERE <the same
#: WHERE>`` there.  In ``script`` on a range map, the group without aid 4
#: stores the empty ``aid = 4`` entry when the DELETE reads it, and the
#: UPDATE of aid 4 takes its (no) matches from it.
CACHED_MATCHES = {"script": 1}


def _placed_base(golden, scenario_id: str) -> Dict[str, object]:
    """What a record was just before writes took matches from the cache."""
    return golden["key_placement"].get(scenario_id) or _committed_base(golden, scenario_id)


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["cached_matches"]))
def test_cached_matches_skip_exactly_their_read_rounds(scenario_id):
    """A re-based record is its base record less ``CACHED_MATCHES`` read
    rounds, each exactly one group's empty fetch round of the base
    ``update_nomatch`` record — bytes, messages, modelled clock, client and
    provider counters (under ``crash`` the ``plain`` one: by then the
    crashed provider is no longer addressed).  Nothing else moves."""
    golden = _load_golden()
    now, base = golden["cached_matches"][scenario_id], _placed_base(golden, scenario_id)
    entry, shape, variant = scenario_id.split("/")
    assert {k: v for k, v in now.items() if k != "accounting"} == {
        k: v for k, v in base.items() if k != "accounting"
    }
    acc, was = now["accounting"], base["accounting"]
    assert acc["epochs"] == was["epochs"]
    reference = "plain" if variant == "crash" else variant
    fetch = _placed_base(golden, f"{entry}/update_nomatch/{reference}")["accounting"]
    skipped = 0
    for group in range(len(acc["bytes"])):
        fell = {key: was[key][group] - acc[key][group] for key in ("bytes", "messages")}
        for key in ("client", "providers"):
            fell[key] = Counter(was[key][group]) - Counter(acc[key][group])
        clock = was["modelled_seconds"][group] - acc["modelled_seconds"][group]
        if not fell["messages"]:
            assert not any(fell.values()) and clock == 0, fell
            continue
        skipped += 1
        assert fell == {
            "bytes": fetch["bytes"][group],
            "messages": fetch["messages"][group],
            "client": Counter(fetch["client"][group]),
            "providers": Counter(fetch["providers"][group]),
        }
        assert clock == pytest.approx(fetch["modelled_seconds"][group], abs=1e-12)
    assert skipped == CACHED_MATCHES[shape]


@pytest.mark.parametrize("scenario_id", sorted(_load_golden()["column_major"]))
def test_column_major_moves_by_the_declared_formula(scenario_id, tmp_path):
    """Share rows name their columns once: a re-based record is the
    record before it with every ``ShareRows`` it sent
    (n − 1)(8 + 2C + L) + 4 bytes smaller (``tests.column_major``).  Run
    with that surplus added back, the scenario gives the record before
    exactly; only bytes and the modelled clock moved, and only down."""
    golden = _load_golden()
    after = golden["column_major"][scenario_id]
    before = golden["cached_matches"].get(scenario_id) or _placed_base(golden, scenario_id)
    with sized_row_major():
        assert run_scenario(scenario_id, str(tmp_path)) == before
    assert_only_bytes_and_clock_fell(before, after)


def _regenerate(section: str) -> None:
    import tempfile

    golden = (
        _load_golden() if os.path.exists(GOLDEN_PATH)
        else {
            "parent": {}, "fixed": {}, "one_round_commit": {}, "key_placement": {},
            "cached_matches": {}, "column_major": {},
        }
    )
    records: Dict[str, object] = {}
    for scenario_id in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as wal_dir:
            records[scenario_id] = run_scenario(scenario_id, wal_dir)
    if section == "column_major":
        row_major: Dict[str, object] = {}
        with sized_row_major():
            for scenario_id in sorted(SCENARIOS):
                with tempfile.TemporaryDirectory() as wal_dir:
                    row_major[scenario_id] = run_scenario(scenario_id, wal_dir)
        golden["column_major"] = {
            sid: record for sid, record in records.items() if record != row_major[sid]
        }
    elif section == "parent":
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
            if record != _rebased_base(golden, sid)
        }
    elif section == "key_placement":
        golden["key_placement"] = {
            sid: record
            for sid, record in records.items()
            if "hash" in sid.split("/")[0] and record != _committed_base(golden, sid)
        }
    elif section == "cached_matches":
        golden["cached_matches"] = {
            sid: record
            for sid, record in records.items()
            if record != _placed_base(golden, sid)
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    bad: List[str] = [
        sid for sid, record in records.items()
        if record.get("matches_oracle") is not True and "raised" not in record
    ]
    print(f"{len(records)} scenarios -> {section}; not matching the oracle: {bad}")


if __name__ == "__main__":
    _regenerate(sys.argv[1])
