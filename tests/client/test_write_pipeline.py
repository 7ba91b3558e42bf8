"""Characterisation of every write entry point.

For every write shape x entry point (``DataSource`` direct,
``LazyUpdateBuffer.flush``, ``TransactionManager.execute`` /
``apply_batch`` / ``atomic``, ``ShardRouter`` hash + range,
``ShardedTransactionManager``) x deployment variant (plain, namespaced,
audited where the path allows an audit registry, one crashed provider per
group) the statement's result and the final table equal the plaintext
oracle, and the scenario's record — results, byte count, message count,
modelled clock, client/provider ``CostRecorder`` snapshots, table epochs
and WAL counters, or the error class of a refused statement — equals its
record in ``write_pipeline_golden.json``, one current record per
scenario.

Each scenario runs once per session (``tests.pipeline_runs``), and the
tests that watch it read that run: the main test, a manager's flush as
one ``txn_apply`` round per group and a hash map placing rows by their
key, and the column-major formula (``tests.column_major``).
The cached-match test in ``RERUNS`` re-runs a scenario with the row cache
never answering a write's match read and finds its record plus exactly
what the formula names.

A change that moves these numbers on purpose re-bases the file in place
and puts the printed list of moved fields in ``CHANGES.md``
(``tests/golden.py``)::

    PYTHONPATH=src python -m tests.client.test_write_pipeline
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from typing import Callable, Dict, List, Optional

import pytest

from repro import DataSource, ProviderCluster
from repro.client.updates import LazyUpdateBuffer
from repro.client.rowcache import RowCache
from repro.core.secrets import generate_client_secrets
from repro.errors import ReproError
from repro.providers.failures import Fault, FailureMode
from repro.service.sharding import ShardRouter
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.query import Insert
from repro.sqlengine.schema import TableSchema, integer_column, string_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.trust.auditing import AuditRegistry
from repro.txn import ShardedTransactionManager, TransactionManager
from tests import golden, pipeline_runs
from tests.column_major import assert_saves_the_formula

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "write_pipeline_golden.json")
SEED = 15
N_PROVIDERS, THRESHOLD = 5, 3
ROWS = 30

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
        self.router = None
        if shard_mode is None:
            self.front = self.sources[0]
            self.front.create_table(schema)
        else:
            self.front = self.router = ShardRouter(self.sources, mode=shard_mode, seed=SEED)
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


def run_scenario(scenario_id: str, on_deployment: Optional[Callable] = None) -> Dict[str, object]:
    """The scenario's record; ``on_deployment`` is called with the
    deployment once it is set up, before the scenario runs."""
    kwargs, shape, run = SCENARIOS[scenario_id]
    dep = Deployment(**kwargs)
    if on_deployment is not None:
        on_deployment(dep)
    statements = [parse_sql(s) for s in SHAPES.get(shape, ())]
    try:
        with tempfile.TemporaryDirectory() as wal_dir:
            dep.wal_path = os.path.join(wal_dir, "client.wal")
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


#: the tests that run a scenario again, and the feature each switches off
RERUNS = {
    "test_cached_matches_skip_exactly_their_read_rounds": "row-cache lookups",
}


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_write_matches_oracle_and_parent_accounting(scenario_id):
    record = pipeline_runs.run(__name__, scenario_id).record
    assert record.get("matches_oracle") is True or "raised" in record, record
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


#: Entry points that write through a transaction manager.
ONE_ROUND_COMMIT = (
    "txn_execute/", "txn_apply_batch/", "txn_atomic/",
    "sharded_txn_hash/", "sharded_txn_range/",
)

#: The provider methods that change what a provider holds.
WRITE_METHODS = {"insert_many", "update_rows", "delete_rows", "increment_rows", "txn_apply"}


@pytest.mark.parametrize(
    "scenario_id", [sid for sid in sorted(SCENARIOS) if sid.startswith(ONE_ROUND_COMMIT)]
)
def test_one_round_commit_moves_by_the_declared_formula(scenario_id):
    """A flush through the manager is, at each group it writes to, one
    ``txn_apply`` round: every write target is sent one ``txn_apply`` per
    round and no other write, and a transaction travels in one round.  An
    unsharded flush carries all its transactions, so each target's rounds
    carry ``committed`` transactions in all; a sharded flush carries one.
    No round goes without its WAL fsync."""
    run = pipeline_runs.run(__name__, scenario_id)
    record, calls = run.record, run.calls
    if "raised" in record:
        assert not any(method in WRITE_METHODS for group in calls for _, method, _, _ in group)
        return
    flushes = record["wal"]["wal_fsyncs"]
    sharded = len(calls) > 1
    for group in calls:
        writes = [
            [request for i, method, request, _ in group if i == index and method in WRITE_METHODS]
            for index in range(N_PROVIDERS)
        ]
        rounds = {len(requests) for requests in writes if requests}
        if not rounds:
            continue
        (count,) = rounds
        assert len([requests for requests in writes if requests]) >= THRESHOLD
        assert all(method == "txn_apply" for _, method, _, _ in group if method in WRITE_METHODS)
        carried = [len(request["txns"]) for request in next(r for r in writes if r)]
        assert count <= flushes
        if sharded:
            assert set(carried) == {1}
        else:
            assert sum(carried) == record["committed"]


#: Shapes whose statements each name one ``aid``, the hash maps' partition
#: column: each visits only that key's owner.
KEY_POINTS = {"update_partition": 13, "update_nomatch": 999, "delete_nomatch": 999}


@pytest.mark.parametrize(
    "scenario_id", [sid for sid in sorted(SCENARIOS) if "hash" in sid.split("/")[0]]
)
def test_key_placement_moves_only_placement(scenario_id):
    """A hash map places a row by its partition key: after the scenario
    every group holds exactly the rows whose key it owns, and a statement
    that names one key sends messages to that key's owner alone."""
    run = pipeline_runs.run(__name__, scenario_id)
    for group, owners in enumerate(run.owners):
        assert set(owners["Accounts"]) <= {group}
    shape = scenario_id.split("/")[1]
    if shape in KEY_POINTS:
        router = Deployment(**SCENARIOS[scenario_id][0]).router
        owner = router.owner_for_row("Accounts", {"aid": KEY_POINTS[shape]})
        messages = run.record["accounting"]["messages"]
        assert [group for group, count in enumerate(messages) if count] == [owner]


#: Shapes in which a statement takes its matches from the row cache at
#: some group: the client holds the entry ``SELECT * … WHERE <the same
#: WHERE>`` there.  In ``script`` on a range map, the group without aid 4
#: stores the empty ``aid = 4`` entry when the DELETE reads it, and the
#: UPDATE of aid 4 takes its (no) matches from it.
CACHED_MATCHES = {"script": 1}


@pytest.mark.parametrize(
    "scenario_id",
    [
        sid for sid in sorted(SCENARIOS)
        if sid.split("/")[0] in ("router_range", "sharded_txn_range")
        and sid.split("/")[1] in CACHED_MATCHES
    ],
)
def test_cached_matches_skip_exactly_their_read_rounds(scenario_id, monkeypatch):
    """Against the scenario run with the row cache never answering, a
    record is less ``CACHED_MATCHES`` read rounds, each exactly one group's
    empty fetch round of the ``update_nomatch`` record — bytes, messages,
    modelled clock, client and provider counters (under ``crash`` the
    ``plain`` one: by then the crashed provider is no longer addressed).
    Nothing else moves."""
    records = golden.load(GOLDEN_PATH)
    now = records[scenario_id]
    monkeypatch.setattr(RowCache, "lookup_query", lambda *args: None)
    base = run_scenario(scenario_id)
    entry, shape, variant = scenario_id.split("/")
    assert {k: v for k, v in now.items() if k != "accounting"} == {
        k: v for k, v in base.items() if k != "accounting"
    }
    acc, was = now["accounting"], base["accounting"]
    assert acc["epochs"] == was["epochs"]
    reference = "plain" if variant == "crash" else variant
    fetch = records[f"{entry}/update_nomatch/{reference}"]["accounting"]
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


if __name__ == "__main__":
    golden.rebase(GOLDEN_PATH, {sid: run_scenario(sid) for sid in sorted(SCENARIOS)})
