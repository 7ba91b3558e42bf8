"""Operator drills: crash replay, time travel, online shard split and
rebalance, and the open-loop overload flood.

Each drill builds a fresh deployment from a seed, runs one operation on
it and returns what it observed beside a plaintext oracle.  The CLI
(``txn-replay``, ``time-travel``, ``shard-split``, ``shard-rebalance``,
``serve-sim --open-loop``) prints a drill's result, the gate benches
(``benchmarks/bench_txn.py``, ``bench_sharding.py``, ``bench_overload.py``)
gate and serialise it, and the tests assert on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from . import telemetry
from .client.datasource import DataSource
from .errors import SimulatedCrash
from .providers.cluster import ProviderCluster
from .providers.failures import Fault, FailureMode
from .service import estimate_capacity, run_open_loop
from .service.sharding import ShardRouter
from .sqlengine.catalog import Catalog
from .sqlengine.executor import PlaintextExecutor
from .sqlengine.sqlparser import parse_sql
from .sqlengine.table import Table
from .txn import ShardedTransactionManager, TransactionManager
from .workloads.accounts import accounts_schema, accounts_table
from .workloads.employees import employees_table
from .workloads.traffic import TrafficEvent, TrafficProfile, generate_traffic

SEED = 2009

#: What the shard drills ask the router and the oracle after a migration.
SHARD_PROBES = (
    "SELECT COUNT(*) FROM Employees",
    "SELECT SUM(salary) FROM Employees",
    "SELECT AVG(salary) FROM Employees WHERE salary >= 50000",
    "SELECT * FROM Employees WHERE eid < 5000",
)


def plaintext_oracle(*tables: Table) -> PlaintextExecutor:
    """A reference executor over copies of ``tables`` (writes stay local)."""
    catalog = Catalog()
    for table in tables:
        catalog.add_table(Table(table.schema, table.rows()))
    return PlaintextExecutor(catalog)


# ------------------------------------------------------------ transactions --


def inserts(rows: int) -> List[str]:
    """The INSERTs that fill :func:`accounts_table` statement by statement."""
    return [
        f"INSERT INTO Accounts (aid, balance) "
        f"VALUES ({row['aid']}, {row['balance']})"
        for row in accounts_table(rows).rows()
    ]


def txn_script(rows: int) -> List[str]:
    """A deterministic mutation mix covering every transactional op."""
    half = max(rows // 2, 1)
    return [
        f"UPDATE Accounts SET balance = balance + 250 WHERE aid < {half}",
        "UPDATE Accounts SET balance = 777 WHERE aid = 1",
        f"DELETE FROM Accounts WHERE aid = {rows - 1}",
        f"UPDATE Accounts SET balance = balance - 50 WHERE aid >= {half}",
    ]


def victim(rows: int) -> str:
    """The statement a crash drill kills: a delta increment of every row,
    the op where a double apply would corrupt values."""
    return f"UPDATE Accounts SET balance = balance + 9999 WHERE aid < {rows}"


def accounts(reader) -> List[Tuple[int, int]]:
    """Every account as a sorted ``(aid, balance)`` pair, read through
    ``reader.execute``: a deployment, a transaction manager or an oracle."""
    return _pairs(reader.execute(parse_sql("SELECT * FROM Accounts")))


def _pairs(rows: Iterable[Dict]) -> List[Tuple[int, int]]:
    return sorted((row["aid"], row["balance"]) for row in rows)


def accounts_source(
    rows: int, providers: int, threshold: int, seed: int = SEED
) -> DataSource:
    """:func:`accounts_table` outsourced to one provider group."""
    source = DataSource(ProviderCluster(providers, threshold), seed=seed)
    source.create_table(accounts_schema())
    source.insert_many("Accounts", accounts_table(rows).rows())
    return source


def txn_deployment(
    wal_path: str, providers: int, threshold: int, seed: int, sharded: bool
):
    """An empty Accounts table (one group, or two when ``sharded``) and a
    transaction manager logging to ``wal_path``."""
    if sharded:
        router = ShardRouter.build(
            n_groups=2,
            providers_per_group=providers,
            threshold=threshold,
            seed=seed,
        )
        router.create_table(accounts_schema())
        return router, ShardedTransactionManager(router, wal_path)
    source = DataSource(ProviderCluster(providers, threshold), seed=seed)
    source.create_table(accounts_schema())
    return source, TransactionManager(source, wal_path)


@dataclass
class CrashReplay:
    crashed: bool
    replayed: int
    #: the recovered table equals the oracle's
    exact: bool
    reader: Union[DataSource, ShardRouter]
    #: the recovering manager, still open: the caller closes it
    manager: TransactionManager
    #: the oracle's accounts, as :func:`accounts` reads them
    expected: List[Tuple[int, int]]


def crash_replay(
    wal_path: str,
    phase: str,
    rows: int,
    providers: int,
    threshold: int,
    seed: int,
    sharded: bool,
) -> CrashReplay:
    """Kill the victim at WAL ``phase``, recover, compare with the oracle.

    The inserts, the script and the victim all go through a manager
    logging to ``wal_path``; a fresh manager over the same log recovers.  A
    statement is committed iff its WAL record survived, so the oracle
    applies the victim at every phase except ``pre-log``.
    """
    reader, manager = txn_deployment(
        wal_path, providers, threshold, seed, sharded
    )
    oracle = plaintext_oracle(Table(accounts_schema()))
    for statement in inserts(rows) + txn_script(rows):
        manager.execute(statement)
        oracle.execute(parse_sql(statement))
    manager.kill_at = phase
    crashed = False
    try:
        manager.execute(victim(rows))
    except SimulatedCrash:
        crashed = True
    if phase != "pre-log":
        oracle.execute(parse_sql(victim(rows)))
    manager.close()
    recovering = type(manager)(reader, wal_path)
    replayed = recovering.recover()["replayed"]
    expected = accounts(oracle)
    return CrashReplay(
        crashed, replayed, accounts(reader) == expected, reader, recovering,
        expected,
    )


def time_travel(
    rows: int,
    providers: int,
    threshold: int,
    seed: int = SEED,
    epoch: Optional[int] = None,
) -> Dict[str, object]:
    """Run the script, then read Accounts as of each epoch (or ``epoch``).

    Each epoch reports its row count and SUM(balance); ``diverged``
    lists the epochs whose read differs from the oracle replayed to that
    epoch, and ``head_matches_live`` says whether the newest epoch equals
    the live read.
    """
    source = accounts_source(rows, providers, threshold, seed)
    oracle = plaintext_oracle(accounts_table(rows))
    states = {source.table_epoch("Accounts"): accounts(oracle)}
    manager = TransactionManager(source)
    for statement in txn_script(rows):
        manager.execute(statement)
        oracle.execute(parse_sql(statement))
        states[source.table_epoch("Accounts")] = accounts(oracle)
    manager.close()
    select_all = parse_sql("SELECT * FROM Accounts")
    head = source.table_epoch("Accounts")
    epochs, diverged = [], []
    for at in [epoch] if epoch is not None else range(1, head + 1):
        past = source.select_asof(select_all, at)
        epochs.append(
            {
                "epoch": at,
                "rows": len(past),
                "sum(balance)": sum(row["balance"] for row in past),
            }
        )
        if _pairs(past) != states.get(at):
            diverged.append(at)
    return {
        "epochs": epochs,
        "diverged": diverged,
        "head": head,
        "head_matches_live": (
            _pairs(source.select_asof(select_all, head)) == accounts(source)
        ),
    }


# ---------------------------------------------------------------- sharding --


def shard_probes(
    router: ShardRouter, table: Table, probes: Iterable[str] = SHARD_PROBES
) -> List[Tuple[str, bool]]:
    """Each probe with whether the router's answer equals the oracle's
    over ``table`` (row lists compared in order)."""
    oracle = plaintext_oracle(table)
    return [
        (text, router.sql(text) == oracle.execute(parse_sql(text)))
        for text in probes
    ]


def split(
    rows: int,
    providers: int,
    threshold: int,
    seed: int = SEED,
    groups: int = 2,
    at: int = 250_000,
) -> Dict[str, object]:
    """Range-shard Employees on ``eid``, then split off keys >= ``at`` to
    a fresh group online."""
    router, employees = sharded_employees(
        rows, providers, threshold, seed, groups, "range"
    )
    return _migrate(
        router, employees, lambda: router.split_shard("Employees", at)
    )


def rebalance(
    rows: int,
    providers: int,
    threshold: int,
    seed: int = SEED,
    groups: int = 2,
    add_groups: int = 1,
) -> Dict[str, object]:
    """Hash-shard Employees, register ``add_groups`` fresh groups, then
    rebalance buckets onto them."""
    router, employees = sharded_employees(
        rows, providers, threshold, seed, groups, "hash"
    )
    return _migrate(router, employees, router.rebalance, add_groups)


def sharded_employees(
    rows: int, providers: int, threshold: int, seed: int, groups: int, mode: str
) -> Tuple[ShardRouter, Table]:
    """Employees outsourced over ``groups`` groups (a range map splits
    ``eid``) and the plaintext table."""
    router = ShardRouter.build(
        n_groups=groups,
        providers_per_group=providers,
        threshold=threshold,
        seed=seed,
        mode=mode,
    )
    employees = employees_table(rows, seed=seed)
    router.outsource_table(
        employees, partition_column="eid" if mode == "range" else None
    )
    return router, employees


def _migrate(
    router: ShardRouter,
    employees: Table,
    migrate: Callable[[], int],
    add_groups: int = 0,
) -> Dict[str, object]:
    """Time one migration and check what it left behind.

    ``migration_bytes`` counts the migration and the row-id scan after
    it; ``network_bytes`` is everything the drill sent, outsourcing
    included.  Placement holds when every row id held before is held
    exactly once after.
    """
    before = router.shard_row_ids("Employees")
    for _ in range(add_groups):
        router.add_group()
    setup_bytes = router.total_network_bytes()
    wall_start = time.perf_counter()
    moved = migrate()
    wall = time.perf_counter() - wall_start
    after = router.shard_row_ids("Employees")
    network_bytes = router.total_network_bytes()
    held = sorted(rid for ids in after.values() for rid in ids)
    return {
        "groups": [group.name for group in router.groups],
        "before": {index: len(ids) for index, ids in sorted(before.items())},
        "after": {index: len(ids) for index, ids in sorted(after.items())},
        "rows_moved": moved,
        "network_bytes": network_bytes,
        "migration_bytes": network_bytes - setup_bytes,
        "wall_seconds": wall,
        "probes": shard_probes(router, employees),
        "rows_held": len(held),
        "rows_distinct": len(set(held)),
        "placement_ok": (
            held == sorted(rid for ids in before.values() for rid in ids)
            and len(held) == len(employees.rows())
        ),
    }


# ---------------------------------------------------------------- overload --


def employees_source(
    rows: int, providers: int, threshold: int, seed: int = SEED
) -> Tuple[DataSource, List[int]]:
    """A verified-reads Employees deployment and its sorted eids.

    Verified reads give the degradation ladder a premium tier to step
    down from.
    """
    table = employees_table(rows, seed=seed)
    source = DataSource(
        ProviderCluster(providers, threshold), seed=seed, verified_reads=True
    )
    source.outsource_table(table)
    return source, sorted(row["eid"] for row in table.rows())


def flood_traffic(
    source: DataSource,
    eids: List[int],
    load: float,
    queries: int,
    max_in_flight: int,
    seed: int = SEED,
) -> Tuple[Dict[str, float], List[TrafficEvent]]:
    """Calibrate ``source``'s capacity, then draw ``queries`` arrivals at
    ``load`` x that capacity.

    Calibration runs outside any telemetry session, and the network is
    reset after it, so probe traffic reaches neither the SLO counters
    nor the flood's byte accounting.
    """
    capacity = estimate_capacity(
        source, eids, max_in_flight=max_in_flight, seed=seed + 1
    )
    source.cluster.network.reset()
    profile = TrafficProfile(
        mean_interarrival=1.0 / (capacity["capacity_qps"] * load)
    )
    return capacity, generate_traffic(eids, queries, seed=seed, profile=profile)


def flood(
    source: DataSource,
    eids: List[int],
    load: float,
    queries: int,
    max_in_flight: int,
    queue_limit: int,
    crash: int = 0,
    seed: int = SEED,
) -> Dict[str, object]:
    """Calibrate ``source``, then flood it at ``load`` x capacity.

    Calibration runs against the *pristine* deployment; the first
    ``crash`` providers are killed before the flood.
    """
    capacity, events = flood_traffic(
        source, eids, load, queries, max_in_flight, seed
    )
    for index in range(crash):
        source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
    network = source.cluster.network
    with telemetry.session(clock=lambda: network.modelled_seconds):
        report = run_open_loop(
            source, events, max_in_flight=max_in_flight, queue_limit=queue_limit
        )
    report["load_factor"] = load
    report["capacity"] = capacity
    report["crashed_providers"] = crash
    return report
