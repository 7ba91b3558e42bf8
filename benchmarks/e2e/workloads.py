"""The six workloads: plaintext inputs, deployment, statement streams.

Every workload is built through the public API with every default left
alone (parallel dispatch, default ``outsource_table`` batch size, the
kernel backend ``active_backend()`` reports).  Statement streams come from
``random.Random(seed)`` here in the benchmark; the program sees only the
generated tables and SQL text.  A different seed changes the keys and
thresholds but never the class mix or the class order: each mixed
workload interleaves its classes by a fixed smooth weighted round-robin,
and the thresholds that decide how much work a statement is (how many rows
an aggregate or a top-k covers) are drawn evenly over their range within
every pass (``_Strata``), so run-to-run differences are the program's, not
the draw's.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import DataSource, ProviderCluster
from repro.client.rowcache import RowCache
from repro.service.sharding import ShardRouter
from repro.sqlengine.table import Table
from repro.txn.manager import TransactionManager
from repro.workloads.employees import employees_table, managers_table

N_ROWS = 20_000
N_PROVIDERS, THRESHOLD = 5, 3
#: Throughput and CPU are medians over the timed passes, and the sandbox's
#: speed wanders by tens of percent over seconds, so the passes are many
#: and short rather than the five long ones first planned: the median of
#: fifteen one-third-second readings is steadier than that of five.
TIMED_PASSES = 15
#: ``--seconds`` this many gives the statement counts below; other values
#: scale the per-pass counts in proportion (never the rows or the mix).
NOMINAL_SECONDS = 6

_DEPARTMENTS = ("SALES", "ENG", "HR", "LEGAL", "OPS", "FIN", "RND", "IT")
_EMPLOYEE_COLUMNS = "eid, name, lastname, department, salary"


@dataclass(frozen=True)
class Op:
    """One operation: its class label and the SQL text (or bulk payload)."""

    cls: str
    sql: object

    def describe(self) -> str:
        if isinstance(self.sql, str):
            return self.sql
        table, rows = self.sql
        return f"insert_many({table}, {len(rows)} rows)"


@dataclass
class Deployment:
    """A queryable deployment plus the handles the counters are read from."""

    #: ``getattr(front, entry)`` runs one operation; looked up per pass, so
    #: a traced pass reaches the wrapper the tracer put on the class
    front: object
    entry: str
    sources: List[DataSource]
    modelled_seconds: Callable[[], float]
    manager: Optional[TransactionManager] = None
    router: Optional[ShardRouter] = None
    cleanup: List[Callable[[], None]] = field(default_factory=list)

    @property
    def execute(self) -> Callable[[object], object]:
        return getattr(self.front, self.entry)

    def close(self) -> None:
        for action in self.cleanup:
            action()


def smooth_round_robin(weights: Dict[str, int], length: int) -> List[str]:
    """Evenly interleaved class sequence with exact proportions (nginx SWRR)."""
    total = sum(weights.values())
    if length % total:
        raise ValueError(f"{length} statements do not divide into a {total}-statement cycle")
    current = dict.fromkeys(weights, 0)
    out = []
    for _ in range(length):
        for name, weight in weights.items():
            current[name] += weight
        pick = max(current, key=current.get)
        current[pick] -= total
        out.append(pick)
    return out


class Workload:
    """Base: unsharded ``Employees`` deployment driven through ``DataSource.sql``."""

    name = ""
    why = ""
    uses_managers = False
    #: statements per pass at ``NOMINAL_SECONDS`` and the class cycle they
    #: must be a multiple of
    per_pass = 0
    classes: Dict[str, int] = {}
    #: scheduling class -> reported class, where they differ
    labels: Dict[str, str] = {}
    timed_passes = TIMED_PASSES
    #: True when statements write: the oracle then replays every statement
    #: in order instead of a sample
    writes = False
    #: False when the timed passes themselves load the tables
    preloaded = True

    def statements_per_pass(self, seconds: float, n_rows: int, timed_passes: int) -> int:
        cycle = sum(self.classes.values())
        scaled = self.per_pass * seconds / NOMINAL_SECONDS
        return max(cycle, int(round(scaled / cycle)) * cycle)

    # -- inputs -------------------------------------------------------------

    def tables(self, n_rows: int, seed: int) -> Dict[str, Table]:
        employees = employees_table(n_rows=n_rows, seed=seed)
        tables = {"Employees": employees}
        if self.uses_managers:
            tables["Managers"] = managers_table(employees, 0.1, seed)
        return tables

    def deploy(self, tables: Dict[str, Table], seed: int, out_dir: str) -> Deployment:
        cluster = ProviderCluster(n_providers=N_PROVIDERS, threshold=THRESHOLD)
        source = DataSource(cluster, seed=seed)
        for table in tables.values():
            source.outsource_table(table)
        return Deployment(source, "sql", [source], lambda: cluster.network.modelled_seconds)

    def batches(
        self, tables: Dict[str, Table], rng: random.Random, per_pass: int, timed_passes: int
    ) -> List[List[Op]]:
        """``1 + timed_passes`` disjoint batches; the first is the warm-up."""
        classes = smooth_round_robin(self.classes, per_pass)
        draw = self.generator(tables, rng, per_pass, 1 + timed_passes)
        return [
            [Op(self.labels.get(cls, cls), draw(cls)) for cls in classes]
            for _ in range(1 + timed_passes)
        ]

    def generator(
        self, tables: Dict[str, Table], rng: random.Random, per_pass: int, passes: int
    ) -> Callable[[str], str]:
        """``draw(cls)`` gives the next statement of a class, in pass order."""
        raise NotImplementedError

    def strata(self, rng: random.Random, per_pass: int) -> Dict[str, "_Strata"]:
        """One even-coverage source per class, a round of it per pass."""
        cycle = sum(self.classes.values())
        return {
            cls: _Strata(rng, per_pass * weight // cycle)
            for cls, weight in self.classes.items()
        }


class _Strata:
    """Draws on [0, 1) in rounds of ``count``: one from each ``1/count`` slice,
    in random order, so every round covers the range evenly."""

    def __init__(self, rng: random.Random, count: int) -> None:
        self.rng, self.count = rng, count
        self.pending: List[float] = []

    def draw(self) -> float:
        if not self.pending:
            self.pending = [(i + self.rng.random()) / self.count for i in range(self.count)]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class _Salaries:
    """Salary-rank windows over the initial ``Employees`` table."""

    def __init__(self, employees: Table) -> None:
        self.ranked = sorted(row["salary"] for row in employees)

    def width(self, fraction: float) -> int:
        return max(2, int(len(self.ranked) * fraction))

    def window(self, start: int, fraction: float) -> Tuple[int, int]:
        """Salary bounds of the ``fraction`` of rows starting at rank ``start``."""
        width = self.width(fraction)
        start = min(start, len(self.ranked) - width)
        return self.ranked[start], self.ranked[start + width - 1]

    def window_at(self, u: float, fraction: float) -> Tuple[int, int]:
        """The window starting at the rank ``u`` (on [0, 1)) of the way up."""
        return self.window(int(u * len(self.ranked)), fraction)

    def quantile(self, u: float, low: float, high: float) -> int:
        """The salary at quantile ``low + u * (high - low)``, ``u`` on [0, 1)."""
        return self.ranked[int((low + u * (high - low)) * (len(self.ranked) - 1))]


class PointLookup(Workload):
    name = "point_lookup"
    why = ("one-row SELECT by eid, keys never repeat: per-statement fixed cost "
           "(parse, rewrite, dispatch, hand-off) is the whole bill, decode does almost nothing")
    per_pass = 800
    classes = {"point": 1}

    def statements_per_pass(self, seconds, n_rows, timed_passes):
        # keys are drawn without replacement so the row cache never hits
        return min(
            super().statements_per_pass(seconds, n_rows, timed_passes),
            n_rows // (1 + timed_passes),
        )

    def generator(self, tables, rng, per_pass, passes):
        keys = iter(rng.sample([row["eid"] for row in tables["Employees"]], per_pass * passes))
        return lambda cls: f"SELECT * FROM Employees WHERE eid = {next(keys)}"


class RangeScan(Workload):
    name = "range_scan"
    why = ("~400-row salary BETWEEN scans, distinct bounds: reconstruction, decode and "
           "payload accounting dominate, providers idle; the opposite of point_lookup")
    per_pass = 8
    classes = {"scan": 1}

    def generator(self, tables, rng, per_pass, passes):
        salaries = _Salaries(tables["Employees"])
        width = salaries.width(0.02)
        # a window may not overlap any window whose rows can still sit in
        # the row cache, so neither cache level ever hits; the margin
        # keeps boundary salary ties from sharing rows
        margin = max(2, width // 8)
        live_windows = RowCache().row_capacity // width + 2
        recent: List[int] = []

        def draw(cls: str) -> str:
            for _ in range(10_000):
                start = rng.randrange(len(salaries.ranked) - width)
                if all(abs(start - other) >= width + margin for other in recent):
                    break
            else:
                raise RuntimeError("range_scan: no cache-disjoint window left; fewer statements")
            recent.append(start)
            del recent[:-live_windows]
            low, high = salaries.window(start, 0.02)
            return ("SELECT eid, name, department, salary FROM Employees "
                    f"WHERE salary BETWEEN {low} AND {high}")

        return draw


class Analytics(Workload):
    name = "analytics"
    why = ("six aggregate/top-k/join classes with a handful of result cells: provider "
           "execution is the bill and client decode is idle")
    uses_managers = True
    per_pass = 18
    classes = {"sum": 1, "avg": 1, "count": 1, "group_by": 1, "topk": 1, "join": 1}

    def generator(self, tables, rng, per_pass, passes):
        salaries = _Salaries(tables["Employees"])
        strata = self.strata(rng, per_pass)
        # the join filter is placed by rank among the *managers'* salaries, so
        # every seed joins 30-50 rows however its managers happened to be drawn
        manager_eids = {row["eid"] for row in tables["Managers"]}
        manager_salaries = sorted(
            row["salary"] for row in tables["Employees"] if row["eid"] in manager_eids
        )

        def draw(cls: str) -> str:
            u = strata[cls].draw()
            if cls == "sum":
                return ("SELECT SUM(salary) FROM Employees "
                        f"WHERE salary >= {salaries.quantile(u, 0.05, 0.95)}")
            if cls == "avg":
                low, high = salaries.window_at(u, 0.25)
                return f"SELECT AVG(salary) FROM Employees WHERE salary BETWEEN {low} AND {high}"
            if cls == "count":
                return ("SELECT COUNT(*) FROM Employees "
                        f"WHERE department = '{rng.choice(_DEPARTMENTS)}' "
                        f"AND salary >= {salaries.quantile(u, 0.05, 0.95)}")
            if cls == "group_by":
                return ("SELECT department, SUM(salary) FROM Employees "
                        f"WHERE salary >= {salaries.quantile(u, 0.05, 0.95)} "
                        "GROUP BY department")
            if cls == "topk":
                return ("SELECT eid, name, salary FROM Employees "
                        f"WHERE salary <= {salaries.quantile(u, 0.2, 1.0)} "
                        "ORDER BY salary DESC LIMIT 10")
            floor = manager_salaries[-min(30 + int(u * 21), len(manager_salaries))]
            return ("SELECT Employees.name, Employees.salary, Managers.manager_id "
                    "FROM Employees JOIN Managers ON Employees.eid = Managers.eid "
                    f"WHERE Employees.salary >= {floor}")

        return draw


class OltpMix(Workload):
    name = "oltp_mix"
    why = ("Zipf-hot reads beside 10% writes through TransactionManager: every write bumps "
           "the epoch, so a read-side gain paid for on the write path (or vice versa) shows")
    per_pass = 100
    # the exact mix needs a 100-statement cycle, so the passes are fewer and longer
    timed_passes = 4
    # 65% point, 25% narrow range, 5% UPDATE, 3% INSERT, 2% DELETE
    classes = {"point": 65, "range": 25, "update": 5, "insert": 3, "delete": 2}
    labels = {"point": "read", "range": "read",
              "update": "write", "insert": "write", "delete": "write"}
    writes = True
    hot_keys = 200

    def deploy(self, tables, seed, out_dir):
        deployment = super().deploy(tables, seed, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        wal_path = os.path.join(out_dir, f"{self.name}.{os.getpid()}.wal")
        manager = TransactionManager(deployment.sources[0], wal_path=wal_path)
        deployment.manager = deployment.front = manager
        deployment.entry = "execute"
        deployment.cleanup += [manager.close, lambda: os.remove(wal_path)]
        return deployment

    def generator(self, tables, rng, per_pass, passes):
        employees = tables["Employees"]
        salaries = _Salaries(employees)
        eids = [row["eid"] for row in employees]
        hot = rng.sample(eids, min(self.hot_keys, len(eids) // 2))
        hot_set = set(hot)
        zipf = [1.0 / (rank ** 1.1) for rank in range(1, len(hot) + 1)]
        # which *rank* each statement asks for is part of the workload, like
        # the class order: every seed repeats statements (and so hits the row
        # cache) in the same pattern, only the keys behind the ranks differ
        ranks = random.Random(len(hot))
        # each hot key owns one fixed 0.3%-rank salary window, so range
        # statements repeat exactly as often as point statements do
        windows = {
            eid: salaries.window(rng.randrange(len(eids)), 0.003) for eid in hot
        }
        cold = iter(rng.sample([eid for eid in eids if eid not in hot_set], len(eids) // 4))
        taken = set(eids)
        fresh = iter([
            eid for eid in rng.sample(range(1, 1_000_001), per_pass * passes + len(eids))
            if eid not in taken
        ])

        def hot_key() -> int:
            return ranks.choices(hot, weights=zipf)[0]

        def draw(cls: str) -> str:
            if cls == "point":
                return f"SELECT * FROM Employees WHERE eid = {hot_key()}"
            if cls == "range":
                low, high = windows[hot_key()]
                return ("SELECT eid, name, department, salary FROM Employees "
                        f"WHERE salary BETWEEN {low} AND {high}")
            if cls == "update":
                salary = salaries.quantile(rng.random(), 0.0, 1.0)
                return f"UPDATE Employees SET salary = {salary} WHERE eid = {hot_key()}"
            if cls == "insert":
                return (f"INSERT INTO Employees ({_EMPLOYEE_COLUMNS}) VALUES "
                        f"({next(fresh)}, 'BENCH', 'ROW', '{rng.choice(_DEPARTMENTS)}', "
                        f"{salaries.quantile(rng.random(), 0.0, 1.0)})")
            return f"DELETE FROM Employees WHERE eid = {next(cold)}"

        return draw


class _Loader:
    """``bulk_load``'s operation: create the table on first use, then ``insert_many``."""

    def __init__(self, source: DataSource, schemas: Dict[str, object]) -> None:
        self.source, self.schemas = source, schemas

    def load(self, payload: Tuple[str, List[dict]]) -> List[int]:
        table, rows = payload
        if table not in self.source.table_names():
            self.source.create_table(self.schemas[table])
        return self.source.insert_many(table, rows)


class BulkLoad(Workload):
    name = "bulk_load"
    why = ("create_table + insert_many of both tables in 200-row batches on a fresh "
           "cluster: the write-side twin of range_scan and every other workload's setup_s")
    uses_managers = True
    classes = {"write": 1}
    timed_passes = 1
    writes = True
    preloaded = False
    batch_rows = 200

    def statements_per_pass(self, seconds, n_rows, timed_passes):
        return 0  # the table size is fixed; one pass loads all of it

    def deploy(self, tables, seed, out_dir):
        # a 1-batch throw-away deployment warms split kernels and the pool
        warm = DataSource(ProviderCluster(n_providers=N_PROVIDERS, threshold=THRESHOLD), seed=seed)
        employees = tables["Employees"]
        warm.create_table(employees.schema)
        warm.insert_many("Employees", employees.rows()[: self.batch_rows])

        cluster = ProviderCluster(n_providers=N_PROVIDERS, threshold=THRESHOLD)
        source = DataSource(cluster, seed=seed)
        loader = _Loader(source, {name: table.schema for name, table in tables.items()})
        return Deployment(loader, "load", [source], lambda: cluster.network.modelled_seconds)

    def batches(self, tables, rng, per_pass, timed_passes):
        load = [
            Op("write", (name, rows[start:start + self.batch_rows]))
            for name, rows in ((name, table.rows()) for name, table in tables.items())
            for start in range(0, len(rows), self.batch_rows)
        ]
        return [[], load]


class ShardedMix(Workload):
    name = "sharded_mix"
    why = ("the statement classes of the first three workloads through ShardRouter over "
           "four groups: a router-only change moves this and not the unsharded workloads")
    per_pass = 40
    classes = {"scan": 1, "point": 1, "sum": 1, "group_by": 1}
    n_groups = 4

    def deploy(self, tables, seed, out_dir):
        router = ShardRouter.build(
            n_groups=self.n_groups, providers_per_group=N_PROVIDERS,
            threshold=THRESHOLD, seed=seed,
        )
        for table in tables.values():
            router.outsource_table(table)
        return Deployment(
            router, "sql", [group.source for group in router.groups],
            router.modelled_network_seconds, router=router, cleanup=[router.close],
        )

    def generator(self, tables, rng, per_pass, passes):
        employees = tables["Employees"]
        salaries = _Salaries(employees)
        strata = self.strata(rng, per_pass)
        keys = iter(rng.sample(
            [row["eid"] for row in employees], min(per_pass * passes, len(employees))
        ))

        def draw(cls: str) -> str:
            if cls == "scan":
                low, high = salaries.window_at(strata[cls].draw(), 0.01)
                return ("SELECT eid, name, department, salary FROM Employees "
                        f"WHERE salary BETWEEN {low} AND {high}")
            if cls == "point":
                return f"SELECT * FROM Employees WHERE eid = {next(keys)}"
            if cls == "sum":
                return ("SELECT SUM(salary) FROM Employees "
                        f"WHERE salary >= {salaries.quantile(strata[cls].draw(), 0.05, 0.95)}")
            return "SELECT COUNT(*) FROM Employees GROUP BY department"

        return draw


WORKLOADS: Sequence[Workload] = (
    PointLookup(), RangeScan(), Analytics(), OltpMix(), BulkLoad(), ShardedMix(),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}
