"""The provider's vector engine serves the repo's own workload shapes.

``providers.provider.vectorized_rpc_share`` once read 0.0 on every
end-to-end workload without any test noticing: the engine mirrored
columns as ``uint64`` and silently declined the 90–122-bit
order-preserving shares every searchable column stores.  These tests go
through the public API (``DataSource`` over a ``ProviderCluster``, the
``Employees``/``Managers`` tables the benchmark uses) so that cannot
happen silently again:

* one statement of each ``analytics`` class — SUM, AVG, two-condition
  COUNT, GROUP BY SUM, top-k and the join — must agree with the
  plaintext executor; the five the provider executes on mirrors must be
  answered by the numpy engine at ≥ 0.9 of the vector-eligible RPCs, and
  the join must probe the build side's equality map, built once;
* point lookups and narrow ranges must build no mirror, entry-slot array
  or join map at any provider, before or after writes (a write used to
  cost every index one failed O(rows) mirror rebuild on its next read),
  and a wide aggregate builds each mirror it needs exactly once per
  table version.

numpy leg only: without the backend there is one engine and no mirrors.
"""

import pytest

from repro import DataSource, ProviderCluster, parse_sql, telemetry
from repro.core import kernels
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.table import Table
from repro.workloads.employees import employees_table, managers_table

pytestmark = pytest.mark.skipif(
    kernels.active_backend() != "numpy",
    reason="the vector engine needs the numpy backend (repro[fast])",
)

N_ROWS = 1_000


@pytest.fixture(scope="module")
def tables():
    employees = employees_table(n_rows=N_ROWS, seed=17)
    return employees, managers_table(employees, 0.1, seed=17)


def deploy(tables, n_providers=5, threshold=3):
    cluster = ProviderCluster(n_providers=n_providers, threshold=threshold)
    source = DataSource(cluster, seed=17)
    for table in tables:
        source.outsource_table(table)
    return cluster, source


def mirror_builds(cluster):
    """Every nonzero mirror / map build counter at every provider:
    ``{(provider, table, counter): builds}``."""
    out = {}
    for position, provider in enumerate(cluster.providers):
        for name in provider.store.table_names():
            table = provider.store.table(name)
            counters = {
                "values": table.vector_rebuilds,
                "entry-slots": table.entry_slot_builds,
            }
            for column, index in table.indexes.items():
                counters[f"order:{column}"] = index.vector_rebuilds
                counters[f"join-map:{column}"] = index.equality_map_builds
            out.update(
                ((position, name, counter), builds)
                for counter, builds in counters.items() if builds
            )
    return out


def test_analytics_classes_dispatch_vectorized_and_match_the_oracle(tables):
    employees, managers = tables
    catalog = Catalog()
    catalog.add_table(Table(employees.schema, employees.rows()))
    catalog.add_table(Table(managers.schema, managers.rows()))
    oracle = PlaintextExecutor(catalog)
    salaries = sorted(row["salary"] for row in employees)
    median, low, high = salaries[500], salaries[300], salaries[550]
    statements = [
        f"SELECT SUM(salary) FROM Employees WHERE salary >= {median}",
        f"SELECT AVG(salary) FROM Employees WHERE salary BETWEEN {low} AND {high}",
        "SELECT COUNT(*) FROM Employees "
        f"WHERE department = 'ENG' AND salary >= {low}",
        "SELECT department, SUM(salary) FROM Employees "
        f"WHERE salary >= {low} GROUP BY department",
        "SELECT eid, name, salary FROM Employees "
        f"WHERE salary <= {high} ORDER BY salary DESC LIMIT 10",
    ]
    manager_eids = {row["eid"] for row in managers}
    manager_salaries = sorted(
        row["salary"] for row in employees if row["eid"] in manager_eids
    )
    join = (
        "SELECT Employees.name, Employees.salary, Managers.manager_id "
        "FROM Employees JOIN Managers ON Employees.eid = Managers.eid "
        f"WHERE Employees.salary >= {manager_salaries[-30]}"
    )
    cluster, source = deploy(tables)
    with telemetry.session():
        answers = [source.sql(sql) for sql in statements]
        counters = telemetry.hub().export()["metrics"]["counters"]
    for sql, answer in zip(statements, answers):
        assert answer == oracle.execute(parse_sql(sql)), sql
    joined = source.sql(join)
    assert len(joined) >= 30
    assert joined == oracle.execute(parse_sql(join))
    # the join's provider work is a probe of the build side's equality map,
    # one build per answering provider; a second join reuses it
    source.row_cache.clear()
    assert source.sql(join) == joined
    maps = {
        key: builds for key, builds in mirror_builds(cluster).items()
        if key[2].startswith("join-map")
    }
    assert len(maps) >= 3 and set(maps.values()) == {1}
    assert {key[1:] for key in maps} == {("Managers", "join-map:eid")}
    dispatched = {
        backend: sum(
            count for key, count in counters.items()
            if key.startswith("provider.kernel.dispatch{")
            and f"backend={backend}," in key
        )
        for backend in ("numpy", "scalar")
    }
    total = dispatched["numpy"] + dispatched["scalar"]
    assert total >= 3 * len(statements)  # a quorum of three per statement
    assert dispatched["numpy"] >= 0.9 * total, dispatched


def test_point_lookups_build_no_mirror(tables):
    employees, _ = tables
    cluster, source = deploy(tables)
    assert mirror_builds(cluster) == {}
    with telemetry.session():
        for row in employees.rows()[::97]:
            found = source.sql(
                f"SELECT * FROM Employees WHERE eid = {row['eid']}"
            )
            assert found == [row]
        counters = telemetry.hub().export()["metrics"]["counters"]
    assert mirror_builds(cluster) == {}
    assert not [
        key for key in counters
        if key.startswith("provider.kernel.dispatch{")
        and "backend=numpy," in key
    ]


def test_writes_cost_narrow_reads_no_mirror_rebuild(tables):
    """UPDATE / INSERT / DELETE, each followed by a point and a narrow
    range read at every provider: nothing is mirrored.  Then wide SUMs
    build the salary mirrors once per table version, and only those."""
    employees, _ = tables
    # k = n: every read reaches every provider
    cluster, source = deploy(tables, n_providers=3, threshold=3)
    rows = employees.rows()
    salaries = sorted(row["salary"] for row in rows)
    narrow = (salaries[400], salaries[409])
    point = rows[123]["eid"]
    assert mirror_builds(cluster) == {}
    writes = [
        f"UPDATE Employees SET salary = {salaries[10]} WHERE eid = {rows[7]['eid']}",
        "INSERT INTO Employees (eid, name, lastname, department, salary) "
        f"VALUES (999999, 'NEW', 'ROW', 'ENG', {salaries[20]})",
        f"DELETE FROM Employees WHERE eid = {rows[5]['eid']}",
    ]
    for write in writes:
        source.sql(write)
        assert len(source.sql(f"SELECT * FROM Employees WHERE eid = {point}")) == 1
        matched = source.sql(
            "SELECT eid, salary FROM Employees "
            f"WHERE salary BETWEEN {narrow[0]} AND {narrow[1]}"
        )
        assert 0 < 16 * len(matched) < N_ROWS  # narrow by the engine's rule
        assert mirror_builds(cluster) == {}, write

    def wide_sum(threshold_rank):
        return source.sql(
            "SELECT SUM(salary) FROM Employees "
            f"WHERE salary >= {salaries[threshold_rank]}"
        )

    def salary_mirrors_built(times):
        return {
            (position, "Employees", counter): times
            for position in range(3)
            for counter in ("values", "entry-slots", "order:salary")
        }

    assert wide_sum(500) > wide_sum(600)  # distinct predicates: no cache hit
    assert mirror_builds(cluster) == salary_mirrors_built(1)
    source.sql(writes[0].replace(str(salaries[10]), str(salaries[11])))
    assert wide_sum(500) > wide_sum(600)
    assert mirror_builds(cluster) == salary_mirrors_built(2)
