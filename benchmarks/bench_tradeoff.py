"""EXP-T1–T4, T10: the computation-vs-communication trade-off (Sec. V-A).

The evaluation the paper defers, as one sweep: each query class runs on
the share cluster and on three encryption baselines (row encryption,
bucketization, OPE) over the same tables, priced on the same axes
(:mod:`repro.bench.metrics`); ``test_latency[class-system]`` times one
cold statement per query class and system.
"""

import functools

import pytest

from repro import DataSource, JoinSelect, ProviderCluster, Select, parse_sql
from repro.baselines.cipher import serialize_row
from repro.baselines.encryption import BucketizationClient, OPEClient, RowEncryptionClient
from repro.bench.metrics import measure_encrypted_query, measure_share_query
from repro.bench.reporting import record_experiment
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Between
from repro.workloads.employees import employees_table, managers_table

SEED = 2009  # the paper's year
SHARE = "secret-sharing"

#: every system of the sweep, built empty for n providers and threshold k
SYSTEMS = {
    SHARE: lambda n, k: DataSource(ProviderCluster(n, k), seed=SEED),
    "row-encryption": lambda n, k: RowEncryptionClient(),
    "bucketization": lambda n, k: BucketizationClient(n_buckets=32),
    "ope": lambda n, k: OPEClient(),
}
BASELINES = [name for name in SYSTEMS if name != SHARE]

#: EXP-T2: salary ranges around the distribution's mean, narrow to wide
SALARY_RANGES = [(59_900, 60_100), (59_000, 61_000), (55_000, 65_000), (40_000, 80_000)]

#: EXP-T3: the paper's aggregate query classes, on realistic payroll
AGGREGATE_QUERIES = {
    "SUM over exact match": "SELECT SUM(salary) FROM Employees WHERE department = 'ENG'",
    "AVG over exact match": "SELECT AVG(salary) FROM Employees WHERE name = 'JOHN'",
    "SUM over range": "SELECT SUM(salary) FROM Employees WHERE salary BETWEEN 20000 AND 40000",
    "MIN over exact match": "SELECT MIN(salary) FROM Employees WHERE department = 'SALES'",
    "MAX over range": "SELECT MAX(salary) FROM Employees WHERE salary BETWEEN 20000 AND 80000",
    "MEDIAN over range": "SELECT MEDIAN(salary) FROM Employees WHERE salary BETWEEN 20000 AND 80000",
    "COUNT over range": "SELECT COUNT(*) FROM Employees WHERE salary BETWEEN 20000 AND 80000",
}

#: EXP-T4: "salaries of all managers"
JOIN = JoinSelect("Employees", "Managers", "eid", "eid",
                  columns=("Employees.name", "Employees.salary"))

#: EXP-T10: a range of ~fixed selectivity, over growing N and n
RANGE = Select("Employees", where=Between("salary", 45_000, 75_000))
SIZES = [500, 1_000, 2_000, 4_000]
PROVIDER_COUNTS = [3, 5, 7, 9]


def outsource(system, tables, n=5, k=3):
    """One system of the sweep, built for (n, k), holding ``tables``."""
    built = SYSTEMS[system](n, k)
    for table in tables:
        built.outsource_table(table)
    return built


def deploy(tables, n=5, k=3):
    """The share cluster and the three baselines over the same tables."""
    return {system: outsource(system, tables, n, k) for system in SYSTEMS}


def measure(systems, name, query):
    """The cost of one cold answer to ``query`` from ``systems[name]``."""
    if name == SHARE:
        return measure_share_query(systems[name], query)
    return measure_encrypted_query(systems[name], query, name)


def kilobytes(measurement, digits):
    return round(measurement.bytes_transferred / 1024, digits)


def record_table(benchmark, experiment_id, title, sweep):
    """Run ``sweep`` once under the benchmark fixture and record its rows."""
    rows = benchmark.pedantic(lambda: list(sweep()), rounds=1, iterations=1)
    record_experiment(experiment_id, title, rows)
    return rows


@pytest.fixture(scope="module")
def tables():
    employees = employees_table(2_000, seed=SEED)
    return employees, managers_table(employees, 0.1, seed=SEED)


@pytest.fixture(scope="module")
def systems(tables):
    return deploy(tables)


@pytest.fixture(scope="module")
def sized():
    """Employees-only deployments of ``n_rows`` rows, each built once."""
    return functools.cache(lambda n_rows: deploy([employees_table(n_rows, seed=SEED)]))


@pytest.fixture(scope="module")
def oracle(tables):
    catalog = Catalog()
    for table in tables:
        catalog.add_table(table)
    return PlaintextExecutor(catalog)


@pytest.fixture(scope="module")
def exact_query(tables):
    """A point predicate on a salary the table holds: its median one."""
    salaries = sorted(row["salary"] for row in tables[0].rows())
    return f"SELECT * FROM Employees WHERE salary = {salaries[len(salaries) // 2]}"


def test_exact_match_table(benchmark, systems, exact_query):
    query = parse_sql(exact_query)
    rows = record_table(
        benchmark, "EXP-T1", f"Exact-match cost, {exact_query!r} (N=2000, n=5, k=3)",
        lambda: (measure(systems, name, query).as_row() for name in SYSTEMS))
    by_system = {row["system"]: row for row in rows}
    # every system answers the same non-empty match
    assert len({row["rows"] for row in rows}) == 1 and rows[0]["rows"] > 0
    # row encryption ships the table; the share model and OPE ship only
    # matches (+ per-provider replication for shares)
    assert by_system["row-encryption"]["KB"] > 10 * by_system["ope"]["KB"]
    assert by_system[SHARE]["KB"] < by_system["row-encryption"]["KB"]
    assert by_system["bucketization"]["KB"] >= by_system["ope"]["KB"]


def test_range_selectivity_table(benchmark, systems, tables):
    def sweep():
        # cipher blocks of one serialised employees row
        row_blocks = (len(serialize_row(employees_table(1, seed=1).rows()[0])) + 8) // 8
        for low, high in SALARY_RANGES:
            query = Select("Employees", where=Between("salary", low, high))
            share = measure(systems, SHARE, query)
            matched = share.result_rows
            entry = {"selectivity": f"{100 * matched / len(tables[0].rows()):.2f}%",
                     "matched rows": matched, "share KB": kilobytes(share, 1)}
            for name in BASELINES:
                measurement = measure(systems, name, query)
                entry[f"{name} KB"] = kilobytes(measurement, 1)
                if name == "bucketization":
                    # blocks decrypted / blocks strictly needed ≈ superset factor
                    blocks = measurement.client_ops.get("cipher_block", 0)
                    entry["bucket superset"] = round(blocks / max(1, matched * row_blocks), 2)
            yield entry
    rows = record_table(
        benchmark, "EXP-T2", "Range-query transfer vs selectivity (N=2000, buckets=32)", sweep)
    # the share model's bytes track the matched rows; row encryption is
    # flat at ~full table; the bucket superset shrinks as ranges widen
    narrow, wide = rows[0], rows[-1]
    assert narrow["share KB"] < wide["share KB"]
    assert narrow["row-encryption KB"] == pytest.approx(wide["row-encryption KB"], rel=0.05)
    assert narrow["bucket superset"] >= wide["bucket superset"]


def test_aggregate_table(benchmark, systems, oracle):
    # correctness gate before costing anything
    for sql in AGGREGATE_QUERIES.values():
        truth, mine = oracle.execute(parse_sql(sql)), systems[SHARE].select(parse_sql(sql))
        assert mine == (pytest.approx(truth) if isinstance(truth, float) else truth), sql

    def sweep():
        for label, sql in AGGREGATE_QUERIES.items():
            query = parse_sql(sql)
            share = measure(systems, SHARE, query)
            entry = {"aggregate": label, "share KB": kilobytes(share, 2),
                     "share client ops": sum(share.client_ops.values())}
            for name in BASELINES:
                entry[f"{name} KB"] = kilobytes(measure(systems, name, query), 2)
            yield entry
    rows = record_table(
        benchmark, "EXP-T3", "Aggregates: provider-side partials (share) vs decrypt-all (enc)",
        sweep)
    # share SUM moves orders of magnitude fewer bytes than any encryption
    # model, which must ship the candidate tuples
    sum_row = rows[2]  # SUM over range
    assert sum_row["share KB"] * 10 < sum_row["row-encryption KB"]
    assert sum_row["share KB"] * 5 < sum_row["ope KB"]


def test_join_table(benchmark, systems, oracle):
    truth = oracle.execute(JOIN)
    for name in SYSTEMS:
        assert rows_equal_unordered(systems[name].join(JOIN), truth), name
    rows = record_table(
        benchmark, "EXP-T4", "Employees ⋈ Managers on eid (|M|/|E| = 10%, N=2000)",
        lambda: (measure(systems, name, JOIN).as_row() for name in SYSTEMS))
    by_system = {row["system"]: row for row in rows}
    # row encryption downloads both tables; the server-joining models move
    # only the join result (+ replication factor for shares)
    assert by_system["row-encryption"]["KB"] > 3 * by_system["ope"]["KB"]
    assert by_system[SHARE]["KB"] < by_system["row-encryption"]["KB"]


def test_size_scalability_table(benchmark, sized):
    def sweep():
        for n_rows in SIZES:
            share = measure(sized(n_rows), SHARE, RANGE)
            entry = {"N": n_rows, "matched": share.result_rows, "share KB": kilobytes(share, 1),
                     "share model sec": round(share.modelled_seconds(), 4)}
            for name in BASELINES:
                entry[f"{name} KB"] = kilobytes(measure(sized(n_rows), name, RANGE), 1)
            yield entry
    rows = record_table(
        benchmark, "EXP-T10a",
        "Scaling database size N (range query, fixed selectivity, n=5, k=3)", sweep)
    # both grow ~linearly with N, but the share model tracks *matches*
    # while row encryption tracks the table
    first, last = rows[0], rows[-1]
    assert last["share KB"] > first["share KB"]
    assert last["row-encryption KB"] > 6 * first["row-encryption KB"]


def test_provider_scalability_table(benchmark):
    def sweep():
        employees = employees_table(1_000, seed=SEED)
        for n in PROVIDER_COUNTS:
            k = (n + 1) // 2
            source = outsource(SHARE, [employees], n, k)
            load_mb = round(source.cluster.network.total_bytes / 1024 / 1024, 2)
            share = measure_share_query(source, RANGE)
            yield {"n providers": n, "k": k, "load MB": load_mb, "query KB": kilobytes(share, 1),
                   "query msgs": share.messages, "crash tolerance": n - k}
    rows = record_table(
        benchmark, "EXP-T10b",
        "Scaling provider count n (N=1000, k=⌈n/2⌉): redundancy vs cost", sweep)
    # load volume grows with n (one share per provider); *query* volume
    # grows with k only (reads use a quorum), so it grows slower
    assert rows[-1]["load MB"] > 2 * rows[0]["load MB"]
    load_growth = rows[-1]["load MB"] / rows[0]["load MB"]
    query_growth = rows[-1]["query KB"] / rows[0]["query KB"]
    assert query_growth < load_growth


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", ["load", "exact", "range", "sum", "median", "join"])
def test_latency(benchmark, kind, system, systems, sized, exact_query):
    if kind == "load":
        employees = employees_table(1_000, seed=SEED)
        target = benchmark.pedantic(outsource, args=(system, [employees]), rounds=3)
    else:
        query = {
            "exact": parse_sql(exact_query),
            "range": RANGE,  # over 4,000 rows
            "sum": parse_sql(AGGREGATE_QUERIES["SUM over range"]),
            "median": parse_sql("SELECT MEDIAN(salary) FROM Employees"),
            "join": JOIN,
        }[kind]
        target = (sized(4_000) if kind == "range" else systems)[system]

        def cold():
            target.reset_accounting()
            if system == SHARE:
                target.row_cache.clear()

        answer = target.join if isinstance(query, JoinSelect) else target.select
        benchmark.pedantic(answer, args=(query,), setup=cold, rounds=3)
    if system == SHARE:
        # the last timed round reached the providers: it timed no cache hit
        assert target.cluster.network.total_messages > 0
