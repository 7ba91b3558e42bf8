"""A full application scenario exercising the public API end to end:
outsource → query (all classes) → join → update (eager + lazy) → delete →
verify, mirroring the README quickstart and the paper's Sec. III workload.
"""


from repro import (
    DataSource,
    JoinSelect,
    ProviderCluster,
    Select,
    Update,
)
from repro.client.updates import LazyUpdateBuffer
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Between, Comparison, ComparisonOp
from repro.sqlengine.table import Table
from repro.workloads.employees import employees_table, managers_table


def test_full_lifecycle():
    # ------------------------------------------------ setup: two engines --
    employees = employees_table(150, seed=91)
    managers = managers_table(employees, fraction=0.15, seed=91)
    catalog = Catalog()
    catalog.add_table(Table(employees.schema, employees.rows()))
    catalog.add_table(Table(managers.schema, managers.rows()))
    oracle = PlaintextExecutor(catalog)

    cluster = ProviderCluster(5, 3)
    source = DataSource(cluster, seed=91)
    source.outsource_table(employees)
    source.outsource_table(managers)

    def check(sql_text):
        from repro import parse_sql

        query = parse_sql(sql_text)
        mine = source.execute(query)
        truth = oracle.execute(query)
        if isinstance(truth, list):
            assert rows_equal_unordered(mine, truth), sql_text
        else:
            assert mine == truth, sql_text

    # ------------------------------------------------------- read phase --
    check("SELECT name, salary FROM Employees WHERE salary BETWEEN 30000 AND 70000")
    check("SELECT * FROM Employees WHERE department = 'ENG'")
    check("SELECT COUNT(*) FROM Employees WHERE name LIKE 'A%'")
    check("SELECT SUM(salary) FROM Employees WHERE department = 'SALES'")
    check("SELECT MEDIAN(salary) FROM Employees")

    # ---------------------------------------------------------- join ------
    join = JoinSelect(
        "Employees", "Managers", "eid", "eid",
        columns=("Employees.name", "Employees.salary"),
    )
    assert rows_equal_unordered(source.join(join), oracle.execute(join))

    # -------------------------------------------------------- writes ------
    check("UPDATE Employees SET salary = 90000 WHERE salary > 85000")
    check("DELETE FROM Employees WHERE department = 'LEGAL'")
    check("INSERT INTO Employees (eid, name, lastname, department, salary) "
          "VALUES (999001, 'ZANE', 'DOE', 'ENG', 45000)")
    check("SELECT COUNT(*) FROM Employees")
    check("SELECT AVG(salary) FROM Employees WHERE department = 'ENG'")

    # -------------------------------------------------- lazy update phase --
    buffer = LazyUpdateBuffer(source)
    buffer.enqueue(
        Update("Employees", {"department": "RND"},
               Between("salary", 40000, 50000))
    )
    preview = buffer.read_through(
        Select("Employees", where=Comparison("department", ComparisonOp.EQ, "RND"))
    )
    buffer.flush()
    oracle.execute(
        Update("Employees", {"department": "RND"},
               Between("salary", 40000, 50000))
    )
    check("SELECT COUNT(*) FROM Employees WHERE department = 'RND'")
    committed = source.sql("SELECT * FROM Employees WHERE department = 'RND'")
    assert len(preview) == len(committed)

    # ----------------------------------------------------- trust phase ----
    # a provider turns malicious: checked reads outvote it and quarantine it
    cluster.inject_fault(2, Fault(FailureMode.TAMPER, rate=0.3, seed=91))
    source.verified_reads = True
    everyone = Select("Employees", where=Between("salary", 0, 10**6))
    assert rows_equal_unordered(source.select(everyone), oracle.execute(everyone))
    assert cluster.health.is_quarantined(2)
    check("SELECT SUM(salary) FROM Employees WHERE department = 'ENG'")

    # ------------------------------------------------- accounting sanity --
    assert cluster.network.total_messages > 0
    assert cluster.network.total_bytes > 0
    assert source.cost.count("poly_eval") > 0
    assert source.cost.count("interpolate") > 0
