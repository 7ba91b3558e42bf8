"""Every provider read says how it found its rows.

A provider ``rpc`` span carries ``access_path``: ``index-probe`` (the
scalar engine bisected the conditions' indexes — a point lookup),
``entry-walk`` (the vector engine walked an index's entries in order —
ORDER BY and GROUP BY), ``mask`` (it filtered the slot arrays — SUM,
COUNT), ``scalar`` (the scalar engine with nothing to probe) and
``join-map`` (a join probed the build side's equality map).
``repro.cli trace`` prints it with the span's other attributes.  Without
the numpy backend the vector paths read as the scalar engine's.
"""

import io

import pytest

from repro import DataSource, ProviderCluster, telemetry
from repro.cli import main
from repro.core import kernels
from repro.workloads.employees import employees_table, managers_table

NUMPY = kernels.active_backend() == "numpy"

STATEMENTS = {
    "point": ("SELECT * FROM Employees WHERE eid = {eid}", "index-probe"),
    "topk": (
        "SELECT eid, salary FROM Employees WHERE salary <= {high} "
        "ORDER BY salary DESC LIMIT 5",
        "entry-walk" if NUMPY else "index-probe",
    ),
    "group_by": (
        "SELECT department, SUM(salary) FROM Employees "
        "WHERE salary >= {low} GROUP BY department",
        "entry-walk" if NUMPY else "index-probe",
    ),
    "sum": (
        "SELECT SUM(salary) FROM Employees WHERE salary >= {low}",
        "mask" if NUMPY else "index-probe",
    ),
    "count_all": ("SELECT COUNT(*) FROM Employees", "mask" if NUMPY else "scalar"),
    "join": (
        "SELECT Employees.name, Managers.manager_id FROM Employees "
        "JOIN Managers ON Employees.eid = Managers.eid "
        "WHERE Employees.salary >= {low}",
        "join-map",
    ),
}


@pytest.fixture(scope="module")
def deployment():
    """A source over 80 employees and the statements' literals."""
    employees = employees_table(80, seed=5)
    source = DataSource(ProviderCluster(n_providers=5, threshold=3), seed=5)
    source.outsource_table(employees)
    source.outsource_table(managers_table(employees, 0.3, seed=5))
    salaries = sorted(row["salary"] for row in employees)
    literals = {
        "eid": employees.rows()[7]["eid"],
        "low": salaries[20],
        "high": salaries[60],
    }
    return source, literals


@pytest.mark.parametrize("shape", sorted(STATEMENTS))
def test_rpc_spans_carry_the_access_path(deployment, shape):
    source, literals = deployment
    template, expected = STATEMENTS[shape]
    with telemetry.session() as hub:
        assert source.sql(template.format(**literals))
        rpcs = hub.tracer.last_trace().find("rpc")
    assert len(rpcs) == 3
    assert {rpc.attributes["access_path"] for rpc in rpcs} == {expected}


def test_cli_trace_prints_the_access_path():
    out = io.StringIO()
    code = main(
        ["trace", "--rows", "60",
         "SELECT eid FROM Employees WHERE salary >= 0 ORDER BY salary LIMIT 3"],
        out=out,
    )
    assert code == 0
    walked = "access_path=entry-walk" if NUMPY else "access_path=index-probe"
    rpc_lines = [line for line in out.getvalue().splitlines() if " rpc [" in line]
    assert len(rpc_lines) == 3
    assert all(walked in line for line in rpc_lines)
