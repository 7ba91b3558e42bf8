"""The paper's running example: Employees and Managers (Sec. III, V-A).

``Employees(eid, name, lastname, department, salary)`` and
``Managers(eid, manager_id, manager_username, password)`` with the
referential key ``eid`` shared between the tables — the join the paper
uses to demonstrate provider-side joins ("the salaries of all managers").

``eid`` carries the shared domain label ``"domain/eid"`` on both tables so
their order-preserving polynomials come from the same family, which is the
paper's join-compatibility condition.
"""

from __future__ import annotations


from ..sim.rng import DeterministicRNG
from ..sqlengine.schema import (
    ForeignKey,
    TableSchema,
    integer_column,
    string_column,
)
from ..sqlengine.table import Table
from .distributions import clamped_normal_int, distinct_ints

#: Domain label making Employees.eid and Managers.eid join-compatible.
EID_DOMAIN_LABEL = "domain/eid"

#: eid domain bounds shared by both tables (same domain ⇒ same polynomials).
EID_LO, EID_HI = 1, 1_000_000

#: Salary domain: the paper's examples use small salaries (10..80) but the
#: benchmarks use realistic payroll figures.
SALARY_LO, SALARY_HI = 0, 1_000_000

_FIRST_NAMES = [
    "JOHN", "MARY", "AHMED", "FATIH", "DIVYA", "AMR", "WEI", "SOFIA",
    "CARLOS", "NINA", "PETER", "AISHA", "OMAR", "JULIA", "KENJI", "LENA",
    "MARCO", "PRIYA", "IVAN", "ZOE",
]
_LAST_NAMES = [
    "SMITH", "AGRAWAL", "METWALLY", "EMEKCI", "ABBADI", "GARCIA", "CHEN",
    "KUMAR", "ROSSI", "TANAKA", "MULLER", "SILVA", "NOVAK", "HASSAN",
    "JONES", "LARSEN", "PETROV", "ADEYEMI", "DUBOIS", "KIM",
]
_DEPARTMENTS = [
    "SALES", "ENG", "HR", "LEGAL", "OPS", "FIN", "RND", "IT",
]


def employees_schema(name_width: int = 10) -> TableSchema:
    """Schema of the Employees table."""
    return TableSchema(
        name="Employees",
        columns=(
            integer_column("eid", EID_LO, EID_HI, domain_label=EID_DOMAIN_LABEL),
            string_column("name", name_width),
            string_column("lastname", name_width),
            string_column("department", 8),
            integer_column("salary", SALARY_LO, SALARY_HI),
        ),
        primary_key="eid",
    )


def managers_schema(name_width: int = 10) -> TableSchema:
    """Schema of the Managers table (passwords are randomly shared:
    ``searchable=False`` gives them information-theoretic secrecy and no
    provider-side filtering — they are payload, never predicates)."""
    return TableSchema(
        name="Managers",
        columns=(
            integer_column("eid", EID_LO, EID_HI, domain_label=EID_DOMAIN_LABEL),
            integer_column("manager_id", EID_LO, EID_HI),
            string_column("manager_username", name_width),
            string_column("password", 12, searchable=False),
        ),
        primary_key="eid",
        foreign_keys=(ForeignKey("eid", "Employees", "eid"),),
    )


def employees_table(
    n_rows: int,
    seed: int = 0,
    salary_mean: float = 60_000.0,
    salary_stddev: float = 25_000.0,
) -> Table:
    """Generate an Employees table with normal-clamped salaries."""
    rng = DeterministicRNG(seed, "workload/employees")
    salary = clamped_normal_int(
        rng.substream("salary"), salary_mean, salary_stddev, SALARY_LO, SALARY_HI
    )
    eids = distinct_ints(rng.substream("eid"), n_rows, EID_LO, EID_HI)
    names = rng.substream("names")
    rows = [
        {
            "eid": eid,
            "name": names.choice(_FIRST_NAMES),
            "lastname": names.choice(_LAST_NAMES),
            "department": names.choice(_DEPARTMENTS),
            "salary": salary(),
        }
        for eid in eids
    ]
    return Table(employees_schema(), rows)


def managers_table(
    employees: Table,
    fraction: float = 0.1,
    seed: int = 0,
) -> Table:
    """Promote a fraction of employees to managers (referential eids)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = DeterministicRNG(seed, "workload/managers")
    rows = employees.rows()
    count = max(1, int(len(rows) * fraction))
    chosen = rng.sample(rows, count)
    manager_ids = [row["eid"] for row in chosen]
    passwords = rng.substream("passwords")
    managers = [
        {
            "eid": row["eid"],
            "manager_id": rng.choice(manager_ids),
            "manager_username": (
                row["name"][:6]
                + rng.choice("ABCDEFGHIJ")
                + rng.choice("ABCDEFGHIJ")
            ),
            "password": "".join(
                passwords.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
                for _ in range(8)
            ),
        }
        for row in chosen
    ]
    return Table(managers_schema(), managers)


def paper_salary_table() -> Table:
    """The exact 5-salary table of Figure 1 ({10, 20, 40, 60, 80})."""
    schema = TableSchema(
        name="Employees",
        columns=(
            integer_column("eid", 1, 100),
            integer_column("salary", 0, 1_000),
        ),
        primary_key="eid",
    )
    rows = [
        {"eid": eid, "salary": salary}
        for eid, salary in enumerate([10, 20, 40, 60, 80], start=1)
    ]
    return Table(schema, rows)
