"""EXP-T1 — exact-match query cost across models (Sec. V-A "Exact Match").

The evaluation the paper defers: for a point predicate, compare the
secret-sharing cluster against row encryption, bucketization, and OPE on
communication volume and client/server computation.

Expected shape: share model and OPE transfer only matching tuples (share
model over k providers, so ~k× OPE's bytes); bucketization transfers a
bucket superset; row encryption transfers the whole table and decrypts it
client-side.
"""

import pytest

from repro import parse_sql
from repro.bench.metrics import measure_encrypted_query, measure_share_query
from repro.bench.reporting import record_experiment


@pytest.fixture(scope="module")
def exact_query(shared_workload):
    """A point predicate on a salary the table holds: its median one."""
    employees, _ = shared_workload
    salaries = sorted(row["salary"] for row in employees.rows())
    return f"SELECT * FROM Employees WHERE salary = {salaries[len(salaries) // 2]}"


def _measurements(share_system, encrypted_systems, exact_query):
    query = parse_sql(exact_query)
    rows = [measure_share_query(share_system, query).as_row()]
    for name, client in encrypted_systems.items():
        rows.append(measure_encrypted_query(client, query, name).as_row())
    return rows


def test_exact_match_table(benchmark, share_system, encrypted_systems, exact_query):
    rows = benchmark.pedantic(
        lambda: _measurements(share_system, encrypted_systems, exact_query),
        rounds=1,
        iterations=1,
    )
    record_experiment(
        "EXP-T1",
        f"Exact-match cost, {exact_query!r} (N=2000, n=5, k=3)",
        rows,
    )
    by_system = {row["system"]: row for row in rows}
    # every system answers the same non-empty match
    assert len({row["rows"] for row in rows}) == 1 and rows[0]["rows"] > 0
    # shape assertions: row encryption ships the table; the share model
    # and OPE ship only matches (+ per-provider replication for shares)
    assert by_system["row-encryption"]["KB"] > 10 * by_system["ope"]["KB"]
    assert by_system["secret-sharing"]["KB"] < by_system["row-encryption"]["KB"]
    assert by_system["bucketization"]["KB"] >= by_system["ope"]["KB"]


def test_exact_match_share_latency(benchmark, share_system, exact_query):
    query = parse_sql(exact_query)
    benchmark(lambda: share_system.select(query))


@pytest.mark.parametrize("system", ["row-encryption", "bucketization", "ope"])
def test_exact_match_encrypted_latency(benchmark, encrypted_systems, system, exact_query):
    query = parse_sql(exact_query)
    client = encrypted_systems[system]
    benchmark(lambda: client.select(query))
