"""EXP-T2 — range-query transfer vs selectivity (Sec. V-A "Range Queries").

The paper's key contrast: order-preserving shares let providers return
*exactly* the matching tuples, while bucketization returns a superset
whose looseness grows as selectivity shrinks ("privacy performance
tradeoff", Sec. II-A).  Row encryption always ships everything.

The table reports, per selectivity: rows matched, KB moved per model, and
the measured superset factor for bucketization next to its analytic
prediction 1 + 1/(s·B).
"""

import pytest

from repro import Select, parse_sql
from repro.bench.metrics import measure_encrypted_query, measure_share_query
from repro.bench.reporting import record_experiment
from repro.sqlengine.expression import Between

# salary ranges around the clamped-normal distribution's mean, narrow to
# wide; each row is labelled with the fraction of the table it matched
SALARY_RANGES = [
    (59_900, 60_100),
    (59_000, 61_000),
    (55_000, 65_000),
    (40_000, 80_000),
]


def _sweep(share_system, encrypted_systems, table_rows):
    rows = []
    for low, high in SALARY_RANGES:
        query = Select("Employees", where=Between("salary", low, high))
        share = measure_share_query(share_system, query)
        matched = share.result_rows
        entry = {
            "selectivity": f"{100 * matched / table_rows:.2f}%",
            "matched rows": matched,
            "share KB": round(share.bytes_transferred / 1024, 1),
        }
        for name, client in encrypted_systems.items():
            measurement = measure_encrypted_query(client, query, name)
            entry[f"{name} KB"] = round(measurement.bytes_transferred / 1024, 1)
            if name == "bucketization":
                blobs = measurement.client_ops.get("cipher_block", 0)
                # blocks decrypted / blocks strictly needed ≈ superset factor
                entry["bucket superset"] = (
                    round(blobs / max(1, matched * _blocks_per_row()), 2)
                )
        rows.append(entry)
    return rows


def _blocks_per_row():
    # employees rows serialise to ~11 blocks; derived once for the ratio
    from repro.baselines.cipher import serialize_row
    from repro.workloads.employees import employees_table

    sample = employees_table(1, seed=1).rows()[0]
    return max(1, (len(serialize_row(sample)) + 8) // 8)


def test_range_selectivity_table(
    benchmark, share_system, encrypted_systems, shared_workload
):
    table_rows = len(shared_workload[0].rows())
    rows = benchmark.pedantic(
        lambda: _sweep(share_system, encrypted_systems, table_rows),
        rounds=1,
        iterations=1,
    )
    record_experiment(
        "EXP-T2",
        "Range-query transfer vs selectivity (N=2000, buckets=32)",
        rows,
    )
    # shape: share model's bytes track the matched rows; row encryption is
    # flat at ~full table; bucket superset factor shrinks as ranges widen
    narrow, wide = rows[0], rows[-1]
    assert narrow["share KB"] < wide["share KB"]
    assert narrow["row-encryption KB"] == pytest.approx(
        wide["row-encryption KB"], rel=0.05
    )
    assert narrow["bucket superset"] >= wide["bucket superset"]


def test_range_share_latency(benchmark, share_system):
    query = parse_sql(
        "SELECT * FROM Employees WHERE salary BETWEEN 55000 AND 65000"
    )
    benchmark(lambda: share_system.select(query))


def test_range_ope_latency(benchmark, encrypted_systems):
    query = parse_sql(
        "SELECT * FROM Employees WHERE salary BETWEEN 55000 AND 65000"
    )
    client = encrypted_systems["ope"]
    benchmark(lambda: client.select(query))
