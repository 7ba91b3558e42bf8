"""Shared builders for the sharding suite.

Small deployments (3 providers, k=2, 48 rows) keep the suite fast while
still exercising the full fan-out/merge machinery: two groups, both
workload tables, hash and range modes.
"""

from repro.client.datasource import DataSource
from repro.drills import plaintext_oracle
from repro.providers.cluster import ProviderCluster
from repro.service.sharding import ShardRouter
from repro.sqlengine.sqlparser import parse_sql
from repro.workloads.employees import employees_table, managers_table

ROWS = 48
SEED = 2009
PROVIDERS = 3
THRESHOLD = 2
MANAGER_FRACTION = 0.25


def workload_tables(rows=ROWS, seed=SEED):
    employees = employees_table(rows, seed=seed)
    managers = managers_table(employees, MANAGER_FRACTION, seed=seed)
    return employees, managers


def build_router(
    mode,
    n_groups=2,
    providers=PROVIDERS,
    threshold=THRESHOLD,
    rows=ROWS,
    seed=SEED,
):
    """A sharded deployment with both workload tables outsourced."""
    employees, managers = workload_tables(rows, seed)
    router = ShardRouter.build(
        n_groups=n_groups,
        providers_per_group=providers,
        threshold=threshold,
        seed=seed,
        mode=mode,
    )
    if mode == "range":
        router.outsource_table(employees, partition_column="eid")
        router.outsource_table(managers, partition_column="eid")
    else:
        router.outsource_table(employees)
        router.outsource_table(managers)
    return router


def build_unsharded(rows=ROWS, seed=SEED):
    """The same tables on one provider group behind a plain DataSource."""
    source = DataSource(ProviderCluster(PROVIDERS, THRESHOLD), seed=seed)
    for table in workload_tables(rows, seed):
        source.outsource_table(table)
    return source


def build_oracle(rows=ROWS, seed=SEED):
    return plaintext_oracle(*workload_tables(rows, seed))


def oracle_answer(oracle, text):
    return oracle.execute(parse_sql(text))


def sorted_eids(rows=ROWS, seed=SEED):
    employees, _ = workload_tables(rows, seed)
    return sorted(row["eid"] for row in employees.rows())


def all_row_ids(router, table="Employees"):
    return sorted(
        rid for ids in router.shard_row_ids(table).values() for rid in ids
    )
