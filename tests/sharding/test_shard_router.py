"""Query parity and routing for :class:`ShardRouter`.

Every query shape the engine supports must return byte-identical results
through a sharded deployment — hash or range — as through the plaintext
oracle: fan-out partials (COUNT/SUM/AVG/MIN/MAX, grouped forms) merge
exactly, MEDIAN falls back to a row fetch, joins hash-join across
groups.  Both modes prune: a point query on the partition column must
touch only the owning group.
"""

import pytest

from repro.errors import ConfigurationError, SchemaError, UnsupportedQueryError
from repro.providers.cluster import ProviderCluster
from repro.client.datasource import DataSource
from repro.core.secrets import generate_client_secrets
from repro.service.sharding import ShardRouter
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import ShardedTransactionManager

from repro.workloads.employees import EID_LO

from tests import pipeline_runs
from tests.sharding.shardutil import (
    SEED,
    THRESHOLD,
    build_oracle,
    build_router,
    build_unsharded,
    oracle_answer,
    sorted_eids,
    workload_tables,
)

EIDS = sorted_eids()
MID = EIDS[len(EIDS) // 2]
#: a key no row holds
ABSENT = next(eid for eid in range(MID + 1, MID + 1000) if eid not in EIDS)

QUERY_SHAPES = {
    "point": f"SELECT * FROM Employees WHERE eid = {MID}",
    "range_pred": (
        "SELECT name, salary FROM Employees "
        "WHERE salary BETWEEN 200000 AND 700000 ORDER BY eid"
    ),
    "projection": f"SELECT name FROM Employees WHERE eid = {MID}",
    "partition_range": f"SELECT name FROM Employees WHERE eid <= {MID}",
    "count_star": "SELECT COUNT(*) FROM Employees",
    "count_where": "SELECT COUNT(*) FROM Employees WHERE salary >= 500000",
    "sum": "SELECT SUM(salary) FROM Employees",
    "avg": "SELECT AVG(salary) FROM Employees",
    "min": "SELECT MIN(salary) FROM Employees",
    "max": "SELECT MAX(salary) FROM Employees WHERE salary <= 900000",
    "median": "SELECT MEDIAN(salary) FROM Employees",
    "grouped_count": "SELECT COUNT(*) FROM Employees GROUP BY department",
    "grouped_avg": "SELECT AVG(salary) FROM Employees GROUP BY department",
    "grouped_median": (
        "SELECT MEDIAN(salary) FROM Employees GROUP BY department"
    ),
    "order_limit": "SELECT eid, salary FROM Employees ORDER BY eid LIMIT 10",
    "join": (
        "SELECT * FROM Employees JOIN Managers "
        "ON Employees.eid = Managers.eid"
    ),
}

ORDERED_SHAPES = {"range_pred", "order_limit"}


def assert_same(label, want, got):
    if isinstance(want, list) and label not in ORDERED_SHAPES:
        assert rows_equal_unordered(want, got), f"{label}: {got!r} != {want!r}"
    else:
        assert got == want, f"{label}: {got!r} != {want!r}"


class TestQueryParity:
    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    def test_matches_oracle(self, mode, shape):
        oracle = build_oracle()
        with build_router(mode) as router:
            sql = QUERY_SHAPES[shape]
            assert_same(shape, oracle_answer(oracle, sql), router.sql(sql))

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_four_groups_match_oracle_too(self, mode):
        oracle = build_oracle()
        with build_router(mode, n_groups=4) as router:
            for shape in ("count_star", "avg", "grouped_avg", "join"):
                sql = QUERY_SHAPES[shape]
                assert_same(shape, oracle_answer(oracle, sql), router.sql(sql))


#: Row reads whose order the parent got wrong across shards: no unique
#: sort key to hide behind, so ties and un-ORDERed results show the
#: gather order (ISSUE-16; every one failed at 0111ac2).
ORDER_SHAPES = {
    "no_order": "SELECT eid, name FROM Employees",
    "no_order_where": "SELECT eid FROM Employees WHERE salary >= 0",
    "limit_only": "SELECT eid FROM Employees LIMIT 5",
    "dup_asc": "SELECT eid FROM Employees ORDER BY department",
    "dup_desc": "SELECT eid FROM Employees ORDER BY department DESC",
    "dup_asc_limit": "SELECT eid FROM Employees ORDER BY department LIMIT 6",
    "dup_desc_limit": (
        "SELECT eid FROM Employees ORDER BY department DESC LIMIT 6"
    ),
    "dup_unprojected": "SELECT name FROM Employees ORDER BY department LIMIT 9",
    "cross_shard_join": (
        "SELECT Employees.eid, Managers.manager_username FROM Employees "
        "JOIN Managers ON Employees.eid = Managers.eid "
        "WHERE Employees.salary >= 20000"
    ),
}


class TestResultOrder:
    """Row reads return row-id order, ORDER BY ties broken by row id, on
    every deployment shape: the router, the plaintext oracle and an
    unsharded ``DataSource`` return the same *ordered list*."""

    @pytest.mark.parametrize("n_groups", [2, 4])
    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_router_oracle_and_unsharded_source_agree(self, mode, n_groups):
        oracle = build_oracle()
        unsharded = build_unsharded()
        with build_router(mode, n_groups=n_groups) as router:
            for shape, sql in ORDER_SHAPES.items():
                want = oracle_answer(oracle, sql)
                assert len(want) > 1, shape
                assert unsharded.sql(sql) == want, shape
                assert router.sql(sql) == want, (mode, n_groups, shape)


class TestPruning:
    def test_point_query_touches_only_owning_group(self):
        """Range pruning: the non-owning group sees zero messages."""
        with build_router("range") as router:
            shard_map = router.shard_map("Employees")
            low_eid = EIDS[0]  # owned by group 0 (lowest range tile)
            owner = shard_map.group_for_key(
                router._encode_partition_key(
                    router._sharing("Employees"), "eid", low_eid
                )
            )
            other = 1 - owner
            router.reset_accounting()
            router.sql(f"SELECT name FROM Employees WHERE eid = {low_eid}")
            assert router.groups[other].network.total_messages == 0
            assert router.groups[owner].network.total_messages > 0

    def test_hash_point_query_touches_one_of_four_groups(self):
        """Hash maps key on the partition column too: ``eid = k`` names
        one bucket, so three of four groups see no message."""
        with build_router("hash", n_groups=4) as router:
            router.reset_accounting()
            got = router.sql(f"SELECT * FROM Employees WHERE eid = {MID}")
            assert [row["eid"] for row in got] == [MID]
            touched = [
                index
                for index, group in enumerate(router.groups)
                if group.network.total_messages > 0
            ]
            assert touched == [router.owner_for_row("Employees", {"eid": MID})]

    def test_full_scan_touches_every_group(self):
        with build_router("range") as router:
            router.reset_accounting()
            router.sql("SELECT COUNT(*) FROM Employees")
            for group in router.groups:
                assert group.network.total_messages > 0

    def test_byte_accounting_sums_over_groups(self):
        with build_router("range") as router:
            router.reset_accounting()
            router.sql("SELECT SUM(salary) FROM Employees")
            assert router.total_network_bytes() == sum(
                group.network.total_bytes for group in router.groups
            )
            assert router.modelled_network_seconds() == max(
                group.network.modelled_seconds for group in router.groups
            )

    @pytest.mark.parametrize("eid", [MID, ABSENT])
    @pytest.mark.parametrize(
        "entry, sql",
        [
            ("router", "SELECT name FROM Employees WHERE eid = {eid}"),
            ("router", "UPDATE Employees SET salary = 5 WHERE eid = {eid}"),
            ("router", "DELETE FROM Employees WHERE eid = {eid}"),
            ("sharded_txn", "UPDATE Employees SET salary = 5 WHERE eid = {eid}"),
            ("sharded_txn", "DELETE FROM Employees WHERE eid = {eid}"),
        ],
    )
    def test_hash_statement_naming_one_key_visits_only_its_owner(
        self, entry, sql, eid, tmp_path
    ):
        """A hash map places a row by its partition key, so a statement
        that names one key — held or not — is one group's business."""
        with build_router("hash", n_groups=4) as router:
            owner = router.owner_for_row("Employees", {"eid": eid})
            router.reset_accounting()
            if entry == "router":
                router.sql(sql.format(eid=eid))
            else:
                manager = ShardedTransactionManager(router, str(tmp_path / "txn.wal"))
                try:
                    manager.execute(sql.format(eid=eid))
                finally:
                    manager.close()
            touched = [
                index
                for index, group in enumerate(router.groups)
                if group.network.total_messages > 0
            ]
            assert touched == [owner]

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_unknown_column_is_refused_before_any_round(self, mode):
        with build_router(mode) as router:
            router.reset_accounting()
            with pytest.raises(SchemaError):
                router.sql("SELECT nope FROM Employees")
            assert [group.network.total_messages for group in router.groups] == [0, 0]


def _projection(columns, schema):
    """The projection a read of ``columns`` sends: none for every column."""
    return None if list(columns) == schema.column_names else tuple(columns)


class TestProjection:
    """A router read asks every owner for exactly the columns an unsharded
    source's ``explain`` reports the statement fetches."""

    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name, salary FROM Employees",
            "SELECT name FROM Employees WHERE name <> 'JOHN' AND salary > 40000",
            "SELECT eid FROM Employees ORDER BY department LIMIT 6",
            "SELECT * FROM Employees WHERE salary > 40000",
        ],
    )
    def test_a_multi_owner_row_read_sends_the_fetched_columns(self, mode, sql):
        query = parse_sql(sql)
        unsharded = build_unsharded()
        schema = unsharded.sharing("Employees").schema
        expected = _projection(unsharded.explain(query)["fetched_columns"], schema)
        with build_router(mode) as router, pipeline_runs.recording(router) as calls:
            assert router.sql(sql) == oracle_answer(build_oracle(), sql)
        selects = [request for _, method, request, _ in calls if method == "select"]
        assert {request.get("projection") for request in selects} == {expected}
        assert len(selects) > THRESHOLD

    def test_a_co_located_join_sends_the_fetched_columns(self):
        sql = (
            "SELECT Employees.name, Managers.manager_username FROM Employees "
            "JOIN Managers ON Employees.eid = Managers.eid WHERE Employees.salary >= 20000"
        )
        query = parse_sql(sql)
        unsharded = build_unsharded()
        plan = unsharded.explain(query)
        expected = [
            _projection(plan[f"{side}_fetched_columns"], unsharded.sharing(table).schema)
            for side, table in (("left", "Employees"), ("right", "Managers"))
        ]
        with build_router("hash") as router:
            router.drain_group(1)  # one group holds both tables: co-located
            with pipeline_runs.recording(router) as calls:
                assert rows_equal_unordered(router.sql(sql), oracle_answer(build_oracle(), sql))
        assert [method for _, method, _, _ in calls] == ["join"] * THRESHOLD
        for _, _, request, _ in calls:
            assert [request.get("left_projection"), request.get("right_projection")] == expected


class TestWrites:
    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_insert_update_delete_match_oracle(self, mode):
        oracle = build_oracle()
        with build_router(mode) as router:
            insert = (
                "INSERT INTO Employees (eid, name, lastname, department, "
                "salary) VALUES (999331, 'ZOE', 'QUINN', 'Sales', 123456)"
            )
            update = (
                f"UPDATE Employees SET salary = 777000 WHERE eid = {MID}"
            )
            delete = f"DELETE FROM Employees WHERE eid = {EIDS[3]}"
            for text in (insert, update, delete):
                assert router.sql(text) == oracle_answer(oracle, text), text
            probe = "SELECT eid, salary FROM Employees ORDER BY eid"
            assert router.sql(probe) == oracle_answer(oracle, probe)

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_update_of_partition_column_is_rejected(self, mode):
        with build_router(mode) as router:
            with pytest.raises(UnsupportedQueryError):
                router.sql(
                    f"UPDATE Employees SET eid = 999999 WHERE eid = {MID}"
                )

    def test_session_inserts_use_router_global_row_ids(self):
        with build_router("hash") as router:
            session = router.open_session("writer")
            try:
                router.execute(
                    parse_sql(
                        "INSERT INTO Employees (eid, name, lastname, "
                        "department, salary) VALUES "
                        "(999332, 'ABE', 'LINC', 'Sales', 1000)"
                    ),
                    session=session,
                )
                got = router.sql(
                    "SELECT name FROM Employees WHERE eid = 999332"
                )
                assert got == [{"name": "ABE"}]
            finally:
                router.close_session(session)


class TestConstruction:
    def test_mixed_secrets_rejected(self):
        a = DataSource(ProviderCluster(3, 2), seed=1)
        b = DataSource(ProviderCluster(3, 2), seed=2)
        with pytest.raises(ConfigurationError):
            ShardRouter([a, b])

    def test_mixed_geometry_rejected(self):
        secrets = generate_client_secrets(3, SEED)
        a = DataSource(ProviderCluster(3, 2), seed=1, secrets=secrets)
        b = DataSource(ProviderCluster(3, 3), seed=2, secrets=secrets)
        with pytest.raises(ConfigurationError):
            ShardRouter([a, b])

    def test_split_on_hash_table_rejected(self):
        with build_router("hash") as router:
            with pytest.raises(ConfigurationError):
                router.split_shard("Employees", MID)

    def test_rebalance_on_range_table_rejected(self):
        with build_router("range") as router:
            with pytest.raises(ConfigurationError):
                router.rebalance("Employees")

    @pytest.mark.parametrize(
        "boundaries", [[1000, 1000], [EID_LO, 500_000]], ids=["repeated", "low_edge"]
    )
    def test_range_boundaries_that_empty_a_group_rejected(self, boundaries):
        """A repeated cut or one on the domain's low edge would leave a
        group owning nothing; both are refused."""
        employees, _ = workload_tables()
        with ShardRouter.build(
            n_groups=3, providers_per_group=3, threshold=2, seed=SEED
        ) as router:
            with pytest.raises(ConfigurationError, match="empty"):
                router.create_table(
                    employees.schema, mode="range", boundaries=boundaries
                )

    def test_report_shape(self):
        with build_router("range") as router:
            router.sql("SELECT COUNT(*) FROM Employees")
            report = router.report()
            assert len(report["groups"]) == 2
            assert report["migrations"] == 0
            assert all(
                group["network_messages"] > 0 for group in report["groups"]
            )
