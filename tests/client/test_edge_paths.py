"""Edge-path tests filling coverage gaps across modules."""

import pytest

from repro import (
    DataSource,
    JoinSelect,
    ProviderCluster,
    Select,
    Table,
    TableSchema,
    integer_column,
    string_column,
)
from repro.errors import ProviderError, QueryError, ReconstructionError
from repro.sqlengine.expression import Comparison, ComparisonOp, StartsWith
from repro.workloads.employees import employees_table


class TestExplainFallbackJoin:
    def test_fallback_join_plan(self):
        cluster = ProviderCluster(3, 2)
        source = DataSource(cluster, seed=1, client_join_fallback=True)
        source.outsource_table(employees_table(5, seed=1))
        source.outsource_table(
            Table(
                TableSchema(
                    "Other", (integer_column("x", 0, 9), string_column("s", 4))
                )
            )
        )
        plan = source.explain(JoinSelect("Employees", "Other", "name", "s"))
        assert "client" in plan["strategy"]


class TestRewriterEdges:
    def test_startswith_on_integer_column_goes_residual(self):
        """StartsWith on a non-string column has no prefix_range; the
        conjunct must fall back to client-side evaluation, not crash."""
        cluster = ProviderCluster(3, 2)
        source = DataSource(cluster, seed=2)
        source.outsource_table(employees_table(10, seed=2))
        rows = source.select(
            Select("Employees", where=StartsWith("salary", "1"))
        )
        # plaintext semantics: str(value).startswith — evaluated client-side
        expected = [
            r for r in employees_table(10, seed=2).rows()
            if str(r["salary"]).startswith("1")
        ]
        assert len(rows) == len(expected)

    def test_string_equality_with_overlong_literal_empty(self):
        cluster = ProviderCluster(3, 2)
        source = DataSource(cluster, seed=3)
        source.outsource_table(employees_table(10, seed=3))
        rows = source.sql(
            "SELECT * FROM Employees WHERE name = 'WAYTOOLONGFORWIDTH'"
        )
        assert rows == []

    def test_wrong_type_literal_residual(self):
        cluster = ProviderCluster(3, 2)
        source = DataSource(cluster, seed=4)
        source.outsource_table(employees_table(10, seed=4))
        # integer literal against a string column: unencodable → residual
        rows = source.select(
            Select("Employees", where=Comparison("name", ComparisonOp.EQ, 5))
        )
        assert rows == []


class TestProviderEdges:
    def test_drop_table_rpc(self):
        from repro.providers.provider import ShareProvider

        provider = ShareProvider("X")
        provider.handle(
            "create_table", {"table": "T", "columns": ["a"], "searchable": []}
        )
        assert provider.handle("drop_table", {"table": "T"}) == {"ok": True}
        with pytest.raises(ProviderError):
            provider.handle("row_count", {"table": "T"})
        # an absent table is an answer, not an error: the client sends the
        # drop without knowing which providers hold the table
        assert provider.handle("drop_table", {"table": "T"}) == {"dropped": False}


class TestExecutorEdges:
    def test_join_projection_validation(self):
        from repro.sqlengine.catalog import Catalog
        from repro.sqlengine.executor import PlaintextExecutor

        catalog = Catalog()
        catalog.add_table(
            Table(
                TableSchema("A", (integer_column("x", 0, 9),)),
                [{"x": 1}],
            )
        )
        catalog.add_table(
            Table(
                TableSchema("B", (integer_column("x", 0, 9),)),
                [{"x": 1}],
            )
        )
        executor = PlaintextExecutor(catalog)
        with pytest.raises(QueryError):
            executor.execute(
                JoinSelect("A", "B", "x", "x", columns=("A.zzz",))
            )

    def test_join_null_keys_never_match(self):
        from repro.sqlengine.catalog import Catalog
        from repro.sqlengine.executor import PlaintextExecutor

        schema = TableSchema(
            "N", (integer_column("x", 0, 9, nullable=True),)
        )
        catalog = Catalog()
        catalog.add_table(Table(schema, [{"x": None}, {"x": 1}]))
        catalog.add_table(
            Table(
                TableSchema("M", (integer_column("x", 0, 9, nullable=True),)),
                [{"x": None}, {"x": 1}],
            )
        )
        executor = PlaintextExecutor(catalog)
        rows = executor.execute(JoinSelect("N", "M", "x", "x"))
        assert len(rows) == 1  # only the 1-1 pair; NULLs never join


class TestNetworkEdges:
    def test_wire_size_protocol(self):
        from repro.sim.network import measure_bytes

        class Sized:
            def wire_size(self):
                return 77

        assert measure_bytes(Sized()) == 77


class TestReconstructEdges:
    def test_single_row_aggregate_threshold_shortfall(self):
        from repro.client.reconstruct import reconstruct_single_rows
        from repro.core.scheme import TableSharing
        from repro.core.secrets import generate_client_secrets
        from repro.sim.rng import DeterministicRNG

        schema = TableSchema("T", (integer_column("k", 0, 9),))
        sharing = TableSharing(
            schema, generate_client_secrets(4, seed=5), 3, DeterministicRNG(5)
        )
        share_rows = sharing.share_row({"k": 3})
        responses = {0: {"row": [1, share_rows[0]], "count": 1},
                     1: {"row": [1, share_rows[1]], "count": 1}}
        with pytest.raises(ReconstructionError):
            reconstruct_single_rows(sharing, responses)
