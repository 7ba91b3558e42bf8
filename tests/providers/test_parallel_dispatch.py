"""Lagrange weight-cache behaviour across the rows of one ``select()``.

(The file keeps its historical name so the test ids stay stable; the
dispatch-mode parity tests that shared it went away with the second
dispatch mode — the fan-out itself is pinned in ``test_fanout_wave.py``.)
"""

from repro.client.datasource import DataSource
from repro.core import kernels
from repro.providers.cluster import ProviderCluster
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.sqlengine.query import Select
from repro.workloads.employees import employees_table

N, K, ROWS, SEED = 5, 3, 60, 11

QUERY = Select(
    table="Employees",
    where=Comparison("salary", ComparisonOp.GE, 40_000),
)


def _source():
    cluster = ProviderCluster(N, K)
    source = DataSource(cluster, seed=SEED)
    source.outsource_table(employees_table(ROWS, seed=SEED))
    return cluster, source


def _lookups(stats):
    builds = stats.weight_misses + stats.rational_misses
    return builds, builds + stats.weight_hits + stats.rational_hits


class TestWeightCache:
    def test_weights_cached_across_rows_of_one_select(self):
        """The Lagrange weight tables are built once per quorum shape and
        consulted once per *column* of the result set, not once per cell."""
        _, source = _source()
        kernels.clear_kernel_caches()
        kernels.reset_kernel_stats()
        rows = source.select(QUERY)
        assert len(rows) > 1
        stats = kernels.kernel_stats()
        builds, lookups = _lookups(stats)
        # one quorum shape answered the whole select: at most one build per
        # weight flavour (modular / integer) and one lookup per column
        assert builds <= 2
        assert 1 <= lookups <= len(rows[0])
        assert (
            stats.scalar_reconstruct_cells + stats.vector_reconstruct_cells
            == len(rows) * len(rows[0])
        )

    def test_second_select_rebuilds_nothing(self):
        """A repeated select interpolates *nothing*: the row cache replays
        the result set, so not even cached weights are consulted."""
        _, source = _source()
        source.select(QUERY)
        kernels.reset_kernel_stats()
        rows = source.select(QUERY)
        stats = kernels.kernel_stats()
        assert len(rows) > 1
        assert stats.weight_misses == 0 and stats.rational_misses == 0
        assert source.row_cache.stats.query_hits >= 1

    def test_second_select_without_row_cache_hits_weight_cache(self):
        """With query replay out of the picture (fresh epoch entries gone),
        the weight tables still serve every column from cache."""
        _, source = _source()
        source.select(QUERY)
        source.row_cache.clear()
        kernels.reset_kernel_stats()
        rows = source.select(QUERY)
        stats = kernels.kernel_stats()
        assert len(rows) > 1
        builds, lookups = _lookups(stats)
        assert builds == 0
        assert 1 <= lookups <= len(rows[0])
