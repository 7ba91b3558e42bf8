"""Elastic operations: split, rebalance, drain, add_group — all online.

The invariants: every migration preserves the exact row set (share-level
rebuild, no plaintext reconstruction), checkpoint phases fire in
protocol order, reads issued *during* a migration never observe a
half-moved row, a write racing the online copy forces the ``recopied``
phase, and retired groups drop out of routing.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sqlengine.executor import rows_equal_unordered

from tests.sharding.shardutil import (
    all_row_ids,
    build_oracle,
    build_router,
    oracle_answer,
    sorted_eids,
)

EIDS = sorted_eids()
SPLIT_AT = 250_000  # mid-range of group 0's tile ([1, 500001) at 2 groups)

PROBES = (
    "SELECT COUNT(*) FROM Employees",
    "SELECT SUM(salary) FROM Employees",
    "SELECT AVG(salary) FROM Employees GROUP BY department",
    "SELECT eid, name FROM Employees ORDER BY eid",
)


def assert_parity(router, oracle):
    for text in PROBES:
        want = oracle_answer(oracle, text)
        got = router.sql(text)
        if isinstance(want, list):
            assert rows_equal_unordered(want, got), text
        else:
            assert got == want, text


class TestSplit:
    def test_split_preserves_rows_and_parity(self):
        oracle = build_oracle()
        with build_router("range") as router:
            before = all_row_ids(router)
            phases = []
            moved = router.split_shard(
                "Employees", SPLIT_AT, checkpoint=phases.append
            )
            assert moved > 0
            assert phases == ["scanned", "copied", "cutover", "done"]
            assert all_row_ids(router) == before
            assert router.n_groups == 3  # a fresh group was added
            assert router.migrations == 1
            assert_parity(router, oracle)

    def test_split_to_existing_group(self):
        with build_router("range", n_groups=2) as router:
            extra = router.add_group()
            before = all_row_ids(router)
            moved = router.split_shard("Employees", SPLIT_AT, to_group=extra)
            assert moved > 0
            assert all_row_ids(router) == before
            placement = router.shard_row_ids("Employees")
            assert len(placement.get(extra, [])) == moved

    def test_split_at_range_lower_bound_rejected(self):
        with build_router("range") as router:
            # eid encoding is the identity within the domain, so the
            # encoded tile bound maps back to itself as a value
            lo = router.shard_map("Employees").ranges[0][0]
            with pytest.raises(ConfigurationError):
                router.split_shard("Employees", lo)

    def test_reads_during_migration_are_exact(self):
        """At every unlocked checkpoint the row set reads whole — the
        staging table is invisible, so nothing is ever double-counted."""
        oracle = build_oracle()
        count = oracle_answer(oracle, "SELECT COUNT(*) FROM Employees")
        total = oracle_answer(oracle, "SELECT SUM(salary) FROM Employees")
        with build_router("range") as router:

            def probe(phase):
                if phase == "cutover":  # write lock held — must not query
                    return
                assert router.sql("SELECT COUNT(*) FROM Employees") == count
                assert router.sql("SELECT SUM(salary) FROM Employees") == total

            router.split_shard("Employees", SPLIT_AT, checkpoint=probe)
            assert router.sql("SELECT COUNT(*) FROM Employees") == count


class TestRecopyRace:
    def test_write_racing_the_copy_forces_recopy(self):
        """A write between the online copy and the cutover bumps the
        source epoch; the migration must redo the copy under the lock."""
        with build_router("range") as router:
            before = all_row_ids(router)
            phases = []

            def checkpoint(phase):
                phases.append(phase)
                if phase == "copied" and phases.count("copied") == 1:
                    # race a write into the moving range
                    router.sql(
                        "INSERT INTO Employees (eid, name, lastname, "
                        "department, salary) VALUES "
                        f"({SPLIT_AT + 7}, 'RAC', 'ER', 'Sales', 50000)"
                    )

            moved = router.split_shard(
                "Employees", SPLIT_AT, checkpoint=checkpoint
            )
            assert "recopied" in phases
            after = all_row_ids(router)
            assert len(after) == len(before) + 1
            assert set(before) <= set(after)
            # the racing row landed in the moving slice and migrated too
            got = router.sql(
                f"SELECT name FROM Employees WHERE eid = {SPLIT_AT + 7}"
            )
            assert got == [{"name": "RAC"}]
            assert moved > 0


class TestRebalance:
    def test_rebalance_onto_added_group(self):
        oracle = build_oracle()
        with build_router("hash") as router:
            before = all_row_ids(router)
            phases = []
            router.add_group()
            moved = router.rebalance(checkpoint=phases.append)
            assert moved > 0
            assert phases.count("done") >= 1
            assert all_row_ids(router) == before
            # buckets end up balanced within one across active groups
            shard_map = router.shard_map("Employees")
            counts = [
                len(shard_map.slots_of(g))
                for g in router.active_group_indexes()
            ]
            assert max(counts) - min(counts) <= 1
            assert_parity(router, oracle)

    def test_rebalance_is_idempotent(self):
        with build_router("hash") as router:
            router.add_group()
            router.rebalance()
            assert router.rebalance() == 0


class TestDrain:
    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_drain_preserves_rows_and_retires(self, mode):
        oracle = build_oracle()
        with build_router(mode) as router:
            before = all_row_ids(router)
            moved = router.drain_group(1)
            assert moved > 0
            assert router.groups[1].retired
            assert router.active_group_indexes() == [0]
            assert all_row_ids(router) == before
            placement = router.shard_row_ids("Employees")
            assert not placement.get(1)
            assert_parity(router, oracle)
            # retired groups see no further query traffic
            router.reset_accounting()
            router.sql("SELECT COUNT(*) FROM Employees")
            assert router.groups[1].network.total_messages == 0

    def test_drain_last_group_rejected(self):
        with build_router("hash") as router:
            router.drain_group(1)
            with pytest.raises(ConfigurationError):
                router.drain_group(0)

    def test_drained_group_not_a_migration_target(self):
        with build_router("hash") as router:
            router.drain_group(1)
            router.add_group()
            # rebalance routes everything to the live groups only
            router.rebalance()
            placement = router.shard_row_ids("Employees")
            assert not placement.get(1)


class TestAddGroup:
    def test_new_group_serves_queries_after_split(self):
        with build_router("range") as router:
            index = router.add_group()
            router.split_shard("Employees", SPLIT_AT, to_group=index)
            router.reset_accounting()
            low = [eid for eid in EIDS if SPLIT_AT <= eid < 500_001][0]
            got = router.sql(
                f"SELECT eid FROM Employees WHERE eid = {low}"
            )
            assert got == [{"eid": low}]
            assert router.groups[index].network.total_messages > 0
