"""Crash-safe snapshots of sharded deployments.

``save_sharded_deployment`` writes each group as an ordinary deployment
snapshot and a top-level shard manifest *last*, carrying a digest of
every group manifest — so a torn save (missing shard manifest) and a
directory mixing groups from different saves are both rejected instead
of silently reassembling a wrong deployment.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.persistence import (
    SHARD_MANIFEST_NAME,
    load_sharded_deployment,
    save_sharded_deployment,
)
from repro.sqlengine.executor import rows_equal_unordered

from tests.sharding.shardutil import (
    all_row_ids,
    build_oracle,
    build_router,
    oracle_answer,
)

PROBES = (
    "SELECT COUNT(*) FROM Employees",
    "SELECT AVG(salary) FROM Employees",
    "SELECT eid, salary FROM Employees ORDER BY eid",
    "SELECT * FROM Employees JOIN Managers ON Employees.eid = Managers.eid",
)


def assert_parity(router, oracle):
    for text in PROBES:
        want = oracle_answer(oracle, text)
        got = router.sql(text)
        if isinstance(want, list):
            assert rows_equal_unordered(want, got), text
        else:
            assert got == want, text


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_round_trip(tmp_path, mode):
    oracle = build_oracle()
    with build_router(mode) as router:
        before = all_row_ids(router)
        save_sharded_deployment(router, tmp_path)
    with load_sharded_deployment(tmp_path) as restored:
        assert all_row_ids(restored) == before
        assert restored.default_mode == mode
        assert_parity(restored, oracle)


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_restored_router_accepts_writes(tmp_path, mode):
    """The restored map routes a new row by its key, and a point read on
    that key finds it through its one owning group."""
    with build_router(mode) as router:
        save_sharded_deployment(router, tmp_path)
    with load_sharded_deployment(tmp_path) as restored:
        count = restored.sql("SELECT COUNT(*) FROM Employees")
        restored.sql(
            "INSERT INTO Employees (eid, name, lastname, department, "
            "salary) VALUES (999333, 'NEW', 'ROW', 'Sales', 42000)"
        )
        assert restored.sql("SELECT COUNT(*) FROM Employees") == count + 1
        restored.reset_accounting()
        got = restored.sql("SELECT name FROM Employees WHERE eid = 999333")
        assert got == [{"name": "NEW"}]
        touched = [g for g in restored.groups if g.network.total_messages > 0]
        assert len(touched) == 1


def test_row_id_placed_hash_manifest_rejected(tmp_path):
    """A hash map saved before hash maps keyed on the partition column
    placed rows by row id; routing them by key would miss rows."""
    with build_router("hash") as router:
        save_sharded_deployment(router, tmp_path)
    path = tmp_path / SHARD_MANIFEST_NAME
    manifest = json.loads(path.read_text())
    for payload in manifest["maps"].values():
        del payload["partition_column"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="row-id placement format"):
        load_sharded_deployment(tmp_path)


def test_round_trip_after_split_keeps_map(tmp_path):
    with build_router("range") as router:
        router.split_shard("Employees", 250_000)
        placement = router.shard_row_ids("Employees")
        save_sharded_deployment(router, tmp_path)
    with load_sharded_deployment(tmp_path) as restored:
        assert restored.n_groups == 3
        assert restored.shard_row_ids("Employees") == placement


def test_retired_groups_survive_restore(tmp_path):
    with build_router("hash") as router:
        router.drain_group(1)
        before = all_row_ids(router)
        save_sharded_deployment(router, tmp_path)
    with load_sharded_deployment(tmp_path) as restored:
        assert restored.groups[1].retired
        assert restored.active_group_indexes() == [0]
        assert all_row_ids(restored) == before


def test_missing_shard_manifest_rejected(tmp_path):
    with build_router("hash") as router:
        save_sharded_deployment(router, tmp_path)
    (tmp_path / SHARD_MANIFEST_NAME).unlink()
    with pytest.raises(ConfigurationError, match="interrupted"):
        load_sharded_deployment(tmp_path)


def test_corrupt_shard_manifest_rejected(tmp_path):
    with build_router("hash") as router:
        save_sharded_deployment(router, tmp_path)
    (tmp_path / SHARD_MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_sharded_deployment(tmp_path)


def test_mixed_saves_rejected(tmp_path):
    """Group snapshots from a *different* save must not reassemble."""
    save_a = tmp_path / "a"
    save_b = tmp_path / "b"
    with build_router("range") as router:
        save_sharded_deployment(router, save_a)
        # advance state, save again elsewhere
        router.sql(
            "INSERT INTO Employees (eid, name, lastname, department, "
            "salary) VALUES (999334, 'TOR', 'N', 'Sales', 1)"
        )
        save_sharded_deployment(router, save_b)
    manifest = json.loads((save_a / SHARD_MANIFEST_NAME).read_text())
    group_dir = manifest["groups"][1]["directory"]
    # splice group 1 from save B into save A: digests no longer match
    src = save_b / group_dir / "manifest.json"
    dst = save_a / group_dir / "manifest.json"
    dst.write_bytes(src.read_bytes())
    with pytest.raises(ConfigurationError, match="different saves"):
        load_sharded_deployment(save_a)
