"""Property-based tests for the sharding layer.

Four families of invariants:

* **Partition assignment is total and disjoint** — every row id / key
  maps to exactly one group, range tiles cover the domain gap-free, and
  a rebalance plan lands every bucket on an active group, balanced
  within one, without shuffling buckets between under-target groups.
* **Merged partials equal whole-set aggregates** — for any partition of
  a value list into shards, the merge helpers reproduce the unsharded
  COUNT/SUM/MIN/MAX/AVG exactly (AVG bit-identically: same numerator,
  same denominator, one division).
* **Row reads are in oracle order** — for any order column, direction
  and limit, a sharded row read is the same *ordered list* as the
  plaintext oracle's (row-id order, ORDER BY ties broken by row id).
* **Mid-migration reads are exact** — at every unlocked checkpoint of
  an online split, COUNT and SUM equal the oracle: no half-moved row is
  ever observable.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.service.sharding import (
    HashShardMap,
    RangeShardMap,
    merge_avg,
    merge_counts,
    merge_extremum,
    merge_sums,
    rebalance_plan,
)
from repro.sqlengine.query import AggregateFunc

from tests.sharding.shardutil import (
    build_oracle,
    build_router,
    oracle_answer,
    sorted_eids,
)

# ------------------------------------------------------------- strategies --

bucket_lists = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=64
)
row_ids = st.integers(min_value=0, max_value=10**9)


@st.composite
def range_maps(draw):
    """A valid contiguous tiling of [0, hi) with random boundaries."""
    n_groups = draw(st.integers(min_value=1, max_value=5))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=9999),
            min_size=0,
            max_size=6,
            unique=True,
        )
    )
    edges = [0] + sorted(cuts) + [10000]
    ranges = [
        (edges[i], edges[i + 1], draw(st.integers(0, n_groups - 1)))
        for i in range(len(edges) - 1)
    ]
    return RangeShardMap("k", ranges)


@st.composite
def value_partitions(draw):
    """A value list (with NULLs) split into disjoint covering shards."""
    values = draw(
        st.lists(
            st.one_of(
                st.none(), st.integers(min_value=-(10**9), max_value=10**9)
            ),
            max_size=40,
        )
    )
    n_shards = draw(st.integers(min_value=1, max_value=5))
    assignment = [
        draw(st.integers(0, n_shards - 1)) for _ in range(len(values))
    ]
    shards = [
        [v for v, a in zip(values, assignment) if a == s]
        for s in range(n_shards)
    ]
    return values, shards


# -------------------------------------------------- assignment invariants --


@given(buckets=bucket_lists, rid=row_ids)
@settings(max_examples=200, deadline=None)
def test_hash_assignment_total_and_disjoint(buckets, rid):
    shard_map = HashShardMap(buckets)
    owner = shard_map.group_for_row_id(rid)
    owning = [g for g in set(buckets) if rid % len(buckets) in
              set(shard_map.buckets_of(g))]
    assert owning == [owner]
    # buckets_of partitions the ring
    seen = []
    for g in set(buckets):
        seen.extend(shard_map.buckets_of(g))
    assert sorted(seen) == list(range(len(buckets)))


@given(shard_map=range_maps(), key=st.integers(min_value=0, max_value=9999))
@settings(max_examples=200, deadline=None)
def test_range_assignment_total_and_disjoint(shard_map, key):
    owner = shard_map.group_for_key(key)
    holders = [
        g for lo, hi, g in shard_map.ranges if lo <= key < hi
    ]
    assert holders == [owner]
    # tiles cover the domain gap-free and edge-to-edge
    edges = sorted((lo, hi) for lo, hi, _ in shard_map.ranges)
    assert edges[0][0] == shard_map.lo
    for (_, hi_prev), (lo_next, _) in zip(edges, edges[1:]):
        assert hi_prev == lo_next


@given(
    shard_map=range_maps(),
    low=st.integers(min_value=0, max_value=9999),
    span=st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=150, deadline=None)
def test_range_interval_pruning_never_drops_an_owner(shard_map, low, span):
    """groups_for_interval is exactly the owners of the interval's keys."""
    high = min(low + span, 9999)
    pruned = set(shard_map.groups_for_interval(low, high))
    brute = {
        shard_map.group_for_key(k)
        for k in {low, high, (low + high) // 2}
        | {lo for lo, _, _ in shard_map.ranges if low <= lo <= high}
    }
    assert brute <= pruned
    # and never includes a group owning no overlapping tile
    for g in pruned:
        assert any(
            lo <= high and low < hi
            for lo, hi, owner in shard_map.ranges
            if owner == g
        )


@given(
    buckets=bucket_lists,
    active=st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_rebalance_plan_balances_onto_active_groups(buckets, active):
    plan = rebalance_plan(buckets, sorted(active))
    final = list(buckets)
    moved = set()
    for (src, dst), bs in plan.items():
        assert dst in active
        for b in bs:
            assert final[b] == src, "plan moves a bucket its src doesn't own"
            assert b not in moved, "plan moves one bucket twice"
            moved.add(b)
            final[b] = dst
    assert all(owner in active for owner in final)
    counts = [final.count(g) for g in sorted(active)]
    assert max(counts) - min(counts) <= 1
    # minimality: an already-active owner keeps everything below target
    base = len(buckets) // len(active)
    for (src, _), bs in plan.items():
        if src in active:
            assert list(buckets).count(src) - len(bs) >= base - 1


@given(buckets=bucket_lists)
@settings(max_examples=50, deadline=None)
def test_rebalance_plan_requires_active_groups(buckets):
    try:
        rebalance_plan(buckets, [])
    except ConfigurationError:
        pass
    else:
        raise AssertionError("empty active set must be rejected")


# ------------------------------------------------------- merge invariants --


@given(partition=value_partitions())
@settings(max_examples=200, deadline=None)
def test_merged_partials_equal_whole_set_aggregates(partition):
    values, shards = partition
    present = [v for v in values if v is not None]

    counts = [len(s) - s.count(None) for s in shards]
    assert merge_counts(counts) == len(present)

    sums = [
        sum(v for v in s if v is not None)
        if any(v is not None for v in s)
        else None
        for s in shards
    ]
    assert merge_sums(sums) == (sum(present) if present else None)

    mins = [
        min((v for v in s if v is not None), default=None) for s in shards
    ]
    maxs = [
        max((v for v in s if v is not None), default=None) for s in shards
    ]
    assert merge_extremum(mins, AggregateFunc.MIN) == (
        min(present) if present else None
    )
    assert merge_extremum(maxs, AggregateFunc.MAX) == (
        max(present) if present else None
    )

    merged_avg = merge_avg(list(zip(sums, counts)))
    if present:
        # bit-identical, not approximately equal
        assert merged_avg == sum(present) / len(present)
    else:
        assert merged_avg is None


@given(
    pairs=st.lists(
        st.tuples(st.none(), st.just(0)), min_size=1, max_size=5
    )
)
@settings(max_examples=20, deadline=None)
def test_merge_avg_of_all_null_shards_is_null(pairs):
    assert merge_avg(pairs) is None


# ------------------------------------------------------- result ordering --


@given(
    mode=st.sampled_from(["hash", "range"]),
    n_groups=st.sampled_from([2, 3, 4]),
    order_by=st.sampled_from(
        [None, "department", "name", "lastname", "salary", "eid"]
    ),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=24)),
    floor=st.sampled_from([0, 40000, 60000]),
)
@settings(max_examples=25, deadline=None)
def test_sharded_row_reads_are_in_oracle_order(
    mode, n_groups, order_by, descending, limit, floor
):
    sql = f"SELECT eid, department FROM Employees WHERE salary >= {floor}"
    if order_by is not None:
        sql += f" ORDER BY {order_by}" + (" DESC" if descending else "")
    if limit is not None:
        sql += f" LIMIT {limit}"
    with build_router(mode, n_groups=n_groups, rows=24) as router:
        assert router.sql(sql) == oracle_answer(build_oracle(rows=24), sql)


# -------------------------------------------- mid-migration readability --

EIDS = sorted_eids(rows=20)


@given(position=st.integers(min_value=1, max_value=len(EIDS) - 1))
@settings(max_examples=6, deadline=None)
def test_mid_migration_reads_never_observe_half_moved_rows(position):
    """Split at an arbitrary existing key: COUNT and SUM stay exact at
    every unlocked checkpoint, so no reader can see a row both (or
    neither) side of the move."""
    at_value = EIDS[position]
    with build_router("range", rows=20) as router:
        count = router.sql("SELECT COUNT(*) FROM Employees")
        total = router.sql("SELECT SUM(salary) FROM Employees")

        def probe(phase):
            if phase == "cutover":  # write lock held
                return
            assert router.sql("SELECT COUNT(*) FROM Employees") == count
            assert router.sql("SELECT SUM(salary) FROM Employees") == total

        try:
            router.split_shard("Employees", at_value, checkpoint=probe)
        except ConfigurationError:
            # at_value was the lower bound of its range tile — a no-op
            # split is rejected, nothing to observe
            return
        assert router.sql("SELECT COUNT(*) FROM Employees") == count
        assert router.sql("SELECT SUM(salary) FROM Employees") == total
