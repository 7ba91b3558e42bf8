"""Property-based tests for the sharding layer.

Four families of invariants:

* **Partition assignment is total and disjoint** — every key maps to
  exactly one group under either map kind, equal keys of co-labelled
  columns map to one group, range tiles cover the domain gap-free,
  interval pruning never drops a key's owner, and a rebalance plan lands
  every bucket on an active group, balanced within one, without
  shuffling buckets between under-target groups.
* **Merged partials equal whole-set aggregates** — for any partition of
  a value list into shards, the merge helpers reproduce the unsharded
  COUNT/SUM/MIN/MAX/AVG exactly (AVG bit-identically: same numerator,
  same denominator, one division).
* **Row reads are in oracle order** — for any order column, direction
  and limit, a sharded row read is the same *ordered list* as the
  plaintext oracle's (row-id order, ORDER BY ties broken by row id).
* **Mid-migration reads are exact** — at every unlocked checkpoint of
  an online split, rebalance or drain, COUNT, SUM and a point read equal
  their values before the move: no half-moved row is ever observable.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.secrets import generate_client_secrets
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
keys = st.integers(min_value=0, max_value=9999)
KEY_HASH = generate_client_secrets(3, 2009).keyed_hasher("shard/k")


@st.composite
def hash_maps(draw):
    return HashShardMap("k", draw(bucket_lists), KEY_HASH)


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


@lru_cache(maxsize=None)
def _eid_router():
    return build_router("hash", n_groups=4, rows=8)


@given(shard_map=hash_maps(), key=keys, eid=st.integers(1, 1_000_000))
@settings(max_examples=200, deadline=None)
def test_hash_assignment_total_and_disjoint(shard_map, key, eid):
    """Every encoded key has exactly one owner, its slots partition the
    ring, and equal keys of co-labelled columns land on one group."""
    owner = shard_map.group_for_key(key)
    holders = [
        g for g in set(shard_map.buckets)
        if shard_map.slot_of(key) in shard_map.slots_of(g)
    ]
    assert holders == [owner]
    seen = sorted(b for g in set(shard_map.buckets) for b in shard_map.slots_of(g))
    assert seen == list(range(len(shard_map.buckets)))
    # Employees.eid and Managers.eid share the domain label "domain/eid"
    router = _eid_router()
    assert router.owner_for_row("Employees", {"eid": eid}) == router.owner_for_row(
        "Managers", {"eid": eid}
    )


@given(shard_map=range_maps(), key=keys)
@settings(max_examples=200, deadline=None)
def test_range_assignment_total_and_disjoint(shard_map, key):
    owner = shard_map.group_for_key(key)
    holders = [
        g for lo, hi, g in shard_map.ranges if lo <= key < hi
    ]
    assert holders == [owner]
    # tiles cover the domain gap-free and edge-to-edge
    edges = sorted((lo, hi) for lo, hi, _ in shard_map.ranges)
    assert edges[0][0] == 0 and edges[-1][1] == 10000
    for (_, hi_prev), (lo_next, _) in zip(edges, edges[1:]):
        assert hi_prev == lo_next


@given(
    shard_map=st.one_of(range_maps(), hash_maps()),
    low=keys,
    span=st.one_of(st.just(0), st.integers(min_value=0, max_value=3000)),
)
@settings(max_examples=200, deadline=None)
def test_range_interval_pruning_never_drops_an_owner(shard_map, low, span):
    """groups_for_interval holds the owner of every key in the interval
    (a point interval names exactly its key's owner) and no group of a
    range map owning no overlapping tile."""
    high = min(low + span, 9999)
    pruned = set(shard_map.groups_for_interval(low, high))
    probes = {low, high, (low + high) // 2}
    if isinstance(shard_map, RangeShardMap):
        probes |= {lo for lo, _, _ in shard_map.ranges if low <= lo <= high}
        for g in pruned:
            assert any(
                lo <= high and low < hi
                for lo, hi, owner in shard_map.ranges
                if owner == g
            )
    assert {shard_map.group_for_key(k) for k in probes} <= pruned
    if low == high:
        assert pruned == {shard_map.group_for_key(low)}


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


#: (mode, operation): the elastic operations each map kind supports
MOVES = [("range", "split"), ("hash", "rebalance"), ("hash", "drain"), ("range", "drain")]


@given(
    move=st.sampled_from(MOVES),
    position=st.integers(min_value=1, max_value=len(EIDS) - 1),
)
@settings(max_examples=24, deadline=None)
def test_mid_migration_reads_never_observe_half_moved_rows(move, position):
    """Split, rebalance or drain while reading: COUNT, SUM and a point read
    stay what they were at every unlocked checkpoint, so no reader can see
    a row both (or neither) side of the move; afterwards the groups'
    row ids partition the oracle's."""
    mode, operation = move
    probes = (
        "SELECT COUNT(*) FROM Employees",
        "SELECT SUM(salary) FROM Employees",
        f"SELECT * FROM Employees WHERE eid = {EIDS[position]}",
    )
    with build_router(mode, rows=len(EIDS)) as router:
        before = [router.sql(text) for text in probes]
        phases = []

        def probe(phase):
            phases.append(phase)
            if phase != "cutover":  # the write lock is held there
                assert [router.sql(text) for text in probes] == before, phase

        if operation == "split":
            try:
                router.split_shard("Employees", EIDS[position], checkpoint=probe)
            except ConfigurationError:
                # EIDS[position] was the lower bound of its range tile — a
                # no-op split is refused, nothing to observe
                return
        elif operation == "rebalance":
            router.add_group()
            router.rebalance(checkpoint=probe)
        else:
            router.drain_group(position % 2, checkpoint=probe)
        assert "copied" in phases
        assert [router.sql(text) for text in probes] == before
        held = sorted(
            rid for ids in router.shard_row_ids("Employees").values() for rid in ids
        )
    assert held == list(range(len(EIDS)))
