"""Horizontal sharding across provider groups (scaling out Sec. V).

The paper's deployment is one client in front of one n-provider group;
every table lives, whole, on that group.  This module scales the design
*out*: a :class:`ShardRouter` partitions each table's rows across
several provider groups and fans queries out only to the groups that
can own matching rows.

A row's owner is a function of its *key* alone — the encoded value of
the table's searchable partition column (default: the primary key):

* **hash** — the key's bucket on a fixed ring of
  :data:`DEFAULT_HASH_BUCKETS` is the client's keyed hash of it under
  ``shard/<domain label>``; each bucket has one owner.  Uniform spread,
  and a point predicate on the key names one group.  Placement shows a
  group no more than the key's OP shares already do (which rows share
  a key), and co-labelled columns (``Employees.eid`` /
  ``Managers.eid``) put equal keys on one group.
* **range** — the encoded domain is cut into contiguous half-open
  ranges, one owner each.  The interval rewrite that pushes range
  predicates to providers (Sec. V-A) then prunes whole groups.

Cross-shard merging stays exact because shares are linear: COUNT and
SUM partials add, AVG is merged as (sum of SUMs) / (sum of non-null
COUNTs) — the identical numerator and denominator the unsharded path
divides — and MIN/MAX take the extremum of extrema.  MEDIAN is the one
holdout (a median of medians is not a median), so it falls back to
fetching matching rows and reusing the plaintext executor.

Elastic pool operations build on the share-rebuild machinery of
:mod:`repro.client.repair`.  All groups are constructed from **one**
:class:`~repro.core.secrets.ClientSecrets`, so a row can be re-homed by
rebuilding its shares for the destination's evaluation points — the
secret polynomial is extended, never reconstructed.  Migration runs
online behind a staging table:

1. *(no lock)* scan the source group through its read quorum, rebuild
   the moving rows, upload them into a provider-side staging table at
   the destination — invisible to queries;
2. *(write lock)* if the source table's epoch moved, redo the copy
   inside the blocking window; then ``merge_table`` flips the staging
   rows live provider-locally (no row payload crosses the network
   while queries are blocked), ownership flips in the shard map, and
   the source rows are deleted.  Both sides' epochs bump, retiring any
   cached rows.

A reader therefore never observes a half-moved row: before the flip the
rows are only in the source's live table (staging is unqueryable);
after it, only in the destination's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..client.datasource import DataSource, finish_rows, hash_join, join_fetched_columns
from ..client.repair import rebuild_rows_for_targets
from ..client.rewriter import rewrite_predicate, split_join_predicate
from ..core.scheme import ShareRow, TableSharing
from ..core.secrets import ClientSecrets, generate_client_secrets
from ..errors import (
    ConfigurationError,
    QueryError,
    SchemaError,
    UnsupportedQueryError,
)
from ..providers.cluster import ProviderCluster
from ..sqlengine.executor import compute_aggregate, compute_group_aggregate
from ..sqlengine.query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Insert,
    JoinSelect,
    Select,
    Update,
)
from ..sqlengine.expression import Predicate, TruePredicate
from ..sqlengine.schema import TableSchema
from ..sqlengine.sqlparser import parse_sql
from ..sqlengine.table import Table
from .service import StatementLadder
from .session import Session

Row = Dict[str, object]

#: The hash-ring size.  Many more buckets than groups, so rebalancing
#: moves ~1/n_groups of the data instead of re-hashing everything.
DEFAULT_HASH_BUCKETS = 64

#: Suffix of the provider-side staging table an online migration uploads
#: into.  The client never registers a sharing under this name, so the
#: staged rows are unreachable by any query until ``merge_table`` flips
#: them live.
MIGRATION_STAGING_SUFFIX = "__incoming"


# ------------------------------------------------------------- shard maps --
#
# Both kinds answer the same questions about a key and move data in
# *slots* (a ring bucket, a range tile's lower bound), so routing and
# migration never ask which kind they hold.


def partition_key_hash(
    secrets: ClientSecrets, sharing: TableSharing, column: str
) -> Callable[[int], int]:
    """The keyed hash a hash map buckets ``column``'s encoded keys by."""
    return secrets.keyed_hasher(f"shard/{sharing.domain_label(column)}")


class HashShardMap:
    """Keyed-hash partitioning of a partition column over a bucket ring."""

    mode = "hash"

    def __init__(
        self,
        partition_column: str,
        buckets: Sequence[int],
        key_hash: Callable[[int], int],
    ) -> None:
        if not buckets:
            raise ConfigurationError("a hash shard map needs >= 1 bucket")
        self.partition_column = partition_column
        self.buckets: List[int] = list(buckets)
        self.key_hash = key_hash

    def slot_of(self, key: int) -> int:
        return self.key_hash(key) % len(self.buckets)

    def group_for_key(self, key: int) -> int:
        return self.buckets[self.slot_of(key)]

    def groups_for_interval(self, low: int, high: int) -> List[int]:
        """Owners of ``[low, high]``: a point names one bucket."""
        if low == high:
            return [self.group_for_key(low)]
        return self.owning_groups()

    def owning_groups(self) -> List[int]:
        return sorted(set(self.buckets))

    def slots_of(self, group: int) -> List[int]:
        return [b for b, owner in enumerate(self.buckets) if owner == group]

    def reassign(self, bucket: int, group: int) -> None:
        self.buckets[bucket] = group

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "partition_column": self.partition_column,
            "buckets": list(self.buckets),
        }


class RangeShardMap:
    """Contiguous half-open ranges of a partition column's encoded domain.

    ``ranges`` is ``[(lo, hi, group), ...]`` with ``lo <= key < hi``,
    sorted, gap-free, and jointly covering ``[domain.lo, domain.hi + 1)``
    — every encodable key has exactly one owner, which is what makes
    per-row routing total and disjoint.  Every tile holds at least one
    key: an empty one would be a group that silently owns nothing.
    """

    mode = "range"

    def __init__(
        self, partition_column: str, ranges: Sequence[Sequence[int]]
    ) -> None:
        cleaned = sorted(
            (int(lo), int(hi), int(group)) for lo, hi, group in ranges
        )
        if not cleaned:
            raise ConfigurationError("a range shard map needs >= 1 range")
        for position, (lo, hi, group) in enumerate(cleaned):
            if lo >= hi:
                raise ConfigurationError(
                    f"shard range [{lo}, {hi}) of group {group} is empty: "
                    "cuts must be strictly increasing and strictly inside "
                    f"the domain of {partition_column!r}"
                )
            if position and cleaned[position - 1][1] != lo:
                raise ConfigurationError(
                    f"shard ranges must tile the domain without gaps or "
                    f"overlaps; found boundary mismatch "
                    f"{cleaned[position - 1][1]} != {lo}"
                )
        self.partition_column = partition_column
        self.ranges: List[Tuple[int, int, int]] = cleaned

    def tile(self, key: int) -> Tuple[int, int, int]:
        """The ``(lo, hi, group)`` range holding ``key``."""
        for tile in self.ranges:
            if tile[0] <= key < tile[1]:
                return tile
        raise QueryError(
            f"key {key} outside the sharded domain "
            f"[{self.ranges[0][0]}, {self.ranges[-1][1]}) "
            f"of column {self.partition_column!r}"
        )

    def slot_of(self, key: int) -> int:
        return self.tile(key)[0]

    def group_for_key(self, key: int) -> int:
        return self.tile(key)[2]

    def groups_for_interval(self, low: int, high: int) -> List[int]:
        """Owners of ``[low, high]`` (inclusive, encoded domain)."""
        return sorted(
            {
                group
                for lo, hi, group in self.ranges
                if lo <= high and low < hi
            }
        )

    def owning_groups(self) -> List[int]:
        return sorted({group for _, _, group in self.ranges})

    def slots_of(self, group: int) -> List[int]:
        return [lo for lo, _, g in self.ranges if g == group]

    def split_at(self, key: int, group: int) -> None:
        """Give ``[key, hi)`` of the range containing ``key`` to ``group``."""
        lo, hi, owner = self.tile(key)
        position = self.ranges.index((lo, hi, owner))
        pieces = [(lo, key, owner), (key, hi, group)]
        self.ranges[position : position + 1] = pieces[1:] if key == lo else pieces
        self.normalise()

    def reassign(self, lo: int, group: int) -> None:
        """Reassign the range starting at ``lo`` to ``group``."""
        for position, (range_lo, hi, _) in enumerate(self.ranges):
            if range_lo == lo:
                self.ranges[position] = (lo, hi, group)
                self.normalise()
                return
        raise ConfigurationError(f"no shard range starts at {lo}")

    def normalise(self) -> None:
        """Merge adjacent ranges with the same owner."""
        merged: List[Tuple[int, int, int]] = []
        for lo, hi, group in self.ranges:
            if merged and merged[-1][2] == group and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi, group)
            else:
                merged.append((lo, hi, group))
        self.ranges = merged

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "partition_column": self.partition_column,
            "ranges": [list(r) for r in self.ranges],
        }


ShardMap = Union[HashShardMap, RangeShardMap]


def shard_map_from_dict(
    payload: Dict[str, object], secrets: ClientSecrets, sharing: TableSharing
) -> ShardMap:
    """Inverse of ``to_dict`` for either map kind (snapshot restore); a
    hash map's key hash is rebuilt from the client secrets."""
    mode = payload.get("mode")
    if mode == "range":
        return RangeShardMap(str(payload["partition_column"]), payload["ranges"])
    if mode != "hash":
        raise ConfigurationError(f"unknown shard map mode {mode!r}")
    if "partition_column" not in payload:
        raise ConfigurationError(
            "hash shard map in the row-id placement format (buckets, no "
            "partition column): its rows were placed by row id, and "
            "routing them by key would miss rows"
        )
    column = str(payload["partition_column"])
    return HashShardMap(
        column,
        [int(b) for b in payload["buckets"]],
        partition_key_hash(secrets, sharing, column),
    )


# ---------------------------------------------------------- partial merges --
#
# Pure functions over per-shard partial results.  Soundness arguments sit
# with each; the property suite checks them against the plaintext
# executor on randomly partitioned row sets.


def merge_counts(partials: Sequence[Optional[int]]) -> int:
    """COUNT partials add — shards partition the matching rows."""
    return sum(int(p) for p in partials if p is not None)


def merge_sums(partials: Sequence[object]) -> Optional[object]:
    """SUM partials add; all-NULL shards contribute nothing.

    ``None`` (no non-null value anywhere) stays ``None``, matching the
    unsharded SQL convention.
    """
    present = [p for p in partials if p is not None]
    if not present:
        return None
    total = present[0]
    for value in present[1:]:
        total = total + value
    return total


def merge_extremum(
    partials: Sequence[object], func: AggregateFunc
) -> Optional[object]:
    """MIN/MAX of per-shard extrema is the global extremum."""
    present = [p for p in partials if p is not None]
    if not present:
        return None
    return min(present) if func is AggregateFunc.MIN else max(present)


def merge_avg(
    pairs: Sequence[Tuple[Optional[object], Optional[int]]]
) -> Optional[object]:
    """AVG from per-shard (SUM, non-null COUNT) pairs.

    Dividing the merged sum by the merged count reproduces the unsharded
    ``total / len(values)`` *exactly* — same numerator, same denominator,
    same single division — so even float results are bit-identical.
    """
    total = merge_sums([s for s, _ in pairs])
    count = merge_counts([c for _, c in pairs])
    if count == 0 or total is None:
        return None
    return total / count


def merge_partials(func: AggregateFunc, partials: Sequence[object]):
    """Merge per-shard COUNT / SUM / MIN / MAX partials by ``func``."""
    if func is AggregateFunc.COUNT:
        return merge_counts(partials)
    if func is AggregateFunc.SUM:
        return merge_sums(partials)
    return merge_extremum(partials, func)


def merge_grouped(
    aggregate: Aggregate,
    group_column: str,
    shard_results: Sequence[List[Row]],
) -> List[Row]:
    """Merge per-shard grouped COUNT/SUM/MIN/MAX results by group key."""
    label = aggregate.func.value
    merged: Dict[object, List[object]] = {}
    for result in shard_results:
        for row in result:
            merged.setdefault(row[group_column], []).append(row[label])
    return [
        {group_column: key, label: merge_partials(aggregate.func, merged[key])}
        for key in sorted(merged)
    ]


def merge_grouped_avg(
    group_column: str,
    sum_results: Sequence[List[Row]],
    count_results: Sequence[List[Row]],
) -> List[Row]:
    """Merge grouped AVG: per key, :func:`merge_avg` of the shards'
    (grouped SUM, grouped non-null COUNT) pairs."""
    pairs: Dict[object, List[Tuple[Optional[object], int]]] = {}
    for sums, counts in zip(sum_results, count_results):
        shard_sums = {row[group_column]: row["sum"] for row in sums}
        for row in counts:
            key = row[group_column]
            pairs.setdefault(key, []).append(
                (shard_sums.get(key), row["count"])
            )
    return [
        {group_column: key, "avg": merge_avg(pairs[key])}
        for key in sorted(pairs)
    ]


def rebalance_plan(
    buckets: Sequence[int], active: Sequence[int]
) -> Dict[Tuple[int, int], List[int]]:
    """Minimal-move plan spreading ``buckets`` evenly over ``active`` groups.

    Returns ``{(src_group, dst_group): [bucket, ...]}``.  Buckets owned
    by non-active groups always move; active groups shed only their
    surplus above ``len(buckets) // len(active)`` (+1 for the remainder,
    granted to the lowest group indexes), so the plan never shuffles a
    bucket between two under-target groups.
    """
    if not active:
        raise ConfigurationError("rebalance needs >= 1 active group")
    ordered = sorted(set(active))
    held: Dict[int, List[int]] = {g: [] for g in ordered}
    surplus: List[Tuple[int, int]] = []
    for bucket, owner in enumerate(buckets):
        if owner in held:
            held[owner].append(bucket)
        else:
            surplus.append((owner, bucket))
    base, remainder = divmod(len(buckets), len(ordered))
    desired = {
        g: base + (1 if position < remainder else 0)
        for position, g in enumerate(ordered)
    }
    for g in ordered:
        extra = len(held[g]) - desired[g]
        if extra > 0:
            surplus.extend((g, bucket) for bucket in held[g][-extra:])
    plan: Dict[Tuple[int, int], List[int]] = {}
    for g in ordered:
        need = desired[g] - min(len(held[g]), desired[g])
        for _ in range(need):
            if not surplus:
                break
            src, bucket = surplus.pop(0)
            plan.setdefault((src, g), []).append(bucket)
    return plan


# ------------------------------------------------------------ the router --


@dataclass
class ShardGroup:
    """One provider group participating in a sharded deployment."""

    name: str
    source: DataSource
    retired: bool = False

    @property
    def cluster(self):
        return self.source.cluster

    @property
    def network(self):
        return self.source.cluster.network


class ShardRouter(StatementLadder):
    """Route, fan out, and merge queries over sharded provider groups.

    Presents the same ``execute``/``sql``/session surface as
    :class:`~repro.service.service.QueryService` — statements climb the
    same :class:`~repro.service.service.StatementLadder` — plus the
    elastic pool operations (:meth:`add_group`, :meth:`split_shard`,
    :meth:`rebalance`, :meth:`drain_group`).

    The router owns routing and merging, no relational logic: a
    multi-owner row read is one scatter → gather → finish, where the
    gather orders the owners' ``(row_id, row)`` pairs by row id and the
    finish and the cross-shard hash join are the client's own
    (:func:`~repro.client.datasource.finish_rows`,
    :func:`~repro.client.datasource.hash_join`) — so row reads return
    row-id order, ORDER BY ties broken by row id, on every deployment
    shape.

    All groups must be built from one shared
    :class:`~repro.core.secrets.ClientSecrets`: identical evaluation
    points and hash keys are what make share rows *portable* between
    groups (cross-group migration rebuilds shares without ever touching
    plaintext).
    """

    def __init__(
        self,
        sources: Sequence[DataSource],
        mode: str = "hash",
        seed: int = 0,
    ) -> None:
        if not sources:
            raise ConfigurationError("a shard router needs >= 1 group")
        if mode not in ("hash", "range"):
            raise ConfigurationError(
                f"unknown sharding mode {mode!r} (hash or range)"
            )
        first = sources[0]
        for source in sources[1:]:
            if (
                source.secrets.evaluation_points
                != first.secrets.evaluation_points
                or source.secrets.hash_key != first.secrets.hash_key
            ):
                raise ConfigurationError(
                    "shard groups must share one client secret set — "
                    "cross-group share rebuilds rely on identical "
                    "evaluation points and hash keys"
                )
            if (
                source.threshold != first.threshold
                or source.cluster.n_providers != first.cluster.n_providers
            ):
                raise ConfigurationError(
                    "shard groups must agree on (n, k); mixed geometries "
                    "would make rebuilt rows unreadable"
                )
            if source.namespace != first.namespace:
                raise ConfigurationError(
                    "shard groups must share a namespace"
                )
        super().__init__()
        self.groups: List[ShardGroup] = [
            ShardGroup(f"group{index}", source)
            for index, source in enumerate(sources)
        ]
        self.default_mode = mode
        self.threshold = first.threshold
        self.secrets = first.secrets
        self._seed = seed
        self._maps: Dict[str, ShardMap] = {}
        self._next_row_id: Dict[str, int] = {}
        self._row_id_lock = threading.Lock()
        #: :class:`~repro.service.session.Session` allocates row ids
        #: through ``service.source.reserve_row_ids`` — the router is its
        #: own source, so session id blocks come from the router-global
        #: counter and never collide across groups
        self.source = self
        self.migrations = 0

    # ------------------------------------------------------------- building --

    @staticmethod
    def _new_source(
        index: int, n_providers: int, threshold: int, seed: int, secrets
    ) -> DataSource:
        """Group ``index``'s fresh providers and data source, on its own
        deterministic RNG stream derived from the router's one seed."""
        cluster = ProviderCluster(
            n_providers, threshold, name_prefix=f"g{index}/"
        )
        group_seed = (seed * 1_000_003 + 7_919 * index + 1) % (1 << 62)
        return DataSource(cluster, seed=group_seed, secrets=secrets)

    @classmethod
    def build(
        cls,
        n_groups: int = 2,
        providers_per_group: int = 5,
        threshold: int = 3,
        seed: int = 0,
        mode: str = "hash",
    ) -> "ShardRouter":
        """Construct ``n_groups`` fresh provider groups sharing one secret."""
        if n_groups < 1:
            raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
        secrets = generate_client_secrets(providers_per_group, seed)
        sources = [
            cls._new_source(
                index, providers_per_group, threshold, seed, secrets
            )
            for index in range(n_groups)
        ]
        return cls(sources, mode=mode, seed=seed)

    def snapshot(self) -> Dict[str, object]:
        """The router's own state, JSON-ready: what :meth:`restore` needs
        beyond the groups' snapshots (see ``persistence``)."""
        return {
            "mode": self.default_mode,
            "retired": [i for i, g in enumerate(self.groups) if g.retired],
            "maps": {
                name: shard_map.to_dict()
                for name, shard_map in sorted(self._maps.items())
            },
            "next_row_ids": {
                name: self._next_row_id.get(name, 0)
                for name in sorted(self._maps)
            },
        }

    def restore(self, snapshot: Dict[str, object]) -> "ShardRouter":
        """Install :meth:`snapshot` state on a router freshly constructed
        over the restored groups; returns the router."""
        self.default_mode = snapshot["mode"]
        for index in snapshot.get("retired", ()):
            self.groups[index].retired = True
        self._maps = {
            name: shard_map_from_dict(payload, self.secrets, self._sharing(name))
            for name, payload in snapshot["maps"].items()
        }
        self._next_row_id = {
            name: int(value)
            for name, value in snapshot["next_row_ids"].items()
        }
        return self

    # ---------------------------------------------------------- introspection --

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def active_group_indexes(self) -> List[int]:
        return [i for i, g in enumerate(self.groups) if not g.retired]

    def shard_map(self, table: str) -> ShardMap:
        try:
            return self._maps[table]
        except KeyError:
            raise SchemaError(f"table {table!r} is not sharded here") from None

    def table_names(self) -> List[str]:
        return sorted(self._maps)

    def _sharing(self, table: str) -> TableSharing:
        # group 0 always carries every table's sharing (schemas are
        # registered on all groups, retired ones included)
        return self.groups[0].source.sharing(table)

    def shard_row_ids(self, table: str) -> Dict[int, List[int]]:
        """``{group_index: sorted row ids}`` actually held per group.

        Ground truth for the "no row lost, no row duplicated" invariants
        the elastic tests and the benchmark's ``--check`` gate assert.
        """
        out: Dict[int, List[int]] = {}
        for index in self.active_group_indexes():
            aligned = self.groups[index].source.scan_share_rows(table)
            out[index] = sorted(
                rid
                for rid, share_rows in aligned.items()
                if len(share_rows) >= self.threshold
            )
        return out

    # ----------------------------------------------------------------- DDL --

    def create_table(
        self,
        schema: TableSchema,
        mode: Optional[str] = None,
        partition_column: Optional[str] = None,
        boundaries: Optional[Sequence[object]] = None,
    ) -> None:
        """Create a table on every group and install its shard map.

        ``partition_column`` defaults to the primary key and must be
        searchable.  ``boundaries`` (range mode) are plaintext cut values
        — group i owns ``[boundary[i-1], boundary[i])``; omitted, the
        encoded domain is cut into equal slices over the active groups.
        """
        with self._table_lock.writing():
            mode = mode or self.default_mode
            if mode not in ("hash", "range"):
                raise ConfigurationError(f"unknown sharding mode {mode!r}")
            if schema.name in self._maps:
                raise SchemaError(f"table {schema.name!r} already sharded")
            column = partition_column or schema.primary_key
            if column is None:
                raise SchemaError(
                    f"sharding {schema.name!r} needs a partition column "
                    "(none given, no primary key)"
                )
            active = self.active_group_indexes()
            for index, group in enumerate(self.groups):
                if group.retired:
                    # keep the sharing registered so a later un-drain or
                    # restore can still resolve schemas; no provider RPC
                    group.source.restore_table(schema, 0)
                else:
                    group.source.create_table(schema)
            sharing = self._sharing(schema.name)
            if not sharing.is_searchable(column):
                raise SchemaError(
                    f"partition column {column!r} must be searchable "
                    "(order-preserving shares are what let a predicate "
                    "on the key prune shards)"
                )
            if mode == "hash":
                buckets = [active[b % len(active)] for b in range(DEFAULT_HASH_BUCKETS)]
                key_hash = partition_key_hash(self.secrets, sharing, column)
                shard_map: ShardMap = HashShardMap(column, buckets, key_hash)
            else:
                domain = sharing.op_scheme(column).domain
                if boundaries is not None:
                    cuts = [
                        self._encode_partition_key(sharing, column, value)
                        for value in boundaries
                    ]
                    if len(cuts) != len(active) - 1:
                        raise ConfigurationError(
                            f"{len(active)} active groups need "
                            f"{len(active) - 1} boundaries, got {len(cuts)}"
                        )
                else:
                    cuts = [
                        domain.lo + (domain.size * (j + 1)) // len(active)
                        for j in range(len(active) - 1)
                    ]
                edges = [domain.lo] + cuts + [domain.hi + 1]
                shard_map = RangeShardMap(
                    column,
                    [
                        (edges[j], edges[j + 1], active[j])
                        for j in range(len(active))
                    ],
                )
            self._maps[schema.name] = shard_map
            self._next_row_id[schema.name] = 0

    def outsource_table(
        self,
        table: Table,
        mode: Optional[str] = None,
        partition_column: Optional[str] = None,
        boundaries: Optional[Sequence[object]] = None,
        batch_size: int = 500,
    ) -> int:
        """Create + bulk-load a plaintext table across the groups."""
        self.create_table(table.schema, mode, partition_column, boundaries)
        rows = table.rows()
        for start in range(0, len(rows), batch_size):
            self.insert_many(table.schema.name, rows[start : start + batch_size])
        return len(rows)

    # --------------------------------------------------------------- routing --

    @staticmethod
    def _encode_partition_key(
        sharing: TableSharing, column: str, value: object
    ) -> int:
        encoded = sharing.encode(column, value)
        if encoded is None:
            raise QueryError(
                f"cannot encode {value!r} for partition column {column!r}"
            )
        return encoded

    def _owners_for(self, table: str, where: Predicate) -> List[int]:
        """Groups that can hold a row of ``table`` matching ``where``,
        after interval pruning — the one owner lookup, for reads and
        writes alike."""
        sharing = self._sharing(table)
        shard_map = self.shard_map(table)
        rewritten = rewrite_predicate(where.bind(sharing.schema), sharing)
        if rewritten.provably_empty:
            return []
        owners = shard_map.owning_groups()
        for interval in rewritten.intervals:
            if interval.column == shard_map.partition_column:
                hit = shard_map.groups_for_interval(interval.low, interval.high)
                owners = [g for g in owners if g in hit]
        return owners

    def owner_for_row(self, table: str, row: Row) -> int:
        """The group a new row belongs to: its partition key's owner."""
        shard_map = self.shard_map(table)
        column = shard_map.partition_column
        key = self._encode_partition_key(
            self._sharing(table), column, row.get(column)
        )
        return shard_map.group_for_key(key)

    def write_owners(self, stmt: Union[Update, Delete]) -> List[int]:
        """The groups an UPDATE / DELETE must visit, after interval
        pruning — the one copy of write routing and its guard, shared by
        :meth:`update` / :meth:`delete` and the sharded transaction
        manager."""
        column = self.shard_map(stmt.table).partition_column
        if isinstance(stmt, Update) and column in stmt.assignments:
            raise UnsupportedQueryError(
                f"updating partition column {column!r} would re-home rows "
                "across shard groups; DELETE + INSERT instead"
            )
        return self._owners_for(stmt.table, stmt.where)

    # ---------------------------------------------------------------- writes --

    def reserve_row_ids(self, table: str, count: int) -> int:
        """Router-global row-id block (sessions allocate through this)."""
        if count < 1:
            raise QueryError(f"cannot reserve {count} row ids")
        self.shard_map(table)
        with self._row_id_lock:
            start = self._next_row_id.get(table, 0)
            self._next_row_id[table] = start + count
        return start

    def insert_many(
        self,
        table: str,
        rows: Sequence[Row],
        row_ids: Optional[Sequence[int]] = None,
    ) -> List[int]:
        with self._table_lock.writing():
            return self._insert_many(table, rows, row_ids)

    def _insert_many(
        self,
        table: str,
        rows: Sequence[Row],
        row_ids: Optional[Sequence[int]],
    ) -> List[int]:
        shard_map = self.shard_map(table)
        if not rows:
            return []
        if row_ids is None:
            start = self.reserve_row_ids(table, len(rows))
            row_ids = list(range(start, start + len(rows)))
        elif len(row_ids) != len(rows):
            raise QueryError(
                f"{len(rows)} rows but {len(row_ids)} row ids"
            )
        per_group: Dict[int, Tuple[List[Row], List[int]]] = {}
        for row_id, row in zip(row_ids, rows):
            bucket = per_group.setdefault(
                self.owner_for_row(table, row), ([], [])
            )
            bucket[0].append(row)
            bucket[1].append(row_id)
        for owner in sorted(per_group):
            group_rows, group_ids = per_group[owner]
            self.groups[owner].source.insert_many(table, group_rows, group_ids)
        return list(row_ids)

    def _write(self, stmt: Union[Update, Delete]) -> int:
        return sum(
            self.groups[owner].source.execute(stmt)
            for owner in self.write_owners(stmt)
        )

    def update(self, query: Update) -> int:
        with self._table_lock.writing():
            return self._write(query)

    def delete(self, query: Delete) -> int:
        with self._table_lock.writing():
            return self._write(query)

    # ----------------------------------------------------------------- reads --

    def select(self, query: Select):
        with self._table_lock.reading():
            return self._select(query)

    def _select(self, query: Select):
        owners = self._owners_for(query.table, query.where)
        telemetry.count(
            "shard.fanout", max(len(owners), 1), table=query.table
        )
        if len(owners) == 1:
            return self.groups[owners[0]].source.select(query)
        if query.is_aggregate:
            return self._aggregate(query, owners)
        # each shard returns its own top-limit superset of the columns the
        # global finish uses; the global order/limit/projection are its own
        columns = query.columns
        if columns and query.order_by not in (None, *columns):
            columns += (query.order_by,)
        pairs = self._gather(replace(query, columns=columns), owners)
        schema = self._sharing(query.table).schema
        return [row for _, row in finish_rows(query, schema, pairs)]

    def _gather(
        self, query: Select, owners: List[int]
    ) -> List[Tuple[int, Row]]:
        """Scatter a row read to ``owners``; their ``(row_id, row)``
        pairs gathered in row-id order (ids are router-global)."""
        pairs: List[Tuple[int, Row]] = []
        for owner in owners:
            pairs.extend(self.groups[owner].source.select_pairs(query))
        pairs.sort(key=itemgetter(0))
        return pairs

    def _aggregate(self, query: Select, owners: List[int]):
        """A plain or grouped aggregate over several owners (or none)."""
        aggregate, group_column = query.aggregate, query.group_by
        if aggregate.func is AggregateFunc.MEDIAN:
            # a median of shard medians is not the median; fall back to
            # fetching the matching column values and reusing the
            # plaintext executor
            columns = (aggregate.column,)
            if group_column is not None:
                columns += (group_column,)
            fetch = replace(
                query, aggregate=None, group_by=None, columns=columns
            )
            rows = [row for _, row in self._gather(fetch, owners)]
            if group_column is None:
                return compute_aggregate(aggregate, rows)
            return compute_group_aggregate(aggregate, group_column, rows)

        def partials(func: AggregateFunc) -> List[object]:
            shard_query = replace(
                query, aggregate=Aggregate(func, aggregate.column)
            )
            return [
                self.groups[owner].source.select(shard_query)
                for owner in owners
            ]

        if aggregate.func is AggregateFunc.AVG:
            sums = partials(AggregateFunc.SUM)
            counts = partials(AggregateFunc.COUNT)
            if group_column is None:
                return merge_avg(list(zip(sums, counts)))
            return merge_grouped_avg(group_column, sums, counts)
        if group_column is None:
            return merge_partials(aggregate.func, partials(aggregate.func))
        return merge_grouped(
            aggregate, group_column, partials(aggregate.func)
        )

    def join(self, query: JoinSelect) -> List[Row]:
        with self._table_lock.reading():
            return self._join(query)

    def _join(self, query: JoinSelect) -> List[Row]:
        left_pred, right_pred, residual = split_join_predicate(
            query.where, query.left_table, query.right_table
        )
        # each side's gather names the columns the join uses; the owning
        # groups' plans add that side's own residual, as a join's plan does
        left_columns, right_columns = join_fetched_columns(
            query,
            tuple(self._sharing(t).schema for t in (query.left_table, query.right_table)),
            (TruePredicate(), TruePredicate()),
            residual,
        )
        left_owners = self._owners_for(query.left_table, left_pred)
        right_owners = self._owners_for(query.right_table, right_pred)
        if not left_owners or not right_owners:
            return []
        if len(left_owners) == 1 and left_owners == right_owners:
            # co-located: the one owning group can run its native join
            # protocol (including the provider-side intersection path)
            return self.groups[left_owners[0]].source.join(query)
        return hash_join(
            query,
            self._gather(Select(query.left_table, left_columns or (), left_pred), left_owners),
            self._gather(Select(query.right_table, right_columns or (), right_pred), right_owners),
            residual,
        )

    # ------------------------------------------------------------- execution --

    def execute(self, query, session: Optional[Session] = None):
        """Route one statement (SQL text or AST node) up the ladder."""
        statement = parse_sql(query) if isinstance(query, str) else query
        (result,) = self._run_statements(
            [statement],
            [lambda: [self._run(statement, session)]],
            span="shard.query",
            session=session,
        )
        return result

    def _run(self, statement, session: Optional[Session]):
        if isinstance(statement, Insert):
            row_ids = (
                session.allocate_row_ids(statement.table, 1)
                if session is not None
                else None
            )
            self._insert_many(statement.table, [statement.row], row_ids)
            return 1
        if isinstance(statement, Select):
            return self._select(statement)
        if isinstance(statement, JoinSelect):
            return self._join(statement)
        if isinstance(statement, (Update, Delete)):
            return self._write(statement)
        raise QueryError(
            f"unsupported statement {type(statement).__name__}"
        )

    def sql(self, text: str):
        return self.execute(text)

    def close(self) -> None:
        """Nothing to release: the router is the deployment's one front
        end and stacks no service on its groups."""

    # ------------------------------------------------------------ accounting --

    def total_network_bytes(self) -> int:
        return sum(group.network.total_bytes for group in self.groups)

    def total_network_messages(self) -> int:
        return sum(group.network.total_messages for group in self.groups)

    def modelled_network_seconds(self) -> float:
        """Wall-clock under the cost model: groups transfer in parallel."""
        return max(
            (group.network.modelled_seconds for group in self.groups),
            default=0.0,
        )

    def modelled_network_seconds_total(self) -> float:
        return sum(group.network.modelled_seconds for group in self.groups)

    def reset_accounting(self) -> None:
        for group in self.groups:
            group.source.reset_accounting()

    def report(self) -> Dict[str, object]:
        return {
            "router": self.stats.snapshot(),
            "sessions": self.sessions.snapshot(),
            "migrations": self.migrations,
            "groups": [
                {
                    "name": group.name,
                    "retired": group.retired,
                    "network_bytes": group.network.total_bytes,
                    "network_messages": group.network.total_messages,
                    "modelled_seconds": group.network.modelled_seconds,
                }
                for group in self.groups
            ],
        }

    # ------------------------------------------------------------ elasticity --

    def add_group(self) -> int:
        """Register a fresh provider group (owning nothing yet) under load."""
        with self._table_lock.writing():
            index = len(self.groups)
            source = self._new_source(
                index,
                self.groups[0].cluster.n_providers,
                self.threshold,
                self._seed,
                self.secrets,
            )
            for name in sorted(self._maps):
                source.create_table(self._sharing(name).schema)
            self.groups.append(ShardGroup(f"group{index}", source))
            return index

    def split_shard(
        self,
        table: str,
        at_value: object,
        to_group: Optional[int] = None,
        checkpoint: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Move keys ``>= at_value`` of their range onto another group.

        ``to_group`` defaults to a freshly added group.  Returns the
        number of rows migrated.  Runs online (see :meth:`_migrate`).
        """
        shard_map = self.shard_map(table)
        if not isinstance(shard_map, RangeShardMap):
            raise ConfigurationError(
                f"{table!r} is hash-sharded; split applies to range "
                "sharding (use rebalance instead)"
            )
        sharing = self._sharing(table)
        key = self._encode_partition_key(
            sharing, shard_map.partition_column, at_value
        )
        range_lo, range_hi, src = shard_map.tile(key)
        if key == range_lo:
            raise ConfigurationError(
                f"split point {at_value!r} is the lower bound of its "
                "range; nothing would remain on the source group"
            )
        if to_group is None:
            to_group = self.add_group()

        def flip() -> None:
            shard_map.split_at(key, to_group)

        return self._migrate(
            table, src, to_group, lambda k: key <= k < range_hi, flip, checkpoint
        )

    def rebalance(
        self,
        table: Optional[str] = None,
        checkpoint: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Even out hash buckets across the active groups, minimally.

        Newly added groups receive their fair share; retired groups shed
        everything.  Returns total rows moved.
        """
        if table is not None and not isinstance(
            self.shard_map(table), HashShardMap
        ):
            raise ConfigurationError(
                f"{table!r} is range-sharded; rebalance applies to "
                "hash sharding (use split_shard instead)"
            )
        active = self.active_group_indexes()
        moved = 0
        for name in [table] if table is not None else sorted(self._maps):
            shard_map = self._maps[name]
            if isinstance(shard_map, HashShardMap):
                plan = rebalance_plan(shard_map.buckets, active)
                for (src, dst), buckets in sorted(plan.items()):
                    moved += self._move_slots(
                        name, src, dst, buckets, checkpoint
                    )
        return moved

    def drain_group(
        self,
        group_index: int,
        checkpoint: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Move everything off a group, then retire it: its slots go
        round-robin to the remaining active groups."""
        if not 0 <= group_index < len(self.groups):
            raise ConfigurationError(f"no group at index {group_index}")
        if self.groups[group_index].retired:
            raise ConfigurationError(
                f"group {group_index} is already retired"
            )
        remaining = [
            g for g in self.active_group_indexes() if g != group_index
        ]
        if not remaining:
            raise ConfigurationError(
                "cannot drain the last active group"
            )
        moved = 0
        for name in sorted(self._maps):
            slots = self._maps[name].slots_of(group_index)
            for position, dst in enumerate(remaining):
                share = slots[position :: len(remaining)]
                if share:
                    moved += self._move_slots(
                        name, group_index, dst, share, checkpoint
                    )
        self.groups[group_index].retired = True
        return moved

    def _move_slots(
        self,
        table: str,
        src: int,
        dst: int,
        slots: List[int],
        checkpoint: Optional[Callable[[str], None]],
    ) -> int:
        """Migrate the rows of ``src``'s ``slots`` to ``dst``."""
        shard_map = self.shard_map(table)
        moving = set(slots)

        def flip() -> None:
            for slot in slots:
                shard_map.reassign(slot, dst)

        return self._migrate(
            table,
            src,
            dst,
            lambda key: shard_map.slot_of(key) in moving,
            flip,
            checkpoint,
        )

    def _check_destination(self, dst: int, src: int) -> None:
        if not 0 <= dst < len(self.groups):
            raise ConfigurationError(f"no group at index {dst}")
        if self.groups[dst].retired:
            raise ConfigurationError(f"group {dst} is retired")
        if dst == src:
            raise ConfigurationError(
                f"migration source and destination are both group {src}"
            )

    # -------------------------------------------------------------- migration --

    def _migrate(
        self,
        table: str,
        src_index: int,
        dst_index: int,
        moving: Callable[[int], bool],
        flip: Callable[[], None],
        checkpoint: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Online share-level migration of the rows whose partition key
        ``moving`` selects — the key recovered robustly from its OP shares.

        The staging protocol from the module docstring.  ``checkpoint``
        (tests) is called at each phase boundary: ``scanned``, ``copied``,
        ``recopied`` (only if a write raced the online copy), ``cutover``
        (still under the write lock — must not query the router), and
        ``done``.
        """
        self._check_destination(dst_index, src_index)
        notify = checkpoint if checkpoint is not None else (lambda phase: None)
        src = self.groups[src_index].source
        dst = self.groups[dst_index].source
        sharing = src.sharing(table)
        targets = list(range(sharing.n_providers))
        staging = f"{table}{MIGRATION_STAGING_SUFFIX}"
        # one redundant share lets the rebuild blame a tampering quorum
        # member instead of extending a steered polynomial
        extra = 1 if src.cluster.n_providers > self.threshold else 0
        column = self.shard_map(table).partition_column
        op = sharing.op_scheme(column)

        def selected(share_rows: Dict[int, ShareRow]) -> bool:
            keys = {index: row[column] for index, row in share_rows.items()}
            return moving(op.reconstruct_robust(keys))

        def rebuild() -> List[Tuple[int, Dict[int, ShareRow]]]:
            aligned = src.scan_share_rows(table, extra=extra)
            chosen = {
                row_id: share_rows
                for row_id, share_rows in aligned.items()
                if selected(share_rows)
            }
            return rebuild_rows_for_targets(sharing, chosen, targets)

        with telemetry.span(
            "shard.migrate", table=table, src=src_index, dst=dst_index
        ) as span:
            epoch = src.table_epoch(table)
            moved = rebuild()
            notify("scanned")
            dst.create_staging_table(table, staging)
            dst.insert_share_rows(table, moved, into=staging)
            notify("copied")
            with self._table_lock.writing():
                if src.table_epoch(table) != epoch:
                    # a write raced the online copy; redo it inside the
                    # blocking window so the cutover sees a settled row set
                    dst.drop_staging_table(staging)
                    dst.create_staging_table(table, staging)
                    moved = rebuild()
                    dst.insert_share_rows(table, moved, into=staging)
                    notify("recopied")
                dst.merge_staging_table(table, staging)
                flip()
                src.delete_row_ids(table, [row_id for row_id, _ in moved])
                notify("cutover")
            span.set(rows=len(moved))
            telemetry.count("shard.migrated_rows", len(moved), table=table)
        self.migrations += 1
        notify("done")
        return len(moved)
