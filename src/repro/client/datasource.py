"""The data source: the client of the outsourced database (Sec. III).

A :class:`DataSource` owns the secret material, outsources plaintext
tables as shares across the provider cluster, rewrites queries per
provider (Sec. V-A), reconstructs results, and performs updates
(Sec. V-C).  It deliberately stores **no data** — only schemas, secrets,
and a per-table row-id counter — matching the paper's footnote 1 that
storing the sharing polynomials "would amount to storing the entire data
itself".

Usage::

    cluster = ProviderCluster(n_providers=5, threshold=3)
    source = DataSource(cluster, seed=7)
    source.outsource_table(employees_table)
    rows = source.sql("SELECT name FROM Employees WHERE salary BETWEEN 10000 AND 40000")
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..core.order_preserving import OrderPreservingScheme
from ..core.scheme import ShareRow, TableSharing
from ..core.secrets import ClientSecrets, generate_client_secrets
from ..errors import (
    IntegrityError,
    QueryError,
    SchemaError,
    UnsupportedQueryError,
)
from ..providers.cluster import ProviderCluster
from ..sim.costmodel import CostRecorder
from ..sim.network import ShareRows
from ..sim.rng import DeterministicRNG
from ..sqlengine.catalog import Catalog
from ..sqlengine.executor import (
    PlaintextExecutor,
    compute_aggregate,
    compute_group_aggregate,
)
from ..sqlengine.expression import Predicate, TruePredicate
from ..sqlengine.query import (
    Aggregate,
    AggregateFunc,
    Delete,
    Delta,
    Insert,
    JoinSelect,
    Select,
    Update,
    resolve_assignments,
)
from ..sqlengine.schema import ColumnType, TableSchema, python_value_sort_key
from ..sqlengine.sqlparser import parse_sql
from ..sqlengine.table import Table
from .reconstruct import (
    align_by_row_id,
    consistent_scalar,
    reconstruct_rows,
    reconstruct_rows_checked,
    reconstruct_single_rows,
    rows_from_responses,
)
from .rewriter import (
    RewrittenPredicate,
    rewrite_predicate,
    split_join_predicate,
)
from .rowcache import RowCache, WriteEffect

Row = Dict[str, object]

#: RPC methods that mutate provider row state.  ``DataSource._broadcast``
#: refuses these unless the call came through :meth:`DataSource._mutate`
#: — the choke point that makes forgetting a row-cache invalidation
#: structurally impossible (ISSUE-8).  The transaction
#: layer's ``txn_apply`` rounds go through :meth:`DataSource.control_round`
#: and carry their own logged epochs.
MUTATING_RPCS = frozenset(
    {
        "insert_many",
        "update_rows",
        "delete_rows",
        "increment_rows",
        "merge_table",
        "txn_apply",
    }
)

#: The closed set of read modes (see "the read pipeline" in
#: :class:`DataSource`): who a read round asks and how cells are decoded.
#: Internal — the public knobs stay ``verified_reads``/``read_redundancy``
#: and the choice of ``select*`` entry point.
_QUORUM, _AUDITED, _CHECKED = "quorum", "audited", "checked"

#: Request fields of a read that wants every column of every matching row.
_FULL_ROWS: Dict[str, object] = {"projection": None}


def _query_signature(predicate: Predicate, fields: Dict[str, object]) -> Tuple:
    """The row-cache key of a quorum read of ``predicate``'s matches with
    request ``fields``: a SELECT replays by it, a write takes matches by it.
    It covers what fixes the row set, not the projection."""
    return ("select", repr(predicate), tuple({**fields, "projection": None}.items()))


def fetched_columns(schema: TableSchema, used: "set[str]") -> Optional[Tuple[str, ...]]:
    """The projection a quorum read sends: the columns of ``schema`` its
    client-side finish uses (select list, sort, join key, group and
    aggregate columns, residual), in schema order — or ``None``, whole
    rows, when that is every column."""
    fetched = tuple(name for name in schema.column_names if name in used)
    return None if len(fetched) == len(schema.columns) else fetched


def join_fetched_columns(
    query: JoinSelect,
    schemas: Tuple[TableSchema, TableSchema],
    side_residuals: Tuple[Predicate, Predicate],
    residual: Predicate,
) -> Tuple[Optional[Tuple[str, ...]], Optional[Tuple[str, ...]]]:
    """Each side's :func:`fetched_columns` in a join: its select-list
    names, its join key, its own residual's columns and its names in the
    cross-table ``residual``.  Both sides fetch whole rows for ``SELECT *``
    and when a residual name is not ``table.column`` of one side; a
    select-list name that is not raises :class:`QueryError`."""
    tables = (query.left_table, query.right_table)
    known = dict(zip(tables, schemas))

    def owned(name: str) -> bool:
        table, _, column = name.partition(".")
        return table in known and column in known[table].column_names

    unknown = [name for name in query.columns if not owned(name)]
    if unknown:
        raise QueryError(f"unknown projection columns {unknown}")
    names = (*query.columns, *residual.referenced_columns())
    if not query.columns or not all(map(owned, names)):
        return None, None
    keys = (query.left_column, query.right_column)
    used = [{key, *side.referenced_columns()} for key, side in zip(keys, side_residuals)]
    for name in names:
        table, _, column = name.partition(".")
        used[tables.index(table)].add(column)
    left, right = map(fetched_columns, schemas, used)
    return left, right


@dataclass(frozen=True)
class WriteOp:
    """One planned row write (built by :meth:`DataSource.plan_write`).

    A value, not a behaviour: :meth:`DataSource.apply_write` sends it, the
    transaction layer logs it to the WAL first and applies it later.
    """

    #: the mutating RPC: ``insert_many`` / ``update_rows`` / ``delete_rows``
    #: / ``increment_rows``
    method: str
    #: the logical table name (whoever sends the op qualifies it)
    table: str
    #: one wire payload per provider index, without an epoch (whoever
    #: sends the op stamps it); empty when no row matched — nothing is
    #: sent and no epoch moves
    requests: List[Dict]
    #: what the statement returns: the assigned row ids of an insert, the
    #: affected-row count of an UPDATE / DELETE / increment
    result: object
    #: what the write does in plaintext, for the row cache — never sent,
    #: never logged; ``None`` when the planner does not know the new rows
    effect: Optional[WriteEffect] = None


@dataclass(frozen=True)
class _SelectPlan:
    """How one SELECT executes (built by :meth:`DataSource._plan_select`)."""

    mode: str
    sharing: TableSharing
    #: the WHERE clause bound to the schema, and its share-space rewrite
    predicate: Predicate
    rewritten: RewrittenPredicate
    #: the aggregate (or grouped aggregate) runs at the providers
    can_push: bool
    #: ``select`` request fields, including any pushed projection,
    #: ORDER BY and LIMIT
    fields: Dict[str, object]

    @property
    def fetched(self) -> Tuple[str, ...]:
        """The columns the read fetches: its pushed projection, or all."""
        return self.fields["projection"] or tuple(self.sharing.schema.column_names)


@dataclass(frozen=True)
class _JoinPlan:
    """How one join executes (built by :meth:`DataSource._plan_join`);
    each pair is (left side, right side)."""

    sharings: Tuple[TableSharing, TableSharing]
    rewritten: Tuple[RewrittenPredicate, RewrittenPredicate]
    #: the cross-table conjuncts the client checks on joined rows
    residual: Predicate
    mode: str
    #: each side's pushed projection (``None``: whole rows)
    projections: Tuple[Optional[Tuple[str, ...]], Optional[Tuple[str, ...]]]
    #: the providers can match the keys
    compatible: bool


class DataSource:
    """Client front end over a provider cluster.

    Parameters
    ----------
    cluster:
        The provider cluster (carries ``n`` and the threshold ``k``).
    seed:
        Seed for secret generation and sharing randomness.
    secrets:
        Explicit secret material (e.g. the Figure 1 evaluation points);
        generated from the seed when omitted.
    client_join_fallback:
        When True, joins that cannot run provider-side (different domains,
        non-searchable keys — the case Sec. V-A declares unsupported) fall
        back to fetching both sides and joining at the client.  Default
        False: such queries raise :class:`UnsupportedQueryError`, matching
        the paper's stated capability boundary.
    verified_reads:
        When True, every read requests ``k + read_redundancy`` shares and
        cross-checks them by redundant interpolation: a provider whose
        shares (or row set) disagree with the majority is *blamed*,
        quarantined in the cluster's health tracker, and the query is
        transparently re-issued without it.  Results are correct with up
        to ⌊(m−k)/2⌋ tamperers among the m responders.
    read_redundancy:
        Extra shares beyond k that verified reads request.  ``None`` (the
        default) asks every provider not quarantined or blamed — maximum
        detection power.  The client cannot see a crash, so a crashed
        provider costs a timeout per read until it is quarantined: at most
        ``QUARANTINE_AFTER`` timeouts per cooldown, since reads then leave
        it out while k others can answer.
    failover:
        When True (the default), short read rounds re-dispatch their
        missing sub-requests to spare live providers instead of raising
        :class:`QuorumError` (see :meth:`ProviderCluster.broadcast`).
    """

    def __init__(
        self,
        cluster: ProviderCluster,
        seed: int = 0,
        secrets: Optional[ClientSecrets] = None,
        client_join_fallback: bool = False,
        audit: Optional[object] = None,
        namespace: str = "",
        verified_reads: bool = False,
        read_redundancy: Optional[int] = None,
        failover: bool = True,
    ) -> None:
        self.cluster = cluster
        self.secrets = secrets or generate_client_secrets(
            cluster.n_providers, seed
        )
        if self.secrets.n_providers != cluster.n_providers:
            raise SchemaError(
                f"secrets cover {self.secrets.n_providers} providers but the "
                f"cluster has {cluster.n_providers}"
            )
        self.threshold = cluster.threshold
        self.client_join_fallback = client_join_fallback
        self.verified_reads = verified_reads
        if read_redundancy is not None and read_redundancy < 1:
            raise SchemaError(
                f"read_redundancy must be >= 1 (got {read_redundancy}); "
                "verified reads need at least one share beyond k to "
                "cross-check"
            )
        self.read_redundancy = read_redundancy
        self.failover = failover
        #: optional :class:`~repro.trust.auditing.AuditRegistry`; when set,
        #: every write is mirrored into it and verified reads are available
        self.audit = audit
        #: multi-tenancy: a DBSP serves many customers (Sec. I), so each
        #: client's tables live under its namespace at the providers.
        #: Clients with different namespaces (and their own secrets) share
        #: a cluster without name collisions — and without readability:
        #: another tenant's shares are useless without its secret points.
        if namespace and not namespace.replace("_", "").replace("-", "").isalnum():
            raise SchemaError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self.cost = CostRecorder("client")
        self._rng = DeterministicRNG(seed, "datasource")
        #: how many restores this client's randomness descends from
        self._restore_epoch = 0
        self._sharings: Dict[str, TableSharing] = {}
        self._op_registry: Dict[str, OrderPreservingScheme] = {}
        self._next_row_id: Dict[str, int] = {}
        #: per-table mutation epochs: every write path bumps its table's
        #: epoch (and secret rotation bumps all), so rows cached by
        #: :mod:`repro.client.rowcache` are never replayed against state
        #: they were not read from
        self._table_epochs: Dict[str, int] = {}
        #: highest transaction id any ``TransactionManager`` over this
        #: deployment has logged; a new manager allocates above it
        self.txn_id_high = 0
        #: write-coherent reconstructed-row cache (:mod:`repro.client.rowcache`);
        #: consulted only by plain :meth:`select` — every other read mode
        #: and entry point always goes to the wire
        self.row_cache = RowCache()
        self._row_id_lock = threading.Lock()
        # thread-local guard proving a mutating RPC came through _mutate
        self._mutation = threading.local()
        if audit is not None and getattr(audit, "namespace", "") == "":
            audit.namespace = namespace

    # ----------------------------------------------------------- namespacing --

    def physical_name(self, table_name: str) -> str:
        """The provider-side name of a logical table (namespace-qualified)."""
        if self.namespace:
            return f"{self.namespace}::{table_name}"
        return table_name

    def _qualify(self, request: Dict) -> Dict:
        """Rewrite a logical RPC payload to physical table names."""
        if not self.namespace:
            return request
        out = dict(request)
        for key in ("table", "left", "right", "into"):
            if key in out:
                out[key] = self.physical_name(out[key])
        if "txns" in out:  # txn_apply: [[txn id, [[method, request]]]]
            out["txns"] = [
                [txn_id, [[m, self._qualify(r)] for m, r in ops]]
                for txn_id, ops in out["txns"]
            ]
        return out

    def _broadcast(self, method: str, request_builder, **kwargs):
        if method in MUTATING_RPCS and not getattr(self._mutation, "active", 0):
            raise QueryError(
                f"mutating RPC {method!r} must go through DataSource._mutate "
                "(the epoch choke point) — direct broadcasts would leave the "
                "row cache holding entries for dead state"
            )
        return self.cluster.broadcast(
            method, lambda i: self._qualify(request_builder(i)), **kwargs
        )

    def call_one(self, provider_index: int, method: str, request: Dict):
        """One accounted RPC to one provider, table names qualified."""
        return self.cluster.call_one(
            provider_index, method, self._qualify(request)
        )

    def _mutate(
        self,
        table_name: str,
        method: str,
        request_builder,
        *,
        provider_indexes: Optional[List[int]] = None,
        effect: Optional[WriteEffect] = None,
        **kwargs,
    ):
        """The single write choke point (ISSUE-8 satellite).

        Every row-mutating RPC funnels through here: the payload is
        stamped with the table's next mutation epoch (providers tag their
        undo history with it, which is what makes ``as_of_epoch`` reads
        possible), the round is broadcast to the live write targets, and
        the epoch is bumped — invalidating what the write's ``effect``
        touched in the row cache — even when the round
        fails partway (some providers may have applied, so the effect is
        unknown and the table's cached rows must be assumed dead).
        ``_broadcast`` refuses mutating RPCs issued around this method,
        so no future write path can forget cache invalidation.
        """
        stamped = self.table_epoch(table_name) + 1

        def build(i: int) -> Dict:
            payload = dict(request_builder(i))
            payload.setdefault("epoch", stamped)
            return payload

        targets = (
            provider_indexes
            if provider_indexes is not None
            else self.cluster.write_targets()
        )
        self._mutation.active = getattr(self._mutation, "active", 0) + 1
        try:
            return self._broadcast(
                method, build, provider_indexes=targets, **kwargs
            )
        except BaseException:
            effect = None
            raise
        finally:
            self._mutation.active -= 1
            self.bump_table_epoch(table_name, to=stamped, effect=effect)

    def control_round(
        self, method: str, request_builder, targets: List[int]
    ) -> Dict[int, Dict]:
        """One transaction-control round (``txn_apply``).

        The transaction layer applies logged :class:`WriteOp` payloads
        with it; it stamps their epochs itself and bumps them
        (:meth:`bump_table_epoch`) once the round is through, so the round
        skips :meth:`_mutate`.
        """
        return self.cluster.broadcast(
            method,
            lambda i: self._qualify(request_builder(i)),
            provider_indexes=targets,
        )

    # ------------------------------------------------------------------ DDL --

    def create_table(self, schema: TableSchema) -> None:
        """Register a schema and create the share table at every provider."""
        if schema.name in self._sharings:
            raise SchemaError(f"table {schema.name!r} already outsourced")
        sharing = TableSharing(
            schema, self.secrets, self.threshold, self._rng, self._op_registry
        )
        self._broadcast(
            "create_table",
            lambda i: _create_request(schema.name, schema),
            provider_indexes=self.cluster.write_targets(),
        )
        self._sharings[schema.name] = sharing
        self._next_row_id[schema.name] = 0
        if self.audit is not None:
            self.audit.on_create_table(schema.name)

    def restore_table(self, schema: TableSchema, next_row_id: int) -> None:
        """Re-register an already-outsourced table after a client restart.

        Unlike :meth:`create_table` this performs no provider RPC — the
        providers already hold the shares; only the client's sharing
        machinery (rebuilt deterministically from its secrets) and the
        row-id counter are restored.  Used by :mod:`repro.persistence`.
        """
        if schema.name in self._sharings:
            raise SchemaError(f"table {schema.name!r} already registered")
        if next_row_id < 0:
            raise SchemaError("next_row_id must be non-negative")
        self._sharings[schema.name] = TableSharing(
            schema, self.secrets, self.threshold, self._rng, self._op_registry
        )
        self._next_row_id[schema.name] = next_row_id
        if self.audit is not None:
            self.audit.on_create_table(schema.name)

    def snapshot(self) -> Dict[str, object]:
        """The client state a restart needs besides its secrets and
        schemas, JSON-ready (see :mod:`repro.persistence`)."""
        names = self.table_names()
        return {
            # each restore derives a fresh randomness epoch: replaying the
            # original seed would re-issue random-share coefficients already
            # used before the snapshot, and two values shared with the same
            # coefficients leak their difference to every provider
            "rng": {"seed": self._rng.seed, "epoch": self._restore_epoch + 1},
            "next_row_ids": {name: self._next_row_id[name] for name in names},
            # a client restarted from epoch 0 would stamp already-used
            # epochs onto new writes, corrupting provider undo history and
            # re-serving stale row-cache state
            "table_epochs": {name: self.table_epoch(name) for name in names},
            # the providers' applied-id sets are saved too, and a recycled
            # transaction id is a silently lost write
            "txn_id_high": self.txn_id_high,
        }

    def restore(self, snapshot: Dict[str, object]) -> "DataSource":
        """Install :meth:`snapshot` state on a source freshly built from
        the snapshot's randomness epoch, its tables re-registered with
        their row-id counters (:meth:`restore_table`); returns the source."""
        self._restore_epoch = int(snapshot["rng"]["epoch"])
        for name, epoch in snapshot.get("table_epochs", {}).items():
            self.bump_table_epoch(name, to=int(epoch))
        self.txn_id_high = int(snapshot.get("txn_id_high", 0))
        return self

    def outsource_table(self, table: Table, batch_size: int = 500) -> int:
        """Create the table and upload every row as shares; returns count."""
        self.create_table(table.schema)
        rows = table.rows()
        for start in range(0, len(rows), batch_size):
            self.insert_many(table.name, rows[start:start + batch_size])
        return len(rows)

    def sharing(self, table_name: str) -> TableSharing:
        try:
            return self._sharings[table_name]
        except KeyError:
            raise SchemaError(
                f"table {table_name!r} has not been outsourced"
            ) from None

    def table_names(self) -> List[str]:
        return sorted(self._sharings)

    # ------------------------------------------------------- epochs & plans --

    def table_epoch(self, table_name: str) -> int:
        """The table's mutation epoch (bumped by every write path)."""
        return self._table_epochs.get(table_name, 0)

    def bump_table_epoch(
        self,
        table_name: str,
        to: Optional[int] = None,
        effect: Optional[WriteEffect] = None,
    ) -> int:
        """Advance a table's epoch, invalidating cached rows.

        Every write path funnels through here (insert/update/delete,
        increments, lazy-flush, resync, rotation, and the transaction
        layer's group-commit apply), so this is the single point where
        the reconstructed-row cache learns what the write did
        (``effect``; without one it drops the table).  ``to`` sets an
        explicit target epoch (the transaction layer applies WAL-logged
        epochs; recovery restores high-water marks); epochs never move
        backwards.
        """
        current = self._table_epochs.get(table_name, 0)
        epoch = current + 1 if to is None else max(to, current)
        self._table_epochs[table_name] = epoch
        self.row_cache.apply_write(table_name, epoch, effect)
        return epoch

    # ------------------------------------------------------- row-id hand-out --

    def reserve_row_ids(self, table_name: str, count: int) -> int:
        """Atomically reserve ``count`` consecutive row ids; returns the first.

        Sessions draw private blocks through this, so concurrent writers
        never interleave inside a block and each session's ids are
        deterministic regardless of thread scheduling.
        """
        if count < 1:
            raise QueryError(f"cannot reserve {count} row ids")
        self.sharing(table_name)  # validates the table exists
        with self._row_id_lock:
            start = self._next_row_id[table_name]
            self._next_row_id[table_name] = start + count
        return start

    # --------------------------------------------------------------- writes --
    #
    # Every row write is the paper's one-sentence protocol (Sec. V-C):
    # retrieve the affected tuples, reconstruct, re-share, redistribute —
    # or, where sharing linearity allows, add a share of the difference in
    # place.  It is spelled once, in two halves:
    #
    #   plan_write(stmt, matches)  ->  WriteOp  ->  apply_write(op)
    #
    # ``plan_write`` reads the matches (unless the caller has them), picks
    # eager or delta, draws the shares and builds the wire payloads;
    # ``apply_write`` stamps the epoch, runs the round through ``_mutate``,
    # mirrors the audit registry from the payloads and bumps the epoch.
    # The transaction layer logs the op between the halves and applies it
    # itself (``control_round``).

    def plan_write(
        self,
        stmt: Union[Insert, Update, Delete],
        matches: Optional[List[Tuple[int, Row]]] = None,
    ) -> WriteOp:
        """Plan one INSERT / UPDATE / DELETE as the payloads it will send.

        ``matches`` are ``(row_id, row)`` pairs the caller already has in
        hand: the rows an UPDATE / DELETE applies to (an atomic batch's
        overlay, :meth:`update`'s own fetch — nothing is re-read, and
        rows in hand always re-share eagerly), or an INSERT's rows under
        pre-reserved ids.  Without them the matches are fetched here
        (from the row cache when it holds them), and a pure-delta UPDATE
        that :meth:`_delta_obstacle` clears ships share increments for the
        matching ids instead of reading any row.  The effect holds each new
        row as a read reconstructs it, for the row cache to write through.
        """
        table = stmt.table
        sharing = self.sharing(table)
        if isinstance(stmt, Insert):
            if matches is None:
                return self._plan_insert(table, [stmt.row])
            return self._plan_insert(
                table, [row for _, row in matches], [rid for rid, _ in matches]
            )
        if matches is None and isinstance(stmt, Update) and stmt.is_pure_delta:
            rewritten = rewrite_predicate(stmt.where.bind(sharing.schema), sharing)
            if self._delta_obstacle(stmt, rewritten) is None:
                return self._plan_increment(
                    stmt, self._fetch_matching_ids(table, rewritten)
                )
        if matches is None:
            matches = self._fetch_matching_rows(stmt)
        is_delete = isinstance(stmt, Delete)
        if not matches:
            return WriteOp("delete_rows" if is_delete else "update_rows", table, [], 0)
        if is_delete:
            row_ids = [rid for rid, _ in matches]
            requests = [
                {"table": table, "row_ids": row_ids}
                for _ in range(self.cluster.n_providers)
            ]
            return WriteOp(
                "delete_rows", table, requests, len(row_ids), dict.fromkeys(row_ids)
            )
        # eager: resolve every assignment (deltas included) against the
        # row's current value — the correctness oracle the share-delta
        # path is checked against
        schema = sharing.schema
        for column in stmt.assignments:
            schema.column(column)
        pk = schema.primary_key
        candidates = [{**row, **resolve_assignments(row, stmt.assignments)} for _, row in matches]
        new_rows = schema.decode_rows(schema.encode_rows(candidates))
        changes: List[Tuple[int, Row]] = []
        for (row_id, row), normalised in zip(matches, new_rows):
            if pk is not None and normalised[pk] != row[pk]:
                raise SchemaError(
                    f"table {table}: primary key update not supported"
                )
            changes.append(
                (row_id, {column: normalised[column] for column in stmt.assignments})
            )
        effect = dict(zip([row_id for row_id, _ in matches], new_rows))
        return replace(self.prepare_update_shares(table, changes), effect=effect)

    def _plan_increment(self, stmt: Update, row_ids: List[int]) -> WriteOp:
        """The share-delta half of :meth:`plan_write`: one op carries every
        delta column, so the row-id list is shipped once and the provider
        applies the statement as one batched (shares + deltas) mod p pass."""
        table, n = stmt.table, self.cluster.n_providers
        if not row_ids:
            return WriteOp("increment_rows", table, [], 0)
        deltas: List[Dict[str, int]] = [{} for _ in range(n)]
        for column, delta in stmt.assignments.items():
            shares = self.prepare_increment_shares(table, column, delta.amount)
            for i, share in enumerate(shares):
                deltas[i][column] = share
        modulus = self.secrets.field.modulus
        requests = [
            {"table": table, "row_ids": row_ids, "deltas": deltas[i], "modulus": modulus}
            for i in range(n)
        ]
        return WriteOp("increment_rows", table, requests, len(row_ids))

    def apply_write(self, op: WriteOp):
        """Send a planned write through the epoch choke point.

        The only caller of :meth:`_mutate` for row writes: epoch stamp →
        round to the live write targets → audit mirror (derived from the
        very payloads that were sent) → provider-count agreement → epoch
        bump.  Returns ``op.result`` (for share increments, the count the
        providers agree they applied).
        """
        if not op.requests:
            return op.result
        targets = self.cluster.write_targets()
        responses = self._mutate(
            op.table,
            op.method,
            op.requests.__getitem__,
            provider_indexes=targets,
            effect=op.effect,
        )
        if self.audit is not None:
            self._mirror_audit(op, targets)
        if op.method == "increment_rows":
            counts = {r["incremented"] for r in responses.values()}
            if len(counts) != 1:
                raise IntegrityError(
                    f"providers disagree on incremented row count: {sorted(counts)}"
                )
            # rows actually touched: NULL cells stay NULL and are not
            # counted, so this can fall short of the planned match count
            return counts.pop()
        return op.result

    def _mirror_audit(self, op: WriteOp, targets: List[int]) -> None:
        # plan_write never plans increments under an audit registry (the
        # client cannot update share hashes blind), so three shapes remain
        audit, table = self.audit, op.table
        if op.method == "delete_rows":
            for row_id in op.requests[0]["row_ids"]:
                audit.on_delete(table, row_id)
            return
        for index in targets:
            if op.method == "insert_many":
                for row_id, share_row in op.requests[index]["rows"]:
                    audit.on_insert(table, index, row_id, share_row)
            else:
                for row_id, assignments in op.requests[index]["updates"]:
                    audit.on_update(table, index, row_id, assignments)

    def insert(self, table_name: str, row: Row) -> int:
        """Insert one row; returns its client-assigned row id."""
        return self.insert_many(table_name, [row])[0]

    def insert_many(
        self,
        table_name: str,
        rows: List[Row],
        row_ids: Optional[List[int]] = None,
    ) -> List[int]:
        """Share and upload a batch; returns assigned row ids.

        ``row_ids`` lets a caller that pre-reserved ids (a service
        session's private block, :meth:`reserve_row_ids`) supply them
        explicitly; when omitted a contiguous block is reserved here.
        """
        with telemetry.span("insert", table=table_name, rows=len(rows)):
            return self.apply_write(self._plan_insert(table_name, rows, row_ids))

    def _plan_insert(
        self,
        table_name: str,
        rows: List[Row],
        row_ids: Optional[List[int]] = None,
    ) -> WriteOp:
        """The INSERT half of :meth:`plan_write`, for any number of rows."""
        row_ids, shared, canonical = self.prepare_insert_shares(table_name, rows, row_ids)
        if not row_ids:
            return WriteOp("insert_many", table_name, [], [])
        requests = [{"table": table_name, "rows": batch} for batch in shared]
        return WriteOp("insert_many", table_name, requests, row_ids, dict(zip(row_ids, canonical)))

    def prepare_insert_shares(
        self,
        table_name: str,
        rows: List[Row],
        explicit_ids: Optional[List[int]] = None,
    ) -> Tuple[List[int], List[ShareRows], List[Row]]:
        """Validate, assign row ids, and share a batch of plaintext rows.

        Returns ``(row_ids, shared, canonical)`` with ``shared[i]`` provider
        i's upload: the batch under those ids, column-major, as one
        :class:`ShareRows`; ``canonical`` is the batch as a read would
        reconstruct it.  Row ids are handed out before the batch is
        looked at; a rejected batch keeps the ids it drew.
        """
        sharing = self.sharing(table_name)
        if explicit_ids is not None and len(explicit_ids) != len(rows):
            raise QueryError(
                f"{len(explicit_ids)} row ids supplied for {len(rows)} rows"
            )
        if not rows:
            return [], [], []
        if explicit_ids is None:
            start = self.reserve_row_ids(table_name, len(rows))
            explicit_ids = range(start, start + len(rows))
        row_ids = list(explicit_ids)
        encoded = sharing.schema.encode_rows(rows)
        shared = sharing.share_encoded(encoded, row_ids)
        self.cost.record(
            "poly_eval",
            len(rows) * len(sharing.schema.columns) * self.cluster.n_providers,
        )
        return row_ids, shared, sharing.schema.decode_rows(encoded)

    def update(self, query: Update) -> int:
        """Eager update (Sec. V-C): fetch, reconstruct, re-share, write back.

        Fetching the matches first is what makes it eager whatever the
        assignments are (:meth:`plan_write` re-shares rows it is handed).
        """
        with telemetry.span("update", table=query.table) as sp:
            matches = self._fetch_matching_rows(query)
            updated = self.apply_write(self.plan_write(query, matches))
            sp.set(rows_updated=updated)
            return updated

    def prepare_update_shares(
        self, table_name: str, changes: List[Tuple[int, Row]]
    ) -> WriteOp:
        """Re-share absolute column values: the ``update_rows`` op for
        ``changes == [(row_id, {column: new value})]``, values already
        validated.

        The re-share primitive under :meth:`plan_write`'s eager path;
        public because the lazy-update buffer
        (:mod:`repro.client.updates`) coalesces its own absolute values
        and enters the pipeline here.
        """
        if not changes:
            return WriteOp("update_rows", table_name, [], 0)
        sharing = self.sharing(table_name)
        n = self.cluster.n_providers
        updates: List[List] = [[] for _ in range(n)]
        # re-share only the assigned columns (untouched shares stay valid),
        # one share_encoded per run of changes assigning the same columns:
        # its random cells draw rows then columns, so the RNG stream is
        # that of one share_value per cell in change order
        for columns, run in groupby(changes, key=lambda change: tuple(change[1])):
            run = list(run)
            encoded = {
                column: [sharing.encode(column, values[column]) for _, values in run]
                for column in columns
            }
            shared = sharing.share_encoded(encoded, [row_id for row_id, _ in run])
            for batch, provider_updates in zip(shared, updates):
                provider_updates.extend([row_id, row] for row_id, row in batch)
            self.cost.record("poly_eval", len(columns) * len(run) * n)
        requests = [{"table": table_name, "updates": updates[i]} for i in range(n)]
        return WriteOp("update_rows", table_name, requests, len(changes))

    def delete(self, query: Delete) -> int:
        """Delete matching rows at every live provider."""
        with telemetry.span("delete", table=query.table) as sp:
            deleted = self.apply_write(self.plan_write(query))
            sp.set(rows_deleted=deleted)
            return deleted

    def delete_row_ids(self, table_name: str, row_ids: List[int]) -> int:
        """Delete specific rows at every live provider (no predicate fetch)."""
        return self.apply_write(
            self.plan_write(Delete(table_name), [(rid, None) for rid in row_ids])
        )

    def increment(
        self,
        table_name: str,
        column: str,
        delta: int,
        where: Predicate,
    ) -> int:
        """Incremental update (Sec. V-C): add ``delta`` to a column in place.

        Exploits sharing linearity: the client ships one fresh share of
        ``delta`` per provider, and providers add it to the stored share
        of every matching row — **no retrieval, no reconstruction**,
        roughly halving the communication of an eager read-modify-write.
        Unlike a transactional ``UPDATE … SET c = c + n``, which falls
        back to the eager path, this raises whatever
        :meth:`_delta_obstacle` finds (use :meth:`update` then).

        NULL values stay NULL; returns the number of rows incremented.
        """
        stmt = Update(table_name, {column: Delta(delta)}, where)
        sharing = self.sharing(table_name)
        obstacle = self._delta_obstacle(
            stmt, rewrite_predicate(where.bind(sharing.schema), sharing)
        )
        if obstacle is not None:
            raise obstacle
        return self.apply_write(self.plan_write(stmt))

    def _delta_obstacle(
        self, stmt: Update, rewritten: RewrittenPredicate
    ) -> Optional[QueryError]:
        """Why a pure-delta UPDATE cannot run as in-place share increments
        (``None``: it can) — the one copy of the incremental protocol's
        rules, all inherent:

        * no audit registry — the client cannot update its share hashes
          without knowing the current shares;
        * every column randomly shared (non-searchable) and INTEGER —
          order-preserving shares are deterministic per value and cannot
          be perturbed in place;
        * a fully provider-pushable predicate — a client residual would
          require fetching rows anyway, erasing the saving.
        """
        if self.audit is not None:
            return QueryError(
                "increment() cannot maintain the audit registry's share "
                "hashes; use update() on audited tables"
            )
        table = stmt.table
        schema = self.sharing(table).schema
        for column in stmt.assignments:
            column_schema = schema.column(column)
            if column_schema.searchable:
                return UnsupportedQueryError(
                    f"column {table}.{column} is order-preserving; in-place "
                    "share addition would corrupt its deterministic shares — "
                    "use update() instead"
                )
            if column_schema.ctype is not ColumnType.INTEGER:
                return QueryError(
                    f"increment() supports INTEGER columns; {column} is "
                    f"{column_schema.ctype.value}"
                )
        if rewritten.has_residual:
            return UnsupportedQueryError(
                "increment() requires a fully provider-pushable predicate; "
                "this one needs client-side filtering — use update()"
            )
        return None

    def prepare_increment_shares(
        self,
        table_name: str,
        column: str,
        delta: int,
    ) -> List[int]:
        """One fresh sharing of ``delta``, one share per provider.

        A single polynomial serves every matched row: row share f_r(i)
        plus delta share g(i) reconstructs to v_r + delta by linearity.
        Sub-threshold coalitions learn nothing about delta (Shamir
        perfect secrecy holds per polynomial), and the fact that one
        uniform delta hits the whole row set is already explicit in the
        RPC shape — so, unlike share *refresh* (which must re-randomize
        each row independently), nothing is gained by paying O(rows)
        polynomials here.
        """
        sharing = self.sharing(table_name)
        column_schema = sharing.schema.column(column)
        # domain check: the incremented values must stay in the column's
        # declared domain; without reading them we can only check that the
        # step — in either direction — fits the domain's span at all
        lo, hi = column_schema.lo, column_schema.hi
        if hi is not None and abs(delta) > (hi - lo):
            raise QueryError(f"delta {delta} exceeds the column's domain span")
        delta_shares = sharing.random_scheme.split(
            self.secrets.field.encode_signed(delta), self._rng
        )
        self.cost.record("poly_eval", self.cluster.n_providers)
        return list(delta_shares)

    def refresh_table_shares(self, table_name: str) -> int:
        """Proactive share refresh (mobile-adversary defence, Sec. VI b).

        Adds a fresh sharing of **zero** to every randomly-shared column of
        every row: values are unchanged (linearity), but each row sits on a
        brand-new polynomial afterwards, so shares an adversary exfiltrated
        *before* the refresh cannot be combined with shares stolen *after*
        it — the classical proactive-secret-sharing epoch bound.

        Order-preserving columns are left untouched: their shares are
        deterministic per value and cannot be re-randomised without
        changing the scheme (their protection rests on the keyed slots,
        not on polynomial freshness).  Incompatible with an attached audit
        registry for the same reason as :meth:`increment` (the client
        cannot update its share hashes blind); use :meth:`resync_table`
        to refresh audited tables.

        Returns the number of rows refreshed.
        """
        if self.audit is not None:
            raise QueryError(
                "refresh_table_shares() cannot maintain the audit registry; "
                "use resync_table() on audited tables (same effect, plus "
                "fresh hashes)"
            )
        sharing = self.sharing(table_name)
        random_columns = [
            c.name for c in sharing.schema.columns if not c.searchable
        ]
        if not random_columns:
            return 0
        row_ids = self._fetch_matching_ids(
            table_name, rewrite_predicate(TruePredicate(), sharing)
        )
        if not row_ids:
            return 0
        # one fresh sharing of zero per (row, random column), drawn rows
        # then columns: the RNG stream of one split(0) per cell
        width = len(random_columns)
        zeros = sharing.random_scheme.split_columns(
            [0] * (len(row_ids) * width), self._rng
        )
        self.cost.record("poly_eval", self.cluster.n_providers * len(row_ids) * width)
        increments_per_provider = [
            [
                [row_id, dict(zip(random_columns, shares[start:start + width]))]
                for row_id, start in zip(row_ids, range(0, len(shares), width))
            ]
            for shares in zeros
        ]
        self._mutate(
            table_name,
            "increment_rows",
            lambda i: {
                "table": table_name,
                "increments": increments_per_provider[i],
                "modulus": self.secrets.field.modulus,
            },
        )
        return len(row_ids)

    def resync_table(self, table_name: str) -> int:
        """Re-share a whole table to every live provider (anti-entropy).

        After a provider recovers from a crash its copy is stale (writes it
        missed never reach it).  Resync reads every row through the current
        quorum, reconstructs plaintext at the client, draws *fresh* shares,
        and rewrites the table at **all** live providers.  Returns the row
        count.
        """
        count = self._reshare_table(
            table_name, self._read_rows(table_name, _QUORUM, method="scan")
        )
        if not count:
            # no rows survived, but the table was dropped and recreated —
            # cached rows are dead regardless
            self.bump_table_epoch(table_name)
        return count

    def _reshare_table(
        self, table_name: str, rows: List[Tuple[int, Row]]
    ) -> int:
        """Drop, recreate and refill a table with fresh shares of ``rows``
        at every live provider (resync and secret rotation).

        Shares must be regenerated together because mixing polynomial
        generations across providers breaks reconstruction.
        """
        sharing = self.sharing(table_name)
        # drop (where present) and recreate at every live provider
        for index in self.cluster.write_targets():
            self.call_one(index, "drop_table", {"table": table_name})
            self.call_one(
                index, "create_table", _create_request(table_name, sharing.schema)
            )
        if self.audit is not None:
            self.audit.on_resync(table_name)
        op = self._plan_insert(
            table_name, [row for _, row in rows], [row_id for row_id, _ in rows]
        )
        # the drop took with it any row the read could not return: not
        # something an effect describes
        return len(self.apply_write(replace(op, effect=None)))

    # ------------------------------------------------- share-row migration --

    def scan_share_rows(
        self, table_name: str, extra: int = 0, exclude: Sequence[int] = ()
    ) -> Dict[int, Dict[int, ShareRow]]:
        """Aligned share rows of a whole table: ``{row_id: {provider: row}}``.

        The raw material of share-level rebuilds (provider repair, shard
        migration): rows are fetched through the health-ordered read
        quorum with failover and returned *as shares* — nothing is
        reconstructed here.  ``extra`` requests redundant shares beyond k
        so a tampering quorum member can be blamed by the rebuild;
        ``exclude`` keeps providers out of the quorum (a repair never
        reads the provider it is rebuilding).
        """
        return self._read_shares(
            table_name,
            method="scan",
            targets=self.cluster.read_quorum(extra=extra, exclude=exclude),
        )

    def create_staging_table(self, table_name: str, staging: str) -> None:
        """Create an empty staging copy of a table's layout at every live
        provider.  Staging tables are provider-side only — the client
        never registers a sharing for them, so queries cannot see them."""
        schema = self.sharing(table_name).schema
        self._broadcast(
            "create_table",
            lambda i: _create_request(staging, schema),
            provider_indexes=self.cluster.write_targets(),
        )

    def drop_staging_table(self, staging: str) -> None:
        """Drop a staging table wherever it exists (abandoned migration)."""
        for index in self.cluster.write_targets():
            self.call_one(index, "drop_table", {"table": staging})

    def insert_share_rows(
        self,
        table_name: str,
        rows: List[Tuple[int, Dict[int, ShareRow]]],
        into: Optional[str] = None,
    ) -> int:
        """Upload pre-built share rows verbatim (no sharing, no encoding).

        ``rows`` is ``[(row_id, {provider_index: share_row})]`` — share
        rows rebuilt by the repair machinery on this client's evaluation
        points.  ``into`` redirects the upload to a staging table without
        bumping the live table's epoch (the rows are not visible yet);
        without it the live table is written and its epoch advances.
        """
        self.sharing(table_name)
        if not rows:
            return 0
        target_table = into if into is not None else table_name
        # staging uploads bump the *staging* name's epoch (harmless — the
        # live table's caches stay warm until the merge makes rows visible)
        self._mutate(
            target_table,
            "insert_many",
            lambda i: {
                "table": target_table,
                "rows": [[rid, per_provider[i]] for rid, per_provider in rows],
            },
        )
        return len(rows)

    def merge_staging_table(self, table_name: str, staging: str) -> int:
        """Make a staging table's rows live: provider-local move + epoch bump.

        Returns the maximum per-provider merged count (a provider that
        missed the staging upload merges zero and is simply stale).
        """
        self.sharing(table_name)
        responses = self._mutate(
            table_name,
            "merge_table",
            lambda i: {"table": staging, "into": table_name},
        )
        return max(
            (response["merged"] for response in responses.values()), default=0
        )

    def _fetch_matching_rows(
        self, query: Union[Update, Delete]
    ) -> List[Tuple[int, Row]]:
        """Row ids + plaintext of rows matching a write query's predicate
        (anything with a ``table`` and a ``where`` serves as the query):
        the row cache's entry for ``SELECT * FROM t WHERE <the same WHERE>``
        when a plain read would consult it and it is held, else a read round
        whose result is stored as that entry."""
        table = query.table
        sharing = self.sharing(table)
        predicate = query.where.bind(sharing.schema)
        rewritten = rewrite_predicate(predicate, sharing)
        if self.verified_reads:
            return self._read_rows(table, _QUORUM, rewritten)
        epoch, signature = self.table_epoch(table), _query_signature(predicate, _FULL_ROWS)
        pairs = self.row_cache.lookup_query(
            table, signature, epoch, sharing.schema.column_names
        )
        if pairs is None:
            pairs = self._read_rows(table, _QUORUM, rewritten)
            self.row_cache.put_rows(table, epoch, pairs)
            self.row_cache.store_query(table, signature, epoch, pairs, predicate)
        return pairs

    def _fetch_matching_ids(
        self, table_name: str, rewritten: RewrittenPredicate
    ) -> List[int]:
        """Row ids matching a fully provider-pushable predicate.

        The id-only sibling of :meth:`_fetch_matching_rows` (empty
        projection: no share payload travels, nothing is reconstructed),
        used by the in-place share-delta writes.  Ids alone cannot be
        filtered at the client, so ``rewritten`` must leave no residual.
        """
        if rewritten.provably_empty:
            return []
        aligned = self._read_shares(
            table_name, rewritten, fields={"projection": []}
        )
        return [
            row_id for row_id, per_provider in aligned.items()
            if len(per_provider) >= self.threshold
        ]

    # ---------------------------------------------------------------- reads --

    def select(self, query: Select) -> Union[List[Row], object]:
        """Execute a SELECT (projection, aggregate, grouped, or top-k)."""
        if not query.is_aggregate:
            return [row for _, row in self.select_pairs(query)]
        with telemetry.span("select", table=query.table) as sp:
            mode = _CHECKED if self.verified_reads else _QUORUM
            result = self._select_aggregate(query, self._plan_select(query, mode))
            if isinstance(result, list):
                _note_rows_returned(sp, len(result))
            return result

    def select_pairs(self, query: Select) -> List[Tuple[int, Row]]:
        """:meth:`select` for row queries, as ``(row_id, row)`` pairs.

        The same plan, read mode and row-cache replay — :meth:`select` is
        this call with the ids dropped.  For callers that merge row sets
        and must keep rows identifiable (the shard router's gather).
        """
        if query.is_aggregate:
            raise QueryError("select_pairs does not support aggregates")
        with telemetry.span("select", table=query.table) as sp:
            mode = _CHECKED if self.verified_reads else _QUORUM
            pairs = self._select_rows(query, mode, replay=mode == _QUORUM)
            _note_rows_returned(sp, len(pairs))
            return pairs

    def _plan_select(self, query: Select, mode: str) -> _SelectPlan:
        """Validate a SELECT and decide, once, what it pushes down.

        Shared by execution and :meth:`explain`, so the two cannot
        disagree.  Only the quorum and audited modes push anything: a
        checked read cross-checks whole row sets across redundant
        providers, and a top-k prefix or a partial aggregate from a lying
        provider carries no blame — it fetches every matching row and
        finishes at the client.
        """
        sharing = self.sharing(query.table)
        schema = sharing.schema
        predicate = query.where.bind(schema)
        rewritten = rewrite_predicate(predicate, sharing)
        pushes = mode in (_QUORUM, _AUDITED) and not rewritten.provably_empty
        can_push = False
        fields = dict(_FULL_ROWS)
        used = None
        if query.is_aggregate:
            func, column = query.aggregate.func, query.aggregate.column
            if query.is_grouped:
                schema.column(query.group_by)
            if (
                column is not None
                and not schema.column(column).is_numeric()
                and func in (AggregateFunc.SUM, AggregateFunc.AVG)
            ):
                raise QueryError(
                    f"{func.value.upper()}({column}) requires a numeric column"
                )
            order_based = func in (
                AggregateFunc.MIN, AggregateFunc.MAX, AggregateFunc.MEDIAN,
            )
            # provider-side partials need the full predicate pushed down
            # (a client-side residual forces a fetch), deterministic
            # shares to group on, and share order to nominate the
            # MIN/MAX/MEDIAN row
            can_push = (
                pushes
                and not rewritten.has_residual
                and (not query.is_grouped or sharing.is_searchable(query.group_by))
                and (not order_based or sharing.is_searchable(column))
            )
            if not can_push:
                used = {column, query.group_by} - {None}
        else:
            for name in query.columns:
                schema.column(name)
            sorted_at_providers = False
            if query.order_by is not None:
                schema.column(query.order_by)
                sorted_at_providers = pushes and sharing.is_searchable(
                    query.order_by
                )
            if sorted_at_providers:
                fields["order_by"] = query.order_by
                fields["descending"] = query.descending
            if query.columns:
                used = {*query.columns, query.order_by} - {None}
            # LIMIT can be pushed to the providers only when the client
            # will not filter afterwards (a residual could strip
            # pushed-down rows below the requested count) and does not
            # have to sort first (cannot truncate before the sort)
            if (
                pushes
                and query.limit is not None
                and not rewritten.has_residual
                and (query.order_by is None or sorted_at_providers)
            ):
                fields["limit"] = query.limit
        # a quorum read fetches what the client finish uses, the residual's
        # columns included (checked and audited reads check whole rows)
        if mode == _QUORUM and used is not None:
            used.update(rewritten.residual.referenced_columns())
            fields["projection"] = fetched_columns(schema, used)
        return _SelectPlan(mode, sharing, predicate, rewritten, can_push, fields)

    def _select_rows(
        self, query: Select, mode: str, replay: bool = False
    ) -> List[Tuple[int, Row]]:
        """Plan a row query, fetch its matches in ``mode``, finish them.

        With ``replay`` (plain quorum :meth:`select` only) an identical
        SELECT that no write since has touched serves the full rows
        straight from the row cache — zero provider RPCs.  The signature
        covers everything that determines the *row set* (predicate +
        pushed-down order/limit); client-side sort, limit, and projection
        run identically on replayed rows.  Nothing else replays: checked
        and audited reads exist to re-examine what the providers actually
        return, and :meth:`select_with_ids` feeds writes and audits.
        """
        plan = self._plan_select(query, mode)
        epoch = signature = pairs = None
        if replay:
            epoch = self.table_epoch(query.table)
            signature = _query_signature(plan.predicate, plan.fields)
            pairs = self.row_cache.lookup_query(query.table, signature, epoch, plan.fetched)
        if pairs is None:
            pairs = self._read_rows(
                query.table,
                mode,
                plan.rewritten,
                fields=plan.fields,
                cache_epoch=epoch,
            )
            if replay:
                # the read put its fresh rows already; a pushed LIMIT
                # returns a prefix of the matches: no write can be shown
                # to leave it alone
                self.row_cache.store_query(
                    query.table, signature, epoch, pairs,
                    None if "limit" in plan.fields else plan.predicate,
                )
        return finish_rows(query, plan.sharing.schema, pairs)

    def _select_aggregate(self, query: Select, plan: _SelectPlan):
        """Aggregates and GROUP BY (extension: provider-side partials).

        When the plan allows, providers aggregate in share space and the
        client combines the quorum's partials.  For GROUP BY they group
        by the deterministic share of the group column and return
        per-group partials in plaintext group order, so the quorum's
        group lists align positionally; the client reconstructs each
        group key from its shares and combines partials exactly like the
        ungrouped path.  Otherwise the matching rows are fetched in the
        plan's mode and aggregated at the client.
        """
        sharing, rewritten = plan.sharing, plan.rewritten
        aggregate = query.aggregate
        column = aggregate.column
        group_column = query.group_by
        if not plan.can_push:
            pairs = self._read_rows(query.table, plan.mode, rewritten, fields=plan.fields)
            rows = [row for _, row in pairs]
            if query.is_grouped:
                return compute_group_aggregate(aggregate, group_column, rows)
            return compute_aggregate(aggregate, rows)
        fields = {
            "func": (
                "sum" if aggregate.func is AggregateFunc.AVG
                else aggregate.func.value
            ),
            "column": column,
        }
        if not query.is_grouped:
            responses = self._read_round(
                query.table, rewritten, method="aggregate", fields=fields
            )
            return self._combine_group_payload(
                sharing, aggregate, column, responses
            )
        fields["group_column"] = group_column
        responses = self._read_round(
            query.table, rewritten, method="aggregate_group", fields=fields
        )
        lengths = {len(response["groups"]) for response in responses.values()}
        if len(lengths) != 1:
            raise IntegrityError(
                f"providers disagree on the number of groups: {sorted(lengths)}"
            )
        n_groups = lengths.pop()
        out: List[Row] = []
        label = aggregate.func.value
        for position in range(n_groups):
            group_shares = {
                index: response["groups"][position][0]
                for index, response in responses.items()
            }
            payloads = {
                index: response["groups"][position][1]
                for index, response in responses.items()
            }
            group_value = sharing.reconstruct_value(group_column, group_shares)
            self.cost.record("interpolate", 1)
            out.append(
                {
                    group_column: group_value,
                    label: self._combine_group_payload(
                        sharing, aggregate, column, payloads
                    ),
                }
            )
        return out

    def _combine_group_payload(
        self,
        sharing: TableSharing,
        aggregate: Aggregate,
        column: Optional[str],
        payloads: Dict[int, Dict],
    ):
        """Combine one group's (or the whole table's) per-provider partials."""
        func = aggregate.func
        if func is AggregateFunc.COUNT:
            return consistent_scalar(payloads, "count")
        if func in (AggregateFunc.SUM, AggregateFunc.AVG):
            count = consistent_scalar(payloads, "count")
            if count == 0:
                return None
            partials = {
                index: payload["partial_sum"]
                for index, payload in payloads.items()
            }
            self.cost.record("interpolate", 1)
            total = sharing.combine_sum(column, partials, count)
            return total if func is AggregateFunc.SUM else total / count
        # MIN / MAX / MEDIAN: providers nominate the same row by share order
        row = reconstruct_single_rows(sharing, payloads, cost=self.cost)
        return None if row is None else row[column]

    def select_with_ids(self, query: Select) -> List[Tuple[int, Row]]:
        """``(row_id, row)`` pairs from a fresh quorum read.

        Never served from the row cache and never widened by
        ``verified_reads``: its callers are about to write back what they
        read (lazy buffer, atomic batches) or to audit it (completeness
        chains key on row ids).  Aggregates are not supported here.
        """
        if query.is_aggregate:
            raise QueryError("select_with_ids does not support aggregates")
        return self._select_rows(query, _QUORUM)

    # --------------------------------------------------------- time travel --

    def scan_asof(self, table_name: str, as_of_epoch: int) -> List[Tuple[int, Row]]:
        """Reconstructed plaintext of a table as of a past mutation epoch.

        Providers keep an epoch-tagged undo history per table (written by
        every :meth:`_mutate` round and the transaction layer), so each
        can serve its *share* state as of client epoch ``as_of_epoch``;
        reconstructing across k of them yields the historical plaintext.
        Raises :class:`QueryError` when the epoch predates the providers'
        retention horizon.
        """
        self.sharing(table_name)
        if as_of_epoch < 0:
            raise QueryError(f"as_of_epoch must be >= 0, got {as_of_epoch}")
        return self._read_rows(
            table_name, _QUORUM, method="scan_asof", fields={"epoch": as_of_epoch}
        )

    def select_asof(
        self, query: Select, as_of_epoch: int
    ) -> Union[List[Row], object]:
        """Time-travel read: evaluate ``query`` against epoch ``as_of_epoch``.

        Historical state cannot use the provider-pushable rewritten
        conditions (order-preserving index slots reflect *current* rows),
        so the whole historical table is reconstructed client-side and the
        query is evaluated by the plaintext reference executor — time
        travel trades bandwidth for the ability to read the past at all.
        Joins are not supported (two tables' epochs are not comparable).
        """
        with telemetry.span(
            "select_asof", table=query.table, epoch=as_of_epoch
        ):
            sharing = self.sharing(query.table)
            rows = [row for _, row in self.scan_asof(query.table, as_of_epoch)]
            catalog = Catalog()
            catalog.add_table(Table(sharing.schema, rows))
            return PlaintextExecutor(catalog).execute_select(query)

    def rotate_secrets(self, new_seed: int) -> Dict[str, int]:
        """Re-key the deployment (the concern of paper ref [24]).

        Reads every table through the current quorum, generates fresh
        secret material (new evaluation points *and* new hash keys), and
        re-shares everything at all live providers.  After rotation a
        transcript of old shares plus a future compromise of the old
        secrets reveals nothing about current data.  Returns per-table row
        counts re-shared.
        """
        # 1. read everything out under the old secrets
        snapshots = {
            name: self._read_rows(name, _QUORUM, method="scan")
            for name in self.table_names()
        }
        # 2. swap in fresh secrets and rebuild the sharing machinery.
        # Every kernel cache is keyed on the old evaluation points and every
        # cached plaintext row was reconstructed under the old secrets —
        # both are dead the moment the points change, so drop them here
        # rather than letting unreachable entries squat on capacity.
        from ..core.kernels import clear_kernel_caches

        clear_kernel_caches()
        self.row_cache.clear()
        old_sharings = self._sharings
        self.secrets = generate_client_secrets(
            self.cluster.n_providers, new_seed, self.secrets.field
        )
        self._rng = DeterministicRNG(new_seed, "datasource-rotated")
        self._op_registry = {}
        self._sharings = {}
        for name, old in old_sharings.items():
            self._sharings[name] = TableSharing(
                old.schema, self.secrets, self.threshold, self._rng,
                self._op_registry,
            )
        # 3. re-share every table at every live provider
        counts: Dict[str, int] = {}
        for name, rows in snapshots.items():
            counts[name] = self._reshare_table(name, rows)
            # rotation re-shared the table: rows cached under the old
            # secrets' epoch must not answer for the new one
            self.bump_table_epoch(name)
        return counts

    def select_verified(self, query: Select) -> List[Row]:
        """SELECT with the trust layer engaged (requires ``audit``).

        Every returned share is checked against the client's recorded
        hashes (correctness) and providers must agree on the matching row
        set (strict alignment — detects omission within the quorum).
        Raises :class:`IntegrityError` on any discrepancy.
        """
        if self.audit is None:
            raise QueryError(
                "select_verified requires an AuditRegistry; construct the "
                "DataSource with audit=AuditRegistry(n_providers)"
            )
        if query.is_aggregate:
            raise QueryError(
                "verified aggregates are not supported; verify the "
                "underlying rows with a projection query instead"
            )
        return [row for _, row in self._select_rows(query, _AUDITED)]

    # ---------------------------------------------------- the read pipeline --
    #
    # Every row-returning read is the paper's one-sentence protocol
    # (Sec. III, V-A): rewrite the predicate into share space, ask k of n
    # providers, interpolate.  The read *mode* changes only who is asked
    # and how a cell is decoded (Sec. VI b):
    #
    #   mode      targets                wait     decode
    #   quorum    k preferred            first_k  batched, row cache allowed
    #   audited   k preferred            first_k  hash check + strict alignment
    #   checked   k + read_redundancy    all      cross-check, blame → re-issue

    def _read_targets(self, mode: str, blamed: set = frozenset()) -> List[int]:
        """The providers one read round addresses in ``mode``."""
        cluster = self.cluster
        if mode != _CHECKED:
            return cluster.read_quorum()
        # Quarantined providers (blamed by an earlier query, or repeatedly
        # unavailable) are dropped alongside this query's own blame while
        # more than k candidates remain — at least k+1 shares are needed
        # for the cross-check itself.  When the margin runs out, only the
        # currently-blamed are excluded (while ≥ k others remain); past
        # that point even they re-enter as a last resort (any k shares
        # still reconstruct — robust decoding outvotes a minority tamperer
        # even when it must be addressed).  Providers quarantined as down
        # are left out by read_quorum itself while k others remain.
        candidates = set(range(cluster.n_providers))
        quarantined = {
            i for i in candidates if cluster.health.is_quarantined(i)
        }
        exclude: Tuple[int, ...] = ()
        if (quarantined or blamed) and (
            len(candidates - quarantined - blamed) > self.threshold
        ):
            exclude = tuple(sorted(quarantined | blamed))
        elif blamed and len(candidates - blamed) >= self.threshold:
            exclude = tuple(sorted(blamed))
        # read_redundancy=None means every provider (read_quorum caps at
        # the cluster size)
        extra = self.read_redundancy
        return cluster.read_quorum(
            extra=cluster.n_providers if extra is None else extra,
            exclude=exclude,
        )

    def _read_round(
        self,
        table_name: str,
        rewritten: Optional[RewrittenPredicate] = None,
        *,
        method: str = "select",
        fields: Dict[str, object] = _FULL_ROWS,
        **round_args,
    ) -> Dict[int, Dict]:
        """One threshold read round of a one-table ``method``.

        ``rewritten`` (absent for whole-table scans) supplies each
        target's share-space conditions; ``fields`` are the method's
        other request fields.
        """
        sharing = self.sharing(table_name)

        def request(i: int) -> Dict:
            payload = {"table": table_name, **fields}
            if rewritten is not None:
                payload["conditions"] = rewritten.conditions_for(sharing, i)
            return payload

        return self._threshold_round(
            method,
            request,
            () if rewritten is None else (rewritten,),
            **round_args,
        )

    def _threshold_round(
        self,
        method: str,
        request: Callable[[int], Dict],
        rewritten: Sequence[RewrittenPredicate],
        *,
        mode: str = _QUORUM,
        targets: Optional[List[int]] = None,
        blamed: set = frozenset(),
    ) -> Dict[int, Dict]:
        """Fan ``request`` out to ``mode``'s targets — the only place a
        threshold read round is built.  A checked round waits for every
        response (all of them take part in the cross-check); the others
        return at the k-th."""
        if targets is None:
            targets = self._read_targets(mode, blamed)
        for predicate in rewritten:
            # two share evaluations (low & high endpoint) per interval per target
            self.cost.record(
                "poly_eval", 2 * len(predicate.intervals) * len(targets)
            )
        return self._broadcast(
            method,
            request,
            minimum=self.threshold,
            provider_indexes=targets,
            quorum="all" if mode == _CHECKED else "first_k",
            failover=self.failover,
        )

    def _read_shares(
        self,
        table_name: str,
        rewritten: Optional[RewrittenPredicate] = None,
        **round_args,
    ) -> Dict[int, Dict[int, ShareRow]]:
        """One read round, aligned: ``{row_id: {provider: share row}}``."""
        return align_by_row_id(
            rows_from_responses(
                self._read_round(table_name, rewritten, **round_args)
            )
        )

    def _read_rows(
        self,
        table_name: str,
        mode: str,
        rewritten: Optional[RewrittenPredicate] = None,
        *,
        cache_epoch: Optional[int] = None,
        **round_args,
    ) -> List[Tuple[int, Row]]:
        """The read pipeline: round → align → decode → residual filter.

        Returns the ``(row_id, plaintext row)`` pairs matching
        ``rewritten`` (every row of the table without one), decoded as
        ``mode`` prescribes.  ``cache_epoch`` — the epoch the read began
        in — lets a quorum read skip interpolating rows the row cache holds.
        """
        sharing = self.sharing(table_name)
        columns = round_args.get("fields", _FULL_ROWS).get("projection")
        residual = None
        if rewritten is not None:
            if rewritten.provably_empty:
                return []
            residual = rewritten.residual
        return self._until_unblamed(
            table_name,
            lambda blamed: self._decode_rows(
                sharing,
                mode,
                self._read_round(
                    table_name, rewritten, mode=mode, blamed=blamed,
                    **round_args,
                ),
                residual,
                cache_epoch,
                columns,
            ),
        )

    def _decode_rows(
        self,
        sharing: TableSharing,
        mode: str,
        responses: Dict[int, Dict],
        residual: Optional[Predicate] = None,
        cache_epoch: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[List[Tuple[int, Row]], List[int]]:
        """One round's ``{"rows": ShareRows}`` responses decoded as ``mode``
        prescribes: ``(pairs, blamed provider indexes)``.  Only a checked
        decode ever blames."""
        if mode == _CHECKED:
            return reconstruct_rows_checked(
                sharing, responses, residual=residual, cost=self.cost
            )
        if mode == _AUDITED:
            self.audit.verify_responses(sharing.schema.name, responses)
        return reconstruct_rows(
            sharing,
            responses,
            residual=residual,
            cost=self.cost,
            strict=mode == _AUDITED,
            row_cache=self.row_cache,
            cache_epoch=cache_epoch,
            columns=columns,
        ), []

    def _until_unblamed(self, table_name: str, attempt: Callable[[set], Tuple]):
        """``attempt(blamed so far)`` → ``(result, newly blamed)``, run
        until a round blames nobody — the checked re-issue loop.

        A round that blames providers quarantines them and is re-issued
        without them; the loop is bounded by the cluster size and the
        last round's result is returned regardless — robust decoding
        already masked the minority, re-issuing is about *evicting* it.
        """
        blamed_total: set = set()
        for _ in range(max(1, self.cluster.n_providers)):
            result, blamed = attempt(blamed_total)
            if not blamed:
                break
            for index in blamed:
                self.cluster.health.quarantine(index, reason="blamed")
            blamed_total.update(blamed)
            telemetry.count("verified.reissued", table=table_name)
        return result

    # ---------------------------------------------------------------- joins --

    def join(self, query: JoinSelect) -> List[Row]:
        """Equi-join on a referential key (Sec. V-A "Join Operations")."""
        with telemetry.span(
            "join", left=query.left_table, right=query.right_table
        ) as sp:
            rows = self._join(query)
            sp.set(rows_returned=len(rows))
            return rows

    def _plan_join(self, query: JoinSelect) -> "_JoinPlan":
        """Validate a join and decide, once, how it reads: both sides'
        sharings and share-space rewrites, the cross-table residual, the
        mode, each side's projection, and whether the match can run at the
        providers — the key columns must be order-preserving shares of the
        same domain (Sec. V-A).  Shared by execution and :meth:`explain`."""
        left = self.sharing(query.left_table)
        right = self.sharing(query.right_table)
        left.schema.column(query.left_column)
        right.schema.column(query.right_column)
        compatible = (
            left.is_searchable(query.left_column)
            and right.is_searchable(query.right_column)
            and left.domain_label(query.left_column)
            == right.domain_label(query.right_column)
        )
        left_pred, right_pred, residual = split_join_predicate(
            query.where, query.left_table, query.right_table
        )
        left_rw = rewrite_predicate(left_pred.bind(left.schema), left)
        right_rw = rewrite_predicate(right_pred.bind(right.schema), right)
        projections = join_fetched_columns(
            query, (left.schema, right.schema), (left_rw.residual, right_rw.residual), residual
        )
        # quorum or checked, exactly like a row read (whole rows when checked)
        mode = _CHECKED if self.verified_reads else _QUORUM
        if mode == _CHECKED:
            projections = (None, None)
        return _JoinPlan(
            (left, right), (left_rw, right_rw), residual, mode, projections, compatible
        )

    def _join(self, query: JoinSelect) -> List[Row]:
        plan = self._plan_join(query)
        (left, right), (left_rw, right_rw) = plan.sharings, plan.rewritten
        if left_rw.provably_empty or right_rw.provably_empty:
            return []
        if not plan.compatible:
            if not self.client_join_fallback:
                raise UnsupportedQueryError(
                    f"join {query.left_table}.{query.left_column} = "
                    f"{query.right_table}.{query.right_column} cannot run at "
                    "the providers: the columns are not order-preserving "
                    "shares of the same domain (Sec. V-A); enable "
                    "client_join_fallback to join at the client instead"
                )
            return self._client_side_join(query, plan)
        # a side that uses every column leaves its projection field out
        projections = {
            f"{side}_projection": columns
            for side, columns in zip(("left", "right"), plan.projections)
            if columns is not None
        }

        def request(i: int) -> Dict:
            return {
                "left": query.left_table,
                "right": query.right_table,
                "left_column": query.left_column,
                "right_column": query.right_column,
                "left_conditions": left_rw.conditions_for(left, i),
                "right_conditions": right_rw.conditions_for(right, i),
                **projections,
            }

        def attempt(blamed: set):
            # the providers matched on shares and answered with each
            # side's matched rows: two row reads in one round, decoded
            # like any other
            responses = self._threshold_round(
                "join", request, plan.rewritten, mode=plan.mode, blamed=blamed
            )
            sides, blamed_now = [], set()
            for key, sharing, rewritten, columns in zip(
                ("left", "right"), plan.sharings, plan.rewritten, plan.projections
            ):
                pairs, side_blamed = self._decode_rows(
                    sharing,
                    plan.mode,
                    {i: {"rows": r[key]} for i, r in responses.items()},
                    rewritten.residual,
                    columns=columns,
                )
                sides.append(pairs)
                blamed_now.update(side_blamed)
            return sides, sorted(blamed_now)

        left_pairs, right_pairs = self._until_unblamed(
            query.left_table, attempt
        )
        return hash_join(query, left_pairs, right_pairs, plan.residual)

    def _client_side_join(self, query: JoinSelect, plan: "_JoinPlan") -> List[Row]:
        """Fetch both sides in the plan's mode and hash-join at the client
        (the fallback for keys the providers cannot match)."""
        left, right = (
            self._read_rows(table, plan.mode, rewritten, fields={"projection": columns})
            for table, rewritten, columns in zip(
                (query.left_table, query.right_table), plan.rewritten, plan.projections
            )
        )
        self.cost.record("compare", len(left) + len(right))
        return hash_join(query, left, right, plan.residual)

    # -------------------------------------------------------------- dispatch --

    def execute(self, query) -> Union[List[Row], object, int]:
        """Execute any query-AST node (or SQL text)."""
        if isinstance(query, str):
            return self.sql(query)
        if isinstance(query, Select):
            return self.select(query)
        if isinstance(query, JoinSelect):
            return self.join(query)
        if isinstance(query, Insert):
            self.insert(query.table, query.row)
            return 1
        if isinstance(query, Update):
            return self.update(query)
        if isinstance(query, Delete):
            return self.delete(query)
        raise QueryError(f"unsupported query object {type(query).__name__}")

    def sql(self, text: str) -> Union[List[Row], object, int]:
        """Parse and execute one SQL statement."""
        with telemetry.span("query", sql=text):
            return self.execute(parse_sql(text))

    def explain(self, query) -> Dict[str, object]:
        """Describe how a query would execute, without executing it.

        Returns a plain dict: which conjuncts push down to providers (as
        plaintext intervals), what remains as a client-side residual, the
        columns fetched, the read mode, the providers its first round
        addresses, and the execution strategy — all taken from the same
        plan execution uses (:meth:`_plan_select`).  SQL text is accepted.
        """
        if isinstance(query, str):
            query = parse_sql(query)
        if isinstance(query, JoinSelect):
            return self._explain_join(query)
        if not isinstance(query, (Select, Update, Delete)):
            raise QueryError(f"cannot explain {type(query).__name__}")
        mode = _QUORUM
        if isinstance(query, Select):
            mode = _CHECKED if self.verified_reads else _QUORUM
            plan = self._plan_select(query, mode)
            sharing, rewritten, fetched = plan.sharing, plan.rewritten, plan.fetched
        else:
            sharing = self.sharing(query.table)
            rewritten = rewrite_predicate(query.where.bind(sharing.schema), sharing)
            fetched = sharing.schema.column_names
        if rewritten.provably_empty:
            strategy = "provably empty: answered without a provider round"
        elif isinstance(query, Update):
            strategy = "fetch matching rows, reconstruct, re-share changed columns"
        elif isinstance(query, Delete):
            strategy = "fetch matching row ids, delete everywhere"
        elif query.is_aggregate and plan.can_push:
            strategy = (
                "provider-grouped" if query.is_grouped else "provider-side"
            ) + " partial aggregation"
        elif query.is_aggregate:
            verb = "group" if query.is_grouped else "aggregate"
            strategy = f"fetch matching rows, {verb} at the client"
        else:
            parts = ["provider share-index filter" if rewritten.intervals
                     else "provider full scan"]
            if rewritten.has_residual:
                parts.append("client residual filter")
            if query.order_by is not None:
                parts.append(
                    "provider share-order sort"
                    if "order_by" in plan.fields
                    else "client sort"
                )
            if query.limit is not None:
                parts.append(
                    f"limit {query.limit} "
                    + ("at providers" if "limit" in plan.fields else "at client")
                )
            strategy = " + ".join(parts)
        return {
            "table": query.table,
            "pushdown": [
                {"column": i.column, "low": i.low, "high": i.high}
                for i in rewritten.intervals
            ],
            "residual": (
                None if not rewritten.has_residual else repr(rewritten.residual)
            ),
            "provably_empty": rewritten.provably_empty,
            "fetched_columns": list(fetched),
            "mode": mode,
            "read_quorum": self._read_targets(mode),
            "estimated_selectivity": _estimate_selectivity(sharing, rewritten),
            "strategy": strategy,
        }

    def _explain_join(self, query: JoinSelect) -> Dict[str, object]:
        plan = self._plan_join(query)
        if plan.compatible:
            strategy = "provider-side hash join on deterministic shares"
        elif self.client_join_fallback:
            strategy = "fetch both sides, hash join at the client"
        else:
            strategy = "UNSUPPORTED (different domains; Sec. V-A)"
        left, right = (
            list(columns or sharing.schema.column_names)
            for columns, sharing in zip(plan.projections, plan.sharings)
        )
        return {
            "join": f"{query.left_table}.{query.left_column} = "
                    f"{query.right_table}.{query.right_column}",
            "domain_compatible": plan.compatible,
            "strategy": strategy,
            "mode": plan.mode,
            "read_quorum": self._read_targets(plan.mode),
            "left_fetched_columns": left,
            "right_fetched_columns": right,
        }

    # ------------------------------------------------------------ accounting --

    def reset_accounting(self) -> None:
        """Zero client cost, provider costs, and network counters."""
        self.cost.reset()
        self.cluster.reset_accounting()


def _create_request(table_name: str, schema: TableSchema) -> Dict:
    """The ``create_table`` payload for a share table laid out like ``schema``."""
    return {
        "table": table_name,
        "columns": schema.column_names,
        "searchable": [c.name for c in schema.columns if c.searchable],
    }


def _estimate_selectivity(sharing: TableSharing, rewritten) -> float:
    """Uniform-assumption selectivity of the pushed-down intervals.

    The product over intervals of (interval width / domain size) — the
    textbook independent-uniform estimate.  Residual conjuncts are not
    estimated (the client has no statistics for them); 1.0 means "full
    scan".  Purely informational, surfaced by :meth:`DataSource.explain`.
    """
    if rewritten.provably_empty:
        return 0.0
    estimate = 1.0
    for interval in rewritten.intervals:
        domain = sharing.op_scheme(interval.column).domain
        width = interval.high - interval.low + 1
        estimate *= min(1.0, max(0.0, width / domain.size))
    return estimate


def _note_rows_returned(span, count: int) -> None:
    if telemetry.is_enabled():
        span.set(rows_returned=count)
        telemetry.count("query.rows_returned", count)


def finish_rows(
    query: Select, schema: TableSchema, pairs: List[Tuple[int, Row]]
) -> List[Tuple[int, Row]]:
    """Client-side ORDER BY, LIMIT and projection of ``(row_id, row)``
    pairs handed over in row-id order — the one copy, so every
    row-returning read (any mode, any deployment shape) honours them
    identically and breaks ORDER BY ties by row id.  (Providers'
    pushed-down order is lost when rows are aligned by id, so the sort
    always runs here.)"""
    if query.order_by is not None:
        order_column = schema.column(query.order_by)
        pairs.sort(
            key=lambda pair: python_value_sort_key(
                order_column, pair[1].get(query.order_by)
            ),
            reverse=query.descending,
        )
    if query.limit is not None:
        pairs = pairs[: query.limit]
    if query.columns:
        for name in query.columns:
            schema.column(name)
        # a row read for exactly the select list, in its order, is kept
        columns = list(query.columns)
        pairs = [
            (row_id, row if list(row) == columns else {name: row[name] for name in columns})
            for row_id, row in pairs
        ]
    return pairs


def hash_join(
    query: JoinSelect,
    left: List[Tuple[int, Row]],
    right: List[Tuple[int, Row]],
    residual: Predicate,
) -> List[Row]:
    """Hash equi-join of two sides' ``(row_id, row)`` pairs at the client.

    NULL keys never match; the joined rows carry ``table.column`` names,
    pass ``residual`` and come back in (left, right) input order, so
    row-id-ordered sides give the provider-side join's pair order.  The
    select list is the caller's to check (:func:`join_fetched_columns`).
    """
    build: Dict[object, List[Row]] = {}
    for _, row in right:
        key = row.get(query.right_column)
        if key is not None:
            build.setdefault(key, []).append(row)
    results: List[Row] = []
    for _, row in left:
        key = row.get(query.left_column)
        if key is None:
            continue
        for match in build.get(key, ()):
            merged = _qualified_pair(query, row, match)
            if residual.matches(merged):
                results.append(merged)
    return _project_qualified(results, query.columns)


def _qualified_pair(query: JoinSelect, left_row: Row, right_row: Row) -> Row:
    """One joined row: both sides' columns under ``table.column`` names."""
    merged = {f"{query.left_table}.{k}": v for k, v in left_row.items()}
    merged.update(
        {f"{query.right_table}.{k}": v for k, v in right_row.items()}
    )
    return merged


def _project_qualified(rows: List[Row], columns: Tuple[str, ...]) -> List[Row]:
    if not columns:
        return rows
    return [{name: row[name] for name in columns} for row in rows]
