"""Provider repair: rebuild one provider's share columns from k live peers.

When a provider recovers from a crash (or its storage is lost outright),
its share tables are stale or empty.  :meth:`DataSource.resync_table`
solves this with a sledgehammer — reconstruct everything, redraw fresh
polynomials, rewrite **every** provider.  Repair is the targeted
alternative the threshold structure makes possible:

* **Random columns** — any k consistent shares determine the
  degree-(k−1) sharing polynomial ``q``; the target's correct share is
  just ``q(x_target)`` (:meth:`ShamirScheme.extend_share`).  The
  polynomial itself is untouched, so no other provider's share changes.
* **Order-preserving columns** — shares are deterministic per value, so
  the target's share is recomputed directly as ``share(v, x_target)``
  after robust reconstruction of ``v``.

Only the target provider is written; the k source providers are only
read.  Communication is one quorum scan per table plus the rebuilt
column upload — against resync's full-cluster rewrite.

The scan uses robust per-column decoding, so repair works even while a
minority of the *source* quorum is tampering (the rebuilt shares come
from the majority polynomial, not from any single provider).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..core.scheme import ShareRow, TableSharing
from ..errors import ProviderUnavailableError, QuorumError
from .datasource import create_request

#: Rows per insert_many batch uploaded to the repaired provider.
REPAIR_BATCH_SIZE = 500


def rebuild_share_row(
    sharing: TableSharing,
    share_rows: Dict[int, ShareRow],
    target_index: int,
) -> ShareRow:
    """The target provider's share row, rebuilt from a quorum's shares.

    NULLs follow the majority of the quorum; random columns are extended
    along the existing polynomial, order-preserving columns recomputed
    deterministically from the robustly reconstructed value.

    With more than k source shares, the row is first checked for blame
    (:meth:`TableSharing.reconstruct_row_checked`) and blamed providers'
    shares are dropped before extension — a tampering member of the
    source quorum must not steer the polynomial the target's share is
    read off.
    """
    if len(share_rows) > sharing.threshold:
        _, suspects = sharing.reconstruct_row_checked(share_rows)
        trusted = {
            index: row
            for index, row in share_rows.items()
            if index not in suspects
        }
        if len(trusted) >= sharing.threshold:
            share_rows = trusted
    rebuilt: ShareRow = {}
    for column in sharing.schema.column_names:
        shares = {
            index: row.get(column) for index, row in share_rows.items()
        }
        non_null = {i: s for i, s in shares.items() if s is not None}
        nulls = len(shares) - len(non_null)
        if not non_null or nulls * 2 > len(shares):
            rebuilt[column] = None
        elif sharing.is_searchable(column):
            op = sharing.op_scheme(column)
            encoded = op.reconstruct_robust(non_null)
            rebuilt[column] = op.share(encoded, target_index)
        else:
            rebuilt[column] = sharing.random_scheme.extend_share(
                non_null, target_index
            )
    return rebuilt


def rebuild_rows_for_targets(
    sharing: TableSharing,
    aligned: Dict[int, Dict[int, ShareRow]],
    target_indexes: List[int],
) -> List[Tuple[int, Dict[int, ShareRow]]]:
    """Rebuild every quorum-complete row for a set of target points.

    The bulk form of :func:`rebuild_share_row`, used by provider repair
    (one target) and shard migration: each row is rebuilt once per
    target evaluation point, so a whole row set can be re-homed onto
    another provider group that shares the client's secrets — without
    ever reconstructing the randomly-shared plaintext.  Rows with fewer
    than k source shares are skipped (they cannot be rebuilt; the
    caller's quorum failover should prevent this).
    """
    out: List[Tuple[int, Dict[int, ShareRow]]] = []
    for row_id, share_rows in sorted(aligned.items()):
        if len(share_rows) < sharing.threshold:
            continue
        out.append(
            (
                row_id,
                {
                    target: rebuild_share_row(sharing, share_rows, target)
                    for target in target_indexes
                },
            )
        )
    return out


def repair_provider(
    source,
    provider_index: int,
    tables: Optional[List[str]] = None,
    batch_size: int = REPAIR_BATCH_SIZE,
) -> Dict[str, int]:
    """Re-sync one provider's share tables from ``k`` live peers.

    Parameters
    ----------
    source:
        The :class:`~repro.client.datasource.DataSource` that owns the
        deployment (supplies secrets, schemas, and the cluster).
    provider_index:
        The provider to rebuild.  It must be reachable (recovered from
        its crash); its current tables — whatever state they are in —
        are dropped and rewritten.
    tables:
        Restrict the repair to these tables (default: all outsourced).

    Returns per-table counts of rows written to the repaired provider.
    Raises :class:`ProviderUnavailableError` if the target is still
    down, :class:`QuorumError` if fewer than k *other* providers are
    live to source the rebuild from.
    """
    cluster = source.cluster
    if not 0 <= provider_index < cluster.n_providers:
        raise QuorumError(
            f"no provider at index {provider_index} "
            f"(cluster has {cluster.n_providers})"
        )
    target = cluster.providers[provider_index]
    if target.fault is not None and target.fault.crash_active:
        raise ProviderUnavailableError(
            f"provider {target.name} is still down; clear its fault "
            "(recover it) before repairing"
        )
    names = tables if tables is not None else source.table_names()
    counts: Dict[str, int] = {}
    with telemetry.span(
        "repair", provider=target.name, tables=len(names)
    ) as sp:
        for table_name in names:
            counts[table_name] = _repair_table(
                source, table_name, provider_index, batch_size
            )
        sp.set(rows=sum(counts.values()))
        telemetry.count(
            "repair.rows", sum(counts.values()), provider=target.name
        )
    cluster.health.release(provider_index)
    return counts


def _repair_table(
    source, table_name: str, provider_index: int, batch_size: int
) -> int:
    sharing = source.sharing(table_name)
    # k+1 sources (one redundant share so a tampering source can be
    # blamed and dropped), never the target itself (its shares are
    # suspect)
    aligned = source.scan_share_rows(
        table_name, extra=1, exclude=(provider_index,)
    )
    rebuilt = [
        (row_id, rows[provider_index])
        for row_id, rows in rebuild_rows_for_targets(
            sharing, aligned, [provider_index]
        )
    ]
    if rebuilt:
        cells = len(rebuilt) * len(sharing.schema.columns)
        source.cost.record("interpolate", cells)
        source.cost.record("poly_eval", cells)
    # drop whatever the target holds (possibly nothing) and rewrite
    source.call_one(provider_index, "drop_table", {"table": table_name})
    source.call_one(
        provider_index, "create_table", create_request(table_name, sharing.schema)
    )
    for start in range(0, len(rebuilt), batch_size):
        batch = rebuilt[start:start + batch_size]
        source.call_one(
            provider_index,
            "insert_many",
            {"table": table_name, "rows": [[rid, row] for rid, row in batch]},
        )
    return len(rebuilt)


def verify_repair(source, provider_index: int) -> Dict[str, Dict[str, int]]:
    """Check the repaired provider against the quorum, table by table.

    Compares row counts and (cheaply, via one verified-style scan) that
    the target's shares are consistent with robust reconstruction that
    *includes* the target.  Returns per-table
    ``{"rows": n, "quorum_rows": m, "consistent": 0/1}``.
    """
    report: Dict[str, Dict[str, int]] = {}
    for table_name in source.table_names():
        sharing = source.sharing(table_name)
        target_count = source.call_one(
            provider_index, "row_count", {"table": table_name}
        )["count"]
        aligned = source.scan_share_rows(
            table_name, exclude=(provider_index,)
        )
        quorum_rows = sum(
            1
            for share_rows in aligned.values()
            if len(share_rows) >= source.threshold
        )
        target_rows = source.call_one(
            provider_index, "scan", {"table": table_name, "projection": None}
        )["rows"]
        target_by_id = {rid: row for rid, row in target_rows}
        consistent = 1
        for row_id, share_rows in aligned.items():
            if len(share_rows) < source.threshold:
                continue
            combined = dict(share_rows)
            if row_id not in target_by_id:
                consistent = 0
                break
            combined[provider_index] = target_by_id[row_id]
            _, blamed = sharing.reconstruct_row_checked(combined)
            if provider_index in blamed:
                consistent = 0
                break
        report[table_name] = {
            "rows": target_count,
            "quorum_rows": quorum_rows,
            "consistent": consistent,
        }
    return report
