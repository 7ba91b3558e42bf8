"""Reconstruction of plaintext results from per-provider share responses.

After the cluster fans a rewritten query out, each provider returns its
share rows as one column-major :class:`~repro.sim.network.ShareRows`,
keyed by client-assigned row ids.  Reconstruction aligns rows by id
across the quorum, interpolates each column, and re-applies any
client-side residual predicate.  A provider-matched join answers with
two of them — each side's matched rows — and each is decoded here like
any other row read; there is no pair decode.

A quorum read (:func:`reconstruct_rows`) stays column-major
end to end: rows are aligned by *position* — when every responder
returned the same row ids, which is what honest providers do, the
alignment is the identity and each provider's columns go to the kernels
as they arrived; otherwise rows are grouped by the set of providers that
returned them and each group's columns are gathered by position — and
one dict per row is built at the very end.  The per-row readers (robust
and checked decoding, repair) vote or verify one row at a time
by nature; they iterate a ``ShareRows`` as ``(row_id, share_row)`` pairs
through :func:`align_by_row_id`.

Alignment policy: a row is reconstructed when at least ``k`` providers
returned it.  Honest providers always agree on the matching set (they
filter the *same* plaintext rows, deterministically, in share space), so
a shortfall only occurs under omission faults — which, in a quorum read,
silently shrinks the result.  That silent data loss is precisely the
vulnerability Sec. I's third challenge describes; a checked read
(:func:`reconstruct_rows_checked`, ``verified_reads=True``) asks more
than k providers, votes on which rows are present and blames the
omitter, and EXP-T9 measures it.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..core.scheme import ShareRow, TableSharing
from ..errors import IntegrityError, ReconstructionError
from ..sim.costmodel import CostRecorder
from ..sim.network import ShareRows
from ..sqlengine.expression import Predicate, TruePredicate
from .rowcache import RowCache

ProviderRows = Dict[int, ShareRows]


def rows_from_responses(responses: Dict[int, Dict]) -> ProviderRows:
    """The per-provider share rows of RPC responses (not copied)."""
    return {index: response["rows"] for index, response in responses.items()}


def align_by_row_id(
    provider_rows: ProviderRows,
) -> Dict[int, Dict[int, ShareRow]]:
    """row_id → (provider_index → share row), insertion order by row id."""
    aligned: Dict[int, Dict[int, ShareRow]] = {}
    for provider_index, rows in provider_rows.items():
        for row_id, values in rows:
            aligned.setdefault(row_id, {})[provider_index] = values
    return {row_id: aligned[row_id] for row_id in sorted(aligned)}


def group_by_responders(
    provider_rows: ProviderRows,
) -> Dict[Tuple[int, ...], List[int]]:
    """Responder tuple → the row ids exactly those providers returned,
    ascending.  One group holding every row when all providers returned
    the same ids — one list compare each, no per-row work."""
    id_lists = [rows.row_ids for rows in provider_rows.values()]
    if (
        id_lists
        and all(ids == id_lists[0] for ids in id_lists[1:])
        and len(set(id_lists[0])) == len(id_lists[0])
    ):
        return {tuple(provider_rows): sorted(id_lists[0])}
    answered: Dict[int, List[int]] = {}
    for provider_index, row_ids in zip(provider_rows, id_lists):
        for row_id in dict.fromkeys(row_ids):
            answered.setdefault(row_id, []).append(provider_index)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for row_id in sorted(answered):
        groups.setdefault(tuple(answered[row_id]), []).append(row_id)
    return groups


def reconstruct_rows(
    sharing: TableSharing,
    responses: Dict[int, Dict],
    residual: Optional[Predicate] = None,
    cost: Optional[CostRecorder] = None,
    row_cache: Optional[RowCache] = None,
    cache_epoch: Optional[int] = None,
    columns: Optional[Sequence[str]] = None,
) -> List[Tuple[int, Dict[str, object]]]:
    """Reconstruct and residual-filter query results: the ``(row_id,
    row)`` pairs, ascending row id, each row holding at least ``columns``
    (the read's projection; every column when None).

    Rows fewer than ``k`` providers returned are dropped silently: this is
    the unverified client; a checked read
    (:func:`reconstruct_rows_checked`) votes on presence instead.

    When a ``row_cache`` (and the ``cache_epoch`` the read began in) is
    supplied, rows the cache still holds with every one of ``columns`` —
    reconstructed earlier and not touched by a write since — skip
    interpolation: only the cache-miss subset goes through the batched
    kernels, and fresh reconstructions are written back.
    """
    with telemetry.span("reconstruct", table=sharing.schema.name) as sp:
        provider_rows = rows_from_responses(responses)
        groups = group_by_responders(provider_rows)
        threshold = sharing.threshold
        table_name = sharing.schema.name
        names = sharing.schema.column_names if columns is None else list(columns)
        residual = residual or TruePredicate()
        needs_residual = not isinstance(residual, TruePredicate)
        use_cache = row_cache is not None and cache_epoch is not None
        quorate = {
            responders: row_ids
            for responders, row_ids in groups.items()
            if len(responders) >= threshold
        }
        ordered_ids: List[int] = sorted(chain.from_iterable(quorate.values()))
        cached: Dict[int, Dict[str, object]] = {}
        if use_cache:
            cached = row_cache.get_rows(table_name, ordered_ids, cache_epoch, names)
        # ``columns`` holds the residual's columns: reconstruct them all
        # first (batched, column-major), then filter
        fresh: Dict[int, Dict[str, object]] = {}
        for responders, row_ids in quorate.items():
            if cached:
                row_ids = [row_id for row_id in row_ids if row_id not in cached]
            if row_ids:
                fresh.update(
                    zip(
                        row_ids,
                        sharing.reconstruct_rows(
                            {i: provider_rows[i].take(row_ids) for i in responders},
                            names,
                        ),
                    )
                )
        if fresh and use_cache:
            row_cache.put_rows(table_name, cache_epoch, fresh.items())
        if names and fresh and cost is not None:
            # cache hits cost nothing: the whole point of the cache is
            # that only misses pay for interpolation
            cost.record("interpolate", sum(map(len, fresh.values())))
        pairs: List[Tuple[int, Dict[str, object]]] = []
        for row_id in ordered_ids:
            row = cached.get(row_id)
            if row is None:
                row = fresh[row_id]
            if needs_residual and not residual.matches(row):
                continue
            pairs.append((row_id, row))
        if telemetry.is_enabled():
            n_columns = len(names)
            sp.set(
                rows_aligned=sum(map(len, groups.values())),
                rows_reconstructed=len(fresh),
                rows_cached=len(cached),
                rows_out=len(pairs),
                cells=len(fresh) * n_columns,
            )
            telemetry.count("reconstruct.rows", len(fresh))
            telemetry.count("reconstruct.cells", len(fresh) * n_columns)
            telemetry.count(
                "reconstruct.residual_filtered", len(ordered_ids) - len(pairs)
            )
        return pairs


def presence_majority(
    row_id: int, present: set, responding: set, blamed: set
) -> bool:
    """Strict-majority presence vote on one result row.

    Returns whether the row is real.  Providers that omitted a row a
    strict majority returned — or fabricated one a strict majority did
    not — are added to ``blamed``; an exact tie raises, there is no
    majority to trust.
    """
    absent = responding - present
    if not absent:
        return True
    if len(present) * 2 > len(responding):
        # majority returned the row: the absentees omitted it
        for index in sorted(absent):
            telemetry.count(
                "faults.detected", kind="omission", provider=str(index)
            )
        blamed.update(absent)
        return True
    if len(present) * 2 < len(responding):
        # majority did not return it: the row is fabricated
        telemetry.count("faults.detected", kind="fabrication")
        blamed.update(present)
        return False
    raise ReconstructionError(
        f"row {row_id}: presence tie — providers {sorted(present)} "
        f"returned it, {sorted(absent)} did not; no majority to decide"
    )


def reconstruct_rows_checked(
    sharing: TableSharing,
    responses: Dict[int, Dict],
    residual: Optional[Predicate] = None,
    cost: Optional[CostRecorder] = None,
    columns: Optional[Sequence[str]] = None,
) -> Tuple[List[Tuple[int, Dict[str, object]]], List[int]]:
    """Reconstruct with cross-checking; returns ``(pairs, blamed_indexes)``
    — the ``(row_id, row)`` pairs surviving the residual filter,
    ascending row id, each row holding ``columns`` (every column when
    None; none for an id-only read, which is a presence vote alone).

    The verified-read primitive: the caller fans out to **more** than k
    providers, and every column of every row is decoded robustly with
    blame — a provider whose share does not lie on the winning polynomial
    (or, for order-preserving columns, does not match the deterministic
    recomputed share) lands in the blame list.  Row-presence is checked
    too: a provider that omits a row a strict majority returned (or
    fabricates one a strict majority did not) is blamed.  An exact
    presence tie raises — there is no majority to trust.

    The caller decides policy (quarantine + re-issue); this function only
    reports.
    """
    with telemetry.span("reconstruct_checked", table=sharing.schema.name) as sp:
        provider_rows = rows_from_responses(responses)
        aligned = align_by_row_id(provider_rows)
        threshold = sharing.threshold
        residual = residual or TruePredicate()
        needs_residual = not isinstance(residual, TruePredicate)
        responding = set(responses)
        blamed: set = set()
        #: one slot per decodable row, in row-id order; None while a row is
        #: deferred and for rows the residual filtered out
        decoded: List[Optional[Tuple[int, Dict[str, object]]]] = []
        # rows whose robust vote tied with no blame evidence yet; retried
        # below once blame has accumulated from the rest of the result set
        deferred: List[Tuple[int, int, Dict[int, ShareRow]]] = []

        def _decode(row_id: int, share_rows: Dict[int, ShareRow]):
            row, bad = sharing.reconstruct_row_checked(
                share_rows, columns, suspects=blamed
            )
            if bad:
                telemetry.count("faults.detected", kind="tamper")
            blamed.update(bad)
            if row and cost is not None:
                cost.record("interpolate", len(row))
            if needs_residual and not residual.matches(row):
                return None
            return row_id, row

        for row_id, share_rows in aligned.items():
            if not presence_majority(
                row_id, set(share_rows), responding, blamed
            ):
                continue
            if len(share_rows) < threshold:
                continue
            try:
                decoded.append(_decode(row_id, share_rows))
            except ReconstructionError:
                deferred.append((len(decoded), row_id, share_rows))
                decoded.append(None)
        for slot, row_id, share_rows in deferred:
            # still ambiguous with all accumulated blame → re-raises here
            decoded[slot] = _decode(row_id, share_rows)
        pairs = [pair for pair in decoded if pair is not None]
        sp.set(rows_out=len(pairs), blamed=len(blamed))
        return pairs, sorted(blamed)


def reconstruct_single_rows(
    sharing: TableSharing,
    responses: Dict[int, Dict],
    cost: Optional[CostRecorder] = None,
) -> Optional[Dict[str, object]]:
    """Reconstruct a one-row-per-provider aggregate answer (MIN/MAX/MEDIAN).

    Each provider nominates the extreme/median row; honest providers
    nominate the *same* row id because share order equals value order.
    Disagreement is evidence of tampering and raises.
    """
    nominations = {
        index: response["row"] for index, response in responses.items()
    }
    non_empty = {i: r for i, r in nominations.items() if r is not None}
    if not non_empty:
        return None
    if len(non_empty) != len(nominations):
        telemetry.count("faults.detected", kind="empty_disagreement")
        raise IntegrityError(
            "providers disagree on whether the aggregate input is empty"
        )
    row_ids = {row_id for row_id, _ in non_empty.values()}
    if len(row_ids) != 1:
        telemetry.count("faults.detected", kind="nomination_disagreement")
        raise IntegrityError(
            f"providers nominated different rows {sorted(row_ids)} for an "
            "order-based aggregate; order-preserving shares guarantee "
            "agreement, so a provider is faulty"
        )
    share_rows = {index: values for index, (_, values) in non_empty.items()}
    if len(share_rows) < sharing.threshold:
        raise ReconstructionError(
            f"aggregate row returned by only {len(share_rows)} providers"
        )
    row = sharing.reconstruct_row(share_rows)
    if cost is not None:
        cost.record("interpolate", len(row))
    return row


def consistent_scalar(responses: Dict[int, Dict], key: str):
    """A scalar every provider must agree on (e.g. COUNT).

    Disagreement means a faulty provider; the client cannot tell *which*
    from k answers, so it raises rather than guessing.  An empty
    response set means no quorum ever answered — surfaced as a
    :class:`ReconstructionError` rather than an opaque ``StopIteration``.
    """
    if not responses:
        raise ReconstructionError(
            f"no provider responses to agree on {key!r}; the quorum "
            "returned nothing"
        )
    values = {response[key] for response in responses.values()}
    if len(values) != 1:
        telemetry.count("faults.detected", kind="scalar_disagreement")
        raise IntegrityError(
            f"providers disagree on {key}: {sorted(values)}"
        )
    return next(iter(values))
