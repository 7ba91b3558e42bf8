"""Durable snapshots of providers and client state.

A database service survives restarts.  This module serialises

* each provider's **share store** (tables, rows of share integers), and
* the client's **metadata** — secret material, threshold, outsourced
  schemas, and row-id counters (never any data: the client's statelessness
  w.r.t. data is the point of outsourcing, paper footnote 1),

to JSON files, and restores a working cluster + data source from them.
Python's JSON handles arbitrary-precision integers natively, so the big
order-preserving shares round-trip exactly.

Usage::

    save_deployment(source, "snapshot/")
    ...
    source = load_deployment("snapshot/")
    source.sql("SELECT COUNT(*) FROM Employees")   # picks up where it left off
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List

from .client.datasource import DataSource
from .core.field import PrimeField
from .core.secrets import ClientSecrets
from .errors import ConfigurationError
from .providers.cluster import ProviderCluster
from .providers.provider import ShareProvider
from .sim.network import ShareRows, json_default
from .sqlengine.schema import Column, ColumnType, ForeignKey, TableSchema

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# schema (de)serialisation
# ---------------------------------------------------------------------------


def schema_to_dict(schema: TableSchema) -> Dict:
    """JSON-safe representation of a table schema."""
    return {
        "name": schema.name,
        "primary_key": schema.primary_key,
        "foreign_keys": [
            [fk.column, fk.references_table, fk.references_column]
            for fk in schema.foreign_keys
        ],
        "columns": [
            {
                "name": c.name,
                "ctype": c.ctype.value,
                "lo": c.lo,
                "hi": c.hi,
                "width": c.width,
                "scale": c.scale,
                "nullable": c.nullable,
                "searchable": c.searchable,
                "domain_label": c.domain_label,
                "alphabet": c.alphabet,
            }
            for c in schema.columns
        ],
    }


def schema_from_dict(data: Dict) -> TableSchema:
    """Inverse of :func:`schema_to_dict`."""
    columns = tuple(
        Column(
            name=c["name"],
            ctype=ColumnType(c["ctype"]),
            lo=c["lo"],
            hi=c["hi"],
            width=c["width"],
            scale=c["scale"],
            nullable=c["nullable"],
            searchable=c["searchable"],
            domain_label=c["domain_label"],
            alphabet=c.get("alphabet"),
        )
        for c in data["columns"]
    )
    foreign_keys = tuple(
        ForeignKey(column, table, ref) for column, table, ref in data["foreign_keys"]
    )
    return TableSchema(
        name=data["name"],
        columns=columns,
        primary_key=data["primary_key"],
        foreign_keys=foreign_keys,
    )


# ---------------------------------------------------------------------------
# provider snapshots
# ---------------------------------------------------------------------------


def provider_to_dict(provider: ShareProvider) -> Dict:
    """Snapshot one provider's entire share store.

    Transactional state rides along (optional keys, same format
    version): the epoch-tagged undo history that serves time-travel
    reads, and the applied-transaction set that makes WAL replay
    exactly-once across a provider restart.
    """
    tables = {}
    for table_name in provider.store.table_names():
        table = provider.store.table(table_name)
        tables[table_name] = {
            "columns": table.columns,
            "searchable": sorted(table.searchable),
            "rows": {
                str(row_id): table.get(row_id)
                for row_id in table.all_row_ids()
            },
            "epoch": table.epoch,
            "history_floor": table.history_floor,
            "history": [list(entry) for entry in table.history],
        }
    return {
        "version": _FORMAT_VERSION,
        "name": provider.name,
        "tables": tables,
        "applied_txns": sorted(provider.store.applied_txns),
    }


def provider_from_dict(data: Dict) -> ShareProvider:
    """Rebuild a provider (and its sorted indexes) from a snapshot."""
    if data.get("version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported provider snapshot version {data.get('version')!r}"
        )
    provider = ShareProvider(data["name"])
    for table_name, table_data in data["tables"].items():
        table = provider.store.create_table(
            table_name, list(table_data["columns"]), table_data["searchable"]
        )
        # bulk path: one index build per column instead of one insort
        # per row, so restoring a large snapshot is O(n log n), not O(n²)
        table.insert_many(
            ShareRows.from_pairs(
                (int(row_id_text), values)
                for row_id_text, values in table_data["rows"].items()
            )
        )
        # the bulk load above wrote synthetic epoch-0 history; the real
        # undo log (if the snapshot carries one) replaces it wholesale
        table.epoch = int(table_data.get("epoch", 0))
        table.history_floor = int(
            table_data.get("history_floor", table.epoch)
        )
        table.history = [
            (int(epoch), op, int(row_id), data)
            for epoch, op, row_id, data in table_data.get("history", [])
        ]
    provider.store.applied_txns = set(data.get("applied_txns", []))
    # an older snapshot's "staged_txns" are dropped: the client WAL holds
    # every one, and its recovery applies them
    return provider


# ---------------------------------------------------------------------------
# client snapshot
# ---------------------------------------------------------------------------


def client_to_dict(source: DataSource) -> Dict:
    """Snapshot the client's metadata (secrets + schemas, never data)."""
    state = source.snapshot()
    return {
        "version": _FORMAT_VERSION,
        "threshold": source.threshold,
        "n_providers": source.cluster.n_providers,
        "client_join_fallback": source.client_join_fallback,
        "namespace": source.namespace,
        "rng": state["rng"],
        "secrets": {
            "evaluation_points": list(source.secrets.evaluation_points),
            "hash_key": source.secrets.hash_key.hex(),
            "field_modulus": source.secrets.field.modulus,
        },
        "tables": {
            name: {
                "schema": schema_to_dict(source.sharing(name).schema),
                "next_row_id": next_row_id,
            }
            for name, next_row_id in state["next_row_ids"].items()
        },
        "table_epochs": state["table_epochs"],
        "txn_id_high": state["txn_id_high"],
    }


def client_from_dict(data: Dict, cluster: ProviderCluster) -> DataSource:
    """Rebuild a data source around an already-restored cluster."""
    if data.get("version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported client snapshot version {data.get('version')!r}"
        )
    if cluster.n_providers != data["n_providers"]:
        raise ConfigurationError(
            f"snapshot expects {data['n_providers']} providers, cluster has "
            f"{cluster.n_providers}"
        )
    if cluster.threshold != data["threshold"]:
        raise ConfigurationError(
            f"snapshot expects threshold {data['threshold']}, cluster has "
            f"{cluster.threshold}"
        )
    secrets = ClientSecrets(
        tuple(data["secrets"]["evaluation_points"]),
        bytes.fromhex(data["secrets"]["hash_key"]),
        PrimeField(data["secrets"]["field_modulus"]),
    )
    rng_info = data.get("rng", {"seed": 0, "epoch": 1})
    epoch_seed = (
        rng_info["seed"] * 1_000_003 + rng_info["epoch"]
    ) % (1 << 62)
    source = DataSource(
        cluster,
        seed=epoch_seed,
        secrets=secrets,
        client_join_fallback=data["client_join_fallback"],
        namespace=data.get("namespace", ""),
    )
    for table_data in data["tables"].values():
        source.restore_table(
            schema_from_dict(table_data["schema"]), table_data["next_row_id"]
        )
    return source.restore(dict(data, rng=rng_info))


# ---------------------------------------------------------------------------
# whole-deployment convenience
# ---------------------------------------------------------------------------


MANIFEST_NAME = "manifest.json"


def _atomic_write_json(path: str, payload: Dict) -> bytes:
    """Write JSON via a same-directory temp file + ``os.replace``.

    A crash mid-write leaves either the old file or no file — never a
    truncated one.  Returns the serialised bytes so the caller can hash
    them for the manifest without re-reading.  A ``ShareRows`` in the
    payload is written as the row-major list it stands for.
    """
    data = json.dumps(payload, default=json_default).encode("utf-8")
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return data


def save_deployment(source: DataSource, directory: str) -> List[str]:
    """Write client + every provider snapshot into ``directory``.

    Returns the written file paths.  Each provider gets its own file —
    in a real deployment each provider persists its own storage; the
    client file holds only metadata and secrets (protect it accordingly).

    The write is crash-safe: every file goes through a temp path and an
    atomic ``os.replace``, and a manifest naming (and hashing) every
    snapshot file is written **last** — so :func:`load_deployment` can
    reject a directory whose save was interrupted (no manifest) or that
    mixes files from different saves (hash mismatch) instead of silently
    restoring a torn deployment.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    digests: Dict[str, str] = {}
    client_path = os.path.join(directory, "client.json")
    data = _atomic_write_json(client_path, client_to_dict(source))
    digests["client.json"] = hashlib.sha256(data).hexdigest()
    paths.append(client_path)
    for index, provider in enumerate(source.cluster.providers):
        name = f"provider_{index}.json"
        path = os.path.join(directory, name)
        data = _atomic_write_json(path, provider_to_dict(provider))
        digests[name] = hashlib.sha256(data).hexdigest()
        paths.append(path)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    _atomic_write_json(
        manifest_path, {"version": _FORMAT_VERSION, "files": digests}
    )
    paths.append(manifest_path)
    return paths


def _read_snapshot_file(directory: str, name: str, digests: Dict[str, str]) -> Dict:
    """One manifest-verified JSON snapshot file."""
    path = os.path.join(directory, name)
    if name not in digests:
        raise ConfigurationError(
            f"snapshot manifest in {directory!r} does not list {name!r}"
        )
    if not os.path.exists(path):
        raise ConfigurationError(f"missing provider snapshot {path!r}")
    with open(path, "rb") as handle:
        raw = handle.read()
    if hashlib.sha256(raw).hexdigest() != digests[name]:
        raise ConfigurationError(
            f"snapshot file {path!r} does not match its manifest digest — "
            f"the snapshot is torn or mixes files from different saves"
        )
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"snapshot file {path!r} is not valid JSON: {exc}"
        ) from exc


SHARD_MANIFEST_NAME = "shard_manifest.json"


def save_sharded_deployment(router, directory: str) -> List[str]:
    """Write a sharded deployment: one sub-directory per provider group.

    Each group is saved with :func:`save_deployment` (atomic files, its
    own manifest written last), and the router's state — shard maps,
    row-id counters, retired flags — goes into a top-level shard
    manifest written **after** every group completed.  The shard
    manifest records each group manifest's digest, so a restore rejects
    a directory where some groups come from a different (or interrupted)
    save instead of reassembling a torn deployment whose shard maps
    disagree with the rows actually on disk.
    """
    os.makedirs(directory, exist_ok=True)
    snapshot = router.snapshot()
    retired = snapshot.pop("retired")
    paths: List[str] = []
    group_entries: List[Dict] = []
    for index, group in enumerate(router.groups):
        group_dir = f"group_{index}"
        paths.extend(
            save_deployment(group.source, os.path.join(directory, group_dir))
        )
        manifest_path = os.path.join(directory, group_dir, MANIFEST_NAME)
        with open(manifest_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        group_entries.append(
            {
                "directory": group_dir,
                "retired": index in retired,
                "manifest_sha256": digest,
            }
        )
    shard_manifest_path = os.path.join(directory, SHARD_MANIFEST_NAME)
    _atomic_write_json(
        shard_manifest_path,
        {
            "version": _FORMAT_VERSION,
            "groups": group_entries,
            **snapshot,
        },
    )
    paths.append(shard_manifest_path)
    return paths


def load_sharded_deployment(directory: str):
    """Restore a sharded deployment saved by :func:`save_sharded_deployment`.

    Raises :class:`ConfigurationError` when the shard manifest is
    missing (interrupted save), any group's manifest digest disagrees
    with it (groups from different saves), or any group's own snapshot
    is torn — the per-group :func:`load_deployment` checks apply
    unchanged underneath.
    """
    from .service.sharding import ShardRouter

    shard_manifest_path = os.path.join(directory, SHARD_MANIFEST_NAME)
    if not os.path.exists(shard_manifest_path):
        raise ConfigurationError(
            f"no shard manifest in {directory!r}: the sharded save was "
            "interrupted before completion — re-save the deployment"
        )
    with open(shard_manifest_path, "rb") as handle:
        try:
            manifest = json.loads(handle.read().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"shard manifest {shard_manifest_path!r} is not valid "
                f"JSON: {exc}"
            ) from exc
    if manifest.get("version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported shard manifest version {manifest.get('version')!r}"
        )
    sources = []
    retired = []
    for index, entry in enumerate(manifest["groups"]):
        group_dir = os.path.join(directory, entry["directory"])
        group_manifest = os.path.join(group_dir, MANIFEST_NAME)
        if not os.path.exists(group_manifest):
            raise ConfigurationError(
                f"missing group snapshot manifest {group_manifest!r}"
            )
        with open(group_manifest, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest != entry["manifest_sha256"]:
            raise ConfigurationError(
                f"group snapshot {group_dir!r} does not match the shard "
                "manifest — the directory mixes groups from different "
                "saves, or a group was re-saved without the router"
            )
        sources.append(load_deployment(group_dir))
        if entry.get("retired"):
            retired.append(index)
    return ShardRouter(sources).restore(dict(manifest, retired=retired))


def load_deployment(directory: str) -> DataSource:
    """Restore a full deployment saved by :func:`save_deployment`.

    Raises :class:`ConfigurationError` for anything short of a complete,
    internally consistent snapshot: missing manifest (interrupted save),
    missing files, digest mismatches, or undecodable JSON.
    """
    client_path = os.path.join(directory, "client.json")
    if not os.path.exists(client_path):
        raise ConfigurationError(f"no client snapshot in {directory!r}")
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise ConfigurationError(
            f"no manifest in {directory!r}: the save was interrupted before "
            f"completion, or predates the manifest format — re-save the "
            f"deployment"
        )
    with open(manifest_path, "rb") as handle:
        try:
            manifest = json.loads(handle.read().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"snapshot manifest {manifest_path!r} is not valid JSON: {exc}"
            ) from exc
    if manifest.get("version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot manifest version {manifest.get('version')!r}"
        )
    digests = manifest.get("files", {})
    client_data = _read_snapshot_file(directory, "client.json", digests)
    cluster = ProviderCluster(
        client_data["n_providers"], client_data["threshold"]
    )
    for index in range(client_data["n_providers"]):
        data = _read_snapshot_file(
            directory, f"provider_{index}.json", digests
        )
        cluster.providers[index] = provider_from_dict(data)
    return client_from_dict(client_data, cluster)
