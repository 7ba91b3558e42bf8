"""Merkle commitments over provider share tables (correctness checks).

The client, having computed every share it uploads, maintains per-provider
leaf hashes and the derived Merkle root — O(N) small hashes of client
state, versus the O(N·columns) data it outsourced.  Three checks follow:

* **per-row verification** — recompute the leaf hash of a returned row and
  compare with the stored hash (no extra communication);
* **root audit** — ask a provider for its current root (providers build
  the same canonical tree over their storage) and compare: O(1)
  communication proves the provider's *entire* stored table is exactly
  what the client uploaded;
* **spot proof** — fetch an O(log N) sibling path for one row and check it
  against the client root, without trusting the provider's root claim.

Canonical leaf: SHA-256 over ``table ‖ row_id ‖ sorted(column, share)``
with NULL shares encoded distinctly.  Tree: SHA-256 over child pairs,
odd nodes promoted; empty table has a defined empty-root.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import IntegrityError
from ..providers.storage import ShareRow

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_COLUMN_PREFIX = b"\x02"
EMPTY_ROOT = hashlib.sha256(b"repro.merkle.empty").digest()


def column_hash(column: str, share: Optional[int]) -> bytes:
    """Hash of one column's share (NULL encoded distinctly).

    The two-level leaf structure (column hashes → leaf) lets the client
    auditor track updates that re-share only some columns, and verify
    projected results column-by-column.
    """
    hasher = hashlib.sha256()
    hasher.update(_COLUMN_PREFIX)
    hasher.update(column.encode("utf-8"))
    hasher.update(b"=")
    hasher.update(b"NULL" if share is None else str(share).encode())
    return hasher.digest()


def leaf_hash_from_column_hashes(
    table: str, row_id: int, hashes: Dict[str, bytes]
) -> bytes:
    """Leaf hash from precomputed per-column hashes (sorted by column)."""
    hasher = hashlib.sha256()
    hasher.update(_LEAF_PREFIX)
    hasher.update(table.encode("utf-8"))
    hasher.update(b"|")
    hasher.update(str(row_id).encode())
    for column in sorted(hashes):
        hasher.update(b"|")
        hasher.update(hashes[column])
    return hasher.digest()


def leaf_hash(table: str, row_id: int, values: ShareRow) -> bytes:
    """Canonical hash of one stored row of shares."""
    return leaf_hash_from_column_hashes(
        table,
        row_id,
        {column: column_hash(column, share) for column, share in values.items()},
    )


def _combine(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """A static Merkle tree over an ordered list of leaf hashes."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self.leaves = list(leaves)
        self.levels: List[List[bytes]] = [list(self.leaves)]
        current = self.levels[0]
        while len(current) > 1:
            nxt: List[bytes] = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(_combine(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                nxt.append(current[-1])  # odd node promoted
            self.levels.append(nxt)
            current = nxt

    @property
    def root(self) -> bytes:
        if not self.leaves:
            return EMPTY_ROOT
        return self.levels[-1][0]

    def proof(self, index: int) -> List[Tuple[str, bytes]]:
        """Sibling path for leaf ``index`` as (side, hash) pairs.

        ``side`` is 'L' when the sibling sits to the left of the running
        hash, 'R' when to the right; promoted odd nodes contribute no
        entry at their level.
        """
        if not 0 <= index < len(self.leaves):
            raise IntegrityError(
                f"leaf index {index} outside [0, {len(self.leaves)})"
            )
        path: List[Tuple[str, bytes]] = []
        position = index
        for level in self.levels[:-1]:
            if position % 2 == 0:
                if position + 1 < len(level):
                    path.append(("R", level[position + 1]))
                # else: promoted, no sibling at this level
            else:
                path.append(("L", level[position - 1]))
            position //= 2
        return path


def verify_proof(
    root: bytes, leaf: bytes, path: Sequence[Tuple[str, bytes]]
) -> bool:
    """Check a sibling path from ``leaf`` up to ``root``."""
    current = leaf
    for side, sibling in path:
        if side == "L":
            current = _combine(sibling, current)
        elif side == "R":
            current = _combine(current, sibling)
        else:
            raise IntegrityError(f"bad proof side marker {side!r}")
    return current == root


def tree_for_rows(table: str, rows: Dict[int, ShareRow]) -> MerkleTree:
    """Canonical tree for a share table: leaves in ascending row-id order."""
    return MerkleTree(
        [leaf_hash(table, row_id, rows[row_id]) for row_id in sorted(rows)]
    )


class ShareAuditor:
    """Client-side correctness auditor for one provider's copy of a table.

    The client feeds every upload/update/delete through the auditor (it
    already knows the shares it sends); audits then compare provider state
    against this ground truth.
    """

    def __init__(self, table: str, provider_index: int) -> None:
        self.table = table
        self.provider_index = provider_index
        #: row_id → column → column hash (client-side ground truth)
        self._column_hashes: Dict[int, Dict[str, bytes]] = {}

    # -- maintenance (mirrors client writes) ----------------------------------

    def record_insert(self, row_id: int, values: ShareRow) -> None:
        if row_id in self._column_hashes:
            raise IntegrityError(f"auditor: duplicate row id {row_id}")
        self._column_hashes[row_id] = {
            column: column_hash(column, share)
            for column, share in values.items()
        }

    def record_update(self, row_id: int, assignments: ShareRow) -> None:
        """Update the recorded hashes for the re-shared columns only."""
        row = self._column_hashes.get(row_id)
        if row is None:
            raise IntegrityError(f"auditor: unknown row id {row_id}")
        for column, share in assignments.items():
            if column not in row:
                raise IntegrityError(
                    f"auditor: unknown column {column!r} in row {row_id}"
                )
            row[column] = column_hash(column, share)

    def record_delete(self, row_id: int) -> None:
        if row_id not in self._column_hashes:
            raise IntegrityError(f"auditor: unknown row id {row_id}")
        del self._column_hashes[row_id]

    # -- checks --------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self._column_hashes)

    def __contains__(self, row_id: int) -> bool:
        """Whether the auditor holds ground truth for ``row_id``."""
        return row_id in self._column_hashes

    def _leaf(self, row_id: int) -> bytes:
        return leaf_hash_from_column_hashes(
            self.table, row_id, self._column_hashes[row_id]
        )

    def expected_root(self) -> bytes:
        ordered = [self._leaf(rid) for rid in sorted(self._column_hashes)]
        return MerkleTree(ordered).root

    def leaf_index(self, row_id: int) -> int:
        """Position of a row id in the canonical leaf order."""
        ordered = sorted(self._column_hashes)
        try:
            return ordered.index(row_id)
        except ValueError:
            raise IntegrityError(f"auditor: unknown row id {row_id}") from None

    def verify_row(self, row_id: int, values: ShareRow) -> None:
        """Check a returned (possibly projected) share row column-by-column."""
        expected = self._column_hashes.get(row_id)
        if expected is None:
            raise IntegrityError(
                f"provider {self.provider_index} returned row {row_id} the "
                f"client never stored in {self.table}"
            )
        for column, share in values.items():
            known = expected.get(column)
            if known is None:
                raise IntegrityError(
                    f"provider {self.provider_index} returned unknown column "
                    f"{column!r} for row {row_id} of {self.table}"
                )
            if column_hash(column, share) != known:
                raise IntegrityError(
                    f"provider {self.provider_index} returned a tampered "
                    f"share for {self.table}.{column}, row {row_id}"
                )

    def verify_root(self, claimed_root: bytes) -> None:
        """O(1)-communication full-table audit."""
        if claimed_root != self.expected_root():
            raise IntegrityError(
                f"provider {self.provider_index}'s Merkle root for "
                f"{self.table} does not match the client's — stored shares "
                "were modified"
            )

    def verify_spot_proof(
        self, row_id: int, values: ShareRow, path: Sequence[Tuple[str, bytes]]
    ) -> None:
        """Check a provider-supplied proof against the *client's* root."""
        leaf = leaf_hash(self.table, row_id, values)
        if not verify_proof(self.expected_root(), leaf, path):
            raise IntegrityError(
                f"Merkle proof for row {row_id} of {self.table} from "
                f"provider {self.provider_index} failed verification"
            )
