"""One current record per scenario: load, compare and re-base a golden.

A golden file is flat JSON: ``{id: record}``, one record per scenario or
case the module runs and nothing else.  A test compares the record a
scenario gives now with the committed one through :func:`assert_record`,
which names every field that moved.  A change that moves numbers on
purpose re-bases the file in place (each golden module's ``__main__``
calls :func:`rebase`) and puts the printout — every field that moved
against the committed file — in ``CHANGES.md``; git holds the file
before.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, Iterable, List, Tuple


@functools.lru_cache(maxsize=None)
def load(path: str) -> Dict[str, object]:
    """The golden at ``path``, parsed once per session; read it, never
    change it."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def plain(record):
    """``record`` as the golden file holds it (tuples become lists)."""
    return json.loads(json.dumps(record))


def moved_fields(before, after, path: str = "") -> List[Tuple[str, object, object]]:
    """``(path, before, after)`` of every leaf where two records differ."""
    if isinstance(before, dict) and isinstance(after, dict) and before.keys() == after.keys():
        return [
            moved for key in before
            for moved in moved_fields(before[key], after[key], f"{path}/{key}")
        ]
    if isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        return [
            moved for at, pair in enumerate(zip(before, after))
            for moved in moved_fields(*pair, f"{path}/{at}")
        ]
    return [] if before == after else [(path or "/", before, after)]


def _listed(moved: Iterable[Tuple[str, object, object]]) -> str:
    return "\n".join(f"  {path}: {was!r} -> {now!r}" for path, was, now in moved)


def assert_record(golden: Dict[str, object], record_id: str, record) -> None:
    """``record`` equals the golden's record for ``record_id``."""
    moved = moved_fields(golden[record_id], plain(record))
    assert not moved, f"{record_id} moved off its golden record:\n{_listed(moved)}"


def assert_flat(golden: Dict[str, object], ids: Iterable[str]) -> None:
    """The golden holds one record per id the module runs, and nothing
    else — no section, no record of a scenario that is gone."""
    ids = set(ids)
    assert set(golden) == ids, (
        f"missing: {sorted(ids - set(golden))}; not run: {sorted(set(golden) - ids)}"
    )


def rebase(path: str, records: Dict[str, object]) -> None:
    """Write ``records`` as the golden at ``path`` and print every field
    that moved against the file it replaces."""
    records = plain(records)
    before = load.__wrapped__(path) if os.path.exists(path) else {}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    moved = 0
    for record_id in sorted(set(before) | set(records)):
        if record_id not in before:
            print(f"{record_id}: added")
        elif record_id not in records:
            print(f"{record_id}: removed")
        else:
            fields = moved_fields(before[record_id], records[record_id])
            if not fields:
                continue
            print(f"{record_id}:\n{_listed(fields)}")
        moved += 1
    print(f"{os.path.basename(path)}: {len(records)} records, {moved} added, removed or moved")
