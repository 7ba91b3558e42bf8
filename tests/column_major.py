"""What share rows going column-major took off the wire, as a formula.

A ``ShareRows`` of n ≥ 1 rows and C columns whose names take L bytes is
(n − 1)(8 + 2C + L) + 4 bytes smaller on the wire than the row-major
list ``[(row_id, {column: share}), ...]`` it stands for, which every
byte count was sized as before: each row after the first no longer
repeats its tuple and dict headers and every column name, and the
response's own list header became the row count.  The pipeline goldens
hold the records that moved in a ``column_major`` section, tied to the
record before by :func:`sized_row_major`: the scenario re-run with the
surplus added back to every ``ShareRows`` must give that record exactly.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim import network


def row_major_surplus(rows: network.ShareRows) -> int:
    """Bytes the row-major list takes over ``rows`` on the wire."""
    if not len(rows):
        return 0
    names = sum(len(name.encode("utf-8")) for name in rows.columns)
    return (len(rows) - 1) * (8 + 2 * len(rows.columns) + names) + 4


@contextmanager
def sized_row_major():
    """Size every ``ShareRows`` as the row-major list it stands for: its
    column-major size plus :func:`row_major_surplus`."""
    column_major = network.ShareRows.wire_size
    network.ShareRows.wire_size = lambda rows: column_major(rows) + row_major_surplus(rows)
    try:
        yield
    finally:
        network.ShareRows.wire_size = column_major


def moved_fields(before, after, path: str = ""):
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
    return [] if before == after else [(path, before, after)]


def assert_only_bytes_and_clock_fell(before, after) -> None:
    """``after`` is ``before`` with some ``bytes`` and ``modelled_seconds``
    lower, and nothing else different."""
    moved = moved_fields(before, after)
    assert moved, "a record in the column_major section that did not move"
    for path, was, now in moved:
        # the field's name: a per-group list's items sit under it
        field = [part for part in path.split("/") if not part.isdigit()][-1]
        assert field in ("bytes", "modelled_seconds"), (path, was, now)
        assert now < was, (path, was, now)
