"""The row-major list a ``ShareRows`` stands for, as a byte count.

A ``ShareRows`` of n ≥ 1 rows and C columns whose names take L bytes is
(n − 1)(8 + 2C + L) + 4 bytes smaller on the wire than the row-major
list ``[(row_id, {column: share}), ...]`` it stands for: each row after
the first does not repeat its tuple and dict headers and every column
name, and the response's own list header is the row count.

The pipeline tests hold every scenario to that formula: run with each
``ShareRows`` sized as the row-major list (:func:`sized_row_major`), a
scenario gives its golden record with more bytes — exactly the formula's
surplus over the share rows it sent — and a slower modelled clock, and
nothing else different (:func:`assert_moved_by_surplus`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.sim import network
from tests.golden import moved_fields


def row_major_surplus(rows: network.ShareRows) -> int:
    """Bytes the row-major list takes over ``rows`` on the wire."""
    if not len(rows):
        return 0
    names = sum(len(name.encode("utf-8")) for name in rows.columns)
    return (len(rows) - 1) * (8 + 2 * len(rows.columns) + names) + 4


@contextmanager
def sized_row_major() -> Iterator[Dict[str, int]]:
    """Size every ``ShareRows`` as the row-major list it stands for, the
    list measured as it is.  Yields the :func:`row_major_surplus` formula
    summed over those share rows since the networks' counters were last
    reset: ``sent`` all of it, ``counted`` what had been sent when a byte
    count was last read (a record's ``bytes``; a scenario may send more
    after its record)."""
    column_major = network.ShareRows.wire_size
    reset = network.SimulatedNetwork.reset
    total_bytes = network.SimulatedNetwork.total_bytes
    surplus = {"sent": 0, "counted": 0}

    def row_major(rows):
        surplus["sent"] += row_major_surplus(rows)
        return network.measure_bytes(list(rows))

    def resetting(net):
        surplus.update(sent=0, counted=0)
        reset(net)

    def counting(net):
        surplus["counted"] = surplus["sent"]
        return total_bytes.fget(net)

    network.ShareRows.wire_size = row_major
    network.SimulatedNetwork.reset = resetting
    network.SimulatedNetwork.total_bytes = property(counting)
    try:
        yield surplus
    finally:
        network.ShareRows.wire_size = column_major
        network.SimulatedNetwork.reset = reset
        network.SimulatedNetwork.total_bytes = total_bytes


def assert_moved_by_surplus(record, row_major, surplus: int) -> None:
    """``row_major`` is ``record`` with ``bytes`` higher by ``surplus`` in
    all and some ``modelled_seconds`` higher, and nothing else different —
    nothing at all when no share row travelled."""
    moved = moved_fields(record, row_major)
    assert bool(moved) == bool(surplus), (surplus, moved)
    added = 0
    for path, now, was in moved:
        # the field's name: a per-group list's items sit under it
        field = [part for part in path.split("/") if not part.isdigit()][-1]
        assert field in ("bytes", "modelled_seconds"), (path, now, was)
        assert now < was, (path, now, was)
        if field == "bytes":
            added += was - now
    assert added == surplus
