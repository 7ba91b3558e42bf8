"""The row-major list a ``ShareRows`` stands for, as a byte count.

A ``ShareRows`` of n ≥ 1 rows and C columns whose names take L bytes is
(n − 1)(8 + 2C + L) + 4 bytes smaller on the wire than the row-major
list ``[(row_id, {column: share}), ...]`` it stands for: each row after
the first does not repeat its tuple and dict headers and every column
name, and the response's own list header is the row count.

Each pipeline module's ``test_column_major_moves_by_the_declared_formula``
holds its scenarios to that formula off the one run each makes
(``tests.pipeline_runs``), with no re-run (:func:`assert_saves_the_formula`):
every ``ShareRows`` its recorded calls carry is that much smaller than
the list, measured as it is.  Sized row-major, a message would grow by
the surplus of the share rows it holds (:func:`share_rows`) and nothing
else, since a message is sized as the sum of its parts; and since only
accounting reads what the network sized, only bytes and the modelled
clock would move (``tests/ci/test_wire_contract.py`` holds that a round
never waits less for a bigger message).
"""

from __future__ import annotations

from typing import Iterator

from repro.providers.health import COOLDOWN_SECONDS
from repro.sim import network

#: What may read a byte counter or a modelled clock, besides a scenario's
#: own module building its record: the fan-out, which charges each round
#: its bytes and legs, and the health tracker, whose quarantine lasts
#: ``COOLDOWN_SECONDS`` of the clock.
ACCOUNTING = {"repro.providers.cluster:wave"}
QUARANTINE = {"repro.providers.health:quarantine", "repro.providers.health:is_quarantined"}


def row_major_surplus(rows: network.ShareRows) -> int:
    """Bytes the row-major list takes over ``rows`` on the wire."""
    if not len(rows):
        return 0
    names = sum(len(name.encode("utf-8")) for name in rows.columns)
    return (len(rows) - 1) * (8 + 2 * len(rows.columns) + names) + 4


def share_rows(value) -> Iterator[network.ShareRows]:
    """Every ``ShareRows`` in ``value`` — share rows, a dict, list or
    tuple — however deep (``batch`` riders, ``txn_apply`` ops, a join's
    two sides)."""
    if isinstance(value, network.ShareRows):
        yield value
        return
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (network.ShareRows, dict, list, tuple)):
            yield from share_rows(item)


def assert_saves_the_formula(module: str, run) -> None:
    """Test module ``module``'s scenario ``run`` (a ``pipeline_runs.Run``)
    sized row-major would move its bytes by exactly its share rows'
    surplus and nothing but bytes and clocks: every ``ShareRows`` its calls
    carry is :func:`row_major_surplus` smaller than its list, only accounting,
    the quarantine and ``module`` read a byte counter or a clock, and no
    quarantine could expire — the peak clock plus every surplus at the
    bandwidth stays under ``COOLDOWN_SECONDS``."""
    strays = {
        reader for reader in run.readers - ACCOUNTING - QUARANTINE
        if not reader.startswith(f"{module}:")
    }
    assert not strays, f"read what sizing moves: {strays}"
    assert run.peak_clock + run.surplus_seconds < COOLDOWN_SECONDS
    for group in run.calls:
        for _, _, request, response in group:
            for rows in share_rows([request, response]):
                surplus = network.measure_bytes(list(rows)) - rows.wire_size()
                assert surplus == row_major_surplus(rows), rows
