"""The two-column ``Accounts(aid, balance)`` table of the transactional drills.

``balance`` is randomly shared: it is the column the incremental-delta
path exercises, since order-preserving shares are deterministic per value
and cannot be perturbed in place.
"""

from __future__ import annotations

from ..sqlengine.schema import TableSchema, integer_column
from ..sqlengine.table import Table


def accounts_schema() -> TableSchema:
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            integer_column("balance", 0, 1_000_000_000, searchable=False),
        ),
        primary_key="aid",
    )


def accounts_table(rows: int) -> Table:
    """Account ``i`` holds ``1000 + i``, for ``i`` in ``range(rows)``."""
    return Table(
        accounts_schema(),
        [{"aid": i, "balance": 1000 + i} for i in range(rows)],
    )
