"""What a read's projection takes off the wire, counted as providers answer.

The two pipeline goldens (``tests/client/test_read_pipeline.py``,
``tests/sharding/test_router_pipeline.py``) hold the records of reads
that fetch only the columns their statement uses in a ``projection``
section, tied to the record before by this count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set

from repro.sim.network import measure_bytes


class ProjectionWire:
    """Wraps each provider's ``handle`` and counts, for every ``select``
    request that carries a projection and every side of a ``join``
    request that carries one (``left_projection`` / ``right_projection``):

    * ``gained`` — the request bytes the projection adds: a ``select``
      sends its tuple where the full-row read sends ``None`` (one byte),
      a join side sends its field, which the full-row join leaves out;
    * ``lost`` — the response bytes it leaves out: per row returned, per
      column left out, the column name and its share as the wire sizes
      them (``4 + len(name) + share magnitude bytes``), read from the
      provider's store when it answers;
    * ``rows`` / ``dropped`` — per table, the row ids returned and the
      columns left out, over all such requests; ``cells`` — the dropped
      cells of those rows, which the client no longer interpolates.
    """

    def __init__(self, providers) -> None:
        self.gained = 0
        self.lost = 0
        self.rows: Dict[str, Set[int]] = defaultdict(set)
        self.dropped: Dict[str, Set[str]] = defaultdict(set)
        for provider in providers:
            provider.handle = self._recording(provider, provider.handle)

    @property
    def cells(self) -> int:
        return sum(len(self.rows[table]) * len(self.dropped[table]) for table in self.rows)

    def _recording(self, provider, handle):
        def recording(method, request):
            if method == "select":
                # (table, field, response rows, the bytes the field replaces):
                # the tuple replaces the full-row read's ``None``
                sides = [(request["table"], "projection", "rows", 1)]
            elif method == "join":
                # a full-row join leaves the field out
                sides = [
                    (request[side], f"{side}_projection", side, -measure_bytes(f"{side}_projection"))
                    for side in ("left", "right")
                ]
            else:
                sides = []
            sides = [side for side in sides if request.get(side[1]) is not None]
            for _, field, _, replaced in sides:
                # a request goes on the wire even to a provider that is down
                self.gained += measure_bytes(request[field]) - replaced
            response = handle(method, request)
            for name, field, rows, _ in sides:
                self._count_lost(provider.store.table(name), name, request[field], response[rows])
            return response

        return recording

    def _count_lost(self, table, name: str, projection, rows) -> None:
        dropped = [column for column in table.columns if column not in projection]
        self.rows[name].update(rows.row_ids)
        self.dropped[name].update(dropped)
        for _, shares in table.gather(rows.row_ids, table.slots_for(rows.row_ids), dropped):
            self.lost += sum(
                measure_bytes(column) + measure_bytes(shares[column]) for column in dropped
            )
