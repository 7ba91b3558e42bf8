"""What a read's projection takes off the wire, counted as providers answer.

The two pipeline goldens (``tests/client/test_read_pipeline.py``,
``tests/sharding/test_router_pipeline.py``) hold the records of reads
that fetch only the columns their statement uses in a ``projection``
section, tied to the record before by this count.
"""

from __future__ import annotations

from typing import Set

from repro.sim.network import measure_bytes


class ProjectionWire:
    """Wraps each provider's ``handle`` and counts, for every ``select``
    request that carries a projection:

    * ``gained`` — the request bytes the projection tuple adds where the
      full-row read sends ``None`` (one byte);
    * ``lost`` — the response bytes it leaves out: per row returned, per
      column left out, the column name and its share as the wire sizes
      them (``4 + len(name) + share magnitude bytes``), read from the
      provider's store when it answers;
    * ``rows`` / ``dropped`` — the row ids returned and the columns left
      out, over all such requests.
    """

    def __init__(self, providers) -> None:
        self.gained = 0
        self.lost = 0
        self.rows: Set[int] = set()
        self.dropped: Set[str] = set()
        for provider in providers:
            provider.handle = self._recording(provider, provider.handle)

    def _recording(self, provider, handle):
        def recording(method, request):
            projection = request.get("projection") if method == "select" else None
            if projection is None:
                return handle(method, request)
            self.gained += measure_bytes(projection) - 1
            response = handle(method, request)
            table = provider.store.table(request["table"])
            dropped = [name for name in table.columns if name not in projection]
            row_ids = response["rows"].row_ids
            self.rows.update(row_ids)
            self.dropped.update(dropped)
            for _, shares in table.gather(row_ids, table.slots_for(row_ids), dropped):
                self.lost += sum(
                    measure_bytes(name) + measure_bytes(shares[name]) for name in dropped
                )
            return response

        return recording
