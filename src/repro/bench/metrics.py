"""Capture of per-query cost measurements across systems.

A :class:`Measurement` freezes the four axes of the paper's evaluation
question (Sec. V-A future work): client computation, provider/server
computation, communication volume, and modelled end-to-end seconds
(computation via the cost model + transfer via the latency model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..client.datasource import DataSource
from ..sim.costmodel import CostModel


@dataclass
class Measurement:
    """One (system, query) cost snapshot."""

    system: str
    query: str
    result_rows: Optional[int]
    messages: int
    bytes_transferred: int
    client_ops: Dict[str, int]
    server_ops: Dict[str, int]
    network_seconds: float
    cost_model: CostModel = field(default_factory=CostModel)

    def client_seconds(self) -> float:
        return sum(
            self.cost_model.seconds_for(op, count)
            for op, count in self.client_ops.items()
        )

    def server_seconds(self) -> float:
        return sum(
            self.cost_model.seconds_for(op, count)
            for op, count in self.server_ops.items()
        )

    def modelled_seconds(self) -> float:
        """Computation (both sides) plus transfer time."""
        return self.client_seconds() + self.server_seconds() + self.network_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "system": self.system,
            "rows": self.result_rows if self.result_rows is not None else "-",
            "msgs": self.messages,
            "KB": round(self.bytes_transferred / 1024, 2),
            "client ops": sum(self.client_ops.values()),
            "server ops": sum(self.server_ops.values()),
            "model sec": round(self.modelled_seconds(), 4),
        }


def measure_share_query(
    source: DataSource, query, system: str = "secret-sharing"
) -> Measurement:
    """Run a query through the share cluster and capture its costs.

    The client's row cache and the providers' aggregate caches are
    cleared first, so the measurement prices the statement's provider
    work, whatever ran on ``source`` before.
    """
    source.reset_accounting()
    source.row_cache.clear()
    clear_aggregate_caches(source.cluster)
    result = source.execute(query)
    network = source.cluster.network
    return Measurement(
        system=system,
        query=repr(query),
        result_rows=len(result) if isinstance(result, list) else None,
        messages=network.total_messages,
        bytes_transferred=network.total_bytes,
        client_ops=source.cost.snapshot(),
        server_ops=source.cluster.total_provider_cost().snapshot(),
        network_seconds=network.modelled_seconds,
    )


def clear_aggregate_caches(cluster) -> None:
    """Drop every provider table's materialized aggregates."""
    for provider in cluster.providers:
        for name in provider.store.table_names():
            provider.store.table(name).clear_aggregate_cache()


def measure_encrypted_query(client, query, system: str) -> Measurement:
    """Run a query through an encryption-model client and capture costs."""
    client.reset_accounting()
    if hasattr(query, "left_table"):
        result = client.join(query)
    else:
        result = client.select(query)
    network = client.network
    return Measurement(
        system=system,
        query=repr(query),
        result_rows=len(result) if isinstance(result, list) else None,
        messages=network.total_messages,
        bytes_transferred=network.total_bytes,
        client_ops=client.cost.snapshot(),
        server_ops=client.server.cost.snapshot(),
        network_seconds=network.modelled_seconds,
    )
