"""Concurrent query service layer (sessions, admission, batching).

The paper frames database-as-a-service as one organisation's *many*
clients querying shared providers; this package supplies the service
front end the single-client :class:`~repro.client.datasource.DataSource`
lacks: per-client sessions, bounded admission with backpressure and a
degradation ladder, and cross-query share-RPC batching — a
:class:`FanoutBatcher` the provider cluster's one wave routes threshold
reads through (DESIGN.md §8) — plus the one simulation runner
(:mod:`repro.service.overload`) that drives those same admission and
ladder objects in virtual time, open or closed loop (DESIGN.md §13), and
the :class:`ShardRouter`, the one front end of a sharded deployment
(DESIGN.md §11).
"""

from ..errors import ServiceError, ServiceOverloadedError
from .admission import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    PRIORITY_NAMES,
    AdmissionController,
    priority_level,
    priority_name,
)
from .overload import (
    PlaintextMirror,
    estimate_capacity,
    run_closed_loop,
    run_open_loop,
)
from .scheduler import FanoutBatcher
from .service import DegradationLadder, QueryService, ServiceStats, TableLock
from .session import Session, SessionManager, SessionStats
from .slo import FINE_BUCKETS, histogram_quantile, observe_latency, slo_report
from .sharding import (
    HashShardMap,
    RangeShardMap,
    ShardGroup,
    ShardRouter,
    rebalance_plan,
    shard_map_from_dict,
)

__all__ = [
    "AdmissionController",
    "DegradationLadder",
    "FINE_BUCKETS",
    "FanoutBatcher",
    "HashShardMap",
    "PRIORITY_BACKGROUND",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NAMES",
    "PlaintextMirror",
    "QueryService",
    "RangeShardMap",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStats",
    "Session",
    "SessionManager",
    "SessionStats",
    "ShardGroup",
    "ShardRouter",
    "TableLock",
    "estimate_capacity",
    "histogram_quantile",
    "observe_latency",
    "priority_level",
    "priority_name",
    "rebalance_plan",
    "run_closed_loop",
    "run_open_loop",
    "shard_map_from_dict",
    "slo_report",
]
