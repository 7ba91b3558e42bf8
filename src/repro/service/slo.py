"""SLO accounting: latency quantiles, error budget, shed/degrade counts.

The overload layer's contract with operators is a **service-level
report**, not raw counters: for each priority class, what latency did
completed queries see (p50/p99/p999 of *modelled* time), how much work
was shed or served degraded, and how much of the availability error
budget burned.  Everything here is computed from the PR 2 telemetry
registry — the overload runner and the service layer write the
well-known metrics below, and :func:`slo_report` reads them back out.

Metric names (all under the active telemetry hub):

* ``slo.latency{priority=...}`` — histogram of modelled end-to-end
  latency (queue wait + service), observed on :data:`FINE_BUCKETS`
  because the default telemetry buckets are far too coarse for p999;
* ``slo.completed{priority=...}`` / ``slo.failed{priority=...}`` —
  terminal outcomes;
* ``slo.shed{priority=..., reason=...}`` — admission rejections
  (reasons: ``queue_full``, ``timeout``), counted by the
  :class:`~repro.service.admission.AdmissionController` itself;
* ``slo.degraded{priority=...}`` — reads served in degraded mode
  (verified reads transparently downgraded to plain quorum reads);
* ``slo.incorrect{priority=...}`` — answers that failed the oracle
  check (the overload gate requires this to stay zero).

Quantiles are bucket-interpolated: exact enough for gating (the bucket
ladder is geometric with ~19% steps) and dependency-free.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import telemetry
from ..telemetry.metrics import Histogram, MetricsRegistry
from .admission import PRIORITY_NAMES, SHED_METRIC

#: Fine geometric latency buckets (seconds): 100 µs … ~5 min, ×1.25
#: steps.  p999 needs resolution the coarse default ladder cannot give.
FINE_BUCKETS: Tuple[float, ...] = tuple(
    round(0.0001 * 1.25**i, 10) for i in range(64)
)

#: Well-known metric names (shared by the runner, service, and report;
#: ``SHED_METRIC`` lives with the admission controller that emits it).
LATENCY_METRIC = "slo.latency"
COMPLETED_METRIC = "slo.completed"
FAILED_METRIC = "slo.failed"
DEGRADED_METRIC = "slo.degraded"
INCORRECT_METRIC = "slo.incorrect"


def observe_latency(seconds: float, priority_name: str) -> None:
    """Record one completed query's modelled latency for its class.

    Pre-registers the histogram on :data:`FINE_BUCKETS`; the registry
    get-or-creates by (name, labels), so every later observation lands
    in the same fine-bucketed instrument.
    """
    active = telemetry.hub()
    if active is None:
        return
    active.registry.histogram(
        LATENCY_METRIC, buckets=FINE_BUCKETS, priority=priority_name
    ).observe(seconds)


def histogram_quantile(hist: Histogram, quantile: float) -> float:
    """Bucket-interpolated quantile of a telemetry histogram.

    Walks the cumulative counts to the bucket containing the target
    rank and interpolates linearly inside it (lower edge 0 for the
    first bucket).  Observations in the overflow bucket clamp to the
    top bound — a floor, which is the honest direction for an SLO gate.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    if hist.count == 0:
        return 0.0
    target = quantile * hist.count
    cumulative = 0
    lower = 0.0
    for bound, count in zip(hist.bounds, hist.counts):
        if count and cumulative + count >= target:
            fraction = (target - cumulative) / count
            return lower + (bound - lower) * max(0.0, min(1.0, fraction))
        cumulative += count
        lower = bound
    return hist.bounds[-1]  # overflow bucket: clamp to the top bound


def slo_report(
    registry: Optional[MetricsRegistry] = None,
    availability_target: float = 0.999,
) -> Dict[str, object]:
    """The SLO rollup: per-priority latency/outcome stats + error budget.

    ``availability_target`` defines the budget: a target of 99.9% means
    0.1% of offered queries may fail or be shed before the budget is
    exhausted (``budget_consumed`` > 1).  Shed work counts against the
    budget — from the tenant's perspective a rejected query is an
    error, even though shedding it was the right engineering call;
    *degraded* work does not, because the answer was still correct.
    """
    if registry is None:
        active = telemetry.hub()
        if active is None:
            raise ValueError(
                "slo_report needs an explicit registry when telemetry "
                "is disabled"
            )
        registry = active.registry
    if not 0.0 < availability_target < 1.0:
        raise ValueError(
            f"availability_target must be in (0, 1), got "
            f"{availability_target}"
        )
    per_priority: Dict[str, Dict[str, object]] = {}
    offered_total = 0.0
    bad_total = 0.0
    for priority in PRIORITY_NAMES:
        hist = registry.histogram(
            LATENCY_METRIC, buckets=FINE_BUCKETS, priority=priority
        )
        completed = registry.counter_value(COMPLETED_METRIC, priority=priority)
        failed = registry.counter_value(FAILED_METRIC, priority=priority)
        shed_full = registry.counter_value(
            SHED_METRIC, priority=priority, reason="queue_full"
        )
        shed_timeout = registry.counter_value(
            SHED_METRIC, priority=priority, reason="timeout"
        )
        shed = shed_full + shed_timeout
        degraded = registry.counter_value(DEGRADED_METRIC, priority=priority)
        incorrect = registry.counter_value(INCORRECT_METRIC, priority=priority)
        offered = completed + failed + shed
        offered_total += offered
        bad_total += failed + shed
        per_priority[priority] = {
            "offered": int(offered),
            "completed": int(completed),
            "failed": int(failed),
            "shed": int(shed),
            "shed_queue_full": int(shed_full),
            "shed_timeout": int(shed_timeout),
            "degraded": int(degraded),
            "incorrect": int(incorrect),
            "completion_rate": (
                round(completed / offered, 6) if offered else 1.0
            ),
            "latency_modelled_seconds": {
                "mean": round(hist.mean, 6),
                "p50": round(histogram_quantile(hist, 0.50), 6),
                "p99": round(histogram_quantile(hist, 0.99), 6),
                "p999": round(histogram_quantile(hist, 0.999), 6),
                "count": hist.count,
            },
        }
    availability = (
        (offered_total - bad_total) / offered_total if offered_total else 1.0
    )
    budget = 1.0 - availability_target
    return {
        "availability_target": availability_target,
        "availability": round(availability, 6),
        "error_budget": round(budget, 6),
        "budget_consumed": round((1.0 - availability) / budget, 4),
        "offered": int(offered_total),
        "by_priority": per_priority,
    }
