"""Derive the named metrics from raw measurements.

End-to-end metrics come from an untraced run.  Per-layer *times* come from
the traced run's spans; per-layer *counts* come from the program's
always-on public counters in the untraced run (and must equal the traced
run's, which ``count_mismatches`` checks).

Every time reported here is in reference-host seconds: the measured time
divided by the host's slowdown over the same stretch (``harness.HostSpeed``).
The diagnostics carry the measured throughput and the slowdown beside them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

from harness import Measurement
from layers import LAYERS

Metric = Tuple[float, str]

#: statement classes the mixed workloads report on
CLASSES = ("read", "write", "sum", "avg", "count", "group_by", "topk", "join", "scan", "point")

#: layers whose self time is reported; ``providers.provider`` reports busy time
SELF_TIME_LAYERS = tuple(layer for layer in LAYERS if layer != "providers.provider")


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(m: Measurement) -> Dict[str, Metric]:
    """The gated end-to-end metrics of one untraced run."""
    return {
        "setup_s": (m.setup_s / m.setup_slowdown, "s"),
        "ops_per_s": (statistics.median(p.ops / p.ref_wall_s for p in m.passes), "1/s"),
        "rows_per_s": (statistics.median(p.rows / p.ref_wall_s for p in m.passes), "1/s"),
        "cpu_ms_per_op": (statistics.median(p.ref_cpu_s / p.ops for p in m.passes) * 1e3, "ms"),
        "net_bytes_per_op": (m.counters["net.bytes"] / m.ops, "bytes"),
        "modelled_ms_per_op": (m.counters["net.modelled_s"] / m.ops * 1e3, "ms"),
        "success_rate": (1.0 - m.error_rate, "ratio"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def diagnostics(m: Measurement) -> Dict[str, Metric]:
    """Printed beside the end-to-end metrics, never gated."""
    pooled = sorted(latency / p.slowdown for p in m.passes for latency in p.latencies_s)
    return {
        "error_rate": (m.error_rate, "ratio"),
        "measured_ops_per_s": (statistics.median(p.ops / p.wall_s for p in m.passes), "1/s"),
        "measured_setup_s": (m.setup_s, "s"),
        "host_slowdown": (m.slowdown, "ratio"),
        "host_slowdown_setup": (m.setup_slowdown, "ratio"),
        "p50_ms": (percentile(pooled, 0.50) * 1e3, "ms"),
        "p90_ms": (percentile(pooled, 0.90) * 1e3, "ms"),
        "p99_ms": (percentile(pooled, 0.99) * 1e3, "ms"),
        "max_ms": (pooled[-1] * 1e3, "ms"),
        "latency_samples": (float(len(pooled)), "count"),
        "statements_per_pass": (float(m.passes[0].ops), "count"),
        "rows_returned": (float(m.rows), "count"),
        "statements_verified": (float(m.verified), "count"),
        "host_steal_share": (m.host_steal_share, "ratio"),
    }


def per_pass(m: Measurement) -> Dict[str, List[float]]:
    """Each timed pass's own reading, so ``compare.py`` can see the spread."""
    return {
        "ops_per_s": [p.ops / p.ref_wall_s for p in m.passes],
        "rows_per_s": [p.rows / p.ref_wall_s for p in m.passes],
        "cpu_ms_per_op": [p.ref_cpu_s / p.ops * 1e3 for p in m.passes],
    }


def kernel_cells(m: Measurement) -> float:
    """Cells the reconstruction kernels decoded during the timed passes."""
    c = m.counters
    return (
        c["kernels.vector_reconstruct_cells"] + c["kernels.scalar_reconstruct_cells"]
        # one rational-weight lookup per order-preserving cell decoded
        + c["kernels.rational_hits"] + c["kernels.rational_misses"]
    )


def counts(m: Measurement) -> Dict[str, Metric]:
    """Per-layer count metrics from the always-on counters of one run."""
    c, ops = m.counters, m.ops
    writes = c.get("txn.logged", 0)
    weight_hits = c["kernels.weight_hits"] + c["kernels.rational_hits"]
    weight_lookups = weight_hits + c["kernels.weight_misses"] + c["kernels.rational_misses"]
    row_lookups = c["rowcache.row_hits"] + c["rowcache.row_misses"]
    query_lookups = c["rowcache.query_hits"] + c["rowcache.query_misses"]
    return {
        "providers.cluster.rpcs_per_op": (c["provider.rpcs"] / ops, "count"),
        "client.reconstruct.cells_per_op": (c["client.interpolate"] / ops, "count"),
        "core.kernels.vectorized_cell_share": (
            _ratio(c["kernels.vector_reconstruct_cells"], kernel_cells(m)), "ratio"),
        "core.kernels.weight_cache_hit_ratio": (_ratio(weight_hits, weight_lookups), "ratio"),
        "sim.network.bytes_up_per_op": (c["net.bytes_up"] / ops, "bytes"),
        "sim.network.bytes_down_per_op": (c["net.bytes_down"] / ops, "bytes"),
        "sim.network.messages_per_op": (c["net.messages"] / ops, "count"),
        "sim.network.upload_bytes_per_user_byte": (
            _ratio(c["net.bytes_up"], m.user_bytes), "ratio"),
        "providers.provider.compares_per_row_returned": (
            _ratio(c["provider.compare"], m.rows), "count"),
        "client.rowcache.query_hit_ratio": (
            _ratio(c["rowcache.query_hits"], query_lookups), "ratio"),
        "client.rowcache.row_hit_ratio": (_ratio(c["rowcache.row_hits"], row_lookups), "ratio"),
        "client.rowcache.invalidated_per_write": (
            _ratio(c["rowcache.invalidated"], writes), "count"),
        "txn.wal.bytes_per_write": (_ratio(c.get("txn.wal_bytes", 0), writes), "bytes"),
        "txn.wal.fsyncs_per_write": (_ratio(c.get("txn.wal_fsyncs", 0), writes), "count"),
        "txn.groupcommit.mean_group": (
            _ratio(c.get("txn.txns_flushed", 0), c.get("txn.groups_flushed", 0)), "count"),
    }


def class_metrics(m: Measurement) -> Dict[str, Metric]:
    by_class: Dict[str, List[float]] = {}
    for p in m.passes:
        for cls, latency in zip(p.classes, p.latencies_s):
            by_class.setdefault(cls, []).append(latency / p.slowdown)
    total = sum(sum(values) for values in by_class.values())
    out: Dict[str, Metric] = {}
    for cls in CLASSES:
        values = sorted(by_class.get(cls, ()))
        out[f"class.{cls}.p50_ms"] = (percentile(values, 0.5) * 1e3 if values else 0.0, "ms")
        out[f"class.{cls}.share_of_wall"] = (_ratio(sum(values), total), "ratio")
    return out


def per_layer(untraced: Measurement, traced: Measurement) -> Dict[str, Metric]:
    """Every per-layer metric: times from ``traced``, counts from ``untraced``."""
    trace, ops = traced.trace, traced.ops
    # the spans are totals over the traced passes, so is the slowdown
    ref_ms_per_op = 1e3 / traced.slowdown / ops
    out: Dict[str, Metric] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ms_per_op"] = (trace["self_s"].get(layer, 0.0) * ref_ms_per_op, "ms")
    out["providers.provider.busy_ms_per_op"] = (
        trace["busy_s"].get("providers.provider", 0.0) * ref_ms_per_op, "ms")
    out.update(counts(untraced))
    out["core.kernels.cells_per_busy_s"] = (
        _ratio(kernel_cells(untraced),
               trace["busy_s"].get("core.kernels", 0.0) / traced.slowdown), "1/s")
    dispatch = trace["dispatch"]
    out["providers.provider.vectorized_rpc_share"] = (
        _ratio(sum(dispatch), len(dispatch)), "ratio")
    share_busy_s, shared_rows = trace["detail"].get("core.scheme#share_row", (0.0, 0))
    out["core.scheme.share_ms_per_row"] = (
        _ratio(share_busy_s, shared_rows) / traced.slowdown * 1e3, "ms")
    out["service.sharding.groups_touched_per_op"] = (traced.groups_touched / ops, "count")
    out.update(class_metrics(untraced))
    # pass by pass: the two runs of one seed execute the same statements
    out["trace.overhead_ratio"] = (
        statistics.median(
            t.ref_wall_s / u.ref_wall_s for t, u in zip(traced.passes, untraced.passes)
        ), "ratio")
    out["trace.coverage"] = (trace["root_s"] / traced.wall_s, "ratio")
    return out


def wall_shares(traced: Measurement) -> Dict[str, float]:
    """Each layer's share of the root spans' wall time (sums to 1)."""
    trace = traced.trace
    return {
        layer: _ratio(seconds, trace["root_s"])
        for layer, seconds in sorted(trace["wall_s"].items(), key=lambda kv: -kv[1])
    }


def count_mismatches(untraced: Measurement, traced: Measurement) -> List[str]:
    """Counts that differ between the untraced and the traced run of one seed."""
    problems = []
    for name in sorted(set(untraced.counters) | set(traced.counters)):
        a, b = untraced.counters.get(name), traced.counters.get(name)
        if a != b:
            problems.append(f"counter {name}: untraced {a!r} != traced {b!r}")
    for label, a, b in (
        ("statements", untraced.ops, traced.ops),
        ("rows returned", untraced.rows, traced.rows),
        ("statements verified", untraced.verified, traced.verified),
    ):
        if a != b:
            problems.append(f"{label}: untraced {a} != traced {b}")
    return problems
