"""Hot-path kernel benchmark: split / reconstruct / select throughput.

Measures the batched share-arithmetic kernels of
:mod:`repro.core.kernels` against the naive per-value reference paths
they replaced:

* **split** — sharing M values: per-value Horner evaluation of a fresh
  random polynomial vs. column-major Horner over the batch's coefficient
  columns (:meth:`ShamirScheme.split_columns`).
* **reconstruct** — a 10k-row × 4-column result set: per-cell
  :func:`lagrange_constant_term` (rebuilds the Lagrange basis and pays a
  modular inversion per cell) vs. column-major
  :func:`repro.core.kernels.batch_reconstruct` with cached weights.
* **op_reconstruct** — the same for order-preserving columns (every
  column of ``Employees``): per-cell ``Fraction`` interpolation
  (:func:`interpolate_integer_constant`) vs. the exact-integer
  :func:`repro.core.kernels.batch_reconstruct_integer`.
* **share_rows** — the load path's client half: validate + encode + share
  200-row ``Employees`` / ``Managers`` batches column-major
  (:meth:`TableSharing.share_rows`) vs. one ``validate_row`` and one
  ``share_value`` per cell, same shares and same RNG stream.
* **response_path** — what one 400-row ``Employees`` read costs between
  the provider's column arrays and the client's plaintext rows, three
  responders: provider gather, ``measure_bytes``, ``reconstruct_rows`` —
  the column-major ``ShareRows`` carrier against the parent's row-major
  ``[(row_id, {column: share})]`` lists (numbers frozen at the parent).
* **select** — an end-to-end ``SELECT`` through the provider cluster,
  reporting the modelled ``first_k`` fan-out latency (k-th fastest round
  trip) against the sum of the same messages' transfer times — what the
  read would cost if nothing overlapped.

Results are written to ``BENCH_hotpath.json`` at the repo root so later
PRs can track the perf trajectory.  Run modes::

    python benchmarks/bench_hotpath.py           # full sizes + JSON
    python benchmarks/bench_hotpath.py --check   # tiny smoke: batch == naive

The ``--check`` mode is also exercised by the tier-1 suite
(``tests/integration/test_hotpath_bench.py``), so CI validates the
kernels' bit-exactness without paying full benchmark cost.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry
from repro.core import kernels
from repro.core.order_preserving import IntegerDomain, OrderPreservingScheme
from repro.core.polynomial import (
    interpolate_integer_constant,
    lagrange_constant_term,
    random_field_polynomial,
)
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.core.shamir import ShamirScheme
from repro.providers.cluster import ProviderCluster
from repro.client.datasource import DataSource
from repro.client.reconstruct import reconstruct_rows
from repro.sim.costmodel import CostRecorder
from repro.sim import wire
from repro.sim.network import measure_bytes
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.query import Select
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.workloads.employees import employees_table, managers_table

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_hotpath.json"


# ---------------------------------------------------------------------------
# naive reference paths (kept here so the baseline survives the refactor)
# ---------------------------------------------------------------------------


def naive_split_batch(scheme: ShamirScheme, values, rng) -> list:
    """Pre-kernel split: fresh polynomial + Horner per value."""
    out = []
    for value in values:
        poly = random_field_polynomial(
            scheme.field, value, scheme.threshold - 1, rng
        )
        out.append(poly.evaluate_many(scheme.secrets.evaluation_points))
    return out


def naive_reconstruct_cells(scheme: ShamirScheme, cells) -> list:
    """Pre-kernel reconstruction: full Lagrange basis rebuild per cell.

    ``cells`` holds (provider_index → share) maps; this is what
    ``ShamirScheme.reconstruct`` did before the weight cache.
    """
    out = []
    for shares in cells:
        chosen = sorted(shares.items())[: scheme.threshold]
        points = [(scheme.secrets.point_for(i), v) for i, v in chosen]
        out.append(lagrange_constant_term(scheme.field, points))
    return out


def kernel_reconstruct_cells(scheme: ShamirScheme, cells) -> list:
    return scheme.reconstruct_batch(cells)


# ---------------------------------------------------------------------------
# measurement harness
# ---------------------------------------------------------------------------


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def bench_split(n_values: int, n_providers: int = 5, threshold: int = 3):
    secrets = generate_client_secrets(n_providers, seed=SEED)
    scheme = ShamirScheme(secrets, threshold)
    values = [
        DeterministicRNG(SEED, "values").field_element(scheme.field.modulus)
        for _ in range(n_values)
    ]
    # identical RNG streams so both paths share the exact polynomials
    baseline, base_s = _timed(
        naive_split_batch, scheme, values, DeterministicRNG(SEED, "split")
    )
    kernel, kern_s = _timed(
        scheme.split_columns, values, DeterministicRNG(SEED, "split")
    )
    assert kernel == [list(shares) for shares in zip(*baseline)], (
        "split kernel diverged from the naive path"
    )
    return {
        "values": n_values,
        "n": n_providers,
        "k": threshold,
        "baseline_seconds": round(base_s, 6),
        "kernel_seconds": round(kern_s, 6),
        "baseline_values_per_s": round(n_values / base_s, 1),
        "kernel_values_per_s": round(n_values / kern_s, 1),
        "speedup": round(base_s / kern_s, 2),
    }


def _timed_backend(backend, fn, *args):
    """Time ``fn`` under a forced kernel backend, restoring auto after."""
    previous = kernels.set_kernel_backend(backend)
    try:
        return _timed(fn, *args)
    finally:
        kernels.set_kernel_backend(previous)


def bench_reconstruct(
    n_rows: int,
    n_columns: int = 4,
    n_providers: int = 5,
    threshold: int = 3,
    n_queries: int = 8,
):
    """Column-major reconstruction: naive vs scalar kernel vs numpy kernel.

    The result set is swept as ``n_queries`` successive query-sized
    batches (how a real workload arrives), so the weight cache is
    *re-exercised*: the first batch builds the table (one miss), every
    later batch hits it — the reported hit-rate is meaningful instead of
    the degenerate one-shot ``hits: 0, misses: 1``.
    """
    secrets = generate_client_secrets(n_providers, seed=SEED)
    scheme = ShamirScheme(secrets, threshold)
    rng = DeterministicRNG(SEED, "recon")
    n_cells = n_rows * n_columns
    values = [rng.field_element(scheme.field.modulus) for _ in range(n_cells)]
    share_rows = list(zip(*scheme.split_columns(values, rng)))
    # quorum responses: the first k providers answered, as in a real read
    cells = [
        {i: shares[i] for i in range(threshold)} for shares in share_rows
    ]
    # the kernel path is driven column-major, exactly as
    # ``TableSharing.reconstruct_rows`` drives it for a real result set:
    # aligned share vectors against one frozen quorum's points
    xs = [scheme.secrets.point_for(i) for i in range(threshold)]
    vectors = [
        [shares[i] for i in range(threshold)] for shares in share_rows
    ]
    step = max(1, n_cells // n_queries)
    queries = [
        vectors[start:start + step] for start in range(0, n_cells, step)
    ]

    def sweep():
        out = []
        for chunk in queries:
            out.extend(kernels.batch_reconstruct(scheme.field, xs, chunk))
        return out

    baseline, base_s = _timed(naive_reconstruct_cells, scheme, cells)
    kernels.clear_kernel_caches()
    scalar, scalar_s = _timed_backend("scalar", sweep)
    assert baseline == values and scalar == values, "reconstruction mismatch"
    report = {
        "rows": n_rows,
        "columns": n_columns,
        "cells": n_cells,
        "n": n_providers,
        "k": threshold,
        "queries_in_sweep": len(queries),
        "baseline_seconds": round(base_s, 6),
        "scalar_kernel_seconds": round(scalar_s, 6),
        "baseline_cells_per_s": round(n_cells / base_s, 1),
        "scalar_kernel_cells_per_s": round(n_cells / scalar_s, 1),
        "scalar_speedup": round(base_s / scalar_s, 2),
        # canonical fields: the active backend's numbers (overwritten by
        # the numpy pass below when available)
        "kernel_seconds": round(scalar_s, 6),
        "kernel_cells_per_s": round(n_cells / scalar_s, 1),
        "speedup": round(base_s / scalar_s, 2),
        "backend": "scalar",
    }
    if "numpy" in kernels.available_backends():
        kernels.clear_kernel_caches()
        vector, vector_s = _timed_backend("numpy", sweep)
        assert vector == values, "vectorized reconstruction mismatch"
        assert vector == scalar, "scalar and numpy backends diverged"
        vstats = kernels.kernel_stats()
        assert vstats.vector_reconstruct_cells >= n_cells, (
            "numpy backend never engaged during the vectorized sweep"
        )
        report.update(
            numpy_kernel_seconds=round(vector_s, 6),
            numpy_kernel_cells_per_s=round(n_cells / vector_s, 1),
            numpy_speedup=round(base_s / vector_s, 2),
            kernel_seconds=round(vector_s, 6),
            kernel_cells_per_s=round(n_cells / vector_s, 1),
            speedup=round(base_s / vector_s, 2),
            backend="numpy",
        )
    stats = kernels.kernel_stats()
    lookups = stats.weight_hits + stats.weight_misses
    report["weight_cache"] = {
        "misses": stats.weight_misses,
        "hits": stats.weight_hits,
        "hit_rate": round(stats.weight_hits / lookups, 4) if lookups else 0.0,
    }
    return report


def bench_op_reconstruct(
    n_cells: int, n_providers: int = 5, threshold: int = 3, n_queries: int = 8
):
    """Order-preserving cells: per-cell ``Fraction`` vs the integer kernel.

    Shares come from a real :class:`OrderPreservingScheme` over the
    salary domain, so they have the width (~100 bits at k=3) the read
    path sees; like :func:`bench_reconstruct` the column arrives as
    ``n_queries`` query-sized batches.
    """
    secrets = generate_client_secrets(n_providers, seed=SEED)
    scheme = OrderPreservingScheme(
        secrets, IntegerDomain(0, 1_000_000), threshold=threshold, label="bench"
    )
    rng = DeterministicRNG(SEED, "op-recon")
    values = [rng.randint(0, 1_000_000) for _ in range(n_cells)]
    xs = [secrets.point_for(i) for i in range(threshold)]
    vectors = list(zip(*scheme.split_columns(values)[:threshold]))
    step = max(1, n_cells // n_queries)
    # the kernel takes one share column per point, as the read path has them
    queries = [
        list(zip(*vectors[start:start + step]))
        for start in range(0, n_cells, step)
    ]

    def per_cell():
        return [
            interpolate_integer_constant(list(zip(xs, ys))) for ys in vectors
        ]

    def sweep():
        out = []
        for chunk in queries:
            out.extend(kernels.batch_reconstruct_integer(xs, chunk))
        return out

    baseline, base_s = _timed(per_cell)
    kernels.clear_kernel_caches()
    kernel, kern_s = _timed(sweep)
    assert kernel == baseline == values, "integer kernel diverged from Fraction"
    stats = kernels.kernel_stats()
    return {
        "cells": n_cells,
        "n": n_providers,
        "k": threshold,
        "share_bits": max(y.bit_length() for ys in vectors for y in ys),
        "queries_in_sweep": len(queries),
        "baseline_seconds": round(base_s, 6),
        "kernel_seconds": round(kern_s, 6),
        "baseline_cells_per_s": round(n_cells / base_s, 1),
        "kernel_cells_per_s": round(n_cells / kern_s, 1),
        "speedup": round(base_s / kern_s, 2),
        "weight_cache": {
            "misses": stats.rational_misses,
            "hits": stats.rational_hits,
        },
    }


def bench_share_rows(
    n_rows: int, batch_rows: int = 200, n_providers: int = 5, threshold: int = 3
):
    """The load path's client half, per table of the e2e ``bulk_load``.

    ``Employees`` is all order-preserving (three of its five columns
    repeat values inside a batch, which ``share_rows`` shares once);
    ``Managers`` has a randomly-shared ``password`` (never memoised).  The
    baseline is the per-value path — ``validate_row`` then one
    ``share_value`` per cell, rows then columns — on a twin sharing with
    the same seed, so the outputs must be equal share for share.
    """
    employees = employees_table(n_rows, seed=SEED)
    managers = managers_table(employees, 0.5, seed=SEED)
    secrets = generate_client_secrets(n_providers, seed=SEED)

    def twin(schema):
        return TableSharing(schema, secrets, threshold, DeterministicRNG(SEED))

    def per_cell(sharing, rows):
        names = sharing.schema.column_names
        out = [[] for _ in range(n_providers)]
        for row in rows:
            row = sharing.schema.validate_row(row)
            shares = [sharing.share_value(name, row[name]) for name in names]
            for i, share_rows in enumerate(out):
                share_rows.append({name: cell[i] for name, cell in zip(names, shares)})
        return out

    def batched(sharing, rows):
        batches = [rows[start:start + batch_rows] for start in range(0, len(rows), batch_rows)]
        return [sharing.share_rows(batch, range(len(batch))) for batch in batches]

    report = {"batch_rows": batch_rows, "n": n_providers, "k": threshold}
    for table in (employees, managers):
        rows = table.rows()
        baseline, base_s = _timed(per_cell, twin(table.schema), rows)
        batches, batch_s = _timed(batched, twin(table.schema), rows)
        # each provider's ShareRows read back as share rows, untimed
        shared = [
            [values for batch in batches for _, values in batch[i]]
            for i in range(n_providers)
        ]
        assert shared == baseline, "share_rows diverged from share_value per cell"
        report[table.schema.name] = {
            "rows": len(rows),
            "cells": len(rows) * len(table.schema.columns),
            "per_cell_ms_per_row": round(base_s / len(rows) * 1e3, 5),
            "share_rows_ms_per_row": round(batch_s / len(rows) * 1e3, 5),
            "speedup": round(base_s / batch_s, 2),
        }
    return report


#: The parent's row-major response path — ``[(row_id, {column: share})]``
#: built by the ``exec``-compiled materializer, sized cell by cell, re-keyed
#: into a dict of dicts by ``align_by_row_id`` — as this function measured it
#: at ``40a2669`` (the old code is not kept): median ms per stage, and what
#: :func:`_host_reference_ms` read in the same run, which scales the frozen
#: numbers to the host a later run happens on.
ROW_MAJOR_PARENT = {
    "commit": "40a2669",
    "gather_ms": 0.4509,
    "measure_bytes_ms": 2.2012,
    "reconstruct_rows_ms": 3.1374,
    "host_reference_ms": 0.6006,
}

#: ``--check`` bar on the whole path (bench-smoke only; measured ~1.8x)
RESPONSE_PATH_GATE = 1.3


def _host_reference_ms() -> float:
    """A fixed chunk of the work the response path is made of (big-int
    multiply-adds, one small dict per element), best of five."""
    shares = [(1 << 100) + i for i in range(4_000)]

    def chunk():
        total = 0
        for share in shares:
            total += 3 * share
        return [{"a": share, "b": total} for share in shares]

    return min(_timed(chunk)[1] for _ in range(5)) * 1e3


def bench_response_path(
    n_rows: int = 400, n_providers: int = 5, threshold: int = 3, repeats: int = 25
):
    """One read's response path, stage by stage, on real shares.

    ``scan`` is the provider's result assembly with no matching in
    front of it; the first k providers answer, as in a quorum read.
    Stages are timed separately (median of ``repeats``), GC left on: the
    per-row temporaries a carrier makes are part of what it costs.
    """
    cluster = ProviderCluster(n_providers, threshold)
    source = DataSource(cluster, seed=SEED)
    table = employees_table(n_rows, seed=SEED)
    source.outsource_table(table)
    sharing = source.sharing("Employees")
    name = source.physical_name("Employees")
    providers = cluster.providers[:threshold]
    request = {"table": name, "projection": None}

    def gather():
        return {
            index: provider.handle("scan", request)
            for index, provider in enumerate(providers)
        }

    def measure(responses):
        return [measure_bytes(response) for response in responses.values()]

    def reconstruct(responses):
        return reconstruct_rows(sharing, responses, cost=CostRecorder("bench"))

    stages = {"gather_ms": [], "measure_bytes_ms": [], "reconstruct_rows_ms": []}
    for _ in range(repeats):
        responses, seconds = _timed(gather)
        stages["gather_ms"].append(seconds)
        sizes, seconds = _timed(measure, responses)
        stages["measure_bytes_ms"].append(seconds)
        pairs, seconds = _timed(reconstruct, responses)
        stages["reconstruct_rows_ms"].append(seconds)
    assert [row for _, row in pairs] == table.rows(), "response path lost rows"
    encoded = [len(wire.encode(response)) for response in responses.values()]
    assert sizes == encoded, "ShareRows sized unlike its encoding"
    measured = {
        stage: round(statistics.median(times) * 1e3, 4)
        for stage, times in stages.items()
    }
    measured["host_reference_ms"] = round(_host_reference_ms(), 4)
    host = measured["host_reference_ms"] / ROW_MAJOR_PARENT["host_reference_ms"]
    total = sum(measured[stage] for stage in stages)
    parent_total = sum(ROW_MAJOR_PARENT[stage] for stage in stages)
    return {
        "rows": n_rows,
        "columns": len(sharing.schema.columns),
        "responders": threshold,
        "bytes_per_response": sizes[0],
        "row_major_parent": dict(ROW_MAJOR_PARENT, total_ms=round(parent_total, 4)),
        "share_rows": dict(measured, total_ms=round(total, 4)),
        "host_vs_parent_run": round(host, 3),
        "speedup": round(parent_total * host / total, 2),
    }


def bench_select(n_rows: int, n_providers: int = 5, threshold: int = 3):
    """End-to-end SELECT: modelled ``first_k`` latency vs sum of round trips.

    The run happens under an enabled telemetry session timed by the sim's
    modelled clock; the export is embedded in the report and its per-link
    byte counters are asserted to match the network's own accounting.
    """
    query = Select(
        table="Employees",
        where=Comparison("salary", ComparisonOp.GE, 20_000),
    )
    cluster = ProviderCluster(n_providers, threshold)
    source = DataSource(cluster, seed=SEED)
    source.outsource_table(employees_table(n_rows, seed=SEED))
    network = cluster.network
    network.reset()
    with telemetry.session(
        clock=lambda net=network: net.modelled_seconds
    ) as hub:
        rows, wall = _timed(source.select, query)
        export = hub.export()
        assert hub.registry.counter_total("net.bytes") == (
            network.total_bytes
        ), "telemetry byte counters diverged from network accounting"
        assert hub.registry.counter_total("net.messages") == (
            network.total_messages
        ), "telemetry message counters diverged from network accounting"
    modelled = network.modelled_seconds
    # the no-overlap baseline, from the network's own counters: every
    # message's one-way transfer time (LatencyModel.transfer_seconds)
    # summed, i.e. what clocking each send individually would have cost
    latency = network.latency
    sum_of_round_trips = (
        network.total_messages * latency.rtt_seconds / 2
        + network.total_bytes * 8 / latency.bandwidth_bits_per_second
    )
    # cached re-read: an identical SELECT in the same epoch must be
    # served wholly from the row cache — zero provider RPCs, zero bytes
    served_before = sum(p.requests_served for p in cluster.providers)
    bytes_before = network.total_bytes
    reread, reread_wall = _timed(source.select, query)
    rpcs_skipped = sum(
        p.requests_served for p in cluster.providers
    ) - served_before
    assert reread == rows, "cached re-read returned different rows"
    assert rpcs_skipped == 0, (
        f"cached re-read still issued {rpcs_skipped} provider RPCs"
    )
    assert network.total_bytes == bytes_before, (
        "cached re-read moved bytes over the network"
    )
    return {
        "rows_returned": len(rows),
        "wall_seconds": round(wall, 6),
        "rows_per_s": round(len(rows) / wall, 1) if rows else 0.0,
        "modelled_network_seconds": round(modelled, 6),
        "sum_of_round_trips_seconds": round(sum_of_round_trips, 6),
        "modelled_latency_speedup": round(sum_of_round_trips / modelled, 2),
        "network_bytes": network.total_bytes,
        "cached_reread": {
            "wall_seconds": round(reread_wall, 6),
            "provider_rpcs": rpcs_skipped,
            "network_bytes": 0,
            "speedup_vs_first_read": round(wall / reread_wall, 2)
            if reread_wall
            else None,
            "rowcache": source.row_cache.stats.snapshot(),
        },
        "telemetry": export,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_check(response_path_gate: bool = True) -> None:
    """Tiny smoke mode: assert kernels are bit-identical to naive paths.

    Covers several (n, k) shapes including over-determined quorums;
    reconstruction runs under *every* available backend (splitting has
    one implementation); raises AssertionError on any divergence.
    With numpy installed it also gates the vectorized batch-reconstruct
    speedup at ≥10× over the naive scalar baseline; on every backend it
    gates the exact-integer order-preserving kernel at ≥5× over per-cell
    ``Fraction`` interpolation.  The response path is checked for byte
    parity and exact rows everywhere; its wall-clock bar against the
    parent's frozen numbers is for the CI ``bench-smoke`` job — the tier-1
    suite passes ``response_path_gate=False``.
    """
    backends = kernels.available_backends()
    for n, k in ((3, 2), (5, 3), (7, 5), (4, 4)):
        secrets = generate_client_secrets(n, seed=SEED + n + k)
        scheme = ShamirScheme(secrets, k)
        rng_values = DeterministicRNG(SEED, f"check/{n}/{k}")
        values = [
            rng_values.field_element(scheme.field.modulus) for _ in range(40)
        ]
        baseline = naive_split_batch(
            scheme, values, DeterministicRNG(SEED, "chk")
        )
        columns = scheme.split_columns(values, DeterministicRNG(SEED, "chk"))
        assert columns == [list(shares) for shares in zip(*baseline)], (
            f"split mismatch at (n={n}, k={k})"
        )
        # over-determined: all n shares supplied, only k used
        cells = [dict(enumerate(shares)) for shares in baseline]
        assert naive_reconstruct_cells(scheme, cells) == values
        for backend in backends:
            previous = kernels.set_kernel_backend(backend)
            try:
                reconstructed = kernel_reconstruct_cells(scheme, cells)
            finally:
                kernels.set_kernel_backend(previous)
            assert reconstructed == values, (
                f"reconstruct mismatch at (n={n}, k={k}) backend={backend}"
            )
    if "numpy" in backends:
        gate = bench_reconstruct(2_500, n_columns=4, n_queries=4)
        assert gate["numpy_speedup"] >= 10.0, (
            "vectorized batch-reconstruct regressed below the 10x gate: "
            f"{gate['numpy_speedup']}x over the naive scalar baseline"
        )
        print(
            "bench_hotpath --check: numpy batch-reconstruct speedup "
            f"{gate['numpy_speedup']}x (gate: >=10x)"
        )
    else:
        print(
            "bench_hotpath --check: numpy not installed; speedup gate "
            "skipped (scalar oracle only)"
        )
    op_gate = bench_op_reconstruct(4_000, n_queries=4)
    assert op_gate["speedup"] >= 5.0, (
        "exact-integer order-preserving reconstruct regressed below the 5x "
        f"gate: {op_gate['speedup']}x over per-cell Fraction interpolation"
    )
    print(
        "bench_hotpath --check: integer order-preserving reconstruct "
        f"speedup {op_gate['speedup']}x (gate: >=5x)"
    )
    bench_share_rows(60, batch_rows=25)  # asserts share_rows == per cell
    path = bench_response_path()  # asserts byte parity and exact rows
    enforced = "gate" if response_path_gate else "not enforced"
    print(
        f"bench_hotpath --check: response path {path['speedup']}x the "
        f"row-major parent ({enforced}: >={RESPONSE_PATH_GATE}x)"
    )
    if response_path_gate:
        assert path["speedup"] >= RESPONSE_PATH_GATE, (
            "the column-major response path regressed below the "
            f"{RESPONSE_PATH_GATE}x gate: {path}"
        )
    bench_select(40, n_providers=4, threshold=3)


def run_full(args) -> dict:
    report = {
        "seed": SEED,
        "split": bench_split(args.values),
        "reconstruct": bench_reconstruct(args.rows, args.columns),
        "op_reconstruct": bench_op_reconstruct(args.rows * args.columns),
        "share_rows": bench_share_rows(args.rows),
        "response_path": bench_response_path(),
        "select": bench_select(args.select_rows),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="tiny smoke mode: assert batch == naive, no timing/JSON",
    )
    parser.add_argument(
        "--skip-response-path-gate",
        action="store_true",
        help="with --check: measure the response path against the parent's "
             "frozen numbers but do not enforce the wall-clock bar (tier-1)",
    )
    parser.add_argument("--values", type=int, default=10_000,
                        help="values to split (default 10000)")
    parser.add_argument("--rows", type=int, default=10_000,
                        help="result-set rows to reconstruct (default 10000)")
    parser.add_argument("--columns", type=int, default=4,
                        help="result-set columns (default 4)")
    parser.add_argument("--select-rows", type=int, default=2_000,
                        help="table size for the end-to-end select (default 2000)")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.check:
        run_check(response_path_gate=not args.skip_response_path_gate)
        print("bench_hotpath --check: kernels bit-identical to naive paths")
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
