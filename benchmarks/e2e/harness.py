"""Build one workload's deployment, drive it closed-loop, verify, measure.

One client thread, one statement in flight; the only other threads are
the program's own provider pool.  A run is set-up (timed as ``setup_s``)
-> one untimed warm-up pass -> the timed passes over disjoint statement
batches -> verification against the plaintext oracle (untimed).

Two things keep the shared host out of the numbers.  The process is pinned
to one CPU (``pin_to_one_cpu``), because the program's pool threads hold
the GIL in turn anyway and a hand-off across two virtual CPUs costs ~15x
one on the same CPU, whenever the kernel happens to spread the threads.
And every timed stretch carries its own reading of the host's speed
(``HostSpeed``): a fixed chunk of interpreter work is timed between
statements, and each time is reported as it would read on a host that
runs the chunk in ``REFERENCE_CHUNK_S``.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import telemetry
from repro.core import kernels
from repro.providers.cluster import CLIENT_NAME
from repro.sim.network import measure_bytes

import layers
import oracle
from oracle import Failure
from workloads import N_ROWS, Deployment, Workload


#: statement time (set-up time) between two calibration chunks
CALIBRATE_EVERY_S = 0.03
#: what one chunk takes on the sandbox the first baseline was measured on,
#: at its usual speed; the unit of every reported time is a second of
#: *that* host, so the constant scales all of them alike and cancels in
#: every comparison
REFERENCE_CHUNK_S = 0.0005


def pin_to_one_cpu() -> Optional[int]:
    """Confine this process (and the threads it starts later) to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    # the highest-numbered one: the first usually serves the interrupts
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _chunk() -> int:
    """Fixed interpreter work: integer arithmetic, dict stores and probes.

    Its working set is a 256-entry dict, so what the program left in the
    caches does not change how long it takes: the yardstick must not bend
    with the thing it measures.
    """
    table: Dict[int, int] = {}
    total = 0
    for i in range(4000):
        table[i & 255] = total
        total += (table.get((i * 7) & 255, 0) + i * i) % 13
    return total


class HostSpeed:
    """Timings of the calibration chunk taken beside one timed stretch."""

    def __init__(self) -> None:
        self.chunks_s: List[float] = []
        self.cpu_s = 0.0

    def sample(self) -> None:
        cpu_start = time.process_time()
        start = time.perf_counter()
        _chunk()
        self.chunks_s.append(time.perf_counter() - start)
        self.cpu_s += time.process_time() - cpu_start

    @property
    def wall_s(self) -> float:
        return sum(self.chunks_s)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample from a side thread while one long call runs (the set-up).

        A chunk is shorter than the interpreter's switch interval, so it
        keeps the GIL from its first clock reading to its last.
        """
        stop = threading.Event()

        def sample_until_stopped() -> None:
            self.sample()  # at least one, however short the call
            while not stop.wait(CALIBRATE_EVERY_S):
                self.sample()

        thread = threading.Thread(target=sample_until_stopped, name="e2e-host-speed")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference host the chunk ran.

        The mean (a stretch's wall time is a sum, so a slow spell must count
        here by its length too), with each chunk capped at twice the median
        one: the chunks are ~2% of the stretch, so a scheduler stall that
        lands on one says nothing about the other 98%.
        """
        cap = 2 * statistics.median(self.chunks_s)
        capped = [min(chunk, cap) for chunk in self.chunks_s]
        return sum(capped) / len(capped) / REFERENCE_CHUNK_S


@dataclass
class Pass:
    """One timed pass; ``wall_s``/``cpu_s``/``latencies_s`` are as measured."""

    wall_s: float
    cpu_s: float
    rows: int
    latencies_s: List[float]
    classes: List[str]
    #: ``HostSpeed.slowdown`` over this pass; measured time / this = reference time
    slowdown: float = 1.0
    #: shard groups that exchanged a message, summed over statements (traced sharded runs)
    groups_touched: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


@dataclass
class Measurement:
    #: set-up wall seconds as measured, and the host's slowdown around them
    setup_s: float
    setup_slowdown: float
    passes: List[Pass]
    #: deltas of the program's always-on counters over the timed passes
    counters: Dict[str, float]
    attempted: int
    raised: int
    verified: int
    differing: int
    problems: List[str]
    peak_rss_mb: float
    #: share of the machine's CPU time the hypervisor stole during the timed passes
    host_steal_share: float = 0.0
    #: wire size of the plaintext rows ``bulk_load`` wrote
    user_bytes: int = 0
    #: ``layers.analyse`` of the traced passes, traced runs only
    trace: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def error_rate(self) -> float:
        """Statements that raised / attempted + results that differ / verified."""
        return self.raised / self.attempted + self.differing / max(self.verified, 1)

    @property
    def ops(self) -> int:
        return sum(p.ops for p in self.passes)

    @property
    def groups_touched(self) -> int:
        return sum(p.groups_touched for p in self.passes)

    @property
    def rows(self) -> int:
        return sum(p.rows for p in self.passes)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes)

    @property
    def slowdown(self) -> float:
        """The host's slowdown over the timed passes, weighted by their time."""
        return self.wall_s / sum(p.ref_wall_s for p in self.passes)


def read_counters(deployment: Deployment) -> Dict[str, float]:
    """Flat snapshot of every public counter a metric is derived from."""
    out: Dict[str, float] = {"net.modelled_s": deployment.modelled_seconds()}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for source in deployment.sources:
        cluster = source.cluster
        stats = cluster.network.stats
        add("net.bytes", stats.bytes_sent)
        add("net.messages", stats.messages_sent)
        add("net.bytes_up", stats.bytes_from(CLIENT_NAME))
        add("net.bytes_down", stats.bytes_to(CLIENT_NAME))
        add("client.interpolate", source.cost.count("interpolate"))
        for name, value in source.row_cache.stats.snapshot().items():
            add(f"rowcache.{name}", value)
        for provider in cluster.providers:
            add("provider.rpcs", provider.requests_served)
            add("provider.compare", provider.cost.count("compare"))
    for name, value in kernels.kernel_stats().snapshot().items():
        out[f"kernels.{name}"] = value
    if deployment.manager is not None:
        stats = deployment.manager.stats()
        for name in ("logged", "committed", "wal_appends", "wal_fsyncs", "wal_bytes"):
            out[f"txn.{name}"] = stats[name]
        out["txn.groups_flushed"] = stats["group_commit"]["groups_flushed"]
        out["txn.txns_flushed"] = stats["group_commit"]["txns_flushed"]
    return out


def host_jiffies() -> Optional[List[int]]:
    """``[stolen, total]`` CPU jiffies of the whole machine, or None off Linux.

    Steal is time the hypervisor ran someone else; a run with a visible
    share of it measured the host, not the program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return [fields[7], sum(fields)] if len(fields) == 8 else None


def check_accounting(deployment: Deployment) -> List[str]:
    """Per-link ``NetworkStats`` must add up to the totals they break down."""
    problems = []
    for source in deployment.sources:
        stats = source.cluster.network.stats
        links = stats.by_link.values()
        if sum(link.payload_bytes for link in links) != stats.bytes_sent:
            problems.append("per-link bytes do not sum to network.total_bytes")
        if sum(link.messages for link in links) != stats.messages_sent:
            problems.append("per-link messages do not sum to network.total_messages")
    return problems


def _result_rows(result: object) -> int:
    """Rows returned (a scalar aggregate is one) or written by a statement."""
    if isinstance(result, Failure):
        return 0
    if isinstance(result, list):
        return len(result)
    return 1


def run_pass(deployment: Deployment, ops, first_index: int, tracer: Optional[layers.Tracer],
             executed: list) -> Pass:
    execute = deployment.execute
    networks = (
        [source.cluster.network for source in deployment.sources]
        if tracer is not None and deployment.router is not None else None
    )
    touched = 0
    latencies: List[float] = []
    results: List[object] = []
    clock = time.perf_counter
    host = HostSpeed()
    uncalibrated = CALIBRATE_EVERY_S  # so the pass opens with a chunk
    gc.collect()
    cpu_start = time.process_time()
    pass_start = clock()
    for index, op in enumerate(ops, first_index):
        if uncalibrated >= CALIBRATE_EVERY_S:
            host.sample()
            uncalibrated = 0.0
        if tracer is not None:
            tracer.statement = index
            if networks:
                before = [network.total_messages for network in networks]
        sql = op.sql
        start = clock()
        try:
            result = execute(sql)
        except Exception as exc:  # a failed statement is a counted error, not a crash
            result = Failure(exc)
        latency = clock() - start
        latencies.append(latency)
        uncalibrated += latency
        results.append(result)
        if networks:
            touched += sum(
                1 for network, count in zip(networks, before) if network.total_messages != count
            )
    host.sample()
    wall = clock() - pass_start - host.wall_s
    cpu = time.process_time() - cpu_start - host.cpu_s
    executed.extend(zip(ops, results))
    return Pass(wall, cpu, sum(_result_rows(r) for r in results), latencies,
                [op.cls for op in ops], host.slowdown, touched)


def run_once(
    workload: Workload, seed: int, seconds: float, out_dir: str,
    n_rows: int = N_ROWS, timed_passes: Optional[int] = None, traced: bool = False,
    corrupt_oracle: bool = False,
) -> Measurement:
    """One full run of one workload on a fresh deployment."""
    if telemetry.is_enabled():
        raise RuntimeError("repro.telemetry must be off while the benchmark runs")
    # process-global weight caches: every run starts from the same state
    kernels.clear_kernel_caches()
    gc.collect()

    # the set-up is a few long calls, so a side thread reads the host's speed
    host = HostSpeed()
    start = time.perf_counter()
    with host.sampling():
        tables = workload.tables(n_rows, seed)
    tables_s = time.perf_counter() - start
    timed_passes = timed_passes or workload.timed_passes
    batches = workload.batches(
        tables, random.Random(seed),
        workload.statements_per_pass(seconds, n_rows, timed_passes), timed_passes,
    )
    start = time.perf_counter()
    with host.sampling():
        deployment = workload.deploy(tables, seed, out_dir)
    setup_s = tables_s + (time.perf_counter() - start) - host.wall_s

    tracer = layers.Tracer() if traced else None
    executed: list = []
    try:
        run_pass(deployment, batches[0], 0, None, executed)  # warm-up, untimed
        before = read_counters(deployment)
        jiffies_before = host_jiffies()
        if tracer is not None:
            tracer.install()
        elif layers.wrappers_installed():
            raise RuntimeError("a timing wrapper is installed during an untraced run")
        try:
            passes = []
            for batch in batches[1:]:
                passes.append(run_pass(deployment, batch, len(executed), tracer, executed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = read_counters(deployment)
        jiffies_after = host_jiffies()
        counters = {name: after[name] - before[name] for name in after}

        def read_back(table: str) -> List[dict]:
            reader = deployment.router or deployment.sources[0]
            return reader.sql(f"SELECT * FROM {table}")

        problems = [
            f"{op.describe()}: {result!r}" for op, result in executed
            if isinstance(result, Failure)
        ]
        raised = len(problems)
        verified, mismatches = oracle.verify(
            workload, tables, executed, read_back, seed, corrupt=corrupt_oracle
        )
        problems += mismatches + check_accounting(deployment)
    finally:
        deployment.close()

    measurement = Measurement(
        setup_s=setup_s, setup_slowdown=host.slowdown, passes=passes,
        counters=counters, attempted=len(executed), raised=raised, verified=verified,
        differing=len(mismatches), problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        user_bytes=sum(
            measure_bytes(row)
            for batch in batches[1:] for op in batch if not isinstance(op.sql, str)
            for row in op.sql[1]
        ),
    )
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        measurement.host_steal_share = (
            (jiffies_after[0] - jiffies_before[0]) / (jiffies_after[1] - jiffies_before[1])
        )
    if tracer is not None:
        measurement.trace = layers.analyse(tracer.span_records(), tracer.accum)
        measurement.trace["dispatch"] = list(tracer.dispatch)
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"{workload.name}.spans.jsonl"))
    return measurement
