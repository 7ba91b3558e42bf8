"""Command-line interface for the secret-sharing DBaaS.

Four subcommands::

    python -m repro.cli demo  [--rows N] [--providers N] [--threshold K]
        outsource a payroll workload and run a short guided tour

    python -m repro.cli sql   [--workload employees|ecommerce] [--rows N]
                              [--snapshot DIR] [--save DIR] [-e SQL ...]
        an interactive SQL shell over an outsourced workload (or a saved
        deployment); meta-commands: \\explain <sql>, \\stats, \\tables,
        \\save <dir>, \\quit

    python -m repro.cli trace [--json] [--analyze] [--snapshot DIR] [--output FILE] SQL
        run one statement with telemetry enabled and print the span tree
        plus metric counters (timed by the simulated network's modelled
        clock, so output is byte-for-byte reproducible per seed); bad
        snapshot or output paths exit non-zero with a one-line error

    python -m repro.cli serve-sim [--clients N] [--statements N] ...
        run a deterministic multi-client workload through the service's
        admission queue and degradation ladder in virtual time (closed
        loop, or --open-loop at a multiple of capacity) and print the
        SLO report with modelled and wall clocks side by side

    python -m repro.cli figure1
        print the paper's Figure 1 share table and its reconstruction

All state is in-process (providers are simulated); ``--save``/
``--snapshot`` round-trip deployments through repro.persistence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import __version__, telemetry
from .bench.reporting import format_table
from .client.datasource import DataSource
from .core.kernels import active_backend, kernel_stats, reset_kernel_stats
from .errors import ReproError
from .persistence import load_deployment, save_deployment
from .providers.cluster import ProviderCluster
from .txn.manager import KILL_PHASES
from .workloads.ecommerce import clicklog_table
from .workloads.employees import employees_table, managers_table

META_PREFIX = "\\"


def build_source(
    workload: str,
    rows: int,
    providers: int,
    threshold: int,
    seed: int,
) -> DataSource:
    """Assemble a cluster and outsource the chosen workload."""
    cluster = ProviderCluster(providers, threshold)
    source = DataSource(cluster, seed=seed)
    if workload == "employees":
        employees = employees_table(rows, seed=seed)
        source.outsource_table(employees)
        source.outsource_table(managers_table(employees, 0.1, seed=seed))
    elif workload == "ecommerce":
        source.outsource_table(clicklog_table(rows, seed=seed))
    else:
        raise ReproError(f"unknown workload {workload!r}")
    return source


def render_result(result) -> str:
    """Human-readable rendering of any query result."""
    if isinstance(result, list):
        if not result:
            return "(0 rows)"
        return format_table(result) + f"\n({len(result)} rows)"
    return str(result)


def execute_line(source: DataSource, line: str, out) -> bool:
    """Run one shell line; returns False when the session should end."""
    line = line.strip()
    if not line:
        return True
    if line.startswith(META_PREFIX):
        return _meta_command(source, line[1:], out)
    try:
        print(render_result(source.sql(line)), file=out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
    return True


def _meta_command(source: DataSource, command: str, out) -> bool:
    parts = command.split(None, 1)
    verb = parts[0].lower() if parts else ""
    argument = parts[1] if len(parts) > 1 else ""
    if verb in ("quit", "q", "exit"):
        return False
    if verb == "tables":
        for name in source.table_names():
            columns = ", ".join(
                f"{c.name}{'' if c.searchable else ' (random)'}"
                for c in source.sharing(name).schema.columns
            )
            print(f"  {name}: {columns}", file=out)
        return True
    if verb == "stats":
        network = source.cluster.network
        print(
            f"  providers: {source.cluster.n_providers} "
            f"(threshold {source.threshold}); "
            f"messages: {network.total_messages}; "
            f"bytes: {network.total_bytes:,}; "
            f"client ops: {source.cost.snapshot()}",
            file=out,
        )
        return True
    if verb == "explain":
        if not argument:
            print("usage: \\explain <sql>", file=out)
            return True
        try:
            plan = source.explain(argument)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return True
        for key, value in plan.items():
            print(f"  {key}: {value}", file=out)
        return True
    if verb == "save":
        if not argument:
            print("usage: \\save <directory>", file=out)
            return True
        paths = save_deployment(source, argument)
        print(f"  saved {len(paths)} snapshot files to {argument}", file=out)
        return True
    print(
        "meta-commands: \\tables \\stats \\explain <sql> \\save <dir> \\quit",
        file=out,
    )
    return True


def cmd_demo(args, out) -> int:
    source = build_source(
        "employees", args.rows, args.providers, args.threshold, args.seed
    )
    print(
        f"outsourced Employees({args.rows}) + Managers to "
        f"{args.providers} providers (threshold {args.threshold})\n",
        file=out,
    )
    tour = [
        "SELECT COUNT(*) FROM Employees",
        "SELECT name, salary FROM Employees "
        "WHERE salary BETWEEN 40000 AND 60000 ORDER BY salary DESC LIMIT 5",
        "SELECT department, AVG(salary) FROM Employees GROUP BY department",
        "SELECT MEDIAN(salary) FROM Employees",
    ]
    for sql in tour:
        print(f"> {sql}", file=out)
        execute_line(source, sql, out)
        print(file=out)
    execute_line(source, "\\stats", out)
    return 0


def cmd_sql(args, out, input_lines: Optional[Sequence[str]] = None) -> int:
    if args.snapshot:
        source = load_deployment(args.snapshot)
        print(f"loaded deployment from {args.snapshot}", file=out)
    else:
        source = build_source(
            args.workload, args.rows, args.providers, args.threshold, args.seed
        )
        print(
            f"outsourced {args.workload} workload "
            f"({args.rows} rows, {args.providers} providers)",
            file=out,
        )
    if args.execute:
        for statement in args.execute:
            print(f"> {statement}", file=out)
            execute_line(source, statement, out)
    else:
        lines = input_lines if input_lines is not None else _stdin_lines()
        for line in lines:
            if not execute_line(source, line, out):
                break
    if args.save:
        save_deployment(source, args.save)
        print(f"saved deployment to {args.save}", file=out)
    return 0


def _stdin_lines():
    while True:
        try:
            yield input("repro> ")
        except EOFError:
            return


def format_span(span: telemetry.Span, depth: int = 0) -> List[str]:
    """Indented one-line-per-span rendering of a trace tree."""
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
    line = f"{'  ' * depth}{span.name} [{span.start:.6f}s → {span.end:.6f}s]"
    if attrs:
        line += f"  {attrs}"
    lines = [line]
    for child in span.children:
        lines.extend(format_span(child, depth + 1))
    return lines


def format_stages(root: telemetry.Span) -> List[str]:
    """One line per span name: calls, wall ms (total and self) and
    modelled ms."""
    lines = [f"{'stage':<34}{'calls':>6}{'wall ms':>11}{'self ms':>11}{'modelled ms':>13}"]
    for name, stage in telemetry.stage_times(root).items():
        lines.append(
            f"{name:<34}{stage.calls:>6}{stage.wall * 1e3:>11.3f}"
            f"{stage.self_wall * 1e3:>11.3f}{stage.modelled * 1e3:>13.3f}"
        )
    return lines


def cmd_trace(args, out) -> int:
    if args.snapshot:
        source = load_deployment(args.snapshot)
    else:
        source = build_source(
            args.workload, args.rows, args.providers, args.threshold, args.seed
        )
    network = source.cluster.network
    # drop outsourcing traffic and clock so the trace covers only the query
    network.reset()
    reset_kernel_stats()
    with telemetry.session(clock=lambda: network.modelled_seconds):
        hub = telemetry.hub()
        result = source.sql(args.sql)
        trace = hub.tracer.last_trace()
        export = hub.export()
    export["kernels"] = kernel_stats().snapshot()
    export["kernel_backend"] = active_backend()
    export["network"] = {
        "messages": network.total_messages,
        "bytes": network.total_bytes,
        "modelled_seconds": network.modelled_seconds,
    }
    if trace is None:
        # nothing was recorded (e.g. tracing disabled by configuration):
        # an empty trace is a failed trace, not a silent success
        print(
            "error: no trace was recorded for this statement; "
            "the telemetry session produced no spans",
            file=out,
        )
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(export, handle, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write trace export: {exc}", file=out)
            return 1
        print(f"wrote trace export to {args.output}", file=out)
        return 0
    if args.json:
        json.dump(export, out, indent=2, sort_keys=True)
        print(file=out)
        return 0
    print(render_result(result), file=out)
    print(file=out)
    print("trace (modelled clock):", file=out)
    for line in format_span(trace):
        print(f"  {line}", file=out)
    if args.analyze:
        print("\nstages (wall clock beside modelled):", file=out)
        for line in format_stages(trace):
            print(f"  {line}", file=out)
    print(f"\nkernel backend: {export['kernel_backend']}", file=out)
    counters = export["metrics"]["counters"]
    if counters:
        print("\ncounters:", file=out)
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}", file=out)
    histograms = export["metrics"].get("histograms", {})
    if histograms:
        print("\nhistograms:", file=out)
        for name in sorted(histograms):
            hist = histograms[name]
            print(
                f"  {name}: count={hist['count']} mean={hist['mean']:.2f} "
                f"sum={hist['sum']:g}",
                file=out,
            )
    print(
        f"\nnetwork: {network.total_messages} messages, "
        f"{network.total_bytes:,} bytes, "
        f"{network.modelled_seconds:.6f}s modelled",
        file=out,
    )
    return 0


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}ms"


def cmd_serve_sim(args, out) -> int:
    """One simulation runner, two arrival disciplines, one report.

    Closed loop (the default): ``--clients`` clients each send
    ``--statements`` statements, the next when the previous finishes.
    ``--open-loop``: ``--queries`` arrivals flood the service at
    ``--load`` times its calibrated capacity.
    """
    import time

    from .service import estimate_capacity, run_closed_loop, run_open_loop
    from .workloads.traffic import TrafficProfile, generate_traffic

    table = employees_table(args.rows, seed=args.seed)
    source = DataSource(
        ProviderCluster(args.providers, args.threshold),
        seed=args.seed,
        verified_reads=True,  # gives the degradation ladder a premium tier
    )
    source.outsource_table(table)
    eids = sorted(row["eid"] for row in table.rows())
    network = source.cluster.network
    run, options = run_closed_loop, dict(
        max_in_flight=args.max_in_flight, queue_limit=args.queue_limit
    )
    if args.open_loop:
        run = run_open_loop
        # calibrate outside the telemetry session so probe traffic never
        # pollutes the SLO counters; the flood starts from a clean network
        capacity = estimate_capacity(
            source, eids, max_in_flight=args.max_in_flight, seed=args.seed + 1
        )
        profile = TrafficProfile(
            mean_interarrival=1.0 / (capacity["capacity_qps"] * args.load)
        )
        events = generate_traffic(
            eids, args.queries, seed=args.seed, profile=profile
        )
        extra = {"capacity": capacity, "load_factor": args.load}
        title = (
            f"serve-sim --open-loop: {args.queries} queries at "
            f"{args.load:g}x capacity ({capacity['capacity_qps']:.1f} q/s)"
        )
    else:
        events = generate_traffic(
            eids, args.clients * args.statements, seed=args.seed
        )
        options.update(clients=args.clients, transactional=args.transactional)
        extra = {
            "clients": args.clients,
            "statements_per_client": args.statements,
        }
        title = (
            f"serve-sim: {args.clients} clients x "
            f"{args.statements} statements"
        )
    network.reset()
    wall_start = time.perf_counter()
    with telemetry.session(clock=lambda: network.modelled_seconds):
        report = run(source, events, **options)
    report["wall_seconds"] = time.perf_counter() - wall_start
    report.update(extra)
    if args.json:
        json.dump(report, out, indent=2, sort_keys=True)
        print(file=out)
        return 0
    print(
        f"{title} over Employees({args.rows}), {args.providers} providers "
        f"(threshold {args.threshold})",
        file=out,
    )
    _print_simulation_report(report, out)
    return 0


def _print_simulation_report(report, out) -> None:
    """The serve-sim report body: the same lines for either discipline."""
    admission = report["admission"]
    wall = report["wall_seconds"]
    print(
        f"  completed: {report['completed']} of {report['offered']} "
        f"statements, {report['shed']} shed, "
        f"{report['failed']} failed, {report['incorrect']} incorrect, "
        f"{report['degraded_served']} served degraded "
        f"({report['degrade_spans']} degraded spans)",
        file=out,
    )
    print(
        f"  throughput: goodput {report['goodput_qps']:.1f} q/s of "
        f"{report['offered_qps']:.1f} q/s offered over "
        f"{report['makespan_seconds']:.3f}s modelled "
        f"(utilization {report['utilization']:.0%}); "
        f"{report['completed'] / wall if wall else 0.0:.1f} q/s over "
        f"{wall:.3f}s wall",
        file=out,
    )
    print(
        f"  admission: {admission['admitted_total']} admitted, "
        f"{admission['rejected_total']} rejected, "
        f"peak queue {admission['queued_peak']}/{admission['queue_limit']}, "
        f"max in-flight {admission['max_in_flight']}",
        file=out,
    )
    slo = report["slo"]
    print(
        f"  slo: availability {slo['availability']:.4f} vs target "
        f"{slo['availability_target']} "
        f"(error budget consumed {slo['budget_consumed']:.2f}x)",
        file=out,
    )
    for priority, stats in slo["by_priority"].items():
        latency = stats["latency_modelled_seconds"]
        print(
            f"    {priority}: {stats['completed']}/{stats['offered']} "
            f"completed, {stats['shed']} shed, "
            f"{stats['degraded']} degraded | "
            f"p50 {_fmt_ms(latency['p50'])}, "
            f"p99 {_fmt_ms(latency['p99'])}, "
            f"p999 {_fmt_ms(latency['p999'])}",
            file=out,
        )
    txn = report.get("txn")
    if txn:
        groups = txn["group_commit"]
        print(
            f"  txn: {txn['logged']} logged, {txn['committed']} committed "
            f"in {groups['groups_flushed']} groups "
            f"(mean size {groups['mean_group']:.1f}), "
            f"{txn['wal_fsyncs']} WAL fsyncs",
            file=out,
        )
    health = ", ".join(
        f"{name}="
        + (
            f"quarantined ({stats['quarantine_reason']})"
            if stats["quarantined"]
            else "ok"
        )
        for name, stats in report["health"].items()
    )
    print(f"  health: {health}", file=out)
    print(
        f"  network: {report['network_messages']} messages, "
        f"{report['network_bytes']:,} bytes, "
        f"{report['modelled_network_seconds']:.3f}s modelled",
        file=out,
    )


def cmd_repair(args, out) -> int:
    from .client.repair import repair_provider, verify_repair

    if args.snapshot:
        source = load_deployment(args.snapshot)
        print(f"loaded deployment from {args.snapshot}", file=out)
    else:
        source = build_source(
            args.workload, args.rows, args.providers, args.threshold, args.seed
        )
    cluster = source.cluster
    if not 0 <= args.provider < cluster.n_providers:
        print(
            f"error: no provider at index {args.provider} "
            f"(cluster has {cluster.n_providers})",
            file=out,
        )
        return 1
    provider = cluster.providers[args.provider]
    if args.simulate_loss:
        # model a disk loss: the provider is up but its share tables are gone
        for name in source.table_names():
            physical = source.physical_name(name)
            if provider.store.has_table(physical):
                provider.store.drop_table(physical)
        print(f"simulated storage loss at {provider.name}", file=out)
    counts = repair_provider(source, args.provider)
    for name in sorted(counts):
        print(f"  repaired {name}: {counts[name]} rows", file=out)
    report = verify_repair(source, args.provider)
    all_consistent = all(entry["consistent"] for entry in report.values())
    for name in sorted(report):
        entry = report[name]
        status = "consistent" if entry["consistent"] else "INCONSISTENT"
        print(
            f"  verify {name}: {entry['rows']} rows at {provider.name} vs "
            f"{entry['quorum_rows']} at the quorum — {status}",
            file=out,
        )
    network = cluster.network
    print(
        f"  network: {network.total_messages} messages, "
        f"{network.total_bytes:,} bytes",
        file=out,
    )
    return 0 if all_consistent else 1


def _shard_verify(router, employees, out) -> bool:
    """Compare the sharded deployment against the plaintext oracle."""
    from .sqlengine.catalog import Catalog
    from .sqlengine.executor import PlaintextExecutor, rows_equal_unordered
    from .sqlengine.sqlparser import parse_sql
    from .sqlengine.table import Table

    catalog = Catalog()
    catalog.add_table(Table(employees.schema, employees.rows()))
    oracle = PlaintextExecutor(catalog)
    probes = [
        "SELECT COUNT(*) FROM Employees",
        "SELECT SUM(salary) FROM Employees",
        "SELECT AVG(salary) FROM Employees WHERE salary >= 50000",
        "SELECT * FROM Employees WHERE eid < 5000",
    ]
    ok = True
    for text in probes:
        got = router.sql(text)
        want = oracle.execute(parse_sql(text))
        matches = (
            rows_equal_unordered(got, want)
            if isinstance(want, list)
            else got == want
        )
        status = "ok" if matches else "MISMATCH"
        print(f"  verify {text!r}: {status}", file=out)
        ok = ok and matches
    held = router.shard_row_ids("Employees")
    total = sum(len(ids) for ids in held.values())
    distinct = len({rid for ids in held.values() for rid in ids})
    if total != len(employees.rows()) or distinct != total:
        print(
            f"  verify row placement: MISMATCH ({total} rows held, "
            f"{distinct} distinct, {len(employees.rows())} expected)",
            file=out,
        )
        ok = False
    else:
        print(f"  verify row placement: ok ({total} rows, no duplicates)", file=out)
    return ok


def _print_shard_distribution(router, table: str, out) -> None:
    for index, ids in sorted(router.shard_row_ids(table).items()):
        group = router.groups[index]
        print(f"  {group.name}: {len(ids)} rows", file=out)


def cmd_shard_split(args, out) -> int:
    from .service.sharding import ShardRouter

    router = ShardRouter.build(
        n_groups=args.groups,
        providers_per_group=args.providers,
        threshold=args.threshold,
        seed=args.seed,
        mode="range",
    )
    employees = employees_table(args.rows, seed=args.seed)
    router.outsource_table(employees, partition_column="eid")
    print(f"range-sharded Employees across {args.groups} groups:", file=out)
    _print_shard_distribution(router, "Employees", out)
    moved = router.split_shard("Employees", args.at)
    print(
        f"split at eid={args.at}: {moved} rows migrated to "
        f"{router.groups[-1].name} (online, staging cutover)",
        file=out,
    )
    _print_shard_distribution(router, "Employees", out)
    network_bytes = router.total_network_bytes()
    print(f"  network: {network_bytes:,} bytes across groups", file=out)
    return 0 if _shard_verify(router, employees, out) else 1


def cmd_shard_rebalance(args, out) -> int:
    from .service.sharding import ShardRouter

    router = ShardRouter.build(
        n_groups=args.groups,
        providers_per_group=args.providers,
        threshold=args.threshold,
        seed=args.seed,
        mode="hash",
    )
    employees = employees_table(args.rows, seed=args.seed)
    router.outsource_table(employees)
    print(f"hash-sharded Employees across {args.groups} groups:", file=out)
    _print_shard_distribution(router, "Employees", out)
    for _ in range(args.add_groups):
        router.add_group()
    if args.add_groups:
        print(f"registered {args.add_groups} new group(s)", file=out)
    moved = router.rebalance()
    print(
        f"rebalanced: {moved} rows migrated across "
        f"{len(router.active_group_indexes())} active groups",
        file=out,
    )
    _print_shard_distribution(router, "Employees", out)
    network_bytes = router.total_network_bytes()
    print(f"  network: {network_bytes:,} bytes across groups", file=out)
    return 0 if _shard_verify(router, employees, out) else 1


def _accounts_schema():
    from .sqlengine.schema import TableSchema, integer_column

    # balance is randomly shared: the column the incremental-delta path
    # exercises (order-preserving shares cannot be perturbed in place)
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000_000),
            integer_column("balance", 0, 1_000_000_000, searchable=False),
        ),
        primary_key="aid",
    )


def _txn_script(rows: int) -> List[str]:
    """A deterministic mutation mix covering every transactional op."""
    half = max(rows // 2, 1)
    return [
        f"UPDATE Accounts SET balance = balance + 250 WHERE aid < {half}",
        "UPDATE Accounts SET balance = 777 WHERE aid = 1",
        f"DELETE FROM Accounts WHERE aid = {rows - 1}",
        f"UPDATE Accounts SET balance = balance - 50 WHERE aid >= {half}",
    ]


def _txn_oracle(rows: int):
    """Plaintext ground truth the recovered share state must equal."""
    from .sqlengine.catalog import Catalog
    from .sqlengine.executor import PlaintextExecutor
    from .sqlengine.table import Table

    catalog = Catalog()
    table = Table(_accounts_schema())
    for i in range(rows):
        table.insert({"aid": i, "balance": 1000 + i})
    catalog.add_table(table)
    return catalog, PlaintextExecutor(catalog)


def cmd_txn_replay(args, out) -> int:
    """Kill-at-a-WAL-phase crash drill: crash, recover, compare to oracle.

    A statement is committed iff its WAL record survived — so the oracle
    includes the victim statement at every phase except ``pre-log``.
    Exits non-zero if any phase recovers to anything but the exact
    plaintext oracle state.
    """
    import os as _os
    import tempfile as _tempfile

    from .errors import SimulatedCrash
    from .sqlengine.sqlparser import parse_sql
    from .txn import ShardedTransactionManager, TransactionManager

    phases = list(KILL_PHASES) if args.kill == "all" else [args.kill]
    victim = (
        f"UPDATE Accounts SET balance = balance + 9999 WHERE aid < {args.rows}"
    )
    failures = 0
    for phase in phases:
        if args.sharded:
            from .service.sharding import ShardRouter

            router = ShardRouter.build(
                n_groups=2,
                providers_per_group=args.providers,
                threshold=args.threshold,
                seed=args.seed,
            )
            router.create_table(_accounts_schema())
            reader = router
            wal = _tempfile.mktemp(prefix="repro-replay-", suffix=".wal")
            manager = ShardedTransactionManager(router, wal)
        else:
            cluster = ProviderCluster(args.providers, args.threshold)
            reader = DataSource(cluster, seed=args.seed)
            reader.create_table(_accounts_schema())
            wal = _tempfile.mktemp(prefix="repro-replay-", suffix=".wal")
            manager = TransactionManager(reader, wal)
        catalog, oracle = _txn_oracle(args.rows)
        for i in range(args.rows):
            manager.execute(
                f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {1000 + i})"
            )
        for statement in _txn_script(args.rows):
            manager.execute(statement)
            oracle.execute(parse_sql(statement))
        manager.kill_at = phase
        crashed = False
        try:
            manager.execute(victim)
        except SimulatedCrash:
            crashed = True
        if phase != "pre-log":
            oracle.execute(parse_sql(victim))
        manager.close()
        if args.sharded:
            recovering = ShardedTransactionManager(router, wal)
        else:
            recovering = TransactionManager(reader, wal)
        report = recovering.recover()
        live = sorted(
            (row["aid"], row["balance"])
            for row in reader.select(parse_sql("SELECT * FROM Accounts"))
        )
        expected = sorted(
            (row["aid"], row["balance"])
            for row in catalog.table("Accounts").rows()
        )
        exact = live == expected
        failures += 0 if exact else 1
        recovering.close()
        _os.remove(wal)  # an explicit log is never removed by its manager
        print(
            f"  {phase:10s}: crashed={str(crashed).lower():5s} "
            f"replayed={report['replayed']} "
            f"state={'exact' if exact else 'DIVERGED'}",
            file=out,
        )
    deployment = "sharded (2 groups)" if args.sharded else "unsharded"
    if failures:
        print(
            f"txn-replay: {failures}/{len(phases)} phases diverged "
            f"({deployment})",
            file=out,
        )
        return 1
    print(
        f"txn-replay: all {len(phases)} kill phases recovered exactly "
        f"({deployment}, {args.rows} rows)",
        file=out,
    )
    return 0


def cmd_time_travel(args, out) -> int:
    """Replay a table's epochs through ``as_of_epoch`` reads."""
    from .sqlengine.sqlparser import parse_sql
    from .txn import TransactionManager

    cluster = ProviderCluster(args.providers, args.threshold)
    source = DataSource(cluster, seed=args.seed)
    source.create_table(_accounts_schema())
    manager = TransactionManager(source)
    rows = [
        {"aid": i, "balance": 1000 + i} for i in range(args.rows)
    ]
    source.insert_many("Accounts", rows)
    for statement in _txn_script(args.rows):
        manager.execute(statement)
    manager.close()
    select_all = parse_sql("SELECT * FROM Accounts")
    current = source.table_epoch("Accounts")
    epochs = (
        [args.epoch]
        if args.epoch is not None
        else list(range(1, current + 1))
    )
    summary = []
    for epoch in epochs:
        past = source.select_asof(select_all, epoch)
        summary.append(
            {
                "epoch": epoch,
                "rows": len(past),
                "sum(balance)": sum(r["balance"] for r in past),
            }
        )
    print(format_table(summary), file=out)
    live = sorted(
        (r["aid"], r["balance"]) for r in source.select(select_all)
    )
    head = sorted(
        (r["aid"], r["balance"])
        for r in source.select_asof(select_all, current)
    )
    if live != head:
        print(
            f"error: as_of_epoch={current} disagrees with the live read",
            file=out,
        )
        return 1
    print(
        f"time-travel: {len(epochs)} epochs readable; "
        f"as_of_epoch={current} matches the live read exactly",
        file=out,
    )
    return 0


def cmd_figure1(args, out) -> int:
    from .core.shamir import figure1_shares, salaries_from_figure1

    columns = figure1_shares()
    rows = [
        {
            "salary": salary,
            "DAS1 (x=2)": columns["DAS1"][i],
            "DAS2 (x=4)": columns["DAS2"][i],
            "DAS3 (x=1)": columns["DAS3"][i],
        }
        for i, salary in enumerate([10, 20, 40, 60, 80])
    ]
    print(format_table(rows), file=out)
    print(
        f"reconstructed from DAS1+DAS3: {salaries_from_figure1(columns)}",
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secret-sharing database-as-a-service (ICDE'09 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rows", type=int, default=500)
        p.add_argument("--providers", type=int, default=5)
        p.add_argument("--threshold", type=int, default=3)
        p.add_argument("--seed", type=int, default=2009)

    demo = sub.add_parser("demo", help="guided tour over a payroll workload")
    common(demo)

    sql = sub.add_parser("sql", help="interactive SQL shell")
    common(sql)
    sql.add_argument(
        "--workload", choices=("employees", "ecommerce"), default="employees"
    )
    sql.add_argument("--snapshot", help="load a saved deployment directory")
    sql.add_argument("--save", help="save the deployment on exit")
    sql.add_argument(
        "-e", "--execute", action="append",
        help="run this statement and exit (repeatable)",
    )

    trace = sub.add_parser(
        "trace", help="run one statement with telemetry and print the trace"
    )
    common(trace)
    trace.add_argument(
        "--workload", choices=("employees", "ecommerce"), default="employees"
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the full telemetry export (metrics + spans) as JSON",
    )
    trace.add_argument(
        "--snapshot", help="trace against a saved deployment directory"
    )
    trace.add_argument(
        "--output", help="write the JSON telemetry export to this file"
    )
    trace.add_argument(
        "--analyze", action="store_true",
        help="also print wall-clock and modelled time per stage",
    )
    trace.add_argument("sql", help="the SQL statement to trace")

    serve = sub.add_parser(
        "serve-sim",
        help="simulate a multi-client workload against the service's "
        "admission policy (closed loop, or --open-loop)",
    )
    common(serve)
    serve.add_argument(
        "--clients", type=int, default=8, help="concurrent client sessions"
    )
    serve.add_argument(
        "--statements", type=int, default=12, help="statements per client"
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=8,
        help="admission bound on concurrently executing queries",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="admission bound on queries waiting for a slot",
    )
    serve.add_argument(
        "--transactional", action="store_true",
        help="route writes through the WAL + group-commit write path",
    )
    serve.add_argument(
        "--open-loop", action="store_true",
        help="open-loop overload mode: flood at a multiple of measured "
        "capacity instead of closed-loop clients",
    )
    serve.add_argument(
        "--load", type=float, default=1.0,
        help="open-loop offered load as a multiple of calibrated capacity",
    )
    serve.add_argument(
        "--queries", type=int, default=400,
        help="open-loop arrivals to generate",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    repair = sub.add_parser(
        "repair",
        help="rebuild one provider's shares from k live peers and verify",
    )
    common(repair)
    repair.add_argument(
        "--workload", choices=("employees", "ecommerce"), default="employees"
    )
    repair.add_argument(
        "--snapshot", help="repair within a saved deployment directory"
    )
    repair.add_argument(
        "--provider", type=int, required=True,
        help="index of the provider to rebuild (0-based)",
    )
    repair.add_argument(
        "--simulate-loss", action="store_true",
        help="drop the provider's share tables first (storage-loss demo)",
    )

    split = sub.add_parser(
        "shard-split",
        help="range-shard a workload, split one shard online, verify",
    )
    common(split)
    split.add_argument(
        "--groups", type=int, default=2, help="initial provider groups"
    )
    split.add_argument(
        "--at", type=int, default=250_000,
        help="eid split point; keys >= this move to a fresh group",
    )

    rebalance = sub.add_parser(
        "shard-rebalance",
        help="hash-shard a workload, add groups, rebalance buckets, verify",
    )
    common(rebalance)
    rebalance.add_argument(
        "--groups", type=int, default=2, help="initial provider groups"
    )
    rebalance.add_argument(
        "--add-groups", type=int, default=1,
        help="fresh groups to register before rebalancing",
    )

    replay = sub.add_parser(
        "txn-replay",
        help="crash the WAL write path at a kill phase, recover, verify",
    )
    common(replay)
    replay.set_defaults(rows=40)
    replay.add_argument(
        "--kill",
        choices=["all", *KILL_PHASES],
        default="all",
        help="WAL phase to crash at (default: the whole matrix)",
    )
    replay.add_argument(
        "--sharded", action="store_true",
        help="run the drill over a 2-group sharded deployment",
    )

    travel = sub.add_parser(
        "time-travel",
        help="mutate a table over epochs, then read it as of each epoch",
    )
    common(travel)
    travel.set_defaults(rows=40)
    travel.add_argument(
        "--epoch", type=int, default=None,
        help="read as of one epoch instead of the whole history",
    )

    sub.add_parser("figure1", help="print the paper's Figure 1 reproduction")
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return cmd_demo(args, out)
        if args.command == "sql":
            return cmd_sql(args, out)
        if args.command == "trace":
            return cmd_trace(args, out)
        if args.command == "serve-sim":
            return cmd_serve_sim(args, out)
        if args.command == "repair":
            return cmd_repair(args, out)
        if args.command == "shard-split":
            return cmd_shard_split(args, out)
        if args.command == "shard-rebalance":
            return cmd_shard_rebalance(args, out)
        if args.command == "txn-replay":
            return cmd_txn_replay(args, out)
        if args.command == "time-travel":
            return cmd_time_travel(args, out)
        if args.command == "figure1":
            return cmd_figure1(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
    except OSError as exc:
        # bad --snapshot/--save/--output paths must not traceback
        print(f"error: {exc}", file=out)
        return 1
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
