"""Overload benchmark: no error-rate cliff at 4x modelled capacity.

Calibrates the deployment's modelled capacity with a sparse read-only
probe, then floods it with an open-loop heavy-tailed arrival stream
(:mod:`repro.workloads.traffic`) at multiples of that capacity through
the discrete-event overload runner (:func:`repro.drills.flood`, which
drives :func:`repro.service.run_open_loop`).  The service must bend, not
break:

* **zero incorrect results** at every load — each answer is checked
  against a plaintext mirror that applies writes in execution order;
* **priority-ordered shedding** — background completion rate <=
  batch <= interactive once the queue saturates;
* **no goodput cliff** — goodput at 4x capacity stays within 20% of
  goodput at 1x (load shedding keeps the servers busy on admitted
  work instead of collapsing);
* **graceful degradation** — verified reads drop to plain quorum
  reads under pressure (cheaper, still correct) before anything is
  rejected.

A combined chaos section repeats the 4x flood with ``n - k`` providers
crashed: the health tracker must quarantine each as ``unavailable``,
after which reads stop addressing it (no more bytes, no more timeouts
while ``k`` others answer), and correctness must hold.

Results go to ``BENCH_overload.json`` at the repo root.  Run modes::

    python benchmarks/bench_overload.py           # full sweep + JSON
    python benchmarks/bench_overload.py --check   # CI gates only

``--check`` (CI bench-smoke + chaos-smoke) runs the gates on a small
deployment.  Everything is driven by the modelled clock and the
deterministic RNG, so the numbers are bit-stable across machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import drills
from repro.providers.cluster import CLIENT_NAME
from repro.providers.health import QUARANTINE_AFTER, UNAVAILABLE

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_overload.json"
LOAD_SWEEP = (1.0, 2.0, 4.0, 8.0)


def run_at_load(
    load: float,
    rows: int,
    providers: int,
    threshold: int,
    queries: int,
    max_in_flight: int,
    queue_limit: int,
    crash: int = 0,
):
    """Calibrate a fresh deployment, then flood it at ``load`` x capacity."""
    source, eids = drills.employees_source(rows, providers, threshold, SEED)
    return drills.flood(
        source, eids, load, queries, max_in_flight, queue_limit, crash, SEED
    )


def completion_rates(report):
    """Per-priority completion rates from the embedded SLO rollup."""
    by_priority = report["slo"]["by_priority"]
    return {
        name: stats["completion_rate"]
        for name, stats in by_priority.items()
        if stats["offered"]
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_check() -> None:
    """The CI overload gates (bench-smoke + chaos-smoke).

    On a small deployment (60 rows, 4 providers, threshold 2, 4 virtual
    servers, queue of 16):

    * 1x and 4x floods both finish with **zero incorrect** results;
    * at 4x the queue saturates: work is shed, and completion rates are
      priority-ordered (interactive >= batch >= background);
    * the degradation ladder engages at 4x (verified reads served as
      plain quorum reads) and goodput stays within 20% of the 1x run —
      no error-rate cliff;
    * with ``n - k`` providers crashed on top of the 4x flood,
      correctness still holds and each crashed provider is quarantined
      as ``unavailable`` after exactly ``QUARANTINE_AFTER`` requests:
      no request reaches it afterwards, so its inbound bytes stop
      growing — a later read does not add any either.
    """
    kwargs = dict(
        rows=60,
        providers=4,
        threshold=2,
        queries=300,
        max_in_flight=4,
        queue_limit=16,
    )
    r1 = run_at_load(1.0, **kwargs)
    r4 = run_at_load(4.0, **kwargs)
    for report in (r1, r4):
        assert report["incorrect"] == 0, (
            f"incorrect results at {report['load_factor']}x: "
            f"{report['incorrect_examples']}"
        )
        assert report["failed"] == 0, (
            f"{report['failed']} hard failures at {report['load_factor']}x "
            f"(healthy providers must never error)"
        )
    assert r4["shed"] > 0, "4x capacity never shed — queue_limit too high?"
    assert r4["degraded_served"] > 0, (
        "degradation ladder never engaged at 4x capacity"
    )
    rates = completion_rates(r4)
    assert (
        rates["interactive"] >= rates["batch"] >= rates["background"]
    ), f"shedding not priority-ordered at 4x: {rates}"
    floor = 0.8 * r1["goodput_qps"]
    assert r4["goodput_qps"] >= floor, (
        f"goodput cliff: {r4['goodput_qps']} qps at 4x capacity vs "
        f"{r1['goodput_qps']} qps at 1x (need >= {floor:.2f})"
    )
    shed_levels = r4["admission"]["rejected_by_priority"]
    assert sum(shed_levels.values()) == r4["shed"], (
        "admission shed accounting diverged from the runner's count"
    )

    crash = kwargs["providers"] - kwargs["threshold"]
    source, eids = drills.employees_source(
        kwargs["rows"], kwargs["providers"], kwargs["threshold"], SEED
    )
    rc = drills.flood(
        source,
        eids,
        4.0,
        kwargs["queries"],
        kwargs["max_in_flight"],
        kwargs["queue_limit"],
        crash=crash,
        seed=SEED,
    )
    assert rc["incorrect"] == 0, (
        f"incorrect results under 4x flood + {crash} crashes: "
        f"{rc['incorrect_examples']}"
    )
    assert rc["completed"] > 0, "no goodput under 4x flood + crashes"
    network = source.cluster.network
    crashed = [source.cluster.providers[i].name for i in range(crash)]
    for name in crashed:
        health = rc["health"][name]
        assert health["quarantined"] and (
            health["quarantine_reason"] == UNAVAILABLE
        ), f"crashed provider {name} not quarantined as down: {health}"
        sent = network.stats.by_link[(CLIENT_NAME, name)].messages
        assert sent == QUARANTINE_AFTER, (
            f"{sent} requests reached crashed {name}; reads must stop "
            f"addressing it once {QUARANTINE_AFTER} failures quarantined it"
        )
    inbound = {name: network.stats.bytes_to(name) for name in crashed}
    source.row_cache.clear()  # the read must reach the providers
    source.sql(f"SELECT * FROM Employees WHERE eid = {eids[0]}")
    assert inbound == {name: network.stats.bytes_to(name) for name in crashed}, (
        "a read after the flood still addressed a quarantined provider"
    )


def run_full(args) -> dict:
    sweep = [
        run_at_load(
            load,
            rows=args.rows,
            providers=args.providers,
            threshold=args.threshold,
            queries=args.queries,
            max_in_flight=args.max_in_flight,
            queue_limit=args.queue_limit,
        )
        for load in LOAD_SWEEP
    ]
    crash = args.providers - args.threshold
    chaos = run_at_load(
        4.0,
        rows=args.rows,
        providers=args.providers,
        threshold=args.threshold,
        queries=args.queries,
        max_in_flight=args.max_in_flight,
        queue_limit=args.queue_limit,
        crash=crash,
    )
    return {
        "seed": SEED,
        "rows": args.rows,
        "providers": args.providers,
        "threshold": args.threshold,
        "queries": args.queries,
        "max_in_flight": args.max_in_flight,
        "queue_limit": args.queue_limit,
        "loads": sweep,
        "chaos_4x_with_crashes": chaos,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate mode: assert overload invariants, no JSON",
    )
    parser.add_argument("--rows", type=int, default=80,
                        help="Employees table size (default 80)")
    parser.add_argument("--providers", type=int, default=4,
                        help="providers n (default 4)")
    parser.add_argument("--threshold", type=int, default=2,
                        help="reconstruction threshold k (default 2)")
    parser.add_argument("--queries", type=int, default=400,
                        help="flood length in queries (default 400)")
    parser.add_argument("--max-in-flight", type=int, default=4,
                        help="virtual servers (default 4)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="admission queue depth (default 16)")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.check:
        run_check()
        print(
            "bench_overload --check: zero incorrect at 1x/4x, shedding "
            "priority-ordered, degradation engaged, goodput within 20% "
            "of 1x at 4x capacity, crashed providers quarantined and "
            "no longer addressed"
        )
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
