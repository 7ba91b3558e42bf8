"""Transactional write path benchmark: deltas, group commit, recovery.

Four sections over an ``Accounts`` table whose ``balance`` column is
randomly shared (the incremental-delta path only applies to
non-searchable INTEGER columns — order-preserving shares are
deterministic per value and cannot be perturbed in place):

* **delta vs eager** — arithmetic UPDATE statements through the
  transaction manager's incremental path (one delta polynomial per
  statement, row ids on the wire) against the classic eager
  retrieve→re-share path; asserts the wire-byte saving and that both
  deployments reconstruct to bit-identical plaintext;
* **group commit** — the same write wave submitted per-statement
  (every transaction pays its own ``txn_apply`` round) versus as one
  :meth:`TransactionManager.apply_batch` group (one round for the
  wave); reports provider messages per transaction;
* **recovery matrix** — a crash injected at every WAL phase of
  ``KILL_PHASES`` (pre-log, post-log, mid-round, pre-ack, post-ack,
  lost-ack) on both unsharded and 2-group sharded deployments; a
  statement must be durable iff its WAL record survived, and replay must
  land bit-identical to a plaintext oracle (``repro.drills.crash_replay``);
* **time travel** — ``as_of_epoch`` reads at every historical epoch
  compared against the oracle replayed to the same epoch
  (``repro.drills.time_travel``).

Results go to ``BENCH_txn.json`` at the repo root.  Run modes::

    python benchmarks/bench_txn.py           # full sweep + JSON
    python benchmarks/bench_txn.py --check   # small invariants-only run

The committed ``BENCH_txn.json`` is ``python benchmarks/bench_txn.py``
at its defaults (400 rows, n=5, k=3), value for value
(``tests/integration/test_txn_bench.py``).

``--check`` (CI bench-smoke) gates: delta path >= 3x cheaper than eager
in wire bytes with bit-identical results, group commit strictly fewer
provider messages than per-statement commit, every kill phase recovers
exactly on sharded and unsharded deployments, and time-travel parity at
every epoch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import drills
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import KILL_PHASES, TransactionManager

SEED = 2009
RESULT_PATH = REPO_ROOT / "BENCH_txn.json"
DELTA_SPEEDUP_FLOOR = 3.0


def delta_statements(rows: int, count: int):
    # disjoint aid bands so statements touch different row subsets
    width = max(rows // count, 1)
    return [
        f"UPDATE Accounts SET balance = balance + {100 + i} "
        f"WHERE aid >= {i * width} AND aid < {(i + 1) * width}"
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# section 1: incremental delta vs eager re-share
# ---------------------------------------------------------------------------


def bench_delta_vs_eager(rows: int, statements: int, providers: int, threshold: int):
    texts = delta_statements(rows, statements)

    eager = drills.accounts_source(rows, providers, threshold, SEED)
    eager.cluster.network.reset()
    for text in texts:
        eager.update(parse_sql(text))
    eager_net = (
        eager.cluster.network.total_messages,
        eager.cluster.network.total_bytes,
    )

    delta = drills.accounts_source(rows, providers, threshold, SEED)
    delta.cluster.network.reset()
    manager = TransactionManager(delta)
    for text in texts:
        manager.execute(text)
    stats = manager.stats()
    manager.close()
    delta_net = (
        delta.cluster.network.total_messages,
        delta.cluster.network.total_bytes,
    )

    identical = drills.accounts(eager) == drills.accounts(delta)
    return {
        "rows": rows,
        "statements": statements,
        "eager_messages": eager_net[0],
        "eager_bytes": eager_net[1],
        "delta_messages": delta_net[0],
        "delta_bytes": delta_net[1],
        "byte_speedup": round(eager_net[1] / delta_net[1], 2),
        "bit_identical": identical,
        "delta_statements_taken": stats["logged"],
    }


# ---------------------------------------------------------------------------
# section 2: group commit amortisation
# ---------------------------------------------------------------------------


def bench_group_commit(rows: int, wave: int, providers: int, threshold: int):
    inserts = [
        f"INSERT INTO Accounts (aid, balance) VALUES ({rows + i}, {5000 + i})"
        for i in range(wave)
    ]

    solo = drills.accounts_source(rows, providers, threshold, SEED)
    solo_manager = TransactionManager(solo)
    solo.cluster.network.reset()
    for text in inserts:
        solo_manager.execute(text)  # autocommit: one group per statement
    solo_msgs = solo.cluster.network.total_messages
    solo_stats = solo_manager.stats()
    solo_manager.close()

    grouped = drills.accounts_source(rows, providers, threshold, SEED)
    group_manager = TransactionManager(grouped)
    grouped.cluster.network.reset()
    group_manager.apply_batch([parse_sql(text) for text in inserts])
    group_msgs = grouped.cluster.network.total_messages
    group_stats = group_manager.stats()
    group_manager.close()

    identical = drills.accounts(solo) == drills.accounts(grouped)
    return {
        "wave": wave,
        "per_statement_messages": solo_msgs,
        "grouped_messages": group_msgs,
        "messages_per_txn_solo": round(solo_msgs / wave, 1),
        "messages_per_txn_grouped": round(group_msgs / wave, 1),
        "message_saving": round(1 - group_msgs / solo_msgs, 3),
        "solo_groups": solo_stats["group_commit"]["groups_flushed"],
        "grouped_groups": group_stats["group_commit"]["groups_flushed"],
        "bit_identical": identical,
    }


# ---------------------------------------------------------------------------
# section 3: kill-at-every-phase recovery matrix
# ---------------------------------------------------------------------------


def recovery_matrix(rows: int, providers: int, threshold: int, sharded: bool):
    results = []
    for phase in KILL_PHASES:
        with tempfile.TemporaryDirectory(prefix="bench-txn-") as wal_dir:
            result = drills.crash_replay(
                os.path.join(wal_dir, "replay.wal"), phase, rows, providers,
                threshold, SEED, sharded,
            )
            result.manager.close()
        results.append(
            {
                "phase": phase,
                "crashed": result.crashed,
                "replayed": result.replayed,
                "exact": result.exact,
            }
        )
    return results


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_check() -> None:
    """CI bench-smoke gates (also run by the tier-1 suite)."""
    delta = bench_delta_vs_eager(200, 4, providers=4, threshold=2)
    assert delta["bit_identical"], "delta path diverged from eager re-share"
    assert delta["byte_speedup"] >= DELTA_SPEEDUP_FLOOR, (
        f"incremental path only {delta['byte_speedup']}x cheaper than eager "
        f"in wire bytes (need >= {DELTA_SPEEDUP_FLOOR}x)"
    )
    group = bench_group_commit(20, 16, providers=4, threshold=2)
    assert group["bit_identical"], "grouped wave diverged from per-statement"
    assert group["message_saving"] >= 0.5, (
        f"group commit saved only {group['message_saving']:.0%} of provider "
        "messages (need >= 50%)"
    )
    for sharded in (False, True):
        for entry in recovery_matrix(
            16, providers=3, threshold=2, sharded=sharded
        ):
            deployment = "sharded" if sharded else "unsharded"
            assert entry["crashed"], (
                f"{deployment} {entry['phase']}: no crash was injected"
            )
            assert entry["exact"], (
                f"{deployment} {entry['phase']}: recovered state diverged "
                "from the plaintext oracle"
            )
    travel = drills.time_travel(24, providers=3, threshold=2, seed=SEED)
    assert not travel["diverged"], (
        f"as_of_epoch={travel['diverged']} diverged from the oracle replay"
    )


def run_full(args) -> dict:
    travel = drills.time_travel(
        args.rows, args.providers, args.threshold, seed=SEED
    )
    return {
        "seed": SEED,
        "delta_vs_eager": [
            bench_delta_vs_eager(
                args.rows, count, args.providers, args.threshold
            )
            for count in (1, 4, 8, 16)
        ],
        "group_commit": [
            bench_group_commit(
                args.rows, wave, args.providers, args.threshold
            )
            for wave in (1, 4, 16, 64)
        ],
        "recovery": {
            "unsharded": recovery_matrix(
                24, args.providers, args.threshold, sharded=False
            ),
            "sharded": recovery_matrix(
                24, args.providers, args.threshold, sharded=True
            ),
        },
        "time_travel": [
            {"epoch": entry["epoch"], "exact": entry["epoch"] not in travel["diverged"]}
            for entry in travel["epochs"]
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="small smoke mode: assert txn invariants, no timing/JSON",
    )
    parser.add_argument("--rows", type=int, default=400,
                        help="Accounts table size (default 400)")
    parser.add_argument("--providers", type=int, default=5,
                        help="providers n (default 5)")
    parser.add_argument("--threshold", type=int, default=3,
                        help="reconstruction threshold k (default 3)")
    parser.add_argument("--output", type=Path, default=RESULT_PATH,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.check:
        run_check()
        print(
            "bench_txn --check: delta >= 3x eager (bit-identical), group "
            "commit coalesces, all kill phases recover exactly (sharded + "
            "unsharded), time travel matches the oracle at every epoch"
        )
        return 0
    report = run_full(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
