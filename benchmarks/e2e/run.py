"""The repo's end-to-end wall-clock benchmark: one command, every metric.

    python benchmarks/e2e/run.py --all --seed 2009            # untraced set
    python benchmarks/e2e/run.py --all --seed 2009 --trace    # + per-layer numbers
    python benchmarks/e2e/run.py --workload range_scan --seed 7 --seconds 6 --trace 0
    python benchmarks/e2e/run.py --smoke                      # 1,000 rows, traced, < 30 s

One workload per process (so ``peak_rss_mb`` is the workload's own);
``--all`` and ``--smoke`` start one child per workload and collect what
each wrote to ``benchmarks/e2e/out/<workload>.json``.  The last line a
single-workload run prints is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Any statement that raised or
disagreed with the plaintext oracle is printed and makes the exit code 1.
Times are in reference-host seconds and the process runs on one CPU; see
``harness.py`` for both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

try:
    import repro  # noqa: F401  (the program under test, built from this checkout's source)
except ImportError as exc:
    sys.exit(f"benchmarks/e2e: cannot import the program from {ROOT}/src: {exc}")

import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import BY_NAME, N_ROWS, NOMINAL_SECONDS, WORKLOADS  # noqa: E402

SMOKE_ROWS, SMOKE_SECONDS, SMOKE_PASSES = 1_000, 0.6, 1


def environment(pinned_cpu: Optional[int]) -> Dict[str, object]:
    from repro.core import kernels

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "kernel_backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "reference_chunk_s": harness.REFERENCE_CHUNK_S,
        "platform": platform.platform(),
        "commit": commit,
    }


def _as_json(named: Dict[str, metrics.Metric]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}


def _print_metrics(title: str, named: Dict[str, metrics.Metric]) -> None:
    print(f"  {title}")
    for name, (value, unit) in named.items():
        print(f"    {name:<48} {value:>16.6g} {unit}")


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process; returns the exit code."""
    workload = BY_NAME[args.workload]
    pinned_cpu = harness.pin_to_one_cpu()
    scale = dict(
        n_rows=SMOKE_ROWS if args.smoke else N_ROWS,
        timed_passes=SMOKE_PASSES if args.smoke else None,
        corrupt_oracle=args.corrupt_oracle,
    )
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    print(f"== {workload.name} (seed {args.seed}, {seconds:g} s nominal) — {workload.why}")
    untraced = harness.run_once(workload, args.seed, seconds, OUT_DIR, **scale)
    problems = list(untraced.problems)
    reported = metrics.end_to_end(untraced)
    diagnostics = metrics.diagnostics(untraced)
    result: Dict[str, object] = {
        "workload": workload.name, "seed": args.seed, "seconds": seconds,
        "env": environment(pinned_cpu),
        "end_to_end": _as_json(reported),
        "diagnostics": _as_json(diagnostics),
        "per_pass": metrics.per_pass(untraced),
    }
    _print_metrics("end to end (untraced)", reported)
    _print_metrics("diagnostics (not gated)", diagnostics)
    if args.trace:
        traced = harness.run_once(workload, args.seed, seconds, OUT_DIR, traced=True, **scale)
        problems += [p for p in traced.problems if p not in problems]
        problems += metrics.count_mismatches(untraced, traced)
        reported = metrics.per_layer(untraced, traced)
        shares = metrics.wall_shares(traced)
        result["per_layer"] = _as_json(reported)
        result["wall_shares"] = shares
        _print_metrics("per layer (times: traced run; counts: untraced run)", reported)
        print("  share of traced wall by layer")
        for layer, share in shares.items():
            print(f"    {layer:<48} {share:>15.1%}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    result.update(
        correct=not problems, attempted=untraced.attempted,
        failed=len(problems), problems=problems[:100],
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": _as_json(reported),
    }))
    return 0 if result["correct"] else 1


def run_set(args: argparse.Namespace, names: List[str]) -> int:
    """One child process per workload; merge what they wrote."""
    merged: Dict[str, object] = {"seed": args.seed, "workloads": {}}
    exit_code = 0
    for name in names:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        command += ["--smoke"] if args.smoke else []
        command += ["--corrupt-oracle"] if args.corrupt_oracle else []
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # the child's last line is the driver's JSON; people read the rest
        print(child.stdout.rsplit("\n", 2)[0] if child.returncode in (0, 1) else child.stdout)
        if child.returncode not in (0, 1):
            return child.returncode
        exit_code = max(exit_code, child.returncode)
        with open(os.path.join(OUT_DIR, f"{name}.json"), encoding="utf-8") as handle:
            result = json.load(handle)
        merged.setdefault("env", result.pop("env"))
        merged["workloads"][name] = result
    output = args.output or os.path.join(OUT_DIR, "results.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1)
    print(f"results written to {os.path.relpath(output)}")
    return exit_code


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--all", action="store_true", help="every workload, one child each")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="nominal measuring time; scales statements per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="also make the traced run and report per-layer metrics "
                             "(default: 1 with --smoke, else 0)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ROWS} rows, one short pass, traced")
    parser.add_argument("--output", help="where --all writes the merged results")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="testing aid: falsify the oracle so verification must fail")
    args = parser.parse_args(argv)
    if args.trace is None:
        args.trace = 1 if args.smoke else 0
    if not (args.workload or args.all or args.smoke):
        parser.error("give --workload NAME, --all or --smoke")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_set(args, [workload.name for workload in WORKLOADS])


if __name__ == "__main__":
    sys.exit(main())
