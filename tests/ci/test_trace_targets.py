"""The e2e benchmark's trace targets are a tier-1 fact.

``benchmarks/e2e/layers.py`` wraps each layer's entry points by looking
them up with ``vars(holder)[attribute]``: a method moved to a mixin or a
function re-exported from another module raises ``TraceTargetError`` in
the traced benchmark run, which no tier-1 job executes.  Resolving every
target here makes such a refactor fail fast.  The same goes for the
kernel counters ``benchmarks/e2e/metrics.py`` indexes by name: a renamed
``KernelStats`` slot is a ``KeyError`` in the benchmark run only.
"""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_layers():
    # by path under a private name: benchmarks/e2e is not a package, and a
    # bare ``import layers`` would squat on a generic module name
    spec = importlib.util.spec_from_file_location(
        "_e2e_layers", REPO_ROOT / "benchmarks" / "e2e" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
ENTRY_POINTS = sorted({target[2:] for target in layers.TARGETS} | {layers.DISPATCH_HOOK})


@pytest.mark.parametrize("owner, attribute", ENTRY_POINTS)
def test_trace_target_resolves(owner, attribute):
    holder, original = layers._resolve(owner, attribute)
    assert callable(original)
    assert vars(holder)[attribute] is original


def test_datasource_targets_live_in_the_class_body():
    from repro.client.datasource import DataSource

    for name in (
        "sql", "select", "join", "create_table", "insert_many", "update",
        "delete", "prepare_insert_shares", "prepare_update_shares",
        "_fetch_matching_rows", "bump_table_epoch",
    ):
        assert inspect.isfunction(vars(DataSource)[name]), name
        assert ("repro.client.datasource:DataSource", name) in ENTRY_POINTS


def test_router_and_rewriter_targets_live_where_they_are_looked_up():
    # ``vars(holder)[name]``: an entry point hoisted into a base class (the
    # router shares ``StatementLadder`` with ``QueryService``) or re-exported
    # from another module would stop resolving
    from repro.client import rewriter
    from repro.service.sharding import ShardRouter

    for name in ("execute", "create_table", "insert_many"):
        assert inspect.isfunction(vars(ShardRouter)[name]), name
        assert ("repro.service.sharding:ShardRouter", name) in ENTRY_POINTS
    for name in ("rewrite_predicate", "split_join_predicate"):
        function = vars(rewriter)[name]
        assert function.__module__ == "repro.client.rewriter", name
        assert ("repro.client.rewriter", name) in ENTRY_POINTS


def test_reconstruct_targets_are_module_functions():
    from repro.client import reconstruct

    for name in (
        "reconstruct_rows", "reconstruct_rows_checked",
        "reconstruct_single_rows", "consistent_scalar",
    ):
        function = vars(reconstruct)[name]
        assert inspect.isfunction(function), name
        assert function.__module__ == "repro.client.reconstruct", name
        assert ("repro.client.reconstruct", name) in ENTRY_POINTS


def test_benchmark_kernel_counters_are_kernel_stats_slots():
    from repro.core.kernels import KernelStats

    metrics_source = (REPO_ROOT / "benchmarks" / "e2e" / "metrics.py").read_text()
    indexed = set(re.findall(r'c\["kernels\.(\w+)"\]', metrics_source))
    assert indexed, "metrics.py no longer indexes any kernels.* counter"
    assert indexed <= set(KernelStats.__slots__), sorted(
        indexed - set(KernelStats.__slots__)
    )
