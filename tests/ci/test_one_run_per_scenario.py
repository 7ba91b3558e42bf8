"""A pipeline scenario runs once per session (``tests.pipeline_runs``):
``run_scenario`` is named only in the memo, in a module's ``__main__``
re-base entry, or in a test its module's ``RERUNS`` lists with the feature
that test switches off.  And a test watches providers through the one
recorder, ``pipeline_runs.recording``: nothing else under ``tests/``
assigns a provider's ``handle`` but the two modules that swap it to fail
calls on purpose."""

import ast
from pathlib import Path

import pytest

from tests import pipeline_runs
from tests.ci import test_wire_contract
from tests.client import test_read_pipeline, test_write_pipeline
from tests.sharding import test_router_pipeline

MODULES = (test_read_pipeline, test_write_pipeline, test_router_pipeline, test_wire_contract)
TESTS = Path(pipeline_runs.__file__).parent
HANDLE_SWAPS = {
    "pipeline_runs.py",
    "telemetry/test_instrumentation.py",  # a handler that raises mid-span
    "telemetry/test_fault_accounting.py",  # a handler that raises mid-round
}


def _uses(module):
    """``{top-level function, "__main__" or None: lines}`` naming ``run_scenario``."""
    uses = {}
    for statement in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        where = getattr(statement, "name", None)
        if isinstance(statement, ast.If) and ast.unparse(statement.test) == "__name__ == '__main__'":
            where = "__main__"
        for node in ast.walk(statement):
            if getattr(node, "id", getattr(node, "attr", None)) == "run_scenario":
                uses.setdefault(where, []).append(node.lineno)
    return uses


@pytest.mark.parametrize("module", MODULES + (pipeline_runs,), ids=lambda m: m.__name__)
def test_run_scenario_is_named_only_by_the_memo_the_rebase_and_the_reruns(module):
    reruns, uses = getattr(module, "RERUNS", {}), _uses(module)
    allowed = {"__main__", *reruns} if module is not pipeline_runs else {"run"}
    stray = {where: lines for where, lines in uses.items() if where not in allowed}
    assert not stray, f"{module.__name__} runs a scenario outside the memo and RERUNS: {stray}"
    # every listed test is one of the module's and does run again
    assert all(feature and name in uses for name, feature in reruns.items()), reruns


def test_only_the_recorder_and_fault_injections_swap_handle():
    swaps = {
        path.relative_to(TESTS).as_posix()
        for path in TESTS.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        # ``x.handle = …``, or ``setattr(x, "handle", …)`` in any spelling
        if isinstance(node, ast.Attribute) and node.attr == "handle" and isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func)
        and any(getattr(arg, "value", None) == "handle" for arg in node.args)
    }
    assert swaps == HANDLE_SWAPS
