"""A pipeline scenario runs once per session (``tests.pipeline_runs``):
``run_scenario`` is named only in the memo, in a module's ``__main__``
re-base entry, or in a test its module's ``RERUNS`` lists with the feature
that test switches off."""

import ast
from pathlib import Path

import pytest

from tests import pipeline_runs
from tests.ci import test_wire_contract
from tests.client import test_read_pipeline, test_write_pipeline
from tests.sharding import test_router_pipeline

MODULES = (test_read_pipeline, test_write_pipeline, test_router_pipeline, test_wire_contract)


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
