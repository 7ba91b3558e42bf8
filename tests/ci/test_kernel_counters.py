"""Every kernel counter is counted somewhere.

``KernelStats`` is what tests, the hot-path benchmark and the e2e
metrics read to tell whether a kernel path ran.  A counter whose only
incrementing path was deleted keeps reading 0 and says "never ran"
about code that no longer exists.  So each ``__slots__`` entry must be
incremented by some ``_STATS.<slot> += …`` in ``core/kernels.py``.
"""

import ast
from pathlib import Path

KERNELS = (
    Path(__file__).resolve().parent.parent.parent / "src" / "repro" / "core" / "kernels.py"
)


def _slots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "KernelStats":
            for statement in node.body:
                if isinstance(statement, ast.Assign) and any(
                    getattr(target, "id", None) == "__slots__"
                    for target in statement.targets
                ):
                    return ast.literal_eval(statement.value)
    raise AssertionError("KernelStats.__slots__ not found")


def _incremented(tree: ast.Module):
    return {
        node.target.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Attribute)
        and getattr(node.target.value, "id", None) == "_STATS"
    }


def test_every_kernel_counter_is_incremented():
    tree = ast.parse(KERNELS.read_text(encoding="utf-8"))
    slots = _slots(tree)
    assert slots, "KernelStats has no counters"
    assert sorted(set(slots) - _incremented(tree)) == []
