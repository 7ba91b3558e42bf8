"""Where a ``ShareRows``' cell sizes may come from.

``ShareRows.wire_size`` multiplies a column's known cell size by the row
count instead of visiting the cells, so a size is only as good as the
cells it came with.  The store knows its columns' sizes (``gather``) and
``take`` may pass them on to a subset of the same cells; a path that
changes a cell — the tamper fault's rebuilt answer, a decoded message —
must build its value without them.  This fails when any other module
under ``src/repro`` hands ``ShareRows`` sizes: a fourth positional
argument, a ``sizes=`` keyword, a ``*`` / ``**`` splat, or an assignment
to a ``.sizes`` attribute (``setattr`` included) — and when one of the
two stops, so the list stays the truth."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
SIZED = {"providers/storage.py", "sim/network.py"}


def _passes_sizes(node):
    if isinstance(node, ast.Attribute) and node.attr == "sizes" and isinstance(node.ctx, ast.Store):
        return True
    if not isinstance(node, ast.Call):
        return False
    if "setattr" in ast.unparse(node.func):
        return any(getattr(arg, "value", None) == "sizes" for arg in node.args)
    callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
    return callee == "ShareRows" and (
        len(node.args) > 3
        or any(isinstance(arg, ast.Starred) for arg in node.args)
        or any(keyword.arg in ("sizes", None) for keyword in node.keywords)
    )


def test_only_the_store_and_take_pass_share_rows_their_sizes():
    passing = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _passes_sizes(node)
    }
    assert passing == SIZED
