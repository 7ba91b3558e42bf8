"""The narrow contract between modules is a tier-1 fact (ISSUE-15).

A module that reads or calls another object's ``_private`` attribute is
coupled to that object's internals — the shared-database antipattern the
write-pipeline refactor removed from the transaction layer and the lazy
update buffer.  This walks every module under ``src/repro`` and fails on
any attribute access ``x._name`` (dunders excepted) whose ``x`` is not
``self`` / ``cls``, and on any ``from <other module> import _name`` — the
same reach, spelled as an import (ISSUE-16).

No module is exempt: a reach anywhere under ``src/repro`` fails.

Provider memory is the same reach across a process boundary: a client
that tests ``cluster.providers[i].store`` acts on knowledge no RPC gave it
and no byte paid for, so nothing under ``src/repro/client/`` or
``src/repro/service/`` may touch a ``.store`` (ISSUE-22).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def _private_reaches():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                names = [node.attr]
            else:
                continue
            for name in names:
                if name.startswith("_") and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    found.add((module, name, node.lineno))
    return found


def test_no_new_private_reach():
    found = sorted(
        f"{module}:{line} .{name}" for module, name, line in _private_reaches()
    )
    assert not found, (
        "private attribute of another object reached into, or private name "
        f"imported from another module (go through a public one): {found}"
    )


def _store_reaches(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "store"
    ]


def test_client_and_service_never_read_provider_memory():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for side in ("client", "service")
        for path in sorted((SRC / side).rglob("*.py"))
        for line in _store_reaches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"provider store read from the client side (send an RPC): {found}"


def test_the_store_check_sees_what_it_forbids():
    tree = ast.parse(
        "def drop(cluster, source):\n"
        "    if cluster.providers[0].store.has_table('t'):\n"
        "        source.call('drop_table')\n"
        "    provider = cluster.providers[1]\n"
        "    provider.store.drop_table('t')\n"
        "    cluster.providers[2].handle('drop_table', {})\n"
    )
    assert _store_reaches(tree) == [2, 5]
