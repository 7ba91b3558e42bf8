"""The narrow contract between modules is a tier-1 fact (ISSUE-15).

A module that reads or calls another object's ``_private`` attribute is
coupled to that object's internals — the shared-database antipattern the
write-pipeline refactor removed from the transaction layer and the lazy
update buffer.  This walks every module under ``src/repro`` and fails on
any attribute access ``x._name`` (dunders excepted) whose ``x`` is not
``self`` / ``cls``, and on any ``from <other module> import _name`` — the
same reach, spelled as an import (ISSUE-16).

Provider memory is the same reach across a process boundary: a client
that tests ``cluster.providers[i].store`` acts on knowledge no RPC gave it
and no byte paid for, so nothing under ``src/repro/client/`` or
``src/repro/service/`` may touch a ``.store`` (ISSUE-22).

``src/repro/txn/`` and ``src/repro/client/updates.py`` must be clean.
Everything else has an explicit allowlist of the reaches that existed when
the check was introduced; it may only shrink — a listed reach that is gone
must be deleted from the list, a new one fails.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: (module path under src/repro, private attribute) still reached into from
#: outside its owner.  Shrink only.
ALLOWED = {
    # repair rewrites one provider's tables directly
    ("client/repair.py", "_call_one"),
    # snapshot save/restore of client state that has no public setter
    ("persistence.py", "_rng"),
    ("persistence.py", "_next_row_id"),
    ("persistence.py", "_restore_epoch"),
    ("trust/auditing.py", "_column_hashes"),
}

#: never allowed to reach, whatever the allowlist says
STRICT = ("txn/", "client/updates.py")


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
    new = sorted(
        f"{module}:{line} .{name}"
        for module, name, line in _private_reaches()
        if (module, name) not in ALLOWED
    )
    assert not new, (
        "private attribute of another object reached into, or private name "
        f"imported from another module (go through a public one): {new}"
    )


def test_txn_layer_and_lazy_buffer_reach_into_nothing():
    assert not [entry for entry in ALLOWED if entry[0].startswith(STRICT)]
    reaches = [
        (module, name, line)
        for module, name, line in _private_reaches()
        if module.startswith(STRICT)
    ]
    assert not reaches, reaches


def test_allowlist_only_shrinks():
    live = {(module, name) for module, name, _ in _private_reaches()}
    stale = sorted(ALLOWED - live)
    assert not stale, f"fixed — now delete from ALLOWED: {stale}"


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
