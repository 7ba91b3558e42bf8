"""The narrow contract between modules is a tier-1 fact (ISSUE-15).

A module that reads or calls another object's ``_private`` attribute is
coupled to that object's internals — the shared-database antipattern the
write-pipeline refactor removed from the transaction layer and the lazy
update buffer.  This walks every module under ``src/repro`` and fails on
any attribute access ``x._name`` (dunders excepted) whose ``x`` is not
``self`` / ``cls``.

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
    # repair rebuilds share rows below the read pipeline's decode step
    ("client/repair.py", "_read_shares"),
    ("client/repair.py", "_call_one"),
    # snapshot save/restore of client state that has no public setter
    ("persistence.py", "_rng"),
    ("persistence.py", "_next_row_id"),
    ("persistence.py", "_restore_epoch"),
    ("service/sharding.py", "_maps"),  # ShardRouter.restore, on its own class
    ("service/sharding.py", "_next_row_id"),
    ("trust/auditing.py", "_column_hashes"),
}

#: never allowed to reach, whatever the allowlist says
STRICT = ("txn/", "client/updates.py")


def _private_reaches():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            name = node.attr
            if not name.startswith("_") or (
                name.startswith("__") and name.endswith("__")
            ):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            found.add((module, name, node.lineno))
    return found


def test_no_new_private_reach():
    new = sorted(
        f"{module}:{line} .{name}"
        for module, name, line in _private_reaches()
        if (module, name) not in ALLOWED
    )
    assert not new, (
        "private attribute of another object reached into (go through a "
        f"public method instead): {new}"
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
