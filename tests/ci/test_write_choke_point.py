"""Every provider write reaches storage as one batch mutator call.

``ShareTable`` keeps one mutator per kind — ``insert_many``,
``update_rows``, ``delete_rows`` — and each validates its whole request
before it changes anything, which is what makes a refused write change
nothing.  That holds only while every provider write handler hands its
request to storage in one call: a handler that called a mutator per row
(inside a loop) or twice would apply the rows before a bad one and then
raise, and a single-row mutator brought back would invite exactly that.
So, read statically:

* the ``ShareProvider._rpc_*`` handlers that call a ``ShareTable``
  mutator are exactly the write handlers, each calls one mutator once,
  and never inside a loop or a comprehension;
* the ``ShareTable`` methods that bump ``version`` or stamp an epoch
  (``_note_epoch``) — what every mutation does — are exactly the three
  mutators.
"""

import ast
from pathlib import Path

PROVIDERS = Path(__file__).resolve().parent.parent.parent / "src" / "repro" / "providers"

MUTATORS = {"insert_many", "update_rows", "delete_rows"}

WRITE_HANDLERS = {
    "_rpc_insert_many",
    "_rpc_update_rows",
    "_rpc_delete_rows",
    "_rpc_increment_rows",
    "_rpc_merge_table",
}

_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _methods(tree: ast.AST, class_name: str):
    cls = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def _mutator_calls(node: ast.AST, in_loop: bool = False):
    """``(mutator, inside a loop)`` of every ``<x>.<mutator>(…)`` call."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in MUTATORS
        ):
            yield child.func.attr, in_loop
        yield from _mutator_calls(child, in_loop or isinstance(child, _LOOPS))


def handler_calls(source: str):
    """``{handler: [(mutator, in loop), ...]}`` for every handler that
    calls a mutator."""
    found = {}
    for method in _methods(ast.parse(source), "ShareProvider"):
        calls = list(_mutator_calls(method))
        if method.name.startswith("_rpc_") and calls:
            found[method.name] = calls
    return found


def _writes_state(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        target = node.target if isinstance(node, ast.AugAssign) else None
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "version"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_note_epoch"
        ):
            return True
    return False


def table_mutators(source: str):
    return sorted(
        method.name for method in _methods(ast.parse(source), "ShareTable")
        if _writes_state(method)
    )


def test_each_write_handler_makes_one_storage_call():
    found = handler_calls((PROVIDERS / "provider.py").read_text(encoding="utf-8"))
    assert set(found) == WRITE_HANDLERS
    for handler, calls in found.items():
        assert len(calls) == 1, f"{handler} calls {len(calls)} ShareTable mutators"
        assert not calls[0][1], f"{handler} calls {calls[0][0]} inside a loop"


def test_share_table_keeps_one_mutator_per_kind():
    source = (PROVIDERS / "storage.py").read_text(encoding="utf-8")
    assert table_mutators(source) == sorted(MUTATORS)


def test_the_checks_see_what_they_forbid():
    provider = (
        "class ShareProvider:\n"
        "    def _rpc_delete_rows(self, request):\n"
        "        table = self.store.table(request['table'])\n"
        "        for row_id in request['row_ids']:\n"
        "            table.delete_rows([row_id])\n"
        "    def _rpc_update_rows(self, request):\n"
        "        table = self.store.table(request['table'])\n"
        "        n = table.update_rows(request['updates'][:1])\n"
        "        return n + table.update_rows(request['updates'][1:])\n"
        "    def _rpc_insert_many(self, request):\n"
        "        return [t.insert_many(rows) for t, rows in request['pairs']]\n"
        "    def _rpc_select(self, request):\n"
        "        return {}\n"
    )
    assert handler_calls(provider) == {
        "_rpc_delete_rows": [("delete_rows", True)],
        "_rpc_update_rows": [("update_rows", False), ("update_rows", False)],
        "_rpc_insert_many": [("insert_many", True)],
    }
    storage = (
        "class ShareTable:\n"
        "    def insert_many(self, rows, epoch=None):\n"
        "        self.version += len(rows)\n"
        "    def delete(self, row_id, epoch=None):\n"
        "        self.history.append((self._note_epoch(epoch), 'delete', row_id, None))\n"
        "    def update(self, row_id, cells):\n"
        "        self.version += 1\n"
        "    def get(self, row_id):\n"
        "        return self.version\n"
    )
    assert table_mutators(storage) == ["delete", "insert_many", "update"]
