"""Only the epoch choke point changes what the row cache holds (ISSUE-21).

The row cache survives writes because ``DataSource.bump_table_epoch`` —
where every write path ends — tells it what each write did.  That is
sound only while nothing else purges or patches the cache: a write path
that called ``row_cache.apply_write`` itself could describe an effect
the epoch never saw, one that called ``invalidate`` would hide a missing
bump.  So under ``src/repro`` the cache's mutating entry points may be
called on a ``row_cache`` from exactly two functions of the client, and
from the benchmark's measurement, which must start cold.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

MUTATORS = {"apply_write", "invalidate", "clear"}

#: every (module, function, mutator) call there is
ALLOWED = [
    # a cost measurement prices a cold statement, never a cache hit
    ("bench/metrics.py", "measure_share_query", "clear"),
    ("client/datasource.py", "DataSource.bump_table_epoch", "apply_write"),
    # re-keying: every cached plaintext row dies with the old secrets
    ("client/datasource.py", "DataSource.rotate_secrets", "clear"),
]


def _mutating_calls(tree: ast.AST, scope: str = ""):
    """``(enclosing function, mutator)`` of every ``….row_cache.<mutator>()``
    (or ``row_cache.<mutator>()``) call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if name == "row_cache" and node.func.attr in MUTATORS:
                yield scope, node.func.attr
        yield from _mutating_calls(node, inner)


def test_only_the_choke_point_mutates_the_row_cache():
    found = [
        (path.relative_to(SRC).as_posix(), function, mutator)
        for path in sorted(SRC.rglob("*.py"))
        for function, mutator in _mutating_calls(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert sorted(found) == ALLOWED


def test_the_check_sees_what_it_forbids():
    tree = ast.parse(
        "class Source:\n"
        "    def flush(self):\n"
        "        self.row_cache.invalidate('t')\n"
        "        self.index.invalidate('t')\n"
        "        self.row_cache.get_row('t', 1, 0)\n"
        "def repair(source, row_cache):\n"
        "    source.row_cache.apply_write('t', 1, {})\n"
        "    row_cache.clear()\n"
    )
    assert sorted(_mutating_calls(tree)) == [
        ("Source.flush", "invalidate"),
        ("repair", "apply_write"),
        ("repair", "clear"),
    ]
