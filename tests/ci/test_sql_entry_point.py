"""Every SQL entry point goes through ``parse_sql``.

``parse_sql`` keeps one AST template per literal-free statement shape, and
it is the ``sqlengine.sqlparser`` trace target.  A module that drove the
parser's internals itself would bypass both, so no module under
``src/repro`` other than ``sqlengine/sqlparser.py`` may call ``_Parser``,
``tokenize`` or the template internals, or import them.

The template cache is bounded: after ten times its capacity of distinct
shapes it still holds exactly its capacity, and ``parse_sql`` still takes
only the text (the bound is a module constant, not a parameter).
"""

import ast
import inspect
from pathlib import Path

from repro.sqlengine import sqlparser
from repro.sqlengine.sqlparser import parse_sql

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
PARSER = "sqlengine/sqlparser.py"
INTERNALS = {"_Parser", "tokenize", "_template", "_split", "_builder", "_literal"}


def _internal_uses(tree):
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            names = [func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)]
        else:
            continue
        lines.extend(node.lineno for name in names if name in INTERNALS)
    return lines


def test_only_the_parser_module_drives_the_parser():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != PARSER
        for line in _internal_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"SQL parsed around parse_sql (call parse_sql): {found}"


def test_the_check_sees_what_it_forbids():
    tree = ast.parse(
        "from repro.sqlengine.sqlparser import tokenize\n"
        "def run(text):\n"
        "    sqlparser._Parser(text).parse_statement()\n"
        "    return tokenize(text)\n"
    )
    assert sorted(_internal_uses(tree)) == [1, 3, 4]


def test_template_cache_stays_at_capacity():
    capacity = sqlparser._template.cache_info().maxsize
    for i in range(10 * capacity):
        parse_sql(f"SELECT * FROM T{i} WHERE a = {i}")
    assert sqlparser._template.cache_info().currsize == capacity
    assert list(inspect.signature(parse_sql).parameters) == ["text"]
