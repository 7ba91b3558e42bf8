"""No module under ``src/repro`` builds code at run time (ISSUE-20).

The last ``exec`` — the provider's schema-specialised row materializer —
went with the join's pair carrier.  Providers run on other people's
machines and every name they see (table and column names included)
arrives over the wire, so a call to ``exec``, ``eval`` or ``compile`` is
a tier-1 failure here rather than something a linter may or may not be
run for (ruff's ``S102`` covers ``exec`` only).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

FORBIDDEN = {"exec", "eval", "compile"}


def _dynamic_code_calls(tree: ast.AST):
    """Line numbers of direct calls to a forbidden builtin.

    ``re.compile(...)`` and other attribute calls are not the builtin and
    are left alone; ``builtins.exec(...)`` is.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in FORBIDDEN:
            yield node.lineno, func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in FORBIDDEN
            and isinstance(func.value, ast.Name)
            and func.value.id in ("builtins", "__builtins__")
        ):
            yield node.lineno, func.attr


def test_nothing_under_src_calls_exec_eval_or_compile():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line} {name}()"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _dynamic_code_calls(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert not found, f"run-time code generation under src/repro: {found}"


def test_the_check_sees_what_it_forbids():
    tree = ast.parse(
        "import re, builtins\n"
        "exec('x = 1')\n"
        "y = eval('1')\n"
        "builtins.compile('1', 'f', 'eval')\n"
        "re.compile('a')\n"
    )
    assert sorted(_dynamic_code_calls(tree)) == [
        (2, "exec"), (3, "eval"), (4, "compile"),
    ]
