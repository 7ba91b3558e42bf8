"""A provider's result faults are applied at one point.

A lying provider (TAMPER, OMIT) changes an answer as the answer is sent:
``ShareProvider.handle`` and every ``batch`` rider pass their response
through ``_as_sent``, which knows each response shape.  A handler that
read the fault itself would be a second place deciding how a lie bends
an answer, free to draw in another order.  So, read statically: in
``providers/provider.py`` only ``_as_sent``, ``_check_available`` (CRASH
and FLAKY refusals), ``inject_fault``, ``clear_fault`` and ``__init__``
(which starts with none) name ``self.fault``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
PROVIDER = ROOT / "src" / "repro" / "providers" / "provider.py"

ALLOWED = {"_as_sent", "_check_available", "inject_fault", "clear_fault", "__init__"}


def fault_readers(source: str):
    """Names of the functions in ``source`` that name ``self.fault`` (an
    attribute, or the string ``"fault"`` handed to ``getattr`` and its
    kin)."""
    readers = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute) and node.attr == "fault"
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ) or (isinstance(node, ast.Constant) and node.value == "fault"):
                readers.add(function.name)
    return readers


def test_only_the_fault_point_touches_the_fault():
    readers = fault_readers(PROVIDER.read_text(encoding="utf-8"))
    assert readers <= ALLOWED, (
        f"provider.py functions naming self.fault beyond the fault point: "
        f"{sorted(readers - ALLOWED)}"
    )
    assert {"_as_sent", "_check_available"} <= readers


def test_the_check_sees_a_handler_reading_the_fault():
    source = '''
class P:
    def _rpc_select(self, request):
        if self.fault is not None:
            pass
    def _rpc_scan(self, request):
        return getattr(self, "fault")
'''
    assert fault_readers(source) == {"_rpc_select", "_rpc_scan"}
