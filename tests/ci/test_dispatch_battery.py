"""The backend-parity battery covers exactly the RPCs with an engine choice.

``ShareProvider._note_dispatch(method, vectorized)`` is called by every
RPC that picks between the scalar and the numpy engine, and
``benchmarks/bench_provider.py --check`` runs a battery whose
``eligible`` methods it asserts the numpy run answered vectorized and
the scalar run did not.  An RPC that gains a vector engine without
joining that list is never held to the scalar oracle there; one that
loses its engine but stays listed fails the check for the wrong reason.
So the two sets must be equal, read statically: the string literals
``provider.py`` passes to ``_note_dispatch``, and the battery's own
``eligible`` comprehension evaluated over the battery's method names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
PROVIDER = ROOT / "src" / "repro" / "providers" / "provider.py"
BENCH = ROOT / "benchmarks" / "bench_provider.py"


def _dispatched_methods():
    tree = ast.parse(PROVIDER.read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_note_dispatch"
    ]
    methods = set()
    for call in calls:
        first = call.args[0] if call.args else None
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
            f"provider.py:{call.lineno} passes _note_dispatch a method name "
            "that is not a string literal"
        )
        methods.add(first.value)
    return methods


def _battery_eligible():
    tree = ast.parse(BENCH.read_text(encoding="utf-8"))
    function = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "assert_backend_equivalence"
    )
    assigned = {
        target.id: node.value
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    methods = [entry.elts[0].value for entry in assigned["battery"].elts]
    comprehension = ast.Expression(assigned["eligible"])
    eligible = eval(  # the comprehension only filters the names it is given
        compile(comprehension, str(BENCH), "eval"),
        {"battery": [(method, None) for method in methods]},
    )
    return methods, set(eligible)


def test_dispatching_rpcs_equal_the_parity_battery_eligible_set():
    dispatched = _dispatched_methods()
    methods, eligible = _battery_eligible()
    assert dispatched, "provider.py notes no engine choice"
    assert dispatched == eligible, (
        f"RPCs choosing an engine: {sorted(dispatched)}; "
        f"battery eligible list: {sorted(eligible)}"
    )
    assert eligible <= set(methods)
