"""``WIRE`` stays true both ways: what is sent is declared, and what is
declared is read.

``repro.providers.provider.WIRE`` declares every provider RPC's request
fields, and ``ShareProvider.handle`` refuses a request carrying a field
it does not declare.  Four checks keep the wire honest:

* **runtime** — every ``(method, field)`` pair the read, write and
  router pipeline scenarios send (``batch`` riders and ``txn_apply`` ops
  included) is declared, so a client that starts sending a new field
  fails here, with the pair and the scenario named, until the table
  declares it;
* **codec** — every message those scenarios send, requests and
  responses, encodes (``repro.sim.wire``) to exactly the bytes the
  network charged for it and decodes back to itself;
* **clock** — a round never waits less for a bigger message, so share
  rows sized row-major (``tests.column_major``, checked per scenario by
  each pipeline module) could not make a modelled clock fall;
* **static** — the request keys each ``_rpc_*`` handler reads
  (``request[...]``, ``request.get(...)``, ``... in request``, through
  any ``ShareProvider`` method it hands the request to) equal the
  fields its row declares, so a declared field no handler reads fails
  too.

Both runtime checks read each scenario's one run per session, the run
its pipeline module's main test checks (``tests.pipeline_runs``).
"""

import ast
from pathlib import Path

import pytest

from repro.providers import provider as provider_module
from repro.providers.cluster import ProviderCluster
from repro.providers.provider import WIRE
from tests import pipeline_runs
from tests.column_major import share_rows
from tests.client import test_read_pipeline, test_write_pipeline
from tests.sharding import test_router_pipeline

PROVIDER = Path(provider_module.__file__)


def declared():
    return {method: set().union(*forms) for method, forms in WIRE.items()}


# ------------------------------------------------------------------ static --


def _request_reads(function: ast.FunctionDef):
    """The string keys ``function`` reads off its ``request`` argument,
    and the ``self`` methods it hands ``request`` to."""
    keys, callees = set(), set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "request"
            and isinstance(node.slice, ast.Constant)
        ):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (
                isinstance(func.value, ast.Name) and func.value.id == "request"
                and func.attr == "get" and isinstance(node.args[0], ast.Constant)
            ):
                keys.add(node.args[0].value)
            elif (
                isinstance(func.value, ast.Name) and func.value.id == "self"
                and any(isinstance(a, ast.Name) and a.id == "request" for a in node.args)
            ):
                callees.add(func.attr)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.ops[0], ast.In)
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "request"
        ):
            keys.add(node.left.value)
    return keys, callees


def _handler_reads():
    tree = ast.parse(PROVIDER.read_text(encoding="utf-8"))
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ShareProvider"
    )
    reads = {
        node.name: _request_reads(node)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    }

    def closure(name, seen):
        keys, callees = reads[name]
        out = set(keys)
        for callee in callees - seen:
            out |= closure(callee, seen | {callee})
        return out

    return {
        name[len("_rpc_"):]: closure(name, {name})
        for name in reads if name.startswith("_rpc_")
    }


def test_every_rpc_has_a_row_and_every_row_a_handler():
    assert set(_handler_reads()) == set(WIRE)


@pytest.mark.parametrize("method", sorted(WIRE))
def test_a_handler_reads_exactly_the_fields_its_row_declares(method):
    assert _handler_reads()[method] == declared()[method]


def test_the_static_check_sees_every_way_a_handler_reads():
    source = (
        "class ShareProvider:\n"
        "    def _rpc_x(self, request):\n"
        "        a = request['a']\n"
        "        b = request.get('b')\n"
        "        if 'c' in request:\n"
        "            self._helper(1, request)\n"
        "    def _helper(self, n, request):\n"
        "        return request['d']\n"
    )
    cls = ast.parse(source).body[0]
    reads = {node.name: _request_reads(node) for node in cls.body}
    assert reads["_rpc_x"] == ({"a", "b", "c"}, {"_helper"})
    assert reads["_helper"] == ({"d"}, set())


# ----------------------------------------------------------------- runtime --


def _runs():
    """``(module::scenario id, its one run)`` of every pipeline scenario."""
    for module in (test_read_pipeline, test_write_pipeline, test_router_pipeline):
        for sid in sorted(module.SCENARIOS):
            yield f"{module.__name__}::{sid}", pipeline_runs.run(module.__name__, sid)


def test_every_field_the_pipeline_scenarios_send_is_declared():
    table = declared()
    sent, undeclared = set(), []
    for scenario_id, run in _runs():
        sent |= run.fields
        undeclared += [
            (scenario_id, method, field) for method, field in sorted(run.fields)
            if field not in table.get(method, ())
        ]
    assert not undeclared, f"sent but not declared in WIRE: {undeclared}"
    assert {method for method, _ in sent} >= {"select", "insert_many", "txn_apply"}


def test_every_message_the_pipeline_scenarios_send_encodes_at_its_size():
    """``len(encode(m)) == measure_bytes(m)`` and ``decode(encode(m)) == m``
    for every message the network sized, and no message is one the
    format's headers cannot carry."""
    checked, problems = 0, []
    for scenario_id, run in _runs():
        checked += run.messages
        problems += [(scenario_id, *problem) for problem in run.off_codec]
    assert checked > 10_000
    assert not problems, f"{len(problems)} messages off the codec, first: {problems[0]}"


def test_a_bigger_message_never_makes_a_round_shorter():
    """A modelled clock cannot fall when share rows are sized row-major: a
    round waits for its slowest or k-th fastest message, and a bigger
    message never waits less (all, first_k, an unavailable provider,
    serial).  The per-scenario half — the surplus of every ``ShareRows``
    and what reads bytes and clocks — is each pipeline module's
    ``test_column_major_moves_by_the_declared_formula``; here, only that
    those runs do send share rows for it to hold."""
    assert sum(
        1 for _, run in _runs() for group in run.calls for _, _, request, response in group
        for _ in share_rows([request, response])
    ) > 5_000
    elapsed, times = ProviderCluster._round_elapsed, {0: 0.2, 1: 0.1, 2: 0.3}
    for shape in ((None, "all", 0, 30.0, False), (2, "first_k", 0, 30.0, False),
                  (None, "all", 1, 30.0, False), (None, "all", 1, 30.0, True)):
        for index in times:
            bigger = {**times, index: times[index] + 0.05}
            for sent, back in ((bigger, times), (times, bigger)):
                assert sum(elapsed(sent, back, *shape)) >= sum(elapsed(times, times, *shape))
