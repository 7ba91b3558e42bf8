"""``WIRE`` stays true both ways: what is sent is declared, and what is
declared is read.

``repro.providers.provider.WIRE`` declares every provider RPC's request
fields, and ``ShareProvider.handle`` refuses a request carrying a field
it does not declare.  Three checks keep the wire honest:

* **runtime** — every ``(method, field)`` pair the read, write and
  router pipeline scenarios send (``batch`` riders and ``txn_apply`` ops
  included) is declared, so a client that starts sending a new field
  fails here, with the pair named, until the table declares it;
* **codec** — every message those scenarios send, requests and
  responses, encodes (``repro.sim.wire``) to exactly the bytes the
  network charged for it and decodes back to itself;
* **static** — the request keys each ``_rpc_*`` handler reads
  (``request[...]``, ``request.get(...)``, ``... in request``, through
  any ``ShareProvider`` method it hands the request to) equal the
  fields its row declares, so a declared field no handler reads fails
  too.
"""

import ast
from pathlib import Path

import pytest

from repro.errors import WireError
from repro.providers import provider as provider_module
from repro.providers.provider import WIRE, ShareProvider
from repro.sim import wire
from repro.sim.network import SimulatedNetwork

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


def _record_sent(monkeypatch):
    """Wrap the one checked path to a handler — top-level requests,
    ``batch`` riders and ``txn_apply`` ops all pass it — and record each
    request's ``(method, field)`` pairs."""
    sent = set()
    checked = ShareProvider._handler

    def recording(self, method, request, *methods):
        if isinstance(request, dict):
            sent.update((method, field) for field in request)
        return checked(self, method, request, *methods)

    monkeypatch.setattr(ShareProvider, "_handler", recording)
    return sent


def _encode_sent(monkeypatch):
    """Wrap the network's two sizing calls — every request and response
    passes one — and put each message through the codec: its encoding
    must be as long as the size the network charged and decode to the
    message.  Returns ``(messages checked, problems)``."""
    checked, problems = [0], []

    def encoding(send):
        def sending(self, src, dst, payload):
            out = send(self, src, dst, payload)
            size = out if type(out) is int else out[0]
            checked[0] += 1
            try:
                data = wire.encode(payload)
                if len(data) != size or wire.decode(data) != payload:
                    problems.append((src, dst, size, len(data), payload))
            except WireError as exc:
                problems.append((src, dst, size, repr(exc), payload))
            return out

        return sending

    for name in ("send", "send_unclocked"):
        monkeypatch.setattr(SimulatedNetwork, name, encoding(getattr(SimulatedNetwork, name)))
    return checked, problems


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """Every read, write and router pipeline scenario, run once with
    both recordings on."""
    from tests.client import test_read_pipeline, test_write_pipeline
    from tests.sharding import test_router_pipeline

    with pytest.MonkeyPatch.context() as monkeypatch:
        sent = _record_sent(monkeypatch)
        encoded = _encode_sent(monkeypatch)
        for module in (test_read_pipeline, test_write_pipeline):
            for number, scenario_id in enumerate(sorted(module.SCENARIOS)):
                wal_dir = tmp_path_factory.mktemp(f"{module.__name__}-{number}")
                module.run_scenario(scenario_id, str(wal_dir))
        for scenario_id in sorted(test_router_pipeline.SCENARIOS):
            test_router_pipeline.run_scenario(scenario_id)
    return sent, encoded


def test_every_field_the_pipeline_scenarios_send_is_declared(replayed):
    sent, _ = replayed
    table = declared()
    undeclared = sorted(
        (method, field) for method, field in sent
        if field not in table.get(method, ())
    )
    assert not undeclared, f"sent but not declared in WIRE: {undeclared}"
    assert {method for method, _ in sent} >= {"select", "insert_many", "txn_apply"}


def test_every_message_the_pipeline_scenarios_send_encodes_at_its_size(replayed):
    """``len(encode(m)) == measure_bytes(m)`` and ``decode(encode(m)) == m``
    for every message the network sized, and no message is one the
    format's headers cannot carry."""
    _, (checked, problems) = replayed
    assert checked[0] > 10_000
    assert not problems, f"{len(problems)} messages off the codec, first: {problems[0]}"
