"""Guards for the column-major share-row carrier (ISSUE-19).

* Every row-returning RPC answers with a :class:`ShareRows`, on both
  provider engines and inside ``batch``, sized as its column-major
  encoding (``repro.sim.wire``) — the row-major list it stands for less
  ``tests.column_major.row_major_surplus`` — and an empty match still
  sizes to the row-major empty list's byte count.
* The fault RNG stream is pinned: OMIT draws one number per row in row
  order and TAMPER one per non-NULL share in row-then-column order, so
  ``fault_stream_golden.json`` — captured at the parent commit
  ``40a2669`` (``PYTHONPATH=src python tests/providers/test_share_rows.py``
  there, before any source edit, when responses were row-major lists) —
  holds the rows and shares every seeded chaos and trust test sees.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import pytest

from repro.core import kernels
from repro.providers.failures import Fault, FailureMode
from repro.providers.provider import ShareProvider
from repro.sim import wire
from repro.sim.network import measure_bytes
from tests.column_major import row_major_surplus

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fault_stream_golden.json")

BACKENDS = [
    backend
    for backend in ("numpy", "scalar")
    if backend in kernels.available_backends()
]

WIDE = 1 << 100

# ``ShareRows`` is imported inside the tests that name it: the golden is
# regenerated by running this module at the parent commit, which has none.


def build_provider() -> ShareProvider:
    """24 rows, two searchable columns, NULLs in every column but ``k``."""
    provider = ShareProvider("DAS1")
    provider.handle(
        "create_table",
        {"table": "T", "columns": ["k", "v", "w"], "searchable": ["k", "w"]},
    )
    rows = []
    for rid in range(24):
        rows.append(
            [
                rid * 3 + 1,
                {
                    "k": WIDE + (rid * 7) % 11,
                    "v": None if rid % 5 == 2 else 1000 + rid,
                    "w": None if rid % 6 == 1 else WIDE + 50 - rid,
                },
            ]
        )
    provider.handle("insert_many", {"table": "T", "rows": rows, "epoch": 1})
    provider.handle(
        "update_rows",
        {"table": "T", "updates": [[4, {"v": 5}], [7, {"w": None}]], "epoch": 2},
    )
    return provider


#: stands in for the golden's ``get_rows`` records in the fault stream
STAND_IN = "select_first_four"

#: (name, method, request): wide and narrow matches (both engine rules),
#: projections in non-schema order, provider-side ORDER BY / LIMIT.
REQUESTS = [
    ("select_all", "select", {"table": "T", "conditions": []}),
    (
        "select_projected_range",
        "select",
        {
            "table": "T",
            "conditions": [
                {"column": "k", "op": "range", "low": WIDE + 2, "high": WIDE + 9}
            ],
            "projection": ["w", "k"],
        },
    ),
    (
        "select_narrow",
        "select",
        {"table": "T",
         "conditions": [{"column": "k", "op": "range", "low": WIDE + 3, "high": WIDE + 3}]},
    ),
    (
        "select_topk",
        "select",
        {
            "table": "T",
            "conditions": [],
            "order_by": "w",
            "descending": True,
            "limit": 9,
        },
    ),
    # in the slot of the golden's ``get_rows`` records (that RPC is gone):
    # as many rows and non-NULL shares, so as many fault draws
    (STAND_IN, "select", {"table": "T", "conditions": [], "limit": 4}),
    ("scan", "scan", {"table": "T", "projection": None}),
    ("scan_projected", "scan", {"table": "T", "projection": ["v"]}),
    ("scan_asof", "scan_asof", {"table": "T", "epoch": 1}),
    (
        "batch",
        "batch",
        {
            "requests": [
                ["select", {"table": "T", "conditions": [], "limit": 6}],
                # the rows the golden's get_rows rider read, rows 1 and 4
                ["select", {"table": "T", "conditions": [], "limit": 2}],
            ]
        },
    ),
]


def plain_rows(rows) -> List:
    """JSON-able ``[[row_id, {column: share}], ...]`` of a response's rows."""
    return [[row_id, dict(values)] for row_id, values in rows]


def fault_records(backend: str) -> Dict[str, List]:
    """Every request under one OMIT and one TAMPER fault, stream carried
    from request to request as in a chaos run."""
    previous = kernels.set_kernel_backend(backend)
    try:
        records: Dict[str, List] = {}
        for mode in (FailureMode.OMIT, FailureMode.TAMPER):
            provider = build_provider()
            provider.inject_fault(Fault(mode, rate=0.35, seed=19))
            for name, method, request in REQUESTS:
                response = provider.handle(method, request)
                if method == "batch":
                    rows = [
                        plain_rows(sub[1]["rows"]) for sub in response["responses"]
                    ]
                else:
                    rows = plain_rows(response["rows"])
                records[f"{mode.value}/{name}"] = rows
        return records
    finally:
        kernels.set_kernel_backend(previous)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_streams_draw_what_the_row_major_responses_drew(backend):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    records = fault_records(backend)
    for mode in ("omit", "tamper"):
        del golden[f"{mode}/get_rows"], records[f"{mode}/{STAND_IN}"]
    assert records == golden


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_row_returning_rpc_answers_with_share_rows(backend):
    from repro.sim.network import ShareRows

    previous = kernels.set_kernel_backend(backend)
    try:
        provider = build_provider()
        for name, method, request in REQUESTS:
            response = provider.handle(method, request)
            answers = (
                [sub[1] for sub in response["responses"]]
                if method == "batch"
                else [response]
            )
            for answer in answers:
                rows = answer["rows"]
                assert type(rows) is ShareRows, name
                assert measure_bytes(answer) == len(wire.encode(answer)), name
                assert measure_bytes(answer) == measure_bytes(
                    {"rows": [(rid, dict(values)) for rid, values in rows]}
                ) - row_major_surplus(rows), name
    finally:
        kernels.set_kernel_backend(previous)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_match_sizes_to_the_empty_list(backend):
    from repro.sim.network import ShareRows

    previous = kernels.set_kernel_backend(backend)
    try:
        provider = build_provider()
        nothing = [{"column": "k", "op": "range", "low": 5, "high": 5}]
        for method, request in [
            ("select", {"table": "T", "conditions": nothing}),
            # an empty match never validates its projection (row-major rule)
            ("select", {"table": "T", "conditions": nothing, "projection": ["zz"]}),
        ]:
            response = provider.handle(method, request)
            assert type(response["rows"]) is ShareRows
            assert len(response["rows"]) == 0
            assert measure_bytes(response) == measure_bytes({"rows": []}) == 14
        provider.handle("delete_rows", {"table": "T", "row_ids": list(range(1, 72, 3))})
        for method in ("scan", "select"):
            response = provider.handle(method, {"table": "T", "projection": None})
            assert type(response["rows"]) is ShareRows
            assert measure_bytes(response) == 14
    finally:
        kernels.set_kernel_backend(previous)


if __name__ == "__main__":  # at the parent commit only
    golden = fault_records(BACKENDS[0])
    for other in BACKENDS[1:]:
        assert fault_records(other) == golden, other
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print({name: len(rows) for name, rows in golden.items()})
