"""A ``batch`` rider is answered, faults included, as if it came alone.

A lying provider bends an answer as it is sent, in one place that
``handle`` and every ``batch`` rider share, so a batch of riders under
TAMPER or OMIT must get exactly the answers the same requests get one by
one from an identically seeded provider: the same rows dropped, the same
shares perturbed, and the fault's stream left where the lone requests
leave it.  Covered per response shape: share rows (``select``, both
sides of a ``join``), a SUM partial, a MIN nomination, and grouped SUM
partials.
"""

from __future__ import annotations

import pytest

from repro.core import kernels
from repro.providers.failures import Fault, FailureMode
from repro.providers.provider import ShareProvider

BACKENDS = [
    backend
    for backend in ("numpy", "scalar")
    if backend in kernels.available_backends()
]

WIDE = 1 << 100

REQUESTS = [
    ["select", {"table": "T", "conditions": [
        {"column": "k", "op": "range", "low": WIDE + 2, "high": WIDE + 9}]}],
    ["aggregate", {"table": "T", "func": "sum", "column": "v"}],
    ["aggregate", {"table": "T", "func": "min", "column": "w", "conditions": [
        {"column": "k", "op": "range", "low": WIDE + 4, "high": WIDE + 4}]}],
    ["aggregate_group", {"table": "T", "func": "sum", "group_column": "k", "column": "v"}],
    ["join", {"left": "T", "right": "U", "left_column": "k", "right_column": "k"}],
]


def build_provider(mode=None) -> ShareProvider:
    """40 rows in ``T`` (NULLs in ``v`` and ``w``) and 6 in ``U``."""
    provider = ShareProvider("DAS1")
    provider.handle(
        "create_table",
        {"table": "T", "columns": ["k", "v", "w"], "searchable": ["k", "w"]},
    )
    provider.handle("create_table", {"table": "U", "columns": ["k", "x"], "searchable": ["k"]})
    provider.handle("insert_many", {"table": "T", "rows": [
        [rid, {
            "k": WIDE + (rid * 7) % 11,
            "v": None if rid % 5 == 2 else 1000 + rid,
            "w": None if rid % 6 == 1 else WIDE + 50 - rid,
        }]
        for rid in range(40)
    ]})
    provider.handle("insert_many", {"table": "U", "rows": [
        [rid, {"k": WIDE + rid * 2, "x": rid}] for rid in range(6)
    ]})
    if mode is not None:
        # a seed whose draws bend every shape the mode touches (asserted)
        provider.inject_fault(Fault(mode, rate=0.35, seed=20))
    return provider


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", [FailureMode.TAMPER, FailureMode.OMIT])
def test_a_batch_rider_gets_the_answer_it_gets_alone(backend, mode):
    previous = kernels.set_kernel_backend(backend)
    try:
        clean = [build_provider().handle(m, r) for m, r in REQUESTS]
        lone, batching = build_provider(mode), build_provider(mode)
        alone = [lone.handle(m, r) for m, r in REQUESTS]
        batched = batching.handle("batch", {"requests": REQUESTS})
        # both faults' streams are left in the same place
        next_alone, next_batched = lone.handle(*REQUESTS[0]), batching.handle(*REQUESTS[0])
    finally:
        kernels.set_kernel_backend(previous)
    assert batched["responses"] == [["ok", answer] for answer in alone]
    assert next_batched == next_alone
    changed = [m for (m, _), a, c in zip(REQUESTS, alone, clean) if a != c]
    # OMIT drops rows, nominations and groups; it leaves a SUM alone
    assert len(changed) == len(REQUESTS) - (mode is FailureMode.OMIT), changed
