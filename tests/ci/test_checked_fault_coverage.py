"""Every fault mode that corrupts what a provider returns runs against
every checked shape of the read pipeline
(``tests/client/test_read_pipeline.py``) — the reads, and the writes and
maintenance calls that read on a checked source: the checked read
(``verified_reads=True``) is the one verified read, every read of a
checked source is one, and a mode it never meets is one nothing shows it
survives.

A mode corrupts results when a fault of it at rate 1 changes a share-row
answer (``Fault.corrupt_share_rows``); CRASH and FLAKY refuse requests
instead and leave what is returned alone."""

import pytest

from repro.providers.failures import Fault, FailureMode
from repro.sim.network import ShareRows
from tests.client import test_read_pipeline

ANSWER = ShareRows([1, 2], ("a",), [[10, 20]])
CORRUPTING = [mode for mode in FailureMode if Fault(mode).corrupt_share_rows(ANSWER) != ANSWER]
CHECKED = (
    "select_checked", "join_checked",
    # writes: eager and pure-delta UPDATE, DELETE; direct, through the
    # manager, through the lazy buffer; in-place increments
    "direct_checked", "txn_checked", "lazy_checked", "increment_checked",
    # maintenance that reads whole tables
    "resync_table_checked", "refresh_table_shares_checked",
    "rotate_secrets_checked", "scan_asof_checked",
)


def _mode(fault: str):
    entry = test_read_pipeline.FAULTS[fault]
    return None if entry is None else entry[1]().mode


def test_tamper_and_omit_are_the_modes_that_corrupt_results():
    assert CORRUPTING == [FailureMode.TAMPER, FailureMode.OMIT]


@pytest.mark.parametrize("mode", CORRUPTING, ids=lambda mode: mode.value)
@pytest.mark.parametrize("entry", CHECKED)
def test_every_checked_shape_runs_under_every_corrupting_mode(entry, mode):
    ids = [sid.split("/") for sid in test_read_pipeline.SCENARIOS if sid.startswith(f"{entry}/")]
    shapes = {tuple(shape) for _, *shape, _ in ids}
    covered = {tuple(shape) for _, *shape, fault in ids if _mode(fault) is mode}
    assert shapes and covered == shapes, sorted(shapes - covered)
