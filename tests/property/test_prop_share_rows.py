"""Property tests for the column-major read path (ISSUE-19).

The client's :func:`reconstruct_rows` consumes the providers'
``ShareRows`` a column at a time and aligns rows by position; the oracle
here is the per-row path it replaced — ``align_by_row_id`` into a dict of
dicts, then ``TableSharing.reconstruct_row`` one row at a time — over a
table with every codec, order-preserving and randomly-shared columns and
NULLs, when responders return *different* row-id sets (omitted rows, rows
below threshold, an id fabricated by a minority), in any order (a pushed
``ORDER BY … LIMIT`` is not row-id order), with row-cache hits between
the misses.  Errors must be the per-row path's, type and text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.reconstruct import (
    align_by_row_id,
    reconstruct_rows,
    reconstruct_rows_checked,
    rows_from_responses,
)
from repro.client.rowcache import RowCache
from repro.errors import ReconstructionError, ReproError
from repro.sim.costmodel import CostRecorder
from repro.sim.network import ShareRows
from tests.client.test_load_path import ledger_rows, ledger_schema, ledger_sharing

SCHEMA = ledger_schema()
NAMES = tuple(SCHEMA.column_names)
N_PROVIDERS, THRESHOLD = 5, 3
ROWS = [SCHEMA.validate_row(row) for row in ledger_rows(14)]
SHARING = ledger_sharing()
ROW_IDS = [3 * r + 2 for r in range(len(ROWS))]
#: SHARED[i][r] is provider i's share row of ROWS[r]; row r has id 3 r + 2
SHARED = [[values for _, values in batch] for batch in SHARING.share_rows(ROWS, ROW_IDS)]
#: what the rows decode to (the string codec folds case)
PLAIN = [
    SHARING.reconstruct_row({i: SHARED[i][r] for i in range(N_PROVIDERS)})
    for r in range(len(ROWS))
]
EPOCH = 4


def share_rows_of(provider, positions, shared=SHARED):
    """Provider ``provider``'s column-major answer holding ``positions``."""
    return ShareRows(
        [ROW_IDS[r] for r in positions],
        NAMES,
        [[shared[provider][r][name] for r in positions] for name in NAMES],
    )


@st.composite
def answers(draw, shared=SHARED):
    """``{provider: {"rows": ShareRows}}`` for 3..5 responders, each
    holding its own subset of the rows in its own order."""
    responders = draw(
        st.lists(
            st.integers(0, N_PROVIDERS - 1), min_size=3, max_size=5, unique=True
        )
    )
    matched = draw(st.lists(st.integers(0, len(ROWS) - 1), unique=True, max_size=12))
    honest = draw(st.booleans())
    responses = {}
    for provider in responders:
        held = (
            matched
            if honest
            else [r for r in matched if draw(st.integers(0, 9)) > 1]
        )
        if not honest and draw(st.booleans()):
            held = draw(st.permutations(held))
        responses[provider] = {"rows": share_rows_of(provider, list(held), shared)}
    if draw(st.booleans()):
        # one provider makes a row up: a minority, so it must be dropped
        liar = responses[responders[0]]["rows"]
        responses[responders[0]]["rows"] = ShareRows(
            liar.row_ids + [999],
            NAMES,
            [list(cells) + [12345] for cells in liar.shares],
        )
    return responses


def per_row_oracle(responses, cached=()):
    """The replaced path: dict-of-dicts alignment, one row at a time."""
    pairs, interpolated = [], 0
    aligned = align_by_row_id(rows_from_responses(responses))
    for row_id, share_rows in aligned.items():
        if len(share_rows) < THRESHOLD:
            continue
        if row_id in cached:
            pairs.append((row_id, PLAIN[ROW_IDS.index(row_id)]))
            continue
        row = SHARING.reconstruct_row(share_rows)
        interpolated += len(row)
        pairs.append((row_id, row))
    return pairs, interpolated


@settings(max_examples=120, deadline=None)
@given(answers(), st.sets(st.sampled_from(ROW_IDS), max_size=6))
def test_column_major_reconstruction_is_the_per_row_one(responses, warm):
    cache = RowCache()
    cache.put_rows("Ledger", EPOCH, [(row_id, PLAIN[ROW_IDS.index(row_id)]) for row_id in warm])
    expected, interpolated = per_row_oracle(responses)
    assert expected == [
        (row_id, PLAIN[ROW_IDS.index(row_id)]) for row_id, _ in expected
    ]
    cost = CostRecorder("client")
    assert reconstruct_rows(SHARING, responses, cost=cost) == expected
    assert cost.count("interpolate") == interpolated
    # row-cache hits interleaved with the misses: same rows, only the
    # misses interpolated, every fresh row written back
    _, interpolated = per_row_oracle(responses, cached=warm)
    cost = CostRecorder("client")
    got = reconstruct_rows(
        SHARING, responses, cost=cost, row_cache=cache, cache_epoch=EPOCH
    )
    assert got == expected
    assert cost.count("interpolate") == interpolated
    assert cost.snapshot() == ({"interpolate": interpolated} if interpolated else {})
    assert cache.get_rows("Ledger", [row_id for row_id, _ in expected], EPOCH, NAMES) == dict(
        expected
    )


@settings(max_examples=60, deadline=None)
@given(answers())
def test_a_checked_decode_keeps_what_a_majority_returned(responses):
    """The checked decode votes on presence row by row: a row a strict
    majority of the responders returned comes back (when at least k did)
    and every responder missing it is blamed; a row a strict minority
    returned is dropped and its holders are blamed; a tie raises.  A
    short result never comes back unblamed."""
    responding = set(responses)
    kept, blamed, tie = [], set(), False
    for row_id, share_rows in align_by_row_id(rows_from_responses(responses)).items():
        present = set(share_rows)
        if 2 * len(present) == len(responding):
            tie = True
        elif 2 * len(present) > len(responding):
            blamed |= responding - present
            if len(present) >= THRESHOLD:
                kept.append(row_id)
        else:
            blamed |= present
    if tie:
        with pytest.raises(ReconstructionError, match="presence tie"):
            reconstruct_rows_checked(SHARING, responses)
        return
    pairs, blame = reconstruct_rows_checked(SHARING, responses)
    assert pairs == [(row_id, PLAIN[ROW_IDS.index(row_id)]) for row_id in kept]
    assert blame == sorted(blamed)


def corrupted(position, provider, column, change):
    """SHARED with one cell of one provider's copy changed."""
    shared = [[dict(share_row) for share_row in rows] for rows in SHARED]
    cell = shared[provider][position][column]
    shared[provider][position][column] = change(cell)
    return shared


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    st.integers(0, len(ROWS) - 1),
    st.sampled_from(NAMES),
    st.sampled_from(["tamper", "to_null", "from_null"]),
)
def test_a_corrupt_cell_raises_what_the_per_row_path_raises(
    data, position, column, kind
):
    """A tampered share and a NULL-presence disagreement: same exception
    type and text, or — a tampered randomly-shared cell, which nothing
    but a redundant share can catch — the same wrong value."""
    clean = SHARED[0][position][column]
    if (clean is None) != (kind == "from_null"):
        kind = "to_null" if clean is not None else "from_null"
    change = {
        "tamper": lambda share: share + 1,
        "to_null": lambda share: None,
        "from_null": lambda share: 77,
    }[kind]
    responses = data.draw(answers(corrupted(position, 0, column, change)))
    try:
        expected, _ = per_row_oracle(responses)
    except ReproError as oracle_error:
        with pytest.raises(type(oracle_error)) as caught:
            reconstruct_rows(SHARING, responses)
        assert type(caught.value) is type(oracle_error)
        assert str(caught.value) == str(oracle_error)
    else:
        assert reconstruct_rows(SHARING, responses) == expected


def test_unsorted_provider_order_comes_back_in_row_id_order():
    """A pushed-down ``ORDER BY … LIMIT`` answers in share order, the same
    at every honest provider: equal row-id lists that are not ascending."""
    order = [5, 0, 9, 3]
    responses = {i: {"rows": share_rows_of(i, order)} for i in (4, 1, 2)}
    assert reconstruct_rows(SHARING, responses) == [
        (ROW_IDS[r], PLAIN[r]) for r in sorted(order)
    ]


def test_a_row_returned_twice_by_one_provider_counts_once():
    twice = share_rows_of(0, [1, 2, 1])
    responses = {
        0: {"rows": twice},
        1: {"rows": share_rows_of(1, [1, 2])},
        2: {"rows": share_rows_of(2, [1, 2])},
    }
    expected, _ = per_row_oracle(responses)
    assert reconstruct_rows(SHARING, responses) == expected == [
        (ROW_IDS[1], PLAIN[1]),
        (ROW_IDS[2], PLAIN[2]),
    ]
