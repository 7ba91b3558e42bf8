"""Property tests for the column-major load path (ISSUE-18).

* ``TableSharing.share_rows`` is ``share_value`` cell by cell, row-major in
  schema column order — bit for bit, the random columns' RNG stream
  included — whatever the batch size, the NULLs and the duplicates, and
  equals the batches of one ``share_row`` makes of it; each provider's
  batch is one ``ShareRows`` under the row ids it was handed.  (The
  anchor to the parent commit's shares is
  ``tests/client/test_load_path.py``.)
* A rejected batch raises what validating row by row raises first.
* ``Codec.encode_many`` is ``encode`` per value, position of the first
  failure included.
* ``SortedShareIndex.bulk_load`` leaves ``sorted(existing + staged)``,
  entry for entry, whatever the batch-to-index ratio; and under any
  interleaving of ``insert`` / ``remove`` / ``bulk_load`` — row ids past
  ``2**64``, shares below zero — every read of the index answers what a
  plain sorted list of ``(share, row_id)`` tuples answers; and what no
  index can key, the ``ShareTable`` in front of it refuses before any
  state changes.  The index properties run with the block bound cut to
  2–4 keys, so the draws split blocks, empty them and widen row ids
  across many of them.
* A reader beside a writer never raises: each read answers from one
  published snapshot of the blocks.
"""

import datetime
import math
import sys
import threading
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import (
    BooleanCodec,
    ColumnEncodingError,
    DateCodec,
    DecimalCodec,
    IntegerCodec,
    StringCodec,
)
from repro.core import kernels
from repro.errors import ProviderError, SchemaError
from repro.providers import storage
from repro.providers.storage import ShareTable, SortedShareIndex
from repro.sim.network import ShareRows
from tests.client.test_load_path import ledger_rows, ledger_schema, ledger_sharing

SCHEMA = ledger_schema()
#: a bound past every share an index here holds
FAR = 1 << 200
RANDOM_COLUMNS = [c.name for c in SCHEMA.columns if not c.searchable]

# ----------------------------------------------------------------- share_rows --

_dates = st.dates(datetime.date(2009, 1, 1), datetime.date(2009, 1, 9))
_cells = {
    "lid": st.integers(0, 40),
    "owner": st.sampled_from(["ANNA", "BOB", "bob", "", "ZZZZZZ"]),
    "amount": st.none() | st.integers(0, 8).map(lambda n: Decimal(n) / 4),
    "opened": st.none() | _dates,
    "active": st.booleans(),
    "balance": st.none() | st.integers(-3, 3),
    "note": st.none() | st.sampled_from(["", "N", "NOTE"]),
    "fee": st.integers(0, 3).map(lambda n: Decimal(n) / 8),
    "closed": st.none() | _dates,
    "flagged": st.booleans(),
}
ledger_row = st.fixed_dictionaries(_cells)
ledger_batches = st.lists(ledger_row, min_size=0, max_size=12)


def row_major(shared):
    """``share_rows``'s per-provider ``ShareRows`` as lists of share rows."""
    return [[values for _, values in batch] for batch in shared]


def cell_by_cell(sharing, rows):
    """The per-value path: one ``share_value`` per cell, rows then columns."""
    by_provider = [[] for _ in range(sharing.n_providers)]
    for row in rows:
        share_rows = [{} for _ in by_provider]
        for column in sharing.schema.column_names:
            for share_row, share in zip(share_rows, sharing.share_value(column, row[column])):
                share_row[column] = share
        for out, share_row in zip(by_provider, share_rows):
            out.append(share_row)
    return by_provider


@settings(max_examples=60, deadline=None)
@given(ledger_batches, ledger_batches)
def test_share_rows_is_share_value_cell_by_cell(first, second):
    batched, oracle, one_by_one = ledger_sharing(), ledger_sharing(), ledger_sharing()
    # two calls: the second continues the first's RNG stream
    for rows in (first, second):
        row_ids = [7 * r + 1 for r in range(len(rows))]
        shared = batched.share_rows(rows, row_ids)
        assert row_major(shared) == cell_by_cell(oracle, rows)
        singles = [one_by_one.share_row(row) for row in rows]
        assert row_major(shared) == [list(column) for column in zip(*singles)] or not rows
        for batch in shared:
            assert batch.row_ids == row_ids
            assert batch.columns == tuple(SCHEMA.column_names)


@pytest.mark.parametrize("size", [0, 1, 2, 200])
def test_share_rows_at_the_batch_sizes_the_system_sends(size):
    rows = ledger_rows(size)
    shared = ledger_sharing().share_rows(rows, range(size))
    assert [len(share_rows) for share_rows in shared] == [size] * 5
    assert row_major(shared) == cell_by_cell(
        ledger_sharing(), [SCHEMA.validate_row(r) for r in rows]
    )


def test_equal_plaintexts_share_alike_only_where_the_scheme_says_so():
    row = ledger_rows(1)[0]
    sharing = ledger_sharing()
    for share_rows in row_major(sharing.share_rows([row, dict(row), dict(row)], [0, 1, 2])):
        a, b, c = share_rows
        for column in SCHEMA.column_names:
            if a[column] is None:
                assert b[column] is None and c[column] is None
            elif column in RANDOM_COLUMNS:
                # a fresh polynomial per cell: never memoised
                assert len({a[column], b[column], c[column]}) == 3
            else:
                assert a[column] == b[column] == c[column]


_bad_cells = st.sampled_from([
    ("lid", -1), ("lid", "7"), ("lid", True), ("owner", "TOOLONGNAME"), ("owner", "A1"),
    ("owner", None), ("amount", Decimal("0.001")), ("amount", "x"), ("opened", "2009-01-01"),
    ("active", 1), ("balance", 10**10), ("note", 5), ("note", ["N"]), ("fee", None),
    ("closed", datetime.datetime(2009, 1, 1)), ("flagged", None), ("bonus", 1),
])


@settings(max_examples=120, deadline=None)
@given(
    st.lists(ledger_row, min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), _bad_cells), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["lid", "fee", "note"])), max_size=2),
)
def test_a_rejected_batch_raises_what_row_by_row_validation_meets_first(rows, spoil, drop):
    rows = [dict(row) for row in rows]
    for position, (column, value) in spoil:
        rows[position % len(rows)][column] = value
    for position, column in drop:
        rows[position % len(rows)].pop(column, None)
    expected = None
    for row in rows:
        try:
            SCHEMA.validate_row(row)
        except SchemaError as exc:
            expected = str(exc)
            break
    sharing = ledger_sharing()
    row_ids = range(len(rows))
    if expected is None:  # the spoiled cells were all dropped or overwritten
        sharing.share_rows(rows, row_ids)
        return
    with pytest.raises(SchemaError) as caught:
        sharing.share_rows(rows, row_ids)
    assert str(caught.value) == expected
    # nothing was drawn: the next batch shares as on a fresh sharing
    good = ledger_rows(3)
    assert sharing.share_rows(good, range(3)) == ledger_sharing().share_rows(good, range(3))


# ---------------------------------------------------------------- encode_many --

_codecs_and_values = st.one_of(
    st.tuples(st.just(IntegerCodec(-5, 50)), st.lists(st.integers(-5, 50), max_size=20)),
    st.tuples(
        st.just(StringCodec(4)),
        st.lists(st.text(alphabet="ABCabcZ", max_size=4), max_size=20),
    ),
    st.tuples(
        st.just(DecimalCodec(Decimal(0), Decimal(10), 2)),
        st.lists(st.integers(0, 1000).map(lambda n: Decimal(n) / 100), max_size=20),
    ),
    st.tuples(
        st.just(DateCodec()),
        st.lists(st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 12, 31)), max_size=20),
    ),
    st.tuples(st.just(BooleanCodec()), st.lists(st.booleans(), max_size=20)),
)
_junk = st.sampled_from([None, -6, 51, "ABCDE", "A*", "é", 1.5, True, [1], b"A", Decimal("0.001")])


@settings(max_examples=200, deadline=None)
@given(_codecs_and_values, st.lists(st.tuples(st.integers(0, 30), _junk), max_size=3))
def test_encode_many_is_encode_per_value(codec_and_values, junk):
    codec, values = codec_and_values
    values = list(values)
    for position, value in junk:
        values.insert(position % (len(values) + 1), value)
    expected, failure = [], None
    for position, value in enumerate(values):
        try:
            expected.append(codec.encode(value))
        except Exception as exc:
            failure = (position, type(exc), str(exc))
            break
    if failure is None:
        assert codec.encode_many(values) == expected
        return
    with pytest.raises(ColumnEncodingError) as caught:
        codec.encode_many(values)
    error = caught.value
    assert (error.position, type(error.__cause__), str(error)) == failure


# ------------------------------------------------------------------ bulk_load --

#: shares drawn from a few values, so duplicates and ties are the norm
_shares = st.sampled_from([(1 << 92) + 1, (1 << 92) + 2, (1 << 111), (1 << 120) + 7]) | (
    st.integers(0, 1 << 122)
)


def _pairs(size):
    return st.lists(st.tuples(_shares, st.integers(0, 50)), min_size=size[0], max_size=size[1])


def _load(index, pairs):
    """``bulk_load`` of ``(share, row_id)`` pairs, handed over as columns."""
    index.bulk_load([share for share, _ in pairs], [row_id for _, row_id in pairs])


#: block bounds small enough that a few dozen entries span many blocks
_small_blocks = st.integers(2, 4)


def _blocks_hold_the_entries(index):
    """The blocks are non-empty, within the bound, and their maxima are
    their last keys."""
    blocks, maxes, size, _, _ = index._state
    assert all(0 < len(block) <= storage._BLOCK for block in blocks)
    assert maxes == [block[-1] for block in blocks]
    assert sum(map(len, blocks)) == size == len(index)


@settings(max_examples=150, deadline=None)
@given(
    _pairs((0, 60)),
    st.one_of(_pairs((0, 3)), _pairs((30, 90))),
    st.sampled_from("<>="),
    _small_blocks,
)
def test_bulk_load_equals_sorting_everything(existing, staged, where, block):
    with mock.patch.object(storage, "_BLOCK", block):
        _bulk_load_equals_sorting_everything(existing, staged, where)


def _bulk_load_equals_sorting_everything(existing, staged, where):
    # staged entirely below / above / interleaved with what is there
    if where == "<":
        staged = [(share - (1 << 123), rid) for share, rid in staged]
    elif where == ">":
        staged = [(share + (1 << 123), rid) for share, rid in staged]
    index = SortedShareIndex("c")
    _load(index, existing)
    before = index.entries_in_order()
    assert before == sorted(existing)
    _load(index, staged)
    after = index.entries_in_order()
    assert after == sorted(existing + staged)
    assert len(index) == len(existing) + len(staged)
    # copies: neither an earlier reader's list nor the index's own
    assert before == sorted(existing)
    assert index.entries_in_order() is not after
    after.clear()
    assert len(index) == len(existing) + len(staged)
    _blocks_hold_the_entries(index)


@pytest.mark.parametrize("m", [0, 1, 10, 1_000, 10_000])
def test_bulk_load_at_every_batch_to_index_ratio(m):
    # m in {0, 1, n/100, n, 10n} against n = 1,000 order-preserving-sized shares
    n = 1_000
    existing = [((i * 7919) % 1009 + (1 << 100), i) for i in range(n)]
    staged = [((i * 104729) % 1013 + (1 << 100), n + i) for i in range(m)]
    for keys in (4, storage._BLOCK):
        with mock.patch.object(storage, "_BLOCK", keys):
            index = SortedShareIndex("c")
            _load(index, existing)
            _load(index, staged)
            assert index.entries_in_order() == sorted(existing + staged)
            _blocks_hold_the_entries(index)


# ------------------------------------------- the whole index against a list --

#: both signs, a few repeated values, and small ones a half-integer splits
_signed_shares = _shares | _shares.map(lambda share: -share) | st.integers(-3, 3)
#: row ids of every width: small, either side of int64 and of 2**64, past both
_row_ids = (
    st.integers(0, 40)
    | st.sampled_from([(1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 70])
    | st.integers(0, 1 << 72)
)
#: what no index may key: a pair with one of these in it is refused whole
_junk_shares = st.sampled_from([2.5, "x", True, Decimal(1), math.nan])
_junk_row_ids = st.sampled_from([-1, -(1 << 70), 2.0, "7", True, None])

_index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _signed_shares, _row_ids),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        st.tuples(st.just("remove missing"), _signed_shares, _row_ids),
        st.tuples(
            st.just("bulk_load"),
            st.lists(st.tuples(st.none() | _signed_shares, _row_ids), max_size=50),
        ),
        st.tuples(
            st.just("refused"),
            st.lists(st.tuples(_signed_shares, _row_ids), max_size=5),
            st.tuples(_junk_shares, _row_ids) | st.tuples(_signed_shares, _junk_row_ids),
            st.integers(0, 5),
        ),
    ),
    max_size=10,
)


def _bounds(oracle):
    """Range bounds around what is stored: the shares themselves and
    their neighbours, bounds past every share, and any int."""
    shares = sorted({share for share, _ in oracle}) or [0]
    near = st.sampled_from(shares).flatmap(lambda s: st.sampled_from([s - 1, s, s + 1]))
    return near | st.sampled_from([-FAR, FAR]) | st.integers(-(1 << 130), 1 << 130)


@settings(max_examples=100, deadline=None)
@given(_index_ops, st.data(), _small_blocks)
def test_the_index_answers_what_a_sorted_list_of_pairs_answers(ops, data, block):
    with mock.patch.object(storage, "_BLOCK", block):
        _the_index_answers_what_a_sorted_list_of_pairs_answers(ops, data)


def _the_index_answers_what_a_sorted_list_of_pairs_answers(ops, data):
    index, oracle = SortedShareIndex("c"), []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            index.insert(op[1], op[2])
            oracle = sorted(oracle + [op[1:]])
        elif kind == "remove" and oracle:
            pair = oracle.pop(op[1] % len(oracle))
            index.remove(*pair)
        elif kind == "remove missing" and op[1:] not in oracle:
            with pytest.raises(ProviderError):
                index.remove(*op[1:])
        elif kind == "bulk_load":
            _load(index, op[1])
            oracle = sorted(oracle + [pair for pair in op[1] if pair[0] is not None])
        elif kind == "refused":
            # the table in front of every index refuses it, batch and row
            good, junk, position = op[1:]
            batch = good[:position] + [junk] + good[position:]
            table = ShareTable("T", ["c"], ["c"])
            with pytest.raises(ProviderError):
                table.insert_many(
                    ShareRows([r for _, r in batch], ("c",), [[s for s, _ in batch]])
                )
            with pytest.raises(ProviderError):
                table.insert_many(ShareRows.from_pairs([(junk[1], {"c": junk[0]})]))
            assert len(table) == 0 and table.indexes["c"].entries_in_order() == []
        assert index.entries_in_order() == oracle
        _blocks_hold_the_entries(index)
    assert len(index) == len(oracle)
    assert index.min_entry() == (oracle[0] if oracle else None)
    assert index.max_entry() == (oracle[-1] if oracle else None)
    partners = {}
    for share, row_id in oracle:
        partners.setdefault(share, []).append(row_id)
    assert index.equality_map() == partners
    if kernels.numpy_module() is not None:
        vector = index.vector_entries()
        if any(row_id >= 1 << 63 for _, row_id in oracle):
            assert vector is None  # a row id past int64 is not mirrored
        else:
            ranks = [len({s for s, _ in oracle[: at + 1]}) - 1 for at in range(len(oracle))]
            assert [array.tolist() for array in vector] == [
                [row_id for _, row_id in oracle], ranks
            ]
    bounds = _bounds(oracle)
    for _ in range(6):
        low, high = data.draw(bounds), data.draw(bounds)
        expected = [row_id for share, row_id in oracle if low <= share <= high]
        start, stop = index.entry_range(low, high)
        assert [row_id for _, row_id in oracle[start:stop]] == expected
        assert max(0, stop - start) == len(expected)
        assert index.range_row_ids(low, high) == expected


# ------------------------------------------------------- block boundaries --


def _spread(count, start=0):
    """``count`` pairs with distinct shares, handed over out of order."""
    return [((i * 37) % count - count // 2, start + i) for i in range(count)]


def test_removes_that_empty_blocks_leave_every_read_whole():
    with mock.patch.object(storage, "_BLOCK", 3):
        index, oracle = SortedShareIndex("c"), sorted(_spread(40))
        _load(index, oracle)
        assert len(index._state[0]) > 10
        # empty the first, a middle and the last block, then all but one entry
        for victims in (index._state[0][0], index._state[0][5], index._state[0][-1]):
            for key in list(victims):
                pair = (key >> 64, key & ((1 << 64) - 1))
                index.remove(*pair)
                oracle.remove(pair)
                _blocks_hold_the_entries(index)
            assert index.entries_in_order() == oracle
            assert index.entry_range(-FAR, FAR) == (0, len(oracle))
            assert index.min_entry() == oracle[0] and index.max_entry() == oracle[-1]
        while len(oracle) > 1:
            index.remove(*oracle.pop(len(oracle) // 2))
            _blocks_hold_the_entries(index)
            low, high = oracle[0][0], oracle[-1][0]
            assert index.range_row_ids(low, high) == [row_id for _, row_id in oracle]
        index.remove(*oracle.pop())
        assert index._state[0] == [] and len(index) == 0
        assert index.range_row_ids(-FAR, FAR) == [] and index.entry_range(0, 9) == (0, 0)
        assert index.min_entry() is None and index.max_entry() is None
        assert index.equality_map() == {}
        # and an emptied index loads again
        _load(index, _spread(9))
        assert index.entries_in_order() == sorted(_spread(9))


def test_a_row_id_widening_rekeys_every_block():
    with mock.patch.object(storage, "_BLOCK", 4):
        index, oracle = SortedShareIndex("c"), _spread(200)
        _load(index, oracle[:100])
        for share, row_id in oracle[100:]:
            index.insert(share, row_id)
        assert len(index._state[0]) > 40
        wide = [(0, 1 << 70), (-5, (1 << 64) + 3), (99, 1 << 130)]
        _load(index, wide[:2])
        index.insert(*wide[2])
        oracle = sorted(oracle + wide)
        _blocks_hold_the_entries(index)
        assert index.entries_in_order() == oracle
        assert index.range_row_ids(-5, 0) == [
            row_id for share, row_id in oracle if -5 <= share <= 0
        ]
        partners = {}
        for share, row_id in oracle:
            partners.setdefault(share, []).append(row_id)
        assert index.equality_map() == partners
        index.remove(99, 1 << 130)
        assert index.max_entry() == oracle[-2]


def test_a_reader_beside_a_writer_never_raises():
    """Readers read while one writer loads, inserts and removes — as a
    ``SELECT`` does beside a group-commit leader's ``txn_apply``.  Two
    readers and the writer outnumber the cores a small host has."""
    failures, done = [], threading.Event()

    def read(index):
        while not done.is_set():
            try:
                # point probes at every share the writer uses, the
                # highest (last blocks, which removes empty) included
                for share in range(-16, 61):
                    index.entry_range(share, share + 1)
                    index.range_row_ids(share, share - 1)
                    index.equal_row_ids(share)
                row_ids = index.range_row_ids(-FAR, FAR)
                assert len(row_ids) == len(set(row_ids))
                index.entry_range(0, FAR)
                index.min_entry(), index.max_entry()
                index.vector_entries()
                for partners in index.equality_map().values():
                    assert partners == sorted(partners)
            except Exception as exc:  # noqa: BLE001 - any raise is the failure
                failures.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(storage, "_BLOCK", 4):
            index = SortedShareIndex("c")
            readers = [threading.Thread(target=read, args=(index,)) for _ in range(2)]
            for reader in readers:
                reader.start()
            try:
                live = []
                for round_ in range(60):
                    batch = _spread(30, start=1000 * round_)
                    _load(index, batch)
                    live += batch
                    for i in range(5):
                        pair = (round_ - i, 1000 * round_ + 900 + i)
                        index.insert(*pair)
                        live.append(pair)
                    for _ in range(20):
                        index.remove(*live.pop((7 * round_) % len(live)))
            finally:
                done.set()
                for reader in readers:
                    reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert index.entries_in_order() == sorted(live)
