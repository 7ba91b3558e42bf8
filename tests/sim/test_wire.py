"""The codec of ``repro.sim.wire`` against the closed forms it backs.

``measure_bytes`` and ``ShareRows.wire_size`` size messages without
encoding them; here every size is held to ``len(encode(m))`` and every
encoding to ``decode(encode(m)) == m``.  The pipeline scenarios' own
messages are replayed through the same two checks by
``tests/ci/test_wire_contract.py``.
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WireError
from repro.sim import wire
from repro.sim.network import ShareRows, measure_bytes
from tests.sim.test_network import Colour, TaggedInt, share_rows

_ints = st.one_of(
    st.sampled_from([0, 1, -1, 255, 256, -256, 2**122, -(2**122), 2**123 + 1, -(2**200)]),
    st.integers(min_value=-(2**260), max_value=2**260),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _ints.map(TaggedInt),
    st.sampled_from(list(Colour)),
    st.floats(allow_nan=False),
    st.decimals(allow_nan=False, allow_infinity=False, places=3),
    st.text(max_size=8),
    st.binary(max_size=8),
)
_keys = st.one_of(st.text(max_size=6), _ints, st.booleans(), st.none())
_values = st.recursive(
    st.one_of(_scalars, share_rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=30,
)


def round_trip(message):
    data = wire.encode(message)
    assert len(data) == measure_bytes(message)
    decoded = wire.decode(data)
    assert decoded == message
    return decoded


@given(message=_values)
@settings(max_examples=400, deadline=None)
def test_every_value_round_trips_at_its_measured_size(message):
    round_trip(message)


@given(rows=share_rows(), other=share_rows())
@settings(max_examples=200, deadline=None)
def test_row_responses_round_trip_in_their_envelopes(rows, other):
    round_trip({"rows": rows})
    round_trip({"left": rows, "right": other})
    round_trip({"responses": [["ok", {"rows": rows}], ["err", "ProviderError", "x"]]})
    round_trip({"requests": [["insert_many", {"table": "t", "rows": rows, "epoch": 3}]]})


def test_zero_rows_are_four_bytes_and_an_empty_match_fourteen():
    assert wire.encode(ShareRows([], ("a", "b"), [[], []])) == bytes([0x90, 0, 0, 0])
    assert len(wire.encode({"rows": ShareRows([], (), [])})) == 14


def test_share_rows_name_their_columns_once():
    rows = ShareRows([1, 2, 3], ("salary",), [[10, None, 2**121]])
    decoded = round_trip(rows)
    assert decoded.columns == ("salary",) and decoded.row_ids == [1, 2, 3]
    assert wire.encode(rows).count(b"salary") == 1


def test_big_shares_of_both_signs_keep_their_sign_and_magnitude():
    for value in (2**122 + 5, -(2**122 + 5), 0, -1):
        assert round_trip(value) == value and type(round_trip(value)) is int
    rows = round_trip(ShareRows([0], ("a",), [[-(2**130)]]))
    assert list(rows) == [(0, {"a": -(2**130)})]


def test_lists_tuples_and_decimals_come_back_as_themselves():
    decoded = round_trip({"t": (1, "x"), "l": [1, "x"], "d": Decimal("-2.50")})
    assert type(decoded["t"]) is tuple and type(decoded["l"]) is list
    assert str(decoded["d"]) == "-2.50"


@pytest.mark.parametrize(
    "value, match",
    [
        ("x" * 4096, "12-bit length"),
        (1 << (8 * 4096), "12-bit length"),
        (b"\0" * 5000, "12-bit length"),
        (object(), "no rule for type object"),
        ({"k": {1, 2}}, "no rule for type set"),
        (ShareRows([1, 2], ("a",), [[5]]), "ragged"),
    ],
    ids=["long-str", "long-int", "long-bytes", "object", "set", "ragged"],
)
def test_what_the_headers_cannot_carry_raises_a_wire_error(value, match):
    with pytest.raises(WireError, match=match):
        wire.encode(value)


def test_the_longest_carried_string_fits():
    assert round_trip("x" * 4095) == "x" * 4095


@pytest.mark.parametrize(
    "data", [b"", b"\x04", b"\xa0\0\0\0", b"\x10\x02\x01", b"\x60\0\0\x01", b"\x00\x00"]
)
def test_bytes_that_are_no_single_value_raise_a_wire_error(data):
    with pytest.raises(WireError):
        wire.decode(data)
