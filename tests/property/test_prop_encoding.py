"""Property-based tests for codec order preservation and round trips."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import (
    EXTENDED_ALPHABET,
    PAD_CHAR,
    STRING_ALPHABET,
    DateCodec,
    DecimalCodec,
    IntegerCodec,
    StringCodec,
)
from repro.errors import EncodingError

INT_CODEC = IntegerCodec(-(10**9), 10**9)
STR_CODEC = StringCodec(width=8)
DEC_CODEC = DecimalCodec(Decimal(-10_000), Decimal(10_000), scale=2)
DATE_CODEC = DateCodec()

ints = st.integers(min_value=-(10**9), max_value=10**9)
words = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=0, max_size=8)
decimals = st.decimals(
    min_value=Decimal(-10_000), max_value=Decimal(10_000), places=2,
    allow_nan=False, allow_infinity=False,
)
dates = st.dates(
    min_value=datetime.date(1900, 1, 1), max_value=datetime.date(2100, 12, 31)
)


@given(v=ints)
@settings(max_examples=200, deadline=None)
def test_integer_roundtrip(v):
    assert INT_CODEC.decode(INT_CODEC.encode(v)) == v


@given(a=ints, b=ints)
@settings(max_examples=200, deadline=None)
def test_integer_order(a, b):
    assert (INT_CODEC.encode(a) < INT_CODEC.encode(b)) == (a < b)


@given(w=words)
@settings(max_examples=200, deadline=None)
def test_string_roundtrip(w):
    assert STR_CODEC.decode(STR_CODEC.encode(w)) == w


def _decode_per_symbol(codec, number):
    """One ``divmod`` per symbol: the decode the pair table replaces."""
    symbols = []
    for _ in range(codec.width):
        number, digit = divmod(number, codec.base)
        symbols.append(codec.alphabet[digit])
    return "".join(reversed(symbols)).rstrip(PAD_CHAR)


@st.composite
def _encoded(draw):
    alphabet = draw(st.sampled_from([STRING_ALPHABET, EXTENDED_ALPHABET]))
    codec = StringCodec(width=draw(st.integers(1, 12)), alphabet=alphabet)
    top = codec.base**codec.width - 1
    return codec, draw(st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top))


@given(case=_encoded())
@settings(max_examples=300, deadline=None)
def test_string_decode_is_the_per_symbol_one(case):
    """Two symbols per ``divmod`` (odd widths end on one) decode every
    number of either alphabet's domain, both ends included, as one
    symbol per ``divmod`` does; the domain check still comes first."""
    codec, number = case
    assert codec.decode(number) == _decode_per_symbol(codec, number)
    assert codec.decode_many([number, number]) == [codec.decode(number)] * 2
    for outside in (-1, codec.base**codec.width):
        with pytest.raises(EncodingError, match="outside base-"):
            codec.decode(outside)


@given(a=words, b=words)
@settings(max_examples=200, deadline=None)
def test_string_order_matches_padded_comparison(a, b):
    """Base-27 order equals blank-padded lexicographic order (Sec. V-B)."""
    padded_a, padded_b = a.ljust(8, " "), b.ljust(8, " ")
    # '*' (blank) sorts below 'A', matching space below letters
    expected = padded_a < padded_b
    assert (STR_CODEC.encode(a) < STR_CODEC.encode(b)) == expected


@given(w=words, prefix=st.text(alphabet="ABCXYZ", min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_prefix_range_membership(w, prefix):
    low, high = STR_CODEC.prefix_range(prefix)
    encoded = STR_CODEC.encode(w)
    assert (low <= encoded <= high) == w.startswith(prefix)


@given(d=decimals)
@settings(max_examples=200, deadline=None)
def test_decimal_roundtrip(d):
    assert DEC_CODEC.decode(DEC_CODEC.encode(d)) == d


@given(a=decimals, b=decimals)
@settings(max_examples=150, deadline=None)
def test_decimal_order(a, b):
    assert (DEC_CODEC.encode(a) < DEC_CODEC.encode(b)) == (a < b)


@given(d=dates)
@settings(max_examples=150, deadline=None)
def test_date_roundtrip(d):
    assert DATE_CODEC.decode(DATE_CODEC.encode(d)) == d


@given(a=dates, b=dates)
@settings(max_examples=150, deadline=None)
def test_date_order(a, b):
    assert (DATE_CODEC.encode(a) < DATE_CODEC.encode(b)) == (a < b)
