"""Unit tests for the simulated network and byte accounting."""

import enum
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.network import (
    LatencyModel,
    NetworkStats,
    ShareRows,
    SimulatedNetwork,
    measure_bytes,
)


class TestMeasureBytes:
    def test_primitives(self):
        assert measure_bytes(None) == 1
        assert measure_bytes(True) == 1
        assert measure_bytes(0) == 3  # 2 header + 1 magnitude byte
        assert measure_bytes(255) == 3
        assert measure_bytes(256) == 4
        assert measure_bytes(1.5) == 9

    def test_big_integers_cost_more(self):
        small = measure_bytes(100)
        huge = measure_bytes(2**200)
        assert huge > small + 20

    def test_negative_magnitude(self):
        assert measure_bytes(-256) == measure_bytes(256)

    def test_strings_and_bytes(self):
        assert measure_bytes("abc") == 5
        assert measure_bytes(b"abc") == 5
        assert measure_bytes("é") == 2 + 2  # UTF-8 two bytes

    def test_decimal(self):
        assert measure_bytes(Decimal("1.25")) == 2 + 4

    def test_containers(self):
        assert measure_bytes([1, 2]) == 4 + 3 + 3
        assert measure_bytes((1,)) == 4 + 3
        assert measure_bytes({"a": 1}) == 4 + 3 + 3

    def test_nested(self):
        payload = {"rows": [[1, {"k": 2}]]}
        assert measure_bytes(payload) > 0

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            measure_bytes(object())


class Colour(enum.IntEnum):
    RED = 1
    WIDE = 2**70


class TaggedInt(int):
    """A plain ``int`` subclass: must size like the int it is."""


class Sized:
    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size


def reference_bytes(payload):
    """The wire format of ``repro.sim.network``'s docstring, line by line."""
    if payload is None or payload is True or payload is False:
        return 1
    if isinstance(payload, int):
        return 2 + max(1, len(f"{abs(int(payload)):x}") + 1 >> 1)
    if isinstance(payload, float):
        return 8 + 1
    if isinstance(payload, Decimal):
        return 2 + len(str(payload))
    if isinstance(payload, str):
        return 2 + len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return 2 + len(payload)
    if isinstance(payload, (list, tuple)):
        return 4 + sum(reference_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            reference_bytes(k) + reference_bytes(v) for k, v in payload.items()
        )
    return payload.wire_size()


_ints = st.one_of(
    st.sampled_from([0, 1, -1, 255, 256, -256, 2**64, -(2**64), 2**121]),
    st.integers(min_value=-(2**130), max_value=2**130),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _ints.map(TaggedInt),
    st.sampled_from(list(Colour)),
    st.floats(allow_nan=False),
    st.decimals(allow_nan=False, allow_infinity=False, places=3),
    st.text(alphabet="abcXYZ_09", max_size=12),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(min_value=0, max_value=500).map(Sized),
)
_keys = st.one_of(st.text(max_size=6), _ints, st.booleans(), st.none())
payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=40,
)


class TestMeasureBytesAgainstDocumentedFormat:
    @given(payload=payloads)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, payload):
        assert measure_bytes(payload) == reference_bytes(payload)

    def test_bool_is_one_byte_wherever_it_sits(self):
        """``bool`` is an ``int`` subclass; it must never size as one."""
        assert measure_bytes(True) == measure_bytes(False) == 1
        assert measure_bytes([True, False]) == 4 + 1 + 1
        assert measure_bytes({True: False}) == 4 + 1 + 1
        assert measure_bytes({"rows": [(7, {"flag": True})]}) == (
            4 + (2 + 4) + 4 + 4 + 3 + 4 + (2 + 4) + 1
        )

    def test_int_subclasses_size_as_ints(self):
        assert measure_bytes(Colour.RED) == measure_bytes([Colour.RED]) - 4 == 3
        assert measure_bytes((TaggedInt(2**64),)) == 4 + 2 + 9

    def test_share_response_shape(self):
        """The row-major select response, cell by cell."""
        response = {"rows": [(3, {"a": 2**100, "b": None}), (4, {"a": -5, "b": 0})]}
        assert measure_bytes(response) == 4 + 6 + 4 + (
            (4 + 3 + 4 + (3 + 15) + (3 + 1)) + (4 + 3 + 4 + (3 + 3) + (3 + 3))
        )

    @pytest.mark.parametrize(
        "payload", [object(), [1, object()], {"k": {2, 3}}, (1, [complex(1)])]
    )
    def test_unknown_type_raises_wherever_it_sits(self, payload):
        with pytest.raises(TypeError, match="cannot size object of type"):
            measure_bytes(payload)


_shares = st.one_of(
    st.sampled_from([0, 1, 255, 256, 2**121, 2**122 - 1, -7]),
    st.integers(min_value=0, max_value=2**122),
)
#: what a store can be handed besides shares: sized by the generic rules
_odd_cells = st.one_of(
    st.floats(allow_nan=False), _ints.map(TaggedInt), st.text(max_size=4)
)
_column_names = st.lists(
    st.one_of(st.sampled_from(["k", "salary", "zoë", "名前"]), st.text(max_size=5)),
    unique=True,
    max_size=4,
)


@st.composite
def share_rows(draw):
    """A column-major result: 0/1/n rows, any projection (none included),
    NULLs in some columns only, now and then a non-share cell."""
    columns = tuple(draw(_column_names))
    row_ids = draw(
        st.lists(st.integers(0, 2**40), unique=True, max_size=draw(st.sampled_from([0, 1, 9])))
    )
    cells = []
    for _ in columns:
        kind = draw(st.sampled_from(["shares", "shares", "nullable", "odd"]))
        cell = {
            "shares": _shares,
            "nullable": st.none() | _shares,
            "odd": st.none() | _shares | _odd_cells,
        }[kind]
        cells.append(
            draw(st.lists(cell, min_size=len(row_ids), max_size=len(row_ids)))
        )
    return ShareRows(row_ids, columns, cells)


class TestShareRowsSizeAsTheirRowMajorList:
    """The carrier is columnar, the wire format is not: a ``ShareRows``
    sizes to the bytes of ``[(row_id, {column: share}), ...]``."""

    @given(rows=share_rows())
    @settings(max_examples=300, deadline=None)
    def test_wire_size_is_the_row_major_size(self, rows):
        pairs = [
            (row_id, dict(zip(rows.columns, cells)))
            for row_id, cells in zip(
                rows.row_ids, zip(*rows.shares) if rows.columns else [()] * len(rows)
            )
        ]
        assert list(rows) == pairs
        assert measure_bytes({"rows": rows}) == measure_bytes({"rows": pairs})
        assert measure_bytes({"rows": rows}) == reference_bytes({"rows": pairs})
        # inside a batch envelope too
        assert measure_bytes({"responses": [["ok", {"rows": rows}]]}) == (
            reference_bytes({"responses": [["ok", {"rows": pairs}]]})
        )

    def test_the_share_response_shape_cell_by_cell(self):
        rows = ShareRows([3, 4], ("a", "b"), [(2**100, -5), (None, 0)])
        assert list(rows) == [(3, {"a": 2**100, "b": None}), (4, {"a": -5, "b": 0})]
        assert measure_bytes({"rows": rows}) == 4 + 6 + 4 + (
            (4 + 3 + 4 + (3 + 15) + (3 + 1)) + (4 + 3 + 4 + (3 + 3) + (3 + 3))
        )

    def test_an_empty_projection_still_carries_its_row_ids(self):
        rows = ShareRows([7, 2**20], (), [])
        assert list(rows) == [(7, {}), (2**20, {})]
        assert rows.wire_size() == 4 + (4 + 3 + 4) + (4 + 5 + 4)
        assert ShareRows([], (), []).wire_size() == measure_bytes([]) == 4

    def test_take_reorders_and_is_the_identity_on_its_own_row_ids(self):
        rows = ShareRows([5, 6, 9], ("a", "b"), [(50, 60, 90), (None, 61, 91)])
        assert rows.take([5, 6, 9]) is rows
        assert list(rows.take([9, 5])) == [(9, {"a": 90, "b": 91}), (5, {"a": 50, "b": None})]
        assert len(rows.take([])) == 0


class TestLatencyModel:
    def test_transfer_time(self):
        model = LatencyModel(rtt_seconds=0.1, bandwidth_bits_per_second=1000)
        # 125 bytes = 1000 bits → 1 s + half-RTT
        assert model.transfer_seconds(125) == pytest.approx(1.05)


class TestNetworkStats:
    def test_per_link_breakdown(self):
        stats = NetworkStats()
        stats.record("c", "s1", 100)
        stats.record("c", "s2", 50)
        stats.record("s1", "c", 30)
        assert stats.bytes_between("c", "s1") == 100
        assert stats.bytes_to("c") == 30
        assert stats.bytes_from("c") == 150
        assert stats.messages_sent == 3
        assert stats.snapshot() == {"messages": 3, "bytes": 180}


class TestSimulatedNetwork:
    def test_send_accounts(self):
        network = SimulatedNetwork()
        size = network.send("a", "b", {"x": [1, 2, 3]})
        assert size == measure_bytes({"x": [1, 2, 3]})
        assert network.total_bytes == size
        assert network.total_messages == 1
        assert network.modelled_seconds > 0

    def test_reset(self):
        network = SimulatedNetwork()
        network.send("a", "b", 42)
        network.reset()
        assert network.total_bytes == 0
        assert network.modelled_seconds == 0.0
