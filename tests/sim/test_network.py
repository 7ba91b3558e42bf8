"""Unit tests for the simulated network and byte accounting."""

import enum
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.network import (
    LatencyModel,
    NetworkStats,
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
