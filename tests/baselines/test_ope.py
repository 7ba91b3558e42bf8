"""Unit tests for order-preserving encryption."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.ope import OrderPreservingEncryption
from repro.core.order_preserving import IntegerDomain
from repro.errors import ConfigurationError, DomainError
from repro.sim.costmodel import CostRecorder

KEY = b"\x07" * 32


@pytest.fixture
def ope():
    return OrderPreservingEncryption(KEY, IntegerDomain(0, 1000))


class TestConstruction:
    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            OrderPreservingEncryption(b"x", IntegerDomain(0, 10))

    def test_small_expansion_rejected(self):
        with pytest.raises(ConfigurationError):
            OrderPreservingEncryption(KEY, IntegerDomain(0, 10), expansion_bits=4)


class TestMonotonicity:
    def test_strictly_increasing_dense(self):
        ope = OrderPreservingEncryption(KEY, IntegerDomain(0, 300))
        previous = -1
        for v in range(301):
            current = ope.encrypt(v)
            assert current > previous, v
            previous = current

    def test_strictly_increasing_sparse(self, ope):
        values = [0, 1, 7, 100, 500, 999, 1000]
        ciphers = [ope.encrypt(v) for v in values]
        assert ciphers == sorted(ciphers)
        assert len(set(ciphers)) == len(ciphers)

    def test_negative_domain(self):
        ope = OrderPreservingEncryption(KEY, IntegerDomain(-100, 100))
        assert ope.encrypt(-100) < ope.encrypt(0) < ope.encrypt(100)

    def test_deterministic(self, ope):
        assert ope.encrypt(42) == ope.encrypt(42)

    def test_key_dependence(self):
        domain = IntegerDomain(0, 1000)
        a = OrderPreservingEncryption(b"\x01" * 32, domain)
        b = OrderPreservingEncryption(b"\x02" * 32, domain)
        assert [a.encrypt(v) for v in (1, 2, 3)] != [b.encrypt(v) for v in (1, 2, 3)]

    def test_out_of_domain_rejected(self, ope):
        with pytest.raises(DomainError):
            ope.encrypt(1001)

    def test_singleton_domain(self):
        ope = OrderPreservingEncryption(KEY, IntegerDomain(5, 5))
        assert ope.encrypt(5) == 0


class TestRangeEncryption:
    def test_range_brackets_members_exactly(self, ope):
        lo, hi = ope.encrypt_range(100, 200)
        assert lo == ope.encrypt(100) and hi == ope.encrypt(200)
        assert lo <= ope.encrypt(150) <= hi
        assert ope.encrypt(99) < lo and ope.encrypt(201) > hi

    def test_range_clamps(self, ope):
        lo, hi = ope.encrypt_range(-50, 99999)
        assert lo == ope.encrypt(0) and hi == ope.encrypt(1000)

    def test_empty_range_rejected(self, ope):
        with pytest.raises(DomainError):
            ope.encrypt_range(5, 4)

    def test_cost_recorded(self, ope):
        cost = CostRecorder("t")
        ope.encrypt(500, cost=cost)
        assert cost.count("hash") >= 9  # ~log2(1001) descent steps


class TestWideDomains:
    def test_string_sized_domain(self):
        # 27^8 ≈ 2.8e11: descent depth ~38, must stay strict
        ope = OrderPreservingEncryption(KEY, IntegerDomain(0, 27**8 - 1))
        values = [0, 1, 27**4, 27**8 - 2, 27**8 - 1]
        ciphers = [ope.encrypt(v) for v in values]
        assert ciphers == sorted(ciphers)
        assert len(set(ciphers)) == len(ciphers)


WIDE = OrderPreservingEncryption(b"\x0a" * 32, IntegerDomain(0, 2**20))
wide_values = st.integers(min_value=0, max_value=2**20)


@given(a=wide_values, b=wide_values)
@settings(max_examples=200, deadline=None)
def test_ope_strictly_monotone(a, b):
    ca, cb = WIDE.encrypt(a), WIDE.encrypt(b)
    if a < b:
        assert ca < cb
    elif a > b:
        assert ca > cb
    else:
        assert ca == cb
