"""Unit tests for the order-preserving polynomial construction (Sec. IV)."""

import pytest

from repro.core.order_preserving import (
    IntegerDomain,
    MonotoneStrawmanScheme,
    OrderPreservingScheme,
)
from repro.core.secrets import generate_client_secrets
from repro.errors import ConfigurationError, DomainError, ReconstructionError


@pytest.fixture
def secrets():
    return generate_client_secrets(5, seed=3)


@pytest.fixture
def scheme(secrets):
    return OrderPreservingScheme(
        secrets, IntegerDomain(0, 10_000), threshold=4, label="test"
    )


class TestIntegerDomain:
    def test_size(self):
        assert IntegerDomain(0, 9).size == 10
        assert IntegerDomain(-5, 5).size == 11

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegerDomain(5, 4)

    def test_rank(self):
        domain = IntegerDomain(10, 20)
        assert domain.rank(10) == 0
        assert domain.rank(20) == 10

    def test_rank_outside_raises(self):
        with pytest.raises(DomainError):
            IntegerDomain(0, 5).rank(6)

    def test_clamp(self):
        domain = IntegerDomain(0, 100)
        assert domain.clamp(-5) == 0
        assert domain.clamp(105) == 100
        assert domain.clamp(50) == 50

    def test_contains(self):
        domain = IntegerDomain(-3, 3)
        assert domain.contains(-3) and domain.contains(3)
        assert not domain.contains(4)


class TestConstruction:
    def test_threshold_bounds(self, secrets):
        domain = IntegerDomain(0, 10)
        with pytest.raises(ConfigurationError):
            OrderPreservingScheme(secrets, domain, threshold=1)
        with pytest.raises(ConfigurationError):
            OrderPreservingScheme(secrets, domain, threshold=6)

    def test_slot_width_validation(self, secrets):
        with pytest.raises(ConfigurationError):
            OrderPreservingScheme(
                secrets, IntegerDomain(0, 10), threshold=2, slot_width=0
            )

    def test_polynomial_constant_term_is_value(self, scheme):
        assert scheme.polynomial_for(777).constant_term == 777

    def test_polynomial_degree_is_k_minus_1(self, scheme):
        assert scheme.polynomial_for(5).degree == 3


class TestDeterminism:
    def test_same_value_same_shares(self, scheme):
        assert scheme.split(42) == scheme.split(42)

    def test_same_label_same_family(self, secrets):
        a = OrderPreservingScheme(
            secrets, IntegerDomain(0, 100), threshold=3, label="shared"
        )
        b = OrderPreservingScheme(
            secrets, IntegerDomain(0, 100), threshold=3, label="shared"
        )
        assert a.split(7) == b.split(7)

    def test_different_label_different_shares(self, secrets):
        a = OrderPreservingScheme(
            secrets, IntegerDomain(0, 100), threshold=3, label="one"
        )
        b = OrderPreservingScheme(
            secrets, IntegerDomain(0, 100), threshold=3, label="two"
        )
        assert a.split(7) != b.split(7)


class TestOrderPreservation:
    """The scheme's defining property: v1 < v2 ⇒ share(v1,i) < share(v2,i)."""

    def test_order_preserved_at_every_provider(self, scheme):
        values = [0, 1, 17, 500, 4_999, 5_000, 9_999, 10_000]
        for i in range(scheme.n_providers):
            shares = [scheme.share(v, i) for v in values]
            assert shares == sorted(shares)
            assert len(set(shares)) == len(shares)  # strict

    def test_adjacent_values_strictly_ordered(self, scheme):
        for v in (0, 100, 9_999):
            for i in range(scheme.n_providers):
                assert scheme.share(v, i) < scheme.share(v + 1, i)

    def test_negative_domain_order(self, secrets):
        scheme = OrderPreservingScheme(
            secrets, IntegerDomain(-1000, 1000), threshold=3, label="neg"
        )
        values = [-1000, -500, -1, 0, 1, 999, 1000]
        for i in range(scheme.n_providers):
            shares = [scheme.share(v, i) for v in values]
            assert shares == sorted(shares)


class TestRangeRewriting:
    def test_share_range_brackets_exactly(self, scheme):
        low, high = scheme.share_range(100, 200, 0)
        assert low == scheme.share(100, 0)
        assert high == scheme.share(200, 0)
        # values inside map inside, values outside map outside
        assert low <= scheme.share(150, 0) <= high
        assert scheme.share(99, 0) < low
        assert scheme.share(201, 0) > high

    def test_range_clamps_out_of_domain_bounds(self, scheme):
        low, high = scheme.share_range(-50, 999_999, 0)
        assert low == scheme.share(0, 0)
        assert high == scheme.share(10_000, 0)

    def test_empty_range_rejected(self, scheme):
        with pytest.raises(DomainError):
            scheme.share_range(5, 4, 0)

    @pytest.mark.parametrize("low, high", [(-10, -5), (-10, -1), (20_000, 30_000), (10_001, 10_001)])
    def test_range_wholly_outside_the_domain_rejected(self, scheme, low, high):
        # clamping both ends would bracket the share of an edge value that
        # the range does not contain
        with pytest.raises(DomainError, match="outside domain"):
            scheme.share_range(low, high, 0)

    @pytest.mark.parametrize("low, high, edge", [(-10, 0, 0), (10_000, 30_000, 10_000)])
    def test_range_touching_the_domain_keeps_its_edge(self, scheme, low, high, edge):
        assert scheme.share_range(low, high, 0) == (scheme.share(edge, 0),) * 2


class TestReconstruction:
    def test_roundtrip(self, scheme):
        for value in (0, 1, 42, 9_999, 10_000):
            shares = scheme.split(value)
            assert scheme.reconstruct(dict(enumerate(shares))) == value

    def test_any_k_of_n(self, scheme):
        import itertools

        shares = scheme.split(1234)
        for combo in itertools.combinations(range(5), 4):
            assert scheme.reconstruct({i: shares[i] for i in combo}) == 1234

    def test_too_few_shares(self, scheme):
        shares = scheme.split(5)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct({0: shares[0], 1: shares[1], 2: shares[2]})

    def test_tampered_share_detected(self, scheme):
        shares = dict(enumerate(scheme.split(5)))
        shares[0] += 12345
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(shares)

    def test_out_of_domain_value_rejected(self, scheme):
        with pytest.raises(DomainError):
            scheme.split(10_001)

    def test_verify_share(self, scheme):
        share = scheme.share(77, 2)
        assert scheme.verify_share(77, 2, share)
        assert not scheme.verify_share(77, 2, share + 1)

    def test_max_share_magnitude_bounds_all_shares(self, scheme):
        bound = scheme.max_share_magnitude()
        for v in (0, 5_000, 10_000):
            for i in range(scheme.n_providers):
                assert abs(scheme.share(v, i)) <= bound


class TestStrawman:
    def test_order_preserved(self, secrets):
        scheme = MonotoneStrawmanScheme(secrets, IntegerDomain(0, 1000))
        values = [0, 10, 500, 1000]
        for i in range(secrets.n_providers):
            shares = [scheme.share(v, i) for v in values]
            assert shares == sorted(shares)

    def test_shares_are_affine_in_secret(self, secrets):
        """The leak the paper demonstrates: share = A_i * v + B_i."""
        scheme = MonotoneStrawmanScheme(secrets, IntegerDomain(0, 1000))
        slope, intercept = scheme.affine_form(0)
        for v in (0, 1, 77, 1000):
            assert scheme.share(v, 0) == slope * v + intercept

    def test_negative_slopes_rejected(self, secrets):
        with pytest.raises(ConfigurationError):
            MonotoneStrawmanScheme(
                secrets, IntegerDomain(0, 10), slopes=(-1, 2, 3)
            )

    def test_threshold_validation(self, secrets):
        with pytest.raises(ConfigurationError):
            MonotoneStrawmanScheme(secrets, IntegerDomain(0, 10), threshold=1)
