"""Unit tests for Shamir sharing, including the Figure 1 reproduction."""

import pytest

from repro.core.field import DEFAULT_FIELD
from repro.core.secrets import generate_client_secrets, secrets_with_points
from repro.core.shamir import (
    ShamirScheme,
    figure1_shares,
    reconstruct_value,
    salaries_from_figure1,
    split_value,
)
from repro.errors import ConfigurationError, ReconstructionError
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def scheme():
    return ShamirScheme(generate_client_secrets(5, seed=1), threshold=3)


class TestConfiguration:
    def test_threshold_bounds(self):
        secrets = generate_client_secrets(3, seed=0)
        with pytest.raises(ConfigurationError):
            ShamirScheme(secrets, threshold=0)
        with pytest.raises(ConfigurationError):
            ShamirScheme(secrets, threshold=4)

    def test_threshold_equal_n_allowed(self):
        secrets = generate_client_secrets(3, seed=0)
        assert ShamirScheme(secrets, threshold=3).threshold == 3


class TestSplitReconstruct:
    def test_roundtrip(self, scheme):
        rng = DeterministicRNG(7)
        shares = scheme.split(123_456, rng)
        assert len(shares) == 5
        assert scheme.reconstruct(dict(enumerate(shares))) == 123_456

    def test_any_k_shares_suffice(self, scheme):
        import itertools

        rng = DeterministicRNG(8)
        shares = scheme.split(999, rng)
        for combo in itertools.combinations(range(5), 3):
            subset = {i: shares[i] for i in combo}
            assert scheme.reconstruct(subset) == 999

    def test_fewer_than_k_rejected(self, scheme):
        rng = DeterministicRNG(9)
        shares = scheme.split(5, rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct({0: shares[0], 1: shares[1]})

    def test_zero_secret(self, scheme):
        shares = scheme.split(0, DeterministicRNG(1))
        assert scheme.reconstruct(dict(enumerate(shares))) == 0

    def test_max_secret(self, scheme):
        secret = DEFAULT_FIELD.modulus - 1
        shares = scheme.split(secret, DeterministicRNG(2))
        assert scheme.reconstruct(dict(enumerate(shares))) == secret

    def test_different_rng_different_shares(self, scheme):
        a = scheme.split(42, DeterministicRNG(1))
        b = scheme.split(42, DeterministicRNG(2))
        assert a != b  # randomized sharing hides equality

    def test_batch(self, scheme):
        rng = DeterministicRNG(3)
        columns = scheme.split_columns([1, 2, 3], rng)
        assert len(columns) == 5 and all(len(c) == 3 for c in columns)
        for value, shares in zip([1, 2, 3], zip(*columns)):
            assert scheme.reconstruct(dict(enumerate(shares))) == value

    def test_convenience_functions(self):
        secrets = generate_client_secrets(4, seed=5)
        shares = split_value(777, secrets, 2, DeterministicRNG(5))
        assert reconstruct_value(dict(enumerate(shares)), secrets, 2) == 777


class TestCheckedReconstruction:
    def test_consistent_extra_shares_pass(self, scheme):
        shares = scheme.split(31337, DeterministicRNG(4))
        assert scheme.reconstruct_checked(dict(enumerate(shares))) == 31337

    def test_inconsistent_extra_share_detected(self, scheme):
        shares = scheme.split(31337, DeterministicRNG(4))
        tampered = dict(enumerate(shares))
        tampered[4] = (tampered[4] + 1) % DEFAULT_FIELD.modulus
        with pytest.raises(ReconstructionError):
            scheme.reconstruct_checked(tampered)


class TestSignedValues:
    def test_negative_roundtrip(self, scheme):
        encoded = scheme.field.encode_signed(-98765)
        shares = scheme.split(encoded, DeterministicRNG(6))
        assert scheme.reconstruct_signed(dict(enumerate(shares))) == -98765


class TestLinearity:
    """Sec. V-A: providers sum shares, the client interpolates the total."""

    def test_share_sum_is_sum_share(self, scheme):
        rng = DeterministicRNG(10)
        a = scheme.split(1000, rng)
        b = scheme.split(2345, rng)
        summed = scheme.add_share_vectors(a, b)
        assert scheme.reconstruct(dict(enumerate(summed))) == 3345

    def test_partial_sums_combine(self, scheme):
        rng = DeterministicRNG(11)
        values = [10, 20, 30, 40]
        columns = scheme.split_columns(values, rng)
        partials = {i: sum(shares) for i, shares in enumerate(columns)}
        assert scheme.combine_partial_sums(partials) == 100

    def test_scale_by_constant(self, scheme):
        shares = scheme.split(7, DeterministicRNG(12))
        scaled = scheme.scale_share_vector(shares, 6)
        assert scheme.reconstruct(dict(enumerate(scaled))) == 42

    def test_mismatched_vector_lengths(self, scheme):
        with pytest.raises(ReconstructionError):
            scheme.add_share_vectors([1, 2], [1, 2, 3])


class TestSecrecy:
    def test_k_minus_1_shares_consistent_with_any_secret(self):
        """Information-theoretic security: k-1 shares + points admit every
        candidate secret (there exists a polynomial through them)."""
        secrets = secrets_with_points((2, 4, 1), seed=0)
        scheme = ShamirScheme(secrets, threshold=2)
        shares = scheme.split(40, DeterministicRNG(13))
        # one share (k-1=1): for ANY claimed secret s, the line through
        # (0, s) and (x1, share1) exists — the share rules nothing out
        x1 = secrets.point_for(0)
        share1 = shares[0]
        for candidate in (0, 10, 40, 99):
            slope_exists = (share1 - candidate) % DEFAULT_FIELD.modulus
            assert slope_exists is not None  # always solvable in a field


class TestFigure1:
    """Bit-exact reproduction of the paper's worked example."""

    def test_share_columns_match_figure(self):
        columns = figure1_shares()
        assert columns["DAS1"] == [210, 30, 42, 64, 88]
        # the printed figure shows 64 in DAS2's 4th entry, but the stated
        # polynomial q60(x)=2x+60 at x_2=4 gives 68 — a typo in the paper;
        # we reproduce the arithmetic (see EXPERIMENTS.md EXP-F1)
        assert columns["DAS2"] == [410, 40, 44, 68, 96]
        assert columns["DAS3"] == [110, 25, 41, 62, 84]

    def test_salaries_recoverable_from_any_two_columns(self):
        columns = figure1_shares()
        expected = [10, 20, 40, 60, 80]
        assert salaries_from_figure1(columns) == expected
        assert (
            salaries_from_figure1({k: columns[k] for k in ("DAS2", "DAS3")})
            == expected
        )
        assert (
            salaries_from_figure1({k: columns[k] for k in ("DAS1", "DAS3")})
            == expected
        )

    def test_single_column_insufficient(self):
        columns = figure1_shares()
        with pytest.raises(ReconstructionError):
            salaries_from_figure1({"DAS1": columns["DAS1"]})


class TestRobustDecodeAmbiguity:
    """At m = k+1 shares the subset vote cannot isolate one bad share.

    Every k-subset polynomial explains its own k members — a strict
    majority each — so a silent arbitrary pick could return a corrupt
    candidate and blame an honest provider.  The decode must raise
    unless outside blame evidence (``suspects``) breaks the tie.
    """

    def shares_of(self, scheme, secret, seed=3):
        return dict(
            enumerate(scheme.split(secret, DeterministicRNG(seed, "amb")))
        )

    def test_k_plus_one_with_one_bad_share_is_ambiguous(self, scheme):
        shares = self.shares_of(scheme, 777)
        del shares[4]  # m = k + 1 = 4
        shares[2] += 1234  # one tampered share
        with pytest.raises(ReconstructionError, match="ambiguous"):
            scheme.reconstruct_robust_with_blame(shares)

    def test_suspect_evidence_breaks_the_tie(self, scheme):
        shares = self.shares_of(scheme, 777)
        del shares[4]
        shares[2] += 1234
        secret, blamed = scheme.reconstruct_robust_with_blame(
            shares, suspects=[2]
        )
        assert secret == 777
        assert blamed == [2]

    def test_suspect_evidence_is_trusted(self, scheme):
        # at m = k+1 every single-liar hypothesis is self-consistent, so
        # the decode follows the evidence it is given — suspects must come
        # from a sound source (deterministic order-preserving blame, which
        # cannot finger an honest provider)
        shares = self.shares_of(scheme, 777)
        del shares[4]
        shares[2] += 1234
        _, blamed = scheme.reconstruct_robust_with_blame(shares, suspects=[0])
        assert blamed == [0]

    def test_k_plus_two_decodes_without_evidence(self, scheme):
        # m = 5, k = 3: radius ⌊(5-3)/2⌋ = 1 bad share decodes uniquely
        shares = self.shares_of(scheme, 777)
        shares[2] += 1234
        secret, blamed = scheme.reconstruct_robust_with_blame(shares)
        assert secret == 777
        assert blamed == [2]


class TestShareExtension:
    def test_extended_share_matches_original(self, scheme):
        shares = dict(
            enumerate(scheme.split(4242, DeterministicRNG(9, "ext")))
        )
        original = shares.pop(4)
        assert scheme.extend_share(shares, 4) == original

    def test_needs_k_source_shares(self, scheme):
        shares = dict(
            enumerate(scheme.split(4242, DeterministicRNG(9, "ext")))
        )
        with pytest.raises(ReconstructionError):
            scheme.extend_share({0: shares[0], 1: shares[1]}, 4)
