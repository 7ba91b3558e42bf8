"""Property tests: the numpy backend is bit-identical to the scalar oracle.

The vectorized reconstruction kernel (:mod:`repro.core.kernels`)
re-implements GF(p) dot products three ways — uint64 limb-splitting for
the Mersenne-61 default field, direct uint64 for small moduli, and
``object``-dtype arrays for wide primes.  None of that is allowed to
change a single byte: for random moduli, degrees, and batch shapes the
forced-numpy and forced-scalar paths must produce identical residues,
including the k+1-share robust-decode path that feeds interpolation
with over-determined quorums.

These tests are meaningful with numpy installed (the CI matrix runs the
suite both ways); without it they skip — the scalar oracle cannot
diverge from itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.field import MERSENNE_61, PRIME_89, PRIME_127, PrimeField
from repro.core.secrets import generate_client_secrets
from repro.core.shamir import ShamirScheme
from repro.errors import ReconstructionError
from repro.sim.rng import DeterministicRNG

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="numpy backend not installed (repro[fast])",
)

# a spread of modulus classes: the Mersenne-61 limb-split path, small
# uint64 primes, and wide primes forced onto the object-dtype path
MODULI = (
    MERSENNE_61,
    (1 << 31) - 1,  # largest Mersenne below the small-modulus bound
    65_537,
    97,
    PRIME_89,
    PRIME_127,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
moduli = st.sampled_from(MODULI)
degrees = st.integers(min_value=0, max_value=6)
batch_sizes = st.integers(min_value=1, max_value=40)


def _both_backends(fn):
    """Run ``fn`` under forced scalar and forced numpy; return both."""
    results = {}
    for backend in ("scalar", "numpy"):
        previous = kernels.set_kernel_backend(backend)
        try:
            kernels.clear_kernel_caches()
            results[backend] = fn()
        finally:
            kernels.set_kernel_backend(previous)
    return results["scalar"], results["numpy"]


@given(modulus=moduli, degree=degrees, batch=batch_sizes, seed=seeds)
@settings(max_examples=120, deadline=None)
def test_batch_reconstruct_backends_identical(modulus, degree, batch, seed):
    """Vectorized Lagrange interpolation == scalar, cell for cell."""
    field = PrimeField(modulus)
    k = degree + 1
    rng = DeterministicRNG(seed, "vec")
    xs = rng.distinct_field_elements(min(k, modulus - 1), modulus)
    vectors = [
        [rng.field_element(modulus) for _ in xs] for _ in range(batch)
    ]
    scalar, vector = _both_backends(
        lambda: kernels.batch_reconstruct(field, xs, vectors)
    )
    assert scalar == vector


@given(batch=batch_sizes, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_split_then_reconstruct_roundtrip_both_backends(batch, seed):
    """End-to-end scheme round trip is backend-invariant, shares included
    (splitting has one implementation; the shares pin that it reads no
    backend)."""
    scheme = ShamirScheme(generate_client_secrets(5, seed=seed % 997), 3)
    values = [
        DeterministicRNG(seed, "vals").field_element(scheme.field.modulus)
        for _ in range(batch)
    ]

    def run():
        shares = list(zip(*scheme.split_columns(values, DeterministicRNG(seed, "rt"))))
        cells = [{i: row[i] for i in range(3)} for row in shares]
        return shares, scheme.reconstruct_batch(cells)

    (scalar_shares, scalar_out), (vector_shares, vector_out) = _both_backends(run)
    assert scalar_shares == vector_shares
    assert scalar_out == vector_out == values


@given(seed=seeds, batch=st.integers(min_value=1, max_value=15))
@settings(max_examples=60, deadline=None)
def test_robust_decode_with_extra_share_backend_invariant(seed, batch):
    """The k+1-share robust-decode path (PR 5) agrees across backends.

    Robust decoding feeds over-determined quorums through k-subset
    interpolation; a corrupted share must be outvoted identically whether
    the surrounding batch arithmetic ran scalar or vectorized.
    """
    scheme = ShamirScheme(generate_client_secrets(5, seed=seed % 997), 3)
    rng = DeterministicRNG(seed, "robust")
    values = [
        rng.field_element(scheme.field.modulus) for _ in range(batch)
    ]

    def robust(cell):
        # with k+1 shares a single tamper may be undecidable (no strict
        # majority among the k-subsets) — the *raise* must then be the
        # identical outcome on both backends
        try:
            return scheme.reconstruct_robust_with_blame(cell)[0]
        except ReconstructionError as exc:
            return ("raised", str(exc))

    def run():
        shares = zip(*scheme.split_columns(values, DeterministicRNG(seed, "rs")))
        out = []
        for row in shares:
            cell = {i: row[i] for i in range(4)}  # k+1 shares
            tampered = dict(cell)
            tampered[1] = (tampered[1] + 17) % scheme.field.modulus
            out.append((robust(cell), robust(tampered)))
        return out

    scalar, vector = _both_backends(run)
    assert scalar == vector
    assert all(clean == value for (clean, _), value in zip(scalar, values))


def test_out_of_range_shares_fall_back_to_scalar_identically():
    """Tampered shares outside [0, p) cannot take the uint64 path; the
    dispatch must fall back and still match the scalar oracle exactly."""
    field = PrimeField(MERSENNE_61)
    xs = [3, 7, 11]
    vectors = [[2**63 + i, -5 * i, i] for i in range(20)]
    scalar, vector = _both_backends(
        lambda: kernels.batch_reconstruct(field, xs, vectors)
    )
    assert scalar == vector


def test_backend_selection_api():
    """Forcing, restoring, and rejecting unknown backends."""
    from repro.errors import ConfigurationError

    assert kernels.active_backend() in kernels.available_backends()
    previous = kernels.set_kernel_backend("scalar")
    try:
        assert kernels.active_backend() == "scalar"
        with pytest.raises(ConfigurationError):
            kernels.set_kernel_backend("cuda")
    finally:
        kernels.set_kernel_backend(previous)
