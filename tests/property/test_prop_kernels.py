"""Property tests: batched kernels are bit-identical to the naive paths.

The kernel layer (:mod:`repro.core.kernels`) replaces per-value polynomial
construction and per-cell Lagrange interpolation with column-major Horner
evaluation and cached basis weights.  These tests pin the contract that made the swap
safe: for random ``(n, k)`` shapes and random data, the batched paths
produce *exactly* the bytes the naive reference paths produce — including
over-determined reconstruction where more than ``k`` shares are supplied.
The exact-integer kernel of the order-preserving scheme is held to the
``Fraction`` oracle of :mod:`repro.core.polynomial` the same way, errors
included.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.field import DEFAULT_FIELD, MERSENNE_61, PRIME_89, PRIME_127
from repro.core.polynomial import (
    IntegerPolynomial,
    interpolate_integer_constant,
    interpolate_rational_constant,
    lagrange_constant_term,
    random_field_polynomial,
)
from repro.core.secrets import generate_client_secrets
from repro.core.shamir import ShamirScheme
from repro.errors import ReconstructionError
from repro.sim.rng import DeterministicRNG

seeds = st.integers(min_value=0, max_value=2**32 - 1)
shapes = st.tuples(
    st.integers(min_value=1, max_value=7),  # n
    st.integers(min_value=1, max_value=7),  # k (clamped to n below)
)
value_lists = st.lists(
    st.integers(min_value=0, max_value=DEFAULT_FIELD.modulus - 1),
    min_size=1,
    max_size=25,
)


def _scheme(n: int, k: int, seed: int) -> ShamirScheme:
    return ShamirScheme(generate_client_secrets(n, seed=seed), min(k, n))


def _naive_split(scheme, values, rng):
    """Pre-kernel reference: fresh polynomial + Horner per value."""
    return [
        random_field_polynomial(
            scheme.field, v, scheme.threshold - 1, rng
        ).evaluate_many(scheme.secrets.evaluation_points)
        for v in values
    ]


def _split_rows(scheme, values, rng):
    """``split_columns`` read back one share vector per value."""
    return [list(shares) for shares in zip(*scheme.split_columns(values, rng))]


def _naive_reconstruct(scheme, shares):
    """Pre-kernel reference: Lagrange basis rebuilt for this one cell."""
    chosen = sorted(shares.items())[: scheme.threshold]
    points = [(scheme.secrets.point_for(i), y) for i, y in chosen]
    return lagrange_constant_term(scheme.field, points)


@given(shape=shapes, values=value_lists, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_split_columns_matches_naive(shape, values, seed):
    """Kernel split_columns emits the byte-identical shares, same RNG
    stream, one share list per provider."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    naive = _naive_split(scheme, values, DeterministicRNG(seed, "ker"))
    columns = scheme.split_columns(values, DeterministicRNG(seed, "ker"))
    assert columns == [list(shares) for shares in zip(*naive)]


@given(
    modulus=st.sampled_from(
        (MERSENNE_61, (1 << 31) - 1, 65_537, 97, PRIME_89, PRIME_127, None)
    ),
    degree=st.integers(min_value=0, max_value=6),
    batch=st.integers(min_value=1, max_value=40),
    seed=seeds,
)
@settings(max_examples=120, deadline=None)
def test_evaluate_columns_matches_evaluate(modulus, degree, batch, seed):
    """Column-major Horner == one :meth:`SplitKernel.evaluate` per value,
    over field moduli of every width and in exact integers
    (``modulus=None``, 128-bit coefficients, the order-preserving case)."""
    width = degree + 1
    rng = DeterministicRNG(seed, "split")
    if modulus is None:
        points = rng.distinct_field_elements(5, 1_000)
        coeff_rows = [
            [rng.randint(0, COEFFICIENT_BOUND) for _ in range(width)]
            for _ in range(batch)
        ]
    else:
        points = rng.distinct_field_elements(min(5, modulus - 1), modulus)
        coeff_rows = [
            [rng.field_element(modulus) for _ in range(width)]
            for _ in range(batch)
        ]
    kernel = kernels.SplitKernel(points, modulus)
    columns = kernel.evaluate_columns([list(c) for c in zip(*coeff_rows)])
    assert columns == [list(s) for s in zip(*map(kernel.evaluate, coeff_rows))]


@given(shape=shapes, values=value_lists, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_batch_reconstruct_matches_naive(shape, values, seed):
    """Batched reconstruction equals per-cell naive interpolation exactly."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    share_rows = _split_rows(scheme, values, DeterministicRNG(seed, "r"))
    cells = [
        {i: row[i] for i in range(scheme.threshold)} for row in share_rows
    ]
    naive = [_naive_reconstruct(scheme, c) for c in cells]
    assert scheme.reconstruct_batch(cells) == naive == values


@given(shape=shapes, values=value_lists, seed=seeds, extra=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_overdetermined_reconstruction(shape, values, seed, extra):
    """Supplying more than k shares changes nothing: both paths pick the
    same lowest-index quorum and agree with the secrets."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    width = min(scheme.threshold + extra, n)
    share_rows = _split_rows(scheme, values, DeterministicRNG(seed, "o"))
    cells = [{i: row[i] for i in range(width)} for row in share_rows]
    naive = [_naive_reconstruct(scheme, c) for c in cells]
    assert scheme.reconstruct_batch(cells) == naive == values
    for cell, value in zip(cells, values):
        assert scheme.reconstruct(cell) == value


@given(values=value_lists, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_mixed_quorum_shapes_in_one_batch(values, seed):
    """A single batch may mix quorum subsets (different providers answered
    different rows); grouping by evaluation-point tuple must not reorder
    or cross-contaminate results."""
    scheme = _scheme(5, 3, seed % 1000)
    share_rows = _split_rows(scheme, values, DeterministicRNG(seed, "m"))
    quorums = ((0, 1, 2), (1, 3, 4), (0, 2, 4))
    cells = [
        {i: row[i] for i in quorums[idx % len(quorums)]}
        for idx, row in enumerate(share_rows)
    ]
    assert scheme.reconstruct_batch(cells) == values


def test_weight_cache_hit_across_batch():
    """One weight-table build serves every subsequent cell of a batch."""
    scheme = _scheme(5, 3, 7)
    values = list(range(50))
    share_rows = _split_rows(scheme, values, DeterministicRNG(7, "c"))
    cells = [{i: row[i] for i in range(3)} for row in share_rows]
    kernels.clear_kernel_caches()
    assert scheme.reconstruct_batch(cells) == values
    stats = kernels.kernel_stats()
    assert stats.weight_misses == 1
    # per-cell path reuses the same cached weights
    for cell, value in zip(cells, values):
        assert scheme.reconstruct(cell) == value
    assert kernels.kernel_stats().weight_misses == 1
    assert kernels.kernel_stats().weight_hits >= len(cells)


# ---------------------------------------------------------------------------
# exact-integer kernel (order-preserving columns)
# ---------------------------------------------------------------------------

COEFFICIENT_BOUND = 2**128

#: k distinct non-zero evaluation points, k in 2..6, either sign
point_sets = st.lists(
    st.integers(min_value=-60, max_value=60).filter(bool),
    min_size=2,
    max_size=6,
    unique=True,
)
coefficients = st.integers(
    min_value=-COEFFICIENT_BOUND, max_value=COEFFICIENT_BOUND
)


@st.composite
def integer_columns(draw):
    """``(xs, polynomials)``: 1..20 integer polynomials of degree k−1."""
    xs = draw(point_sets)
    polynomials = draw(
        st.lists(
            st.lists(coefficients, min_size=len(xs), max_size=len(xs)),
            min_size=1,
            max_size=20,
        )
    )
    return xs, polynomials


def _share_vectors(xs, polynomials):
    """Shares of each (lowest-degree-first) integer polynomial at ``xs``."""
    return [
        IntegerPolynomial(tuple(coeffs)).evaluate_many(xs)
        for coeffs in polynomials
    ]


def _columns(vectors):
    """The kernel's operand: one share sequence per point, as each
    provider returns its column, instead of one share vector per cell."""
    return list(zip(*vectors))


@given(column=integer_columns())
@settings(max_examples=150, deadline=None)
def test_integer_batch_matches_fraction_oracle(column):
    """Cell for cell the column-wise integer kernel equals the
    ``Fraction`` oracle — 128-bit coefficients, negative values and
    negative points included."""
    xs, polynomials = column
    vectors = _share_vectors(xs, polynomials)
    oracle = [
        interpolate_integer_constant(list(zip(xs, ys))) for ys in vectors
    ]
    assert oracle == [coeffs[0] for coeffs in polynomials]
    assert kernels.batch_reconstruct_integer(xs, _columns(vectors)) == oracle
    for ys, expected in zip(vectors, oracle):
        assert kernels.reconstruct_integer(xs, ys) == expected
        assert kernels.batch_reconstruct_integer(xs, _columns([ys])) == [expected]


@given(
    column=integer_columns(),
    cell=st.integers(min_value=0, max_value=10**6),
    share=st.integers(min_value=0, max_value=10**6),
    delta=st.integers(min_value=-(2**70), max_value=2**70).filter(bool),
)
@settings(max_examples=200, deadline=None)
def test_perturbed_share_rejected_exactly_when_oracle_is_fractional(
    column, cell, share, delta
):
    """A perturbed share raises iff the rational constant term is not an
    integer, with the oracle's own message; an integral result is the
    oracle's integer (left for the scheme's domain check to judge)."""
    xs, polynomials = column
    vectors = _share_vectors(xs, polynomials)
    ys = vectors[cell % len(vectors)]
    ys[share % len(ys)] += delta
    rational = interpolate_rational_constant(list(zip(xs, ys)))
    if rational.denominator == 1:
        assert kernels.batch_reconstruct_integer(xs, _columns(vectors))[
            cell % len(vectors)
        ] == int(rational)
        return
    with pytest.raises(ReconstructionError) as oracle_error:
        interpolate_integer_constant(list(zip(xs, ys)))
    with pytest.raises(ReconstructionError) as batch_error:
        kernels.batch_reconstruct_integer(xs, _columns(vectors))
    with pytest.raises(ReconstructionError) as cell_error:
        kernels.reconstruct_integer(xs, ys)
    assert str(batch_error.value) == str(oracle_error.value)
    assert str(cell_error.value) == str(oracle_error.value)


@given(xs=point_sets)
@settings(max_examples=100, deadline=None)
def test_integer_weights_are_the_rational_weights(xs):
    """N_i / D is λ_i exactly, and D is the smallest common denominator."""
    numerators, denominator = kernels.integer_lagrange_weights(xs)
    rational = []
    for i, xi in enumerate(xs):
        weight = Fraction(1)
        for j, xj in enumerate(xs):
            if i != j:
                weight *= Fraction(-xj, xi - xj)
        rational.append(weight)
    assert denominator > 0
    assert [Fraction(n, denominator) for n in numerators] == rational
    assert denominator == math.lcm(*(w.denominator for w in rational))


@pytest.mark.parametrize(
    "xs, message",
    [
        ([], "no shares"),
        ([3, 5, 3], "duplicate evaluation points"),
        ([0, 4], "evaluation point 0"),
    ],
)
def test_integer_weights_validate_points(xs, message):
    with pytest.raises(ReconstructionError, match=message):
        kernels.integer_lagrange_weights(xs)


def test_integer_weights_built_once_per_point_tuple():
    """A 1,000-cell batch is one weight lookup: one build, no rebuilds."""
    xs = (2, 5, 11)
    polynomials = [[v, 3 * v + 1, 7 * v + 2] for v in range(1_000)]
    columns = _columns(_share_vectors(xs, polynomials))
    kernels.clear_kernel_caches()
    assert kernels.batch_reconstruct_integer(xs, columns) == list(range(1_000))
    stats = kernels.kernel_stats()
    assert (stats.rational_misses, stats.rational_hits) == (1, 0)
    assert stats.scalar_reconstruct_cells == 1_000
    # a second column at the same points is a hit, never a rebuild
    kernels.batch_reconstruct_integer(xs, columns)
    assert (stats.rational_misses, stats.rational_hits) == (1, 1)
