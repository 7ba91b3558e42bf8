"""Batched share-arithmetic kernels — the hot-path layer.

The naive paths of :mod:`repro.core.polynomial` rebuild the entire
Lagrange basis (O(k²) products plus a modular inversion) for *every*
reconstructed cell, and build a polynomial object per shared value.  For
a result set of M rows × C columns that is M·C basis rebuilds — yet
within one query every cell is interpolated at the *same* frozen subset
of evaluation points, and every split evaluates at the *same* client
points.

**Reconstruction** is cached and, for the random scheme, vectorized:

* **Caching** (always on) — :func:`lagrange_weights` computes the λ_i
  basis weights once per (field, point-subset) with a single Montgomery
  batch inversion; :func:`integer_lagrange_weights` is the exact
  analogue for the order-preserving scheme (integer numerators over one
  common denominator, see below).  Reconstruction of a cell becomes a
  k-term dot product.
* **Vectorization** (numpy backend, used when numpy is importable) —
  :func:`batch_reconstruct` runs a whole column of dot products as one
  array kernel over GF(p) residues.  For the default Mersenne field
  p = 2^61−1, modular multiplication is 128-bit-exact in uint64 via
  31/30-bit limb splitting and the Mersenne identity 2^61 ≡ 1 (mod p);
  small moduli (p < 2^31) multiply directly in uint64; any other modulus
  falls back to ``object``-dtype arrays (exact Python-int arithmetic,
  vectorized dispatch).  Its **scalar twin is the correctness oracle**:
  it is selected when numpy is absent (install ``repro[fast]`` to get
  the backend), when ``set_kernel_backend("scalar")`` forces it, for
  tiny batches where array overhead dominates, and for any input shape
  the vector kernel cannot take bit-exactly (ragged rows, out-of-range
  residues).

**Both schemes split column-major, in Python ints, with no twin**:
:meth:`SplitKernel.evaluate_columns` runs Horner over one coefficient
column per degree, once per evaluation point, straight into each
provider's share column (reduced mod p once at the end for the random
scheme); :meth:`SplitKernel.evaluate` is the same Horner for one value.

**Order-preserving columns reconstruct in exact integers** — no
rationals, no numpy.  Their polynomials are not reduced mod p, so the
weights λ_i = Π_{j≠i} −x_j / (x_i − x_j) are fractions; over their
common denominator D (the lcm of the reduced denominators) they are
integers N_i with q(0) = (Σ N_i·y_i) / D.  A cell is k integer
multiply-adds and one exact division, run column-wise over the share
sequences the providers returned.  The remainder is non-zero exactly
when the rational Σ λ_i·y_i has a denominator other than 1, so "D does
not divide the sum" is the tamper test of the ``Fraction`` oracle
(:func:`repro.core.polynomial.interpolate_integer_constant`, which the
robust path and the property tests keep) without building a fraction.
The arithmetic is Python ints because order-preserving shares are
93–121 bits wide: past uint64, and an ``object``-dtype array would run
the same big-int operations behind one more dispatch.

All kernels are bit-identical to the naive reference paths and to each
other (property tests in
``tests/property/test_prop_kernels.py`` and
``tests/property/test_prop_vectorized.py`` enforce this across random
moduli, degrees, and batch shapes); they change constant factors, never
values.  Caches are keyed on immutable tuples and only ever *add*
entries, so concurrent readers (the parallel provider fan-out) are safe
under the GIL: the worst race recomputes a weight vector that was
already correct.
"""

from __future__ import annotations

import os
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import ConfigurationError, ReconstructionError
from .field import PrimeField

try:  # optional runtime extra: repro[fast]
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: The Mersenne prime 2^61−1, the library's default modulus — it gets the
#: dedicated uint64 limb-split kernel below.
_MERSENNE_61 = (1 << 61) - 1

#: Moduli below 2^31 multiply directly in uint64 (product < 2^62).
_SMALL_MODULUS_BOUND = 1 << 31

#: Batches smaller than this stay on the scalar path (and, in the integer
#: kernel, on the cell-by-cell loop): array or iterator construction
#: overhead exceeds the arithmetic saved.  Bit-identical either way.
VECTOR_MIN_BATCH = 8


class KernelStats:
    """Hit/miss counters for the kernel caches plus backend counters.

    Exposed so tests (and the hot-path benchmark) can assert that weights
    are *reused* across the rows of a single query rather than rebuilt,
    and that the vectorized backend actually engaged — the whole point of
    the layer.  ``rational_hits``/``rational_misses`` count lookups of the
    order-preserving scheme's integer weights (one per batch, i.e. per
    column of a result set); the slot names predate the integer kernel
    and are what ``benchmarks/e2e/metrics.py`` reads.
    """

    __slots__ = (
        "weight_hits",
        "weight_misses",
        "rational_hits",
        "rational_misses",
        "vector_reconstruct_cells",
        "scalar_reconstruct_cells",
        "scalar_split_values",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.weight_hits = 0
        self.weight_misses = 0
        self.rational_hits = 0
        self.rational_misses = 0
        self.vector_reconstruct_cells = 0
        self.scalar_reconstruct_cells = 0
        self.scalar_split_values = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelStats({self.snapshot()})"


_STATS = KernelStats()

_WEIGHTS: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
_INTEGER_WEIGHTS: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}


def kernel_stats() -> KernelStats:
    """The process-wide cache counters."""
    return _STATS


def reset_kernel_stats() -> None:
    """Zero the counters without dropping cached weights."""
    _STATS.reset()


def clear_kernel_caches() -> None:
    """Drop every cached weight vector and zero the counters.

    Called by :meth:`DataSource.rotate_secrets` — rotation replaces the
    evaluation points, so every cached vector keyed on the old points is
    dead weight (entries are immutable, so this is hygiene, not
    correctness) — and by tests measuring cache behaviour from a clean
    slate.
    """
    _WEIGHTS.clear()
    _INTEGER_WEIGHTS.clear()
    _STATS.reset()


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_BACKENDS = ("numpy", "scalar")

#: None = auto (numpy when importable); "numpy"/"scalar" = forced.
_FORCED_BACKEND: Optional[str] = None


def _env_backend() -> Optional[str]:
    value = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
    return value if value in _BACKENDS else None


_FORCED_BACKEND = _env_backend()
if _FORCED_BACKEND == "numpy" and _np is None:  # pragma: no cover - env guard
    _FORCED_BACKEND = None


def available_backends() -> Tuple[str, ...]:
    """Backends this process can run ("scalar" is always available)."""
    return _BACKENDS if _np is not None else ("scalar",)


def active_backend() -> str:
    """The backend batch kernels dispatch to right now."""
    if _FORCED_BACKEND is not None:
        return _FORCED_BACKEND
    return "numpy" if _np is not None else "scalar"


def set_kernel_backend(name: Optional[str]) -> Optional[str]:
    """Force a backend ("numpy"/"scalar") or restore auto-detection (None).

    The backend governs :func:`batch_reconstruct` and the provider
    engine (:func:`numpy_module`); splitting has one implementation and
    ignores it.  Returns the previous forced value so tests can restore
    it.  Forcing "numpy" without numpy installed raises
    :class:`ConfigurationError` rather than silently running scalar.
    """
    global _FORCED_BACKEND
    if name is not None and name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; choose from {_BACKENDS}"
        )
    if name == "numpy" and _np is None:
        raise ConfigurationError(
            "numpy backend requested but numpy is not installed; "
            "install the repro[fast] extra"
        )
    previous = _FORCED_BACKEND
    _FORCED_BACKEND = name
    return previous


def _use_numpy() -> bool:
    return active_backend() == "numpy"


def _validated_points(xs: Sequence[int], modulus: Optional[int]) -> List[int]:
    """Shared validation for interpolation points (matches the naive path)."""
    points = [x % modulus for x in xs] if modulus is not None else list(xs)
    if not points:
        raise ReconstructionError("no shares supplied for reconstruction")
    if len(set(points)) != len(points):
        raise ReconstructionError(
            f"duplicate evaluation points in shares: {sorted(points)}"
        )
    if any(x == 0 for x in points):
        raise ReconstructionError(
            "evaluation point 0 would reveal the secret directly"
        )
    return points


# ---------------------------------------------------------------------------
# vectorized GF(p) primitives (numpy backend)
# ---------------------------------------------------------------------------


def _mulmod_m61(a, b):
    """Exact a·b mod 2^61−1 on uint64 arrays via 31/30-bit limb splitting.

    With a = a1·2^31 + a0 and b = b1·2^31 + b0 (a1, b1 < 2^30; a0, b0 <
    2^31) and the Mersenne identities 2^61 ≡ 1, 2^62 ≡ 2 (mod p):

        a·b ≡ 2·a1·b1 + m1 + m0·2^31 + a0·b0   where  m = a1·b0 + a0·b1
                                                      = m1·2^30 + m0.

    Every intermediate fits uint64 (the sum is < 2^63 + 2^32), so the
    result is bit-exact — no floats anywhere near the share path.
    """
    u = _np.uint64
    mask31 = u((1 << 31) - 1)
    mask30 = u((1 << 30) - 1)
    p = u(_MERSENNE_61)
    a1 = a >> u(31)
    a0 = a & mask31
    b1 = b >> u(31)
    b0 = b & mask31
    m = a1 * b0 + a0 * b1
    s = (a1 * b1) * u(2) + (m >> u(30)) + ((m & mask30) << u(31)) + a0 * b0
    s = (s >> u(61)) + (s & p)
    s = (s >> u(61)) + (s & p)
    return _np.where(s >= p, s - p, s)


def _reduce_once(acc, p):
    """One conditional subtraction: values < 2p → canonical residues."""
    return _np.where(acc >= p, acc - p, acc)


def _as_uint64_matrix(rows: Sequence[Sequence[int]], width: int):
    """Rows → a dense uint64 matrix, or None when they cannot round-trip.

    Returns None for ragged batches or entries outside uint64 (negative /
    oversized residues, e.g. tampered shares) — the scalar oracle then
    takes the batch, keeping dispatch bit-exact on *every* input.
    """
    try:
        matrix = _np.array(rows, dtype=_np.uint64)
    except (ValueError, OverflowError, TypeError):
        return None
    if matrix.ndim != 2 or matrix.shape[1] != width:
        return None
    return matrix


def _batch_reconstruct_numpy(
    modulus: int, weights: Sequence[int], share_vectors: Sequence[Sequence[int]]
) -> Optional[List[int]]:
    """Vectorized Σ λ_i·y_i mod p over a whole column; None → use scalar."""
    k = len(weights)
    if modulus == _MERSENNE_61:
        matrix = _as_uint64_matrix(share_vectors, k)
        if matrix is None or (matrix >= _np.uint64(modulus)).any():
            return None
        p = _np.uint64(modulus)
        acc = _np.zeros(matrix.shape[0], dtype=_np.uint64)
        for i, weight in enumerate(weights):
            w = _np.full(1, weight, dtype=_np.uint64)
            acc = _reduce_once(acc + _mulmod_m61(w, matrix[:, i]), p)
        return acc.tolist()
    if modulus < _SMALL_MODULUS_BOUND:
        matrix = _as_uint64_matrix(share_vectors, k)
        if matrix is None or (matrix >= _np.uint64(modulus)).any():
            return None
        w = _np.array(weights, dtype=_np.uint64)
        # per-term products < p² < 2^62 reduce immediately, so the k-term
        # sum stays far below 2^64 for any realistic k
        terms = (matrix * w[None, :]) % _np.uint64(modulus)
        return (terms.sum(axis=1) % _np.uint64(modulus)).tolist()
    # wide primes (2^89−1 and up): object dtype — exact Python-int
    # arithmetic driven by numpy's C dispatch loop
    try:
        matrix = _np.array(share_vectors, dtype=object)
    except ValueError:
        return None
    if matrix.ndim != 2 or matrix.shape[1] != k:
        return None
    w = _np.array(list(weights), dtype=object)
    return [int(v) % modulus for v in matrix @ w]


# ---------------------------------------------------------------------------
# Modular Lagrange weights (random Shamir scheme, Sec. III)
# ---------------------------------------------------------------------------


def lagrange_weights(field: PrimeField, xs: Sequence[int]) -> Tuple[int, ...]:
    """λ_i weights with q(0) = Σ λ_i · q(x_i) mod p, cached per point set.

    One Montgomery batch inversion per distinct (field, subset) shape; all
    subsequent reconstructions at the same points are k-term dot products.
    """
    key = (field.modulus, tuple(xs))
    cached = _WEIGHTS.get(key)
    if cached is not None:
        _STATS.weight_hits += 1
        return cached
    _STATS.weight_misses += 1
    p = field.modulus
    points = _validated_points(xs, p)
    denominators: List[int] = []
    numerators: List[int] = []
    for i, xi in enumerate(points):
        d = 1
        n = 1
        for j, xj in enumerate(points):
            if i != j:
                d = (d * ((xi - xj) % p)) % p
                n = (n * ((-xj) % p)) % p
        denominators.append(d)
        numerators.append(n)
    inverses = field.batch_inv(denominators)
    weights = tuple(
        (n * inv) % p for n, inv in zip(numerators, inverses)
    )
    _WEIGHTS[key] = weights
    return weights


def reconstruct_constant(
    field: PrimeField, xs: Sequence[int], ys: Sequence[int]
) -> int:
    """q(0) from aligned points/shares via the cached weight vector."""
    weights = lagrange_weights(field, xs)
    total = 0
    for w, y in zip(weights, ys):
        total += w * y
    return total % field.modulus


def _batch_reconstruct_scalar(
    modulus: int, weights: Sequence[int], share_vectors: Sequence[Sequence[int]]
) -> List[int]:
    """The scalar oracle: per-row k-term dot products in Python ints."""
    out: List[int] = []
    for ys in share_vectors:
        total = 0
        for w, y in zip(weights, ys):
            total += w * y
        out.append(total % modulus)
    return out


def batch_reconstruct(
    field: PrimeField,
    xs: Sequence[int],
    share_vectors: Sequence[Sequence[int]],
) -> List[int]:
    """Reconstruct many secrets shared at the *same* evaluation points.

    ``share_vectors[r]`` holds the shares of secret r aligned with ``xs``.
    This is the column-major kernel: one weight lookup covers the whole
    column of a result set, and with the numpy backend the column runs as
    one vectorized GF(p) dot product.
    """
    telemetry.observe("kernels.batch_reconstruct_cells", len(share_vectors))
    weights = lagrange_weights(field, xs)
    if (
        len(share_vectors) >= VECTOR_MIN_BATCH
        and _use_numpy()
    ):
        vectorized = _batch_reconstruct_numpy(
            field.modulus, weights, share_vectors
        )
        if vectorized is not None:
            _STATS.vector_reconstruct_cells += len(share_vectors)
            return vectorized
    _STATS.scalar_reconstruct_cells += len(share_vectors)
    return _batch_reconstruct_scalar(field.modulus, weights, share_vectors)


# ---------------------------------------------------------------------------
# Exact-integer Lagrange weights (order-preserving scheme, Sec. IV)
# ---------------------------------------------------------------------------


def integer_lagrange_weights(xs: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """``(numerators, denominator)`` with q(0) = Σ N_i · q(x_i) / D.

    The order-preserving scheme interpolates integer polynomials *without*
    modular reduction, so its weights λ_i are fractions; N_i / D is λ_i
    over the lcm D > 0 of the reduced denominators.  They depend only on
    the point subset and are cached per point tuple, reused across every
    cell of a query.
    """
    key = tuple(xs)
    cached = _INTEGER_WEIGHTS.get(key)
    if cached is not None:
        _STATS.rational_hits += 1
        return cached
    _STATS.rational_misses += 1
    points = _validated_points(xs, None)
    reduced: List[Tuple[int, int]] = []
    for i, xi in enumerate(points):
        n = 1
        d = 1
        for j, xj in enumerate(points):
            if i != j:
                n *= -xj
                d *= xi - xj
        if d < 0:
            n, d = -n, -d
        common = gcd(n, d)
        reduced.append((n // common, d // common))
    denominator = lcm(*(d for _, d in reduced))
    weights = (
        tuple(n * (denominator // d) for n, d in reduced),
        denominator,
    )
    _INTEGER_WEIGHTS[key] = weights
    return weights


def _exact_quotient(total: int, denominator: int) -> int:
    """``total / denominator``, which must be an integer."""
    value, remainder = divmod(total, denominator)
    if remainder:
        common = gcd(total, denominator)
        raise ReconstructionError(
            f"interpolated constant term {total // common}/"
            f"{denominator // common} is not an integer; "
            "shares are inconsistent or tampered"
        )
    return value


def batch_reconstruct_integer(
    xs: Sequence[int], share_columns: Sequence[Sequence[int]]
) -> List[int]:
    """q(0) of many integer polynomials shared at the *same* points.

    ``share_columns[i]`` holds the shares at ``xs[i]``, one per secret —
    a column of a result set as one provider returned it, so the read
    path hands its columns over untransposed.  One weight lookup covers
    the batch; each cell is Σ N_i·y_i followed by one exact division.  A
    remainder means the rational constant term is not an integer — the
    signature of tampered or mismatched shares, exactly as in
    :func:`repro.core.polynomial.interpolate_integer_constant`.

    From :data:`VECTOR_MIN_BATCH` cells up the sums run column-wise —
    one C-level multiply and add per share — and exactness is checked
    once per column; below it (a point read's one cell, a narrow read's
    few) setting those iterators up costs more than they save, and each
    cell is one :func:`reconstruct_integer`-style dot product.  Same
    values, same error, either way.
    """
    numerators, denominator = integer_lagrange_weights(xs)
    n_cells = len(share_columns[0])
    _STATS.scalar_reconstruct_cells += n_cells
    if n_cells < VECTOR_MIN_BATCH:
        return [
            _exact_quotient(sum(map(mul, numerators, cell)), denominator)
            for cell in zip(*share_columns)
        ]
    sums = None
    for numerator, shares in zip(numerators, share_columns):
        scaled = map(mul, shares, repeat(numerator))
        sums = scaled if sums is None else map(add, sums, scaled)
    totals = list(sums)
    values = list(map(floordiv, totals, repeat(denominator)))
    # D > 0, so every floor-division remainder lies in [0, D): the sums
    # agree exactly when every cell divided exactly
    if sum(totals) != denominator * sum(values):
        _exact_quotient(next(t for t in totals if t % denominator), denominator)
    return values


def reconstruct_integer(xs: Sequence[int], ys: Sequence[int]) -> int:
    """One cell: q(0) from shares ``ys`` aligned with the points ``xs``."""
    numerators, denominator = integer_lagrange_weights(xs)
    _STATS.scalar_reconstruct_cells += 1
    return _exact_quotient(sum(map(mul, numerators, ys)), denominator)


# ---------------------------------------------------------------------------
# Split kernel (Horner evaluation of sharing polynomials)
# ---------------------------------------------------------------------------


class SplitKernel:
    """Evaluates sharing polynomials at the client's evaluation points.

    Mod p for the random scheme; in exact integers (``modulus=None``) for
    the order-preserving scheme, whose polynomials must not wrap.  Each
    scheme holds one.  Coefficients are lowest-degree-first, exactly like
    the polynomial classes.
    """

    __slots__ = ("points", "modulus")

    def __init__(self, points: Sequence[int], modulus: Optional[int] = None) -> None:
        self.points = tuple(points)
        self.modulus = modulus

    def evaluate(self, coeffs: Sequence[int]) -> List[int]:
        """One value's shares, one per evaluation point (Horner per point)."""
        modulus = self.modulus
        out: List[int] = []
        for x in self.points:
            acc = 0
            for c in reversed(coeffs):
                acc = acc * x + c
            out.append(acc if modulus is None else acc % modulus)
        return out

    def evaluate_columns(self, columns: Sequence[Sequence[int]]) -> List[List[int]]:
        """Shares for many values given column-major: ``columns[d][r]`` is
        value r's degree-d coefficient; result[i][r] is value r's share at
        provider i.

        Horner over whole columns in Python ints, reduced once at the end
        for the random scheme, bit-identical to :meth:`evaluate` per value.
        """
        count = len(columns[0])
        telemetry.observe("kernels.split_values", count)
        _STATS.scalar_split_values += count
        modulus = self.modulus
        out: List[List[int]] = []
        for x in self.points:
            acc = list(columns[-1])
            for column in columns[-2::-1]:
                acc = [a * x + c for a, c in zip(acc, column)]
            out.append(acc if modulus is None else [a % modulus for a in acc])
        return out


# ---------------------------------------------------------------------------
# provider column primitives (vectorized provider execution engine)
# ---------------------------------------------------------------------------
#
# A provider only ever *compares* order-preserving shares and *adds*
# shares.  The comparisons run on int64 index positions and ranks
# (:mod:`repro.providers.storage`); the read-side additions (partial
# sums) run here, on a column mirrored as 32-bit limb planes, so neither
# needs a share to fit a machine word — the 90–122-bit shares of
# searchable columns take the same path as 61-bit field residues.
# Provider partial sums are *unreduced* Python-int sums of shares and
# stay bit-identical to the scalar engine: each limb plane is summed in
# uint64 (exact for up to 2^32 rows) and the planes are recombined in
# Python ints.  The write-side addition, ``increment_rows``, has no
# kernel here: it adds Δ cell by cell, in Python ints, to the rows it
# names.


def numpy_module():
    """The numpy module when the vector backend is active, else None.

    Provider code gates every vectorized path on this single call so the
    backend-selection API (``REPRO_KERNEL_BACKEND`` /
    :func:`set_kernel_backend`) governs the provider engine exactly like
    the client's :func:`batch_reconstruct`, the one client kernel with a
    numpy twin.
    """
    return _np if _use_numpy() else None


def share_limb_planes(values: Sequence[Optional[int]]):
    """A share column → ``((L, n) uint64 limb planes, null mask or None)``.

    Plane ``i`` holds bits ``32·i … 32·i+31`` of every share, with
    L = ⌈max bit-length / 32⌉ (at least 1); NULLs read 0 under the mask.
    Returns None when a value is negative or not an integer (tampered
    storage): such a column cannot be summed limb-wise and its consumers
    stay on the scalar oracle.
    """
    if _np is None:
        return None
    mask = None
    if None in values:
        mask = _np.array([v is None for v in values], dtype=bool)
        values = [0 if v is None else v for v in values]
    try:
        width = max(1, -(-max(values, default=0).bit_length() // 32))
        packed = b"".join([v.to_bytes(4 * width, "little") for v in values])
    except (AttributeError, OverflowError, TypeError):
        return None
    limbs = _np.frombuffer(packed, dtype="<u4").reshape(len(values), width)
    return _np.ascontiguousarray(limbs.T, dtype=_np.uint64), mask


def _recombine_limbs(totals: Sequence[int]) -> int:
    return sum(total << (32 * i) for i, total in enumerate(totals))


def exact_sum_limbs(limbs, selected=None) -> int:
    """Σ of the shares behind ``limbs`` as an exact Python int.

    ``selected`` (a boolean mask over the n columns) restricts the sum;
    it is applied as a 0/1 dot product per plane, which costs the same
    whatever the mask's shape — a boolean gather would stall on a
    half-set mask.
    """
    if selected is None:
        totals = limbs.sum(axis=1)
    else:
        totals = limbs @ selected.astype(_np.uint64)
    return _recombine_limbs(totals.tolist())


def exact_segment_sums_limbs(limbs, starts) -> List[int]:
    """Per-segment exact sums (``reduceat`` per limb plane).

    ``starts`` are the segment start offsets along the n axis (ascending,
    non-empty); segment i covers columns ``starts[i]:starts[i+1]``.  Used
    by grouped aggregation: one pass yields every group's raw partial sum.
    """
    sums = _np.add.reduceat(limbs, starts, axis=1)
    return [_recombine_limbs(totals) for totals in sums.T.tolist()]
