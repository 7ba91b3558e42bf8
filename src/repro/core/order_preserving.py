"""Order-preserving polynomial sharing (paper Sec. IV).

Searchable attributes cannot use random polynomials: the provider would be
unable to filter, forcing full-table retrieval ("the idealized solution is
not practical", Sec. IV).  The paper's fix builds, for every value ``v`` of
a finite ordered domain, a *deterministic* polynomial

    p_v(x) = a_v x^{k-1} + b_v x^{k-2} + ... + c_v x + v

whose non-constant coefficients are drawn from per-value **slots** of large
coefficient domains, the choice inside each slot made by a keyed hash.
Because the slots are disjoint and ordered, ``v1 < v2`` implies strict
coefficient-wise dominance, and therefore ``p_{v1}(x) < p_{v2}(x)`` for
every positive evaluation point — each provider sees shares in the same
order as the plaintext values, and can answer exact-match and range
predicates on shares alone.

Two constructions are provided:

* :class:`OrderPreservingScheme` — the paper's secure slot construction.
* :class:`MonotoneStrawmanScheme` — the paper's *insecure* strawman that
  derives coefficients from public monotone affine functions.  Shares are
  then an affine function of the secret, so a provider that learns a single
  (value, share) pair recovers everything.  Kept for the security ablation
  (ABL-2); never use it for real data.

Determinism has a consequence the paper relies on for joins (Sec. V-A):
equal values from the *same domain* always map to equal shares, so a
provider can evaluate equi-joins on referential keys locally.  It also
means frequency information leaks (as with any deterministic scheme) —
documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError, DomainError, ReconstructionError
from .kernels import SplitKernel, reconstruct_integer
from .polynomial import IntegerPolynomial, interpolate_integer_constant
from .secrets import ClientSecrets


@dataclass(frozen=True)
class IntegerDomain:
    """A dense, finite, ordered integer domain [lo, hi].

    Non-numeric attributes are first mapped onto such a domain by
    :mod:`repro.core.encoding` (e.g. base-27 strings, Sec. V-B).
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ConfigurationError(
                f"empty domain: lo={self.lo} > hi={self.hi}"
            )

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def rank(self, value: int) -> int:
        """0-based position of ``value`` in the domain."""
        if not self.contains(value):
            raise DomainError(
                f"value {value} outside domain [{self.lo}, {self.hi}]"
            )
        return value - self.lo

    def clamp(self, value: int) -> int:
        """Clamp a query bound into the domain (open-ended ranges)."""
        return max(self.lo, min(self.hi, value))


#: Width of each coefficient slot.  2^32 hash choices per value keeps the
#: coefficient unpredictable without the key while keeping share sizes
#: manageable; the width is per-scheme configurable for experiments.
DEFAULT_SLOT_WIDTH = 1 << 32


class OrderPreservingScheme:
    """The paper's slot-partitioned order-preserving sharing.

    Parameters
    ----------
    secrets:
        Client secret material (evaluation points + hash key).
    domain:
        The attribute's finite integer domain.
    threshold:
        k — number of shares needed to reconstruct; polynomial degree is
        k−1.  The paper's exposition uses k=4 (degree 3); any k ≥ 2 works.
    label:
        Domain label mixed into the keyed hash.  The paper constructs
        polynomials **per domain, not per attribute** (Sec. V-A Join), so
        two attributes sharing a label share a polynomial family and are
        join-compatible; distinct labels yield incompatible shares.
    slot_width:
        Number of hash-selectable coefficient choices per value.
    """

    def __init__(
        self,
        secrets: ClientSecrets,
        domain: IntegerDomain,
        threshold: int = 4,
        label: str = "default",
        slot_width: int = DEFAULT_SLOT_WIDTH,
    ) -> None:
        n = secrets.n_providers
        if not 2 <= threshold <= n:
            raise ConfigurationError(
                f"order-preserving threshold k={threshold} must satisfy "
                f"2 <= k <= n={n}"
            )
        if slot_width < 1:
            raise ConfigurationError(f"slot width must be >= 1, got {slot_width}")
        self.secrets = secrets
        self.domain = domain
        self.threshold = threshold
        self.label = label
        self.slot_width = slot_width
        # Coefficient domain j spans [offset_j, offset_j + N*W): higher-degree
        # coefficients start higher so distinct degrees never collide, which
        # keeps the "upper bound on the sum of domain sizes" leak of Sec. IV
        # as loose as the paper argues.
        # one keyed hash per non-constant coefficient; its key pads and
        # label are hashed here, once, not per shared value
        self._slot_hashes = tuple(
            secrets.keyed_hasher(f"op/{label}/c{j}") for j in range(threshold - 1)
        )
        # exact integers, no modulus: order must hold
        self._kernel = SplitKernel(secrets.evaluation_points)

    @property
    def n_providers(self) -> int:
        return self.secrets.n_providers

    # -- polynomial construction (Sec. IV) -----------------------------------

    def _coefficient_columns(self, values: Sequence[int]) -> List[List[int]]:
        """Every p_v's coefficients, one column per degree, constant term
        (the values) first; the domain is checked once per call.

        Slot i (the value's rank) of coefficient domain j is
        ``[j*N*W + i*W, j*N*W + (i+1)*W)`` and the keyed hash picks the
        offset within it: c_j(v) = ``j*N*W - lo*W + v*W + h_j(v) mod W``.
        """
        domain = self.domain
        if values and (min(values) < domain.lo or max(values) > domain.hi):
            for value in values:
                domain.rank(value)
        width = self.slot_width
        span = domain.size * width
        columns = [list(values)]
        for degree, slot_hash in enumerate(self._slot_hashes, start=1):
            base = degree * span - domain.lo * width
            columns.append([base + v * width + slot_hash(v) % width for v in values])
        return columns

    def _coefficients(self, value: int) -> Tuple[int, ...]:
        """p_v's coefficients, constant term ``v`` first: the one-value
        case of :meth:`_coefficient_columns`."""
        return tuple(column[0] for column in self._coefficient_columns((value,)))

    def polynomial_for(self, value: int) -> IntegerPolynomial:
        """The deterministic sharing polynomial p_v (constant term = v)."""
        return IntegerPolynomial(self._coefficients(value))

    # -- share computation ---------------------------------------------------

    def share(self, value: int, provider_index: int) -> int:
        """share(v, i) = p_v(x_i) — also used for query rewriting (Sec. V-A)."""
        return self.polynomial_for(value).evaluate(
            self.secrets.point_for(provider_index)
        )

    def split(self, value: int) -> List[int]:
        """All n shares of ``value``, provider-index order."""
        return self._kernel.evaluate(self._coefficients(value))

    def split_columns(self, values: Sequence[int]) -> List[List[int]]:
        """Share many values; result[i][j] is value j's share at provider i
        (coefficient columns, then Horner once per provider point)."""
        return self._kernel.evaluate_columns(self._coefficient_columns(values))

    # -- query rewriting helpers (Sec. V-A) -----------------------------------

    def share_range(
        self, low: int, high: int, provider_index: int
    ) -> Tuple[int, int]:
        """Share-space bounds for the plaintext range [low, high].

        Bounds outside the domain are clamped, so open-ended ranges like
        ``salary >= 50000`` rewrite cleanly.  Because the scheme is strictly
        order-preserving, the provider's share-range scan returns *exactly*
        the tuples in the plaintext range — no superset, unlike
        bucketization (contrast in EXP-T2).  A range with no value inside
        the domain has no such bounds and raises, like an empty one.
        """
        if low > high:
            raise DomainError(f"empty range [{low}, {high}]")
        if high < self.domain.lo or low > self.domain.hi:
            raise DomainError(f"range [{low}, {high}] lies outside domain "
                              f"[{self.domain.lo}, {self.domain.hi}]")
        lo = self.domain.clamp(low)
        hi = self.domain.clamp(high)
        return self.share(lo, provider_index), self.share(hi, provider_index)

    # -- reconstruction --------------------------------------------------------

    def reconstruct(self, shares: Dict[int, int]) -> int:
        """Recover the value from ≥ k (provider_index → share) pairs.

        Interpolation is exact-rational; a non-integer or out-of-domain
        constant term means tampered/mismatched shares and raises
        :class:`ReconstructionError`.
        """
        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need at least k={self.threshold} shares, got {len(shares)}"
            )
        chosen = sorted(shares.items())[: self.threshold]
        xs = tuple(self.secrets.point_for(i) for i, _ in chosen)
        value = reconstruct_integer(xs, [s for _, s in chosen])
        if not self.domain.contains(value):
            raise ReconstructionError(
                f"reconstructed value {value} outside domain "
                f"[{self.domain.lo}, {self.domain.hi}]; shares are corrupt"
            )
        return value

    def reconstruct_robust(self, shares: Dict[int, int]) -> int:
        """Error-correcting reconstruction for deterministic OP shares.

        Determinism makes this cheaper than the random scheme's subset
        vote: interpolate each k-subset, and for any in-domain integer
        candidate simply *recompute* every provider's expected share —
        the candidate explaining a strict majority of the supplied shares
        wins.  Corrects a minority of tampered shares.
        """
        import itertools

        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need at least k={self.threshold} shares, got {len(shares)}"
            )
        items = sorted(shares.items())
        best_votes = -1
        best_value: int = 0
        seen = set()
        for subset in itertools.combinations(items, self.threshold):
            points = [(self.secrets.point_for(i), s) for i, s in subset]
            try:
                candidate = interpolate_integer_constant(points)
            except ReconstructionError:
                continue
            if candidate in seen or not self.domain.contains(candidate):
                continue
            seen.add(candidate)
            votes = sum(
                1
                for index, value in items
                if self.share(candidate, index) == value
            )
            if votes > best_votes:
                best_votes = votes
                best_value = candidate
        if best_votes * 2 <= len(items):
            raise ReconstructionError(
                f"no candidate value explains a majority of the "
                f"{len(items)} shares (best: {best_votes}); too many are corrupt"
            )
        return best_value

    def reconstruct_robust_with_blame(
        self, shares: Dict[int, int]
    ) -> Tuple[int, List[int]]:
        """Robust reconstruction plus the indexes of disagreeing shares.

        Determinism makes blame free: once the robust vote picks a value,
        every supplied share is checked against the recomputed
        deterministic share — mismatches are the tamperers.
        """
        value = self.reconstruct_robust(shares)
        blamed = [
            index
            for index, share in sorted(shares.items())
            if not self.verify_share(value, index, share)
        ]
        return value, blamed

    def verify_share(self, value: int, provider_index: int, share: int) -> bool:
        """Check a claimed share against the deterministic construction.

        Determinism makes per-share verification free for the client — one
        of the practical advantages over the random scheme, exploited by
        the trust layer.
        """
        return share == self.share(value, provider_index)

    # -- introspection ----------------------------------------------------------

    def max_share_magnitude(self) -> int:
        """Upper bound on |share| across the domain (wire-format sizing)."""
        top = self.polynomial_for(self.domain.hi)
        x_max = max(self.secrets.evaluation_points)
        return abs(top.evaluate(x_max)) + abs(self.domain.lo)


class MonotoneStrawmanScheme:
    """The paper's insecure strawman (Sec. IV, first construction).

    Coefficients are public monotone affine functions of the secret:
    ``f_a(v) = alpha_a * v + beta_a`` etc.  The resulting share is affine
    in v — ``p_v(x_i) = A_i * v + B_i`` — so one known plaintext-share pair
    (or even just two shares of different values) lets the provider solve
    for every secret.  :mod:`repro.attacks.monotone` implements the attack;
    this class exists only so the ablation can demonstrate it.
    """

    def __init__(
        self,
        secrets: ClientSecrets,
        domain: IntegerDomain,
        threshold: int = 4,
        slopes: Sequence[int] = (3, 1, 5),
        intercepts: Sequence[int] = (10, 27, 1),
    ) -> None:
        if not 2 <= threshold <= secrets.n_providers:
            raise ConfigurationError(
                f"threshold k={threshold} must satisfy 2 <= k <= n"
            )
        if len(slopes) < threshold - 1 or len(intercepts) < threshold - 1:
            raise ConfigurationError(
                "need one (slope, intercept) pair per non-constant coefficient"
            )
        if any(s <= 0 for s in slopes[: threshold - 1]):
            raise ConfigurationError("slopes must be positive for monotonicity")
        self.secrets = secrets
        self.domain = domain
        self.threshold = threshold
        self.slopes = tuple(slopes[: threshold - 1])
        self.intercepts = tuple(intercepts[: threshold - 1])

    def polynomial_for(self, value: int) -> IntegerPolynomial:
        self.domain.rank(value)  # domain check
        coeffs = [value] + [
            slope * value + intercept
            for slope, intercept in zip(self.slopes, self.intercepts)
        ]
        return IntegerPolynomial(tuple(coeffs))

    def share(self, value: int, provider_index: int) -> int:
        return self.polynomial_for(value).evaluate(
            self.secrets.point_for(provider_index)
        )

    def split(self, value: int) -> List[int]:
        poly = self.polynomial_for(value)
        return poly.evaluate_many(self.secrets.evaluation_points)

    def affine_form(self, provider_index: int) -> Tuple[int, int]:
        """The (A_i, B_i) with share = A_i * v + B_i — the leak itself.

        For x_i and degree-j slopes s_j / intercepts t_j:
        ``A_i = 1 + sum_j s_j x_i^{j+1}``, ``B_i = sum_j t_j x_i^{j+1}``.
        This mirrors the paper's worked expansion
        ``p1(xi) = (3x^3 + x^2 + 5x + 1) v + (10x^3 + 27x^2 + x)``.
        """
        x = self.secrets.point_for(provider_index)
        slope_total = 1
        intercept_total = 0
        for j, (s, t) in enumerate(zip(self.slopes, self.intercepts)):
            slope_total += s * x ** (j + 1)
            intercept_total += t * x ** (j + 1)
        return slope_total, intercept_total
