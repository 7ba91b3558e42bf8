"""Shamir secret sharing over a prime field (paper Sec. III).

The data source splits each secret ``v`` into ``n`` shares by sampling a
random polynomial ``q`` of degree k−1 with ``q(0) = v`` and sending
``q(x_i)`` to provider i, where the x_i are the client's secret evaluation
points.  Any k shares (plus knowledge of X) reconstruct v exactly; any
k−1 shares are statistically independent of v — information-theoretic
security, Shamir (1979).

This module is the *payload* path: values that are stored and retrieved
but never filtered on at the provider.  Searchable attributes use
:mod:`repro.core.order_preserving` instead.

Linearity, which Sec. V-A's aggregation queries exploit, holds share-wise:
``q1(x) + q2(x)`` is a valid share of ``v1 + v2`` at the same point, so a
provider can sum its shares of selected tuples and the client interpolates
the total from k partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError, ReconstructionError
from ..sim.rng import DeterministicRNG
from .field import DEFAULT_FIELD, PrimeField
from .kernels import SplitKernel, batch_reconstruct, reconstruct_constant
from .polynomial import lagrange_constant_term
from .secrets import ClientSecrets


@dataclass(frozen=True)
class ShamirScheme:
    """An (n, k) threshold sharing configuration bound to client secrets."""

    secrets: ClientSecrets
    threshold: int

    def __post_init__(self) -> None:
        n = self.secrets.n_providers
        if not 1 <= self.threshold <= n:
            raise ConfigurationError(
                f"threshold k={self.threshold} must satisfy 1 <= k <= n={n}"
            )
        # not a dataclass field: equality and repr stay (secrets, threshold)
        object.__setattr__(
            self,
            "_kernel",
            SplitKernel(self.secrets.evaluation_points, self.field.modulus),
        )

    @property
    def n_providers(self) -> int:
        return self.secrets.n_providers

    @property
    def field(self) -> PrimeField:
        return self.secrets.field

    # -- splitting ----------------------------------------------------------

    def _draw_coefficients(self, secret: int, rng: DeterministicRNG) -> List[int]:
        """Random polynomial coefficients, identical draws to the naive path."""
        self.field.check_secret(secret)
        return [secret] + [
            rng.field_element(self.field.modulus)
            for _ in range(self.threshold - 1)
        ]

    def split(self, secret: int, rng: DeterministicRNG) -> List[int]:
        """Share ``secret``; returns one share per provider, index order."""
        return self._kernel.evaluate(self._draw_coefficients(secret, rng))

    def split_columns(
        self, values: Sequence[int], rng: DeterministicRNG
    ) -> List[List[int]]:
        """Share a sequence of secrets; result[i][j] is value j's share at
        provider i.

        Coefficients are drawn value by value, in the order repeated
        :meth:`split` calls draw them (the RNG stream is unchanged), then
        sliced into one column per degree for
        :meth:`SplitKernel.evaluate_columns`.
        """
        k = self.threshold
        flat = [c for v in values for c in self._draw_coefficients(v, rng)]
        return self._kernel.evaluate_columns([flat[d::k] for d in range(k)])

    # -- reconstruction -----------------------------------------------------

    def reconstruct(self, shares: Dict[int, int]) -> int:
        """Reconstruct a secret from a provider-index → share mapping.

        Requires at least k shares; extra shares beyond k are used too
        (over-determined interpolation still yields q(0) when the shares
        are consistent, and the trust layer exploits the redundancy to
        cross-check — see :meth:`reconstruct_checked`).
        """
        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need at least k={self.threshold} shares, got {len(shares)}"
            )
        chosen = sorted(shares.items())[: self.threshold]
        xs = tuple(self.secrets.point_for(idx) for idx, _ in chosen)
        return reconstruct_constant(
            self.field, xs, [value for _, value in chosen]
        )

    def reconstruct_batch(self, share_maps: Sequence[Dict[int, int]]) -> List[int]:
        """Reconstruct many secrets; one cached weight vector per distinct
        provider subset (column-major kernel, see :mod:`repro.core.kernels`).
        """
        grouped: Dict[Tuple[int, ...], List[Tuple[int, List[int]]]] = {}
        for position, shares in enumerate(share_maps):
            if len(shares) < self.threshold:
                raise ReconstructionError(
                    f"need at least k={self.threshold} shares, got {len(shares)}"
                )
            chosen = sorted(shares.items())[: self.threshold]
            xs = tuple(self.secrets.point_for(idx) for idx, _ in chosen)
            grouped.setdefault(xs, []).append(
                (position, [value for _, value in chosen])
            )
        out: List[int] = [0] * len(share_maps)
        for xs, cells in grouped.items():
            values = batch_reconstruct(self.field, xs, [ys for _, ys in cells])
            for (position, _), value in zip(cells, values):
                out[position] = value
        return out

    def reconstruct_checked(self, shares: Dict[int, int]) -> int:
        """Reconstruct and cross-validate using *all* supplied shares.

        With more than k shares, every size-k subset must agree on the
        secret; we verify cheaply by checking that each extra share lies on
        the polynomial interpolated through the first k.  Detects a
        minority of corrupted shares (benign-fault model of Sec. VI b).
        """
        secret = self.reconstruct(shares)
        if len(shares) > self.threshold:
            from .polynomial import interpolate_field_polynomial

            chosen = sorted(shares.items())
            base = chosen[: self.threshold]
            poly = interpolate_field_polynomial(
                self.field,
                [(self.secrets.point_for(i), v) for i, v in base],
            )
            for idx, value in chosen[self.threshold:]:
                expected = poly.evaluate(self.secrets.point_for(idx))
                if expected != value:
                    raise ReconstructionError(
                        f"share from provider {idx} inconsistent with quorum: "
                        f"expected {expected}, got {value}"
                    )
        return secret

    def reconstruct_signed(self, shares: Dict[int, int]) -> int:
        """Reconstruct a value that was shared via signed encoding."""
        return self.field.decode_signed(self.reconstruct(shares))

    def reconstruct_robust_with_blame(
        self, shares: Dict[int, int], suspects: Sequence[int] = ()
    ) -> Tuple[int, List[int]]:
        """Error-correcting reconstruction (Sec. VI b, malicious model)
        plus the indexes of disagreeing shares.

        With more than k shares, a minority of *tampered* shares can be
        outvoted: every k-subset of the shares is interpolated and the
        candidate polynomial consistent with the most shares wins.  This
        corrects up to ``⌊(m - k) / 2⌋`` bad shares among ``m`` supplied
        (the Reed–Solomon unique-decoding radius); below a strict majority
        of agreement it raises rather than guess.  Cost is ``C(m, k)``
        interpolations — fine for the paper's n ≤ 9 provider deployments,
        and only paid on the checked read path.

        The checked read uses the blame list to quarantine the
        provider(s) whose shares did not lie on the winning polynomial.
        An empty list means every supplied share was consistent.

        ``suspects`` carries outside blame evidence (e.g. from the same
        row's order-preserving columns, where per-share verification is
        deterministic) and is only consulted to break ties — see
        :meth:`_robust_decode`.
        """
        secret, poly, items = self._robust_decode(shares, suspects)
        blamed = [
            index
            for index, value in items
            if poly.evaluate(self.secrets.point_for(index)) != value
        ]
        return secret, blamed

    def _robust_decode(self, shares: Dict[int, int], suspects: Sequence[int] = ()):
        """Shared k-subset vote; returns (secret, winning poly, items).

        At exactly ``m = k + 1`` shares with one bad share, *every*
        k-subset polynomial explains its own k members — a strict
        majority each — so the vote alone cannot identify the liar (the
        Reed–Solomon unique-decoding radius ``⌊(m−k)/2⌋`` is zero).
        Rather than pick arbitrarily (and possibly blame an honest
        provider), a top-vote tie between distinct candidates raises —
        unless exactly one tied candidate's disagreeing shares all come
        from already-``suspects`` providers, in which case outside
        evidence disambiguates and that candidate wins.
        """
        import itertools

        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need at least k={self.threshold} shares, got {len(shares)}"
            )
        from .polynomial import interpolate_field_polynomial

        items = sorted(shares.items())
        candidates = []
        seen_candidates = set()
        for subset in itertools.combinations(items, self.threshold):
            poly = interpolate_field_polynomial(
                self.field,
                [(self.secrets.point_for(i), v) for i, v in subset],
            )
            candidate = poly.constant_term
            if candidate in seen_candidates:
                continue
            seen_candidates.add(candidate)
            votes = sum(
                1
                for index, value in items
                if poly.evaluate(self.secrets.point_for(index)) == value
            )
            candidates.append((votes, candidate, poly))
        best_votes = max(votes for votes, _, _ in candidates)
        # require the winning polynomial to explain a strict majority —
        # otherwise an adversary controlling half the shares could forge
        if best_votes * 2 <= len(items):
            raise ReconstructionError(
                f"no candidate polynomial explains a majority of the "
                f"{len(items)} shares (best: {best_votes}); too many shares "
                "are corrupt to decode"
            )
        winners = [c for c in candidates if c[0] == best_votes]
        if len(winners) > 1 and suspects:
            suspect_set = set(suspects)
            exonerated = [
                (votes, candidate, poly)
                for votes, candidate, poly in winners
                if all(
                    index in suspect_set
                    for index, value in items
                    if poly.evaluate(self.secrets.point_for(index)) != value
                )
            ]
            if len(exonerated) == 1:
                winners = exonerated
        if len(winners) > 1:
            raise ReconstructionError(
                f"ambiguous robust decode: {len(winners)} distinct candidate "
                f"polynomials each explain {best_votes} of {len(items)} "
                "shares; cannot identify the corrupt minority without more "
                "shares or outside blame evidence"
            )
        _, best_secret, best_poly = winners[0]
        return best_secret, best_poly, items

    # -- share extension (provider repair) -----------------------------------

    def extend_share(self, shares: Dict[int, int], target_index: int) -> int:
        """Evaluate the sharing polynomial at another provider's point.

        Any k consistent shares determine the degree-(k−1) polynomial
        ``q``; a recovered/stale provider's correct share is simply
        ``q(x_target)``.  This is the cheap repair primitive fVSS-style
        schemes are built around: the target's share column is rebuilt
        from k live providers and **no other provider's share changes**
        (the polynomial itself is unchanged).
        """
        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"share extension needs k={self.threshold} source shares, "
                f"got {len(shares)}"
            )
        from .polynomial import interpolate_field_polynomial

        chosen = sorted(shares.items())[: self.threshold]
        poly = interpolate_field_polynomial(
            self.field,
            [(self.secrets.point_for(i), v) for i, v in chosen],
        )
        return poly.evaluate(self.secrets.point_for(target_index))

    # -- aggregate combination (Sec. V-A) ------------------------------------

    def combine_partial_sums(self, partials: Dict[int, int]) -> int:
        """Combine per-provider partial SUMs into the plaintext total.

        Each provider returns the field-sum of its shares of the selected
        tuples; since sharing is linear this *is* a share of the plaintext
        sum, so reconstruction is ordinary interpolation.
        """
        return self.reconstruct(partials)

    def combine_partial_sums_signed(self, partials: Dict[int, int]) -> int:
        """Signed variant of :meth:`combine_partial_sums`."""
        return self.field.decode_signed(self.combine_partial_sums(partials))

    # -- share-level arithmetic ----------------------------------------------

    def add_share_vectors(
        self, left: Sequence[int], right: Sequence[int]
    ) -> List[int]:
        """Provider-wise sum of two share vectors = shares of the value sum."""
        if len(left) != len(right):
            raise ReconstructionError("share vectors have different lengths")
        return [self.field.add(a, b) for a, b in zip(left, right)]

    def scale_share_vector(self, shares: Sequence[int], factor: int) -> List[int]:
        """Multiply by a public constant — shares of ``factor * value``."""
        return [self.field.mul(s, factor) for s in shares]


def split_value(
    secret: int,
    secrets: ClientSecrets,
    threshold: int,
    rng: DeterministicRNG,
) -> List[int]:
    """Convenience one-shot split without building a scheme object."""
    return ShamirScheme(secrets, threshold).split(secret, rng)


def reconstruct_value(
    shares: Dict[int, int],
    secrets: ClientSecrets,
    threshold: int,
) -> int:
    """Convenience one-shot reconstruction."""
    return ShamirScheme(secrets, threshold).reconstruct(shares)


def figure1_shares() -> Dict[str, List[int]]:
    """Reproduce the worked example of the paper's Figure 1 exactly.

    Salaries {10, 20, 40, 60, 80} are shared with n=3, k=2 using the
    polynomials printed in the figure — q10(x)=100x+10, q20(x)=5x+20,
    q40(x)=x+40, q60(x)=2x+60, q80(x)=4x+80 — at evaluation points
    X = {x_1=2, x_2=4, x_3=1}.  Returns the per-provider share columns:
    [210,30,42,64,88] for DAS1, [410,40,44,68,96] for DAS2, and
    [110,25,41,62,84] for DAS3.

    Note a typo in the printed figure: its DAS2 column shows 64 where
    q60(x_2) = 2*4 + 60 = **68**; every other entry matches the stated
    polynomials exactly, so we reproduce the arithmetic, not the typo
    (recorded in EXPERIMENTS.md).
    """
    polynomials = {
        10: (10, 100),
        20: (20, 5),
        40: (40, 1),
        60: (60, 2),
        80: (80, 4),
    }
    points = {"DAS1": 2, "DAS2": 4, "DAS3": 1}
    columns: Dict[str, List[int]] = {}
    for name, x in points.items():
        columns[name] = [
            constant + slope * x for constant, slope in polynomials.values()
        ]
    return columns


def salaries_from_figure1(columns: Dict[str, List[int]]) -> List[int]:
    """Invert :func:`figure1_shares` from any two provider columns.

    Demonstrates the reconstruction step of the figure: with k=2 shares per
    salary and the matching evaluation points, interpolation returns the
    original salaries {10, 20, 40, 60, 80}.
    """
    field = DEFAULT_FIELD
    points = {"DAS1": 2, "DAS2": 4, "DAS3": 1}
    names = [name for name in ("DAS1", "DAS2", "DAS3") if name in columns][:2]
    if len(names) < 2:
        raise ReconstructionError("need at least two provider columns (k=2)")
    out: List[int] = []
    for row in range(len(columns[names[0]])):
        pairs = [(points[name], columns[name][row]) for name in names]
        out.append(lagrange_constant_term(field, pairs))
    return out
