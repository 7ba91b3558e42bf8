"""Client-held secret material.

The paper's security argument (Sec. III) rests on the data source holding
two secrets that never leave it:

* ``X = {x_1 … x_n}`` — the evaluation points, one per provider.  Even a
  coalition of k providers cannot interpolate without knowing which x each
  share was evaluated at.
* keyed-hash keys for the order-preserving construction (Sec. IV), which
  pick coefficients inside per-value slots.

:class:`ClientSecrets` bundles both, derived deterministically from a
master seed so a data source can be re-instantiated (e.g. after restart)
and still address its outsourced shares.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG
from .field import DEFAULT_FIELD, PrimeField


@dataclass(frozen=True)
class ClientSecrets:
    """Secret material for one data source.

    ``evaluation_points[i]`` is x_{i+1}, the point at which provider i's
    shares are evaluated.  ``hash_key`` seeds the keyed coefficient hashes
    of the order-preserving scheme.
    """

    evaluation_points: Tuple[int, ...]
    hash_key: bytes
    field: PrimeField = field(default=DEFAULT_FIELD)

    def __post_init__(self) -> None:
        points = self.evaluation_points
        if len(set(points)) != len(points):
            raise ConfigurationError(
                f"evaluation points must be distinct, got {points}"
            )
        if any(x <= 0 for x in points):
            raise ConfigurationError(
                "evaluation points must be positive: x=0 reveals the secret and "
                "the order-preserving guarantee only holds for x > 0"
            )
        if any(x >= self.field.modulus for x in points):
            raise ConfigurationError(
                "evaluation points must lie inside the share field"
            )
        if len(self.hash_key) < 16:
            raise ConfigurationError("hash key must be at least 128 bits")

    @property
    def n_providers(self) -> int:
        return len(self.evaluation_points)

    def point_for(self, provider_index: int) -> int:
        """Evaluation point for a 0-based provider index."""
        return self.evaluation_points[provider_index]

    def keyed_hash(self, label: str, value: int) -> int:
        """HMAC-SHA256 of (label, value) as a big integer.

        The order-preserving scheme uses this to pick the coefficient
        within a value's slot (Sec. IV): deterministic per (key, label,
        value) but unpredictable without the key.
        """
        return self.keyed_hasher(label)(value)

    def keyed_hasher(self, label: str) -> Callable[[int], int]:
        """:meth:`keyed_hash` with the label bound, for hashing many values.

        HMAC-SHA256 as RFC 2104 (and ``hmac.digest``) computes it, with the
        key's inner and outer pad states hashed once and the label fed into
        the inner one: a value costs two state copies and no key schedule.
        The states are only ever copied, so threads may share a hasher.
        """
        key = self.hash_key
        if len(key) > 64:  # longer than SHA-256's block: hashed first
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\x00")
        inner = hashlib.sha256(bytes(b ^ 0x36 for b in key))
        inner.update(label.encode("utf-8") + b"\x00")
        outer = hashlib.sha256(bytes(b ^ 0x5C for b in key))

        def keyed_hash(value: int) -> int:
            state = inner.copy()
            state.update(_int_bytes(value))
            digest = outer.copy()
            digest.update(state.digest())
            return int.from_bytes(digest.digest(), "big")

        return keyed_hash

    def derive_subkey(self, label: str) -> bytes:
        """Independent subkey for a named purpose (e.g. per-table MACs)."""
        return hmac.new(self.hash_key, label.encode("utf-8"), hashlib.sha256).digest()


def _int_bytes(value: int) -> bytes:
    """Canonical signed big-endian encoding of an arbitrary integer."""
    if value == 0:
        return b"\x00"
    sign = b"+" if value >= 0 else b"-"
    magnitude = abs(value)
    return sign + magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")


def generate_client_secrets(
    n_providers: int,
    seed: int = 0,
    field: PrimeField = DEFAULT_FIELD,
) -> ClientSecrets:
    """Generate fresh secret material for ``n_providers`` providers.

    Points are kept small-ish (below 2^20) rather than uniform over the
    whole field: the order-preserving scheme evaluates *integer*
    polynomials at these points without modular reduction, so huge x would
    blow up share magnitudes for no security gain — the secrecy of X comes
    from the adversary's ignorance of *which* values were drawn, and the
    ~2^20 space per point is combined with coefficient secrecy in the OP
    scheme and true information-theoretic secrecy in the random scheme.
    """
    if n_providers < 1:
        raise ConfigurationError(f"need at least one provider, got {n_providers}")
    rng = DeterministicRNG(seed, "client-secrets")
    upper = min(field.modulus - 1, 1 << 20)
    points: List[int] = []
    seen = set()
    while len(points) < n_providers:
        candidate = rng.randint(1, upper)
        if candidate not in seen:
            seen.add(candidate)
            points.append(candidate)
    hash_key = rng.bytes(32)
    return ClientSecrets(tuple(points), hash_key, field)


def secrets_with_points(
    points: Tuple[int, ...],
    seed: int = 0,
    field: PrimeField = DEFAULT_FIELD,
) -> ClientSecrets:
    """Build secrets around explicit evaluation points.

    Used by the Figure 1 reproduction, which fixes X = {2, 4, 1}.
    """
    rng = DeterministicRNG(seed, "client-secrets-fixed")
    return ClientSecrets(tuple(points), rng.bytes(32), field)


Share = Tuple[int, int]
"""A (provider_index, share_value) pair as stored at / returned by providers."""


def shares_by_provider(shares: Dict[int, int]) -> List[Share]:
    """Normalise a provider→share mapping into sorted (index, value) pairs."""
    return sorted(shares.items())
