"""Deterministic randomness for the whole library.

Every component that needs random values takes a :class:`DeterministicRNG`
(or a seed from which it builds one).  Nothing in the library calls
``random`` module-level functions or reads OS entropy, so every test,
example, and benchmark is reproducible bit-for-bit across runs and
machines.

Independent sub-streams are derived by *name* rather than by call order
(:meth:`DeterministicRNG.substream`), so adding a new consumer of
randomness does not perturb the values seen by existing consumers.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")

_STREAM_SALT = b"repro.rng.v1"


def _derive_seed(seed: int, name: str) -> int:
    """Derive a 128-bit child seed from (seed, name) via SHA-256."""
    digest = hashlib.sha256(
        _STREAM_SALT + seed.to_bytes(32, "big", signed=False) + name.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:16], "big")


class DeterministicRNG:
    """A seeded random stream with named, order-independent sub-streams.

    Wraps :class:`random.Random` with a few convenience methods used across
    the library (field elements, shuffles, Zipf sampling) and the
    :meth:`substream` derivation that keeps consumers independent.
    """

    def __init__(self, seed: int = 0, _name: str = "root") -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self.name = _name
        self._random = random.Random(_derive_seed(seed, _name))

    def substream(self, name: str) -> "DeterministicRNG":
        """Return an independent RNG derived from this one by ``name``.

        The child depends only on ``(self.seed, self.name, name)`` — never
        on how many values have been drawn — so call order elsewhere cannot
        perturb it.
        """
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- basic draws -------------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return self._random.uniform(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def gauss(self, mu: float, sigma: float) -> float:
        """Normally distributed float."""
        return self._random.gauss(mu, sigma)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Sample ``count`` distinct elements without replacement."""
        return self._random.sample(list(items), count)

    def shuffled(self, items: Sequence[T]) -> List[T]:
        """Return a new list with the items in random order."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def bytes(self, count: int) -> bytes:
        """Return ``count`` pseudo-random bytes."""
        return self._random.getrandbits(count * 8).to_bytes(count, "big")

    # -- library-specific draws -------------------------------------------

    def field_element(self, modulus: int) -> int:
        """Uniform element of Z_modulus."""
        return self._random.randrange(modulus)

    def nonzero_field_element(self, modulus: int) -> int:
        """Uniform element of Z_modulus \\ {0}."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        return self._random.randrange(1, modulus)

    def distinct_field_elements(self, count: int, modulus: int) -> List[int]:
        """``count`` distinct nonzero elements of Z_modulus.

        Used for the client's secret evaluation points X (Sec. III): they
        must be distinct (interpolation) and nonzero (the share at x=0
        would *be* the secret).
        """
        if count >= modulus:
            raise ValueError(
                f"cannot draw {count} distinct nonzero elements mod {modulus}"
            )
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            candidate = self._random.randrange(1, modulus)
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        return chosen


def zipf_sampler(rng: DeterministicRNG, n_items: int, skew: float = 1.0):
    """Build a callable returning 1-based Zipf(skew) ranks over ``n_items``.

    Precomputes the cumulative weights once; each draw is a binary search.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, n_items + 1):
        total += 1.0 / (rank**skew)
        cumulative.append(total)

    def draw() -> int:
        target = rng.random() * total
        lo, hi = 0, n_items - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    return draw
