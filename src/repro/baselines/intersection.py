"""Private set intersection: encryption vs secret sharing (EXP-T5).

Sec. II-A quotes Agrawal et al. (SIGMOD'03, ref [26]): computing a
privacy-preserving intersection with commutative encryption "could take as
much as 2 hours of computation and approximately 3 Gigabits of data
transmission" for a 10×100-document corpus, and ~4 hours / 8 Gbit for
~1M medical records.  This module implements both contenders:

* :class:`CommutativeIntersection` — the AgES protocol over a
  Pohlig–Hellman exponentiation cipher (``x ↦ x^e mod p``).  Every element
  costs the parties modular exponentiations, booked as ``modexp`` ops —
  the constant that produces the paper's hours.
* :func:`share_based_intersection` — the Emekci et al. alternative the
  paper advocates (refs [31, 32]): both parties map elements through a
  *common* deterministic order-preserving sharing and ship shares to n
  third-party providers, which intersect share multisets locally; equal
  elements have equal shares per provider, unequal never collide.  Costs
  only polynomial evaluations and hashes.

The modexp group here is a 256-bit safe prime — small enough to run, with
the cost model pricing each operation as a production-sized (1024-bit)
modexp; operation *counts* are exact either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from ..core.order_preserving import IntegerDomain, OrderPreservingScheme
from ..core.secrets import generate_client_secrets
from ..errors import ConfigurationError
from ..sim.costmodel import CostRecorder
from ..sim.network import SimulatedNetwork
from ..sim.rng import DeterministicRNG

#: A 256-bit safe prime (p = 2q + 1, q prime), generated offline and
#: verified by the test-suite's Miller–Rabin check.
SAFE_PRIME_256 = (
    0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
)


def hash_to_group(element: int, modulus: int) -> int:
    """Map an element into the quadratic-residue subgroup."""
    digest = hashlib.sha256(str(element).encode("utf-8")).digest()
    value = int.from_bytes(digest, "big") % modulus
    return pow(value, 2, modulus)  # square → QR subgroup


@dataclass
class IntersectionResult:
    """Outcome + ledger of one intersection run."""

    intersection: Set[int]
    bytes_transferred: int
    party_a_cost: CostRecorder
    party_b_cost: CostRecorder

    def total_modexp(self) -> int:
        return self.party_a_cost.count("modexp") + self.party_b_cost.count("modexp")

    def modelled_seconds(self) -> float:
        return (
            self.party_a_cost.modelled_seconds()
            + self.party_b_cost.modelled_seconds()
        )


class CommutativeIntersection:
    """AgES two-party intersection with commutative exponentiation."""

    def __init__(
        self,
        modulus: int = SAFE_PRIME_256,
        seed: int = 0,
        network: Optional[SimulatedNetwork] = None,
    ) -> None:
        self.modulus = modulus
        self.network = network or SimulatedNetwork()
        rng = DeterministicRNG(seed, "psi-commutative")
        q = (modulus - 1) // 2
        # exponents coprime to the group order (odd, < q)
        self.exp_a = rng.randint(3, q - 1) | 1
        self.exp_b = rng.randint(3, q - 1) | 1

    def run(
        self, set_a: Sequence[int], set_b: Sequence[int]
    ) -> IntersectionResult:
        cost_a = CostRecorder("party-A")
        cost_b = CostRecorder("party-B")
        p = self.modulus
        # A: h(x)^a, send to B
        a_once = [pow(hash_to_group(x, p), self.exp_a, p) for x in set_a]
        cost_a.record("hash", len(set_a))
        cost_a.record("modexp", len(set_a))
        self.network.send("party-A", "party-B", a_once)
        # B: (h(x)^a)^b back to A, plus h(y)^b
        a_twice = [pow(value, self.exp_b, p) for value in a_once]
        cost_b.record("modexp", len(a_once))
        b_once = [pow(hash_to_group(y, p), self.exp_b, p) for y in set_b]
        cost_b.record("hash", len(set_b))
        cost_b.record("modexp", len(set_b))
        self.network.send("party-B", "party-A", a_twice)
        self.network.send("party-B", "party-A", b_once)
        # A: (h(y)^b)^a and compare double encryptions
        b_twice = {pow(value, self.exp_a, p) for value in b_once}
        cost_a.record("modexp", len(b_once))
        cost_a.record("compare", len(set_a))
        intersection = {
            x for x, double in zip(set_a, a_twice) if double in b_twice
        }
        return IntersectionResult(
            intersection=intersection,
            bytes_transferred=self.network.total_bytes,
            party_a_cost=cost_a,
            party_b_cost=cost_b,
        )


def share_based_intersection(
    set_a: Sequence[int],
    set_b: Sequence[int],
    domain: IntegerDomain,
    n_providers: int = 3,
    threshold: int = 2,
    seed: int = 0,
    network: Optional[SimulatedNetwork] = None,
) -> IntersectionResult:
    """Third-party intersection over deterministic shares (refs [31, 32]).

    Both parties hold common secret material (the Emekci model: data
    sources agree on evaluation points and hash keys out of band); each
    shares its elements and uploads one share per provider.  Providers
    intersect the share sets they see — equal elements collide, unequal
    elements cannot — and return matching positions; party A maps
    positions back to elements.  No provider learns any element value.
    """
    if threshold > n_providers:
        raise ConfigurationError(
            f"threshold {threshold} exceeds providers {n_providers}"
        )
    network = network or SimulatedNetwork()
    cost_a = CostRecorder("party-A")
    cost_b = CostRecorder("party-B")
    secrets = generate_client_secrets(n_providers, seed)
    scheme = OrderPreservingScheme(
        secrets, domain, threshold=threshold, label="psi"
    )
    intersection_votes: Dict[int, int] = {}
    for provider_index in range(n_providers):
        shares_a = [scheme.share(x, provider_index) for x in set_a]
        shares_b = [scheme.share(y, provider_index) for y in set_b]
        cost_a.record("poly_eval", len(set_a))
        cost_b.record("poly_eval", len(set_b))
        network.send("party-A", f"PSI-DAS{provider_index}", shares_a)
        network.send("party-B", f"PSI-DAS{provider_index}", shares_b)
        # provider-side: hash-set intersection of the two share lists
        b_set = set(shares_b)
        matches = [
            position for position, share in enumerate(shares_a)
            if share in b_set
        ]
        network.send(f"PSI-DAS{provider_index}", "party-A", matches)
        for position in matches:
            intersection_votes[position] = intersection_votes.get(position, 0) + 1
    # positions confirmed by at least `threshold` providers (tolerates a
    # minority of faulty providers, mirroring the read quorum)
    intersection = {
        set_a[position]
        for position, votes in intersection_votes.items()
        if votes >= threshold
    }
    return IntersectionResult(
        intersection=intersection,
        bytes_transferred=network.total_bytes,
        party_a_cost=cost_a,
        party_b_cost=cost_b,
    )


def plaintext_intersection(set_a: Sequence[int], set_b: Sequence[int]) -> Set[int]:
    """Ground truth for tests."""
    return set(set_a) & set(set_b)
