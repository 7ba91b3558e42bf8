"""Symmetric PIR via blinded-exponentiation oblivious transfer.

Sec. II-B: plain PIR protects the *user's* query but lets a curious client
learn extra records for free (the trivial protocol hands over everything).
When "the privacy of data is a concern" the paper points to **symmetric
private information retrieval** (refs [27–29]).

This module implements a computational 1-out-of-N SPIR in the
Naor–Pinkas oblivious-transfer style, over the same Pohlig–Hellman group
as the intersection baseline:

* the server holds a secret exponent ``s`` and publishes, per query, the
  record ciphertexts ``E_{K_j}(D_j)`` with ``K_j = KDF(h(j)^s)``;
* the client sends one **blinded point** ``h(i)^r`` (uniform in the group,
  independent of i — server privacy of the query);
* the server returns ``(h(i)^r)^s``; the client unblinds with ``r^{-1}``
  (mod the group order) to get ``h(i)^s`` and hence ``K_i`` — and *only*
  ``K_i``: every other key would require solving a Diffie–Hellman
  instance (data privacy against the client).

Costs are honest and instructive next to the plain protocols: one round,
O(N) ciphertext transfer and O(N) server cipher work per query, plus a
handful of modular exponentiations — SPIR's *data* privacy is paid for in
trivial-PIR-like communication here; the sublinear multi-server SPIRs are
modelled analytically in :mod:`repro.pir.analysis`'s regime discussion.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

from ..baselines.cipher import FeistelCipher
from ..baselines.intersection import SAFE_PRIME_256, hash_to_group
from ..errors import QueryError
from ..sim.costmodel import CostRecorder
from ..sim.network import SimulatedNetwork
from ..sim.rng import DeterministicRNG


def _key_from_point(point: int) -> bytes:
    """KDF: group element → 256-bit cipher key."""
    return hashlib.sha256(b"repro.spir.kdf" + str(point).encode()).digest()


class SPIRServer:
    """Holds the records and the per-deployment secret exponent ``s``."""

    def __init__(
        self,
        records: Sequence[bytes],
        seed: int = 0,
        modulus: int = SAFE_PRIME_256,
        name: str = "SPIR-S",
    ) -> None:
        if not records:
            raise QueryError("SPIR database must be non-empty")
        self.name = name
        self.records = list(records)
        self.modulus = modulus
        self.order = (modulus - 1) // 2  # prime order of the QR subgroup
        rng = DeterministicRNG(seed, "spir-server")
        self.secret_exponent = rng.randint(2, self.order - 1)
        self.cost = CostRecorder(name)
        self._cipher_cache: Optional[List[bytes]] = None

    def encrypted_records(self) -> List[bytes]:
        """All records, each under its index-derived key (cached).

        Rebuilding per query would also be correct (and forward-private);
        caching models a server that prepared the encrypted database once.
        """
        if self._cipher_cache is None:
            out = []
            for index, record in enumerate(self.records):
                point = pow(
                    hash_to_group(index, self.modulus),
                    self.secret_exponent,
                    self.modulus,
                )
                self.cost.record("modexp", 1)
                cipher = FeistelCipher(_key_from_point(point))
                out.append(cipher.encrypt_bytes(record, cost=self.cost))
            self._cipher_cache = out
        return list(self._cipher_cache)

    def raise_blinded(self, blinded_point: int) -> int:
        """The OT step: return ``blinded^s`` without learning the index."""
        if not 1 <= blinded_point < self.modulus:
            raise QueryError("blinded point outside the group")
        self.cost.record("modexp", 1)
        return pow(blinded_point, self.secret_exponent, self.modulus)


class SPIRClient:
    """Retrieves exactly one record, revealing nothing about which."""

    def __init__(
        self,
        server: SPIRServer,
        rng: Optional[DeterministicRNG] = None,
        network: Optional[SimulatedNetwork] = None,
    ) -> None:
        self.server = server
        self.rng = rng or DeterministicRNG(0, "spir-client")
        self.network = network or SimulatedNetwork()
        self.cost = CostRecorder("spir-client")

    def retrieve(self, index: int) -> bytes:
        if not 0 <= index < len(self.server.records):
            raise QueryError(
                f"index {index} outside [0, {len(self.server.records)})"
            )
        p = self.server.modulus
        q = self.server.order
        # 1. blind: m = h(i)^r with r uniform and invertible mod q
        blind = self.rng.randint(2, q - 1)
        base = hash_to_group(index, p)
        blinded = pow(base, blind, p)
        self.cost.record("modexp", 1)
        self.network.send("spir-client", self.server.name, blinded)
        # 2. server raises to s; ships the encrypted database
        raised = self.server.raise_blinded(blinded)
        ciphertexts = self.server.encrypted_records()
        self.network.send(self.server.name, "spir-client", raised)
        self.network.send(self.server.name, "spir-client", ciphertexts)
        # 3. unblind: (h(i)^{rs})^{r^{-1}} = h(i)^s → K_i
        inverse = pow(blind, -1, q)
        point = pow(raised, inverse, p)
        self.cost.record("modexp", 1)
        cipher = FeistelCipher(_key_from_point(point))
        return cipher.decrypt_bytes(ciphertexts[index], cost=self.cost)

    def attempt_decrypt_other(self, index: int, other: int) -> Tuple[bool, bytes]:
        """Diagnostic: try to open record ``other`` with index's key.

        Returns (success, plaintext-or-garbage).  Success requires either
        the padding check to pass by chance or a DH break — tests assert
        it fails, demonstrating the *symmetric* part of SPIR.
        """
        p = self.server.modulus
        q = self.server.order
        blind = self.rng.randint(2, q - 1)
        blinded = pow(hash_to_group(index, p), blind, p)
        raised = self.server.raise_blinded(blinded)
        point = pow(raised, pow(blind, -1, q), p)
        cipher = FeistelCipher(_key_from_point(point))
        ciphertexts = self.server.encrypted_records()
        try:
            return True, cipher.decrypt_bytes(ciphertexts[other])
        except Exception:
            return False, b""
