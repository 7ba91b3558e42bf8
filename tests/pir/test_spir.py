"""Tests for symmetric PIR (oblivious-transfer-based)."""

import pytest

from repro.errors import QueryError
from repro.pir.spir import SPIRClient, SPIRServer
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def records():
    rng = DeterministicRNG(11, "spir-db")
    return [rng.bytes(40) for _ in range(32)]


@pytest.fixture
def client(records):
    server = SPIRServer(records, seed=12)
    return SPIRClient(server, rng=DeterministicRNG(13, "c"))


class TestRetrieval:
    def test_every_index_retrievable(self, client, records):
        for index in (0, 7, 15, 31):
            assert client.retrieve(index) == records[index]

    def test_bounds(self, client):
        with pytest.raises(QueryError):
            client.retrieve(32)

    def test_empty_db_rejected(self):
        with pytest.raises(QueryError):
            SPIRServer([], seed=1)

    def test_repeated_queries_work(self, client, records):
        assert client.retrieve(3) == records[3]
        assert client.retrieve(3) == records[3]
        assert client.retrieve(4) == records[4]


class TestQueryPrivacy:
    def test_blinded_point_independent_of_index(self, records):
        """The server's view: one uniform group element.  Different target
        indexes with the same blinding stream are indistinguishable in
        distribution; here we check the transcript literally differs from
        the unblinded h(i) for every i (no direct index leak)."""
        from repro.baselines.intersection import hash_to_group

        server = SPIRServer(records, seed=14)
        client = SPIRClient(server, rng=DeterministicRNG(15, "p"))
        p = server.modulus
        direct_points = {hash_to_group(i, p) for i in range(len(records))}
        sent = []
        original = SPIRServer.raise_blinded

        def spy(self, blinded):
            sent.append(blinded)
            return original(self, blinded)

        SPIRServer.raise_blinded = spy
        try:
            client.retrieve(5)
        finally:
            SPIRServer.raise_blinded = original
        assert sent[0] not in direct_points

    def test_server_never_sees_index(self, client, records):
        """API-level check: no server method takes the index."""
        import inspect

        for name, member in inspect.getmembers(SPIRServer):
            if name.startswith("_") or not callable(member):
                continue
            parameters = inspect.signature(member).parameters
            assert "index" not in parameters, name


class TestDataPrivacy:
    def test_wrong_record_undecryptable(self, client):
        """The symmetric part: the key for index i opens only record i."""
        failures = 0
        for other in (1, 9, 20):
            ok, _ = client.attempt_decrypt_other(5, other)
            if not ok:
                failures += 1
        assert failures == 3

    def test_keys_differ_per_index(self, records):
        from repro.pir.spir import _key_from_point
        from repro.baselines.intersection import hash_to_group

        server = SPIRServer(records, seed=16)
        p = server.modulus
        keys = {
            _key_from_point(pow(hash_to_group(i, p), server.secret_exponent, p))
            for i in range(10)
        }
        assert len(keys) == 10


class TestCosts:
    def test_communication_is_trivial_like(self, records):
        """SPIR here pays O(N) ciphertext transfer — the honest price of
        single-server data privacy; the benchmark narrative depends on it."""
        server = SPIRServer(records, seed=17)
        client = SPIRClient(server, rng=DeterministicRNG(18, "c"))
        client.retrieve(0)
        database_bytes = sum(len(r) for r in records)
        assert client.network.total_bytes > database_bytes

    def test_modexp_counts(self, records):
        server = SPIRServer(records, seed=19)
        client = SPIRClient(server, rng=DeterministicRNG(20, "c"))
        client.retrieve(0)
        # server: N encryption-key derivations + 1 blinded raise
        assert server.cost.count("modexp") == len(records) + 1
        assert client.cost.count("modexp") == 2
