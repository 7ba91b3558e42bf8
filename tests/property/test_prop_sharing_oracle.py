"""Sec. IV written out independently, as the oracle for the sharing layer.

``test_prop_load_path.py`` holds ``share_rows`` to ``share_value``, but
both now run the same column derivation.  Here the paper's polynomial

    p_v(x) = v + Σ_j c_j x^j,   c_j = j·N·W + (v − lo)·W + HMAC(key, "op/<label>/c<j−1>" ‖ 0 ‖ v) mod W

is spelled out with ``hmac.digest`` and plain integer powers, sharing no
code with :mod:`repro.core`, and every order-preserving cell
``share_encoded`` uploads must equal it.  ``keyed_hasher`` (RFC 2104 from
cached pad states) is held to ``hmac.digest`` itself, long keys
included, and one hasher / one scheme must answer the same from four
threads as from one.
"""

import hmac
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.order_preserving import IntegerDomain, OrderPreservingScheme
from repro.core.scheme import TableSharing
from repro.core.secrets import ClientSecrets, generate_client_secrets
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.schema import TableSchema, integer_column

SLOT_WIDTH = 1 << 32


def signed_bytes(value):
    """The hashed message's value encoding: sign byte + big-endian magnitude."""
    if value == 0:
        return b"\x00"
    magnitude = abs(value)
    return (b"+" if value > 0 else b"-") + magnitude.to_bytes(
        (magnitude.bit_length() + 7) // 8, "big"
    )


def hmac_int(key, label, value):
    message = label.encode("utf-8") + b"\x00" + signed_bytes(value)
    return int.from_bytes(hmac.digest(key, message, "sha256"), "big")


def oracle_share(secrets, label, lo, hi, threshold, provider, value):
    """p_v(x_provider), coefficient by coefficient, power by power."""
    span = (hi - lo + 1) * SLOT_WIDTH
    x = secrets.evaluation_points[provider]
    total = value
    for degree in range(1, threshold):
        digest = hmac_int(secrets.hash_key, f"op/{label}/c{degree - 1}", value)
        coefficient = degree * span + (value - lo) * SLOT_WIDTH + digest % SLOT_WIDTH
        total += coefficient * x**degree
    return total


@st.composite
def sharing_cases(draw):
    n = draw(st.integers(2, 6))
    threshold = draw(st.integers(2, n))
    lo = draw(st.integers(-(10**12), 10**6))
    hi = lo + draw(st.integers(0, 10**6))
    edges = st.sampled_from(sorted({lo, lo + 1, hi - 1, hi} & set(range(lo, hi + 1))))
    value = edges | st.integers(lo, hi)
    # a small pool, so batches repeat values
    pool = draw(st.lists(value, min_size=1, max_size=6))
    cells = st.none() | st.sampled_from(pool)
    rows = draw(st.lists(st.fixed_dictionaries({"v": cells, "w": cells}), max_size=14))
    seed = draw(st.integers(0, 2**16))
    return n, threshold, lo, hi, rows, seed


@settings(max_examples=80, deadline=None)
@given(sharing_cases())
def test_share_encoded_order_preserving_cells_are_sec_iv(case):
    n, threshold, lo, hi, rows, seed = case
    schema = TableSchema(
        "T",
        (
            integer_column("v", lo, hi, nullable=True),
            integer_column("r", lo, hi, nullable=True, searchable=False),
            integer_column("w", lo, hi, nullable=True, domain_label="shared"),
        ),
    )
    secrets = generate_client_secrets(n, seed=seed)
    sharing = TableSharing(schema, secrets, threshold, DeterministicRNG(seed, "oracle"))
    rows = [dict(row, r=row["v"]) for row in rows]
    row_ids = list(range(len(rows)))
    uploads = sharing.share_encoded(schema.encode_rows(rows), row_ids)
    assert len(uploads) == n
    for provider, upload in enumerate(uploads):
        assert upload.row_ids == row_ids
        assert upload.columns == ("v", "r", "w")
        for (row_id, cells), row in zip(upload, rows):
            for column, label in (("v", "T.v"), ("w", "shared")):
                value = row[column]
                expected = (
                    None
                    if value is None
                    else oracle_share(secrets, label, lo, hi, threshold, provider, value)
                )
                assert cells[column] == expected, (provider, row_id, column)
            assert (cells["r"] is None) == (row["r"] is None)


@pytest.mark.parametrize("key_length", [16, 32, 64, 65, 100])
@pytest.mark.parametrize("value", [0, 1, -1, 2**70, -(2**70)])
def test_keyed_hasher_is_hmac_digest(key_length, value):
    key = bytes((7 * i + key_length) % 256 for i in range(key_length))
    secrets = ClientSecrets((3, 5), key)
    for label in ("", "op/T.v/c0", "shard/é"):
        assert secrets.keyed_hasher(label)(value) == hmac_int(key, label, value)
        assert secrets.keyed_hash(label, value) == hmac_int(key, label, value)


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=130),
    label=st.text(max_size=12),
    values=st.lists(st.integers(-(2**80), 2**80), max_size=5),
)
def test_keyed_hasher_is_hmac_digest_for_any_key_label_and_value(key, label, values):
    hasher = ClientSecrets((3, 5), key).keyed_hasher(label)
    assert [hasher(v) for v in values] == [hmac_int(key, label, v) for v in values]


def test_one_hasher_and_one_scheme_answer_alike_from_four_threads():
    secrets = generate_client_secrets(5, seed=37)
    hasher = secrets.keyed_hasher("threads")
    scheme = OrderPreservingScheme(secrets, IntegerDomain(-500, 500), threshold=4, label="t")
    batches = [list(range(-500 + t, 501, 4)) for t in range(4)]
    expected = [
        ([hasher(v) for v in batch], scheme.split_columns(batch)) for batch in batches
    ]
    results = [None] * 4
    start = threading.Barrier(4)

    def work(t):
        start.wait()
        runs = []
        for _ in range(5):
            runs.append(([hasher(v) for v in batches[t]], scheme.split_columns(batches[t])))
        results[t] = runs

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for t in range(4):
        assert results[t] == [expected[t]] * 5
