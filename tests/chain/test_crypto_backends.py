"""The two Ed25519 backends behind ``repro.chain.crypto`` are one function.

Contract (DESIGN.md §10): signing is byte-identical, verification accepts
and rejects identically on every malformed class enumerated here, and
``ed25519_batch_verify`` returns exactly the per-item failures. Every
differential test drives the public entry points with the backend swapped
underneath, so the seam's own checks are part of what is compared. Without
``cryptography`` installed the same tests run against the reference alone
and still pin the expected answers.

Hypothesis runs derandomized and without a database: a failure here is a
consensus bug, and must reproduce on every run or on none.
"""

import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import crypto
from repro.chain import ed25519_ref as ref
from repro.common.errors import VerificationError
from tests.chain import test_crypto

HAVE_OPENSSL = importlib.util.find_spec("cryptography") is not None
BACKENDS = [crypto._reference_backend()]
if HAVE_OPENSSL:
    BACKENDS.append(crypto._openssl_backend())

P, L = ref._Q, ref._L
PINNED = settings(derandomize=True, database=None, max_examples=30, deadline=None)
MESSAGES = [b"", b"m", b"debuglet" * 40] + [b"m%d" % i for i in range(5)]


@contextlib.contextmanager
def using(backend):
    previous, crypto._BACKEND = crypto._BACKEND, backend
    try:
        yield
    finally:
        crypto._BACKEND = previous


def both(function, *args):
    """``function(*args)`` under every backend: asserts they agree and
    returns the common answer."""
    answers = []
    for backend in BACKENDS:
        with using(backend):
            answers.append(function(*args))
    assert all(answer == answers[0] for answer in answers), (
        function.__name__, [a.hex() if isinstance(a, bytes) else a for a in args],
        dict(zip([b.name for b in BACKENDS], answers)),
    )
    return answers[0]


def encode(y: int, sign: int) -> bytes:
    return (y | (sign << 255)).to_bytes(32, "little")


def torsion_points() -> list[bytes]:
    """All 8 points of small order, each computed as ``[L]P``."""
    found: set[bytes] = set()
    counter = 0
    while len(found) < 8:
        candidate = hashlib.sha256(b"torsion-%d" % counter).digest()
        counter += 1
        try:
            point = ref._decode_point(candidate)
        except VerificationError:
            continue
        found.add(ref._encode_point(ref._scalar_mult(point, L)))
    return sorted(found)


TORSION = torsion_points()
#: y >= p: the 19 values that still fit 255 bits, with either sign bit.
NON_CANONICAL = [encode(P + d, sign) for d in range(19) for sign in (0, 1)]
#: "x = 0 with the sign bit set": (0, 1) and (0, -1) have no negative.
NEGATIVE_ZERO = [encode(1, 1), encode(P - 1, 1)]


def test_backend_is_chosen_by_importability():
    expected = "openssl" if HAVE_OPENSSL else "pure-python"
    assert crypto.backend_name() == expected
    assert BACKENDS[-1].name == expected


def test_torsion_points_are_the_small_order_subgroup():
    assert len(TORSION) == 8
    assert encode(1, 0) in TORSION  # the identity
    for encoded in TORSION:
        point = ref._decode_point(encoded)
        assert ref._encode_point(ref._scalar_mult(point, 8)) == encode(1, 0)


# -------------------------------------------------------------- signing


@pytest.mark.parametrize(
    "seed_hex,pub_hex,msg_hex,sig_hex", test_crypto.TestRfc8032Vectors.VECTORS
)
def test_rfc8032_vectors_under_every_backend(seed_hex, pub_hex, msg_hex, sig_hex):
    seed, message = bytes.fromhex(seed_hex), bytes.fromhex(msg_hex)
    assert both(crypto.ed25519_public_key, seed).hex() == pub_hex
    assert both(crypto.ed25519_sign, seed, message).hex() == sig_hex
    assert both(crypto.ed25519_verify, bytes.fromhex(pub_hex), message,
                bytes.fromhex(sig_hex)) is True


@PINNED
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=300))
def test_sign_is_byte_identical(seed, message):
    public = both(crypto.ed25519_public_key, seed)
    signature = both(crypto.ed25519_sign, seed, message)
    assert both(crypto.ed25519_verify, public, message, signature) is True


@pytest.mark.parametrize("seed", [b"", b"short", b"x" * 33])
def test_bad_seed_length_raises_under_every_backend(seed):
    for backend in BACKENDS:
        with using(backend):
            with pytest.raises(VerificationError):
                crypto.ed25519_public_key(seed)
            with pytest.raises(VerificationError):
                crypto.ed25519_sign(seed, b"m")


# ------------------------------------------------------------ verifying


@PINNED
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(min_size=1, max_size=100),
    part=st.sampled_from(["public", "message", "signature"]),
    bit=st.integers(0, 511),
)
def test_verify_agrees_on_bit_flips(seed, message, part, bit):
    fields = {
        "public": both(crypto.ed25519_public_key, seed),
        "message": message,
        "signature": both(crypto.ed25519_sign, seed, message),
    }
    target = bytearray(fields[part])
    bit %= 8 * len(target)
    target[bit // 8] ^= 1 << (bit % 8)
    fields[part] = bytes(target)
    assert both(crypto.ed25519_verify, fields["public"], fields["message"],
                fields["signature"]) is False


@PINNED
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=100))
def test_verify_rejects_s_plus_l_and_truncations(seed, message):
    public = both(crypto.ed25519_public_key, seed)
    signature = both(crypto.ed25519_sign, seed, message)
    s = int.from_bytes(signature[32:], "little")
    malleated = signature[:32] + (s + L).to_bytes(32, "little")
    assert both(crypto.ed25519_verify, public, message, malleated) is False
    for cut in (0, 31, 32, 63):
        assert both(crypto.ed25519_verify, public, message, signature[:cut]) is False
        assert both(crypto.ed25519_verify, public[: cut % 32], message, signature) is False
    assert both(crypto.ed25519_verify, public, message, signature + b"\0") is False
    assert both(crypto.ed25519_verify, public + b"\0", message, signature) is False


def _sweep(publics, r_points):
    """Verify every (A, R, s, message) combination under every backend;
    returns the accepted combinations."""
    accepted = []
    for public in publics:
        for r_point in r_points:
            for s in (0, 1, L - 1, L):
                signature = r_point + s.to_bytes(32, "little")
                for message in MESSAGES:
                    if both(crypto.ed25519_verify, public, message, signature):
                        accepted.append((public, r_point, s, message))
    return accepted


def test_verify_agrees_on_torsion_points_as_key_and_as_r():
    accepted = _sweep(TORSION, TORSION)
    # Small-order keys do verify small-order R with s = 0 for some
    # messages, so agreement here is not agreement on "always False".
    assert accepted
    assert all(s == 0 for _, _, s, _ in accepted)


def test_non_canonical_and_negative_zero_keys_are_rejected():
    # OpenSSL alone would accept some of these (it reduces y mod p and
    # ignores the sign of x = 0); the seam rejects them for everyone.
    assert _sweep(NON_CANONICAL + NEGATIVE_ZERO, TORSION) == []
    keypair = crypto.KeyPair.deterministic("honest")
    signature = keypair.sign(b"m")
    for public in NON_CANONICAL + NEGATIVE_ZERO:
        assert both(crypto.ed25519_verify, public, b"m", signature) is False


def test_non_canonical_and_negative_zero_r_are_rejected():
    assert _sweep(TORSION, NON_CANONICAL + NEGATIVE_ZERO) == []


def test_reference_decoder_rejects_negative_zero():
    """RFC 8032 §5.1.3 step 4. The decoder used to turn x = 0 with the
    sign bit set into x = p, and so accepted ``0100…0080`` and
    ``ecff…ffff`` as R where OpenSSL does not."""
    for encoded in NEGATIVE_ZERO:
        with pytest.raises(VerificationError):
            ref._decode_point(encoded)
    assert NEGATIVE_ZERO[0].hex() == "01" + "00" * 30 + "80"
    assert NEGATIVE_ZERO[1].hex() == "ec" + "ff" * 31
    # ``0000…0080`` is not such an encoding: y = 0 has x = ±sqrt(-1), and
    # the odd root is a canonical point of order 4.
    order_four = bytes.fromhex("00" * 31 + "80")
    assert order_four in TORSION
    assert ref._encode_point(ref._decode_point(order_four)) == order_four


# -------------------------------------------------------------- batches


def _mixed_batch():
    signers = [crypto.KeyPair.deterministic(f"batch-{i}") for i in range(4)]
    items, bad = [], []
    for index in range(24):
        signer = signers[index % len(signers)]
        message = b"tx-%d" % index
        public, signature = signer.public, signer.sign(message)
        kind = index % 8
        if kind == 1:
            message += b"!"
        elif kind == 3:
            signature = signature[:32] + (
                int.from_bytes(signature[32:], "little") + L
            ).to_bytes(32, "little")
        elif kind == 4:
            signature = signature[:63]
        elif kind == 6:
            public = NON_CANONICAL[index % len(NON_CANONICAL)]
        elif kind == 7:
            flipped = bytearray(signature)
            flipped[index % 32] ^= 0x10
            signature = bytes(flipped)
        if kind in (1, 3, 4, 6, 7):
            bad.append(index)
        items.append((public, message, signature))
    return items, bad


def test_batch_verify_returns_exactly_the_per_item_failures():
    items, bad = _mixed_batch()
    assert both(crypto.ed25519_batch_verify, items) == bad
    valid = [item for index, item in enumerate(items) if index not in bad]
    assert both(crypto.ed25519_batch_verify, valid) == []
    assert both(crypto.ed25519_batch_verify, []) == []
    for index, item in enumerate(items):
        assert both(crypto.ed25519_batch_verify, [item]) == ([0] if index in bad else [])
        assert both(crypto.ed25519_verify, *item) is (index not in bad)


@PINNED
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=12))
def test_batch_verify_matches_serial_verification(shape):
    items = []
    for index, (signer, forged) in enumerate(shape):
        keypair = crypto.KeyPair.deterministic(f"prop-{signer}")
        message = b"m-%d" % index
        items.append((keypair.public, message + (b"?" if forged else b""),
                      keypair.sign(message)))
    expected = [index for index, (_, forged) in enumerate(shape) if forged]
    assert both(crypto.ed25519_batch_verify, items) == expected


def _sign_binding(seed: bytes, public: bytes, message: bytes) -> bytes:
    """An honest signature by ``seed``, except that the hash binds
    ``public`` — valid under ``A + T`` for the messages where the torsion
    point ``T`` happens to vanish under the hash scalar."""
    a, prefix, _ = ref._expand_seed(seed)
    r = ref._sha512_int(prefix, message) % L
    r_point = ref._encode_point(ref._base_mult(r))
    k = ref._sha512_int(r_point, public, message) % L
    return r_point + ((r + k * a) % L).to_bytes(32, "little")


def test_batch_verify_is_per_item_on_small_and_mixed_order_points():
    """What a random-linear-combination batch gets wrong: it reduces each
    signer's combined scalar mod L, which a small-order component does not
    survive. Next to one honest item such a batch passes 88 of the items
    rejected here (the combined equation has to hold for that, so each
    gets its own batch)."""
    honest = crypto.KeyPair.deterministic("honest")
    good = (honest.public, b"ok", honest.sign(b"ok"))
    items = [
        (public, message, r_point + bytes(32))
        for public in TORSION for r_point in TORSION for message in MESSAGES
    ]
    for torsion in TORSION:
        mixed = ref._encode_point(ref._point_add(
            ref._decode_point(honest.public), ref._decode_point(torsion)))
        items += [
            (mixed, message, _sign_binding(honest.seed, mixed, message))
            for message in MESSAGES
        ]
    rejected = 0
    for item in items:
        valid = both(crypto.ed25519_verify, *item)
        rejected += not valid
        assert both(crypto.ed25519_batch_verify, [good, item]) == (
            [] if valid else [1]
        )
    assert 50 < rejected < len(items) - 50


# ------------------------------------------------------------- fallback

_LOADGEN = """
import hashlib, json, sys
if {block!r}:
    sys.modules["cryptography"] = None
from repro.chain.crypto import backend_name
from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.workloads import LoadgenConfig, build_loadgen, run_loadgen

obs = Observability.enabled()
report = run_loadgen(build_loadgen(
    LoadgenConfig(sessions=24, executors=4, initiators=4, ramp=2.0, seed=5), obs=obs))
assert report["signature_backend"] == backend_name()
assert "signature_backend" not in json.dumps(report["deterministic"])
print(json.dumps({{
    "backend": backend_name(),
    "certified": report["deterministic"]["certified"],
    "deterministic": report["deterministic"],
    "prometheus": to_prometheus(obs.metrics),
    "loaded": "cryptography.hazmat.bindings._rust" in sys.modules,
}}))
"""


def _loadgen(block: bool) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _LOADGEN.format(block=block)],
        capture_output=True, text=True, timeout=120, check=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_without_cryptography_the_fallback_runs_and_changes_nothing():
    blocked, default = _loadgen(block=True), _loadgen(block=False)
    assert blocked["backend"] == "pure-python" and not blocked["loaded"]
    assert default["backend"] == ("openssl" if default["loaded"] else "pure-python")
    assert default["loaded"] or not HAVE_OPENSSL
    assert blocked["certified"] == 24
    assert blocked["deterministic"] == default["deterministic"]
    assert blocked["prometheus"].encode() == default["prometheus"].encode()
    assert "openssl" not in default["prometheus"]
    assert "pure-python" not in blocked["prometheus"]
