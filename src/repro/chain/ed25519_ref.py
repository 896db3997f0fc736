"""Pure-Python Ed25519 (RFC 8032): the reference and the fallback.

:mod:`repro.chain.crypto` loads this module only when the ``cryptography``
package cannot be imported, or when a test asks for the reference to pin
the OpenSSL backend against it. Nothing else imports it, so a process
that never signs — or that signs through OpenSSL — never pays for the
import-time base-point table below.

Extended homogeneous coordinates — no inversions on the hot path — make
sign/verify fast enough for simulation workloads. On top of that:

* a fixed-base radix-256 comb (``_BASE_COMB``) turns every base-point
  multiply into ~31 table additions;
* the comb holds points in Niels form (``(y-x, y+x, 2dxy)`` of the affine
  point, converted once via a Montgomery batched inversion), so every
  table-lookup addition is a 7-multiplication mixed add instead of the
  9-multiplication generic extended add.

There is deliberately no batch verification here. The usual
random-linear-combination check is unsound for the cofactorless equation
:func:`ed25519_verify` checks — a signer key or ``R`` with a small-order
component can satisfy the combined equation and fail its own — so a batch
is a per-item loop in :mod:`repro.chain.crypto`, the same under both
backends.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import VerificationError

_Q = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _Q - 2, _Q)) % _Q
_I = pow(2, (_Q - 1) // 4, _Q)

Point = tuple[int, int, int, int]  # extended homogeneous (X, Y, Z, T)

_IDENTITY: Point = (0, 1, 1, 0)


def _point_add(p: Point, q: Point) -> Point:
    # add-2008-hwcd-3 for twisted Edwards curves with a = -1.
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _Q
    b = ((y1 + x1) * (y2 + x2)) % _Q
    c = (2 * t1 * t2 * _D) % _Q
    d = (2 * z1 * z2) % _Q
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _point_double(p: Point) -> Point:
    x1, y1, z1, _ = p
    a = (x1 * x1) % _Q
    b = (y1 * y1) % _Q
    c = (2 * z1 * z1) % _Q
    h = (a + b) % _Q
    e = (h - (x1 + y1) * (x1 + y1)) % _Q
    g = (a - b) % _Q
    f = (c + g) % _Q
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _scalar_mult(p: Point, e: int) -> Point:
    result = _IDENTITY
    addend = p
    while e:
        if e & 1:
            result = _point_add(result, addend)
        addend = _point_double(addend)
        e >>= 1
    return result


# Precomputed points in "Niels" form: (y-x, y+x, 2*d*x*y) of the *affine*
# point. A mixed addition against such an entry (madd-2008-hwcd-3 with
# Z2 = 1) costs 7 field multiplications instead of the 9 a generic
# extended-extended addition pays — a ~20% saving that applies to every
# table-lookup addition in the comb below.
Niels = tuple[int, int, int]


def _mixed_add(p: Point, n: Niels) -> Point:
    x1, y1, z1, t1 = p
    ymx, ypx, td2 = n
    a = ((y1 - x1) * ymx) % _Q
    b = ((y1 + x1) * ypx) % _Q
    c = (t1 * td2) % _Q
    d = 2 * z1
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % _Q, (g * h) % _Q, (f * g) % _Q, (e * h) % _Q)


def _batch_invert(values: list[int]) -> list[int]:
    """Montgomery's trick: n inversions for one exponentiation."""
    prefix: list[int] = []
    acc = 1
    for value in values:
        acc = acc * value % _Q
        prefix.append(acc)
    inverse = pow(acc, -1, _Q)
    out = [0] * len(values)
    for index in range(len(values) - 1, 0, -1):
        out[index] = prefix[index - 1] * inverse % _Q
        inverse = inverse * values[index] % _Q
    out[0] = inverse
    return out


def _to_niels(points: list[Point]) -> list[Niels]:
    """Convert extended points to Niels form with one shared inversion."""
    inverses = _batch_invert([p[2] for p in points])
    out: list[Niels] = []
    for (x, y, _z, _t), zinv in zip(points, inverses):
        ax = x * zinv % _Q
        ay = y * zinv % _Q
        out.append(((ay - ax) % _Q, (ay + ax) % _Q, 2 * _D * ax * ay % _Q))
    return out


def _inv(value: int) -> int:
    """Modular inverse via C-level extended GCD — ~18x the Fermat pow."""
    try:
        return pow(value, -1, _Q)
    except ValueError:
        raise VerificationError("field element is not invertible") from None


def _recover_x(y: int, sign: int) -> int:
    xx = (y * y - 1) * _inv(_D * y * y + 1) % _Q
    x = pow(xx, (_Q + 3) // 8, _Q)
    if (x * x - xx) % _Q != 0:
        x = (x * _I) % _Q
    if (x * x - xx) % _Q != 0:
        raise VerificationError("invalid point encoding")
    if x == 0 and sign:
        # RFC 8032 §5.1.3 step 4: there is no "negative zero".
        raise VerificationError("invalid point encoding")
    if x & 1 != sign:
        x = _Q - x
    return x


_BY = (4 * pow(5, _Q - 2, _Q)) % _Q
_BX = _recover_x(_BY, 0)
_BASE: Point = (_BX, _BY, 1, (_BX * _BY) % _Q)

# Windowed table: _BASE_TABLE[i] = 2^i * B, for fast base-point multiplies.
_BASE_TABLE: list[Point] = []
_pt = _BASE
for _ in range(256):
    _BASE_TABLE.append(_pt)
    _pt = _point_double(_pt)

# Fixed-base comb: _BASE_COMB[i][d] = d * 2^(8i) * B for d in 1..255, so a
# base-point multiply is ~31 additions (one table lookup per radix-256
# digit) instead of ~127 — the base multiply sits on every sign AND every
# verify, so this one table speeds the whole chain. Entries are stored in
# Niels form so each lookup addition is a 7-mult mixed add. Built lazily:
# ~8k point additions plus one batched inversion (~100 ms) on the first
# signature, then amortized across the millions of multiplies a fleet run
# performs.
_BASE_COMB: list[list[Niels]] = []

#: Niels identity — never looked up (zero digits are skipped), placeholder
#: keeps table indices aligned with digit values.
_N_IDENTITY: Niels = (1, 1, 0)


def _build_base_comb() -> None:
    for i in range(32):
        window: list[Point] = []
        step = _BASE_TABLE[8 * i]
        accumulator = step
        for _ in range(255):
            window.append(accumulator)
            accumulator = _point_add(accumulator, step)
        _BASE_COMB.append([_N_IDENTITY] + _to_niels(window))


def _base_mult(e: int) -> Point:
    if not _BASE_COMB:
        _build_base_comb()
    result = _IDENTITY
    index = 0
    while e:
        digit = e & 255
        if digit:
            result = _mixed_add(result, _BASE_COMB[index][digit])
        e >>= 8
        index += 1
    return result


def _encode_point(p: Point) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    x = (x * zinv) % _Q
    y = (y * zinv) % _Q
    return ((y | ((x & 1) << 255))).to_bytes(32, "little")


def _decode_point(data: bytes) -> Point:
    if len(data) != 32:
        raise VerificationError("point encoding must be 32 bytes")
    value = int.from_bytes(data, "little")
    y = value & ((1 << 255) - 1)
    sign = value >> 255
    if y >= _Q:
        raise VerificationError("point y out of range")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _Q)


def _sha512_int(*parts: bytes) -> int:
    hasher = hashlib.sha512()
    for part in parts:
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "little")


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


# Expanded-key cache: sha512(seed) expansion and the derived public key
# are fixed per seed, yet the textbook sign path recomputes them — one
# extra sha512 plus a full base-point multiply per signature. Simulation
# fleets sign with a bounded set of keys, so a keyed cache amortizes the
# expansion to once per key. Bounded to stay safe under key churn.
_EXPANDED_KEYS: dict[bytes, tuple[int, bytes, bytes]] = {}
_EXPANDED_KEYS_MAX = 8192


def _expand_seed(seed: bytes) -> tuple[int, bytes, bytes]:
    expanded = _EXPANDED_KEYS.get(seed)
    if expanded is None:
        digest = hashlib.sha512(seed).digest()
        a = _clamp(digest[:32])
        prefix = digest[32:]
        public = _encode_point(_base_mult(a))
        if len(_EXPANDED_KEYS) >= _EXPANDED_KEYS_MAX:
            _EXPANDED_KEYS.clear()
        _EXPANDED_KEYS[seed] = expanded = (a, prefix, public)
    return expanded


# Decoded public keys: point decoding costs a field exponentiation, and
# verify paths see the same handful of signer keys over and over.
_DECODED_PUBLIC: dict[bytes, Point] = {}
_DECODED_PUBLIC_MAX = 8192


def _decode_public(public: bytes) -> Point:
    point = _DECODED_PUBLIC.get(public)
    if point is None:
        point = _decode_point(public)
        if len(_DECODED_PUBLIC) >= _DECODED_PUBLIC_MAX:
            _DECODED_PUBLIC.clear()
        _DECODED_PUBLIC[public] = point
    return point


def ed25519_public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte seed."""
    if len(seed) != 32:
        raise VerificationError("seed must be 32 bytes")
    return _expand_seed(seed)[2]


def ed25519_sign(seed: bytes, message: bytes) -> bytes:
    """Produce a 64-byte RFC 8032 signature."""
    a, prefix, public = _expand_seed(seed)
    r = _sha512_int(prefix, message) % _L
    r_point = _encode_point(_base_mult(r))
    k = _sha512_int(r_point, public, message) % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; returns False rather than raising on mismatch."""
    if len(signature) != 64 or len(public) != 32:
        return False
    try:
        a_point = _decode_public(public)
        r_point = _decode_point(signature[:32])
    except VerificationError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = _sha512_int(signature[:32], public, message) % _L
    left = _base_mult(s)
    right = _point_add(r_point, _scalar_mult(a_point, k))
    # Compare projective points: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
    x1, y1, z1, _ = left
    x2, y2, z2, _ = right
    return (x1 * z2 - x2 * z1) % _Q == 0 and (y1 * z2 - y2 * z1) % _Q == 0
