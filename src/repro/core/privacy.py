"""Private measurement results (§IV-C).

"An initiator may want to keep the results private by encrypting the
results in the client and server applications using a cryptographic key
embedded in the applications. In that case, the results are not readable
by third parties."

:class:`ResultSealer` implements the scheme: a symmetric keystream derived
from the embedded key (SHA-256 in counter mode) XOR-masks the result
bytes *inside the application*, before they ever reach the executor's
output buffer. The executor certifies the ciphertext — verifiability is
preserved — while only key holders can decode the measurement.
:func:`sealed_native_echo_client` is a stock client with sealing applied.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import DebugletError
from repro.netsim.packet import Protocol
from repro.sandbox.program import NativeBody, NativeProgram
from repro.sandbox.programs_native import echo_client_body


class ResultSealer:
    """Symmetric result sealing with a key embedded in the application."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise DebugletError("sealing key must be at least 16 bytes")
        self.key = key

    def _keystream(self, length: int) -> bytes:
        blocks = []
        counter = 0
        while sum(len(b) for b in blocks) < length:
            blocks.append(
                hashlib.sha256(
                    self.key + counter.to_bytes(8, "little")
                ).digest()
            )
            counter += 1
        return b"".join(blocks)[:length]

    def seal(self, plaintext: bytes) -> bytes:
        stream = self._keystream(len(plaintext))
        return bytes(a ^ b for a, b in zip(plaintext, stream))

    def unseal(self, ciphertext: bytes) -> bytes:
        return self.seal(ciphertext)  # XOR is its own inverse

    def seal_i64(self, index: int, value: int) -> int:
        """Seal one i64 result word at stream position ``index``."""
        mask = int.from_bytes(
            self._keystream((index + 1) * 8)[index * 8 : (index + 1) * 8],
            "little",
        )
        return (value ^ mask) & ((1 << 64) - 1)

    def unseal_pairs(self, result: bytes) -> list[tuple[int, int]]:
        """Decode a sealed (key, value) i64-pair result."""
        from repro.sandbox.programs import decode_result_pairs

        return decode_result_pairs(self.unseal(result))


def sealed_native_echo_client(
    protocol: Protocol, sealer: ResultSealer, **schedule: int
) -> NativeProgram:
    """An echo client whose (seq, rtt) results leave the sandbox sealed.

    :func:`~repro.sandbox.programs_native.echo_client_body`'s schedule
    (same keyword arguments), with each ``result_i64`` word passed through
    :meth:`ResultSealer.seal_i64` in emission order.
    """

    def sealed(plain: NativeBody) -> NativeBody:
        words = 0
        reply = None
        while True:
            try:
                op, args, payload = plain.send(reply)
            except StopIteration as stop:
                return stop.value
            if op == "result_i64":
                args = (sealer.seal_i64(words, args[0]),)
                words += 1
            reply = yield (op, args, payload)

    return NativeProgram(lambda: sealed(echo_client_body(protocol, **schedule)))
