"""Debuglet applications: what an initiator ships to an executor.

Bundles the program (sandboxed module or native body), its manifest, the
arguments its entry point starts with, the port it listens on, and the
pinned forwarding path. Sandboxed applications serialize to a JSON wire
format whose ``source`` is the assembly text — the analogue of shipping
WA bytecode through the marketplace — and whose ``args`` are the
session's own values; any executor can reassemble and run them. Native
applications exist only as local baselines (Fig 8) and do not serialize.

The bytecode is shared by every session of a measurement kind, and the
arguments are what make a session its own (an echo client's port and
pacing). So the module's code hash keys everything derived from the
bytecode alone (the parse, the analysis, the compiled form), while
:meth:`DebugletApplication.code_hash` — what an executor certifies and a
verifier expects — covers the bytecode and the arguments together.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, ManifestError
from repro.common.serialize import canonical_encode
from repro.netsim.topology import PathHop
from repro.sandbox.assembler import assemble
from repro.sandbox.manifest import Manifest
from repro.sandbox.module import Module
from repro.sandbox.program import NativeProgram, RunnableProgram, VMProgram
from repro.sandbox.programs import StockProgram


@dataclass
class DebugletApplication:
    """One deployable measurement application.

    ``args`` are what ``run_debuglet`` starts with; a module that declares
    intervals for them is refused (at purchase, at admission, at
    ``VM.start``) any argument outside one. Sessions of one measurement
    kind share the module and differ only here, so :meth:`code_hash`
    covers both.
    """

    name: str
    manifest: Manifest
    module: Module | None = None
    native_factory: Callable[[], NativeProgram] | None = None
    listen_port: int | None = None
    path: list[PathHop] | None = None
    args: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if (self.module is None) == (self.native_factory is None):
            raise ConfigurationError(
                "application needs exactly one of module / native_factory"
            )
        if self.module is not None:
            self.manifest.validate_module(self.module)

    @property
    def is_sandboxed(self) -> bool:
        return self.module is not None

    def instantiate(self, *, obs=None, tier: str | None = None) -> RunnableProgram:
        """A fresh runnable program for one execution.

        ``obs`` (a :class:`repro.obs.Observability`) flows into the VM so
        sandboxed runs report fuel, traps, and host-op counts. ``tier``
        overrides the sandbox execution tier (default: the process-wide
        :data:`repro.sandbox.program.DEFAULT_TIER`, normally "auto" —
        the compiled tier with reference fallback); the translation is
        kept in the module's shared analysis, so per-session
        instantiation is a hash lookup.
        """
        if self.module is not None:
            return VMProgram(
                self.module,
                fuel_limit=self.manifest.max_instructions,
                obs=obs,
                tier=tier,
            )
        assert self.native_factory is not None
        return self.native_factory()

    def code_hash(self) -> bytes:
        """What the executor certifies it ran: the bytecode's hash, bound
        to the arguments when there are any (so a result certified for
        one port or pacing does not pass for another)."""
        if self.module is not None:
            if not self.args:
                return self.module.code_hash()
            return hashlib.sha256(
                self.module.code_hash() + canonical_encode(list(self.args))
            ).digest()
        return hashlib.sha256(f"native:{self.name}".encode("utf-8")).digest()

    @property
    def size_bytes(self) -> int:
        """On-chain storage size of the shipped application."""
        return len(self.to_wire())

    # --------------------------------------------------- wire format

    def to_wire(self) -> bytes:
        """Serialize for on-chain shipping (sandboxed applications only)."""
        if self.module is None:
            raise ConfigurationError("native applications cannot be shipped")
        payload = {
            "name": self.name,
            "source": self.module.source,
            "manifest": self.manifest.as_dict(),
            "listen_port": self.listen_port,
            "path": _encode_path(self.path),
            "args": list(self.args),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_wire(cls, wire: bytes) -> "DebugletApplication":
        try:
            payload = json.loads(wire.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ManifestError(f"malformed application wire format: {exc}") from exc
        module = assemble(payload["source"])
        return cls(
            name=payload["name"],
            manifest=Manifest.from_dict(payload["manifest"]),
            module=module,
            listen_port=payload.get("listen_port"),
            path=_decode_path(payload.get("path")),
            args=tuple(payload.get("args", [])),
        )

    # --------------------------------------------------- conveniences

    @classmethod
    def from_stock(
        cls,
        name: str,
        stock: StockProgram,
        *,
        listen_port: int | None = None,
        path: list[PathHop] | None = None,
    ) -> "DebugletApplication":
        return cls(
            name=name,
            manifest=stock.manifest,
            module=stock.module,
            listen_port=listen_port,
            path=path,
            args=stock.args,
        )


def _encode_path(path: list[PathHop] | None) -> list | None:
    if path is None:
        return None
    return [
        [hop.asn, -1 if hop.ingress is None else hop.ingress,
         -1 if hop.egress is None else hop.egress]
        for hop in path
    ]


def _decode_path(encoded: list | None) -> list[PathHop] | None:
    if encoded is None:
        return None
    return [
        PathHop(asn, None if ingress < 0 else ingress, None if egress < 0 else egress)
        for asn, ingress, egress in encoded
    ]
