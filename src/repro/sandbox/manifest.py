"""Debuglet manifests: declared resource needs, evaluated before execution.

Per §IV-B, a Debuglet ships with a manifest containing its resource
requirements (CPU, duration, memory, packet counts), the addresses it will
contact, and the capabilities it needs. The remote AS evaluates the
manifest *before* running anything; at run time the executor enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ManifestError
from repro.netsim.packet import Address, Protocol
from repro.sandbox.module import Module

#: Provenance kinds a policy may declare as legitimate emission sources:
#: data derived from received packets, executor timestamps, executor
#: randomness. Constant/manifest-derived data is always allowed.
KNOWN_EMIT_SOURCES = ("net", "time", "rand")


@dataclass(frozen=True)
class DebugletPolicy:
    """Declarative output policy: what a purchased Debuglet may emit.

    This is the statically *proven* half of the contract an initiator
    buys (the manifest's resource ceilings are the enforced-at-runtime
    half). The verifier's taint/interval analyses certify, before any
    escrow moves, that

    - every ``result_i64``/``result_bytes`` emission derives only from
      the declared ``emit_sources`` (plus constants);
    - every ``net_send``/``net_reply`` size is provably at most
      ``max_send_size`` (when set);
    - every network call's protocol is in ``allowed_protocols`` (when
      set; None falls back to the manifest's capabilities).

    A program that cannot be *proven* compliant is rejected — the policy
    buys certainty, not best effort.
    """

    emit_sources: tuple[str, ...] = KNOWN_EMIT_SOURCES
    max_send_size: int | None = None
    allowed_protocols: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        unknown = set(self.emit_sources) - set(KNOWN_EMIT_SOURCES)
        if unknown:
            raise ManifestError(f"unknown emission sources: {sorted(unknown)}")
        if self.max_send_size is not None and self.max_send_size < 0:
            raise ManifestError("max_send_size must be non-negative")
        if self.allowed_protocols is not None:
            bad = set(self.allowed_protocols) - set(KNOWN_CAPABILITIES)
            if bad:
                raise ManifestError(f"unknown protocols: {sorted(bad)}")

    def as_dict(self) -> dict:
        return {
            "emit_sources": list(self.emit_sources),
            "max_send_size": self.max_send_size,
            "allowed_protocols": (
                None if self.allowed_protocols is None
                else list(self.allowed_protocols)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DebugletPolicy":
        allowed = data.get("allowed_protocols")
        return cls(
            emit_sources=tuple(data.get("emit_sources", KNOWN_EMIT_SOURCES)),
            max_send_size=data.get("max_send_size"),
            allowed_protocols=None if allowed is None else tuple(allowed),
        )


@dataclass(frozen=True)
class Manifest:
    """Resource and policy declaration accompanying a Debuglet.

    ``contacts`` is the ordered list of remote addresses the program may
    reach; host ops name peers by index into it, so the program physically
    cannot address anything undeclared.
    """

    max_instructions: int
    max_duration: float
    max_memory_bytes: int
    max_packets_sent: int
    max_packets_received: int
    contacts: tuple[Address, ...] = ()
    capabilities: tuple[str, ...] = ()
    max_result_bytes: int = 65536
    #: optional output policy, statically proven by the verifier before
    #: escrow; None means no emission restrictions beyond the above.
    policy: DebugletPolicy | None = None

    def __post_init__(self) -> None:
        if self.max_instructions <= 0:
            raise ManifestError("max_instructions must be positive")
        if self.max_duration <= 0:
            raise ManifestError("max_duration must be positive")
        if self.max_memory_bytes <= 0:
            raise ManifestError("max_memory_bytes must be positive")
        if self.max_packets_sent < 0 or self.max_packets_received < 0:
            raise ManifestError("packet limits must be non-negative")
        if self.max_result_bytes <= 0:
            raise ManifestError("max_result_bytes must be positive")
        unknown = set(self.capabilities) - set(KNOWN_CAPABILITIES)
        if unknown:
            raise ManifestError(f"unknown capabilities: {sorted(unknown)}")

    def allows_protocol(self, protocol: Protocol) -> bool:
        return protocol.name.lower() in self.capabilities

    def validate_module(self, module: Module) -> None:
        """Static admission check of a module against this manifest.

        Besides the memory ceiling, the manifest's declared capabilities
        must cover every network protocol the bytecode can statically be
        shown to use — a Debuglet cannot under-declare its way past an
        executor's capability policy. When a protocol argument is not
        statically derivable the check is left to runtime enforcement.
        """
        if module.memory_size > self.max_memory_bytes:
            raise ManifestError(
                f"module memory {module.memory_size} exceeds declared "
                f"{self.max_memory_bytes}"
            )
        from repro.sandbox.verifier import infer_capabilities

        used, derivable = infer_capabilities(module)
        if derivable:
            undeclared = used - set(self.capabilities)
            if undeclared:
                raise ManifestError(
                    f"module uses capabilities not declared in the "
                    f"manifest: {sorted(undeclared)}"
                )

    def as_dict(self) -> dict:
        """Serializable form (stored alongside the application on-chain)."""
        return {
            "max_instructions": self.max_instructions,
            "max_duration": self.max_duration,
            "max_memory_bytes": self.max_memory_bytes,
            "max_packets_sent": self.max_packets_sent,
            "max_packets_received": self.max_packets_received,
            "contacts": [[c.asn, c.host] for c in self.contacts],
            "capabilities": list(self.capabilities),
            "max_result_bytes": self.max_result_bytes,
            "policy": None if self.policy is None else self.policy.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        return cls(
            max_instructions=data["max_instructions"],
            max_duration=data["max_duration"],
            max_memory_bytes=data["max_memory_bytes"],
            max_packets_sent=data["max_packets_sent"],
            max_packets_received=data["max_packets_received"],
            contacts=tuple(Address(asn, host) for asn, host in data["contacts"]),
            capabilities=tuple(data["capabilities"]),
            max_result_bytes=data.get("max_result_bytes", 65536),
            policy=(
                None if data.get("policy") is None
                else DebugletPolicy.from_dict(data["policy"])
            ),
        )


#: Capabilities a manifest may request: one per probe protocol.
KNOWN_CAPABILITIES = ("udp", "tcp", "icmp", "raw_ip")


@dataclass(frozen=True)
class ExecutorPolicy:
    """An AS's admission policy for foreign Debuglets (§IV-B).

    A manifest is admitted only if every declared requirement fits under
    the policy's ceilings and every requested capability is offered. The
    bytecode itself is judged by the verifier, whose verdict no policy
    overrides: ``Executor.admit`` refuses any module that fails it.
    """

    max_instructions: int = 100_000_000
    max_duration: float = 3600.0
    max_memory_bytes: int = 16 * 1024 * 1024
    max_packets_sent: int = 1_000_000
    max_packets_received: int = 1_000_000
    max_result_bytes: int = 1024 * 1024
    offered_capabilities: tuple[str, ...] = KNOWN_CAPABILITIES
    blocked_asns: frozenset[int] = frozenset()

    def admit(self, manifest: Manifest) -> None:
        """Raise :class:`ManifestError` when the manifest is inadmissible."""
        checks = [
            ("max_instructions", manifest.max_instructions, self.max_instructions),
            ("max_duration", manifest.max_duration, self.max_duration),
            ("max_memory_bytes", manifest.max_memory_bytes, self.max_memory_bytes),
            ("max_packets_sent", manifest.max_packets_sent, self.max_packets_sent),
            (
                "max_packets_received",
                manifest.max_packets_received,
                self.max_packets_received,
            ),
            ("max_result_bytes", manifest.max_result_bytes, self.max_result_bytes),
        ]
        for name, asked, ceiling in checks:
            if asked > ceiling:
                raise ManifestError(f"{name}: requested {asked} > policy {ceiling}")
        missing = set(manifest.capabilities) - set(self.offered_capabilities)
        if missing:
            raise ManifestError(f"capabilities not offered: {sorted(missing)}")
        for contact in manifest.contacts:
            if contact.asn in self.blocked_asns:
                raise ManifestError(f"contact AS {contact.asn} is blocked by policy")
