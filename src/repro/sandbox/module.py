"""Bytecode modules: the unit a Debuglet is shipped and priced as.

A module declares its linear-memory size, named buffer regions (the
paper's ``udp_send_buffer``-style namespaces), globals, and functions. The
entry point must be called ``run_debuglet`` (§IV-B). ``encoded()`` gives
the canonical byte representation used for on-chain storage costs and the
code hash that executors certify.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.common.errors import SandboxError
from repro.common.serialize import canonical_encode
from repro.sandbox.isa import Instruction, Op, validate_instruction

ENTRY_POINT = "run_debuglet"

#: Hard ceiling on module memory, mirroring a small WA instance.
MAX_MEMORY_BYTES = 16 * 1024 * 1024

#: Entries kept by each per-process memo keyed by bytecode or its source
#: (the assembler's parses, the verifier's analyses and their fuel
#: estimates); the least recently used entry goes first.
CACHE_CAPACITY = 256


@dataclass(frozen=True)
class BufferSpec:
    """A named region of linear memory used by host I/O."""

    name: str
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise SandboxError(f"invalid buffer {self.name}: off={self.offset} size={self.size}")

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass
class Function:
    """One function: ``n_params`` arguments become locals 0..n-1."""

    name: str
    n_params: int
    n_locals: int
    code: list[Instruction] = field(default_factory=list)

    def validate(self) -> None:
        if self.n_params < 0 or self.n_locals < 0:
            raise SandboxError(f"function {self.name}: negative params/locals")
        for index, instruction in enumerate(self.code):
            try:
                validate_instruction(instruction)
            except ValueError as exc:
                raise SandboxError(f"{self.name}@{index}: {exc}") from exc
            if instruction.op in (Op.JMP, Op.JZ, Op.JNZ):
                target = instruction.arg
                if not 0 <= int(target) < len(self.code):
                    raise SandboxError(
                        f"{self.name}@{index}: jump target {target} out of range"
                    )


@dataclass
class Module:
    """A validated Debuglet bytecode module."""

    functions: dict[str, Function]
    memory_size: int = 65536
    buffers: dict[str, BufferSpec] = field(default_factory=dict)
    globals: dict[str, int] = field(default_factory=dict)
    source: str = ""

    def validate(self) -> None:
        """Check structural invariants; raise :class:`SandboxError` if bad."""
        if ENTRY_POINT not in self.functions:
            raise SandboxError(f"module lacks entry point {ENTRY_POINT!r}")
        if not 0 < self.memory_size <= MAX_MEMORY_BYTES:
            raise SandboxError(f"memory size {self.memory_size} out of range")
        for function in self.functions.values():
            function.validate()
            for instruction in function.code:
                if instruction.op is Op.CALL and instruction.arg not in self.functions:
                    raise SandboxError(f"call to unknown function {instruction.arg!r}")
                if instruction.op in (Op.GLOBAL_GET, Op.GLOBAL_SET):
                    if instruction.arg not in self.globals:
                        raise SandboxError(f"unknown global {instruction.arg!r}")
        for buffer in self.buffers.values():
            if buffer.end > self.memory_size:
                raise SandboxError(
                    f"buffer {buffer.name} [{buffer.offset}, {buffer.end}) exceeds memory"
                )

    def buffer(self, *names: str) -> BufferSpec:
        """First declared buffer among ``names`` (protocol-specific first)."""
        for name in names:
            if name in self.buffers:
                return self.buffers[name]
        raise SandboxError(f"module declares none of the buffers {names}")

    def copy(self) -> Module:
        """An equal module that shares nothing mutable with this one: its
        own function objects and code lists, buffer and global dicts.
        Instructions and buffer specs are frozen, so they are shared, and
        so are the memoised encoding and code hash when this module has
        them (it is finished, like every module that gets them)."""
        fresh = replace(
            self,
            functions={
                name: replace(function, code=list(function.code))
                for name, function in self.functions.items()
            },
            buffers=dict(self.buffers),
            globals=dict(self.globals),
        )
        for key in ("_encoded_cache", "_code_hash_cache"):
            if key in self.__dict__:
                fresh.__dict__[key] = self.__dict__[key]
        return fresh

    def encoded(self) -> bytes:
        """Canonical byte encoding (what gets stored on-chain).

        Memoised: modules are treated as immutable once constructed
        (the assembler and wire decoder both produce finished modules),
        and the encoding is re-requested for pricing, certification, and
        the compiled-module cache key.
        """
        cached = self.__dict__.get("_encoded_cache")
        if cached is None:
            cached = self._encode()
            self.__dict__["_encoded_cache"] = cached
        return cached

    def _encode(self) -> bytes:
        return canonical_encode(
            {
                "memory": self.memory_size,
                "buffers": [
                    [b.name, b.offset, b.size]
                    for b in sorted(self.buffers.values(), key=lambda b: b.name)
                ],
                "globals": {k: v for k, v in sorted(self.globals.items())},
                "functions": [
                    [
                        f.name,
                        f.n_params,
                        f.n_locals,
                        [
                            [i.op.value, i.arg if i.arg is not None else ""]
                            for i in f.code
                        ],
                    ]
                    for f in sorted(self.functions.values(), key=lambda f: f.name)
                ],
            }
        )

    def code_hash(self) -> bytes:
        """SHA-256 of the canonical encoding; what executors certify.

        Memoised alongside :meth:`encoded`; this is the compiled-module
        cache key, looked up once per admission and once per session VM.
        """
        cached = self.__dict__.get("_code_hash_cache")
        if cached is None:
            cached = hashlib.sha256(self.encoded()).digest()
            self.__dict__["_code_hash_cache"] = cached
        return cached

    @property
    def size_bytes(self) -> int:
        """Size of the shipped bytecode, for pricing (Table II)."""
        return len(self.encoded())

    def instruction_count(self) -> int:
        return sum(len(f.code) for f in self.functions.values())


def disassemble(module: "Module") -> str:
    """Render a module back to assembly text.

    The output re-assembles to a module with the same code hash as the
    original (comments and label names from the original source are not
    preserved; jump targets become ``L<index>`` labels).
    """
    lines: list[str] = [f".memory {module.memory_size}"]
    for buffer in sorted(module.buffers.values(), key=lambda b: b.offset):
        lines.append(f".buffer {buffer.name} {buffer.offset} {buffer.size}")
    for name, value in sorted(module.globals.items()):
        lines.append(f".global {name} {value}")
    for function in module.functions.values():
        lines.append(
            f".func {function.name} {function.n_params} {function.n_locals}"
        )
        targets = {
            instruction.arg
            for instruction in function.code
            if instruction.op in (Op.JMP, Op.JZ, Op.JNZ)
        }
        for index, instruction in enumerate(function.code):
            if index in targets:
                lines.append(f"L{index}:")
            if instruction.op in (Op.JMP, Op.JZ, Op.JNZ):
                lines.append(f"    {instruction.op.value} L{instruction.arg}")
            elif instruction.arg is None:
                lines.append(f"    {instruction.op.value}")
            else:
                lines.append(f"    {instruction.op.value} {instruction.arg}")
        # A jump target at the very end of the function needs its label.
        if len(function.code) in targets:
            lines.append(f"L{len(function.code)}:")
            lines.append("    nop")
        lines.append(".end")
    return "\n".join(lines) + "\n"
