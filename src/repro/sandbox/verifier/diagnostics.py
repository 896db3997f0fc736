"""Diagnostics emitted by the ahead-of-time bytecode verifier.

Every finding carries a stable code (``V1xx`` structure, ``V2xx`` stack,
``V3xx`` fuel, ``V4xx`` memory, ``V5xx`` capabilities), a severity, and —
where it concerns one instruction — the function name and instruction
index, so tooling (the ``repro verify`` CLI, the marketplace contract,
executors) can render or match findings precisely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# --------------------------------------------------------------- structure
JUMP_OUT_OF_RANGE = "V100"
UNKNOWN_CALL = "V101"
UNREACHABLE_CODE = "V102"
RECURSIVE_CALL = "V103"
CALL_DEPTH_EXCEEDED = "V104"
UNKNOWN_HOST_OP = "V105"
MISSING_ENTRY_POINT = "V106"
BAD_LOCAL_INDEX = "V107"
UNKNOWN_GLOBAL = "V108"
MALFORMED_INSTRUCTION = "V109"
MODULE_INVALID = "V110"

# ------------------------------------------------------------------- stack
STACK_UNDERFLOW = "V200"
STACK_OVERFLOW = "V201"
STACK_DEPTH_MISMATCH = "V202"
CALL_CHAIN_STACK_OVERFLOW = "V203"

# -------------------------------------------------------------------- fuel
FUEL_EXCEEDS_LIMIT = "V300"
FUEL_UNBOUNDED = "V301"
FUEL_NO_EXIT = "V302"

# ------------------------------------------------------------------ memory
MEMORY_OUT_OF_BOUNDS = "V400"
MEMORY_NOT_DERIVABLE = "V401"
DIVISION_BY_ZERO = "V402"

# ------------------------------------------------------------ capabilities
CAPABILITY_UNDECLARED = "V500"
CAPABILITY_NOT_OFFERED = "V501"
UNSUPPORTED_PROTOCOL = "V502"
PROTOCOL_NOT_DERIVABLE = "V503"
CAPABILITY_UNUSED = "V504"

# ----------------------------------------------------- taint / emit policy
EMIT_UNDECLARED_SOURCE = "V600"
EMIT_NOT_DERIVABLE = "V601"
SEND_SIZE_EXCEEDS_BUFFER = "V602"
SEND_SIZE_EXCEEDS_POLICY = "V603"
SEND_PORT_OUT_OF_RANGE = "V604"
SEND_CONTACT_OUT_OF_RANGE = "V605"
PROTOCOL_NOT_ALLOWED = "V606"
EMIT_SOURCE_UNUSED = "V607"

# ------------------------------------------------------ host-effect order
REPLY_WITHOUT_RECV = "V700"
RECV_TIMEOUT_NONPOSITIVE = "V701"
RECV_TIMEOUT_UNBOUNDED = "V702"
MISSING_BUFFER = "V703"


class Severity(enum.Enum):
    """How a diagnostic affects the verdict: only errors fail verification."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding, locatable to an instruction when applicable.

    ``path`` carries the dataflow or control-flow witness behind the
    finding — a sequence of ``function@index op`` steps from the source
    of the offending value (or the entry point) to the flagged
    instruction. Empty for findings with no interesting path; rendered
    only by ``repro verify --explain``.
    """

    code: str
    severity: Severity
    message: str
    function: str | None = None
    instruction: int | None = None
    path: tuple[str, ...] = ()

    @property
    def location(self) -> str:
        if self.function is None:
            return "<module>"
        if self.instruction is None:
            return self.function
        return f"{self.function}@{self.instruction}"

    def render(self, explain: bool = False) -> str:
        line = f"[{self.code}] {self.severity.value} {self.location}: {self.message}"
        if explain and self.path:
            steps = "\n".join(f"    {i}. {step}" for i, step in enumerate(self.path, 1))
            line = f"{line}\n  path:\n{steps}"
        return line

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "function": self.function,
            "instruction": self.instruction,
            "path": list(self.path),
        }


def error(code: str, message: str, function: str | None = None,
          instruction: int | None = None,
          path: tuple[str, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, function, instruction, path)


def warning(code: str, message: str, function: str | None = None,
            instruction: int | None = None,
            path: tuple[str, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, function, instruction, path)


def info(code: str, message: str, function: str | None = None,
         instruction: int | None = None,
         path: tuple[str, ...] = ()) -> Diagnostic:
    return Diagnostic(code, Severity.INFO, message, function, instruction, path)
