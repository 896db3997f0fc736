"""Assembler: textual Debuglet assembly → :class:`~repro.sandbox.module.Module`.

The source format, one item per line (``;`` starts a comment):

.. code-block:: text

    .memory 65536
    .buffer udp_send_buffer 0 1024
    .buffer udp_recv_buffer 1024 1056
    .global counter 0
    .func run_debuglet 0 2        ; name, n_params, n_locals
        push 10
        local_set 0
    loop:                          ; labels end with ':'
        local_get 0
        jz done
        local_get 0
        push 1
        sub
        local_set 0
        jmp loop
    done:
        push 0
        ret
    .end

Numeric immediates may be decimal (optionally negative) or ``0x`` hex.
Jumps take label names; the assembler resolves them to instruction
indices. ``host`` and ``call`` take symbolic names kept as strings.

A source this process has already assembled is not parsed again: the
parsed module is kept (least recently used first out, up to
:data:`~repro.sandbox.module.CACHE_CAPACITY` sources) and every caller
gets its own :meth:`~repro.sandbox.module.Module.copy`, encoding and code
hash included. A program is typically assembled by its author, by the
contract at purchase and by every executor and verifier that decodes its
wire; only the first of them pays for the parse and the encoding.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.common.errors import SandboxError
from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import CACHE_CAPACITY, BufferSpec, Function, Module

_OPS_BY_NAME = {op.value: op for op in Op}
_LABEL_OPS = (Op.JMP, Op.JZ, Op.JNZ)
_NAME_OPS = (Op.CALL, Op.HOST, Op.GLOBAL_GET, Op.GLOBAL_SET)
_INT_OPS = (Op.PUSH, Op.LOCAL_GET, Op.LOCAL_SET, Op.LOCAL_TEE)


class AssemblyError(SandboxError):
    """Raised with the offending line number (and, when the failure is
    inside a ``.func`` body, the enclosing function name) on any parse
    failure. ``line_no``/``function``/``detail`` carry the parts
    separately for tooling."""

    def __init__(self, line_no: int, message: str, function: str | None = None):
        where = f"line {line_no}"
        if function is not None:
            where += f" (in function {function!r})"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.function = function
        self.detail = message


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(line_no, f"expected integer, got {token!r}") from None


_parsed: OrderedDict[str, Module] = OrderedDict()
_parsed_lock = threading.Lock()


def assemble(source: str) -> Module:
    """Assemble ``source`` into a validated :class:`Module` of the caller's
    own (see the module docstring for what is shared)."""
    with _parsed_lock:
        parsed = _parsed.get(source)
        if parsed is not None:
            _parsed.move_to_end(source)
    if parsed is None:
        parsed = _parse(source)
        parsed.code_hash()  # encoded once, carried by every copy
        with _parsed_lock:
            _parsed[source] = parsed
            while len(_parsed) > CACHE_CAPACITY:
                _parsed.popitem(last=False)
    return parsed.copy()


def _parse(source: str) -> Module:
    memory_size = 65536
    buffers: dict[str, BufferSpec] = {}
    globals_: dict[str, int] = {}
    functions: dict[str, Function] = {}

    current: Function | None = None
    labels: dict[str, int] = {}
    fixups: list[tuple[int, str, int]] = []  # (code index, label, line)
    call_sites: list[tuple[str, int, str, int]] = []  # (func, index, callee, line)

    try:
        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split(";", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            head = tokens[0]

            if head == ".memory":
                if len(tokens) != 2:
                    raise AssemblyError(line_no, ".memory takes one argument")
                memory_size = _parse_int(tokens[1], line_no)
                continue
            if head == ".buffer":
                if len(tokens) != 4:
                    raise AssemblyError(line_no, ".buffer takes name, offset, size")
                name = tokens[1]
                if name in buffers:
                    raise AssemblyError(line_no, f"duplicate buffer {name!r}")
                buffers[name] = BufferSpec(
                    name,
                    _parse_int(tokens[2], line_no),
                    _parse_int(tokens[3], line_no),
                )
                continue
            if head == ".global":
                if len(tokens) != 3:
                    raise AssemblyError(
                        line_no, ".global takes name and initial value"
                    )
                if tokens[1] in globals_:
                    raise AssemblyError(
                        line_no, f"duplicate global {tokens[1]!r}"
                    )
                globals_[tokens[1]] = _parse_int(tokens[2], line_no)
                continue
            if head == ".func":
                if current is not None:
                    raise AssemblyError(line_no, "nested .func (missing .end?)")
                if len(tokens) != 4:
                    raise AssemblyError(
                        line_no, ".func takes name, n_params, n_locals"
                    )
                name = tokens[1]
                if name in functions:
                    raise AssemblyError(line_no, f"duplicate function {name!r}")
                current = Function(
                    name,
                    _parse_int(tokens[2], line_no),
                    _parse_int(tokens[3], line_no),
                )
                labels = {}
                fixups = []
                continue
            if head == ".end":
                if current is None:
                    raise AssemblyError(line_no, ".end outside a function")
                for index, label, fixup_line in fixups:
                    if label not in labels:
                        raise AssemblyError(
                            fixup_line, f"undefined label {label!r}"
                        )
                    target = labels[label]
                    if target >= len(current.code):
                        raise AssemblyError(
                            fixup_line,
                            f"label {label!r} points past the end of "
                            f"{current.name!r} (target {target}, "
                            f"{len(current.code)} instruction(s))",
                        )
                    old = current.code[index]
                    current.code[index] = Instruction(old.op, target)
                functions[current.name] = current
                current = None
                continue

            if current is None:
                raise AssemblyError(
                    line_no, f"instruction outside a function: {line!r}"
                )

            if head.endswith(":") and len(tokens) == 1:
                label = head[:-1]
                if label in labels:
                    raise AssemblyError(line_no, f"duplicate label {label!r}")
                labels[label] = len(current.code)
                continue

            op = _OPS_BY_NAME.get(head)
            if op is None:
                raise AssemblyError(line_no, f"unknown instruction {head!r}")
            if op in _LABEL_OPS:
                if len(tokens) != 2:
                    raise AssemblyError(line_no, f"{head} takes a label")
                fixups.append((len(current.code), tokens[1], line_no))
                current.code.append(Instruction(op, -1))  # patched at .end
            elif op in _NAME_OPS:
                if len(tokens) != 2:
                    raise AssemblyError(line_no, f"{head} takes a name")
                name = tokens[1]
                if op is Op.HOST and name not in HOST_OPS:
                    raise AssemblyError(
                        line_no,
                        f"unknown host operation {name!r} "
                        f"(instruction {len(current.code)} of {current.name!r})",
                    )
                if op is Op.CALL:
                    # Callees may be defined later; checked after the last .end.
                    call_sites.append(
                        (current.name, len(current.code), name, line_no)
                    )
                current.code.append(Instruction(op, name))
            elif op in _INT_OPS:
                if len(tokens) != 2:
                    raise AssemblyError(line_no, f"{head} takes an integer")
                value = _parse_int(tokens[1], line_no)
                if op is not Op.PUSH:
                    n_slots = current.n_params + current.n_locals
                    if not 0 <= value < n_slots:
                        raise AssemblyError(
                            line_no,
                            f"local index {value} out of range — "
                            f"{current.name!r} has {n_slots} slot(s) "
                            f"(instruction {len(current.code)})",
                        )
                current.code.append(Instruction(op, value))
            else:
                if len(tokens) != 1:
                    raise AssemblyError(line_no, f"{head} takes no argument")
                current.code.append(Instruction(op))

        if current is not None:
            raise AssemblyError(len(source.splitlines()), "unterminated .func")
    except AssemblyError as exc:
        if exc.function is None and current is not None:
            raise AssemblyError(
                exc.line_no, exc.detail, current.name
            ) from None
        raise

    for func_name, index, callee, site_line in call_sites:
        if callee not in functions:
            raise AssemblyError(
                site_line,
                f"call to unknown function {callee!r} "
                f"(instruction {index} of {func_name!r})",
                func_name,
            )

    module = Module(
        functions=functions,
        memory_size=memory_size,
        buffers=buffers,
        globals=globals_,
        source=source,
    )
    module.validate()
    return module
