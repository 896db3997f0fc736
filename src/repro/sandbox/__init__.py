"""The Debuglet sandbox: a WebAssembly-analogue execution environment.

Provides the properties the paper requires of its WA runtime (§IV-B):
memory safety (bounds-checked linear memory), bounded execution (fuel
metering), and a narrow host API (buffers plus packet send/receive). The
native-program twin runs the same logic unsandboxed for the Fig 8
overhead comparison.
"""

from repro.sandbox.assembler import AssemblyError, assemble
from repro.sandbox.compile import (
    CompiledModule,
    CompileUnsupported,
    compile_module,
    get_compiled,
)
from repro.sandbox.hostops import (
    HOST_OPS,
    RECV_HEADER_SIZE,
    protocol_from_number,
)
from repro.sandbox.isa import FUEL_COST, Instruction, Op
from repro.sandbox.manifest import KNOWN_CAPABILITIES, ExecutorPolicy, Manifest
from repro.sandbox.module import ENTRY_POINT, BufferSpec, Function, Module, disassemble
from repro.sandbox.program import (
    NativeProgram,
    ReceivedData,
    RunnableProgram,
    VMProgram,
)
from repro.sandbox.programs import (
    StockProgram,
    decode_result_pairs,
    echo_client,
    echo_server,
    oneway_receiver,
    oneway_sender,
)
from repro.sandbox.programs_native import (
    native_echo_client,
    native_echo_server,
    native_oneway_receiver,
    native_oneway_sender,
)
from repro.sandbox.verifier import (
    Diagnostic,
    FuelVerdict,
    Severity,
    VerificationReport,
    infer_capabilities,
    verify_module,
)
from repro.sandbox.vm import VM, Done, HostCall

__all__ = [
    "AssemblyError",
    "BufferSpec",
    "CompileUnsupported",
    "CompiledModule",
    "Diagnostic",
    "Done",
    "ENTRY_POINT",
    "ExecutorPolicy",
    "FUEL_COST",
    "FuelVerdict",
    "Function",
    "HOST_OPS",
    "HostCall",
    "Instruction",
    "KNOWN_CAPABILITIES",
    "Manifest",
    "Module",
    "NativeProgram",
    "Op",
    "RECV_HEADER_SIZE",
    "ReceivedData",
    "RunnableProgram",
    "Severity",
    "StockProgram",
    "VM",
    "VMProgram",
    "VerificationReport",
    "assemble",
    "compile_module",
    "decode_result_pairs",
    "get_compiled",
    "disassemble",
    "echo_client",
    "echo_server",
    "infer_capabilities",
    "native_echo_client",
    "native_echo_server",
    "native_oneway_receiver",
    "native_oneway_sender",
    "oneway_receiver",
    "oneway_sender",
    "protocol_from_number",
    "verify_module",
]
