"""Ahead-of-time verification of Debuglet bytecode modules: the readers.

Everything that depends on the bytecode alone — structure (V10x), CFGs and
the call graph (V102–V104), stack discipline (V20x), abstract
interpretation (V40x), taint and host-effect sequencing (V70x) — is
derived once per ``Module.code_hash()`` by
:class:`~repro.sandbox.verifier.analysis.ModuleAnalysis`; see that module
for the stages and what each assumes of the one before. This module holds
the two entry points that read it and add what depends on who is asking:

- :func:`verify_module` — the report. On top of the analysis's
  diagnostics: worst-case **fuel** per function and for the module,
  checked against the manifest's ``max_instructions`` (V30x, with the
  receive-drain bound from ``max_packets_received``); the
  **capabilities** the code can exercise, cross-checked against the
  manifest's declarations and, when given, an executor policy's offer
  (V50x); and the manifest's **policy block** against the emission/send
  dataflow (V60x).
- :func:`infer_capabilities` — the question ``Manifest.validate_module``
  asks, answered from the same host sites :func:`verify_module` reads,
  with nobody's declarations to check them against.

Every party still calls these itself and acts on its own report; a second
identical derivation in the same process is simply answered from the
first. Later stages assume the invariants earlier ones establish, so a
failed stage suppresses the ones after it (a module that underflows the
stack has no meaningful fuel bound). The report's ``ok`` is True iff no
diagnostic has ERROR severity; warnings and infos never block admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sandbox.hostops import protocol_from_number
from repro.sandbox.module import Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier import taint as tt
from repro.sandbox.verifier.absint import _NET_OPS, HostSite
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.sandbox.verifier.fuel import FuelVerdict

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.sandbox.manifest import ExecutorPolicy, Manifest


@dataclass
class VerificationReport:
    """Everything the verifier learned about one module."""

    diagnostics: list[d.Diagnostic] = field(default_factory=list)
    #: worst-case fuel for the entry point; None when analysis was suppressed
    fuel: FuelVerdict | None = None
    function_fuel: dict[str, FuelVerdict] = field(default_factory=dict)
    #: host operations reachable from the entry point
    host_ops: frozenset[str] = frozenset()
    #: network capabilities the code can exercise (protocol names)
    capabilities: frozenset[str] = frozenset()
    #: False when some network call's protocol was not statically derivable
    capabilities_derivable: bool = True

    @property
    def ok(self) -> bool:
        return not any(
            diag.severity is d.Severity.ERROR for diag in self.diagnostics
        )

    @property
    def errors(self) -> list[d.Diagnostic]:
        return [x for x in self.diagnostics if x.severity is d.Severity.ERROR]

    @property
    def warnings(self) -> list[d.Diagnostic]:
        return [x for x in self.diagnostics if x.severity is d.Severity.WARNING]

    def render(self, explain: bool = False) -> str:
        lines = [f"verdict: {'ok' if self.ok else 'rejected'}"]
        if self.fuel is not None:
            lines.append(f"fuel: {self.fuel.render()}")
        if self.host_ops:
            lines.append(f"host ops: {', '.join(sorted(self.host_ops))}")
        caps = ", ".join(sorted(self.capabilities)) or "none"
        suffix = "" if self.capabilities_derivable else " (partially derived)"
        lines.append(f"capabilities: {caps}{suffix}")
        lines.extend(diag.render(explain=explain) for diag in self.diagnostics)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "fuel": None if self.fuel is None else {
                "kind": self.fuel.kind,
                "bound": self.fuel.bound,
            },
            "function_fuel": {
                name: {"kind": verdict.kind, "bound": verdict.bound}
                for name, verdict in sorted(self.function_fuel.items())
            },
            "host_ops": sorted(self.host_ops),
            "capabilities": sorted(self.capabilities),
            "capabilities_derivable": self.capabilities_derivable,
            "diagnostics": [diag.as_dict() for diag in self.diagnostics],
        }


def verify_module(
    module: Module,
    manifest: "Manifest | None" = None,
    policy: "ExecutorPolicy | None" = None,
) -> VerificationReport:
    """Statically verify ``module``; admission-grade when a manifest is given.

    Without a manifest the verdict covers only intrinsic properties
    (structure, stack, memory, host-effect sequencing, termination
    shape); with one, fuel bounds and capabilities are additionally
    checked against its declarations — and its policy block, when
    present, against the emission/send dataflow — and with an executor
    policy, against the executor's offer. Every call builds its own
    report, copying what it keeps; the bytecode-only part, and the fuel
    estimate per pair of manifest limits, come from the module's shared
    :class:`ModuleAnalysis`.
    """
    analysis = ModuleAnalysis.of(module)
    report = VerificationReport(diagnostics=list(analysis.diagnostics))
    dataflow = analysis.dataflow
    if dataflow is None:
        return report

    estimate = analysis.fuel(
        None if manifest is None else manifest.max_instructions,
        None if manifest is None else manifest.max_packets_received,
    )
    report.diagnostics.extend(estimate.diagnostics)
    report.fuel = estimate.module_verdict
    report.function_fuel = dict(estimate.function_verdicts)

    _check_capabilities(dataflow.host_sites(), manifest, policy, report)
    report.diagnostics.extend(tt.check_policy(module, dataflow, manifest))
    return report


def infer_capabilities(module: Module) -> tuple[frozenset[str], bool]:
    """Network capabilities a module can exercise, plus derivability.

    Returns ``(capabilities, derivable)`` where ``derivable`` is False
    when some reachable network host call's protocol argument is not a
    static constant (the true set may then be larger). The host sites are
    the ones :func:`verify_module` reads; a module that fails validation,
    or whose dataflow stage did not run or did not converge, yields
    ``(frozenset(), False)`` — nothing provable.
    """
    analysis = ModuleAnalysis.of(module)
    dataflow = analysis.dataflow
    if (analysis.invalid is not None or dataflow is None
            or not dataflow.converged):
        return frozenset(), False
    report = VerificationReport()
    _check_capabilities(dataflow.host_sites(), None, None, report)
    # With nobody to compare against, the only possible error is a
    # protocol number no capability names (V502): not derivable either.
    return report.capabilities, report.capabilities_derivable and report.ok


# --------------------------------------------------------------------------
# what depends on who is asking: capabilities


def _check_capabilities(
    host_sites: list[HostSite],
    manifest: "Manifest | None",
    policy: "ExecutorPolicy | None",
    report: VerificationReport,
) -> None:
    report.host_ops = frozenset(site.op for site in host_sites)
    capabilities: set[str] = set()
    derivable = True
    for site in host_sites:
        if site.op not in _NET_OPS:
            continue
        if site.protocol is None:
            derivable = False
            report.diagnostics.append(d.warning(
                d.PROTOCOL_NOT_DERIVABLE,
                f"protocol argument of {site.op} is not statically "
                "derivable; capability use will be enforced at run time",
                site.function, site.instruction,
            ))
            continue
        try:
            protocol = protocol_from_number(site.protocol)
        except Exception:
            report.diagnostics.append(d.error(
                d.UNSUPPORTED_PROTOCOL,
                f"{site.op} uses unsupported protocol number {site.protocol}",
                site.function, site.instruction,
            ))
            continue
        capabilities.add(protocol.name.lower())
    report.capabilities = frozenset(capabilities)
    report.capabilities_derivable = derivable

    if manifest is not None:
        undeclared = capabilities - set(manifest.capabilities)
        for capability in sorted(undeclared):
            report.diagnostics.append(d.error(
                d.CAPABILITY_UNDECLARED,
                f"code exercises {capability!r} but the manifest does not "
                "declare it",
            ))
        if derivable:
            for capability in sorted(set(manifest.capabilities) - capabilities):
                report.diagnostics.append(d.info(
                    d.CAPABILITY_UNUSED,
                    f"manifest declares {capability!r} but no reachable "
                    "host call can use it",
                ))
    if policy is not None:
        refused = capabilities - set(policy.offered_capabilities)
        for capability in sorted(refused):
            report.diagnostics.append(d.error(
                d.CAPABILITY_NOT_OFFERED,
                f"code exercises {capability!r} which the executor policy "
                "does not offer",
            ))
