"""Exception hierarchy for the Debuglet reproduction.

Every error raised by this library derives from :class:`DebugletError`, so
applications can catch one base class. Subpackages raise the most specific
subclass that applies.
"""


class DebugletError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(DebugletError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(DebugletError):
    """The network simulator reached an inconsistent state."""


class SandboxError(DebugletError):
    """The sandboxed VM rejected or aborted a Debuglet program."""


class FuelExhausted(SandboxError):
    """A Debuglet exceeded its metered instruction budget."""


class MemoryFault(SandboxError):
    """A Debuglet accessed linear memory out of bounds."""


class ManifestError(DebugletError):
    """A Debuglet manifest is malformed or internally inconsistent."""


class PolicyViolation(DebugletError):
    """A Debuglet attempted an action its manifest or host policy forbids."""


class ChainError(DebugletError):
    """A blockchain transaction was rejected."""


class LedgerUnavailable(ChainError):
    """The ledger could not accept the transaction right now (transient).

    Raised by fault injection (and, in a real deployment, by network
    partitions or validator outages). Callers may retry with backoff;
    every other :class:`ChainError` is permanent and must not be retried.
    """


class SessionStalled(DebugletError):
    """A measurement session cannot make progress.

    Raised by :meth:`repro.core.marketplace.Initiator.run_until_done`
    when the simulator goes idle — or its hard timeout expires — while
    the session is still in a non-terminal state, and by the fleet
    scheduler (:mod:`repro.core.fleet`) when sessions are left behind at
    drain time. Carries the session so callers can inspect how far it
    got, plus (when the simulator has observability attached) the last
    engine events leading up to the stall, plus optional scheduler
    ``context`` — ready/blocked queue depths, the stalled session's
    ledger shard, live subscription counts — so the exception message
    alone is enough to debug with.
    """

    def __init__(
        self,
        session,
        message: str,
        events: list | None = None,
        context: dict | None = None,
    ) -> None:
        state = getattr(session, "state", None)
        detail = f" (session state: {state.value})" if state is not None else ""
        history = getattr(session, "state_history", None)
        if history:
            trail = " -> ".join(
                f"{st.value}@{t:.3f}s" for t, st in history[-8:]
            )
            detail += f"; history: {trail}"
        if context:
            rendered = ", ".join(f"{key}={value}" for key, value in context.items())
            detail += f"\nscheduler state: {rendered}"
        if events:
            lines = "\n  ".join(events)
            detail += f"\nlast engine events:\n  {lines}"
        super().__init__(message + detail)
        self.session = session
        self.state = state
        self.events = list(events or [])
        self.context = dict(context or {})


class InsufficientTokens(ChainError):
    """A transfer or escrow exceeds the sender's balance."""


class ContractRevert(ChainError):
    """A smart-contract entry function aborted; all state changes rolled back."""

    def __init__(self, reason: str):
        super().__init__(f"contract reverted: {reason}")
        self.reason = reason


class VerificationError(DebugletError):
    """A signature, certificate, or on-chain consistency check failed."""
