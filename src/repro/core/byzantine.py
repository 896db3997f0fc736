"""Byzantine executor strategies — the attack model (DESIGN.md §11).

Debuglet's headline claim is *verifiable* telemetry, so the reproduction
needs an adversary worth defending against. A
:class:`ByzantineCorruptor` attaches to an honest
:class:`~repro.core.executor.Executor` (``executor.corruptor``) and
tampers with completed executions at the only point a real malicious
operator could: between the sandbox finishing and the certificate being
signed. Everything upstream — the network, the VM, the manifest
enforcement — runs honestly; the lie is injected into what the executor
*reports*.

Strategies (each seeded and started at a set time, so attacks are
deterministic and compose with crashes/outages via ``repro.chaos``):

- ``FORGE_VALUES`` — report better RTTs than measured. With
  ``forge_log=False`` only the result bytes are patched, so a
  challenge–response replay of the interaction log contradicts the
  published result. With ``forge_log=True`` the corruptor rewrites the
  transcript *consistently* (shifting the logged ``now_us`` reply
  timestamps so a replay re-derives the forged RTTs, and patching the
  published ``result_bytes`` payload to match) — replay audits
  pass and only cross-validation against independent vantage points
  catches the lie.
- ``HIDE_FAULTS`` — fabricate ``(seq, rtt)`` pairs for probes the
  network actually lost, hiding faults on the executor's own segments
  (§VI). The transcript still shows the timeouts, so replay audits catch
  it; so does the client-pairs vs server-echo-count cross-check.
- ``REPLAY_RESULT`` — re-publish a previous execution's result and
  transcript under a new application (equivocation across sessions).
  Internally consistent, freshly certified — caught by duplicate
  result-hash detection across applications.
- ``STALE_CERTIFICATE`` — re-publish an old result *with its old
  certificate*, skipping execution entirely. The certificate's
  timestamps fall outside the purchased window — caught by window
  containment.

Every corruption is recorded as an :class:`AttackRecord` and stamps
``record.tampered``: ground truth for the adversarial battery
(detection-rate scoring, zero-false-positive checks). The defense
pipeline (``repro.core.audit``) never reads either.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.crypto import sha256
from repro.common.rng import derive_rng
from repro.sandbox.hostops import output_bytes
from repro.sandbox.programs import decode_result_pairs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.executor import ExecutionRecord, Executor

_MASK64 = (1 << 64) - 1

#: Forged RTT range in microseconds, inclusive (FORGE_VALUES / HIDE_FAULTS).
FORGE_RTT_US = (100, 800)


class ByzantineStrategy(enum.Enum):
    """The attack repertoire."""

    FORGE_VALUES = "forge_values"
    HIDE_FAULTS = "hide_faults"
    REPLAY_RESULT = "replay_result"
    STALE_CERTIFICATE = "stale_certificate"


@dataclass
class AttackRecord:
    """Ground truth for one corrupted execution (test oracle only)."""

    strategy: ByzantineStrategy
    vantage: tuple[int, int]
    application: str
    code_hash: bytes
    result_hash: bytes
    at: float
    detail: str = ""


@dataclass
class ByzantineCorruptor:
    """Seeded corruption of one executor's certified outputs.

    Install with ``executor.corruptor = corruptor`` (or via
    :meth:`repro.chaos.ChaosInjector.corrupt_executor`, which also makes
    the attack revocable and visible in the chaos ground truth). Only
    executions finishing at or after ``start`` are corrupted.
    """

    strategy: ByzantineStrategy
    seed: int = 0
    start: float = 0.0
    #: FORGE_VALUES only: rewrite the interaction log consistently so
    #: replay audits cannot distinguish the forgery.
    forge_log: bool = False
    attacks: list[AttackRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = derive_rng(self.seed, "byzantine", self.strategy.value)
        # code_hash -> cached (result, interaction_log) / (result, cert)
        self._replay_cache: dict[bytes, tuple[bytes, list[tuple]]] = {}
        self._stale_cache: dict[bytes, tuple[bytes, object]] = {}

    def active(self, now: float) -> bool:
        return self.start <= now

    # ------------------------------------------------------------- hooks

    def before_certify(self, executor: "Executor", record: "ExecutionRecord") -> None:
        """Runs after the sandbox finished, before the signature: the
        certificate the executor signs covers whatever this forges."""
        if record.status != "completed" or not self.active(executor.simulator.now):
            return
        if self.strategy is ByzantineStrategy.FORGE_VALUES:
            self._forge_values(executor, record)
        elif self.strategy is ByzantineStrategy.HIDE_FAULTS:
            self._hide_faults(executor, record)
        elif self.strategy is ByzantineStrategy.REPLAY_RESULT:
            self._replay_result(executor, record)

    def after_certify(self, executor: "Executor", record: "ExecutionRecord") -> None:
        """Runs after signing: stale-certificate reuse swaps in an old
        (result, certificate) pair wholesale, skipping fresh work."""
        if record.status != "completed" or not self.active(executor.simulator.now):
            return
        if self.strategy is ByzantineStrategy.STALE_CERTIFICATE:
            self._stale_certificate(executor, record)

    # --------------------------------------------------------- strategies

    def _record_attack(
        self, executor: "Executor", record: "ExecutionRecord", detail: str
    ) -> None:
        record.tampered = self.strategy.value
        self.attacks.append(
            AttackRecord(
                strategy=self.strategy,
                vantage=(executor.asn, executor.interface),
                application=record.application.name,
                code_hash=record.application.code_hash(),
                result_hash=sha256(record.result),
                at=executor.simulator.now,
                detail=detail,
            )
        )

    def _forged_rtt(self, current: int) -> int | None:
        lo, hi = FORGE_RTT_US
        forged = int(self._rng.integers(lo, hi + 1))
        return forged if forged < current else None

    def _forge_values(self, executor: "Executor", record: "ExecutionRecord") -> None:
        if self.forge_log:
            forged = self._forge_values_consistently(record)
        else:
            forged = self._forge_values_result_only(record)
        if forged:
            self._record_attack(
                executor, record,
                f"forged {forged} rtt values (consistent_log={self.forge_log})",
            )

    def _forge_values_result_only(self, record: "ExecutionRecord") -> int:
        """Patch only the published result bytes; the transcript still
        tells the truth, so a replay audit contradicts the result."""
        try:
            pairs = decode_result_pairs(record.result)
        except Exception:
            return 0
        forged = 0
        out = bytearray()
        for key, value in pairs:
            new = self._forged_rtt(value) if value > 0 else None
            if new is not None:
                value = new
                forged += 1
            out += (key & _MASK64).to_bytes(8, "little")
            out += (value & _MASK64).to_bytes(8, "little")
        if forged:
            record.result = bytes(out)
        return forged

    def _forge_values_consistently(self, record: "ExecutionRecord") -> int:
        """Rewrite transcript *and* result so replay re-derives the lie.

        The echo client computes ``rtt = now_us - table[seq]`` where the
        reply-time ``now_us`` is a *resume input* in the transcript, keeps
        the pair in its output region and publishes that region with one
        ``result_bytes`` call at exit. A ``now_us`` call right after a
        successful ``net_recv`` is a recorded reply, and the k-th one is
        pair k of that call's payload. Shifting the logged ``now_us``
        result down by ``rtt - forged_rtt`` makes a faithful replay
        recompute exactly ``forged_rtt``; the RTT word is patched in the
        logged payload and in the result buffer in lockstep. Fuel is
        untouched (same instruction path), so the forged transcript is
        bit-for-bit self-consistent.
        """
        entries = list(record.interaction_log)

        # The publishing call, and where its bytes start in the result.
        publish, start, off = None, 0, 0
        for index, entry in enumerate(entries):
            if entry[0] == "call":
                if entry[1] == "result_bytes":
                    publish, start = index, off
                off += len(output_bytes(*entry[1:]))
        if publish is None:
            return 0
        payload = bytearray(entries[publish][3])
        data = bytearray(record.result)

        forged = 0
        pair = 0
        for i in range(len(entries) - 3):
            if not (
                entries[i][0] == "call" and entries[i][1] == "net_recv"
                and entries[i + 1][0] == "resume" and entries[i + 1][1] >= 0
                and entries[i + 2][0] == "call" and entries[i + 2][1] == "now_us"
                and entries[i + 3][0] == "resume"
            ):
                continue
            slot = 16 * pair + 8  # the RTT word of this reply's pair
            pair += 1
            if slot + 8 > len(payload):
                break
            rtt = int.from_bytes(payload[slot : slot + 8], "little", signed=True)
            new_rtt = self._forged_rtt(rtt) if rtt > 0 else None
            if new_rtt is None:
                continue
            reply_time = int(entries[i + 3][1])
            entries[i + 3] = ("resume", reply_time - (rtt - new_rtt), None)
            word = (new_rtt & _MASK64).to_bytes(8, "little")
            payload[slot : slot + 8] = word
            data[start + slot : start + slot + 8] = word
            forged += 1
        if forged:
            entries[publish] = entries[publish][:3] + (bytes(payload),)
            record.interaction_log = entries
            record.result = bytes(data)
        return forged

    def _hide_faults(self, executor: "Executor", record: "ExecutionRecord") -> None:
        """Fabricate pairs for probes the network lost (§VI fault-hiding).

        Sent sequence numbers come from the transcript's ``net_send``
        calls; any seq without a matching result pair was lost. The
        corruptor invents a plausible RTT for each — but leaves the
        transcript honest (the timeouts are still in it), so replay
        audits and the server's echo count both expose the padding.
        """
        try:
            pairs = decode_result_pairs(record.result)
        except Exception:
            return
        sent = [
            int(entry[2][3])
            for entry in record.interaction_log
            if entry[0] == "call" and entry[1] == "net_send"
        ]
        observed = {key for key, _ in pairs}
        missing = [seq for seq in sent if seq not in observed]
        if not missing:
            return
        rtts = sorted(value for _, value in pairs if value > 0)
        fabricated = bytearray()
        for seq in missing:
            if rtts:
                rtt = rtts[len(rtts) // 2] + int(self._rng.integers(-50, 51))
                rtt = max(rtt, 1)
            else:
                lo, hi = FORGE_RTT_US
                rtt = int(self._rng.integers(lo, hi + 1))
            fabricated += (seq & _MASK64).to_bytes(8, "little")
            fabricated += (rtt & _MASK64).to_bytes(8, "little")
        record.result = record.result + bytes(fabricated)
        self._record_attack(
            executor, record, f"fabricated {len(missing)} lost probes"
        )

    def _replay_result(self, executor: "Executor", record: "ExecutionRecord") -> None:
        """Equivocate: republish an earlier run's result + transcript.

        The first execution of each module runs honestly and is cached;
        later ones are overwritten with the cached copy. The certificate
        is signed *after* this hook, so timestamps are fresh and the
        transcript matches the result — internally flawless, exposed
        only by the same result hash appearing under two applications.
        """
        key = record.application.code_hash()
        cached = self._replay_cache.get(key)
        if cached is None:
            self._replay_cache[key] = (
                record.result, list(record.interaction_log)
            )
            return
        result, log = cached
        record.result = result
        record.interaction_log = list(log)
        self._record_attack(executor, record, "replayed cached result")

    def _stale_certificate(
        self, executor: "Executor", record: "ExecutionRecord"
    ) -> None:
        """Reuse an old (result, certificate) pair wholesale.

        Cheapest attack of all — no fresh signature, no fresh work. The
        old certificate's ``started_at``/``finished_at`` sit in a
        previous purchase window, so window containment convicts it.
        """
        key = record.application.code_hash()
        cached = self._stale_cache.get(key)
        if cached is None:
            self._stale_cache[key] = (record.result, record.certificate)
            return
        result, certificate = cached
        record.result = result
        record.certificate = certificate
        self._record_attack(executor, record, "reused stale certificate")
