"""Trustfree result verification: audits, cross-validation, slashing (§11).

The certificate chain (:mod:`repro.core.verification`) proves a result
was published by the registered executor for the right code at the right
vantage — but nothing stops that executor from *lying about what it
measured*. This module adds the three defenses that make results
trustfree against the Byzantine strategies of
:mod:`repro.core.byzantine`:

1. **Challenge–response replay audits.** Executors keep a transcript of
   every sandbox boundary crossing (``ExecutionRecord.interaction_log``).
   An audited executor must surrender it, and
   :func:`replay_interaction_log` re-drives the logged inputs (begin
   args, resume results, received packets) through a fresh *reference*
   interpreter — the same trap-bail replay machinery
   ``sandbox/compile.py`` uses for compiled-tier exactness — and diffs
   every host call, the emitted result bytes, and the fuel bit-for-bit.
   A published result the transcript cannot reproduce is a conviction.

2. **Cross-validation of overlapping path segments** (§VI). Sessions
   measuring the same AS pair — directly, in reverse, or composed from
   adjacent sub-segments measured by *independent* executors — must
   agree. Votes (one per executor per AS pair, plus one composed vote
   per intermediate AS) are clustered by mutual tolerance; with at
   least :data:`QUORUM` independent votes, every vote outside the
   majority cluster convicts its executor. Majority clustering, not
   pairwise comparison, is what attributes the lie: a disagreement flags
   the minority, never the honest majority.

3. **Always-on cheap checks** on every published session: certificate
   timestamps inside the purchased window (stale-certificate reuse),
   the same executor publishing identical result bytes under different
   applications (replay equivocation — skipped for low-entropy results
   like the 16-byte server counter), and the client claiming more
   reply pairs than the server echoed (fault-hiding; arbitration is a
   replay audit of the client, so the right party is convicted).

Convictions are executed on-chain (``slash_executor``): the executor's
stake burns into the ledger's ``tokens_slashed`` sink and the evidence
hash is recorded in the conviction map. The :class:`Auditor` samples
replay audits at ``AuditConfig.audit_rate`` from a seeded stream, so
the whole pipeline is deterministic per seed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chain.crypto import sha256
from repro.common.errors import ChainError, SandboxError
from repro.common.rng import derive_rng
from repro.common.serialize import canonical_encode
from repro.contracts.debuglet_market import DebugletMarket
from repro.core.executor import WINDOW_SLACK
from repro.sandbox.hostops import output_bytes
from repro.sandbox.program import ReceivedData
from repro.sandbox.programs import decode_result_pairs
from repro.sandbox.vm import Done, HostCall

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.application import DebugletApplication
    from repro.core.executor import ExecutionRecord, Executor
    from repro.core.marketplace import MeasurementSession

#: Results at or below this size carry too little entropy for duplicate
#: detection (e.g. the echo server's single (0, count) pair legitimately
#: repeats across sessions).
MIN_EQUIVOCATION_BYTES = 32

#: Minimum independent votes on an AS pair before cross-validation may
#: convict (the §VI disagreement quorum).
QUORUM = 3
#: Absolute (µs) and relative RTT agreement tolerances for clustering.
RTT_TOLERANCE_US = 2_000.0
RTT_REL_TOLERANCE = 0.35


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the audit pipeline (defaults match EXPERIMENTS.md)."""

    #: Fraction of completed sessions spot-checked by replay audit.
    audit_rate: float = 0.25
    seed: int = 0


# --------------------------------------------------------------- replay


@dataclass(frozen=True)
class ReplayMismatch:
    """One divergence between the transcript and its replay."""

    index: int  # interaction-log entry index
    kind: str  # call-diff | done-diff | trap-diff | missing-* | result-diff
    expected: str
    actual: str


@dataclass
class ReplayReport:
    """Outcome of re-driving one transcript on the reference tier."""

    ok: bool
    mismatches: list[ReplayMismatch]
    result: bytes
    fuel_used: int
    return_value: int | None


def replay_interaction_log(
    application: "DebugletApplication",
    interaction_log: list[tuple],
    *,
    obs=None,
) -> ReplayReport:
    """Re-drive a transcript's inputs on a fresh reference interpreter.

    Feeds the logged ``begin``/``resume`` inputs to a new instance of
    ``application`` (reference tier, so the audit is independent of the
    compiled tier under audit) and diffs each produced step against the
    logged ``call``/``done``/``trap`` outputs. Emitted result bytes are
    accumulated from the *replayed* steps, so the returned ``result`` is
    what the code actually computes from those inputs — comparing it to
    the published bytes is the caller's final check. Stops at the first
    divergence: everything after a fork is unattributable.
    """
    program = application.instantiate(obs=obs, tier="reference")
    mismatches: list[ReplayMismatch] = []
    emitted = bytearray()
    return_value: int | None = None
    pending: object = None
    pending_trap: str | None = None

    def drive(fn, *args) -> None:
        nonlocal pending, pending_trap
        try:
            pending = fn(*args)
            pending_trap = None
        except SandboxError as exc:
            pending = None
            pending_trap = str(exc)

    for index, entry in enumerate(interaction_log):
        kind = entry[0]
        if kind == "begin":
            drive(program.begin, list(entry[1]))
        elif kind == "resume":
            data = None if entry[2] is None else ReceivedData(*entry[2])
            drive(program.resume, int(entry[1]), data)
        elif kind == "call":
            if pending_trap is not None or not isinstance(pending, HostCall):
                mismatches.append(
                    ReplayMismatch(
                        index,
                        "missing-call",
                        f"call {entry[1]}{tuple(entry[2])}",
                        pending_trap if pending_trap is not None else repr(pending),
                    )
                )
                break
            logged = (entry[1], tuple(entry[2]), entry[3])
            replayed = (pending.name, tuple(pending.args), pending.payload)
            if logged != replayed:
                mismatches.append(
                    ReplayMismatch(
                        index,
                        "call-diff",
                        f"{logged[0]}{logged[1]}",
                        f"{replayed[0]}{replayed[1]}",
                    )
                )
                break
            emitted += output_bytes(pending.name, pending.args, pending.payload)
            pending = None
        elif kind == "done":
            if pending_trap is not None or not isinstance(pending, Done):
                mismatches.append(
                    ReplayMismatch(
                        index,
                        "missing-done",
                        f"done {entry[1]}",
                        pending_trap if pending_trap is not None else repr(pending),
                    )
                )
                break
            if pending.value != entry[1]:
                mismatches.append(
                    ReplayMismatch(
                        index, "done-diff", str(entry[1]), str(pending.value)
                    )
                )
                break
            return_value = pending.value
            pending = None
        elif kind == "trap":
            if pending_trap is None:
                mismatches.append(
                    ReplayMismatch(index, "missing-trap", entry[1], repr(pending))
                )
                break
            if pending_trap != entry[1]:
                mismatches.append(
                    ReplayMismatch(index, "trap-diff", entry[1], pending_trap)
                )
                break
            pending_trap = None
        else:  # pragma: no cover - defensive
            mismatches.append(
                ReplayMismatch(index, "unknown-entry", "", repr(entry))
            )
            break
    return ReplayReport(
        ok=not mismatches,
        mismatches=mismatches,
        result=bytes(emitted),
        fuel_used=program.fuel_used,
        return_value=return_value,
    )


def audit_record(
    record: "ExecutionRecord",
    *,
    published_result: bytes | None = None,
    purchased_args: tuple[int, ...] | None = None,
    obs=None,
) -> tuple[bool, list[str], ReplayReport]:
    """Full challenge–response audit of one execution record.

    Replays the transcript and checks the replayed emissions against the
    published result bytes (default: the record's own) and, when given,
    the transcript's ``begin`` arguments against the purchased
    application's: a transcript that replays cleanly proves what the code
    computed from the arguments it was started with, not that they were
    the ones bought. Returns ``(ok, findings, report)``.
    """
    if published_result is None:
        published_result = record.result
    report = replay_interaction_log(
        record.application, record.interaction_log, obs=obs
    )
    findings = [
        f"transcript diverges at entry {m.index} ({m.kind}): "
        f"logged {m.expected!r}, replayed {m.actual!r}"
        for m in report.mismatches
    ]
    if purchased_args is not None:
        begun = next(
            (tuple(entry[1]) for entry in record.interaction_log
             if entry[0] == "begin"),
            None,
        )
        if begun != tuple(purchased_args):
            findings.append(
                f"transcript begins with arguments {begun}, the purchased "
                f"application's are {tuple(purchased_args)}"
            )
    if report.ok and report.result != published_result:
        findings.append(
            f"published result ({len(published_result)} bytes, "
            f"{sha256(published_result).hex()[:12]}) does not match replayed "
            f"emissions ({len(report.result)} bytes, "
            f"{sha256(report.result).hex()[:12]})"
        )
    if report.ok and record.status == "completed" and record.fuel_used:
        if report.fuel_used != record.fuel_used:
            findings.append(
                f"fuel mismatch: recorded {record.fuel_used}, "
                f"replayed {report.fuel_used}"
            )
    return (not findings, findings, report)


# ----------------------------------------------------- cross-validation


@dataclass(frozen=True)
class PathSample:
    """One session's client-side RTT claim over an AS pair."""

    application_id: str
    client_vantage: tuple[int, int]
    endpoints: tuple[int, int]  # unordered (min asn, max asn)
    rtt_us: float  # session median claimed RTT
    pairs: int


@dataclass(frozen=True)
class CrossFinding:
    """A cross-validation conviction candidate."""

    client_vantage: tuple[int, int]
    application_ids: tuple[str, ...]
    endpoints: tuple[int, int]
    claimed_rtt_us: float
    reference_rtt_us: float
    votes: int


class SegmentCrossValidator:
    """§VI disagreement scoring over overlapping path-segment claims.

    One vote per (AS pair, executor): the median of that executor's
    claimed RTTs on the pair. Pairs spanning an intermediate AS also get
    one *composed* vote — the sum of the sub-segment medians from
    executors with no direct vote on the pair, so a suspect cannot
    poison its own reference. With :data:`QUORUM` or more votes on a pair,
    votes are clustered by mutual tolerance; a strict-majority cluster
    convicts everyone outside it. Named to stay distinct from
    :class:`repro.core.antigaming.CrossValidator`, which compares
    executor vs end-host views (§VI-E) rather than executor vs executor.
    """

    def __init__(self) -> None:
        self.samples: list[PathSample] = []

    def add(self, sample: PathSample) -> None:
        self.samples.append(sample)

    def _agree(self, a: float, b: float) -> bool:
        tolerance = max(RTT_TOLERANCE_US, RTT_REL_TOLERANCE * max(a, b))
        return abs(a - b) <= tolerance

    def findings(self) -> list[CrossFinding]:
        by_pair: dict[tuple[int, int], dict[tuple[int, int], list[PathSample]]] = {}
        for sample in self.samples:
            by_pair.setdefault(sample.endpoints, {}).setdefault(
                sample.client_vantage, []
            ).append(sample)

        # Direct votes: one per (pair, executor).
        votes: dict[tuple[int, int], list[tuple[object, float]]] = {}
        for pair, by_executor in by_pair.items():
            votes[pair] = [
                (vantage, statistics.median(s.rtt_us for s in samples))
                for vantage, samples in sorted(by_executor.items())
            ]

        # Composed votes: pair (a, c) via intermediate b, from executors
        # with no direct vote on (a, c).
        composed: dict[tuple[int, int], list[tuple[object, float]]] = {}
        ases = sorted({asn for pair in votes for asn in pair})
        for a, c in list(votes):
            direct_executors = {vantage for vantage, _ in votes[(a, c)]}
            for b in ases:
                if b in (a, c):
                    continue
                left, right = tuple(sorted((a, b))), tuple(sorted((b, c)))
                if left not in by_pair or right not in by_pair:
                    continue
                parts = []
                contributors: set[tuple[int, int]] = set()
                for sub in (left, right):
                    sub_votes = [
                        rtt
                        for vantage, rtt in votes[sub]
                        if vantage not in direct_executors
                    ]
                    contributors.update(
                        vantage
                        for vantage, _ in votes[sub]
                        if vantage not in direct_executors
                    )
                    if not sub_votes:
                        break
                    parts.append(statistics.median(sub_votes))
                if len(parts) == 2:
                    composed.setdefault((a, c), []).append(
                        (("composed", b, tuple(sorted(contributors))), sum(parts))
                    )

        findings: list[CrossFinding] = []
        for pair, direct in sorted(votes.items()):
            ballot = direct + composed.get(pair, [])
            if len(ballot) < QUORUM:
                continue
            counts = [
                sum(1 for _, other in ballot if self._agree(rtt, other))
                for _, rtt in ballot
            ]
            majority = max(counts)
            if majority <= len(ballot) / 2:
                continue  # no majority: disagreement is unattributable
            reference = statistics.median(
                rtt
                for (_, rtt), count in zip(ballot, counts)
                if count == majority
            )
            for (who, rtt), count in zip(ballot, counts):
                if count > len(ballot) / 2:
                    continue
                if not isinstance(who, tuple) or len(who) != 2:
                    continue  # composed minority vote: no single culprit
                samples = by_pair[pair].get(who, [])
                findings.append(
                    CrossFinding(
                        client_vantage=who,
                        application_ids=tuple(
                            s.application_id for s in samples
                        ),
                        endpoints=pair,
                        claimed_rtt_us=rtt,
                        reference_rtt_us=reference,
                        votes=len(ballot),
                    )
                )
        return findings


# --------------------------------------------------------------- auditor


@dataclass(frozen=True)
class AuditFinding:
    """One detected misbehavior, attributable to an executor."""

    mechanism: str  # replay | cross-validation | window | equivocation | counts
    vantage: tuple[int, int]
    application_id: str
    detail: str


class Auditor:
    """The marketplace's audit principal.

    Observes every completed session (cheap checks + cross-validation
    sampling), spot-checks a seeded ``audit_rate`` fraction with replay
    audits, and executes convictions on-chain through ``slash_executor``
    with the SHA-256 of the canonically-encoded evidence. Wire into a
    :class:`~repro.core.fleet.FleetScheduler` via its ``auditor``
    parameter, or call :meth:`on_session_complete` directly.
    """

    def __init__(
        self,
        ledger,
        market,
        wallet,
        *,
        executors: dict[tuple[int, int], "Executor"] | None = None,
        config: AuditConfig | None = None,
        simulator=None,
        obs=None,
    ) -> None:
        self.ledger = ledger
        self.market = market
        self.wallet = wallet
        self.executors = dict(executors or {})
        self.config = config or AuditConfig()
        self.simulator = simulator
        self._obs = obs
        self._rng = derive_rng(self.config.seed, "auditor")
        self.cross = SegmentCrossValidator()
        self.findings: list[AuditFinding] = []
        self.convictions: list[dict] = []
        self.conviction_failures: list[tuple[str, str]] = []
        self.sessions_observed = 0
        self.sessions_audited = 0
        self._convicted: set[tuple[tuple[int, int], str]] = set()
        # (vantage, result_hash) -> first application id seen.
        self._result_index: dict[tuple[tuple[int, int], bytes], str] = {}

    @property
    def obs(self):
        if self._obs is not None:
            return self._obs
        if self.simulator is not None:
            return self.simulator.obs
        return None

    def register(self) -> None:
        """Claim the on-chain auditor role."""
        self.wallet.must_call(DebugletMarket.name, "register_auditor")

    # ------------------------------------------------------- observation

    def on_session_complete(self, session: "MeasurementSession") -> None:
        """Cheap always-on checks; maybe schedule a sampled replay audit."""
        self.sessions_observed += 1
        obs = self.obs
        certified = {
            role: outcome
            for role, outcome in session.outcomes.items()
            if outcome.status == "completed" and outcome.certificate is not None
        }
        for role in sorted(certified):
            self._check_window(session, certified[role])
            self._check_equivocation(certified[role])
        self._check_counts(certified)
        self._collect_sample(session, certified)
        sampled = bool(certified) and float(self._rng.random()) < self.config.audit_rate
        if obs is not None:
            obs.metrics.counter(
                "audit_sessions_total",
                sampled="yes" if sampled else "no",
            ).inc()
        if not sampled:
            return
        self.sessions_audited += 1
        if self.simulator is not None:
            # Cooperative: the replay runs as its own simulator event, not
            # inline in the session-completion callback.
            self.simulator.schedule(0.0, self._replay_session, session, certified)
        else:
            self._replay_session(session, certified)

    def _check_window(self, session, outcome) -> None:
        certificate = outcome.certificate
        if certificate.within_window(
            session.window_start, session.window_end, WINDOW_SLACK
        ):
            return
        self._convict(
            vantage=(certificate.asn, certificate.interface),
            application_id=outcome.application_id,
            mechanism="window",
            detail=(
                f"certificate covers [{certificate.started_at:.3f}, "
                f"{certificate.finished_at:.3f}] outside purchased window "
                f"[{session.window_start:.3f}, {session.window_end:.3f}]"
            ),
            evidence={
                "started_at": certificate.started_at,
                "finished_at": certificate.finished_at,
                "window_start": session.window_start,
                "window_end": session.window_end,
                "result_hash": certificate.result_hash,
            },
        )

    def _check_equivocation(self, outcome) -> None:
        if len(outcome.result) <= MIN_EQUIVOCATION_BYTES:
            return
        certificate = outcome.certificate
        vantage = (certificate.asn, certificate.interface)
        key = (vantage, certificate.result_hash)
        first = self._result_index.get(key)
        if first is None:
            self._result_index[key] = outcome.application_id
            return
        if first == outcome.application_id:
            return
        self._convict(
            vantage=vantage,
            application_id=outcome.application_id,
            mechanism="equivocation",
            detail=(
                f"result {certificate.result_hash.hex()[:12]} already "
                f"published under application {first}"
            ),
            evidence={
                "result_hash": certificate.result_hash,
                "first_application": first,
                "second_application": outcome.application_id,
            },
        )

    def _check_counts(self, certified: dict) -> None:
        """Client reply pairs can never exceed server echoes (§VI)."""
        client = certified.get("client")
        server = certified.get("server")
        if client is None or server is None:
            return
        echoes = _server_echo_count(server.result)
        if echoes is None:
            return
        try:
            pairs = decode_result_pairs(client.result)
        except SandboxError:
            return
        if len(pairs) <= echoes:
            return
        # Arbitration: one of the two is lying. Replay the client — a
        # fabricated pair cannot survive the transcript.
        suspect, mechanism = client, "counts"
        record = self._find_record(client)
        if record is not None:
            ok, _, _ = audit_record(
                record, published_result=client.result, obs=self.obs
            )
            if ok:
                suspect, mechanism = server, "counts-understated"
        certificate = suspect.certificate
        self._convict(
            vantage=(certificate.asn, certificate.interface),
            application_id=suspect.application_id,
            mechanism=mechanism,
            detail=(
                f"client claims {len(pairs)} reply pairs but server "
                f"echoed {echoes}"
            ),
            evidence={
                "client_pairs": len(pairs),
                "server_echoes": echoes,
                "client_result_hash": sha256(client.result),
                "server_result_hash": sha256(server.result),
            },
        )

    def _collect_sample(self, session, certified: dict) -> None:
        client = certified.get("client")
        server = certified.get("server")
        if client is None or server is None:
            return
        if _server_echo_count(server.result) is None:
            return  # not an echo session: values are not RTTs
        try:
            pairs = decode_result_pairs(client.result)
        except SandboxError:
            return
        rtts = [value for _, value in pairs if value > 0]
        if not rtts:
            return
        cc, sc = client.certificate, server.certificate
        self.cross.add(
            PathSample(
                application_id=client.application_id,
                client_vantage=(cc.asn, cc.interface),
                endpoints=tuple(sorted((cc.asn, sc.asn))),
                rtt_us=float(statistics.median(rtts)),
                pairs=len(pairs),
            )
        )

    # ------------------------------------------------------ replay audits

    def _find_record(self, outcome) -> "ExecutionRecord | None":
        certificate = outcome.certificate
        executor = self.executors.get((certificate.asn, certificate.interface))
        if executor is None:
            return None
        for record in executor.executions:
            if (
                record.certificate is not None
                and record.certificate.signature == certificate.signature
            ):
                return record
        return None

    def _replay_session(self, session, certified: dict) -> None:
        obs = self.obs
        for role in sorted(certified):
            outcome = certified[role]
            certificate = outcome.certificate
            vantage = (certificate.asn, certificate.interface)
            span = None
            if obs is not None:
                span = obs.tracer.begin(
                    "audit.replay",
                    component="audit",
                    corr=f"audit:{outcome.application_id[:12]}",
                    vantage=f"{vantage[0]}:{vantage[1]}",
                    role=role,
                )
            record = self._find_record(outcome)
            if record is None:
                if obs is not None:
                    obs.tracer.finish(span, outcome="no-transcript")
                continue  # executor unknown to this auditor (e.g. synthetic)
            purchased = None
            if session.plan is not None:
                purchased = (session.plan.client_app if role == "client"
                             else session.plan.server_app).args
            ok, details, report = audit_record(
                record, published_result=outcome.result,
                purchased_args=purchased, obs=None,
            )
            if obs is not None:
                obs.metrics.counter(
                    "audit_replays_total", outcome="ok" if ok else "mismatch"
                ).inc()
                obs.tracer.finish(
                    span,
                    outcome="ok" if ok else "mismatch",
                    mismatches=len(report.mismatches),
                )
            if ok:
                continue
            self._convict(
                vantage=vantage,
                application_id=outcome.application_id,
                mechanism="replay",
                detail="; ".join(details),
                evidence={
                    "published_result_hash": sha256(outcome.result),
                    "replayed_result_hash": sha256(report.result),
                    "mismatches": [
                        [m.index, m.kind, m.expected, m.actual]
                        for m in report.mismatches
                    ],
                },
            )

    # ------------------------------------------------------- convictions

    def finalize(self) -> list[dict]:
        """Run cross-validation over everything observed; return convictions."""
        for finding in self.cross.findings():
            for application_id in finding.application_ids:
                self._convict(
                    vantage=finding.client_vantage,
                    application_id=application_id,
                    mechanism="cross-validation",
                    detail=(
                        f"claimed {finding.claimed_rtt_us:.0f}us on AS pair "
                        f"{finding.endpoints} against a {finding.votes}-vote "
                        f"majority at {finding.reference_rtt_us:.0f}us"
                    ),
                    evidence={
                        "endpoints": list(finding.endpoints),
                        "claimed_rtt_us": finding.claimed_rtt_us,
                        "reference_rtt_us": finding.reference_rtt_us,
                        "votes": finding.votes,
                    },
                )
        return list(self.convictions)

    def _convict(
        self,
        *,
        vantage: tuple[int, int],
        application_id: str,
        mechanism: str,
        detail: str,
        evidence: dict,
    ) -> None:
        finding = AuditFinding(
            mechanism=mechanism,
            vantage=vantage,
            application_id=application_id,
            detail=detail,
        )
        self.findings.append(finding)
        if (vantage, application_id) in self._convicted:
            return
        self._convicted.add((vantage, application_id))
        payload = {
            "mechanism": mechanism,
            "vantage": f"{vantage[0]}:{vantage[1]}",
            "application": application_id,
        }
        payload.update(evidence)
        evidence_hash = sha256(canonical_encode(payload))
        obs = self.obs
        try:
            receipt = self.wallet.must_call(
                DebugletMarket.name,
                "slash_executor",
                vantage[0],
                vantage[1],
                application_id,
                evidence_hash,
                mechanism,
            )
        except ChainError as exc:
            self.conviction_failures.append((application_id, str(exc)))
            if obs is not None:
                obs.metrics.counter(
                    "audit_convictions_total", mechanism=mechanism,
                    status="failed",
                ).inc()
            return
        conviction = {
            "vantage": vantage,
            "application_id": application_id,
            "mechanism": mechanism,
            "detail": detail,
            "evidence_hash": evidence_hash,
            "slashed": receipt.return_value,
        }
        self.convictions.append(conviction)
        if obs is not None:
            obs.metrics.counter(
                "audit_convictions_total", mechanism=mechanism, status="slashed"
            ).inc()
            obs.tracer.event(
                "audit.conviction",
                component="audit",
                vantage=f"{vantage[0]}:{vantage[1]}",
                application_id=application_id,
                mechanism=mechanism,
                slashed=receipt.return_value,
                evidence=evidence_hash.hex(),
            )


def _server_echo_count(result: bytes) -> int | None:
    """The echo server's ``(0, count)`` trailer, or None if not one."""
    try:
        pairs = decode_result_pairs(result)
    except SandboxError:
        return None
    if len(pairs) == 1 and pairs[0][0] == 0:
        return int(pairs[0][1])
    return None
